"""Category and topological-complexity upper bounds, pure and non-pure routes."""
import itertools

import pytest

from sullivan import build_model
from sullivan.algebra import Element, make_generators
from sullivan.bounds import cat_estimate, tc_upper_bound, tc_upper_bound_nonpure
from sullivan.errors import (
    EvenMismatch,
    NonConstantLength,
    NotElliptic,
    NotPure,
    SubModelNotClosed,
    SubModelNotPure,
)
from sullivan.groebner import buchberger, member


def cp(n):
    return build_model([("x", 2), ("y", 2 * n + 1)],
                       {"y": lambda e: e["x"] ** (n + 1)}, name=f"cp{n}")


def test_cp_series():
    for n in (1, 2, 3, 4):
        report = tc_upper_bound(cp(n))
        assert report.cat_value == n
        assert report.tc_upper == 2 * n
        assert report.chi_pi == 0
        if n == 1:
            assert report.cat_provenance == "coformal"
            assert report.tc_provenance == "cor-3.2"
        else:
            assert report.cat_provenance == "lechuga-murillo"
            assert report.tc_provenance == "thm-3.1"


def test_cp_bound_is_attained_by_the_zero_divisor_cup_length():
    # zcl0 of H*(CP^n) (x) H*(CP^n) = Q[a, b]/(a^(n+1), b^(n+1)) is at least
    # the largest k with (a - b)^k outside the ideal; as zcl0 <= TC0 <= the
    # bound, meeting it pins TC0(CP^n) = 2n
    gens = make_generators([("a", 2), ("b", 2)])
    a, b = (Element.from_generator(g) for g in gens)
    for n in (1, 2, 3, 4):
        gb = buchberger([a ** (n + 1), b ** (n + 1)], gens)
        zcl = next(k for k in itertools.count() if member((a - b) ** (k + 1), gb))
        assert zcl == tc_upper_bound(cp(n)).tc_upper == 2 * n


def test_sphere():
    s2 = cp(1)
    report = tc_upper_bound(s2)
    assert report.tc_upper == 2 == s2.dim_v()


def test_odd_spheres_treated_coformal(odd_spheres):
    report = tc_upper_bound(odd_spheres)
    assert report.cat_value == 3
    assert report.tc_upper == 3 == odd_spheres.dim_v()
    assert report.tc_provenance == "cor-3.2"
    assert any("zero differential" in n or "l = 2" in n or "coformal" in n
               for n in report.applicability_notes)


def test_coformal_tc_equals_dim_v(tower_model):
    report = tc_upper_bound(tower_model)
    assert report.tc_upper == tower_model.dim_v() == 5
    assert report.cat_value == 3  # three odds, coformal adds nothing
    assert report.chi_pi == -1


def test_cat_formula_higher_length():
    # cat = dim V^odd + (l-2) * dim V^even
    m = build_model(
        [("x1", 2), ("x2", 2), ("y1", 5), ("y2", 5)],
        {"y1": lambda e: e["x1"] ** 3,
         "y2": lambda e: e["x2"] ** 3}, name="cubic")
    report = tc_upper_bound(m)
    assert report.cat_value == 2 + 1 * 2 == 4
    assert report.tc_upper == 8
    assert report.tc_provenance == "thm-3.1"


def test_mixed_length_rejected(mixed_model):
    with pytest.raises(NonConstantLength):
        cat_estimate(mixed_model)
    with pytest.raises(NonConstantLength):
        tc_upper_bound(mixed_model)


def test_not_elliptic_rejected():
    fat = build_model([("x1", 2), ("x2", 2), ("y", 3)],
                      {"y": lambda e: e["x1"] ** 2})
    with pytest.raises(NotElliptic):
        cat_estimate(fat)


def test_pure_bound_rejects_nonpure(nonpure_model):
    with pytest.raises(NotPure):
        tc_upper_bound(nonpure_model)


def test_nonpure_route(nonpure_model):
    report = tc_upper_bound_nonpure(nonpure_model, ["x", "w"])
    assert report.cat_value == 4
    assert report.chi_pi == -3
    assert report.tc_upper == 5 == nonpure_model.dim_v()
    assert report.tc_provenance == "cor-3.5"
    assert report.cat_provenance == "coformal"
    assert any("sub-model" in n for n in report.applicability_notes)


def test_nonpure_route_higher_length():
    m = build_model(
        [("x", 2), ("w", 5), ("y1", 3), ("y2", 3), ("z", 7)],
        {"w": lambda e: e["x"] ** 3,
         "z": lambda e: e["x"] * e["y1"] * e["y2"]},
        name="nonpure-cubic")
    report = tc_upper_bound_nonpure(m, ["x", "w"])
    # length 3: cat = 4 odds + 1 even, tc = 2*cat + chi = 10 - 3
    assert report.cat_value == 5
    assert report.tc_upper == 7
    assert report.tc_provenance == "thm-3.3"


def test_nonpure_route_guards(nonpure_model):
    with pytest.raises(SubModelNotClosed):
        tc_upper_bound_nonpure(nonpure_model, ["w"])  # dw needs x
    with pytest.raises(SubModelNotPure):
        tc_upper_bound_nonpure(nonpure_model,
                               ["x", "w", "y1", "y2", "z"])
    with pytest.raises(NotElliptic):
        tc_upper_bound_nonpure(nonpure_model, ["x", "y1"])


def test_nonpure_route_even_mismatch():
    m = build_model(
        [("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("u1", 3), ("u2", 3),
         ("z", 5)],
        {"y1": lambda e: e["x1"] ** 2, "y2": lambda e: e["x2"] ** 2,
         "z": lambda e: e["u1"] * e["u2"]},
        name="two-even-nonpure")
    with pytest.raises(EvenMismatch):
        tc_upper_bound_nonpure(m, ["x1", "y1"])
    report = tc_upper_bound_nonpure(m, ["x1", "x2", "y1", "y2"])
    assert report.cat_value == 5
    assert report.tc_upper == 2 * 5 + (2 - 5)


def test_report_shape(tower_model):
    d = tc_upper_bound(tower_model).to_dict()
    assert set(d) == {"model", "chi_pi", "applicability_notes",
                      "cat_value", "tc_upper"}
    assert set(d["cat_value"]) == {"value", "provenance"}
    assert set(d["tc_upper"]) == {"value", "provenance"}
    assert d["cat_value"]["value"] == 3
    assert d["tc_upper"]["value"] == 5
