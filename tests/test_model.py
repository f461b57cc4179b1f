"""Model construction, validation, derivation rule, quotients and sub-models."""
import random

import pytest
from conftest import Derivation, make_random_model
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sullivan import build_model
from sullivan.algebra import Element, Generator, enumerate_basis
from sullivan.errors import (
    DegreeMismatch,
    DifferentialNotSquareZero,
    NotClosedUnderDifferential,
    NotMinimal,
    UnknownGenerator,
    VerificationFailed,
)
from sullivan.model import SullivanModel


def cp(n):
    return build_model([("x", 2), ("y", 2 * n + 1)],
                       {"y": lambda e: e["x"] ** (n + 1)}, name=f"cp{n}")


def test_validate_good_model(mixed_model):
    report = mixed_model.validate()
    assert report.pure and report.minimal
    assert report.chi_pi == -1
    assert report.n_even == 2 and report.n_odd == 3


def test_differential_is_derivation(mixed_model):
    m = mixed_model
    y1 = m.element("y1")
    y2 = m.element("y2")
    x1 = m.element("x1")
    lhs = m.d(y1 * y2)
    rhs = m.d(y1) * y2 - y1 * m.d(y2)  # y1 is odd, sign flips on the second term
    assert lhs == rhs
    assert m.d(x1 * y1) == x1 * m.d(y1)
    assert m.d(x1).is_zero()


def test_d_square_zero_everywhere(mixed_model):
    m = mixed_model
    for g in m.generators:
        assert m.d(m.d(m.element(g.name))).is_zero()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        build_model([("x", 2), ("y", 5)], {"y": lambda e: e["x"] ** 2})


def test_not_minimal():
    bad = build_model([("x", 2), ("y", 3), ("z", 3)],
                      {"z": lambda e: e["x"] ** 2 + 0 * e["y"],
                       "y": lambda e: e["x"] ** 2},
                      name="ok")
    assert bad.validate().minimal  # fine: no linear terms
    with pytest.raises(NotMinimal):
        build_model([("x", 2), ("w", 5), ("z", 4)], {"z": lambda e: e["w"]})


def test_d_square_violation(d2_failure_model):
    with pytest.raises(DifferentialNotSquareZero) as exc:
        d2_failure_model()
    assert exc.value.generator == "z"


def test_purity(nonpure_model, mixed_model):
    assert not nonpure_model.is_pure()
    assert mixed_model.is_pure()


def test_differential_length(mixed_model, tower_model, odd_spheres):
    assert mixed_model.differential_length().render() == "mixed{4,5}"
    assert tower_model.differential_length().render() == "constant(2)"
    assert odd_spheres.differential_length().render() == "zero"
    assert tower_model.differential_length().is_constant


def test_length_ignores_zero_images():
    m = build_model([("x", 2), ("y", 3), ("w", 5)],
                    {"y": lambda e: e["x"] ** 2})
    assert m.differential_length().render() == "constant(2)"


def test_chi_pi(mixed_model, odd_spheres):
    assert mixed_model.chi_pi() == -1
    assert odd_spheres.chi_pi() == -3
    assert cp(3).chi_pi() == 0


def test_formal_dimension():
    # cp^n has formal dimension 2n
    for n in (1, 2, 3, 4):
        assert cp(n).formal_dimension() == 2 * n


def test_formal_dimension_mixed(mixed_model):
    # (29 + 31 + 33) - (5 + 7) = 81
    assert mixed_model.formal_dimension() == 81


def test_quotient_model(tower_model):
    q = tower_model.quotient_model(["x1", "y1"])
    assert [g.name for g in q.generators] == ["x2", "y2", "y3"]
    assert q.d(q.element("y2")).is_zero()  # x1*x2 dies with x1
    assert q.d(q.element("y3")) == q.element("x2") ** 2
    q.validate()


def test_a_quotient_failing_its_checks_is_a_verification_failure(tower_model, monkeypatch):
    # closure under d makes every quotient valid, so a failing check is a bug
    def failing(model):
        raise NotMinimal("y2", "d(y2) has a linear part")

    monkeypatch.setattr(SullivanModel, "_checked_report", failing)
    with pytest.raises(VerificationFailed) as exc:
        tower_model.quotient_model(["x1", "y1"])
    assert str(exc.value) == "quotient model failed validation: d(y2) has a linear part"
    assert isinstance(exc.value.__cause__, NotMinimal)


def test_sub_model(tower_model):
    s = tower_model.sub_model(["x1", "y1"])
    assert [g.name for g in s.generators] == ["x1", "y1"]
    s.validate()
    with pytest.raises(NotClosedUnderDifferential):
        tower_model.sub_model(["x1", "y2"])  # dy2 = x1*x2 leaves the span


def test_unknown_generator(tower_model):
    with pytest.raises(UnknownGenerator):
        tower_model.generator("nope")


def test_basis_of_degree(mixed_model):
    b6 = mixed_model.basis_of_degree(6)
    assert [m.render() for m in b6] == ["x1"]
    b14 = mixed_model.basis_of_degree(14)
    # x1 x2 and x1 x2... degree 14 = 6+8 only
    assert len(b14) == 1
    assert mixed_model.basis_of_degree(1) == []
    b0 = mixed_model.basis_of_degree(0)
    assert len(b0) == 1 and b0[0].is_unit()


def test_generator_lists_are_fresh_copies():
    m = build_model([("x1", 2), ("x2", 4), ("y1", 3), ("y2", 7)],
                    {"y1": lambda e: e["x1"] ** 2, "y2": lambda e: e["x2"] ** 2})
    evens, odds = m.even_generators, m.odd_generators
    assert [g.name for g in evens] == ["x1", "x2"] and [g.name for g in odds] == ["y1", "y2"]
    evens.clear()
    odds.append(odds[0])
    assert [g.name for g in m.even_generators] == ["x1", "x2"]
    assert [g.name for g in m.odd_generators] == ["y1", "y2"]
    assert m.even_generators is not m.even_generators
    assert m.chi_pi() == 0


def test_dim_v(mixed_model):
    assert mixed_model.dim_v() == 5


def test_element_lookup_returns_generator_element(mixed_model):
    e = mixed_model.element("x1")
    assert isinstance(e, Element)
    assert e.degree() == 6


# -- properties of the derivation ---------------------------------------------

#: derandomized, so the suite draws the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def homogeneous(draw, gens, degree):
    """A random element of the given degree, nonzero unless no monomial has it."""
    basis = enumerate_basis(gens, degree)
    if not basis:
        return Element.zero()
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                           max_size=len(basis)).filter(any))
    return Element(dict(zip(basis, coeffs)))


@st.composite
def free_models(draw):
    """A derivation on 1-2 even generators of degree 2 or 4 and 1-3 odd ones
    of degree 3 or 5, in shuffled positions, each with an arbitrary image of
    degree |g| + 1: even generators get images too, and images may be linear
    or carry odd factors, so the signs of non-pure models are exercised."""
    degrees = (draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=2))
               + draw(st.lists(st.sampled_from((3, 5)), min_size=1, max_size=3)))
    order = draw(st.permutations(range(len(degrees))))
    gens = [Generator(f"g{i}", d, order[i]) for i, d in enumerate(degrees)]
    return Derivation({g: draw(homogeneous(gens, g.degree + 1)) for g in gens})


@PROPERTY
@given(free_models(), st.data())
def test_d_obeys_the_leibniz_rule(m, data):
    p, q = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8))
    a = data.draw(homogeneous(m.generators, p))
    b = data.draw(homogeneous(m.generators, q))
    sign = -1 if p % 2 else 1
    assert m.d(a * b) == m.d(a) * b + sign * a * m.d(b)


@PROPERTY
@given(free_models(), st.data())
def test_d_is_linear(m, data):
    a, b = (data.draw(homogeneous(m.generators, data.draw(st.integers(0, 8))))
            + data.draw(homogeneous(m.generators, data.draw(st.integers(0, 8))))
            for _ in range(2))
    p, q = (data.draw(st.fractions(-3, 3, max_denominator=5)) for _ in range(2))
    assert m.d(p * a + q * b) == p * m.d(a) + q * m.d(b)


@PROPERTY
@given(free_models())
def test_d_of_a_generator_is_its_image(m):
    for g in m.generators:
        assert m.d(Element.from_generator(g)) == m.differential.get(g, Element.zero())


@PROPERTY
@given(st.integers(0, 2 ** 32), st.data())
def test_d_squared_vanishes_on_random_models(seed, data):
    m = make_random_model(random.Random(seed), seed)
    m.validate()
    e = data.draw(homogeneous(m.generators, data.draw(st.integers(0, 16))))
    assert m.d(m.d(e)).is_zero()
