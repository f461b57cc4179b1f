"""Ellipticity decisions, nilpotency exponents, certificates, cohomology ranks."""
import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import build_model, ellipticity, load_model, parse_model
from sullivan.algebra import MAX_DEGREE, Element, Generator, _integral, _key, make_generators
from sullivan.ellipticity import (
    ExactnessCertificate,
    _echelon,
    all_nilpotency_exponents,
    cohomology_dims,
    differential_ideal_basis,
    exactness_certificate,
    is_elliptic,
    is_elliptic_pure,
    nilpotency_exponent,
)
from sullivan.errors import (
    GeneratorMismatch,
    InvalidInput,
    NotElliptic,
    NotExact,
    NotPure,
    OddGeneratorPresent,
    VerificationFailed,
)
from sullivan.extension import _combine, f0_extend
from sullivan.groebner import _nf, member, quotient_dimension
from sullivan.model import SullivanModel

from conftest import MODELS, brute_force_basis, make_random_model
from test_extension import _finite, _wide, _workloads, _ws


def cp(n):
    return build_model([("x", 2), ("y", 2 * n + 1)],
                       {"y": lambda e: e["x"] ** (n + 1)}, name=f"cp{n}")


@pytest.fixture()
def not_elliptic():
    # two even generators, only one relation: Q[x1,x2]/(x1^2) is infinite
    return build_model([("x1", 2), ("x2", 2), ("y", 3)],
                       {"y": lambda e: e["x1"] ** 2}, name="fat")


def test_is_elliptic_positive(mixed_model, tower_model, odd_spheres):
    assert is_elliptic(mixed_model)
    assert is_elliptic(tower_model)
    assert is_elliptic(odd_spheres)
    for n in (1, 2, 3, 4):
        assert is_elliptic(cp(n))


def test_analysis_leaves_the_validation_report_alone(cp2):
    before = cp2.validate().to_dict()
    assert is_elliptic(cp2)
    assert all_nilpotency_exponents(cp2) == {"x": 3}
    assert cp2.validate().to_dict() == before


def test_is_elliptic_negative(not_elliptic):
    assert not is_elliptic(not_elliptic)
    assert not is_elliptic_pure(not_elliptic)


def test_polynomial_algebra_not_elliptic():
    m = build_model([("x", 2)], {}, name="k(Z,2)")
    assert not is_elliptic(m)


def test_is_elliptic_pure_requires_pure(nonpure_model):
    with pytest.raises(NotPure):
        is_elliptic_pure(nonpure_model)


def test_is_elliptic_general_handles_nonpure(nonpure_model):
    # the associated pure model keeps dw = x^2 and drops dz = y1*y2
    assert is_elliptic(nonpure_model)


def test_nilpotency_exponents(mixed_model):
    assert nilpotency_exponent(mixed_model, "x1") == 7
    assert nilpotency_exponent(mixed_model, "x2") == 5
    assert all_nilpotency_exponents(mixed_model) == {"x1": 7, "x2": 5}


def test_nilpotency_exponent_cp():
    for n in (1, 2, 3, 4):
        assert nilpotency_exponent(cp(n), "x") == n + 1


def _exponent_from_one(model, g):
    """Reference: the nilpotency search that tests every power from 1."""
    gb = differential_ideal_basis(model)
    x = Element.from_generator(g)
    for n in range(1, quotient_dimension(gb) + 2):
        if member(x ** n, gb):
            return n


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_nilpotency_exponent_matches_the_search_from_one(seed):
    model = make_random_model(random.Random(seed), seed)
    for g in model.even_generators:
        assert nilpotency_exponent(model, g) == _exponent_from_one(model, g)


def _exponent_from_scratch(model, g):
    """Reference: the search before the walk by normal forms, which reduces
    each power x^n from scratch, from b, to its first remainder term."""
    gb = differential_ideal_basis(model)
    cap = quotient_dimension(gb) + 1
    start = 1 if gb.contains_one else gb.pure_powers[gb.variables.index(g)]
    for n in range(start, cap + 1):
        if not _nf({n * _key(g): 1}, gb._basis, full=False)[1]:
            return n


def _steps(model, g):
    """The steps of the walk from b to N."""
    gb = differential_ideal_basis(model)
    start = 1 if gb.contains_one else gb.pure_powers[gb.variables.index(g)]
    return nilpotency_exponent(model, g) - start


def _assert_exponents_match(models):
    for model in models:
        for g in model.even_generators:
            assert nilpotency_exponent(model, g) == _exponent_from_scratch(model, g), model.name


def test_walked_exponents_match_on_the_suite_extensions(random_suite_cache):
    _assert_exponents_match(f0_extend(m).extension for m in random_suite_cache.get())


def test_walked_exponents_match_on_the_ladder_and_the_shipped_models():
    ladder = [parse_model(spec.text()) for spec in _workloads().scaling_ladder(1, _finite)]
    assert len(ladder) == 24
    shipped = [m for m in map(load_model, sorted(MODELS.glob("*.model")))
               if m.is_pure() and is_elliptic(m)]
    assert len(shipped) == 9
    _assert_exponents_match(ladder + shipped)


def test_a_walk_of_several_steps_matches():
    # Q[x, w]/(x^2 - w^2, w^5): x^2 = w^2 leads, but x^5 = x*w^4 survives and
    # x^6 = w^6 is the first power in the ideal, whichever variable leads
    model = build_model([("x", 2), ("w", 2), ("y", 3), ("u", 9)],
                        {"y": lambda e: e["x"] ** 2 - e["w"] ** 2, "u": lambda e: e["w"] ** 5})
    assert all_nilpotency_exponents(model) == {"x": 6, "w": 5}
    assert max(_steps(model, g) for g in model.even_generators) >= 3
    _assert_exponents_match([model])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_witness_dict_equals_the_element_sum(seed):
    # the witness is built as one dict of shifted cofactor terms; the
    # reference multiplies and adds Elements, Koszul signs and all
    model = make_random_model(random.Random(seed), seed)
    gb = differential_ideal_basis(model)
    for g in model.even_generators:
        cert = exactness_certificate(model, g)
        ok, cofs = member(cert.power, gb, cofactors=True)
        reference = Element.zero()
        for c, y in zip(cofs, model.odd_generators):
            reference = reference + c * Element.from_generator(y)
        assert ok and cert.witness == reference
        assert cert.witness.render() == reference.render()


def test_nilpotency_exponent_guards(not_elliptic, mixed_model):
    with pytest.raises(NotElliptic):
        nilpotency_exponent(not_elliptic, "x1")
    with pytest.raises(OddGeneratorPresent):
        nilpotency_exponent(mixed_model, "y1")


def test_exactness_certificate_cp():
    m = cp(3)
    cert = exactness_certificate(m, "x")
    assert cert.exponent == 4
    assert cert.verify(m)
    assert m.d(cert.witness) == cert.power
    assert cert.witness == m.element("y")


def test_exactness_certificate_mixed(mixed_model):
    for name, n in (("x1", 7), ("x2", 5)):
        cert = exactness_certificate(mixed_model, name)
        assert cert.exponent == n
        assert cert.verify(mixed_model)
        # d raises the witness degree by one
        assert cert.witness.degree() + 1 == cert.power.degree()


def rational_cp():
    # rational image coefficients: the witness 3/2*y clears to D = 2, and
    # the differential to L = 3
    return build_model([("x", 2), ("y", 5)],
                       {"y": lambda e: Fraction(2, 3) * e["x"] ** 3}, name="cp2/3")


def test_exactness_certificate_rational_coefficients():
    m = rational_cp()
    cert = exactness_certificate(m, "x")
    assert cert.exponent == 3
    assert cert.witness == Fraction(3, 2) * m.element("y")
    assert cert.verify(m)


@pytest.mark.parametrize("which", ["cp3", "rational", "mixed"])
def test_certificate_verify_rejects_wrong_identities(which, mixed_model):
    m = {"cp3": cp(3), "rational": rational_cp(), "mixed": mixed_model}[which]
    for g in m.even_generators:
        cert = exactness_certificate(m, g)
        x, w, n = m.element(g.name), cert.witness, cert.exponent
        first = w.items()[0][0]
        wrong = [
            ExactnessCertificate(g, n, w + Element({first: Fraction(1, 7)}), cert.power),
            ExactnessCertificate(g, n, w * 2, cert.power),
            ExactnessCertificate(g, n + 1, w, x ** (n + 1)),
        ]
        for bad in wrong:
            assert m.d(bad.witness) != bad.power  # the Fraction reference
            assert bad.verify(m) is False
        foreign = Element.from_generator(Generator("u", 3, len(m.generators)))
        with pytest.raises(GeneratorMismatch):
            ExactnessCertificate(g, n, w + foreign, cert.power).verify(m)


def test_exactness_certificate_rejects_small_power(mixed_model):
    with pytest.raises(NotExact):
        exactness_certificate(mixed_model, "x1", exponent=6)


def test_certificate_to_dict(mixed_model):
    cert = exactness_certificate(mixed_model, "x2")
    d = cert.to_dict()
    assert set(d) == {"generator", "exponent", "witness", "boundary"}
    assert d["generator"] == "x2" and d["exponent"] == 5


def test_cohomology_sphere():
    s2 = cp(1)
    assert cohomology_dims(s2, 4) == [1, 0, 1, 0, 0]


def test_cohomology_cp2():
    assert cohomology_dims(cp(2), 5) == [1, 0, 1, 0, 1, 0]


def test_cohomology_odd_spheres(odd_spheres):
    dims, listed = _dims_and_listed(odd_spheres, 15)
    assert listed == set()  # every generator is inert: no basis is listed on one
    # exterior algebra on degrees 3, 5, 7: classes at sums of subsets
    expected = [0] * 16
    for k in (0, 3, 5, 7, 8, 10, 12, 15):
        expected[k] = 1
    assert dims == expected


def test_cohomology_mixed_profile(mixed_model):
    dims = cohomology_dims(mixed_model, 87)
    assert dims[0] == 1 and dims[6] == 1 and dims[8] == 1 and dims[12] == 1
    assert dims[81] == 1
    assert all(d == 0 for d in dims[82:])
    assert sum(dims) == 36
    # Poincare duality across the formal dimension
    for k in range(82):
        assert dims[k] == dims[81 - k]
    # negative homotopy characteristic forces Euler characteristic zero
    assert sum(d for k, d in enumerate(dims) if k % 2 == 0) == \
        sum(d for k, d in enumerate(dims) if k % 2 == 1)


def test_cohomology_detects_infinite(not_elliptic):
    dims = cohomology_dims(not_elliptic, 12)
    # x2 is a polynomial direction: its powers survive in every even degree
    assert all(dims[k] >= 1 for k in range(0, 13, 2))


def _s2x5ab(*extra):
    """Five copies of S^2 and a non-pure c = a*b, which no finite complex serves."""
    return build_model([(f"x{i}", 2) for i in range(5)] + [(f"y{i}", 3) for i in range(5)]
                       + [("a", 3), ("b", 3), ("c", 5)] + list(extra),
                       {**{f"y{i}": lambda e, i=i: e[f"x{i}"] ** 2 for i in range(5)},
                        "c": lambda e: e["a"] * e["b"]})


def test_cohomology_cost_guard_runs_before_any_work():
    # 3,332,379 basis monomials through degree 41
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="needs 3332379 basis monomials"):
        cohomology_dims(_s2x5ab(), 40)
    assert time.perf_counter() - start < 1.0


def test_the_cost_guard_spares_what_the_complex_serves(monkeypatch):
    # five copies of S^2: 799,188 monomials of Lambda V through degree 41,
    # over MAX_BASIS, but a finite complex of 2^5 elements
    s2x5 = build_model([(f"x{i}", 2) for i in range(5)] + [(f"y{i}", 3) for i in range(5)],
                       {f"y{i}": lambda e, i=i: e[f"x{i}"] ** 2 for i in range(5)})

    def no_oracle(*args):
        raise AssertionError("the oracle was chosen")

    monkeypatch.setattr(ellipticity, "_oracle_dims", no_oracle)
    dims = cohomology_dims(s2x5, 40)
    assert dims[:11] == [math.comb(5, k // 2) if k % 2 == 0 else 0 for k in range(11)]
    assert not any(dims[11:])


def test_the_cost_guard_counts_the_complex_when_it_is_taken(monkeypatch):
    # eleven copies of S^2 with d(yi) = xi^3 through their top degree 44:
    # the complex has 3^11 = 177,147 elements, over MAX_BASIS, and the
    # oracle's basis over 16 times that
    c11 = build_model([(f"x{i}", 2) for i in range(11)] + [(f"y{i}", 5) for i in range(11)],
                      {f"y{i}": lambda e, i=i: e[f"x{i}"] ** 3 for i in range(11)}, name="c11")

    def no_work(*args):
        raise AssertionError("ranking began before the cost guard")

    monkeypatch.setattr(ellipticity, "_complex_dims", no_work)
    monkeypatch.setattr(ellipticity, "_oracle_dims", no_work)
    with pytest.raises(InvalidInput, match="^the finite complex of 'c11' has 177147 elements, "
                                           "over the limit of 100000$"):
        cohomology_dims(c11, 44)


def test_cohomology_degree_guard_runs_before_basis_sizes(monkeypatch):
    # basis_sizes lists a count for every degree through up_to + 1: at
    # up_to = 10^9 that list alone would take gigabytes
    class Counted(Exception):
        pass

    def counted(generators, top):
        raise Counted(top)

    monkeypatch.setattr(ellipticity, "basis_sizes", counted)
    sphere = build_model([("y", 3)], {})
    for up_to in (MAX_DEGREE, 10 ** 9):
        with pytest.raises(InvalidInput, match=f"a monomial of degree {up_to + 1} "
                           f"exceeds the largest degree the monomial layout holds, {MAX_DEGREE}"):
            cohomology_dims(sphere, up_to)
    with pytest.raises(Counted):  # the top degree itself is allowed
        cohomology_dims(sphere, MAX_DEGREE - 1)


# -- the shared exact eliminator, against sympy and the Fraction reference -----

#: derandomized, so the suite draws the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    """A dense rational matrix with mostly small integer and some zero entries."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                      st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]


def sparse(rows):
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


def integral(rows):
    """The sparse rows, each cleared of its denominators: ``_echelon``'s input."""
    return [_integral(r)[1] for r in sparse(rows)]


def _fraction_echelon(rows):
    """Reference: the eliminator in Fraction arithmetic, the form it had
    before it went fraction-free, returning {pivot: monic row}."""
    pivots = {}
    for row in rows:
        r = dict(row)
        for col, prow in pivots.items():
            c = r.get(col)
            if not c:
                continue
            for k, v in prow.items():
                nv = r.get(k, Fraction(0)) - c * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
        if not r:
            continue
        col = min(r)
        if r[col] != 1:
            inv = Fraction(1) / r[col]
            r = {k: v * inv for k, v in r.items()}
        pivots[col] = r
    return pivots


def assert_primitive_rows(pivots):
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1


def sympy_rref(rows):
    red, pivots = sympy.Matrix(rows).rref()
    dense = [[Fraction(int(v.p), int(v.q)) for v in red.row(i)]
             for i in range(len(pivots))]
    return dense, list(pivots)


@PROPERTY
@given(matrices())
def test_echelon_rank_and_pivots_match_sympy(rows):
    pivots = _echelon(integral(rows))
    assert len(pivots) == sympy.Matrix(rows).rank()
    assert sorted(pivots) == sympy_rref(rows)[1]
    assert_primitive_rows(pivots)


@PROPERTY
@given(matrices(max_rows=7, max_cols=9))
def test_echelon_rows_are_multiples_of_the_fraction_rows(rows):
    # rational entries, negative and with denominators other than 1, each
    # row scaled to integers
    pivots = _echelon(integral(rows))
    ref = _fraction_echelon(sparse(rows))
    assert list(pivots) == list(ref)
    assert_primitive_rows(pivots)
    for col, row in pivots.items():
        assert row.keys() == ref[col].keys()
        assert all(v == row[col] * ref[col][k] for k, v in row.items())


def added_row(pivots, v):
    """The row ``_echelon`` adds for v after the pivot rows, or None; the rows
    fed back come out as they went in."""
    grown = _echelon([*pivots.values(), sparse([v])[0]])
    assert {col: grown[col] for col in pivots} == pivots
    new = grown.keys() - pivots.keys()
    return grown[new.pop()] if new else None


@PROPERTY
@given(matrices(), st.data())
def test_the_added_row_keys_the_line_modulo_the_span(rows, data):
    # the added row keys the line of v modulo the span of the rows: w is
    # drawn as c*v plus rows of S about half of the time
    pivots = _echelon(integral(rows))
    vector = st.lists(st.integers(-2, 2), min_size=len(rows[0]), max_size=len(rows[0]))
    v = data.draw(vector)
    if data.draw(st.booleans()):
        w = [data.draw(st.integers(-2, 2)) * a for a in v]
        for r in rows:
            c = data.draw(st.integers(-1, 1))
            w = [a + c * b for a, b in zip(w, r)]
        w = integral([w])[0]
        w = [w.get(j, 0) for j in range(len(v))]
    else:
        w = data.draw(vector)
    rank = sympy.Matrix(rows).rank()
    rank_v, rank_w, rank_vw = (sympy.Matrix(rows + extra).rank()
                               for extra in ([v], [w], [v, w]))
    assert (added_row(pivots, v) is None) == (rank_v == rank)
    same_span = rank_v == rank_w == rank_vw
    assert (added_row(pivots, v) == added_row(pivots, w)) == same_span


# -- cohomology ranks against the Fraction path ----------------------------------

def _inert_pairs(draw, inert: bool) -> list:
    """With ``inert``, one or two generators g1, g2 of random parity and
    degree 2 to 5, which no differential image will use."""
    degrees = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2)) if inert else []
    return [(f"g{i}", d) for i, d in enumerate(degrees, 1)]


@st.composite
def rational_models(draw, inert=False):
    """Valid models with non-integer rational image coefficients: even
    generators of degree 2, odd ones of degree 3 and 5 with quadratic and
    cubic images, the first of them with no integer coefficient, and
    sometimes closed u1, u2 with dz = q*u1*u2 + (a cubic), which is not pure.
    With ``inert``, one or two inert generators (``_inert_pairs``) join them."""
    n_even = draw(st.integers(1, 3))
    odd = draw(st.lists(st.sampled_from((3, 5)), min_size=1, max_size=3))
    nonpure = draw(st.booleans())
    pairs = ([(f"x{i}", 2) for i in range(1, n_even + 1)]
             + [(f"y{j}", d) for j, d in enumerate(odd, 1)]
             + ([("u1", 3), ("u2", 3), ("z", 5)] if nonpure else [])
             + _inert_pairs(draw, inert))
    gens = make_generators(pairs)
    env = {g.name: Element.from_generator(g) for g in gens}
    xs = [env[f"x{i}"] for i in range(1, n_even + 1)]
    fractional = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                           st.integers(2, 6)).filter(lambda q: q.denominator > 1)
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    def form(length, coeffs):
        monos = list(itertools.combinations_with_replacement(xs, length))
        cs = draw(st.lists(coeffs, min_size=len(monos), max_size=len(monos)))
        return sum((c * math.prod(m, start=Element.one()) for c, m in zip(cs, monos)),
                   Element.zero())

    diffs = {f"y{j}": form((d + 1) // 2, fractional if j == 1 else rational)
             for j, d in enumerate(odd, 1)}
    if nonpure:
        diffs["z"] = draw(rational) * env["u1"] * env["u2"] + form(3, rational)
    return SullivanModel(gens, diffs, name="rational")


def _reference_cohomology_dims(model, up_to):
    bases = [brute_force_basis(model.generators, k) for k in range(up_to + 2)]
    ranks = []
    for k in range(up_to + 1):
        col = {m: i for i, m in enumerate(bases[k + 1])}
        rows = [{col[mm]: c for mm, c in model.d(Element({m: 1})).items()}
                for m in bases[k]]
        ranks.append(len(_fraction_echelon(rows)))
    return [len(bases[k]) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(up_to + 1)]


@PROPERTY
@given(rational_models())
def test_cohomology_dims_match_the_fraction_path(model):
    model.validate()
    assert model._scaled_d({})[0] > 1  # the differential is scaled by L != 1
    assert cohomology_dims(model, 8) == _reference_cohomology_dims(model, 8)


@st.composite
def models_with_even_images(draw, inert=False):
    """Valid models in which even generators have images, which the parser
    refuses: closed x1 (and x2) of degree 2 and a of degree 3, sometimes y
    with a pure image, w of degree 4 or 6 with dw = a * (a form in the x),
    and sometimes u of degree |w| + 2 with du = q * w * a, a cycle as a^2 = 0.
    With ``inert``, one or two inert generators (``_inert_pairs``) join them."""
    n_even = draw(st.integers(1, 2))
    w_degree = draw(st.sampled_from((4, 6)))
    with_y, with_u = draw(st.booleans()), draw(st.booleans())
    pairs = ([(f"x{i}", 2) for i in range(1, n_even + 1)] + [("a", 3), ("w", w_degree)]
             + ([("y", 3)] if with_y else []) + ([("u", w_degree + 2)] if with_u else [])
             + _inert_pairs(draw, inert))
    gens = make_generators(pairs)
    env = {g.name: Element.from_generator(g) for g in gens}
    xs = [env[f"x{i}"] for i in range(1, n_even + 1)]
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)

    def form(length):
        monos = list(itertools.combinations_with_replacement(xs, length))
        cs = draw(st.lists(rational, min_size=len(monos), max_size=len(monos)))
        return sum((c * math.prod(m, start=Element.one()) for c, m in zip(cs, monos)),
                   Element.zero())

    diffs = {"w": env["a"] * form(w_degree // 2 - 1)}
    if with_y:
        diffs["y"] = form(2)
    if with_u:
        diffs["u"] = draw(rational) * env["w"] * env["a"]
    return SullivanModel(gens, diffs, name="even-images")


def test_cohomology_rows_of_an_even_generator_with_an_image():
    # dw = a * x^2: w is even but no cycle, so it belongs to the part of a
    # monomial whose differential is derived, not to the shifted factor
    model = build_model([("x", 2), ("a", 3), ("w", 6)],
                        {"w": lambda e: e["a"] * e["x"] ** 2}, name="x-a-w")
    model.validate()
    assert cohomology_dims(model, 12) == _reference_cohomology_dims(model, 12)


@PROPERTY
@given(models_with_even_images())
def test_cohomology_dims_with_even_images_match_the_fraction_path(model):
    model.validate()
    assert any(g.is_even for g in model.differential)
    assert cohomology_dims(model, 10) == _reference_cohomology_dims(model, 10)


# -- inert generators, split off by Kunneth ---------------------------------------

def _dims_and_listed(model, up_to):
    """cohomology_dims, and the names of the generators it lists bases on."""
    bases, listed = ellipticity._bases, set()

    def spy(generators, top):
        listed.update(g.name for g in generators)
        return bases(generators, top)

    with mock.patch.object(ellipticity, "_bases", spy):
        return cohomology_dims(model, up_to), listed


@PROPERTY
@given(rational_models(inert=True))
def test_inert_generators_split_off_rational_models(model):
    dims, listed = _dims_and_listed(model, 8)
    assert not listed & {"g1", "g2"}
    assert dims == _reference_cohomology_dims(model, 8)


@PROPERTY
@given(models_with_even_images(inert=True))
def test_inert_generators_split_off_models_with_even_images(model):
    dims, listed = _dims_and_listed(model, 10)
    assert not listed & {"g1", "g2"}
    assert dims == _reference_cohomology_dims(model, 10)


def test_an_inert_even_generator_is_a_polynomial_factor():
    # CP^2 times Q[w], |w| = 4: not elliptic, and the classes 1, x, x^2 repeat
    # every 4 degrees
    model = build_model([("x", 2), ("w", 4), ("y", 5)], {"y": lambda e: e["x"] ** 3})
    assert not is_elliptic(model)
    dims, listed = _dims_and_listed(model, 16)
    assert listed == {"x", "y"}
    assert dims == [1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2]
    assert dims == _reference_cohomology_dims(model, 16)


def test_closed_generators_in_an_image_are_not_split_off(nonpure_model):
    # y1 and y2 are closed, but dz = y1 * y2 uses them
    assert not nonpure_model.differential.keys() & {nonpure_model.generator("y1"),
                                                    nonpure_model.generator("y2")}
    dims, listed = _dims_and_listed(nonpure_model, 12)
    assert listed == {"x", "w", "y1", "y2", "z"}
    assert dims == [1, 0, 1, 2, 0, 2, 0, 0, 2, 0, 2, 1, 0]
    assert dims == _reference_cohomology_dims(nonpure_model, 12)


def test_the_cost_guard_counts_the_inert_generators(monkeypatch):
    # s2x5ab and an inert u of degree 3: 3,332,379 + 2,153,605 monomials
    # through degree 41, refused before the inert generators are even looked for
    def no_work(*args):
        raise AssertionError("work began before the cost guard")

    monkeypatch.setattr(ellipticity, "_used", no_work)
    monkeypatch.setattr(ellipticity, "_bases", no_work)
    with pytest.raises(InvalidInput, match="through degree 40 needs 5485984 basis monomials"):
        cohomology_dims(_s2x5ab(("u", 3)), 40)


# -- the finite complex A (x) Lambda Y' against the oracle -------------------------

def _agree(model, up_to):
    """The complex's dims, once they equal the oracle's in every degree."""
    inert = ellipticity._inert(model)
    dims = ellipticity._complex_dims(model, inert, up_to)
    assert dims == ellipticity._oracle_dims(model, inert, up_to), model.name
    return dims


def _ladder_plus(n, l, e):
    """The text of ladder model (n, l) plus e odd generators wj : 2l - 1,
    each image one more dense form of length l drawn from the same stream,
    so chi_pi = -e."""
    workloads = _workloads()
    rng = random.Random(1)
    spec = workloads.ladder_model(rng, n, l, 0, _finite)
    spec.odds += [(f"w{j}", 2 * l - 1, workloads.dense_form(rng, [2] * n, l))
                  for j in range(1, e + 1)]
    return spec.text()


def test_the_complex_matches_the_oracle_on_the_shipped_models():
    pure = [m for m in map(load_model, sorted(MODELS.glob("*.model")))
            if m.is_pure() and m.differential_length().is_constant and is_elliptic(m)]
    assert {m.name for m in pure} == {"cp1", "cp2", "cp3", "cp4", "s2", "coformal-tower",
                                      "needs-combination"}
    for model in pure:
        _agree(model, model.formal_dimension() + 4)


def test_the_complex_matches_the_oracle_where_the_pick_walks(inert_tower_text, three_level_text):
    models = [_wide(4), _ws(3), parse_model(inert_tower_text), parse_model(three_level_text)]
    for model in models:
        _agree(model, model.formal_dimension() + 4)


@pytest.mark.parametrize("n, l, e", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2),
                                     (2, 3, 1), (2, 3, 2), (3, 3, 1), (4, 2, 1)])
def test_the_complex_matches_the_oracle_on_ladder_models_with_extra_odds(n, l, e):
    model = parse_model(_ladder_plus(n, l, e))
    f = model.formal_dimension()
    dims = _agree(model, f + 2)
    assert dims[f] == 1 and dims[f + 1:] == [0, 0]
    assert all(dims[k] == dims[f - k] for k in range(f + 1))
    assert sum((-1) ** k * d for k, d in enumerate(dims)) == 0  # chi_pi < 0


def test_cohomology_takes_the_oracle_on_a_small_model(monkeypatch, cp2):
    # CP^2 through degree 8: 8 basis monomials, against 16 * 3^1 * 2^0
    def refused(*args):
        raise AssertionError("the complex was taken")

    monkeypatch.setattr(ellipticity, "_complex_dims", refused)
    assert cohomology_dims(cp2, 8) == [1, 0, 1, 0, 1, 0, 0, 0, 0]


def test_cohomology_takes_the_complex_on_a_large_model(monkeypatch):
    # (4, 2) + 3 through degree 17: the oracle ranks d on 11,222 monomials
    # for minutes; the complex has 2^4 * 2^3 = 128 elements
    model = parse_model(_ladder_plus(4, 2, 3))

    def refused(*args):
        raise AssertionError("the oracle was taken")

    monkeypatch.setattr(ellipticity, "_oracle_dims", refused)
    start = time.perf_counter()
    dims = cohomology_dims(model, 17)
    assert time.perf_counter() - start < 1.0
    assert sum(dims) == 60 and dims[17] == 1
    assert all(dims[k] == dims[17 - k] for k in range(18))


def test_the_complex_refuses_a_basis_that_is_not_regular():
    # needs_combination: evens x, w; dy1 = x^2 + x*w, dy2 = x*w + w^2, dy3 = x*w
    model = load_model(MODELS / "needs_combination.model")
    y1, y2, y3 = model.odd_generators
    # (x^2, x*w) leaves every power of w: not finite
    with pytest.raises(VerificationFailed, match="quotient of dimension 4"):
        ellipticity._koszul_dims(model, [_combine({y1: 1}), _combine({y3: 1})], [y2], 6)
    # (x^2, x*w, w^2) is finite, but of dimension 3, not 2^2
    with pytest.raises(VerificationFailed, match="quotient of dimension 4"):
        ellipticity._koszul_dims(model, [_combine({y: 1}) for y in (y1, y2, y3)], [], 6)
    # {y1, y2 - y3}, the pick of extend, passes
    assert ellipticity._koszul_dims(model, [_combine({y1: 1}), _combine({y2: 1, y3: -1})],
                                    [y3], 6) == cohomology_dims(model, 6)
