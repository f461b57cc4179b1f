"""Groebner engine: golden values, oracle cross-checks, certificate identities.

sympy is a test-side oracle only; the package itself must not import it.
Order-dependent artifacts (the basis itself) are compared against sympy only
when every variable has the same weight, where the weighted order coincides
with plain graded reverse lexicographic.  Order-independent facts
(membership, finiteness, quotient dimension, regularity) are compared always.
"""
import itertools
import math
import random
import time
from unittest import mock
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sullivan import algebra, groebner
from sullivan.algebra import Element, Generator, Monomial, make_generators
from sullivan.ellipticity import differential_ideal_basis, exactness_certificate
from sullivan.errors import (
    ConstantTermPresent,
    NotFiniteDimensional,
    UnknownGenerator,
    VerificationFailed,
    ZeroElement,
)
from sullivan.model import SullivanModel
from sullivan.groebner import (
    buchberger,
    ideal_quotient,
    is_regular_sequence,
    member,
    normal_form,
    quotient_dimension,
    quotient_is_finite_dimensional,
    regular_sequence_failure,
    zero_divisor_witness,
)


def make_vars(*pairs):
    return make_generators(list(pairs))


def els(gens):
    return [Element.from_generator(g) for g in gens]


# -- exponent tuples: the representation the engine used before packed
# monomials, kept as an independent reference --------------------------------

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class MonomialOrder:
    """Weighted-degree grevlex on exponent tuples, optionally with a leading
    elimination slot: the order key the engine computed before packed
    monomials, kept as their reference.  Larger keys are larger monomials."""

    def __init__(self, weights, elim=False):
        self.weights = tuple(weights)
        self.elim = elim

    def key(self, e):
        if self.elim:
            rest = e[1:]
            w = sum(w * a for w, a in zip(self.weights[1:], rest))
            return (e[0], w, tuple(-a for a in reversed(rest)))
        return (sum(w * a for w, a in zip(self.weights, e)), tuple(-a for a in reversed(e)))


def tuples(p, variables, den=1):
    """A dict keyed by packed monomials over ``variables``, keyed by exponent
    tuples instead, each coefficient divided by ``den``."""
    table = {g.index: g for g in variables}
    pos = {g: i for i, g in enumerate(variables)}
    out = {}
    for k, c in p.items():
        exps = [0] * len(variables)
        for g, e in Monomial(k, table).factors():
            exps[pos[g]] = e
        out[tuple(exps)] = Fraction(c, den)
    return out


def element(p, variables):
    """The element with the exponent-tuple terms p."""
    return Element({Monomial.make([(g, k) for g, k in zip(variables, exps) if k]): c
                    for exps, c in p.items()})


# -- sympy bridge ------------------------------------------------------------

def to_sympy(e: Element, variables, syms):
    poly = tuples(e._t, variables)
    expr = sympy.Integer(0)
    for exps, c in poly.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, exps):
            term *= s ** k
        expr += term
    return sympy.expand(expr)


def sympy_gb(elements, variables, syms):
    exprs = [to_sympy(e, variables, syms) for e in elements if e]
    return sympy.groebner(exprs, *syms, order="grevlex")


def tuple_pure_powers(lms, n: int) -> list:
    """Reference on exponent tuples: per variable i, the least e[i] among the
    tuples e that are nonzero at i alone, or None."""
    return [min((e[i] for e in lms
                 if all(e[j] == 0 for j in range(n) if j != i) and e[i] > 0), default=None)
            for i in range(n)]


def sympy_finite(G, syms) -> bool:
    lms = [p.monoms(order="grevlex")[0] for p in G.polys]
    return None not in tuple_pure_powers(lms, len(syms))


def sympy_qdim(G, syms) -> int:
    lms = [p.monoms(order="grevlex")[0] for p in G.polys]
    bounds = tuple_pure_powers(lms, len(syms))
    count = 0
    for grid in itertools.product(*(range(b) for b in bounds)):
        if not any(all(grid[j] >= e[j] for j in range(len(syms))) for e in lms):
            count += 1
    return count


def random_poly(rng, gens, max_len=3, terms=3) -> Element:
    base = els(gens)
    out = Element.zero()
    for _ in range(rng.randint(1, terms)):
        t = Element.scalar(rng.randint(-3, 3))
        for _ in range(rng.randint(1, max_len)):
            t = t * rng.choice(base)
        out = out + t
    return out


# -- frozen golden values for the mixed-length example -----------------------

def test_mixed_example_reduced_basis(mixed_model):
    gens = mixed_model.even_generators
    images = [mixed_model.d(mixed_model.element(y))
              for y in ("y1", "y2", "y3")]
    gb = buchberger(images, gens)
    rendered = sorted(g.render() for g in gb.generators)
    assert rendered == sorted([
        "x1^5 + x1*x2^3",
        "x1^4*x2 + x2^4",
        "x1^3*x2^2",
        "x2^5",
    ])
    assert not gb.contains_one
    assert quotient_is_finite_dimensional(gb)
    assert quotient_dimension(gb) == 18


def test_mixed_example_memberships(mixed_model):
    m = mixed_model
    gens = m.even_generators
    x1, x2 = els(gens)
    g1, g2, g3 = (m.d(m.element(y)) for y in ("y1", "y2", "y3"))
    gb1 = buchberger([g1], gens)
    assert member(x1 * g2, gb1)
    assert member((x1 ** 4 + x2 ** 3) * g3, gb1)
    assert not member(g2, gb1)
    assert not member(g3, gb1)


def test_mixed_example_nilpotent_powers(mixed_model):
    m = mixed_model
    gens = m.even_generators
    x1, x2 = els(gens)
    gb = buchberger([m.d(m.element(y)) for y in ("y1", "y2", "y3")], gens)
    assert member(x1 ** 7, gb) and not member(x1 ** 6, gb)
    assert member(x2 ** 5, gb) and not member(x2 ** 4, gb)


def test_mixed_example_regularity_failures(mixed_model):
    m = mixed_model
    gens = m.even_generators
    g = {i: m.d(m.element(f"y{i}")) for i in (1, 2, 3)}
    expected_witness = {
        (1, 2): "x1",
        (1, 3): "x1^4 + x2^3",
        (2, 1): "x2",
        (2, 3): "x1^4 + x2^3",
        (3, 1): "x1^2*x2^2",
        (3, 2): "x1^3*x2",
    }
    for (i, j), w in expected_witness.items():
        ok, idx = is_regular_sequence([g[i], g[j]], gens)
        assert not ok and idx == 2, (i, j)
        failure = regular_sequence_failure([g[i], g[j]], gens)
        assert failure is not None
        idx2, witness = failure
        assert idx2 == 2
        assert witness.render() == w
        # the witness is genuine: w*g_j in (g_i) but w not in (g_i)
        gb_i = buchberger([g[i]], gens)
        assert member(witness * g[j], gb_i)
        assert not member(witness, gb_i)


def test_mixed_example_nonhomogeneous_pair_is_regular(mixed_model):
    m = mixed_model
    gens = m.even_generators
    g1, g2, g3 = (m.d(m.element(y)) for y in ("y1", "y2", "y3"))
    ok, idx = is_regular_sequence([g3, g1 + g2], gens)
    assert ok and idx is None



def test_a_mixed_degree_sequence_keeps_the_zero_divisor_walk():
    # (y - x*y, z - x*z, x) generates (x, y, z), so the Krull dimension drops
    # to 0 = 3 - 3 and _regular holds; yet y*(z - x*z) = z*(y - x*y) while y
    # is not in (y - x*y), and the same elements with x first are regular.
    # Off the graded case regularity depends on the order, which only the
    # zero-divisor test sees
    gens = make_vars(("x", 2), ("y", 2), ("z", 2))
    x, y, z = els(gens)
    seq = [y - x * y, z - x * z, x]
    assert groebner._regular(seq, gens)
    assert regular_sequence_failure(seq, gens) == (2, y)
    assert regular_sequence_failure([x, y - x * y, z - x * z], gens) is None


# -- structural properties ----------------------------------------------------

def test_input_order_invariance(mixed_model):
    m = mixed_model
    gens = m.even_generators
    images = [m.d(m.element(y)) for y in ("y1", "y2", "y3")]
    ref = sorted(g.render() for g in buchberger(images, gens).generators)
    for perm in itertools.permutations(images):
        got = sorted(g.render() for g in buchberger(list(perm), gens).generators)
        assert got == ref


def test_normal_form_identity():
    rng = random.Random(11)
    gens = make_vars(("x", 2), ("y", 2))
    for _ in range(25):
        basis = [random_poly(rng, gens) for _ in range(2)]
        basis = [b for b in basis if b]
        if not basis:
            continue
        gb = buchberger(basis, gens)
        f = random_poly(rng, gens, max_len=4)
        r, cofs = normal_form(f, gb)
        recombined = r
        for q, g in zip(cofs, gb.generators):
            recombined = recombined + q * g
        assert recombined == f
        # remainder is fully reduced: no term divisible by a leading monomial
        lms = tuples(dict.fromkeys(gb._lms, 1), gens)
        for exps in tuples(r._t, gens):
            assert not any(_divides(lm, exps) for lm in lms)


def test_membership_cofactors_reconstruct_input():
    rng = random.Random(5)
    gens = make_vars(("x", 2), ("y", 4), ("z", 6))
    base = els(gens)
    inputs = [base[0] ** 3 + base[1] * base[0],
              base[1] ** 2 - base[2],
              base[2] ** 2]
    gb = buchberger(inputs, gens)
    for _ in range(20):
        f = Element.zero()
        for g in inputs:
            f = f + random_poly(rng, gens, max_len=2, terms=2) * g
        got = member(f, gb, cofactors=True)
        assert got[0] is True
        cofs = got[1]
        rebuilt = Element.zero()
        for q, g in zip(cofs, inputs):
            rebuilt = rebuilt + q * g
        assert rebuilt == f


def test_sympy_cross_check_equal_weights():
    rng = random.Random(23)
    gens = make_vars(("x", 2), ("y", 2))
    syms = sympy.symbols("x y")
    for _ in range(30):
        basis = [random_poly(rng, gens) for _ in range(rng.randint(2, 3))]
        basis = [b for b in basis if b]
        if not basis:
            continue
        gb = buchberger(basis, gens)
        G = sympy_gb(basis, gens, syms)
        mine = {to_sympy(g, gens, syms) for g in gb.generators}
        # sympy normalizes over ZZ; compare both sides monic in grevlex
        theirs = {sympy.expand(p.as_expr() / p.LC(order="grevlex"))
                  for p in G.polys}
        assert mine == theirs
        f = random_poly(rng, gens, max_len=4)
        assert member(f, gb) == G.contains(to_sympy(f, gens, syms))


def test_sympy_cross_check_weighted():
    rng = random.Random(31)
    gens = make_vars(("x", 2), ("y", 4), ("z", 6))
    syms = sympy.symbols("x y z")
    for _ in range(15):
        basis = [random_poly(rng, gens) for _ in range(3)]
        basis = [b for b in basis if b]
        if not basis:
            continue
        gb = buchberger(basis, gens)
        G = sympy_gb(basis, gens, syms)
        assert gb.contains_one == (G.exprs == [sympy.Integer(1)])
        if gb.contains_one:
            continue
        fin_mine = quotient_is_finite_dimensional(gb)
        assert fin_mine == sympy_finite(G, syms)
        if fin_mine:
            assert quotient_dimension(gb) == sympy_qdim(G, syms)
        f = random_poly(rng, gens, max_len=3)
        assert member(f, gb) == G.contains(to_sympy(f, gens, syms))


def test_regularity_matches_finiteness():
    # n elements in n variables are regular iff the quotient is
    # finite-dimensional (complete-intersection criterion)
    rng = random.Random(47)
    gens = make_vars(("x", 2), ("y", 2))
    for _ in range(30):
        seq = [random_poly(rng, gens), random_poly(rng, gens)]
        if not all(seq):
            continue
        if any(tuples(s._t, gens).get((0, 0)) for s in seq):
            continue  # constant terms are rejected by design
        ok, idx = is_regular_sequence(seq, gens)
        gb = buchberger(seq, gens)
        fin = (not gb.contains_one) and quotient_is_finite_dimensional(gb)
        assert ok == fin
        if not ok:
            assert idx is not None and 1 <= idx <= 2


def test_ideal_quotient_basic():
    gens = make_vars(("x", 2), ("y", 2))
    x, y = els(gens)
    gb = buchberger([x * y], gens)
    q = ideal_quotient(gb, x)
    assert sorted(g.render() for g in q.generators) == ["y"]
    gb2 = buchberger([x ** 2], gens)
    q2 = ideal_quotient(gb2, x)
    assert sorted(g.render() for g in q2.generators) == ["x"]


def test_ideal_quotient_members_multiply_in():
    rng = random.Random(3)
    gens = make_vars(("x", 2), ("y", 2))
    for _ in range(15):
        basis = [random_poly(rng, gens) for _ in range(2)]
        basis = [b for b in basis if b]
        a = random_poly(rng, gens, max_len=2)
        if not basis or not a:
            continue
        gb = buchberger(basis, gens)
        q = ideal_quotient(gb, a)
        for qi in q.generators:
            assert member(qi * a, gb)


def test_zero_divisor_witness_properties(mixed_model):
    m = mixed_model
    gens = m.even_generators
    g1, g2, _ = (m.d(m.element(y)) for y in ("y1", "y2", "y3"))
    gb1 = buchberger([g1], gens)
    w = zero_divisor_witness(g2, gb1)
    assert w is not None
    assert w.render() == "x1"
    assert member(w * g2, gb1) and not member(w, gb1)
    # a regular element has no witness
    x1, x2 = els(gens)
    assert zero_divisor_witness(x2, gb1) is None
    # an element of the ideal is witnessed by 1
    w1 = zero_divisor_witness(x1 * g1, gb1)
    assert w1 is not None and w1 == Element.one()
    # an element must use the basis's variables: a same-position generator
    # of another name is foreign
    alias = Element.from_generator(Generator("z", gens[0].degree, gens[0].index))
    with pytest.raises(UnknownGenerator):
        zero_divisor_witness(alias, gb1)


def test_ideal_quotient_runs_buchberger_once(monkeypatch, mixed_model):
    m = mixed_model
    gens = m.even_generators
    g1, g2 = (m.d(m.element(y)) for y in ("y1", "y2"))
    gb1 = buchberger([g1], gens)
    calls = []

    def counted(elements, variables):
        calls.append(list(elements))
        return buchberger(elements, variables)

    monkeypatch.setattr(groebner, "buchberger", counted)
    q = ideal_quotient(gb1, g2)
    # a is divided out exactly, with no basis of (a)
    assert calls == [q.inputs]
    assert [g.render() for g in q.generators] == ["x1"]
    for p in q.inputs:
        assert member(p * g2, gb1)


def test_zero_is_zero_divisor():
    gens = make_vars(("x", 2),)
    x, = els(gens)
    gb = buchberger([x ** 2], gens)
    w = zero_divisor_witness(Element.zero(), gb)
    assert w == Element.one()
    with pytest.raises(ZeroElement):
        ideal_quotient(gb, Element.zero())


def test_constant_term_rejected():
    gens = make_vars(("x", 2),)
    x, = els(gens)
    with pytest.raises(ConstantTermPresent):
        regular_sequence_failure([x ** 2 + 1], gens)


def test_quotient_dimension_raises_when_infinite():
    gens = make_vars(("x", 2), ("y", 2))
    x, y = els(gens)
    gb = buchberger([x * y], gens)
    assert not quotient_is_finite_dimensional(gb)
    with pytest.raises(NotFiniteDimensional):
        quotient_dimension(gb)


def test_quotient_facts_are_found_once_per_basis(monkeypatch):
    gens = make_vars(("x", 2), ("y", 4))
    x, y = els(gens)
    groebner._basis_of.cache_clear()
    gb = buchberger([x ** 3, y ** 2 + x ** 4], gens)
    decoded, counted = [], []
    count = groebner._count

    def counted_powers(key, table):
        decoded.append(key)
        return algebra._powers(key, table)

    def counting(lead, n):
        counted.append(n)
        return count(lead, n)

    monkeypatch.setattr(groebner, "_powers", counted_powers)
    monkeypatch.setattr(groebner, "_count", counting)
    for _ in range(3):
        assert quotient_is_finite_dimensional(gb)
        assert quotient_dimension(gb) == 6
    # the leading monomials are decoded once, and the count is computed once
    # per basis: one slice of (x^3, y^2) per variable, down to no variable
    assert len(decoded) == len(gb.generators)
    assert counted == [2, 1, 0]
    # an infinite quotient raises on every call
    infinite = buchberger([x * y], gens)
    for _ in range(2):
        with pytest.raises(NotFiniteDimensional):
            quotient_dimension(infinite)


def test_whole_ring_quotient():
    gens = make_vars(("x", 2), ("y", 2))
    x, y = els(gens)
    gb = buchberger([x + y, x - y, x ** 2], gens)
    assert quotient_is_finite_dimensional(gb)
    assert quotient_dimension(gb) == 1  # only the constants survive


def test_regular_sequence_classic():
    gens = make_vars(("x", 2), ("y", 2))
    x, y = els(gens)
    ok, idx = is_regular_sequence([x ** 2, y ** 2], gens)
    assert ok and idx is None
    ok, idx = is_regular_sequence([x * y, x ** 2], gens)
    assert not ok and idx == 2
    ok, idx = is_regular_sequence([x ** 2, x * y], gens)
    assert not ok and idx == 2


# -- properties on random weighted-homogeneous sequences ------------------------

#: derandomized, so the suite draws the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def homogeneous_polys(draw, gens, degree, bound=2):
    """A nonzero polynomial of the given weighted degree without linear terms,
    with integer coefficients of absolute value at most ``bound``."""
    weights = [g.degree for g in gens]
    mons = [e for e in itertools.product(range(degree // 2 + 1), repeat=len(gens))
            if sum(w * a for w, a in zip(weights, e)) == degree and sum(e) >= 2]
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=len(mons),
                           max_size=len(mons)).filter(any))
    return element({e: Fraction(c) for e, c in zip(mons, coeffs) if c}, gens)


@st.composite
def weighted_sequences(draw, counts=(0, 0, 1), degrees=(4, 6, 8), n_max=3,
                       mixed=False, bound=2):
    """(variables, sequence): 2 to ``n_max`` variables of weight 2 or 4 (the
    first of weight 2, so every even degree from 4 up has monomials), and
    n + k elements for k drawn from ``counts``, each of a degree from
    ``degrees`` with coefficients bounded by ``bound``; with ``mixed`` an
    element may add a part of the next even degree."""
    n = draw(st.integers(2, n_max))
    weights = [2] + draw(st.lists(st.sampled_from((2, 4)), min_size=n - 1,
                                  max_size=n - 1))
    gens = make_generators([(f"x{i + 1}", w) for i, w in enumerate(weights)])
    seq = []
    for _ in range(n + draw(st.sampled_from(counts))):
        degree = draw(st.sampled_from(degrees))
        f = draw(homogeneous_polys(gens, degree, bound))
        if mixed and draw(st.booleans()):
            f = f + draw(homogeneous_polys(gens, degree + 2, bound))
        seq.append(f)
    return gens, seq


def _counted_quotients(monkeypatch):
    """The elements ``ideal_quotient`` is asked about, in call order."""
    calls = []

    def counted(gb, a):
        calls.append(a)
        return ideal_quotient(gb, a)

    monkeypatch.setattr(groebner, "ideal_quotient", counted)
    return calls


def test_regular_sequence_failure_skips_the_zero_ideal(mixed_model, monkeypatch):
    m = mixed_model
    gens = m.even_generators
    g1, g2 = (m.d(m.element(f"y{i}")) for i in (1, 2))
    calls = _counted_quotients(monkeypatch)
    idx, witness = regular_sequence_failure([g1, g2], gens)
    assert (idx, witness.render()) == (2, "x1")
    assert calls == [g2]  # no quotient of the zero ideal by g1
    assert regular_sequence_failure([Element.zero(), g1], gens) == (1, Element.one())
    assert regular_sequence_failure([], gens) is None
    assert calls == [g2]


def _prefix_loop_failure(seq, gens):
    """Reference: test each prefix for a zero divisor, success included."""
    gb = buchberger([], gens)
    for i, a in enumerate(seq):
        w = zero_divisor_witness(a, gb)
        if w is not None:
            return i + 1, w
        gb = buchberger(list(seq[: i + 1]), gens)
    return None


def _zero_divisor_loop(seq, gens):
    """Reference: the zero-divisor test at every prefix, with a leading zero
    answered at once, as only the zero element is a zero divisor modulo the
    zero ideal."""
    if not seq[0]:
        return 1, Element.one()
    for i in range(1, len(seq)):
        w = zero_divisor_witness(seq[i], buchberger(list(seq[:i]), gens))
        if w is not None:
            return i + 1, w
    return None


def test_zero_elements_get_one_regularity_answer(monkeypatch):
    # a zero among homogeneous elements stops the Krull walk, as it drops no
    # dimension, with witness 1; the zero-divisor loop gives the same answer
    gens = make_vars(("x", 2), ("w", 2), ("v", 2))
    x, w, v = els(gens)
    zero = Element.zero()
    homogeneous = [(zero,), (zero, zero), (zero, x), (x, zero), (x, zero, w),
                   (x ** 2, x * w, zero), (x ** 2, w ** 2, zero), (x, w, v, zero),
                   (x * w, zero, x)]
    mixed = [(zero, x + x * w), (zero, x, w + x * w), (x + x * w, zero)]
    for seq in homogeneous + mixed:
        assert regular_sequence_failure(seq, gens) == _zero_divisor_loop(seq, gens), seq
    calls = _counted_quotients(monkeypatch)
    # the walk passes x^2 and w^2 on their basis alone, and the zero needs no quotient
    assert regular_sequence_failure([x ** 2, w ** 2, zero], gens) == (3, Element.one())
    assert calls == []


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1)))
def test_cache_hit_equals_fresh_computation(case):
    gens, seq = case
    first = buchberger(seq, gens)
    assert buchberger(list(seq), gens) is first
    groebner._basis_of.cache_clear()
    fresh = buchberger(seq, gens)
    assert fresh is not first
    assert (fresh._polys, fresh._lms) == (first._polys, first._lms)
    assert fresh.generators == first.generators
    # rescaled inputs are new cache keys for the same ideal, so the same
    # reduced basis
    size = groebner._basis_of.cache_info().maxsize
    for k in range(2, 4 + size):
        scaled = buchberger([Element.scalar(k) * a for a in seq], gens)
        assert scaled.generators == first.generators
        assert groebner._basis_of.cache_info().currsize <= size


def test_the_basis_cache_evicts_the_least_recently_used():
    # A and seven other ideals fill the cache; asking for A again makes it
    # the most recent, so the next new ideal evicts the first of the seven
    # and not A, which a first-in-first-out cache would evict
    gens = make_vars(("x", 2), ("y", 2))
    x, y = els(gens)
    size = groebner._basis_of.cache_info().maxsize
    groebner._basis_of.cache_clear()
    a = buchberger([x ** 2, y ** 2], gens)
    others = [buchberger([x ** 2, y ** k], gens) for k in range(3, size + 2)]
    assert groebner._basis_of.cache_info().currsize == size
    assert buchberger([x ** 2, y ** 2], gens) is a
    buchberger([x ** 2, y ** (size + 2)], gens)
    assert buchberger([x ** 2, y ** 2], gens) is a
    first = buchberger([x ** 2, y ** 3], gens)
    assert first is not others[0]
    assert first.generators == others[0].generators


@PROPERTY
@given(st.one_of(
    weighted_sequences(counts=(-1, 0, 0, 1), degrees=(4, 6)),
    # ideal quotients of mixed-degree ideals grow fast with the variables
    weighted_sequences(counts=(-1, 0, 0, 1), degrees=(4, 6), n_max=2, mixed=True)))
def test_regular_sequence_failure_agrees_with_prefix_loop(case):
    gens, seq = case
    reference = _prefix_loop_failure(seq, gens)
    assert regular_sequence_failure(seq, gens) == reference
    if reference is not None:  # the witness multiplies a into its prefix ideal
        idx, w = reference
        gb = buchberger(seq[:idx - 1], gens)
        assert member(w * seq[idx - 1], gb) and not member(w, gb)


@pytest.mark.parametrize("index", [3, 4])
def test_the_walk_finds_a_later_failing_index(index, monkeypatch):
    # squares of the first index - 1 variables, then x1*x2: the prefix walk
    # passes index - 1 elements, and one ideal quotient, by x1*x2 modulo
    # the squares, gives the witness
    gens = make_vars(*[(f"x{i}", 2) for i in range(1, 5)])
    xs = els(gens)
    seq = [x ** 2 for x in xs[:index - 1]] + [xs[0] * xs[1]]
    calls = _counted_quotients(monkeypatch)
    idx, w = regular_sequence_failure(seq, gens)
    assert idx == index and w.render() == "x2"
    assert calls == [seq[-1]]
    gb = buchberger(seq[:-1], gens)
    assert member(w * seq[-1], gb) and not member(w, gb)
    assert (idx, w) == _prefix_loop_failure(seq, gens)


def test_a_short_regular_sequence_takes_no_ideal_quotient(monkeypatch):
    # two squares in three variables drop the dimension to 1: regular, read
    # off their basis alone
    gens = make_vars(("x", 2), ("w", 2), ("v", 2))
    x, w, _ = els(gens)
    calls = _counted_quotients(monkeypatch)
    assert regular_sequence_failure([x ** 2, w ** 2], gens) is None
    assert calls == []


@PROPERTY
@given(weighted_sequences(), st.data())
def test_lazily_lifted_cofactors_certify(case, data):
    gens, seq = case
    groebner._basis_of.cache_clear()
    gb = buchberger(seq, gens)
    assert "_provenance" not in vars(gb)
    f = Element.zero()
    for a in seq:
        f = f + data.draw(homogeneous_polys(gens, 4)) * a
    ok, cofs = member(f, gb, cofactors=True)
    assert ok and "_provenance" in vars(gb)
    rebuilt = Element.zero()
    for q, a in zip(cofs, seq):
        rebuilt = rebuilt + q * a
    assert rebuilt == f
    if not quotient_is_finite_dimensional(gb):
        return
    # a pure elliptic model whose odd generators have the sequence as images;
    # its even generators equal ``gens`` (same names, degrees and positions)
    odd = [(f"y{i + 1}", a.degree() - 1) for i, a in enumerate(seq)]
    all_gens = make_generators([(g.name, g.degree) for g in gens] + odd)
    assert all_gens[:len(gens)] == gens
    model = SullivanModel(all_gens, dict(zip(all_gens[len(gens):], seq)),
                          name="property")
    for g in model.even_generators:
        cert = exactness_certificate(model, g)
        assert cert.verify(model)


# -- tail reduction on first read ----------------------------------------------

def _counted_reductions(monkeypatch):
    """The engines whose basis ``_Engine.reduced`` tail-reduces, in call order."""
    calls = []
    reduced = groebner._Engine.reduced

    def counted(self):
        calls.append(self)
        return reduced(self)

    monkeypatch.setattr(groebner._Engine, "reduced", counted)
    return calls


def test_leading_monomials_alone_take_no_tail_reduction(monkeypatch):
    # x^3 reduces the tail x^4 of y^2 + x^4: the reduced basis is (x^3, y^2)
    gens = make_vars(("x", 2), ("y", 4))
    x, y = els(gens)
    groebner._basis_of.cache_clear()
    calls = _counted_reductions(monkeypatch)
    assert groebner._regular([x ** 3, y ** 2 + x ** 4], gens)
    gb = buchberger([x ** 3, y ** 2 + x ** 4], gens)
    assert quotient_is_finite_dimensional(gb) and quotient_dimension(gb) == 6
    infinite = buchberger([x * y, x ** 2 + x * y], gens)
    assert not quotient_is_finite_dimensional(infinite) and groebner._dimension(infinite) == 1
    assert calls == []
    assert [g.render() for g in gb.generators] == ["x^3", "y^2"]
    assert len(calls) == 1


@pytest.mark.parametrize("first", ["generators", "member", "provenance"])
def test_the_first_read_of_the_polynomials_reduces_once(first, monkeypatch):
    gens = make_vars(("x", 2), ("y", 4))
    x, y = els(gens)
    groebner._basis_of.cache_clear()
    calls = _counted_reductions(monkeypatch)
    gb = buchberger([x ** 3, y ** 2 + x ** 4], gens)
    reads = {"generators": lambda: gb.generators,
             "member": lambda: member(y ** 2 * x, gb, cofactors=True),
             "provenance": lambda: gb._provenance}
    reads[first]()
    assert len(calls) == 1
    for read in reads.values():
        read()
    assert len(calls) == 1


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1)), st.data())
def test_a_basis_read_first_by_its_dimension_equals_one_reduced_at_once(case, data):
    gens, seq = case
    groebner._basis_of.cache_clear()
    eng = groebner._Engine([a._t for a in seq])  # the run and reduction, read at once
    eng.run()
    polys, _ = eng.reduced()
    eager = buchberger(seq, gens)
    eager.generators
    groebner._basis_of.cache_clear()
    lazy = buchberger(seq, gens)
    reduced = groebner._Engine.reduced
    with mock.patch.object(groebner._Engine, "reduced", autospec=True,
                           side_effect=reduced) as counted:
        groebner._dimension(lazy)
        assert counted.call_count == 0
        lazy.generators
        assert counted.call_count == 1
    assert lazy._lms == [max(p) for p in polys]  # the minimal basis leads as the reduced one
    assert lazy._polys == polys
    assert lazy.generators == eager.generators
    f = Element.zero()
    for a in seq:
        f = f + data.draw(homogeneous_polys(gens, 4)) * a
    assert member(f, lazy, cofactors=True) == member(f, eager, cofactors=True)
    assert lazy._provenance == eager._provenance


# -- packed monomials against exponent tuples ------------------------------------

@st.composite
def exponent_pairs(draw):
    """1 to 4 variables of weight 2, 4 or 6 at ascending positions with gaps,
    and two (elimination exponent, exponent tuple) pairs over them."""
    n = draw(st.integers(1, 4))
    positions = sorted(draw(st.lists(st.integers(0, 31), min_size=n, max_size=n,
                                     unique=True)))
    gens = [Generator(f"x{i}", draw(st.sampled_from((2, 4, 6))), p)
            for i, p in enumerate(positions)]
    monomial = st.tuples(st.integers(0, 2), st.tuples(*(st.integers(0, 5) for _ in gens)))
    return gens, draw(monomial), draw(monomial)


@settings(PROPERTY, max_examples=300)
@given(exponent_pairs())
def test_packed_monomials_match_exponent_tuples(case):
    gens, (ta, ea), (tb, eb) = case
    weights = [g.degree for g in gens]
    ka, kb = (Monomial.make(list(zip(gens, e))).key for e in (ea, eb))

    def cmp(x, y):
        return (x > y) - (x < y)

    grevlex = MonomialOrder(weights)
    assert cmp(ka, kb) == cmp(grevlex.key(ea), grevlex.key(eb))
    assert ka + kb == Monomial.make(list(zip(gens, _add(ea, eb)))).key
    # the elimination indeterminate is one more field, above the degree
    a, b = ka + ta * algebra._ELIM, kb + tb * algebra._ELIM
    elim = MonomialOrder([1] + weights, elim=True)
    assert cmp(a, b) == cmp(elim.key((ta,) + ea), elim.key((tb,) + eb))
    divides = algebra._divisor(b, [algebra._exponents(a)], [0]) == 0
    assert divides == _divides((ta,) + ea, (tb,) + eb)
    lcm = tuple(max(x, y) for x, y in zip(ea, eb))
    assert algebra._lcm(a, b) == (Monomial.make(list(zip(gens, lcm))).key
                                  + max(ta, tb) * algebra._ELIM)
    # the pure powers of the monomial ideal (a, b): its minimal generators
    minimal = [e for e in {ea, eb} if not any(f != e and _divides(f, e) for f in (ea, eb))]
    gb = buchberger([element({e: 1}, gens) for e in (ea, eb)], gens)
    assert gb.pure_powers == tuple_pure_powers(minimal, len(gens))


@st.composite
def zero_dimensional_monomial_ideals(draw):
    """Generators of 1 to 4 weighted variables, and exponent tuples: a pure
    power of each variable (up to 6), in variable order, then up to 5 more."""
    n = draw(st.integers(1, 4))
    gens = [Generator(f"x{i}", draw(st.sampled_from((2, 4, 6))), i) for i in range(n)]
    powers = [draw(st.integers(1, 6)) for _ in range(n)]
    others = draw(st.lists(st.tuples(*(st.integers(0, 6) for _ in range(n))), max_size=5))
    return gens, [tuple(b if j == i else 0 for j in range(n))
                  for i, b in enumerate(powers)] + others


@settings(PROPERTY, max_examples=300)
@given(zero_dimensional_monomial_ideals())
def test_quotient_dimension_matches_brute_force_on_monomial_ideals(case):
    gens, lead = case
    gb = buchberger([element({e: 1}, gens) for e in lead], gens)
    bounds = [e[i] for i, e in enumerate(lead[:len(gens)])]
    brute = sum(not any(_divides(e, m) for e in lead)
                for m in itertools.product(*(range(b) for b in bounds)))
    assert quotient_dimension(gb) == brute


@st.composite
def monomial_ideals(draw):
    """Generators of 1 to 5 weighted variables, and 1 to 6 exponent tuples
    with entries up to 3 (the zero tuple, the unit ideal, among them)."""
    n = draw(st.integers(1, 5))
    gens = [Generator(f"x{i}", draw(st.sampled_from((2, 4, 6))), i) for i in range(n)]
    lead = draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in range(n))),
                         min_size=1, max_size=6))
    return gens, lead


@settings(PROPERTY, max_examples=300)
@given(monomial_ideals())
def test_dimension_matches_brute_force_on_monomial_ideals(case):
    # the largest set of variables that holds no generator's support, -1
    # when none does (the unit ideal)
    gens, lead = case
    n = len(gens)
    gb = buchberger([element({e: 1}, gens) for e in lead], gens)
    brute = max((k for k in range(n + 1) for s in itertools.combinations(range(n), k)
                 if not any({j for j, x in enumerate(e) if x} <= set(s) for e in lead)),
                default=-1)
    assert groebner._dimension(gb) == brute


def test_dimension_of_a_finite_quotient_takes_no_subset_scan():
    # 24 pure squares: the fewest variables meeting every support is all
    # 24, which a scan over variable subsets by size reaches only after
    # 2^24 - 1 smaller ones; the branching takes one variable per level
    gens = [Generator(f"x{i}", 2, i) for i in range(24)]
    gb = buchberger([Element.from_generator(g) ** 2 for g in gens], gens)
    start = time.perf_counter()
    assert groebner._dimension(gb) == 0
    assert time.perf_counter() - start < 0.5


@settings(PROPERTY, max_examples=100)
@given(st.one_of(
    weighted_sequences(counts=(-2, -1, 0), degrees=(4,), n_max=4),
    # degree 8 in four variables makes the failures' ideal quotients slow
    weighted_sequences(counts=(-2, -1, 0), degrees=(4, 8))), st.booleans(), st.booleans())
def test_dimension_drops_at_each_element_exactly_for_regular_sequences(case, diagonal, share):
    # Q[x] is Cohen-Macaulay, so homogeneous f_1, ..., f_k are regular exactly
    # when each drops the Krull dimension by one (Matsumura, Thm 17.4)
    gens, seq = case
    if diagonal:  # f_i + x_i^a: regular sequences of full length become common
        seq = [f + Element.from_generator(g) ** (f.degree() // g.degree)
               for f, g in zip(seq, gens)]
    if share and len(seq) > 1:  # a common factor x1 of the first and last fails
        x1 = Element.from_generator(gens[0])
        seq = [x1 * seq[0], *seq[1:-1], x1 * seq[-1]]
    drops = all(groebner._dimension(buchberger(seq[:i + 1], gens)) == len(gens) - i - 1
                for i in range(len(seq)))
    assert drops == (regular_sequence_failure(seq, gens) is None)


# -- the fraction-free path against Fraction arithmetic -------------------------

#: nonzero rationals with small numerators and denominators, either sign
rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


def _fraction_nf(p, gb):
    """Reference: division by the monic basis in Fraction arithmetic, the
    form the engine used before it went fraction-free, on exponent tuples.
    Returns (remainder, cofactors over ``gb.generators``)."""
    monic = [tuples(g._t, gb.variables) for g in gb.generators]
    lms = [max(g, key=MonomialOrder(gb.order.weights).key) for g in monic]
    p = dict(p)
    rem = {}
    cofs = [dict() for _ in monic]
    while p:
        m = max(p, key=MonomialOrder(gb.order.weights).key)
        c = p.pop(m)
        for k, lmk in enumerate(lms):
            if _divides(lmk, m):
                t = _sub(m, lmk)
                cofs[k][t] = cofs[k].get(t, Fraction(0)) + c
                for mg, cg in monic[k].items():
                    if mg == lmk:
                        continue
                    kk = _add(mg, t)
                    nv = p.get(kk, Fraction(0)) - c * cg
                    if nv:
                        p[kk] = nv
                    else:
                        p.pop(kk, None)
                break
        else:
            rem[m] = c
    return rem, cofs


def _times(a, b):
    """Product of two exponent dicts, exactly."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            kk = _add(m1, m2)
            out[kk] = out.get(kk, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _plus(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1), bound=7), st.data())
def test_fraction_free_division_matches_fraction_reference(case, data):
    # coefficients up to 7 give leading coefficients other than 1, so the
    # division rescales; with n - 1 elements the remainder starts early
    gens, seq = case
    gb = buchberger(seq, gens)
    inside = Element.zero()
    for a in seq:
        inside = inside + Element.scalar(data.draw(rationals)) * data.draw(
            homogeneous_polys(gens, 4)) * a
    # parts in three degrees, so remainder terms are found between reductions
    outside = Element.zero()
    for degree in (8, 6, 4):
        outside = outside + Element.scalar(data.draw(rationals)) * data.draw(
            homogeneous_polys(gens, degree, 7))
    for f in (inside, inside + outside):
        rem_ref, cofs_ref = _fraction_nf(tuples(f._t, gens), gb)
        s, rem, steps = groebner._nf(f._t, gb._basis, full=True)
        cofs = groebner._fold(steps, {})
        assert s > 0
        assert tuples(rem, gens, s) == rem_ref
        assert [tuples({m: c * lc for m, c in cofs.get(k, {}).items()}, gens, s)
                for k, lc in enumerate(gb._lcs)] == cofs_ref
        # without ``full`` the remainder stops at its first term, the largest
        s0, first, _ = groebner._nf(f._t, gb._basis, full=False)
        assert {m: c * s for m, c in first.items()} == (
            {max(rem): rem[max(rem)] * s0} if rem else {})
        assert member(f, gb) == (not rem_ref)
        r_el, cof_els = normal_form(f, gb)
        assert r_el == element(rem_ref, gens)
        assert cof_els == [element(c, gens) for c in cofs_ref]
    # lifted cofactors: the reference composes the Fraction cofactors with
    # the provenance of the monic generators
    ok, lifted = member(inside, gb, cofactors=True)
    assert ok
    ref = [dict() for _ in seq]
    _, cofs_ref = _fraction_nf(tuples(inside._t, gens), gb)
    for cof, (d, nums), lc in zip(cofs_ref, gb._provenance, gb._lcs):
        for i, r in enumerate(nums):
            ref[i] = _plus(ref[i], _times(cof, tuples(r, gens, d * lc)))
    assert lifted == [element(c, gens) for c in ref]


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1), bound=7),
       st.lists(rationals, min_size=4, max_size=4))
def test_tracked_reps_rebuild_the_primitive_basis(case, scalars):
    gens, seq = case
    # rational coefficients and negative leading coefficients exercise the
    # signed content division and the lcm of denominators
    seq = [Element.scalar(q) * a for q, a in zip(scalars, seq)]
    groebner._basis_of.cache_clear()
    gb = buchberger(seq, gens)
    inputs = [tuples(e._t, gens) for e in seq]

    def rebuilt(rep):
        d, nums = rep
        assert d > 0 and len(nums) == len(inputs)
        acc = {}
        for r, f in zip(nums, inputs):
            acc = _plus(acc, _times(tuples(r, gens), f))
        return {m: c / d for m, c in acc.items()}

    for p, lm, rep in zip(gb._polys, gb._lms, gb._provenance):
        assert rebuilt(rep) == tuples(p, gens)
        assert p[lm] > 0 and groebner._content(p.values()) == 1


# the replay that ``_fold`` and ``_lift`` replaced, kept as their reference:
# it applies each recorded step to a whole rep

def _scale(polys, c):
    for r in polys:
        for k in r:
            r[k] *= c


def _rep_submul(rep, other, c, t):
    """rep -= c * x^t * other, over the lcm of the two denominators."""
    d, d2 = rep[0], other[0]
    both = math.lcm(d, d2)
    if both != d:
        _scale(rep[1], both // d)
        rep[0] = both
    c *= both // d2
    for r, o in zip(rep[1], other[1]):
        algebra._submul(r, o, c, t)


def _rep_divide(rep, g0):
    """rep /= g0 (nonzero): cancel gcd(g0, content) from the R_i, the rest goes to D."""
    h = math.gcd(g0, groebner._content(c for r in rep[1] for c in r.values()))
    if g0 < 0:
        h = -h
    if h != 1:
        for r in rep[1]:
            for k in r:
                r[k] //= h
    rep[0] *= g0 // h


def _replay(rep, steps, built, g0):
    """rep after the recorded steps, each rep = a * rep - c * x^t * built[k], divided by g0."""
    for k, t, a, c in steps:
        if a != 1:
            _scale(rep[1], a)
        _rep_submul(rep, built[k], c, t)
    for r in rep[1]:
        if r:
            algebra._check(max(r))
    if g0 != 1:
        _rep_divide(rep, g0)
    return rep


def _replayed_provenance(trace, n):
    """Reference: the reps of a basis's record, replayed step by step."""
    origins, records = trace
    built = {~i: [1, [{0: 1} if j == i else {} for j in range(n)]] for i in range(n)}
    for k, (steps, g0) in enumerate(origins):
        built[k] = _replay([1, [{} for _ in range(n)]], steps, built, g0)
    return [_replay([built[i][0], [dict(r) for r in built[i][1]]], steps, built, g0)
            for i, steps, g0 in records]


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1), bound=7),
       st.lists(rationals, min_size=4, max_size=4), st.data())
def test_lifted_reps_and_cofactors_equal_the_replay(case, scalars, data):
    gens, seq = case
    # rational scalars give negative leading coefficients and denominators
    # D > 1, so both signs of g0 and the lcm of denominators are exercised
    seq = [Element.scalar(q) * a for q, a in zip(scalars, seq)]
    groebner._basis_of.cache_clear()
    gb = buchberger(seq, gens)
    gb._basis  # the tail reduction, which keeps the record
    replayed = _replayed_provenance(gb._trace, len(seq))

    def rational(rep):
        d, nums = rep
        return [tuples(r, gens, d) for r in nums]

    assert [rational(r) for r in gb._provenance] == [rational(r) for r in replayed]
    inside = Element.zero()
    for a in seq:
        inside = inside + data.draw(homogeneous_polys(gens, 4)) * a
    for f in gb.generators + [inside]:
        # the replay's member: the Fraction cofactors over the monic
        # generators, composed with the replayed reps
        _, cofs_ref = _fraction_nf(tuples(f._t, gens), gb)
        ref = [dict() for _ in seq]
        for cof, (d, nums), lc in zip(cofs_ref, replayed, gb._lcs):
            for i, r in enumerate(nums):
                ref[i] = _plus(ref[i], _times(cof, tuples(r, gens, d * lc)))
        assert member(f, gb, cofactors=True) == (True, [element(c, gens) for c in ref])


def test_member_lifts_cofactors_without_a_second_run(monkeypatch, mixed_model):
    gens = mixed_model.even_generators
    seq = [mixed_model.d(mixed_model.element(y)) for y in ("y1", "y2", "y3")]
    groebner._basis_of.cache_clear()
    gb = buchberger(seq, gens)
    built = []

    class Counted(groebner._Engine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(groebner, "_Engine", Counted)
    for g in gb.generators:  # x2^5 among them, from an S-pair
        ok, cofs = member(g, gb, cofactors=True)
        assert ok and cofs is not None
    assert built == []


def test_a_corrupted_replay_record_fails_the_certificate_check(mixed_model):
    # the replay itself re-checks nothing: a record that misses its basis
    # element yields wrong cofactors, and the certificate's d-check catches them
    model = SullivanModel(mixed_model.generators, mixed_model.differential)
    groebner._basis_of.cache_clear()
    gb = differential_ideal_basis(model)
    groebner._basis_of.cache_clear()  # no later test may meet the corrupted basis
    gb._basis  # the tail reduction, which keeps the record
    origins, records = gb._trace
    gb._trace = origins, [(i, steps, 2 * g0) for i, steps, g0 in records]  # halves each rep
    with pytest.raises(VerificationFailed, match="failed the differential check"):
        exactness_certificate(model, "x1")


# -- every reduction step against a plain divisor scan ---------------------------

def _reduce_by_steps(p, steps, polys, lms, first):
    """p reduced by the recorded steps (k, t, a, c), each required to act on
    the leading monomial of what is left with the divisor ``first`` gives
    for it; a leading monomial without one moves to the remainder.  Returns
    the remainder."""
    p, rem = dict(p), {}

    def settle():
        while p and first(max(p)) is None:
            m = max(p)
            rem[m] = p.pop(m)

    for k, t, a, c in steps:
        settle()
        m = max(p)
        assert (k, t) == (first(m), m - lms[k])
        p = {x: a * v for x, v in p.items()}
        rem = {x: a * v for x, v in rem.items()}
        for x, v in polys[k].items():
            p[x + t] = p.get(x + t, 0) - c * v
        p = {x: v for x, v in p.items() if v}
    settle()
    assert not p
    return rem


def _check_engine_steps(eng, records, reduced_polys, variables):
    """Every step of the run and of ``reduced()`` divides by the first
    element, in scan order, whose leading monomial divides the step's
    monomial: during the run the lowest index among the elements built so
    far, in a tail the first kept element other than its own."""
    def exponents(m):  # (elimination exponent, exponent tuple), decoded plainly
        t, key = divmod(m, algebra._ELIM)
        (e,) = tuples({key: 1}, variables)
        return (t,) + e

    lm_exps = [exponents(lm) for lm in eng.lms]

    def scan(among):
        return lambda m: next((k for k in among if _divides(lm_exps[k], exponents(m))), None)

    for n, (steps, g0) in enumerate(eng.origins):
        if steps[0][0] < 0:
            continue  # an input, taken as it is
        (i, ti, _, ci), (j, tj, _, cj) = steps[:2]  # the S-pair's two multiples
        s = {}
        for k, t, c in ((i, ti, ci), (j, tj, cj)):
            for x, v in eng.polys[k].items():
                s[x + t] = s.get(x + t, 0) - c * v
        s = {x: v for x, v in s.items() if v}
        rem = _reduce_by_steps(s, steps[2:], eng.polys, eng.lms, scan(range(n)))
        assert rem == {x: g0 * v for x, v in eng.polys[n].items()}
    kept = [i for i, _, _ in records]
    assert kept == sorted(kept, key=eng.lms.__getitem__)
    for (i, steps, g0), p in zip(records, reduced_polys):
        first = scan([k for k in kept if k != i])
        rem = _reduce_by_steps(eng.polys[i], steps, eng.polys, eng.lms, first)
        assert rem == {x: g0 * v for x, v in p.items()}


@PROPERTY
@given(weighted_sequences(counts=(-1, 0, 1), degrees=(4, 6)))
def test_every_step_divides_by_the_first_divisor(case):
    gens, seq = case
    runs = []

    class Recorded(groebner._Engine):
        def reduced(self):
            polys, records = super().reduced()
            runs.append((self, records, polys))
            return polys, records

    groebner._basis_of.cache_clear()
    with mock.patch.object(groebner, "_Engine", Recorded):
        gb = buchberger(seq[:-1], gens)
        ideal_quotient(gb, seq[-1])  # an elimination run, then the quotient's basis
    assert len(runs) >= 2  # the quotient's basis may be the cached prefix's
    for eng, records, polys in runs:
        _check_engine_steps(eng, records, polys, gens)
