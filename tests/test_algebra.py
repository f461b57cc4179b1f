"""Graded-commutative arithmetic: signs, degrees, rendering."""
import dataclasses
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import algebra
from sullivan.algebra import (
    ANY_DEGREE,
    MAX_BASIS,
    MAX_DEGREE,
    MAX_GENERATORS,
    Element,
    Generator,
    Monomial,
    basis_sizes,
    enumerate_basis,
    make_generators,
)
from sullivan.errors import DifferentialNotSquareZero, InvalidInput, InvalidModel, SullivanError
from sullivan.extension import exhaustive_homogeneous_search, f0_extend
from sullivan.model import SullivanModel
from sullivan.parsing import parse_model

from conftest import Derivation, brute_force_basis


def gens(*pairs):
    return make_generators(list(pairs))


def test_generator_degree_floor():
    with pytest.raises(InvalidModel):
        Generator("x", 1, 0)
    with pytest.raises(InvalidModel):
        Generator("x", 0, 0)


def test_generator_equality_hash_and_parity_are_fixed_at_construction():
    a, b = Generator("x1", 2, 0), Generator("x1", 2, 0)
    assert a is not b and a == b and hash(a) == hash(b)
    for other in (Generator("x2", 2, 0), Generator("x1", 4, 0), Generator("x1", 2, 1)):
        assert a != other
    for name, value in (("name", "x2"), ("degree", 4), ("index", 1), ("is_even", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)
    assert a == b and repr(a) == "x1:2"
    for d in range(2, 12):
        assert Generator("g", d, 0).is_even == (d % 2 == 0)


def test_make_generators_sorts_evens_by_degree():
    gs = gens(("a", 6), ("b", 2), ("y", 3), ("c", 4))
    names = [g.name for g in gs]
    assert names == ["b", "c", "a", "y"]
    assert [g.index for g in gs] == [0, 1, 2, 3]


def test_odd_square_is_zero():
    (y,) = gens(("y", 3))
    e = Element.from_generator(y)
    assert (e * e).is_zero()


def test_odd_anticommute():
    y, z = gens(("y", 3), ("z", 5))
    ey, ez = Element.from_generator(y), Element.from_generator(z)
    assert ey * ez == -(ez * ey)


def test_even_commute_with_odd():
    x, y = gens(("x", 2), ("y", 3))
    ex, ey = Element.from_generator(x), Element.from_generator(y)
    assert ex * ey == ey * ex


def test_koszul_sign_triple():
    # (y z) w = y (z w) and swapping two odds flips the sign
    y, z, w = gens(("y", 3), ("z", 3), ("w", 3))
    ey, ez, ew = (Element.from_generator(g) for g in (y, z, w))
    assert (ey * ez) * ew == ey * (ez * ew)
    assert ey * ez * ew == -(ez * ey * ew)


def test_scalar_lifting_and_division():
    x, = gens(("x", 2))
    ex = Element.from_generator(x)
    assert 3 * ex == ex * 3
    assert (ex * Fraction(1, 2)) * 2 == ex
    assert (3 * ex) / 3 == ex


def test_products_past_the_layout_raise():
    x, y = gens(("x", 2), ("y", 3))
    ex = Element.from_generator(x)
    top = MAX_DEGREE // 2
    assert (ex ** top).degree() == 2 * top
    with pytest.raises(InvalidInput):
        ex ** (top + 1)  # one more factor of x would reach the guard bit
    with pytest.raises(InvalidInput):
        Monomial.make([(x, top + 1)])
    with pytest.raises(InvalidModel):
        Generator("z", MAX_DEGREE, 2)
    with pytest.raises(InvalidModel):
        Generator("z", 2, MAX_GENERATORS)


def test_power():
    x, = gens(("x", 2))
    ex = Element.from_generator(x)
    assert (ex ** 3).degree() == 6
    assert ex ** 0 == Element.one()


def test_degree_sentinels():
    x, y = gens(("x", 2), ("y", 3))
    ex, ey = Element.from_generator(x), Element.from_generator(y)
    assert Element.zero().degree() is ANY_DEGREE
    mixed = ex + ey
    assert not mixed.is_homogeneous()
    assert (ex + ex * ex).is_homogeneous() is False
    assert ex.degree() == 2 and (ex + 2 * ex).degree() == 2


def test_word_lengths():
    x, y = gens(("x", 2), ("y", 3))
    ex, ey = Element.from_generator(x), Element.from_generator(y)
    assert (ex * ex + ex * ey).word_lengths() == {2}
    assert (ex + ex * ex).word_lengths() == {1, 2}
    assert Element.zero().word_lengths() == set()


def test_render_roundtrip_like():
    x1, x2, y = gens(("x1", 2), ("x2", 4), ("y", 3))
    e = (Element.from_generator(x1) ** 2
         - Element.from_generator(x2) * Fraction(3, 2)
         + Element.from_generator(x1) * Element.from_generator(y))
    s = e.render()
    assert "x1^2" in s and "3/2*x2" in s
    assert "--" not in s


def test_odd_linear_part():
    x, y, z = gens(("x", 2), ("y", 3), ("z", 3))
    ex, ey, ez = (Element.from_generator(g) for g in (x, y, z))
    lin = (2 * ey - ez).odd_linear_part()
    assert lin == {y: Fraction(2), z: Fraction(-1)}
    assert (ex * ey).odd_linear_part() is None
    assert (ey + ex).odd_linear_part() is None
    # hand-built, with odd generators below the even one
    y0, x1, z2 = Generator("y", 3, 0), Generator("x", 2, 1), Generator("z", 5, 2)
    ey, ex, ez = (Element.from_generator(g) for g in (y0, x1, z2))
    assert (ey - 3 * ez).odd_linear_part() == {y0: Fraction(1), z2: Fraction(-3)}
    assert ez.odd_linear_part() == {z2: Fraction(1)}
    for e in (ex, ex * ez, ey * ez, ey + ex * ex, Element.one() + ey):
        assert e.odd_linear_part() is None


def test_substitute_zero():
    x1, x2, y = gens(("x1", 2), ("x2", 2), ("y", 3))
    e = (Element.from_generator(x1) * Element.from_generator(x2)
         + Element.from_generator(x2) ** 2)
    assert e.substitute_zero([x1]) == Element.from_generator(x2) ** 2
    assert e.substitute_zero([x2]).is_zero()


def test_associativity_randomized():
    gs = gens(("x1", 2), ("x2", 4), ("y1", 3), ("y2", 5))
    rng = random.Random(7)
    els = [Element.from_generator(g) for g in gs]

    def rand_elt():
        out = Element.zero()
        for _ in range(rng.randint(1, 3)):
            t = Element.scalar(rng.randint(-2, 2))
            for _ in range(rng.randint(1, 2)):
                t = t * rng.choice(els)
            out = out + t
        return out

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def mul_monomials(a, b):
    """Reference product of monomials given as (even, odd): even holds
    (generator, exponent) pairs and odd distinct odd generators, both by
    position.  Returns (monomial, Koszul sign), or None for an odd square.
    This is the merge the algebra used before packed monomials."""
    ev, ia, ib = [], 0, 0
    ea, eb = a[0], b[0]
    while ia < len(ea) and ib < len(eb):
        (ga, xa), (gb, xb) = ea[ia], eb[ib]
        if ga.index < gb.index:
            ev.append((ga, xa)); ia += 1
        elif gb.index < ga.index:
            ev.append((gb, xb)); ib += 1
        else:
            ev.append((ga, xa + xb)); ia += 1; ib += 1
    ev.extend(ea[ia:]); ev.extend(eb[ib:])
    oa, ob = a[1], b[1]
    if {g.index for g in oa} & {g.index for g in ob}:
        return None  # odd square
    od, inv, ia, ib = [], 0, 0, 0
    while ia < len(oa) and ib < len(ob):
        if oa[ia].index < ob[ib].index:
            od.append(oa[ia]); ia += 1
        else:
            od.append(ob[ib]); ib += 1
            inv += len(oa) - ia  # this factor jumps over the rest of a's odd part
    od.extend(oa[ia:]); od.extend(ob[ib:])
    return (tuple(ev), tuple(od)), -1 if inv % 2 else 1


def as_element(mon):
    return Element({Monomial.make(*mon): 1})


def test_monomial_merge_rejects_odd_square():
    y, = gens(("y", 3))
    m = ((), (y,))
    assert mul_monomials(m, m) is None
    assert (as_element(m) * as_element(m)).is_zero()


@st.composite
def monomial_pairs(draw):
    """1 to 6 generators of mixed parity at shuffled positions, and two
    monomials over them: even exponents up to 3, odd ones 0 or 1."""
    degrees = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, 7)), min_size=1, max_size=6))
    positions = draw(st.permutations(range(len(degrees))))
    gs = sorted((Generator(f"g{i}", d, p) for i, (d, p) in enumerate(zip(degrees, positions))),
                key=lambda g: g.index)

    def monomial():
        ex = [draw(st.integers(0, 3 if g.is_even else 1)) for g in gs]
        return (tuple((g, e) for g, e in zip(gs, ex) if e and g.is_even),
                tuple(g for g, e in zip(gs, ex) if e and not g.is_even))

    return monomial(), monomial()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(monomial_pairs())
def test_packed_product_matches_the_merge(pair):
    a, b = pair
    got = as_element(a) * as_element(b)
    ref = mul_monomials(a, b)
    if ref is None:
        assert got.is_zero()
        return
    mon, sign = ref
    assert got == Element({Monomial.make(*mon): sign})
    [(m, c)] = got.items()
    assert m.key == Monomial.make(*mon).key and c == sign
    assert list(m.factors()) == list(mon[0]) + [(g, 1) for g in mon[1]]
    # the decoder gives every factor by position, odd ones below even ones too
    by_position = sorted(list(mon[0]) + [(g, 1) for g in mon[1]], key=lambda f: f[0].index)
    assert algebra._powers(m.key, m._g) == by_position


def test_basis_sizes_count_the_enumerated_bases():
    layouts = [gens(*pairs) for pairs in (
        [("x", 2)], [("y", 3)], [("x1", 2), ("x2", 4), ("y1", 3), ("y2", 5)],
        [("x", 6), ("y1", 3), ("y2", 3), ("y3", 7)])]
    # hand-built, with odd generators below even ones
    layouts.append([Generator("y1", 3, 0), Generator("x1", 2, 1),
                    Generator("y2", 5, 2), Generator("x2", 4, 3)])
    for gs in layouts:
        assert basis_sizes(gs, 24) == [len(enumerate_basis(gs, k)) for k in range(25)]
        for k in range(25):
            reference = sorted(brute_force_basis(gs, k), key=Monomial.sort_key)
            assert enumerate_basis(gs, k) == reference
    assert basis_sizes(gens(("x", 2)), -1) == []


def test_enumerate_basis_cost_guard_runs_before_any_work():
    # five copies of S^2 through degree 60: their monomials are counted, not
    # listed, and refused
    s2x5 = gens(*[(f"x{i}", 2) for i in range(5)], *[(f"y{i}", 3) for i in range(5)])
    size = sum(basis_sizes(s2x5, 60))
    assert size > MAX_BASIS
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match=f"number {size}, over the limit of {MAX_BASIS}"):
        enumerate_basis(s2x5, 60)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InvalidInput, match="exceeds the largest degree"):
        enumerate_basis(s2x5, MAX_DEGREE + 1)


def _mixed_generators(draw):
    """1 to 6 generators of mixed parity at shuffled positions."""
    degrees = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, 7)), min_size=1, max_size=6))
    positions = draw(st.permutations(range(len(degrees))))
    return sorted((Generator(f"g{i}", d, p) for i, (d, p) in enumerate(zip(degrees, positions))),
                  key=lambda g: g.index)


@st.composite
def term_lists(draw, gs=None):
    """``_mixed_generators`` (unless given), and up to 5 terms over them (the
    unit among them): (even factors, odd factors, nonzero rational
    coefficient of either sign)."""
    gs = gs or _mixed_generators(draw)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        ex = [draw(st.integers(0, 3 if g.is_even else 1)) for g in gs]
        c = Fraction(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 4)))
        terms.append((tuple((g, e) for g, e in zip(gs, ex) if e and g.is_even),
                      tuple(g for g, e in zip(gs, ex) if e and not g.is_even), c))
    return terms


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(term_lists())
def test_render_matches_a_reference_through_monomials(terms):
    # the reference orders and writes each term from its known factors:
    # ascending degree, then higher powers of earlier generators first; the
    # even factors by position, then the odd ones
    ref = {}
    for even, odd, c in terms:
        m = Monomial.make(even, odd)
        factors = list(even) + [(g, 1) for g in odd]
        ref[m.key] = (m, factors, c)  # a repeated monomial keeps its last coefficient
    rows = sorted(ref.values(), key=lambda r: (r[0].degree,
                                                tuple((g.index, -e) for g, e in r[1])))
    parts = []
    for i, (m, factors, c) in enumerate(rows):
        text = "*".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in factors)
        mag = abs(c)
        body = str(mag) if not factors else text if mag == 1 else f"{mag}*{text}"
        assert m.render() == (text or "1")
        assert m.sort_key() == (m.degree, tuple((g.index, -e) for g, e in factors))
        parts.append(("-" if c < 0 else "") + body if i == 0
                     else (" - " if c < 0 else " + ") + body)
    e = Element({m: c for m, _, c in ref.values()})
    assert e.render() == "".join(parts)
    assert [(m.key, c) for m, c in e.items()] == [(m.key, c) for m, _, c in rows]


def test_render_decodes_each_term_once(monkeypatch):
    x, y, z = gens(("x", 2), ("y", 3), ("z", 5))
    ex, ey, ez = (Element.from_generator(g) for g in (x, y, z))
    e = ex ** 3 - Fraction(2, 3) * ex * ey + ey * ez + 5
    calls = []

    def counted(key, table):
        calls.append(key)
        return powers(key, table)

    powers = algebra._powers
    monkeypatch.setattr(algebra, "_powers", counted)
    assert e.render() == "5 - 2/3*x*y + x^3 + y*z"
    assert len(calls) == 4


def _wrapped(e: Element) -> Element:
    """e with every coefficient a Fraction, the integral ones too."""
    return Element._from_dict({k: Fraction(c) for k, c in e._t.items()}, e._g)


def _agree(x: Element, y: Element) -> None:
    assert x == y and hash(x) == hash(y) and x.render() == y.render()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(term_lists(), st.integers(-3, 3), st.integers(0, 3))
def test_int_and_fraction_coefficients_give_the_same_results(terms, s, k):
    # a has int coefficients, b rational ones (ints where integral); each
    # result is computed again with every input coefficient a Fraction
    a = Element({Monomial.make(even, odd): c.numerator for even, odd, c in terms})
    b = Element({Monomial.make(even, odd): c for even, odd, c in terms[::2]})
    assert all(type(c) is int for c in a._t.values())
    gs = sorted({g for e in (a, b) for g in e._g.values()})

    def results(a, b):
        model = Derivation({g: a if g.is_even else b for g in gs})
        return [a + b, a - b, a * b, b * a, a ** k, s * a, a * Fraction(s),
                a.substitute_zero(gs[::2]), model.d(a), model.d(b)]

    for x, y in zip(results(a, b), results(_wrapped(a), _wrapped(b))):
        _agree(x, y)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(term_lists(), st.integers(0, 5))
def test_power_is_the_repeated_product(terms, k):
    # the packed power (a single term's key times k, or repeated squaring)
    # against k - 1 plain products; single odd terms square to zero
    a = Element({Monomial.make(even, odd): c for even, odd, c in terms})
    ref = Element.one()
    for _ in range(k):
        ref = ref * a
    _agree(a ** k, ref)


def _derive_by_products(terms, images):
    """Reference: d of the terms by the kernel before the even-image path,
    which sends every (generator, image terms) pair through ``_mul_into``."""
    t = {}
    for m, c in terms.items():
        fields = -m
        for g, image in images:
            at = g.index * algebra._W
            f = fields >> at & algebra._FIELD
            if not f:
                continue
            if f & 1:
                cf = -c if (fields & algebra._LOW & ((1 << at) - 1)).bit_count() & 1 else c
            else:
                cf = f // g.degree * c
            algebra._mul_into(t, image.items(), ((m - algebra._key(g), cf),))
    return t


def _same_terms(got: dict, ref: dict) -> None:
    """Equal terms in the same order, with the same coefficient types."""
    assert [(k, c, type(c)) for k, c in got.items()] == [(k, c, type(c)) for k, c in ref.items()]


def _assert_kernels_agree(generators, differential, d, scaled_d=None):
    """d (and scaled_d, when given) against the reference on every monomial
    through degree 12, and on one sum with rational coefficients of each
    degree 9 to 12."""
    images = [(g, img._t) for g, img in differential.items()]
    scale = math.lcm(*(c.denominator for img in differential.values() for c in img._t.values()))
    scaled = [(g, algebra._integral(img._t, scale)[1]) for g, img in differential.items()]
    table = {g.index: g for g in generators}
    bases = algebra._bases(generators, 12)
    samples = [{m: 1} for ms in bases for m in ms]
    samples += [{m: Fraction(i % 5 - 2, i % 3 + 1) or 3 for i, m in enumerate(ms)} for ms in bases[9:]]
    for terms in samples:
        _same_terms(d(Element._from_dict(terms, table))._t, _derive_by_products(terms, images))
        if scaled_d is not None:
            integral = algebra._integral(terms)[1]
            got_scale, got = scaled_d(integral)
            assert got_scale == scale
            _same_terms(got, _derive_by_products(integral, scaled))


def test_derivation_kernel_matches_the_products_on_a_nonpure_model():
    # dz = y1*y2 has odd factors: its image takes _mul_into, dw = x^2 the shift
    model = parse_model((pathlib.Path(__file__).resolve().parent.parent
                         / "models" / "nonpure.model").read_text(encoding="utf-8"))
    assert [odd for *_, odd in model._images] == [False, True]
    _assert_kernels_agree(model.generators, model.differential, model.d, model._scaled_d)


def test_derivation_kernel_matches_the_products_where_d_squared_fails():
    # the model that the CI refuses at build time: d(z) = y*u, d^2(z) = x^2*u
    x, y, u, z = gens(("x", 2), ("y", 3), ("u", 5), ("z", 7))
    ex, ey, eu = (Element.from_generator(g) for g in (x, y, u))
    images = {y: ex ** 2, z: ey * eu}
    with pytest.raises(DifferentialNotSquareZero, match=r"d\^2\(z\) = x\^2\*u is nonzero"):
        SullivanModel([x, y, u, z], images)
    derivation = Derivation(images)
    assert derivation.d(ey * eu) == ex ** 2 * eu
    _assert_kernels_agree([x, y, u, z], derivation.differential, derivation.d)


@st.composite
def derivations(draw):
    """Generators, an element over them, and an image over them for some of
    them: odd factors (Koszul signs, odd squares) and rational coefficients."""
    gs = _mixed_generators(draw)

    def element():
        return Element({Monomial.make(even, odd): c for even, odd, c in draw(term_lists(gs))})

    return element(), {g: img for g in gs if draw(st.booleans()) for img in [element()] if img}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(derivations())
def test_derivation_kernel_matches_the_products(case):
    e, images = case
    _same_terms(Derivation(images).d(e)._t,
                _derive_by_products(e._t, [(g, img._t) for g, img in images.items()]))
    # the scaled kernel, on the integral element and images
    scale = math.lcm(*(c.denominator for img in images.values() for c in img._t.values()))
    scaled = [(g, algebra._integral(img._t, scale)[1]) for g, img in images.items()]
    integral = algebra._integral(e._t)[1]
    t = {}
    for m, c in integral.items():
        algebra._derive_into(t, m, c, [algebra._image(g, img) for g, img in scaled])
    _same_terms(t, _derive_by_products(integral, scaled))


def test_engine_builds_int_coefficients_from_integral_models():
    # the shipped models have integral images, so every coefficient the
    # parser, the extension and the search build is an int
    def check(e: Element) -> None:
        assert all(type(c) is int for c in e._t.values()), e._t

    for path in sorted(pathlib.Path(__file__).resolve().parent.parent.glob("models/*.model")):
        model = parse_model(path.read_text(encoding="utf-8"))
        for img in model.differential.values():
            check(img)
        try:
            ext = f0_extend(model)
        except SullivanError:
            ext = None
        if ext is not None:
            for e in ext.odd_basis + list(ext.extension.differential.values()):
                check(e)
            for cert in ext.certificates:
                check(cert.witness)
                check(cert.power)
        try:
            found = exhaustive_homogeneous_search(model).found or []
        except SullivanError:
            found = []
        for e in found:
            check(e)
