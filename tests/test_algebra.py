"""Graded-commutative arithmetic: signs, degrees, rendering."""
import random
from fractions import Fraction

import pytest

from sullivan.algebra import (
    ANY_DEGREE,
    Element,
    Generator,
    Monomial,
    basis_sizes,
    enumerate_basis,
    make_generators,
    mul_monomials,
)
from sullivan.errors import InvalidModel


def gens(*pairs):
    return make_generators(list(pairs))


def test_generator_degree_floor():
    with pytest.raises(InvalidModel):
        Generator("x", 1, 0)
    with pytest.raises(InvalidModel):
        Generator("x", 0, 0)


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


def test_monomial_merge_rejects_odd_square():
    y, = gens(("y", 3))
    m = Monomial.make(odd=(y,))
    assert mul_monomials(m, m) is None


def test_basis_sizes_count_the_enumerated_bases():
    for pairs in ([("x", 2)], [("y", 3)], [("x1", 2), ("x2", 4), ("y1", 3), ("y2", 5)],
                  [("x", 6), ("y1", 3), ("y2", 3), ("y3", 7)]):
        gs = gens(*pairs)
        assert basis_sizes(gs, 24) == [len(enumerate_basis(gs, k)) for k in range(25)]
    assert basis_sizes(gens(("x", 2)), -1) == []
