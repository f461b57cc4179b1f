"""Free graded-commutative algebras over the rationals.

A generator carries a topological degree (>= 2) and a fixed position.  The
algebra is polynomial on even-degree generators and exterior on odd-degree
ones; products follow the Koszul sign rule, so swapping two odd factors flips
the sign and the square of an odd generator vanishes.  Coefficients are exact
``fractions.Fraction`` values throughout.

Elements are immutable by convention: every operation returns a fresh value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import GeneratorMismatch, InvalidModel

Scalar = Union[int, Fraction]


class SpecialDegree:
    """Marker for elements without a single well-defined degree."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self):
        return self._label


#: degree of the zero element (it lives in every degree)
ANY_DEGREE = SpecialDegree("any-degree")
#: reported when an element mixes several degrees
MIXED_DEGREES = SpecialDegree("mixed-degrees")


@dataclass(frozen=True)
class Generator:
    """A free generator: name, topological degree, canonical position."""

    name: str
    degree: int
    index: int

    def __post_init__(self):
        if self.degree < 2:
            raise InvalidModel(
                f"generator {self.name!r} has degree {self.degree}; "
                "simply connected models need degree >= 2"
            )

    @property
    def is_even(self) -> bool:
        return self.degree % 2 == 0

    def __lt__(self, other: "Generator") -> bool:
        return self.index < other.index

    def __repr__(self):
        return f"{self.name}:{self.degree}"


def make_generators(pairs: Sequence[tuple[str, int]]) -> list[Generator]:
    """Create generators in canonical order.

    Even generators come first, sorted by ascending degree with declaration
    order breaking ties; odd generators follow in declaration order.  The
    position assigned here fixes the sign conventions for products and the
    variable order used by the polynomial machinery.
    """
    names = [n for n, _ in pairs]
    if len(set(names)) != len(names):
        raise InvalidModel("generator names must be unique within a model")
    evens = [(n, d) for n, d in pairs if d % 2 == 0]
    odds = [(n, d) for n, d in pairs if d % 2 == 1]
    evens.sort(key=lambda nd: nd[1])  # stable: declaration order breaks ties
    ordered = evens + odds
    return [Generator(n, d, i) for i, (n, d) in enumerate(ordered)]


@dataclass(frozen=True)
class Monomial:
    """A product of generators: even part with exponents, odd part square-free.

    ``even`` holds (generator, exponent) pairs with exponent >= 1 and ``odd``
    holds distinct odd generators; both are sorted by generator position, so
    equal monomials compare equal structurally.
    """

    even: tuple[tuple[Generator, int], ...]
    odd: tuple[Generator, ...]

    @classmethod
    def make(cls, even: Iterable[tuple[Generator, int]] = (),
             odd: Iterable[Generator] = ()) -> "Monomial":
        ev = tuple(sorted(((g, e) for g, e in even if e), key=lambda p: p[0].index))
        od = tuple(sorted(odd, key=lambda g: g.index))
        for g, e in ev:
            if not g.is_even or e < 0:
                raise InvalidModel(f"bad even factor {g}^{e}")
        if any(g.is_even for g in od):
            raise InvalidModel("even generator in odd part")
        if len(set(g.index for g in od)) != len(od):
            raise InvalidModel("repeated odd generator has square zero")
        return cls(ev, od)

    @property
    def degree(self) -> int:
        return sum(g.degree * e for g, e in self.even) + sum(g.degree for g in self.odd)

    @property
    def word_length(self) -> int:
        return sum(e for _, e in self.even) + len(self.odd)

    def factors(self) -> Iterator[tuple[Generator, int]]:
        """All factors as (generator, exponent), sorted by position."""
        yield from self.even
        for g in self.odd:
            yield g, 1

    def generators(self) -> Iterator[Generator]:
        for g, _ in self.even:
            yield g
        yield from self.odd

    def is_unit(self) -> bool:
        return not self.even and not self.odd

    def sort_key(self) -> tuple:
        # ascending degree, then higher powers of earlier generators first
        return (self.degree, tuple((g.index, -e) for g, e in self.factors()))

    def render(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for g, e in self.factors():
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return self.render()


_UNIT = Monomial((), ())


def mul_monomials(a: Monomial, b: Monomial):
    """Product with Koszul sign: returns (monomial, sign) or None if it vanishes."""
    # merge even parts by position
    ev: list[tuple[Generator, int]] = []
    ia, ib = 0, 0
    ea, eb = a.even, b.even
    while ia < len(ea) and ib < len(eb):
        ga, xa = ea[ia]
        gb, xb = eb[ib]
        if ga.index < gb.index:
            ev.append((ga, xa)); ia += 1
        elif gb.index < ga.index:
            ev.append((gb, xb)); ib += 1
        else:
            if ga != gb:
                raise GeneratorMismatch(f"generators {ga!r} and {gb!r} share position {ga.index}")
            ev.append((ga, xa + xb)); ia += 1; ib += 1
    ev.extend(ea[ia:]); ev.extend(eb[ib:])

    # merge odd parts, counting the transpositions that interleave them
    oa, ob = a.odd, b.odd
    by_index = {g.index: g for g in oa}
    for g in ob:
        ga = by_index.get(g.index)
        if ga is not None:
            if ga != g:
                raise GeneratorMismatch(f"generators {ga!r} and {g!r} share position {g.index}")
            return None  # odd square
    od: list[Generator] = []
    inv = 0
    ia, ib = 0, 0
    while ia < len(oa) and ib < len(ob):
        if oa[ia].index < ob[ib].index:
            od.append(oa[ia]); ia += 1
        else:
            od.append(ob[ib]); ib += 1
            inv += len(oa) - ia  # this factor jumps over the rest of a's odd part
    od.extend(oa[ia:]); od.extend(ob[ib:])
    sign = -1 if inv % 2 else 1
    return Monomial(tuple(ev), tuple(od)), sign


def _mul_into(t: dict[Monomial, Fraction], a: Iterable[tuple[Monomial, Fraction]],
              b: Iterable[tuple[Monomial, Fraction]]) -> None:
    """Add the product of the terms ``a`` and ``b`` into ``t``, dropping zeros.

    ``b`` is iterated once per term of ``a``, so it must be re-iterable.
    """
    for ma, ca in a:
        for mb, cb in b:
            prod = mul_monomials(ma, mb)
            if prod is None:
                continue
            mon, sign = prod
            nc = t.get(mon, Fraction(0)) + sign * ca * cb
            if nc:
                t[mon] = nc
            else:
                t.pop(mon, None)


class Element:
    """A finite rational combination of monomials."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        t: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    t[m] = c
        self._t = t

    @staticmethod
    def _from_dict(t: dict[Monomial, Fraction]) -> "Element":
        e = Element.__new__(Element)
        e._t = t
        return e

    @staticmethod
    def zero() -> "Element":
        return Element._from_dict({})

    @staticmethod
    def one() -> "Element":
        return Element._from_dict({_UNIT: Fraction(1)})

    @staticmethod
    def scalar(c: Scalar) -> "Element":
        c = Fraction(c)
        return Element._from_dict({_UNIT: c} if c else {})

    @staticmethod
    def from_generator(g: Generator) -> "Element":
        if g.is_even:
            mon = Monomial(((g, 1),), ())
        else:
            mon = Monomial((), (g,))
        return Element._from_dict({mon: Fraction(1)})

    # -- inspection ----------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (ascending degree, then monomial order)."""
        return sorted(self._t.items(), key=lambda mc: mc[0].sort_key())

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def degree(self):
        """Common degree of all terms, ANY_DEGREE for 0, MIXED_DEGREES otherwise."""
        if not self._t:
            return ANY_DEGREE
        degs = {m.degree for m in self._t}
        return degs.pop() if len(degs) == 1 else MIXED_DEGREES

    def is_homogeneous(self) -> bool:
        return len({m.degree for m in self._t}) <= 1

    def word_lengths(self) -> set[int]:
        return {m.word_length for m in self._t}

    def generators_used(self) -> set[Generator]:
        out: set[Generator] = set()
        for m in self._t:
            out.update(m.generators())
        return out

    def is_even_polynomial(self) -> bool:
        """True when no term carries an odd factor."""
        return all(not m.odd for m in self._t)

    def odd_linear_part(self) -> dict[Generator, Fraction] | None:
        """Coefficients when the element is a combination of odd generators, else None."""
        out: dict[Generator, Fraction] = {}
        for m, c in self._t.items():
            if m.even or len(m.odd) != 1:
                return None
            out[m.odd[0]] = c
        return out

    def substitute_zero(self, killed: Iterable[Generator]) -> "Element":
        """Drop every term containing one of the killed generators."""
        ks = {g.index for g in killed}
        return Element._from_dict({
            m: c for m, c in self._t.items()
            if not any(g.index in ks for g in m.generators())
        })

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _lift(x) -> "Element | None":
        if isinstance(x, Element):
            return x
        if isinstance(x, (int, Fraction)):
            return Element.scalar(x)
        return None

    def __add__(self, other):
        o = Element._lift(other)
        if o is None:
            return NotImplemented
        t = dict(self._t)
        for m, c in o._t.items():
            nc = t.get(m, Fraction(0)) + c
            if nc:
                t[m] = nc
            else:
                t.pop(m, None)
        return Element._from_dict(t)

    __radd__ = __add__

    def __neg__(self):
        return Element._from_dict({m: -c for m, c in self._t.items()})

    def __sub__(self, other):
        o = Element._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Element._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Element.zero()
            return Element._from_dict({m: c * v for m, v in self._t.items()})
        if not isinstance(other, Element):
            return NotImplemented
        t: dict[Monomial, Fraction] = {}
        _mul_into(t, self._t.items(), other._t.items())
        return Element._from_dict(t)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InvalidModel("powers must be non-negative integers")
        out = Element.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        o = Element._lift(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        if not self._t:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.items()):
            neg = c < 0
            mag = -c if neg else c
            if m.is_unit():
                body = str(mag)
            elif mag == 1:
                body = m.render()
            else:
                body = f"{mag}*{m.render()}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return self.render()


def basis_sizes(generators: Sequence[Generator], top: int) -> list[int]:
    """Numbers of monomials in degrees 0 through top, without enumerating them.

    They are the coefficients of prod(1 - t^|x|)^-1 * prod(1 + t^|y|) over
    the even generators x and the odd generators y, up to t^top.
    """
    sizes = [1] + [0] * top if top >= 0 else []
    for g in generators:
        d = g.degree
        steps = range(d, top + 1) if g.is_even else range(top, d - 1, -1)
        for k in steps:
            sizes[k] += sizes[k - d]
    return sizes


def enumerate_basis(generators: Sequence[Generator], degree: int) -> list[Monomial]:
    """All monomials of the given topological degree, canonically ordered.

    Exponential in the degree; callers are expected to bound it.
    """
    if degree < 0:
        return []
    ordered = sorted(generators, key=lambda g: g.index)
    evens = [g for g in ordered if g.is_even]
    odds = [g for g in ordered if not g.is_even]
    out: list[Monomial] = []

    def even_part(i: int, rem: int, acc: list[tuple[Generator, int]], odd_acc: tuple[Generator, ...]):
        if rem == 0:
            out.append(Monomial(tuple(acc), odd_acc))
            return
        if i == len(evens):
            return
        g = evens[i]
        even_part(i + 1, rem, acc, odd_acc)
        e = 1
        while g.degree * e <= rem:
            acc.append((g, e))
            even_part(i + 1, rem - g.degree * e, acc, odd_acc)
            acc.pop()
            e += 1

    def odd_part(i: int, rem: int, acc: list[Generator]):
        if i == len(odds):
            even_part(0, rem, [], tuple(acc))
            return
        odd_part(i + 1, rem, acc)
        g = odds[i]
        if g.degree <= rem:
            acc.append(g)
            odd_part(i + 1, rem - g.degree, acc)
            acc.pop()

    odd_part(0, degree, [])
    out.sort(key=Monomial.sort_key)
    return out
