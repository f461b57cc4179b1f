"""Free graded-commutative algebras over the rationals.

A generator carries a topological degree (>= 2) and a fixed position.  The
algebra is polynomial on even-degree generators and exterior on odd-degree
ones; products follow the Koszul sign rule, so swapping two odd factors flips
the sign and the square of an odd generator vanishes.  Element coefficients
are exact: an ``int`` when integral, otherwise a ``fractions.Fraction``, never
a ``float``; sums and products may leave an integral ``Fraction``, which
compares, hashes and renders as its ``int``.  The exact checks that only need a
result up to a nonzero integer factor (cohomology ranks, certificate
re-checks, and the Groebner layer's fraction-free path) clear denominators
once (``_integral``) and then compute in Python ints.

A monomial is one packed int, the key of an ``Element`` term and of a
Groebner polynomial alike (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  Position i
owns the 16-bit field at bit 16*i holding exponent * generator degree, its
top bit a guard; only odd generators give odd fields, so the odd square test
and the Koszul sign are popcounts on the fields' lowest bits.  For fields P
and degree D the int is (D << 512) - P: multiplication is addition, and ints
compare as weighted-degree grevlex monomials.  MAX_GENERATORS positions and
degrees up to MAX_DEGREE keep every guard bit clear; a product beyond that
raises InvalidInput, and generators stay below MAX_DEGREE so that their
differential images fit.  An element keeps a table of its generators by
position, through which ``_powers`` reads a monomial's factors; the
canonical term order is computed when terms are listed.  Packed terms are
added, multiplied and raised in one place each (``_submul``, ``_times``,
``_power``), for ``Element`` and the parser alike.

Elements are immutable by convention: every operation returns a fresh value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import neg, or_
from typing import Iterable, Mapping, Sequence, Union

from .errors import GeneratorMismatch, InvalidInput, InvalidModel

Scalar = Union[int, Fraction]

#: generator positions the packed layout holds
MAX_GENERATORS = 32
#: largest degree of a monomial; no field can then reach its guard bit
MAX_DEGREE = (1 << 15) - 1

_W = 16                              # bits per position
_S = _W * MAX_GENERATORS             # the degree sits above the fields
_FIELD = (1 << _W) - 1
_FIELDS = (1 << _S) - 1
_LOW = _FIELDS // _FIELD             # bit 0 of every field: odd factors
_GUARD = _LOW << (_W - 1)
_LIMIT = MAX_DEGREE << _S            # k > _LIMIT exactly when its degree exceeds MAX_DEGREE


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
    """A free generator: name, topological degree, canonical position.

    Its parity and hash are computed once, at construction; the hash reads
    the degree and position alone, which equal generators share.
    """

    name: str
    degree: int
    index: int
    is_even: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 2:
            raise InvalidModel(
                f"generator {self.name!r} has degree {self.degree}; "
                "simply connected models need degree >= 2", self.name)
        if self.degree >= MAX_DEGREE or not 0 <= self.index < MAX_GENERATORS:
            raise InvalidModel(  # a differential image has degree |g| + 1
                f"generator {self.name!r} (degree {self.degree}, position "
                f"{self.index}) is outside the monomial layout: degrees below "
                f"{MAX_DEGREE}, positions 0 to {MAX_GENERATORS - 1}", self.name)
        object.__setattr__(self, "is_even", self.degree % 2 == 0)
        object.__setattr__(self, "_hash", hash((self.degree, self.index)))

    def __hash__(self):
        return self._hash

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


def _key(g: Generator) -> int:
    """The packed monomial of one generator."""
    return (g.degree << _S) - (g.degree << (g.index * _W))


def _degree(k: int) -> int:
    return -(-k >> _S)


def _too_large(k: int) -> InvalidInput:
    return InvalidInput(
        f"a monomial of degree {_degree(k)} exceeds the largest degree the "
        f"monomial layout holds, {MAX_DEGREE}")


def _fields(generators: Iterable[Generator]) -> int:
    """The mask of the generators' fields."""
    return sum(_FIELD << (g.index * _W) for g in set(generators))


def _factor(m: int, fields: int) -> int:
    """The factor of monomial m on the fields of a ``_fields`` mask: its
    exponent fields there, and their sum as its degree."""
    p = -m & fields
    return (p % _FIELD << _S) - p


def _used(keys: Iterable[int]) -> int:
    """The union of the fields the monomials occupy."""
    return reduce(or_, map(neg, keys), 0) & _FIELDS


def _powers(key: int, table: Mapping[int, Generator]) -> list[tuple[Generator, int]]:
    """The factors of a monomial as (generator, exponent), by position, for
    table its generators by position: each used field over its generator's
    degree."""
    out = []
    p = -key & _FIELDS
    while p:
        i = ((p & -p).bit_length() - 1) // _W  # the lowest used position
        f = p >> (i * _W) & _FIELD
        out.append((table[i], f // table[i].degree))
        p ^= f << (i * _W)
    return out


def _factors(key: int, table: Mapping[int, Generator]) -> list[tuple[Generator, int]]:
    """``_powers`` in factor order: the even factors by position, then the
    odd ones by position."""
    fs = _powers(key, table)
    return [f for f in fs if f[0].is_even] + [f for f in fs if not f[0].is_even]


def _sort_key(key: int, factors: list[tuple[Generator, int]]) -> tuple:
    """The canonical order of a monomial with these ``_factors``: ascending
    degree, then higher powers of earlier generators first."""
    return _degree(key), tuple((g.index, -e) for g, e in factors)


def _render(factors: list[tuple[Generator, int]]) -> str:
    """A monomial with these ``_factors`` as text, ``1`` for the unit."""
    return "*".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in factors) or "1"


class Monomial:
    """A product of generators: its packed int ``key`` and the table of the
    generators it names, by position."""

    __slots__ = ("key", "_g")

    def __init__(self, key: int, table: Mapping[int, Generator]):
        self.key = key
        self._g = table

    @classmethod
    def make(cls, even: Iterable[tuple[Generator, int]] = (),
             odd: Iterable[Generator] = ()) -> "Monomial":
        key, table = 0, {}
        for g, e in even:
            if not g.is_even or e < 0:
                raise InvalidModel(f"bad even factor {g}^{e}")
            if e:
                key += e * _key(g)
                table[g.index] = g
        for g in odd:
            if g.is_even:
                raise InvalidModel("even generator in odd part")
            if g.index in table:
                raise InvalidModel("repeated odd generator has square zero")
            key += _key(g)
            table[g.index] = g
        if key > _LIMIT:
            raise _too_large(key)
        return cls(key, table)

    @property
    def degree(self) -> int:
        return _degree(self.key)

    def factors(self) -> list[tuple[Generator, int]]:
        """All factors as (generator, exponent): the even ones by position,
        then the odd ones by position."""
        return _factors(self.key, self._g)

    def is_unit(self) -> bool:
        return not self.key

    def sort_key(self) -> tuple:
        return _sort_key(self.key, self.factors())

    def render(self) -> str:
        return _render(self.factors())

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.render()


def _mul_into(t: dict[int, Scalar], a: Iterable[tuple[int, Scalar]],
              b: Iterable[tuple[int, Scalar]]) -> None:
    """Add the product of the terms ``a`` and ``b`` into ``t``, dropping zeros.

    ``b`` is iterated once per term of ``a``, so it must be re-iterable.  A
    term product vanishes when the factors share an odd generator.  Its
    Koszul sign is the parity of the pairs of odd factors, j of b below i of
    a, that it swaps: field i of ob * _LOW counts the odd factors of b at or
    below position i, so the pairs are a popcount.
    """
    for ka, ca in a:
        oa = -ka & _LOW
        for kb, cb in b:
            k = ka + kb
            if k > _LIMIT:
                raise _too_large(k)
            c = ca * cb
            if oa:
                ob = -kb & _LOW
                if oa & ob:
                    continue  # odd square
                if (ob * _LOW & oa).bit_count() & 1:
                    c = -c
            nc = t.get(k, 0) + c
            if nc:
                t[k] = nc
            else:
                t.pop(k, None)


def _submul(p: dict[int, Scalar], q: Mapping[int, Scalar], c: Scalar, t: int) -> None:
    """p -= c * x^t * q, in place, dropping zero terms."""
    for m, v in q.items():
        kk = m + t
        nv = p.get(kk, 0) - c * v
        if nv:
            p[kk] = nv
        else:
            p.pop(kk, None)


def _times(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    """The product of the terms a and b: a single term times a single term
    with at most one odd side adds their keys and multiplies their
    coefficients, anything else goes through ``_mul_into``."""
    if len(a) == 1 == len(b):
        ((ka, ca),), ((kb, cb),) = a.items(), b.items()
        if not -ka & _LOW or not -kb & _LOW:
            if ka + kb > _LIMIT:
                raise _too_large(ka + kb)
            return {ka + kb: ca * cb}
    t: dict[int, Scalar] = {}
    _mul_into(t, a.items(), b.items())
    return t


def _power(base: dict[int, Scalar], k: int) -> dict[int, Scalar]:
    """base to the k-th power: a single term's key times k and coefficient to
    the k, zero when it has an odd factor and k >= 2; anything else by
    repeated squaring through ``_times``."""
    if not k:
        return {0: 1}
    if len(base) == 1:
        ((m, c),) = base.items()
        if k > 1 and -m & _LOW:
            return {}
        if m * k > _LIMIT:
            raise _too_large(m * k)
        return {m * k: c ** k}
    out = {0: 1}
    while k:
        if k & 1:
            out = _times(out, base)
        base = _times(base, base) if k > 1 else base
        k >>= 1
    return out


def _image(g: Generator, terms: Mapping[int, Scalar]) -> tuple:
    """g's image as ``_derive_into`` takes it: (g, its key, the terms,
    whether a term has an odd factor)."""
    return g, _key(g), terms.items(), bool(_used(terms) & _LOW)


def _derive_into(t: dict[int, Scalar], m: int, c: Scalar, images: Iterable[tuple]) -> None:
    """Add d(c*m) into t, for d of degree +1 with images of degree |g| + 1,
    each given by ``_image``; int coefficients and images keep t in integers.

    Even generators and odd generators' images then commute with
    everything, so each even factor g^k gives k*c*d(g)*(m/g) and an odd
    factor y with j odd factors before it gives (-1)^j*c*d(y)*(m/y).  An
    image with no odd factor needs no Koszul sign and has no odd square with
    m/g, so it is added shifted by m/g, each key checked against the layout;
    any other image goes through ``_mul_into``.
    """
    fields = -m
    for g, key, image, odd in images:
        at = g.index * _W
        f = fields >> at & _FIELD
        if not f:
            continue
        if f & 1:  # odd: the sign counts the odd factors before it
            cf = -c if (fields & _LOW & ((1 << at) - 1)).bit_count() & 1 else c
        else:
            cf = f // g.degree * c
        rest = m - key
        if odd:
            _mul_into(t, image, ((rest, cf),))
            continue
        for k, v in image:
            k += rest
            if k > _LIMIT:
                raise _too_large(k)
            nc = t.get(k, 0) + v * cf
            if nc:
                t[k] = nc
            else:
                t.pop(k, None)


def _exact(c) -> Scalar:
    """c as a coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(n: int, d: int) -> Scalar:
    """n / d exactly, for ints n and d != 0: an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _integral(p: Mapping, den: int = 1) -> tuple[int, dict]:
    """(D, D * p) with int values, for D the lcm of den and the denominators
    of p's (int or Fraction) coefficients."""
    den = lcm(den, *(c.denominator for c in p.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in p.items()}


# -- monomial operations of the Groebner layer --------------------------------

#: the elimination indeterminate of ideal quotients: one more field, above a
#: 32-bit degree, so that it dominates the order; its exponent never exceeds
#: the inputs' 1, as no Buchberger step raises a leading one
_T = _S + 2 * _W
_ELIM = 1 << _T
#: guard bits of the exponent fields and of the elimination exponent's field
_GUARDS = _GUARD | 1 << (_S + _W - 1)


def _check(m: int) -> None:
    """Raise unless monomial m, leaving out its elimination exponent, fits the layout."""
    if m & _ELIM - 1 > _LIMIT:
        raise _too_large(m & _ELIM - 1)


def _exponents(m: int) -> int:
    """m's exponent fields, with the elimination exponent in one more above."""
    return -m & _FIELDS | m >> _T << _S


def _divisor(m: int, exps: list[int], among: Iterable[int]) -> int | None:
    """The first k among ``among`` whose monomial, with ``_exponents`` exps[k],
    divides m, or None: no field exceeds m's, so (m's | guards) - exps[k]
    keeps every guard bit."""
    em = _exponents(m) | _GUARDS
    for k in among:
        if (em - exps[k]) & _GUARDS == _GUARDS:
            return k
    return None


def _lcm(a: int, b: int) -> int:
    """The lcm of monomials a and b: each field the larger one (a's where its
    guard bit survives subtracting b's), the degree their sum."""
    pa, pb = -a & _FIELDS, -b & _FIELDS
    mask = (((pa | _GUARD) - pb & _GUARD) >> (_W - 1)) * _FIELD
    p = pa & mask | pb & ~mask
    return (max(a >> _T, b >> _T) << _T) + (p % _FIELD << _S) - p


def _union(a: "Element", b: "Element") -> dict[int, Generator]:
    """The generator table of a combination of a and b: a position both use
    must hold one generator, an entry no term uses gives way to the other's."""
    ga, gb = a._g, b._g
    if gb.items() <= ga.items():
        return ga
    if ga.items() <= gb.items():
        return gb
    out = {**ga, **gb}
    for i in ga.keys() & gb.keys():
        if ga[i] != gb[i] and _used(a._t) >> (i * _W) & _FIELD:
            if _used(b._t) >> (i * _W) & _FIELD:
                raise GeneratorMismatch(f"{ga[i]!r} and {gb[i]!r} share position {i}")
            out[i] = ga[i]
    return out


class Element:
    """A finite rational combination of monomials."""

    __slots__ = ("_t", "_g")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        t: dict[int, Scalar] = {}
        table: dict[int, Generator] = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    t[m.key] = c
                    if any(table.setdefault(i, g) != g for i, g in m._g.items()):
                        raise GeneratorMismatch("two generators share a position")
        self._t = t
        self._g = table

    @staticmethod
    def _from_dict(t: dict[int, Scalar], table: dict[int, Generator]) -> "Element":
        e = Element.__new__(Element)
        e._t = t
        e._g = table
        return e

    @staticmethod
    def zero() -> "Element":
        return Element._from_dict({}, {})

    @staticmethod
    def one() -> "Element":
        return Element._from_dict({0: 1}, {})

    @staticmethod
    def scalar(c: Scalar) -> "Element":
        c = _exact(c)
        return Element._from_dict({0: c} if c else {}, {})

    @staticmethod
    def from_generator(g: Generator) -> "Element":
        return Element._from_dict({_key(g): 1}, {g.index: g})

    # -- inspection ----------------------------------------------------

    def _ordered(self) -> list[tuple[int, list[tuple[Generator, int]], Scalar]]:
        """(monomial, its ``_factors``, coefficient) per term, in canonical
        order (ascending degree, then monomial order), each monomial decoded
        once."""
        rows = [(k, _factors(k, self._g), c) for k, c in self._t.items()]
        rows.sort(key=lambda row: _sort_key(row[0], row[1]))
        return rows

    def items(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in canonical order (ascending degree, then monomial order)."""
        return [(Monomial(k, self._g), c) for k, _, c in self._ordered()]

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def degree(self):
        """Common degree of all terms, ANY_DEGREE for 0, MIXED_DEGREES otherwise."""
        if not self._t:
            return ANY_DEGREE
        degs = {_degree(k) for k in self._t}
        return degs.pop() if len(degs) == 1 else MIXED_DEGREES

    def is_homogeneous(self) -> bool:
        return len({_degree(k) for k in self._t}) <= 1

    def word_lengths(self) -> set[int]:
        return {sum(e for _, e in _powers(k, self._g)) for k in self._t}

    def generators_used(self) -> set[Generator]:
        used = _used(self._t)
        return {g for i, g in self._g.items() if used >> (i * _W) & _FIELD}

    def is_even_polynomial(self) -> bool:
        """True when no term carries an odd factor."""
        return not _used(self._t) & _LOW

    def odd_linear_part(self) -> dict[Generator, Scalar] | None:
        """Coefficients when the element is a combination of odd generators, else None."""
        out: dict[Generator, Scalar] = {}
        for k, c in self._t.items():
            fs = _powers(k, self._g)
            if len(fs) != 1 or fs[0][0].is_even:
                return None
            out[fs[0][0]] = c
        return out

    def substitute_zero(self, killed: Iterable[Generator]) -> "Element":
        """Drop every term containing one of the killed generators."""
        fields = _fields(killed)
        return Element._from_dict(
            {k: c for k, c in self._t.items() if not -k & fields}, self._g)

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
        _submul(t, o._t, -1, 0)
        return Element._from_dict(t, _union(self, o))

    __radd__ = __add__

    def __neg__(self):
        return Element._from_dict({k: -c for k, c in self._t.items()}, self._g)

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
            c = _exact(other)
            if not c:
                return Element.zero()
            return Element._from_dict({k: c * v for k, v in self._t.items()}, self._g)
        if not isinstance(other, Element):
            return NotImplemented
        return Element._from_dict(_times(self._t, other._t), _union(self, other))

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
        return Element._from_dict(_power(self._t, k), self._g)

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
        for i, (k, fs, c) in enumerate(self._ordered()):
            mag = str(c)  # sign and magnitude from the text, not by Fraction arithmetic
            neg = mag[0] == "-"
            if neg:
                mag = mag[1:]
            if not k:
                body = mag
            elif mag == "1":
                body = _render(fs)
            else:
                body = f"{mag}*{_render(fs)}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return self.render()


#: most monomials a basis listing may hold (every degree through the top
#: one), counted before any work; the shipped models need at most 19,414
#: through degree 200, and the 93,980 of five S^2 pieces through degree 27
#: take 0.4 s in ``cohomology_dims`` and 0.3 s in
#: ``enumerate_basis`` (Python 3.11, one core of a 2-core virtual machine)
MAX_BASIS = 100_000


def _series(generators: Sequence[Generator], out: list, times) -> list:
    """The series ``out``, coefficients of t^0 through t^top, times
    prod(1 - t^|x|)^-1 * prod(1 + t^|y|) over the even generators x and the
    odd generators y, in place, for coefficients that add by + and that
    times(c, g) multiplies by g: one sweep per generator, ascending for an
    even one (1 + t^|x| + t^2|x| + ...) and descending for an odd one (1 + t^|y|)."""
    top = len(out) - 1
    for g in generators:
        d = g.degree
        for r in range(d, top + 1) if g.is_even else range(top, d - 1, -1):
            out[r] = times(out[r - d], g) + out[r]
    return out


def basis_sizes(generators: Sequence[Generator], top: int) -> list[int]:
    """Numbers of monomials in degrees 0 through top, without listing them."""
    return _series(generators, [int(r == 0) for r in range(top + 1)], lambda n, g: n)


def _bases(generators: Sequence[Generator], top: int) -> list[list[int]]:
    """The packed monomials of each degree 0 through top: the recurrence of
    ``basis_sizes`` on lists, a degree's list being g times the list |g|
    below it followed by its old list.

    Taking the generators in reverse factor order (odd ones, then even ones,
    each by descending position) lists each degree in canonical order
    whenever the even generators sit below the odd ones.
    """
    if top > MAX_DEGREE:
        raise _too_large(top << _S)
    order = sorted(generators, key=lambda g: (g.is_even, -g.index))
    keys = {g: _key(g) for g in order}  # one per sweep, not per monomial
    return _series(order, [[0] if r == 0 else [] for r in range(top + 1)],
                   lambda ms, g: list(map(keys[g].__add__, ms)))


def enumerate_basis(generators: Sequence[Generator], degree: int) -> list[Monomial]:
    """All monomials of the given topological degree, canonically ordered.

    Listing them lists every degree below too; their number is counted
    first, and more than MAX_BASIS raise InvalidInput.
    """
    if degree < 0:
        return []
    if degree > MAX_DEGREE:
        raise _too_large(degree << _S)
    size = sum(basis_sizes(generators, degree))
    if size > MAX_BASIS:
        raise InvalidInput(
            f"the monomials through degree {degree} number {size}, "
            f"over the limit of {MAX_BASIS}")
    table = {g.index: g for g in generators}
    return sorted((Monomial(m, table) for m in _bases(generators, degree)[degree]),
                  key=Monomial.sort_key)
