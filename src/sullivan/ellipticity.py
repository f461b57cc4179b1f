"""Ellipticity tests, nilpotency exponents, and exactness certificates.

For a pure model the criterion is algebraic: the even subalgebra modulo the
ideal generated by the odd generators' differentials must be a
finite-dimensional vector space.  Non-pure models are handled through their
pure projection (drop every term of an odd generator's differential that
contains an odd factor); that projection is elliptic exactly when the
original model is.

Ellipticity makes every even generator nilpotent in the quotient, and the
smallest exponent landing a power inside the differential ideal comes with a
checkable certificate: an element whose differential is exactly that power.

Cohomology dimensions come from one of two exact rank computations.  The
oracle ranks d on every monomial of Lambda V through the top degree asked
for.  The structure theorem gives a pure elliptic model of constant length l
on n even generators an F0 basis Z, whose images are a regular sequence;
with Y' the odd generators outside Z's pivots, H(Lambda V) =
H(Q[X]/(dZ) (x) Lambda Y') (Felix, Halperin and Thomas, *Rational Homotopy
Theory*, section 14), a finite complex.  Both methods split off the inert
generators first, so the complex has l^n * 2^r elements, r the non-inert
ones of Y'.  It is ranked when the oracle's basis count is over
``COMPLEX_ADVANTAGE`` times that size; both sizes are known before any work,
and ``MAX_BASIS`` bounds the one taken.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .algebra import (
    MAX_BASIS,
    MAX_DEGREE,
    _S,
    Element,
    Generator,
    _bases,
    _degree,
    _divisor,
    _factor,
    _fields,
    _integral,
    _key,
    _series,
    _too_large,
    _used,
    basis_sizes,
)
from .errors import (
    InvalidInput,
    NotElliptic,
    NotPure,
    OddGeneratorPresent,
    VerificationFailed,
)
from .groebner import (
    GroebnerBasis,
    _nf,
    _primitive,
    _reduce,
    buchberger,
    member,
    quotient_dimension,
    quotient_is_finite_dimensional,
)
from .model import SullivanModel


def pure_projection_images(model: SullivanModel) -> list[Element]:
    """Even-part projections of the odd generators' differentials, in order.

    For a pure model this is just the list of differentials.  Zero images are
    kept so positions line up with ``model.odd_generators``.
    """
    odd = model.odd_generators
    return [model.differential.get(g, Element.zero()).substitute_zero(odd) for g in odd]


def differential_ideal_basis(model: SullivanModel) -> GroebnerBasis:
    """Groebner basis of the pure-projection differential ideal, cached."""
    if model._dy_basis is None:
        model._dy_basis = buchberger(pure_projection_images(model),
                                     model.even_generators)
    return model._dy_basis


def is_elliptic(model: SullivanModel) -> bool:
    """Whether the model has finite-dimensional cohomology.

    Decided on the pure projection: the quotient of the even subalgebra by
    the projected differentials must be finite-dimensional.
    """
    gb = differential_ideal_basis(model)
    return quotient_is_finite_dimensional(gb)


def is_elliptic_pure(model: SullivanModel) -> bool:
    """Ellipticity test restricted to pure models; raises NotPure otherwise."""
    if not model.is_pure():
        raise NotPure(f"model {model.name!r} is not pure")
    return is_elliptic(model)


def nilpotency_exponent(model: SullivanModel, generator) -> int:
    """Least N with the generator's N-th power inside the differential ideal.

    Defined for even generators of pure elliptic models.  Bounded by the
    dimension of the quotient ring, so the search always terminates.  It
    starts at b, the least power of the generator among the basis's leading
    monomials: every lower power is a standard monomial, so none lies in the
    ideal.  The basis never holds 1, as minimal images lie in (X)^2.

    The powers are walked by their normal forms, as in the multiplication
    step of FGLM (Faugere, Gianni, Lazard and Mora, 1993): x^b is reduced
    fully once, then each r is replaced by the primitive part of the full
    fraction-free normal form of x * r.  With S * x^n = R + (an element of
    the ideal), S a nonzero integer and R reduced, x^(n+1) is congruent to
    x * R / S, so x^(n+1) lies in the ideal exactly when NF(x * R) = 0.  A
    normal form over a reduced basis is unique, so every step is exact and
    N is the first n whose r is 0; dropping the content only keeps the
    integers small.
    """
    g = model.generator(generator)
    if not g.is_even:
        raise OddGeneratorPresent(f"generator {g.name} has odd degree")
    if not model.is_pure():
        raise NotPure(f"model {model.name!r} is not pure")
    gb = differential_ideal_basis(model)
    if not quotient_is_finite_dimensional(gb):
        raise NotElliptic(f"model {model.name!r} is not elliptic")
    cap = quotient_dimension(gb) + 1
    start = gb.pure_powers[gb.variables.index(g)]
    k = _key(g)
    seen: dict[int, int] = {}  # the basis is fixed: its divisor lookups are kept
    r = {start * k: 1}
    for n in range(start, cap + 1):
        r = _reduce(r, gb._basis, seen, True)[1]
        if not r:
            return n
        r = {m + k: c for m, c in _primitive(r)[1].items()}
    raise VerificationFailed(
        f"no power of {g.name} up to {cap} lies in the differential ideal")


@dataclass
class ExactnessCertificate:
    """Witness that a generator power is a coboundary.

    ``d(witness) = power`` where ``power`` is the generator raised to
    ``exponent``; checkable by anyone with the model.
    """

    generator: Generator
    exponent: int
    witness: Element
    power: Element

    def verify(self, model: SullivanModel) -> bool:
        """Whether d(witness) == power, decided in integers.

        With D the witness's common denominator and L that of the
        differential, it checks L * d(D * witness) == L * D * power: the same
        identity scaled by the nonzero integer L * D.
        """
        model._check_own(self.witness)
        den, witness = _integral(self.witness._t)
        scale, image = model._scaled_d(witness)
        return image == {m: scale * den * c for m, c in self.power._t.items()}

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.name,
            "exponent": self.exponent,
            "witness": self.witness.render(),
            "boundary": self.power.render(),
        }


def exactness_certificate(model: SullivanModel, generator) -> ExactnessCertificate:
    """Certificate that the least nilpotent power of a generator is exact.

    n is the ``nilpotency_exponent``, so x^n outside the differential ideal is
    an internal fault (VerificationFailed).  Membership cofactors c_y over the
    differential images are turned into the witness sum(c_y * y), built as
    one dict: every c_y is even, so each product is its packed terms shifted
    by y's key with Koszul sign +1, and distinct y share no key.  The identity
    is re-verified before returning.
    """
    g = model.generator(generator)
    n = nilpotency_exponent(model, g)
    gb = differential_ideal_basis(model)
    x = Element.from_generator(g)
    power = x**n
    ok, cofs = member(power, gb, cofactors=True)
    if not ok:
        raise VerificationFailed(f"{g.name}^{n} does not lie in the differential ideal")
    witness = Element._from_dict(
        {m + _key(y): v for c, y in zip(cofs, model.odd_generators) for m, v in c._t.items()},
        model._table)
    cert = ExactnessCertificate(g, n, witness, power)
    if not cert.verify(model):
        raise VerificationFailed(
            f"certificate for {g.name}^{n} failed the differential check")
    return cert


def all_nilpotency_exponents(model: SullivanModel) -> dict[str, int]:
    out = {}
    for g in model.even_generators:
        out[g.name] = nilpotency_exponent(model, g)
    return out


# -- exact elimination (for the cohomology ranks below) ----------------------

def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Echelon form of sparse integer rows of column->value maps, as {pivot: row}.

    Fraction-free (Bareiss, 1968): a row comes in with int entries (callers
    with rational rows clear their denominators first, ``algebra._integral``)
    and may be modified, and it is reduced in integers against the pivots
    found before it, r <- (a/g) * r - (c/g) * prow for a the pivot row's
    entry and c the row's at that column, g = gcd(a, c).  Only the pivot
    columns the row holds are visited, lowest first; a pivot row has no
    column below its pivot, so a step never brings back a column already
    cleared.  The row that no pivot column is left in is unique up to a
    factor, whatever the order of the steps.  It keeps its lowest remaining
    column as its pivot and is stored primitive, with a positive pivot: a
    nonzero multiple of the monic row that rational elimination gives.  The
    length of the result is the rank, and its pivot set is that of the
    reduced row echelon form: every vector of the span leads at one of these
    columns.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        todo = [k for k in r if k in pivots]
        heapify(todo)
        while todo:
            col = heappop(todo)
            c = r.get(col)
            if not c:
                continue
            prow = pivots[col]
            a = prow[col]
            g = gcd(a, c)
            if g != a:
                a //= g
                r = {k: a * v for k, v in r.items()}
            c //= g
            for k, v in prow.items():
                nv = r.get(k, 0) - c * v
                if nv:
                    if k not in r and k in pivots:
                        heappush(todo, k)
                    r[k] = nv
                else:
                    r.pop(k, None)
        if not r:
            continue
        col = min(r)
        g = gcd(*r.values())
        if r[col] < 0:
            g = -g
        if g != 1:
            r = {k: v // g for k, v in r.items()}
        pivots[col] = r
    return pivots


# -- cohomology ranks (exact, degreewise) -------------------------------------

#: the finite complex is taken when the oracle's basis count exceeds its size
#: this many times; below that, the level loop and the normal forms cost more
#: than the ranks they save (on the cohomology-oracle models, 12 and 16 gave
#: the same choices, 30 a slower round)
COMPLEX_ADVANTAGE = 16


def cohomology_dims(model: SullivanModel, up_to: int) -> list[int]:
    """Dimensions of the cohomology in degrees 0 through up_to, as a list.

    Works for any valid model (pure or not).  The top degree is checked
    against MAX_DEGREE before any work, and MAX_BASIS bounds the method that
    runs (below).  An inert generator g, closed and in no
    image, splits the dga as Lambda V' (x) Lambda(g), so by Kunneth
    (Felix-Halperin-Thomas, Rational Homotopy Theory) ranks are taken on
    Lambda V' alone and each g is folded back in by ``algebra._series``.

    Two methods rank Lambda V'.  The oracle (``_oracle_dims``) ranks d on
    every monomial through degree up_to + 1.  For a pure elliptic model of
    constant length l on n even generators, the structure theorem gives the
    finite complex A (x) Lambda Y' instead (``_complex_dims``): Z the F0 basis
    that ``extension._levels`` picks, A = Q[X]/(dZ) of dimension l^n, and Y'
    the r non-inert odd generators that no level kills.  Its size l^n * 2^r
    and the oracle's basis count are both known before any work; the complex
    is taken when the count exceeds ``COMPLEX_ADVANTAGE`` times the size
    (and ``is_elliptic`` holds, tested only then).  The size of the method
    taken must not exceed MAX_BASIS; a count over it on a model no complex
    can serve, not pure or not of constant length, is refused before any work.
    """
    if up_to < 0:
        return []
    if up_to + 1 > MAX_DEGREE:  # basis_sizes would build a list of up_to + 2 entries
        raise _too_large((up_to + 1) << _S)
    size = sum(basis_sizes(model.generators, up_to + 1))
    refusal = (f"cohomology through degree {up_to} needs {size} basis monomials, "
               f"over the limit of {MAX_BASIS}; lower --up-to")
    length = model.differential_length()
    shaped = model.is_pure() and length.is_constant  # the complex may serve it
    if size > MAX_BASIS and not shaped:
        raise InvalidInput(refusal)
    inert = _inert(model)
    n = len(model.even_generators)
    r = sum(g not in inert for g in model.odd_generators) - n
    elements = length.value ** n * 2 ** r if shaped else None
    cheaper = shaped and size > COMPLEX_ADVANTAGE * elements and is_elliptic(model)
    if (elements if cheaper else size) > MAX_BASIS:
        raise InvalidInput(f"the finite complex of {model.name!r} has {elements} elements, "
                           f"over the limit of {MAX_BASIS}" if cheaper else refusal)
    dims = (_complex_dims if cheaper else _oracle_dims)(model, inert, up_to)
    return _series(inert, dims, lambda n, g: n)  # times Q[g] or Lambda(g) for each inert g


def _inert(model: SullivanModel) -> list[Generator]:
    """The generators with no differential whose fields no image uses."""
    used = _used(m for img in model.differential.values() for m in img._t)
    return [g for g in model.generators
            if g not in model.differential and not _fields((g,)) & used]


def _oracle_dims(model: SullivanModel, inert: list[Generator], up_to: int) -> list[int]:
    """Dimensions of H(Lambda V') in degrees 0 through up_to, V' the
    generators outside ``inert``, by the ranks of d on every monomial.

    Those ranks are exact, in integers, on bases listed by one ``_bases``
    pass: each row is L * d of a basis monomial, which has the rank of d,
    and goes straight into ``_echelon``.  A monomial m splits as c * r, c its
    factor on the even generators with zero differential and r the rest.
    As c is even and d(c) = 0, L * d(m) = c * L * d(r) (Felix, Halperin and
    Thomas, section 32): ``model._scaled_d`` runs once per distinct r, at
    most 2^(odd generators) for a parsed model, and each row is that image
    with c added to its keys.
    """
    kept = [g for g in model.generators if g not in inert]
    bases = _bases(kept, up_to + 1)
    cycles = _fields(g for g in kept if g.is_even and g not in model.differential)
    image = cache(lambda r: model._scaled_d({r: 1})[1])  # r -> L * d(r)
    ranks = [0]  # ranks[k + 1]: the rank of d from degree k
    for k in range(up_to + 1):
        col = {m: i for i, m in enumerate(bases[k + 1])}
        rows = []
        for m in bases[k]:
            c = _factor(m, cycles)
            img = image(m - c)
            if img:
                rows.append({col[mm + c]: v for mm, v in img.items()})
        ranks.append(len(_echelon(rows)))
    return [len(bases[k]) - ranks[k + 1] - ranks[k] for k in range(up_to + 1)]


def _complex_dims(model: SullivanModel, inert: list[Generator], up_to: int) -> list[int]:
    """Dimensions of H(Lambda V') in degrees 0 through up_to for a pure
    elliptic model of constant length, from its F0 basis Z: the elements
    that ``extension._levels`` picks, with Y' the odd generators outside
    ``inert`` that no level kills (``_koszul_dims``)."""
    from .extension import _levels  # extension imports this module

    z: list[Element] = []
    killed: set[Generator] = set()
    for _, choice, killed in _levels(model):
        z += choice.elements
    rest = [g for g in model.odd_generators if g not in killed and g not in inert]
    return _koszul_dims(model, z, rest, up_to)


def _koszul_dims(model: SullivanModel, z: list[Element], rest: list[Generator],
                 up_to: int) -> list[int]:
    """Dimensions of H(A (x) Lambda Y', d) in degrees 0 through up_to, for
    A = Q[X]/(dZ) and Y' = ``rest``, where Z and Y' together are a basis of
    the odd generators that are not inert, and dZ is regular.

    Then Lambda V' = Lambda(X + Z) (x) Lambda Y' is a relative Sullivan
    algebra, Lambda(X + Z) -> A is a quasi-isomorphism (the Koszul complex of
    a regular sequence), and base change along it keeps the cohomology, as
    d(Y') lies in the base (Felix, Halperin and Thomas, *Rational Homotopy
    Theory*, section 14).  So the ranks are taken on the finite complex with
    d(a (x) y_S) = sum over the t-th factor y_j of S of
    (-1)^(t-1) [a * dy_j] (x) y_(S - j).

    One ``buchberger`` run on dZ must give a finite quotient of dimension
    l^n for l the model's constant length and n its even generators
    (Stanley's identity, which holds exactly when dZ is regular), else
    VerificationFailed.  A's standard monomials through degree up_to are
    listed by extending each one by the variables from its last on, as they
    form an order ideal.  Each [a * dy_j] is the remainder of one ``_nf``,
    kept per (a, j); a row is its terms over the lcm of their scales, and
    ``_echelon`` ranks each degree's rows.
    """
    evens = model.even_generators
    gb = buchberger([model.d(e) for e in z], evens)
    expected = model.differential_length().value ** len(evens)
    if not quotient_is_finite_dimensional(gb) or quotient_dimension(gb) != expected:
        raise VerificationFailed(
            f"the F0 basis of {model.name!r} does not give a quotient of dimension {expected}")
    keys, lead = [_key(x) for x in evens], range(len(gb._exps))
    standard, todo = [], [(0, 0)]
    while todo:
        a, i = todo.pop()
        standard.append(a)
        for j in range(i, len(keys)):
            b = a + keys[j]
            if _degree(b) <= up_to and _divisor(b, gb._exps, lead) is None:
                todo.append((b, j))
    ys = [(_key(y), y.degree, model.d_generator(y)._t) for y in rest]

    @cache
    def remainder(a: int, j: int) -> tuple[int, dict[int, int]]:  # (S, R) of a * dy_j
        den, rem, _ = _nf({a + m: c for m, c in ys[j][2].items()}, gb._basis, full=True)
        return den, rem
    counts = [0] * (up_to + 1)
    rows: list[list[dict[int, int]]] = [[] for _ in range(up_to + 1)]
    for size in range(len(ys) + 1):
        for s in itertools.combinations(range(len(ys)), size):
            s_key, s_degree = sum(ys[j][0] for j in s), sum(ys[j][1] for j in s)
            for a in standard:
                k = _degree(a) + s_degree
                if k > up_to:
                    continue
                counts[k] += 1
                terms = []
                for t, j in enumerate(s):
                    den, rem = remainder(a, j)
                    if rem:
                        terms.append((-den if t % 2 else den, rem, s_key - ys[j][0]))
                if terms:
                    scale = lcm(*(abs(den) for den, _, _ in terms))
                    rows[k].append({m + key: scale // den * v
                                    for den, rem, key in terms for m, v in rem.items()})
    ranks = [0] + [len(_echelon(r)) for r in rows]  # ranks[k + 1]: from degree k
    return [counts[k] - ranks[k + 1] - ranks[k] for k in range(up_to + 1)]
