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
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable

from .algebra import (
    MAX_BASIS,
    MAX_DEGREE,
    _S,
    Element,
    Generator,
    _bases,
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
    NotExact,
    NotPure,
    OddGeneratorPresent,
    VerificationFailed,
)
from .groebner import (
    GroebnerBasis,
    _nf,
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
    monomials (1 when the basis holds 1): every lower power is a standard
    monomial, so none lies in the ideal.  Each power is tested as its packed
    term, by the first remainder term of its division by the basis.
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
    start = 1 if gb.contains_one else gb.pure_powers[gb.variables.index(g)]
    k = _key(g)
    for n in range(start, cap + 1):
        if not _nf({n * k: 1}, gb._basis, full=False)[1]:
            return n
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


def exactness_certificate(model: SullivanModel, generator,
                          exponent: int | None = None) -> ExactnessCertificate:
    """Certificate that the least nilpotent power of a generator is exact.

    Membership cofactors c_y over the differential images are turned into
    the witness sum(c_y * y), built as one dict: every c_y is even, so each
    product is its packed terms shifted by y's key with Koszul sign +1, and
    distinct y share no key.  The identity is re-verified before returning.
    """
    g = model.generator(generator)
    n = nilpotency_exponent(model, g) if exponent is None else exponent
    gb = differential_ideal_basis(model)
    x = Element.from_generator(g)
    power = x**n
    ok, cofs = member(power, gb, cofactors=True)
    if not ok:
        raise NotExact(
            f"{g.name}^{n} does not lie in the differential ideal")
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

def cohomology_dims(model: SullivanModel, up_to: int) -> list[int]:
    """Dimensions of the cohomology in degrees 0 through up_to, as a list.

    Works for any valid model (pure or not).  The top degree is checked
    against MAX_DEGREE and the basis monomials on every generator against
    MAX_BASIS before any work.  An inert generator g, closed and in no
    image, splits the dga as Lambda V' (x) Lambda(g), so by Kunneth
    (Felix-Halperin-Thomas, Rational Homotopy Theory) ranks are taken on
    Lambda V' alone and each g is folded back in by ``algebra._series``.
    Those ranks are exact, in integers, on bases listed by one ``_bases``
    pass: each row is L * d of a basis monomial, which has the rank of d,
    and goes straight into ``_echelon``.  A monomial m splits as c * r, c its
    factor on the even generators with zero differential and r the rest.
    As c is even and d(c) = 0, L * d(m) = c * L * d(r) (ibid., section 32):
    ``model._scaled_d`` runs once per distinct r, at most 2^(odd generators)
    for a parsed model, and each row is that image with c added to its keys.
    """
    if up_to < 0:
        return []
    if up_to + 1 > MAX_DEGREE:  # basis_sizes would build a list of up_to + 2 entries
        raise _too_large((up_to + 1) << _S)
    size = sum(basis_sizes(model.generators, up_to + 1))
    if size > MAX_BASIS:
        raise InvalidInput(
            f"cohomology through degree {up_to} needs {size} basis monomials, "
            f"over the limit of {MAX_BASIS}; lower --up-to")
    used = _used(m for img in model.differential.values() for m in img._t)
    inert = [g for g in model.generators
             if g not in model.differential and not _fields((g,)) & used]
    kept = [g for g in model.generators if g not in inert]
    bases = _bases(kept, up_to + 1)
    cycles = _fields(g for g in kept if g.is_even and g not in model.differential)
    images: dict[int, dict[int, int]] = {}  # r -> L * d(r)
    ranks = [0]  # ranks[k + 1]: the rank of d from degree k
    for k in range(up_to + 1):
        col = {m: i for i, m in enumerate(bases[k + 1])}
        rows = []
        for m in bases[k]:
            c = _factor(m, cycles)
            r = m - c
            img = images.get(r)
            if img is None:
                img = images[r] = model._scaled_d({r: 1})[1]
            if img:
                rows.append({col[mm + c]: v for mm, v in img.items()})
        ranks.append(len(_echelon(rows)))
    dims = [len(bases[k]) - ranks[k + 1] - ranks[k] for k in range(up_to + 1)]
    return _series(inert, dims, lambda n, g: n)  # times Q[g] or Lambda(g) for each inert g
