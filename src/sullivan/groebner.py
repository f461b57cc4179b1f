"""Groebner bases for the even polynomial subalgebra, with exact arithmetic.

The monomial order is weighted-degree grevlex: monomials compare first by
total topological degree (each variable weighted by its generator degree),
ties broken reverse-lexicographically against the declared variable order.
Ideal quotients use the same machinery with one auxiliary elimination
indeterminate ordered above everything else.

Internally polynomials are dicts mapping exponent tuples to integers; the
Buchberger loop clears denominators and strips contents so coefficients stay
integral.  Each basis is computed once without provenance, and a small cache
of recent bases (keyed on the exact inputs, in caller order) serves repeated
requests for the same ideal.  Cofactors over the input generators, which turn
membership tests into certificates, are lifted on demand by one tracked rerun
on the same inputs, whose basis must equal the untracked one.
All computations are deterministic for a fixed input order.

A sequence of as many weighted-homogeneous elements as variables is regular
exactly when its quotient has dimension prod(deg f_i) / prod(w_j) (Stanley,
"Hilbert functions of graded algebras", 1978).  ``regular_sequence_failure``
decides that success case by counting standard monomials and computes
zero-divisor witnesses only when the identity does not hold.

Set ``CHECK = True`` (done by the test suite) to re-verify every division
identity by direct arithmetic.
"""
from __future__ import annotations

import itertools
from collections import OrderedDict
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, prod
from typing import Iterable, Sequence

from .algebra import Element, Generator, Monomial
from .errors import (
    ConstantTermPresent,
    InvalidInput,
    NotFiniteDimensional,
    OddGeneratorPresent,
    UnknownGenerator,
    VerificationFailed,
    ZeroElement,
)

#: re-verify cofactor identities on every call (slow; enabled in tests)
CHECK = False

#: how many recent bases ``buchberger`` keeps; one extension asks for the
#: same ideal about six times in a row, so a few entries catch the repeats
_CACHE_SIZE = 8
_CACHE: OrderedDict = OrderedDict()

Exps = tuple

# -- exponent tuple helpers -------------------------------------------------

def _add(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Exps, b: Exps) -> Exps:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


class MonomialOrder:
    """Weighted-degree grevlex, optionally with a leading elimination slot.

    ``key`` maps an exponent tuple to a sort key; larger keys are larger
    monomials.  With ``elim`` the first exponent belongs to the auxiliary
    indeterminate and dominates the comparison, making the order an
    elimination order for that slot.
    """

    def __init__(self, weights: Sequence[int], elim: bool = False):
        self.weights = tuple(weights)
        self.elim = elim

    def wdeg(self, e: Exps) -> int:
        return sum(w * a for w, a in zip(self.weights, e))

    def key(self, e: Exps):
        if self.elim:
            rest = e[1:]
            w = sum(w * a for w, a in zip(self.weights[1:], rest))
            return (e[0], w, tuple(-a for a in reversed(rest)))
        return (self.wdeg(e), tuple(-a for a in reversed(e)))


# -- element <-> exponent-dict conversion ------------------------------------

def element_to_poly(e: Element, variables: Sequence[Generator]) -> dict[Exps, Fraction]:
    pos = {g: i for i, g in enumerate(variables)}
    n = len(variables)
    out: dict[Exps, Fraction] = {}
    for mon, c in e.items():
        if mon.odd:
            raise OddGeneratorPresent(
                f"term {mon.render()} has odd factors; expected an even polynomial")
        exps = [0] * n
        for g, k in mon.even:
            i = pos.get(g)
            if i is None:
                raise UnknownGenerator(f"generator {g!r} is not among the polynomial variables")
            exps[i] = k
        out[tuple(exps)] = c
    return out


def poly_to_element(p: dict[Exps, Fraction], variables: Sequence[Generator]) -> Element:
    terms: dict[Monomial, Fraction] = {}
    for exps, c in p.items():
        mon = Monomial.make([(g, k) for g, k in zip(variables, exps) if k], ())
        terms[mon] = Fraction(c)
    return Element(terms)


# -- integer polynomial primitives -------------------------------------------

def _content(p: dict) -> int:
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
        if g == 1:
            break
    return g or 1


def _scale_rep(rep: list[dict], c) -> None:
    for r in rep:
        for k in r:
            r[k] *= c


def _rep_submul(rep: list[dict], other: list[dict], c, t: Exps) -> None:
    # rep -= c * x^t * other
    for r, o in zip(rep, other):
        for k, v in o.items():
            kk = _add(k, t)
            nv = r.get(kk, Fraction(0)) - c * v
            if nv:
                r[kk] = nv
            else:
                r.pop(kk, None)


class _Engine:
    """Buchberger with integer arithmetic and input-combination tracking."""

    def __init__(self, inputs: list[dict[Exps, Fraction]], order: MonomialOrder, track: bool):
        self.order = order
        self.track = track
        self.n_inputs = len(inputs)
        self.polys: list[dict[Exps, int]] = []
        self.lms: list[Exps] = []
        self.lcs: list[int] = []
        self.reps: list[list[dict[Exps, Fraction]]] = []
        unit = None
        for idx, f in enumerate(inputs):
            if not f:
                continue
            unit = tuple(0 for _ in next(iter(f)))
            den = 1
            for c in f.values():
                den = den * c.denominator // gcd(den, c.denominator)
            ints = {m: int(c * den) for m, c in f.items()}
            g0 = _content(ints)
            lm = max(ints, key=order.key)
            sgn = 1 if ints[lm] > 0 else -1
            q = Fraction(den, g0 * sgn)  # f_int = q * f
            ints = {m: c // (g0 * sgn) for m, c in ints.items()}
            rep = [dict() for _ in range(self.n_inputs)]
            rep[idx][unit if unit is not None else ()] = q
            self._append(ints, rep)

    def _append(self, p: dict[Exps, int], rep) -> int:
        lm = max(p, key=self.order.key)
        self.polys.append(p)
        self.lms.append(lm)
        self.lcs.append(p[lm])
        self.reps.append(rep if self.track else None)
        return len(self.polys) - 1

    def _reduce(self, p: dict[Exps, int], rep):
        """Full fraction-free reduction of p by the current basis.

        Returns a primitive remainder with positive leading coefficient and
        the correspondingly rescaled rep vector.
        """
        p = dict(p)
        out: dict[Exps, int] = {}
        order = self.order
        while p:
            m = max(p, key=order.key)
            hit = -1
            for k in range(len(self.polys)):
                if _divides(self.lms[k], m):
                    hit = k
                    break
            if hit < 0:
                out[m] = p.pop(m)
                continue
            c = p[m]
            lcg = self.lcs[hit]
            if lcg != 1:
                for d in (p, out):
                    for kk in d:
                        d[kk] *= lcg
                if rep is not None:
                    _scale_rep(rep, lcg)
            t = _sub(m, self.lms[hit])
            for mg, cg in self.polys[hit].items():
                kk = _add(mg, t)
                nv = p.get(kk, 0) - c * cg
                if nv:
                    p[kk] = nv
                else:
                    p.pop(kk, None)
            if rep is not None:
                self._rep_reduce_step(rep, hit, c, t)
        if not out:
            return {}, rep
        g0 = _content(out)
        lm = max(out, key=order.key)
        if out[lm] < 0:
            g0 = -g0
        if g0 != 1:
            out = {m: c // g0 for m, c in out.items()}
            if rep is not None:
                _scale_rep(rep, Fraction(1, g0))
        return out, rep

    def _rep_reduce_step(self, rep, hit: int, c: int, t: Exps) -> None:
        _rep_submul(rep, self.reps[hit], Fraction(c), t)

    def run(self) -> None:
        heap: list = []
        done: set[tuple[int, int]] = set()

        def push_pairs(t: int) -> None:
            for i in range(t):
                lcm_it = _lcm(self.lms[i], self.lms[t])
                heappush(heap, (self.order.key(lcm_it), i, t))

        for t in range(len(self.polys)):
            push_pairs(t)
        while heap:
            _, i, j = heappop(heap)
            if (i, j) in done:
                continue
            done.add((i, j))
            lmi, lmj = self.lms[i], self.lms[j]
            lcm_ij = _lcm(lmi, lmj)
            if lcm_ij == _add(lmi, lmj):
                continue  # disjoint leading monomials never yield new elements
            skip = False
            for k in range(len(self.polys)):
                if k == i or k == j:
                    continue
                if _divides(self.lms[k], lcm_ij):
                    a = (min(i, k), max(i, k))
                    b = (min(j, k), max(j, k))
                    if a in done and b in done:
                        skip = True
                        break
            if skip:
                continue
            ti, tj = _sub(lcm_ij, lmi), _sub(lcm_ij, lmj)
            ci, cj = self.lcs[i], self.lcs[j]
            s: dict[Exps, int] = {}
            for m, c in self.polys[i].items():
                s[_add(m, ti)] = cj * c
            for m, c in self.polys[j].items():
                kk = _add(m, tj)
                nv = s.get(kk, 0) - ci * c
                if nv:
                    s[kk] = nv
                else:
                    s.pop(kk, None)
            rep = None
            if self.track:
                rep = [dict() for _ in range(self.n_inputs)]
                _rep_submul(rep, self.reps[i], Fraction(-cj), ti)
                _rep_submul(rep, self.reps[j], Fraction(ci), tj)
            r, rep = self._reduce(s, rep)
            if r:
                t = self._append(r, rep)
                push_pairs(t)

    def reduced(self):
        """Minimal, tail-reduced, monic basis sorted by ascending leading monomial."""
        idxs = sorted(range(len(self.polys)), key=lambda i: self.order.key(self.lms[i]))
        kept: list[int] = []
        for i in idxs:
            if not any(_divides(self.lms[k], self.lms[i]) for k in kept):
                kept.append(i)
        out_polys: list[dict[Exps, Fraction]] = []
        out_lms: list[Exps] = []
        out_reps: list = []
        for i in kept:
            save = self.polys, self.lms, self.lcs, self.reps
            others = [k for k in kept if k != i]
            self.polys = [save[0][k] for k in others]
            self.lms = [save[1][k] for k in others]
            self.lcs = [save[2][k] for k in others]
            self.reps = [save[3][k] for k in others]
            rep = [dict(r) for r in save[3][i]] if self.track else None
            r, rep = self._reduce(save[0][i], rep)
            self.polys, self.lms, self.lcs, self.reps = save
            lm = max(r, key=self.order.key)
            lc = r[lm]
            out_polys.append({m: Fraction(c, lc) for m, c in r.items()})
            out_lms.append(lm)
            if self.track:
                _scale_rep(rep, Fraction(1, lc))
            out_reps.append(rep)
        return out_polys, out_lms, out_reps


class GroebnerBasis:
    """A reduced Groebner basis with provenance back to its input generators.

    The provenance (each basis element as a combination of the inputs) is
    computed on first use by ``member(..., cofactors=True)``.
    """

    def __init__(self, variables: Sequence[Generator], order: MonomialOrder,
                 inputs: Sequence[Element], polys, lms, input_polys):
        self.variables = tuple(variables)
        self.order = order
        self.inputs = list(inputs)
        self._polys = polys
        self._lms = lms
        self._input_polys = input_polys
        self._reps = None
        self.generators = [poly_to_element(p, self.variables) for p in polys]

    def _provenance(self) -> list:
        """Each basis element over the inputs, from one tracked rerun."""
        if self._reps is None:
            eng = _Engine(self._input_polys, self.order, track=True)
            eng.run()
            polys, lms, reps = eng.reduced()
            if polys != self._polys or lms != self._lms:
                raise VerificationFailed("tracked rerun changed the reduced basis")
            self._reps = reps
        return self._reps

    @property
    def contains_one(self) -> bool:
        return any(all(a == 0 for a in lm) for lm in self._lms)

    def __len__(self):
        return len(self._polys)

    def __repr__(self):
        gens = "; ".join(g.render() for g in self.generators)
        return f"GroebnerBasis[{gens}]"


def buchberger(elements: Sequence[Element], variables: Sequence[Generator],
               order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by even polynomials.

    Deterministic for a fixed input order: S-pairs are processed by ascending
    weighted degree of the pair's lcm (ties by creation order) and useless
    pairs are dropped by the product and chain criteria.  A repeated request
    with equal variables, order and inputs (in the same order) returns the
    same basis object from a small cache of recent results.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise InvalidInput("polynomial variables must be distinct")
    for g in variables:
        if not g.is_even:
            raise OddGeneratorPresent(f"variable {g!r} has odd degree")
    if order is None:
        order = MonomialOrder(tuple(g.degree for g in variables))
    key = (variables, order.weights, order.elim, tuple(elements))
    gb = _CACHE.get(key)
    if gb is not None:
        _CACHE.move_to_end(key)
        return gb
    inputs = [element_to_poly(e, variables) for e in elements]
    eng = _Engine(inputs, order, track=False)
    eng.run()
    polys, lms, _ = eng.reduced()
    gb = GroebnerBasis(variables, order, list(elements), polys, lms, inputs)
    _CACHE[key] = gb
    if len(_CACHE) > _CACHE_SIZE:
        _CACHE.popitem(last=False)
    return gb


def normal_form(f: Element, gb: GroebnerBasis) -> tuple[Element, list[Element]]:
    """Remainder and cofactors of division by the reduced basis.

    ``f = sum(cofactor_k * generators_k) + remainder`` holds exactly, no
    remainder term is divisible by a basis leading monomial, and the result
    is deterministic (basis elements are tried in ascending order).
    """
    p = element_to_poly(f, gb.variables)
    rem, cofs = _nf(p, gb)
    rem_el = poly_to_element(rem, gb.variables)
    cof_els = [poly_to_element(c, gb.variables) for c in cofs]
    if CHECK:
        acc = Element.zero()
        for c, g in zip(cof_els, gb.generators):
            acc = acc + c * g
        if acc + rem_el != f:
            raise VerificationFailed("normal form cofactor identity failed")
    return rem_el, cof_els


def _nf(p: dict[Exps, Fraction], gb: GroebnerBasis):
    p = dict(p)
    rem: dict[Exps, Fraction] = {}
    cofs: list[dict[Exps, Fraction]] = [dict() for _ in gb._polys]
    order = gb.order
    while p:
        m = max(p, key=order.key)
        c = p.pop(m)
        for k, lmk in enumerate(gb._lms):
            if _divides(lmk, m):
                t = _sub(m, lmk)
                cofs[k][t] = cofs[k].get(t, Fraction(0)) + c
                for mg, cg in gb._polys[k].items():
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


def member(f: Element, gb: GroebnerBasis, cofactors: bool = False):
    """Ideal membership; optionally with cofactors over the original inputs."""
    p = element_to_poly(f, gb.variables)
    rem, cofs = _nf(p, gb)
    ok = not rem
    if not cofactors:
        return ok
    if not ok:
        return False, None
    out: list[dict[Exps, Fraction]] = [dict() for _ in gb.inputs]
    reps = gb._provenance()
    for k, cof in enumerate(cofs):
        if not cof:
            continue
        rep = reps[k]
        for i, r in enumerate(rep):
            if not r:
                continue
            dst = out[i]
            for m1, c1 in cof.items():
                for m2, c2 in r.items():
                    kk = _add(m1, m2)
                    nv = dst.get(kk, Fraction(0)) + c1 * c2
                    if nv:
                        dst[kk] = nv
                    else:
                        dst.pop(kk, None)
    cof_els = [poly_to_element(c, gb.variables) for c in out]
    if CHECK:
        acc = Element.zero()
        for c, g in zip(cof_els, gb.inputs):
            acc = acc + c * g
        if acc != f:
            raise VerificationFailed("membership cofactor identity failed")
    return True, cof_els


def ideal_quotient(gb: GroebnerBasis, a: Element) -> GroebnerBasis:
    """The ideal quotient (I : a), via one auxiliary elimination indeterminate.

    Computes I intersect (a) by eliminating t from t*I + (1-t)*(a), then
    divides the intersection generators exactly by a.
    """
    if not a:
        raise ZeroElement("ideal quotient by the zero element")
    pa = element_to_poly(a, gb.variables)
    n = len(gb.variables)
    elim_order = MonomialOrder((1,) + tuple(g.degree for g in gb.variables), elim=True)
    inputs: list[dict[Exps, Fraction]] = []
    for p in gb._polys:
        inputs.append({(1,) + m: c for m, c in p.items()})
    both = {(0,) + m: c for m, c in pa.items()}
    for m, c in pa.items():
        both[(1,) + m] = -c
    inputs.append(both)
    eng = _Engine(inputs, elim_order, track=False)
    eng.run()
    polys, lms, _ = eng.reduced()
    intersection: list[Element] = []
    for p, lm in zip(polys, lms):
        if lm[0] == 0:
            if any(m[0] for m in p):
                raise VerificationFailed("elimination produced a mixed polynomial")
            intersection.append(poly_to_element({m[1:]: c for m, c in p.items()}, gb.variables))
    gb_a = buchberger([a], gb.variables, gb.order)
    lc_a = element_to_poly(a, gb.variables)
    lc = lc_a[max(lc_a, key=gb.order.key)]
    quotient_gens: list[Element] = []
    for q in intersection:
        rem, cofs = normal_form(q, gb_a)
        if rem:
            raise VerificationFailed("intersection generator not divisible by the quotient element")
        quotient_gens.append(cofs[0] * (Fraction(1) / lc))
    return buchberger(quotient_gens, gb.variables, gb.order)


def zero_divisor_witness(a: Element, gb: GroebnerBasis) -> Element | None:
    """A witness f with f*a in the ideal but f outside it, or None.

    The zero element is a zero divisor exactly when the quotient ring is
    nonzero (witness 1); an element already in the ideal gets witness 1 too.
    """
    if not a:
        return None if gb.contains_one else Element.one()
    if member(a, gb):
        return None if gb.contains_one else Element.one()
    q = ideal_quotient(gb, a)
    for g in q.generators:
        if not member(g, gb):
            if CHECK and member(g * a, gb) is not True:
                raise VerificationFailed("zero divisor witness does not multiply into the ideal")
            return g
    return None


def is_zero_divisor(a: Element, gb: GroebnerBasis) -> bool:
    """True iff a is in the ideal or (I : a) strictly contains I."""
    return zero_divisor_witness(a, gb) is not None


def regular_sequence_failure(seq: Sequence[Element], variables: Sequence[Generator]):
    """First failure of the regular-sequence property, as (1-based index, witness).

    Returns None when the sequence is regular.  Every element must lie in the
    augmentation ideal (no constant term).  Success is decided by the Hilbert
    identity when it applies; otherwise, and for every failure, each prefix
    is tested for a zero divisor in turn.
    """
    polys = []
    unit = tuple(0 for _ in variables)
    for a in seq:
        p = element_to_poly(a, variables)
        if p.get(unit):
            raise ConstantTermPresent(
                f"sequence element {a.render()} has a constant term")
        polys.append(p)
    if _hilbert_identity_holds(seq, polys, variables):
        return None
    gb = buchberger([], variables)
    for i, a in enumerate(seq):
        w = zero_divisor_witness(a, gb)
        if w is not None:
            return i + 1, w
        gb = buchberger(list(seq[: i + 1]), variables)
    return None


def _hilbert_identity_holds(seq: Sequence[Element], polys: list[dict],
                            variables: Sequence[Generator]) -> bool:
    """Whether n nonzero weighted-homogeneous elements in n variables have a
    finite-dimensional quotient of dimension prod(deg f_i) / prod(w_j), which
    holds exactly when they form a regular sequence."""
    weights = tuple(g.degree for g in variables)
    if len(polys) != len(weights) or not all(polys):
        return False
    degrees = []
    for p in polys:
        ds = {sum(w * a for w, a in zip(weights, e)) for e in p}
        if len(ds) != 1:
            return False
        degrees.append(ds.pop())
    gb = buchberger(list(seq), variables)
    if not quotient_is_finite_dimensional(gb):
        return False
    return quotient_dimension(gb) * prod(weights) == prod(degrees)


def is_regular_sequence(seq: Sequence[Element], variables: Sequence[Generator]):
    """(True, None) for a regular sequence, else (False, first failing 1-based index)."""
    fail = regular_sequence_failure(seq, variables)
    if fail is None:
        return True, None
    return False, fail[0]


def quotient_is_finite_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading monomials."""
    n = len(gb.variables)
    if n == 0 or gb.contains_one:
        return True
    for v in range(n):
        if not any(lm[v] > 0 and all(lm[u] == 0 for u in range(n) if u != v)
                   for lm in gb._lms):
            return False
    return True


def quotient_dimension(gb: GroebnerBasis) -> int:
    """Number of standard monomials of a finite-dimensional quotient."""
    if not quotient_is_finite_dimensional(gb):
        raise NotFiniteDimensional("quotient ring is not finite-dimensional")
    if gb.contains_one:
        return 0
    n = len(gb.variables)
    if n == 0:
        return 1
    bounds = []
    for v in range(n):
        powers = [lm[v] for lm in gb._lms
                  if lm[v] > 0 and all(lm[u] == 0 for u in range(n) if u != v)]
        bounds.append(min(powers))
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(lm, exps) for lm in gb._lms):
            count += 1
    return count
