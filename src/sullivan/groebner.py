"""Groebner bases for the even polynomial subalgebra, with exact arithmetic.

The monomial order is weighted-degree grevlex: monomials compare first by
total topological degree (each variable weighted by its generator degree),
ties broken reverse-lexicographically against the variable positions.  It is
the order of the packed monomial ints of ``algebra``, so polynomials here are
dicts keyed by the same ints as ``Element`` terms, comparing monomials is
comparing ints, and multiplying them is adding.  Ideal quotients use one
auxiliary elimination indeterminate, one more field above the degree, which
dominates the order, and divide the intersection by a exactly.

A reduction step divides by the lowest-index element whose leading monomial
divides the current leading monomial; ``algebra._divisor`` is the one
divisibility test, on the packed exponent fields.  Within one run the basis
only grows, so every lookup is kept per monomial: the element found, which
stays the lowest, or how far the scan got, so that the next lookup of that
monomial scans only the elements appended since.  A reduced basis's tails
are reduced the same way over its kept elements, and the chain criterion
scans the elements outside its pair once, resuming after each divisor.
The tails are reduced only when a basis's polynomials are first read: the
minimal basis's leading monomials, known when the run ends, already answer
finiteness, the Krull dimension and the quotient's dimension, as
dim Q[x]/I = dim Q[x]/in(I), so a basis asked only those is never
tail-reduced.

A basis is kept as primitive integer polynomials g_k with positive leading
coefficients (the monic ``generators`` are derived from them on first use).
Each basis is computed once, and an ``lru_cache`` of the eight most recently
used bases (keyed on the exact inputs, in caller order) serves repeated
requests for the same ideal.
Cofactors over the input generators f_i, which turn membership tests into
certificates, are lifted on demand: the run records how it built each
element (its S-pair or input, each reduction step, its content), and the
first request reads that record back (Traverso, "Groebner trace algorithms",
1988), so no polynomial arithmetic runs twice.  ``_fold`` turns a record's
steps into cofactors C_k over earlier elements; ``_lift`` multiplies them
out once over those elements' combinations of the inputs, over the lcm of
their denominators.  The path stays in integers, fraction-free (Bareiss,
1968): each g_k is kept as sum(R_i * f_i) / D for one integer D, and division
finds S * f = sum(C_k * g_k) + R for one integer scale S.  Each leading
monomial of a reduction step and each lifted combination is checked against
the layout's MAX_DEGREE before it is multiplied further.  All computations
are deterministic for a fixed input order.

Regularity is decided in one place, ``regular_sequence_failure``, by one
predicate, ``_regular``: Q[x] is Cohen-Macaulay, so weighted-homogeneous
f_1..f_r are regular exactly when dim Q[x]/(f) = n - r (Matsumura,
*Commutative Ring Theory*, 17.4), the Krull dimension read off the leading
monomials.  A sequence that fails it is walked prefix by prefix to the
first whose dimension does not drop, and a zero-divisor witness confirms
that index: two methods agree on every homogeneous failure.  Sequences with
an element that mixes degrees take the zero-divisor test at every prefix.

No identity is re-verified here: the certificates built on lifted cofactors
are re-checked by ``ellipticity.ExactnessCertificate.verify``.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .algebra import (
    _ELIM,
    _LOW,
    Element,
    Generator,
    _check,
    _divisor,
    _exponents,
    _fields,
    _integral,
    _lcm,
    _powers,
    _quotient,
    _submul,
    _used,
)
from .errors import (
    ConstantTermPresent,
    InvalidInput,
    NotFiniteDimensional,
    OddGeneratorPresent,
    UnknownGenerator,
    VerificationFailed,
    ZeroElement,
)

#: a basis's order, for reports: variable weights, elimination (never)
_Order = namedtuple("_Order", "weights elim")


def _terms(e: Element, variables: Sequence[Generator]) -> dict:
    """e's terms, once they are checked to use the variables alone: the
    fields the terms occupy, found in one pass, hold no odd factor, and each
    belongs to a variable that e's table holds at its position."""
    used = _used(e._t)
    if used & _LOW:
        raise OddGeneratorPresent(
            f"{e.render()} has odd factors; expected an even polynomial")
    table = e._g
    if used & ~_fields(g for g in variables if table.get(g.index) == g):
        foreign = e.generators_used().difference(variables)
        raise UnknownGenerator(f"generator {min(foreign)!r} is not among the polynomial variables")
    return e._t


# -- integer polynomial primitives -------------------------------------------

def _content(coeffs: Iterable[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g or 1


def _primitive(p: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(g0, p / g0) for g0 the content of p, signed to make the leading coefficient positive."""
    g0 = _content(p.values())
    if p[max(p)] < 0:
        g0 = -g0
    return g0, p if g0 == 1 else {m: c // g0 for m, c in p.items()}


def _fold(steps, cofs: dict) -> dict:
    """cofs {k: C_k} after the recorded steps (k, t, a, c): each scales every
    C_k by a and adds c * x^t to C_k, as p becomes a * p - c * x^t * g_k."""
    for k, t, a, c in steps:
        if a != 1:
            for q in cofs.values():
                for m in q:
                    q[m] *= a
        q = cofs.setdefault(k, {})
        q[t] = q.get(t, 0) + c
    return cofs


# A rep [D, [R_0, ..., R_{n-1}]] stands for sum(R_i * f_i) / D over the
# engine's inputs f_i, with integer polynomials R_i and an integer D > 0.

def _lift(cofs: dict, reps, n: int, g0: int) -> list:
    """The rep of -sum(C_k * reps[k]) / g0 over the lcm of the reps' D; gcd(g0,
    content) cancels from the R_i and the rest, signed as g0, goes to D."""
    common = lcm(*[reps[k][0] for k in cofs])
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for k, q in cofs.items():
        d, nums = reps[k]
        scale = common // d
        for t, c in q.items():
            c *= scale
            for dst, r in zip(out, nums):
                if r:
                    _submul(dst, r, c, t)
    for r in filter(None, out):
        _check(max(r))
    h = gcd(g0, _content(c for r in out for c in r.values())) if g0 != 1 else 1
    if g0 < 0:
        h = -h
    if h != 1:
        for r in out:
            for m in r:
                r[m] //= h
    return [common * (g0 // h), out]


def _reduce(p: dict[int, int], basis, seen: dict[int, int], full: bool):
    """Fraction-free reduction of p (consumed) by the primitive integer
    polynomials g_k of ``basis`` = (polys, lms, exps, lcs).

    Each step (k, t, a, c) replaces p by a * p - c * x^t * g_k, for k the
    lowest index whose leading monomial divides p's.  ``seen`` keeps each
    lookup, per monomial: that k, or ~n when none of the first n elements
    divides it.  The basis only grows while ``seen`` lives, so a found k stays
    the lowest and a miss is scanned again from n only.  Returns (S, R, steps)
    for S the product of the a and R the remainder, no term of which is
    divisible by a leading monomial; without ``full``, R stops at its first
    term, which already decides membership.
    """
    polys, lms, exps, lcs = basis
    n = len(polys)
    s, rem, steps = 1, {}, []
    while p:  # in the graded order no step raises the leading degree
        m = max(p)
        _check(m)
        k = seen.get(m, -1)
        if k < 0:
            k = _divisor(m, exps, range(~k, n))
            if k is None:
                seen[m] = ~n
                rem[m] = p.pop(m)
                if not full:
                    break
                continue
            seen[m] = k
        lc, c = lcs[k], p[m]
        h = gcd(c, lc)
        a, c = lc // h, c // h
        if a != 1:
            s *= a
            for q in (p, rem):
                for key in q:
                    q[key] *= a
        t = m - lms[k]
        for key, v in polys[k].items():  # p -= c * x^t * g_k, inline: faster than _submul
            key += t
            v = p.get(key, 0) - c * v
            if v:
                p[key] = v
            else:
                del p[key]
        steps.append((k, t, a, c))
    return s, rem, steps


class _Engine:
    """Buchberger with integer arithmetic, recording how it built each element.

    Element k's origin (steps, g0) gives its rep: ``_lift`` of the steps'
    ``_fold`` from no cofactors, where step index ~i stands for input i.
    """

    def __init__(self, inputs: list[dict[int, Fraction | int]]):
        self.polys: list[dict[int, int]] = []
        self.lms: list[int] = []
        self.exps: list[int] = []  # of the leading monomials
        self.lcs: list[int] = []
        self.basis = (self.polys, self.lms, self.exps, self.lcs)
        self.origins: list = []
        for idx, f in enumerate(inputs):
            if f:
                den, ints = _integral(f)  # ints = den * f
                self._append(ints, [(~idx, 0, 1, -den)])

    def _append(self, p: dict[int, int], steps: list) -> int:
        g0, p = _primitive(p)
        lm = max(p)
        self.polys.append(p)
        self.lms.append(lm)
        self.exps.append(_exponents(lm))
        self.lcs.append(p[lm])
        self.origins.append((steps, g0))
        return len(self.polys) - 1

    def run(self) -> None:
        heap: list = []
        done: set[tuple[int, int]] = set()
        polys, lms, _, lcs = self.basis
        seen: dict[int, int] = {}

        def push_pairs(t: int) -> None:
            for i in range(t):
                heappush(heap, (_lcm(lms[i], lms[t]), i, t))

        for t in range(len(polys)):
            push_pairs(t)
        while heap:
            lcm_ij, i, j = heappop(heap)
            done.add((i, j))
            lmi, lmj = lms[i], lms[j]
            if lcm_ij == lmi + lmj:
                continue  # disjoint leading monomials never yield new elements
            if self._chain(lcm_ij, i, j, done):
                continue
            ti, tj = lcm_ij - lmi, lcm_ij - lmj
            h = gcd(lcs[i], lcs[j])
            ci, cj = lcs[i] // h, lcs[j] // h
            s: dict[int, int] = {}
            _submul(s, polys[i], -cj, ti)
            _submul(s, polys[j], ci, tj)
            _, r, steps = _reduce(s, self.basis, seen, True)
            if r:
                push_pairs(self._append(r, [(i, ti, 1, -cj), (j, tj, 1, ci)] + steps))

    def _chain(self, m: int, i: int, j: int, done: set) -> bool:
        """Buchberger's chain criterion for the pair (i, j) with lcm m: some
        third element's leading monomial divides m and both its pairs with i
        and j are done."""
        others = itertools.chain(range(i), range(i + 1, j), range(j + 1, len(self.exps)))
        while (k := _divisor(m, self.exps, others)) is not None:  # resumes after k
            if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                return True
        return False

    def minimal(self) -> list[int]:
        """The minimal basis's engine indices, by ascending leading monomial:
        the elements whose leading monomial no kept one before them divides."""
        lms = self.lms
        kept: list[int] = []
        for i in sorted(range(len(self.polys)), key=lms.__getitem__):
            if _divisor(lms[i], self.exps, kept) is None:
                kept.append(i)
        return kept

    def reduced(self):
        """Minimal, tail-reduced basis sorted by ascending leading monomial.

        Returns its elements, each primitive with a positive leading
        coefficient, and per element its record (engine index, tail steps, g0).
        A tail is reduced by the kept elements of ``minimal`` in that order:
        none of them divides another's leading monomial, and an element's own
        leading monomial divides no term of its tail.
        """
        lms = self.lms
        kept = self.minimal()
        basis = tuple([part[i] for i in kept] for part in self.basis)
        seen: dict[int, int] = {}
        polys, records = [], []
        for i in kept:
            tail = dict(self.polys[i])
            lc = tail.pop(lms[i])
            s, r, steps = _reduce(tail, basis, seen, True)
            g0, r = _primitive({lms[i]: lc * s, **r})
            polys.append(r)
            records.append((i, [(kept[k], t, a, c) for k, t, a, c in steps], g0))
        return polys, records


class GroebnerBasis:
    """A reduced Groebner basis with provenance back to its input generators.

    The leading monomials are the minimal basis's, known once the run ends;
    they alone answer ``contains_one``, the pure powers, the Krull dimension
    and the count of standard monomials (dim Q[x]/I = dim Q[x]/in(I)).  The
    run's engine tail-reduces the polynomials on first read (``_basis``,
    which ``generators``, ``member``, ``normal_form`` and ``ideal_quotient``
    read) and is dropped then.  The provenance (each basis element as a
    combination of the inputs) is folded and lifted from the record of the
    run and of that reduction on first use by ``member(..., cofactors=True)``,
    so it lives exactly as long as the basis.  So do the leading monomials as
    exponent tuples, decoded once, and the pure powers and the count of
    standard monomials read from them: each of these is a ``cached_property``.
    """

    def __init__(self, variables: Sequence[Generator], inputs: Sequence[Element], engine):
        self.variables = tuple(variables)
        self.order = _Order(tuple(g.degree for g in self.variables), False)
        self.inputs = list(inputs)
        self._table = {g.index: g for g in self.variables}
        kept = engine.minimal()
        self._lms = [engine.lms[i] for i in kept]
        self._exps = [engine.exps[i] for i in kept]
        self._engine = engine  # until the tail reduction

    @cached_property
    def _basis(self):
        """(polys, lms, exps, lcs) of the reduced basis, the polynomials
        primitive integer with positive leading coefficients: the engine
        tail-reduces on first read, and its origins and the kept elements'
        records stay as ``_trace`` for the provenance."""
        polys, records = self._engine.reduced()
        self._trace, self._engine = (self._engine.origins, records), None
        return polys, self._lms, self._exps, [p[lm] for p, lm in zip(polys, self._lms)]

    @property
    def _polys(self) -> list[dict[int, int]]:
        return self._basis[0]

    @property
    def _lcs(self) -> list[int]:
        return self._basis[3]

    @cached_property
    def generators(self) -> list[Element]:
        """The basis elements, monic, built on first use."""
        return [Element._from_dict({m: _quotient(c, lc) for m, c in p.items()}, self._table)
                for p, lc in zip(self._polys, self._lcs)]

    @cached_property
    def _provenance(self) -> list:
        """Each basis element over the inputs, lifted in the run's order: a
        kept element's tail record folds from cofactor -1 at its engine element."""
        self._basis  # the tail reduction keeps the kept elements' records
        origins, records = self._trace
        n = len(self.inputs)
        built = {~i: [1, [{0: 1} if j == i else {} for j in range(n)]] for i in range(n)}
        for k, (steps, g0) in enumerate(origins):
            built[k] = _lift(_fold(steps, {}), built, n, g0)
        # an empty tail with g0 = 1 would lift to a copy of the engine element's rep
        reps = [built[i] if not steps and g0 == 1 else
                _lift(_fold(steps, {i: {0: -1}}), built, n, g0) for i, steps, g0 in records]
        self._trace = None  # kept until the lift succeeds, so a failed one raises again
        return reps

    @property
    def contains_one(self) -> bool:
        return 0 in self._lms

    @cached_property
    def _leading(self) -> list[tuple[int, ...]]:
        """The leading monomials as exponent tuples over the variables, decoded once."""
        decoded = (dict(_powers(lm, self._table)) for lm in self._lms)
        return [tuple(e.get(g, 0) for g in self.variables) for e in decoded]

    @cached_property
    def pure_powers(self) -> list:
        """Per variable, its power among the leading monomials, or None."""
        powers = [None] * len(self.variables)
        for e in self._leading:
            for j, x in enumerate(e):
                if x and x == sum(e):
                    powers[j] = x
        return powers

    @cached_property
    def _standard_count(self) -> int:
        return _count(self._leading, len(self.variables))

    def __repr__(self):
        gens = "; ".join(g.render() for g in self.generators)
        return f"GroebnerBasis[{gens}]"


def buchberger(elements: Sequence[Element], variables: Sequence[Generator]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by even polynomials.

    The variables are even generators in ascending position.  Deterministic
    for a fixed input order: S-pairs are processed by ascending lcm (ties by
    creation order) and useless pairs are dropped by the product and chain
    criteria.  The basis keeps the minimal basis's leading monomials and
    tail-reduces its polynomials on first read (``GroebnerBasis._basis``).
    A repeated request with equal variables and inputs (in the same order)
    returns the same basis object from ``_basis_of``'s cache of recent results.
    """
    variables = tuple(variables)
    if any(a.index >= b.index for a, b in zip(variables, variables[1:])):
        raise InvalidInput("polynomial variables must be distinct, in ascending position")
    for g in variables:
        if not g.is_even:
            raise OddGeneratorPresent(f"variable {g!r} has odd degree")
    return _basis_of(variables, tuple(elements))


#: one extension asks for the same ideal about six times in a row, so the
#: eight most recently used bases catch the repeats
@lru_cache(maxsize=8)
def _basis_of(variables: tuple[Generator, ...], elements: tuple[Element, ...]) -> GroebnerBasis:
    eng = _Engine([_terms(e, variables) for e in elements])
    eng.run()
    return GroebnerBasis(variables, elements, eng)


def normal_form(f: Element, gb: GroebnerBasis) -> tuple[Element, list[Element]]:
    """Remainder and cofactors of division by the reduced basis.

    ``f = sum(cofactor_k * generators_k) + remainder`` holds exactly, no
    remainder term is divisible by a basis leading monomial, and the result
    is deterministic (basis elements are tried in ascending order).
    """
    s, rem, steps = _nf(_terms(f, gb.variables), gb._basis, full=True)
    cofs = _fold(steps, {})
    rem_el = Element._from_dict({m: _quotient(c, s) for m, c in rem.items()}, gb._table)
    cof_els = [Element._from_dict({m: _quotient(c * lc, s) for m, c in cofs.get(k, {}).items()},
                                  gb._table) for k, lc in enumerate(gb._lcs)]
    return rem_el, cof_els


def _nf(f: dict[int, Fraction | int], basis, full: bool):
    """Fraction-free division of f by the integer polynomials g_k of
    ``basis`` = (polys, lms, exps, lcs), a Groebner basis's or one polynomial's.

    Returns (S, R, steps): S > 0 and the integer polynomial R satisfy
    S * f = sum(C_k * g_k) + R for the C_k that ``_fold`` reads from the
    steps, and R has no term divisible by a leading monomial.  Without
    ``full``, R stops at its first term, which already decides membership.
    """
    den, p = _integral(f)
    s, rem, steps = _reduce(p, basis, {}, full)
    return s * den, rem, steps


def member(f: Element, gb: GroebnerBasis, cofactors: bool = False):
    """Ideal membership; optionally with cofactors over the original inputs."""
    s, rem, steps = _nf(_terms(f, gb.variables), gb._basis, full=cofactors)
    ok = not rem
    if not cofactors:
        return ok
    if not ok:
        return False, None
    # f = sum(C_k * g_k) / S = -sum(C_k * g_k) / -S over the basis's reps
    den, out = _lift(_fold(steps, {}), gb._provenance, len(gb.inputs), -s)
    cof_els = [Element._from_dict({m: _quotient(v, den) for m, v in c.items()}, gb._table)
               for c in out]
    return True, cof_els


def ideal_quotient(gb: GroebnerBasis, a: Element) -> GroebnerBasis:
    """The ideal quotient (I : a), via one auxiliary elimination indeterminate.

    Computes I intersect (a) by eliminating t from t*I + (1-t)*(a), then
    divides each intersection generator p exactly by a, in integers: with
    D * a = pa, division by pa gives S * p = C * pa, so p / a = C * D / S.
    """
    if not a:
        raise ZeroElement("ideal quotient by the zero element")
    den, pa = _integral(_terms(a, gb.variables))  # pa = D * a
    inputs: list[dict] = [{m + _ELIM: c for m, c in p.items()} for p in gb._polys]  # t * I
    inputs.append({**pa, **{m + _ELIM: -c for m, c in pa.items()}})  # (1 - t) * D * a
    eng = _Engine(inputs)
    eng.run()
    polys, _ = eng.reduced()
    lm = max(pa)
    by_a = ([pa], [lm], [_exponents(lm)], [pa[lm]])
    quotient_gens: list[Element] = []
    for p in polys:
        if max(p) >= _ELIM:  # t dominates the order: the others are t-free
            continue  # only t-free elements generate the intersection
        s, rem, steps = _nf(p, by_a, full=True)
        if rem:
            raise VerificationFailed("intersection generator not divisible by the quotient element")
        (cof,) = _fold(steps, {}).values()
        quotient_gens.append(Element._from_dict(
            {m: _quotient(c * den, s) for m, c in cof.items()}, gb._table))
    return buchberger(quotient_gens, gb.variables)


def zero_divisor_witness(a: Element, gb: GroebnerBasis) -> Element | None:
    """A witness f with f*a in the ideal but f outside it, or None.

    The zero element is a zero divisor exactly when the quotient ring is
    nonzero (witness 1); an element already in the ideal gets witness 1 too.
    Otherwise the witness is the first generator of (I : a) outside I.
    """
    if not a or member(a, gb):
        return None if gb.contains_one else Element.one()
    q = ideal_quotient(gb, a)
    for g in q.generators:
        if not member(g, gb):
            return g
    return None


def regular_sequence_failure(seq: Sequence[Element], variables: Sequence[Generator]):
    """First failure of the regular-sequence property, as (1-based index, witness).

    Returns None when the sequence is regular.  Every element must lie in the
    augmentation ideal (no constant term).  A sequence of homogeneous
    elements is regular when ``_regular`` holds, read off its full basis
    alone; otherwise the first prefix that fails ``_regular`` (the whole
    sequence at the latest) ends at the failing element, and a zero-divisor
    witness modulo the elements before it must confirm it, else
    VerificationFailed.  A zero element drops no dimension, so the walk stops
    at the first one at the latest, and a zero's witness is 1, with no ideal
    quotient.  A sequence with an element that mixes degrees tests each
    element for a zero divisor modulo the ideal of the ones before it.
    """
    for a in seq:
        if 0 in _terms(a, variables):
            raise ConstantTermPresent(
                f"sequence element {a.render()} has a constant term")
    if all(a.is_homogeneous() for a in seq):  # zero elements included
        if _regular(seq, variables):
            return None
        i = next(i for i in range(1, len(seq) + 1) if not _regular(seq[:i], variables))
        w = zero_divisor_witness(seq[i - 1], buchberger(list(seq[:i - 1]), variables))
        if w is None:
            raise VerificationFailed(
                f"element {i} drops no Krull dimension but has no zero-divisor witness")
        return i, w
    for i in range(len(seq)):
        w = zero_divisor_witness(seq[i], buchberger(list(seq[:i]), variables))
        if w is not None:
            return i + 1, w
    return None


def _regular(seq: Sequence[Element], variables: Sequence[Generator]) -> bool:
    """Whether homogeneous elements of positive degree drop the Krull
    dimension by one each: regularity, as Q[x] is Cohen-Macaulay."""
    return _dimension(buchberger(list(seq), variables)) == len(variables) - len(seq)


def is_regular_sequence(seq: Sequence[Element], variables: Sequence[Generator]):
    """(True, None) for a regular sequence, else (False, first failing 1-based index)."""
    fail = regular_sequence_failure(seq, variables)
    if fail is None:
        return True, None
    return False, fail[0]


def quotient_is_finite_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading monomials."""
    return gb.contains_one or None not in gb.pure_powers


def _count(lead: list[tuple[int, ...]], n: int) -> int:
    """Monomials in the first n variables outside the ideal of the exponent
    tuples ``lead``, which holds a power of each: for exponents of the n-th
    variable from one of its values in ``lead`` (or 0) to the next, the slice
    is the tuples with that value or less; past the last, the pure power's."""
    if n == 0:
        return 0 if lead else 1
    cuts = sorted({0, *(e[n - 1] for e in lead)})
    return sum((hi - lo) * _count([e for e in lead if e[n - 1] <= lo], n - 1)
               for lo, hi in zip(cuts, cuts[1:]))


def _dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient, -1 for the zero ring, read off the
    leading monomials as dim Q[x]/I = dim Q[x]/in(I): the number of variables
    less the fewest variables that meet every leading monomial's support (Cox,
    Little and O'Shea, *Ideals, Varieties, and Algorithms*, 9.3), found by
    branching on the variables of the smallest support not yet met; a
    finite quotient answers from its pure powers at once."""
    if quotient_is_finite_dimensional(gb):
        return -1 if gb.contains_one else 0

    def cover(supports) -> int:  # the fewest variables meeting every support
        least = min(supports, key=len, default=None)
        return 0 if least is None else 1 + min(cover([s for s in supports if j not in s])
                                               for j in least)
    supports = {frozenset(j for j, x in enumerate(e) if x) for e in gb._leading}
    return len(gb.variables) - cover(supports)


def quotient_dimension(gb: GroebnerBasis) -> int:
    """Number of standard monomials of a finite-dimensional quotient, counted
    once per basis from the leading monomials alone: dim Q[x]/I = dim Q[x]/in(I)
    (Macaulay; Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    5.3).  The cost follows the leading monomials, not the quotient's size."""
    if not quotient_is_finite_dimensional(gb):
        raise NotFiniteDimensional("quotient ring is not finite-dimensional")
    return gb._standard_count
