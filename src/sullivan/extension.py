"""Construction and verification of F0-basis extensions.

An F0-model is a pure elliptic model whose homotopy characteristic vanishes;
equivalently the odd generators' differentials form a regular sequence in the
even subalgebra.  For a pure elliptic model with constant differential length
this module constructs an F0-basis extension: a sub-dga on all even
generators plus a new odd basis (rational combinations of the original odd
generators) whose differentials are a regular sequence.

The construction recurses stage by stage.  Each stage isolates the even
generators of minimal degree together with the odd generators small enough to
hit them, picks a regular set of odd combinations there (greedily, one at a
time, by Krull dimension, over the columns that no earlier pick leads at:
prime avoidance bounds the walk, so it takes no budget), kills the stage's
evens and the pick's pivots, and continues on the input less the killed set:
no level model is built, a level's images are the input's with the killed
generators set to zero.  The hypotheses are checked once, on the input; each
level inherits them.  With X0 the killed evens and P the killed odds, d(P)
lies in (X0), so the level's even ring Q[X]/(dY + (X0)) is a quotient of the
finite-dimensional Q[X]/(dY), and its images keep a subset of the original
terms, all of word length l: it is again pure, elliptic and of constant
length l.  A stage inherits ellipticity likewise (``FirstStage``).  Chosen
combinations lift to the original model verbatim: odd differentials live in
the even subalgebra, so killing odd generators leaves them alone, and
killing the lower even generators only shortens them.

Every output is certified after the fact: the full differential sequence is
re-checked for regularity over all even generators, and each even generator
gets an exactness certificate in the extension model.  The stage pick and
the exhaustive search draw their integer combinations from one lazy
enumerator, ``_subspaces``, which lists subspaces under their reduced bases:
the pick takes its lines on the free columns, and the search, through its
candidate stream of whole picks (``_candidates``), one subspace per degree.
Both streams are products of walks drawn as first reached (``_product``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from math import gcd, prod
from typing import Sequence

from .algebra import Element, Generator, _key
from .ellipticity import (
    ExactnessCertificate,
    exactness_certificate,
    is_elliptic_pure,
)
from .errors import (
    InvalidInput,
    NotElliptic,
    NotPure,
    NonConstantLength,
    SearchSpaceTooLarge,
    VerificationFailed,
)
from .groebner import (
    _regular,
    buchberger,
    quotient_dimension,
    quotient_is_finite_dimensional,
    regular_sequence_failure,
)
from .model import SullivanModel


# -- first stage ---------------------------------------------------------------

@dataclass
class FirstStage:
    """The bottom slice of a pure elliptic constant-length model less a killed set.

    ``model`` is the input at every level.  ``evens`` are X0, the surviving
    even generators of least degree |x0|; the surviving odd generators of
    degree at most l*|x0| - 1 split by their image, the killed generators set
    to zero, into ``active`` (nonzero ``images``, aligned with it: so of that
    top degree and in Q[X0]) and ``inert``.  The slice's sub-model is
    elliptic, so it is not built: the image of an odd generator of degree
    above l*|x0| - 1 vanishes when X' = 0 (words of length l in X0 have degree
    exactly l*|x0|), so Q[X0]/(d active) = Q[X]/(dY + (X')), a quotient of
    the finite-dimensional Q[X]/(dY); each later level inherits likewise.
    """

    model: SullivanModel
    length: int
    evens: tuple[Generator, ...]
    active: tuple[Generator, ...]
    inert: tuple[Generator, ...]
    images: tuple[Element, ...]


def first_stage(model: SullivanModel) -> FirstStage:
    """Split off the minimal-degree slice of a pure elliptic constant-length model.

    The slice consists of the minimal-degree even generators together with
    every odd generator of degree at most length*|minimal even degree| - 1.
    Degree bookkeeping forces each such odd generator with nonzero
    differential to sit in the top degree of that range, with its image a
    polynomial in the slice's even generators; both facts are re-checked.
    The model's hypotheses are checked here; ``f0_extend``'s later levels
    inherit them (module docstring) and slice the input less its killed set.
    """
    if not model.is_pure():
        raise NotPure(f"model {model.name!r} is not pure")
    if not model.even_generators:
        raise InvalidInput(
            f"model {model.name!r} has no even generators; no first stage exists")
    if not is_elliptic_pure(model):
        raise NotElliptic(f"model {model.name!r} is not elliptic")
    length = model.differential_length()
    if not length.is_constant:
        raise NonConstantLength(
            f"model {model.name!r} has differential length {length.render()}")
    return _slice(model, length.value, set())


def _slice(model: SullivanModel, l: int, killed: set[Generator]) -> FirstStage:
    """``first_stage`` of the model less ``killed``, its hypotheses known."""
    evens = [g for g in model.even_generators if g not in killed]
    base_degree = evens[0].degree
    stage_evens = tuple(g for g in evens if g.degree == base_degree)
    bound = l * base_degree - 1
    bounded = [g for g in model.odd_generators if g.degree <= bound and g not in killed]
    images = {g: model.d_generator(g).substitute_zero(killed) for g in bounded}
    active = tuple(g for g in bounded if images[g])
    inert = tuple(g for g in bounded if not images[g])
    even_set = set(stage_evens)
    for g in active:
        if g.degree != bound:
            raise VerificationFailed(
                f"{g.name} has degree {g.degree}, expected {bound} for a nonzero "
                "differential in the first stage")
        if not images[g].generators_used() <= even_set:
            raise VerificationFailed(
                f"d({g.name}) leaves the minimal-degree even subalgebra")
    return FirstStage(model, l, stage_evens, active, inert, tuple(images[g] for g in active))


# -- regular subsequence search -------------------------------------------------

@dataclass
class RegularChoice:
    """A successful pick of stage combinations with regular differentials;
    each element is zero on the ``pivots`` before its own, which f0_extend kills."""

    elements: list[Element]
    images: list[Element]
    subset: tuple[str, ...] | None  # generator names when the pick is a plain subset
    height: int
    tried: int  # candidates tested, the first subset included
    pivots: tuple[Generator, ...]  # the active generators the elements lead at, in order


def _combine(combination: dict[Generator, int]) -> Element:
    """The element sum(c * g) of a combination's {generator: c}, as one dict."""
    return Element._from_dict({_key(g): c for g, c in combination.items()},
                              {g.index: g for g in combination})


def _assignments(caps: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """The tuples a with 0 <= a[i] <= caps[i] and sum(a) == p, in descending
    order: each first entry from the largest down, then the rest alike."""
    if not caps:
        return [()] if p == 0 else []
    return [(k,) + rest for k in range(min(caps[0], p), -1, -1)
            for rest in _assignments(caps[1:], p - k)]


def _product(walks, within):
    """``itertools.product`` over ``(stream, listed)`` walks, lazily: each walk
    is drawn into its list as the product first reaches it, and replayed from
    the list after; a walk ends before its first item that ``within`` fails."""
    (stream, listed), rest = walks[0], walks[1:]
    for item in itertools.takewhile(within, itertools.chain(listed, _drawn(stream, listed))):
        if rest:
            for tail in _product(rest, within):
                yield (item,) + tail
        else:
            yield item,


def _drawn(stream, listed):
    """The rest of ``stream``, each item appended to ``listed`` as it is drawn;
    a plain loop, so closing a left walk leaves the shared stream open."""
    for item in stream:
        listed.append(item)
        yield item


def _subspaces(n: int, k: int):
    """Each k-subspace of Q^n once, as ``(height, basis)``: the coordinate ones
    at height 0 in ``itertools.combinations`` order, then (if 0 < k < n) every
    other under its reduced basis, by height h = 1, 2, ....  A reduced basis
    has rows r_1..r_k with leading columns c_1 < ... < c_k, each r_i primitive
    in the integers, zero before c_i and at every other c_j, and positive at
    c_i; scaling each row to 1 there gives the reduced row echelon form, which
    is unique, so each subspace has one reduced basis, and its height is the
    largest |entry|.  At height h, for the leading columns in combinations
    order, the rows run in product order over their free columns (after the
    lead, leading no row), the lead in 1..h and the rest in -h..h; a basis is
    kept if its height is h and its support has more than k columns, that is
    if one row is both at the height and off the leading columns (at height 1
    every row is at the height; above it, no unit row is).  The bases are the
    ``_product`` of one walk of rows per leading column, so each leading
    column's rows are built once per height and leading columns, as the
    product first reaches them, and no row list precedes the first basis.
    For k = 1 these are the units, then by height the primitive vectors with
    support above 1, positive at their lead."""
    def rows(lead, leads, height):  # (row, whether at the height and off the leads)
        cols = [lead] + [j for j in range(lead + 1, n) if j not in leads]
        for e in itertools.product(range(1, height + 1),
                                   *[range(-height, height + 1)] * (len(cols) - 1)):
            if gcd(*e) == 1:
                row = [0] * n
                for j, a in zip(cols, e):
                    row[j] = a
                yield tuple(row), max(map(abs, e)) == height and any(e[1:])

    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    yield from ((0, basis) for basis in itertools.combinations(units, k))
    for height in itertools.count(1) if 0 < k < n else []:
        for leads in itertools.combinations(range(n), k):
            walks = [(rows(c, leads, height), []) for c in leads]
            for chosen in _product(walks, lambda row: True):
                basis, flags = zip(*chosen)
                if any(flags):
                    yield height, basis


def _candidates(gens: Sequence[Generator], p: int, max_candidates: int):
    """Candidate picks of p homogeneous combinations of ``gens``, in search order.

    Yields ``(tried, height, picks)`` as each is enumerated; ``picks`` holds
    one combination per element, inside a single degree, as a hashable tuple
    of its (generator, nonzero integer coefficient) pairs (built once per
    degree and row, and shared by the picks that hold it); a plain subset's
    is ``((g, 1),)``.  First the plain p-subsets in ``itertools.combinations``
    order (height 0).  A graded subspace is one subspace per degree, its
    height the largest of their reduced bases' heights: so for heights 1, 2,
    ..., and the assignments of p to the degrees in descending order, the
    ``_product`` of the degrees' ``_subspaces`` up to that height, the lowest
    degree slowest, each walk kept across heights and assignments, less the
    tuples with no subspace at the height.  Assignments that take
    each degree whole or not at all span only plain subsets and are skipped.
    Ends after the plain subsets when no assignment is left; else each height
    adds a candidate (a degree taken in part has a subspace of every height)
    and skips only products already tried, so more than ``max_candidates``
    tried, the one bound, raises SearchSpaceTooLarge, an input problem.
    """
    groups: dict[int, list[Generator]] = {}
    for g in gens:
        groups.setdefault(g.degree, []).append(g)
    degrees = sorted(groups)
    sizes = [len(groups[d]) for d in degrees]
    assignments = [[(d, k) for d, k in zip(degrees, a) if k] for a in _assignments(sizes, p)
                   if any(0 < k < n for k, n in zip(a, sizes))]
    # (degree, k) -> its _subspaces, and the subspaces drawn from it so far
    walks = {(d, k): (_subspaces(len(groups[d]), k), []) for a in assignments for d, k in a}
    combination = cache(lambda d, v: tuple((g, c) for g, c in zip(groups[d], v) if c))

    def stream():
        for combo in itertools.combinations(gens, p):
            yield 0, tuple(((g, 1),) for g in combo)
        for height in itertools.count(1) if assignments else []:
            within = (height + 1,).__gt__  # up to the height: (h + 1,) sorts below (h + 1, basis)
            for pieces in assignments:
                for chosen in _product([walks[piece] for piece in pieces], within):
                    if height in [h for h, _ in chosen]:
                        yield height, tuple(combination(d, v) for (d, _), (_, basis)
                                            in zip(pieces, chosen) for v in basis)

    for tried, (height, picks) in enumerate(stream(), 1):
        if tried > max_candidates:
            raise SearchSpaceTooLarge(f"search budget of {max_candidates} candidates exceeded")
        yield tried, height, picks


def find_homogeneous_regular_subset(stage: FirstStage) -> RegularChoice:
    """Pick |evens| = p odd combinations of the stage with regular differentials.

    First the first p active odd generators, as a whole: for p elements a
    finite-dimensional quotient is regularity.  Else the pick is greedy over
    ``free``, the active columns no earlier pick leads at: pick k = 1, ..., p
    is the first vector on ``free`` (``_subspaces(len(free), 1)``: units in
    declaration order, then each height by leading column) whose image
    keeps the picks regular (``groebner._regular``: the Krull dimension
    drops to p - k), and its first nonzero column leaves ``free``.  So each
    class modulo the earlier picks has one vector on ``free``, and the class
    decides the verdict: each is tried once, with no span test.  A prefix of
    a regular sequence is regular, so the walk would pick a passing first
    subset too.  It never backtracks: the active images generate an ideal
    primary to the maximal one (checked first, else NotElliptic), so a class
    fails only inside one of the at most l^(k-1) minimal primes of the
    earlier picks' ideal (Bezout), each meeting Q^(m-k+1), the vectors on
    ``free``, in a proper subspace; one holds at most (2h+1)^(m-k) of the
    (2h+1)^(m-k+1) vectors of height at most h, so a pick exists at the
    least h with 2h + 1 > l^(k-1), and passing it is an internal fault.
    """
    p, active, images = len(stage.evens), stage.active, list(stage.images)
    els, imgs, free = [_combine({g: 1}) for g in active[:p]], images[:p], range(p, len(active))
    height, tried = 0, int(p > 0)
    if p and not quotient_is_finite_dimensional(buchberger(imgs, stage.evens)):
        if not quotient_is_finite_dimensional(buchberger(images, stage.evens)):
            raise NotElliptic(f"the first stage of {stage.model.name!r} is not elliptic")
        els, imgs, free = [], [], list(range(len(active)))
        for k in range(1, p + 1):
            bound = (stage.length ** (k - 1) + 1) // 2  # the least h, 2h + 1 > l^(k-1)
            for h, (v,) in _subspaces(len(free), 1):
                if h > bound:
                    raise VerificationFailed(f"no regular pick {k} within height {bound}")
                tried += 1
                img = sum((c * images[j] for c, j in zip(v, free) if c), Element.zero())
                if _regular(imgs + [img], stage.evens):
                    e = _combine({active[j]: c for c, j in zip(v, free) if c})
                    els, imgs, height = els + [e], imgs + [img], max(height, h)
                    free.remove(next(j for c, j in zip(v, free) if c))
                    break
    subset = tuple(e.render() for e in els) if height == 0 else None
    pivots = tuple(g for j, g in enumerate(active) if j not in free)
    return RegularChoice(els, imgs, subset, height, tried, pivots)


# -- extension construction ------------------------------------------------------

def _levels(model: SullivanModel):
    """The recursion's levels, as ``(stage, choice, killed)``: the level's
    slice, its regular pick, and the killed set once the stage's evens and
    the pick's pivots have joined it (the same set, grown level by level).
    ``first_stage`` checks the model; each later level slices the input less
    the killed set, until every even generator is killed (a model with none
    has no level).  The picks' elements together are an F0 basis Z, and the
    odd generators never killed complete it to a basis of the odd generators
    (each pick leads at its own pivot and is zero on the earlier pivots)."""
    killed: set[Generator] = set()
    stage = None
    while not killed.issuperset(model.even_generators):
        stage = _slice(model, stage.length, killed) if stage else first_stage(model)
        choice = find_homogeneous_regular_subset(stage)
        killed.update(stage.evens, choice.pivots)
        yield stage, choice, killed


@dataclass
class StageRecord:
    """One level of the recursion, for the trace log."""

    level: int
    evens: tuple[str, ...]
    active: tuple[str, ...]
    inert: tuple[str, ...]
    chosen: tuple[str, ...]  # rendered combinations
    killed_odd: tuple[str, ...]
    survivors: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "evens": list(self.evens),
            "active": list(self.active),
            "inert": list(self.inert),
            "chosen": list(self.chosen),
            "killed_odd": list(self.killed_odd),
            "survivors": list(self.survivors),
        }


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class VerificationReport:
    """Outcome of the F0-extension checks, in check order."""

    passed: bool
    checks: list[CheckResult]
    first_failure: str | None = None
    failing_index: int | None = None
    witness: Element | None = None
    regular: bool | None = None
    finite_dimensional: bool | None = None
    quotient_dim: int | None = None

    def to_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "first_failure": self.first_failure,
        }
        if self.failing_index is not None:
            out["failing_index"] = self.failing_index
        if self.witness is not None:
            out["witness"] = self.witness.render()
        if self.regular is not None:
            out["regular"] = self.regular
        if self.finite_dimensional is not None:
            out["finite_dimensional"] = self.finite_dimensional
        if self.quotient_dim is not None:
            out["quotient_dimension"] = self.quotient_dim
        return out


@dataclass
class ExtensionResult:
    """A verified F0-basis extension of a pure elliptic constant-length model."""

    model: SullivanModel
    odd_basis: list[Element]
    odd_degrees: list[int]
    extension: SullivanModel
    certificates: list[ExactnessCertificate]
    trace: list[StageRecord]
    verification: VerificationReport

    def to_dict(self) -> dict:
        return {
            "model": self.model.name,
            "z_odd": [
                {"element": e.render(), "degree": d}
                for e, d in zip(self.odd_basis, self.odd_degrees)
            ],
            "certificates": [c.to_dict() for c in self.certificates],
            "trace": [s.to_dict() for s in self.trace],
            "verification": self.verification.to_dict(),
        }


def extension_model(model: SullivanModel, odd_basis: Sequence[Element]) -> SullivanModel:
    """The sub-model on all even generators plus the given odd combinations,
    named "<model>/extension".

    Each combination becomes a fresh odd generator whose differential is the
    combination's original differential, a polynomial in the original even
    generators.
    """
    evens = model.even_generators
    taken = {g.name for g in evens}
    new_gens: list[Generator] = list(evens)
    diffs: dict[Generator, Element] = {}
    next_index = max((g.index for g in evens), default=-1) + 1
    for k, u in enumerate(odd_basis):
        lin = u.odd_linear_part()
        if lin is None or not lin:
            raise InvalidInput(
                f"odd basis entry {u.render()} is not a combination of odd generators")
        deg = u.degree()
        if not isinstance(deg, int):
            raise InvalidInput(
                f"odd basis entry {u.render()} mixes degrees {sorted({g.degree for g in lin})}")
        zname = f"z{k + 1}"
        while zname in taken:
            zname += "_"
        taken.add(zname)
        z = Generator(zname, deg, next_index)
        next_index += 1
        new_gens.append(z)
        diffs[z] = model.d(u)
    return SullivanModel(new_gens, diffs, name=f"{model.name}/extension")


def verify_f0_extension(model: SullivanModel, odd_basis: Sequence[Element]) -> VerificationReport:
    """Check a purported F0 odd basis; failures are report outcomes.

    Checks run in order: homogeneity of every element, count against the
    even generators, closure of the differentials inside the even
    subalgebra, then the regular-sequence property (``regular_sequence_failure``,
    which gives a failing index and witness) and finite-dimensionality of the
    quotient; when the count is right the two must agree.  A regular
    homogeneous sequence of full length must also meet Stanley's identity,
    quotient dimension * prod(w_j) = prod(deg f_i) ("Hilbert functions of
    graded algebras", 1978), else VerificationFailed.
    """
    checks: list[CheckResult] = []
    evens = model.even_generators
    even_set = set(evens)

    homogeneous = True
    detail = ""
    for e in odd_basis:
        lin = e.odd_linear_part()
        if lin is None or not e:
            raise InvalidInput(
                f"{e.render()} is not a nonzero combination of odd generators")
        if not isinstance(e.degree(), int):
            degs = sorted({g.degree for g in lin})
            homogeneous = False
            detail = f"{e.render()} mixes degrees {degs}"
            break
    checks.append(CheckResult("homogeneous", homogeneous, detail))

    count_ok = len(odd_basis) == len(evens)
    checks.append(CheckResult(
        "count", count_ok,
        f"{len(odd_basis)} elements for {len(evens)} even generators"))

    images = [model.d(e) for e in odd_basis]
    closure_ok = all(img.generators_used() <= even_set for img in images)
    checks.append(CheckResult(
        "closure", closure_ok,
        "" if closure_ok else "some differential leaves the even subalgebra"))

    report = VerificationReport(passed=False, checks=checks)

    if closure_ok:
        failure = regular_sequence_failure(images, evens)
        report.regular = failure is None
        if failure is not None:
            report.failing_index, report.witness = failure
            checks.append(CheckResult(
                "regular_sequence", False,
                f"element {failure[0]} is a zero divisor; witness {failure[1].render()}"))
        else:
            checks.append(CheckResult("regular_sequence", True, ""))
        gb = buchberger(images, evens)
        report.finite_dimensional = quotient_is_finite_dimensional(gb)
        if report.finite_dimensional:
            report.quotient_dim = quotient_dimension(gb)
        checks.append(CheckResult(
            "finite_dimensional", bool(report.finite_dimensional),
            f"quotient dimension {report.quotient_dim}"
            if report.finite_dimensional else ""))
        if count_ok and report.regular != report.finite_dimensional:
            raise VerificationFailed(
                "regular-sequence and finite-dimensionality tests disagree "
                "on a full-length candidate")
        if (homogeneous and count_ok and report.regular
                and report.quotient_dim * prod(g.degree for g in evens)
                != prod(img.degree() for img in images)):
            raise VerificationFailed(
                f"quotient dimension {report.quotient_dim} of a regular sequence "
                "breaks Stanley's identity")

    report.passed = all(c.ok for c in checks)
    if not report.passed:
        report.first_failure = next(c.name for c in checks if not c.ok)
    return report


def f0_extend(model: SullivanModel) -> ExtensionResult:
    """Construct a verified F0-basis extension of a pure elliptic model.

    Recursion on the even generators: take the first stage, pick a regular
    set of odd combinations there, kill the stage's even generators and the
    pivots that the pick reports (the odd generators its elements lead at),
    and continue on the input less the killed set; no level model is built,
    so the extension is the one model made here.  Choices made at a level
    lift verbatim: the lifted elements keep their original differentials.

    ``first_stage`` checks the model; later levels inherit its hypotheses
    (module docstring).  The odd basis is re-verified from scratch, which
    settles the extension model's count and ellipticity, and each even
    generator receives an exactness certificate in the extension model.
    """
    if not model.is_pure():
        raise NotPure(f"model {model.name!r} is not pure")

    chosen: list[Element] = []
    trace: list[StageRecord] = []
    for stage, choice, killed in _levels(model):
        chosen.extend(choice.elements)
        trace.append(StageRecord(
            level=len(trace) + 1,
            evens=tuple(g.name for g in stage.evens),
            active=tuple(g.name for g in stage.active),
            inert=tuple(g.name for g in stage.inert),
            chosen=tuple(e.render() for e in choice.elements),
            killed_odd=tuple(g.name for g in choice.pivots),
            survivors=tuple(g.name for g in model.generators if g not in killed),
        ))

    report = verify_f0_extension(model, chosen)
    if not report.passed:
        raise VerificationFailed(
            f"constructed odd basis failed the {report.first_failure} check")
    ext = extension_model(model, chosen)
    certificates = [exactness_certificate(ext, g) for g in model.even_generators]
    degrees = [e.degree() for e in chosen]
    return ExtensionResult(model, chosen, degrees, ext, certificates, trace, report)


# -- exhaustive homogeneous search ------------------------------------------------

@dataclass
class RejectionRecord:
    candidate: tuple[str, ...]
    reason: str
    witness: str | None = None
    failing_index: int | None = None

    def to_dict(self) -> dict:
        out = {"candidate": list(self.candidate), "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.failing_index is not None:
            out["failing_index"] = self.failing_index
        return out


@dataclass
class SearchOutcome:
    """Result of the exhaustive search for a homogeneous F0 odd basis."""

    found: list[Element] | None
    tried: int
    subset_complete: bool
    fully_exhaustive: bool
    rejected: list[RejectionRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "found": None if self.found is None
            else [e.render() for e in self.found],
            "tried": self.tried,
            "subset_complete": self.subset_complete,
            "fully_exhaustive": self.fully_exhaustive,
            "rejected": [r.to_dict() for r in self.rejected],
        }


MAX_REJECTIONS_KEPT = 100


def exhaustive_homogeneous_search(model: SullivanModel,
                                  max_candidates: int = 20000) -> SearchOutcome:
    """Search every graded odd subspace of the right dimension for an F0 basis.

    Candidates are built degree by degree (homogeneity is free): first plain
    subsets of the odd generators in declaration order, then, by height 1,
    2, ..., one subspace per degree under its reduced basis, each graded
    subspace listed once, its height the largest entry of its reduced bases
    (``_candidates``).  The first candidate passing verify_f0_extension
    wins.  A sequence with a non-regular prefix is not regular, so the
    search remembers the last candidate that failed the regular-sequence
    check, at index i: its first i images and its report.  Each later
    candidate whose images start with those is rejected with that report,
    unverified; the stream lists candidates sharing a prefix one after
    another, so one remembered prefix catches them.  A homogeneous failing
    prefix leaves Krull dimension above p - i (``regular_sequence_failure``
    found it so before its witness confirmed it), so every extension of it
    has an infinite-dimensional quotient (Krull's principal ideal theorem:
    the p - i elements after it drop the dimension by at most p - i); a
    zero image keeps the dimension of the images before it, likewise.  Three
    caches keyed on the pick build its element once per search, derive its
    image only when a prefix comparison first reads it, and render its text
    only when a kept rejection record (the first ``MAX_REJECTIONS_KEPT``)
    first needs it; a report's witness is rendered once.  When no assignment
    takes a degree in part, as for (3, 3, 5) at p = 3, the space is finite
    and exhausting it proves no homogeneous F0 basis exists
    (``fully_exhaustive``); otherwise trying more than ``max_candidates``
    raises SearchSpaceTooLarge.
    """
    if not is_elliptic_pure(model):
        raise NotElliptic(f"model {model.name!r} is not elliptic")
    p = len(model.even_generators)
    odds = model.odd_generators
    outcome = SearchOutcome(None, 0, False, False)

    # per pick: its element, its image and its rendered text, each on first read
    element = cache(lambda pick: _combine(dict(pick)))
    image = cache(lambda pick: model.d(element(pick)))
    text = cache(lambda pick: element(pick).render())
    # the last failing prefix's images and its report, and the rendered witness
    # of the last verified report, rendered when a kept record first needs it
    prefix, kept, witness = [], None, None

    def reject(picks: tuple, report: VerificationReport) -> None:
        nonlocal witness
        if len(outcome.rejected) >= MAX_REJECTIONS_KEPT:
            return
        if witness is None and report.witness is not None:
            witness = report.witness.render()
        outcome.rejected.append(RejectionRecord(
            candidate=tuple(map(text, picks)),
            reason=report.first_failure or "unknown",
            witness=witness,
            failing_index=report.failing_index,
        ))

    if p == 0:
        outcome.found = []
        outcome.subset_complete = True
        return outcome

    for tried, height, picks in _candidates(odds, p, max_candidates):
        outcome.tried = tried
        if kept is not None and all(image(c) == q for c, q in zip(picks, prefix)):
            report = kept
        else:
            candidate = [element(c) for c in picks]
            report = verify_f0_extension(model, candidate)
            if report.passed:
                outcome.found = candidate
                outcome.subset_complete = height > 0
                return outcome
            kept, witness = None, None
            if report.first_failure == "regular_sequence":
                prefix = [image(c) for c in picks[:report.failing_index]]
                kept = report
        reject(picks, report)
    # the plain subsets were the whole space
    outcome.subset_complete = True
    outcome.fully_exhaustive = True
    return outcome
