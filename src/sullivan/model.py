"""Sullivan minimal models: free graded-commutative algebras with a decomposable
degree +1 differential, over the rationals.

A model is determined by its generators and the differential images of the
generators; the differential extends as a graded derivation.  Models are
treated as immutable once constructed.  The constructor runs the mathematical
checks (image degrees, minimality, d^2 = 0) and raises on the first failure,
so every model that exists is valid; ``validate`` returns the report it kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .algebra import (
    Element,
    Generator,
    Monomial,
    Scalar,
    _derive_into,
    _exact,
    _image,
    _integral,
    enumerate_basis,
    make_generators,
)
from .errors import (
    DegreeMismatch,
    DifferentialNotSquareZero,
    GeneratorMismatch,
    InvalidModel,
    NotClosedUnderDifferential,
    NotDifferentialIdeal,
    NotElliptic,
    NotMinimal,
    UnknownGenerator,
    VerificationFailed,
)

@dataclass(frozen=True)
class DifferentialLength:
    """Word lengths occurring among the nonzero differential images.

    ``kind`` is "constant" (single length, ``value`` set), "mixed"
    (``values`` set), or "zero" (no nonzero image at all; the length is
    undetermined and callers needing one must decide how to treat it).
    """

    kind: str
    value: int | None = None
    values: tuple[int, ...] = ()

    @staticmethod
    def of(lengths: Iterable[int]) -> "DifferentialLength":
        """The report of the word lengths found among the images."""
        ls = tuple(sorted(set(lengths)))
        if not ls:
            return DifferentialLength("zero")
        if len(ls) == 1:
            return DifferentialLength("constant", value=ls[0])
        return DifferentialLength("mixed", values=ls)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def render(self) -> str:
        if self.kind == "constant":
            return f"constant({self.value})"
        if self.kind == "mixed":
            return "mixed{%s}" % ",".join(str(v) for v in self.values)
        return "zero"

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "mixed":
            return {"kind": "mixed", "values": list(self.values)}
        return {"kind": "zero"}


@dataclass
class ModelReport:
    """Outcome of validating (and optionally analyzing) a model."""

    name: str
    pure: bool
    minimal: bool
    length: DifferentialLength
    chi_pi: int
    n_even: int
    n_odd: int
    elliptic: bool | None = None
    formal_dimension: int | None = None
    exponents: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "model": self.name,
            "pure": self.pure,
            "minimal": self.minimal,
            "length": self.length.to_dict(),
            "chi_pi": self.chi_pi,
            "generators": {"even": self.n_even, "odd": self.n_odd},
        }
        if self.elliptic is not None:
            out["elliptic"] = self.elliptic
        if self.formal_dimension is not None:
            out["formal_dimension"] = self.formal_dimension
        if self.exponents:
            out["exponents"] = dict(sorted(self.exponents.items()))
        return out


class SullivanModel:
    """A finitely generated Sullivan model (Lambda V, d)."""

    def __init__(self, generators: Sequence[Generator],
                 differential: Mapping[Generator | str, Element] | None = None,
                 name: str = "model"):
        gens = sorted(generators, key=lambda g: g.index)
        if len({g.index for g in gens}) != len(gens):
            raise InvalidModel("generator positions must be distinct")
        if len({g.name for g in gens}) != len(gens):
            raise InvalidModel("generator names must be unique within a model")
        self.name = name
        self.generators: tuple[Generator, ...] = tuple(gens)
        self._evens = tuple(g for g in gens if g.is_even)
        self._odds = tuple(g for g in gens if not g.is_even)
        self._by_name = {g.name: g for g in self.generators}
        self._gen_set = set(self.generators)
        d: dict[Generator, Element] = {}
        if differential:
            for key, img in differential.items():
                g = self.generator(key)
                if not isinstance(img, Element):
                    raise InvalidModel(f"differential image of {g.name} is not an Element")
                foreign = img.generators_used() - self._gen_set
                if foreign:
                    raise GeneratorMismatch(
                        f"image of {g.name} uses foreign generators: "
                        + ", ".join(sorted(x.name for x in foreign)))
                if img:
                    d[g] = img
        self.differential: dict[Generator, Element] = d
        scale = lcm(*(c.denominator for img in d.values() for c in img._t.values()))
        self._scaled = scale, [_image(g, _integral(img._t, scale)[1]) for g, img in d.items()]
        self._table = {g.index: g for g in self.generators}
        self._dy_basis = None  # lazy Groebner cache, see ellipticity module
        self._report = self._checked_report()

    # -- lookups --------------------------------------------------------

    def generator(self, key: Generator | str) -> Generator:
        if isinstance(key, Generator):
            if key not in self._gen_set:
                raise UnknownGenerator(f"generator {key!r} does not belong to model {self.name!r}")
            return key
        g = self._by_name.get(key)
        if g is None:
            raise UnknownGenerator(f"unknown generator {key!r} in model {self.name!r}")
        return g

    def element(self, name: str) -> Element:
        return Element.from_generator(self.generator(name))

    @property
    def even_generators(self) -> list[Generator]:
        return list(self._evens)

    @property
    def odd_generators(self) -> list[Generator]:
        return list(self._odds)

    def dim_v(self) -> int:
        return len(self.generators)

    # -- differential ----------------------------------------------------

    def d_generator(self, g: Generator | str) -> Element:
        return self.differential.get(self.generator(g), Element.zero())

    def d(self, e: Element | Generator) -> Element:
        """Extend the differential to any element as a degree +1 derivation."""
        if isinstance(e, Generator):
            return self.d_generator(e)
        self._check_own(e)
        scale, images = self._scaled
        t: dict[int, Scalar] = {}
        for m, coeff in e._t.items():
            _derive_into(t, m, coeff, images)
        if scale != 1:
            t = {m: _exact(Fraction(c, scale)) for m, c in t.items()}
        return Element._from_dict(t, self._table)

    def _check_own(self, e: Element) -> None:
        """Raise GeneratorMismatch when e uses a generator foreign to the model."""
        foreign = not e._g.items() <= self._table.items() and e.generators_used() - self._gen_set
        if foreign:
            raise GeneratorMismatch(
                "element uses foreign generators: " + ", ".join(sorted(x.name for x in foreign)))

    def _scaled_d(self, terms: Mapping[int, int]) -> tuple[int, dict[int, int]]:
        """(L, L * d(terms)) in integers, for terms an {int monomial: int} map and
        L the lcm of the denominators in the differential images, from the
        table ``_scaled`` that ``d`` derives through as well.

        L is 1 when every image has integer coefficients; as a nonzero scalar
        it leaves the rank of d in every degree and the kernel unchanged.
        """
        scale, images = self._scaled
        t: dict[int, int] = {}
        for m, c in terms.items():
            _derive_into(t, m, c, images)
        return scale, t

    # -- structural predicates --------------------------------------------

    def is_pure(self) -> bool:
        """No even differential, odd images in the even subalgebra: from the report."""
        return self._report.pure

    def differential_length(self) -> DifferentialLength:
        """Word lengths of the differential images, from the validated report."""
        return self.validate().length

    def chi_pi(self) -> int:
        """Homotopy characteristic: dim V^even - dim V^odd."""
        return len(self.even_generators) - len(self.odd_generators)

    # -- validation --------------------------------------------------------

    def validate(self) -> ModelReport:
        """The report of the checks the constructor ran."""
        return self._report

    def _checked_report(self) -> ModelReport:
        """Check degrees, minimality and d^2 = 0, raising on the first failure,
        and report the differential length."""
        lengths: set[int] = set()  # each image's word lengths, decoded once
        for g in self.generators:
            img = self.differential.get(g)
            if img is None:
                continue
            deg = img.degree()
            if not isinstance(deg, int) or deg != g.degree + 1:
                raise DegreeMismatch(
                    g.name,
                    f"d({g.name}) must be homogeneous of degree {g.degree + 1}, got degree {deg}")
            word_lengths = img.word_lengths()
            if min(word_lengths) < 2:
                raise NotMinimal(
                    g.name, f"d({g.name}) has a linear part; minimal models need word length >= 2")
            lengths |= word_lengths
        for g in self.generators:
            img = self.differential.get(g)
            if img is None:
                continue
            if self.d(img):
                raise DifferentialNotSquareZero(
                    g.name, f"d^2({g.name}) = {self.d(img).render()} is nonzero")
        return ModelReport(
            name=self.name,
            pure=all(not g.is_even and img.is_even_polynomial()
                     for g, img in self.differential.items()),
            minimal=True,
            length=DifferentialLength.of(lengths),
            chi_pi=self.chi_pi(),
            n_even=len(self.even_generators),
            n_odd=len(self.odd_generators),
        )

    # -- invariants of elliptic models --------------------------------------

    def formal_dimension(self) -> int:
        """Top nonzero cohomology degree of a pure elliptic model.

        Computed as the sum of odd generator degrees minus sum of (even
        degree - 1).  Requires ellipticity; checked here.
        """
        from .ellipticity import is_elliptic_pure
        if not is_elliptic_pure(self):
            raise NotElliptic(f"model {self.name!r} is not elliptic")
        odd = sum(g.degree for g in self.odd_generators)
        even = sum(g.degree - 1 for g in self.even_generators)
        return odd - even

    # -- derived models ------------------------------------------------------

    def _resolve_set(self, keys: Iterable[Generator | str]) -> set[Generator]:
        return {self.generator(k) for k in keys}

    def quotient_model(self, kill: Iterable[Generator | str],
                       name: str | None = None) -> "SullivanModel":
        """Quotient by the ideal generated by the killed generators.

        Requires that ideal to be closed under d: every killed generator's
        image must die once killed generators are set to zero.  Surviving
        generators keep their positions; their images are the original ones
        with killed generators substituted by zero.
        """
        killed = self._resolve_set(kill)
        for g in sorted(killed, key=lambda g: g.index):
            img = self.differential.get(g)
            if img is not None and img.substitute_zero(killed):
                raise NotDifferentialIdeal(
                    f"cannot kill {g.name}: d({g.name}) = {img.render()} "
                    "does not lie in the ideal generated by the killed set")
        survivors = [g for g in self.generators if g not in killed]
        diff = {}
        for g in survivors:
            img = self.differential.get(g)
            if img is not None:
                new = img.substitute_zero(killed)
                if new:
                    diff[g] = new
        try:
            return SullivanModel(
                survivors, diff,
                name=name or f"{self.name}/({','.join(sorted(g.name for g in killed))})")
        except Exception as exc:  # closure implies d^2 = 0; anything else is a bug
            raise VerificationFailed(f"quotient model failed validation: {exc}") from exc

    def sub_model(self, keep: Iterable[Generator | str],
                  name: str | None = None) -> "SullivanModel":
        """Sub-model on a d-closed subset of generators."""
        kept = self._resolve_set(keep)
        for g in sorted(kept, key=lambda g: g.index):
            img = self.differential.get(g)
            if img is None:
                continue
            outside = img.generators_used() - kept
            if outside:
                raise NotClosedUnderDifferential(
                    f"d({g.name}) = {img.render()} uses generators outside the subset: "
                    + ", ".join(sorted(x.name for x in outside)))
        survivors = [g for g in self.generators if g in kept]
        diff = {g: self.differential[g] for g in survivors if g in self.differential}
        return SullivanModel(survivors, diff,
                             name=name or f"{self.name}|({','.join(sorted(g.name for g in kept))})")

    # -- bases ---------------------------------------------------------------

    def basis_of_degree(self, degree: int) -> list[Monomial]:
        return enumerate_basis(self.generators, degree)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"SullivanModel({self.name!r}; {gens})"


def build_model(pairs: Sequence[tuple[str, int]],
                diffs: Mapping[str, object] | None = None,
                name: str = "model") -> SullivanModel:
    """Convenience constructor.

    ``pairs`` lists (name, degree); ``diffs`` maps odd generator names to
    differential images given either as Elements over the created generators
    or as callables receiving the name -> Element environment.
    """
    gens = make_generators(pairs)
    env = {g.name: Element.from_generator(g) for g in gens}
    d: dict[str, Element] = {}
    if diffs:
        for nm, img in diffs.items():
            if img is None:
                continue
            d[nm] = img(env) if callable(img) else img
    return SullivanModel(gens, d, name=name)
