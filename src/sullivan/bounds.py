"""Upper bounds for rational LS-category and topological complexity.

For an elliptic model of constant differential length l the category bound
is dim V^odd + (l-2)*dim V^even; at l = 2 this reduces to dim V^odd.  The
topological-complexity bound is 2*cat + chi_pi, which at l = 2 collapses to
the generator count dim V.  These are upper bounds only and every number in
a report carries a provenance tag naming the result it instantiates.

Zero differentials have no length; an all-zero differential is treated as
coformal (l = 2), which is the only value consistent with the even part
being empty whenever such a model is elliptic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ellipticity import is_elliptic, is_elliptic_pure
from .errors import (
    EvenMismatch,
    NonConstantLength,
    NotClosedUnderDifferential,
    NotElliptic,
    NotPure,
    SubModelNotClosed,
    SubModelNotPure,
    VerificationFailed,
)
from .model import SullivanModel

# provenance tags are schema constants consumed by downstream tooling
TAG_CAT_COFORMAL = "coformal"
TAG_CAT_CONSTANT_LENGTH = "lechuga-murillo"
TAG_TC_PURE = "thm-3.1"
TAG_TC_COFORMAL = "cor-3.2"
TAG_TC_EXTENSION = "thm-3.3"
TAG_TC_EXTENSION_COFORMAL = "cor-3.5"


@dataclass
class BoundReport:
    """Category and topological-complexity upper bounds with provenance."""

    model: str
    chi_pi: int
    cat_value: int
    cat_provenance: str
    tc_upper: int
    tc_provenance: str
    applicability_notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"model": self.model, "chi_pi": self.chi_pi,
                "applicability_notes": list(self.applicability_notes),
                "cat_value": {"value": self.cat_value, "provenance": self.cat_provenance},
                "tc_upper": {"value": self.tc_upper, "provenance": self.tc_provenance}}


def _bound_report(model: SullivanModel, notes: list[str],
                  tc_tags=(TAG_TC_PURE, TAG_TC_COFORMAL)) -> BoundReport:
    """cat = dim V^odd + (l-2)*dim V^even and TC <= 2*cat + chi_pi, tagged.

    Resolves the length before testing ellipticity, so NonConstantLength
    wins over NotElliptic.  ``tc_tags`` names the TC result for l != 2 and
    for the coformal case l = 2, where the bound provably equals the
    generator count; that identity is re-checked.
    """
    length = model.differential_length()
    if length.kind == "constant":
        l = length.value
    elif length.kind == "zero":
        notes.append("all differentials vanish; treated as coformal (length 2)")
        l = 2
    else:
        raise NonConstantLength(
            f"model {model.name!r} has differential length {length.render()}")
    if not is_elliptic(model):
        raise NotElliptic(f"model {model.name!r} is not elliptic")
    cat = len(model.odd_generators) + (l - 2) * len(model.even_generators)
    chi = model.chi_pi()
    tc = 2 * cat + chi
    coformal = l == 2
    report = BoundReport(
        model.name, chi, applicability_notes=notes, cat_value=cat,
        cat_provenance=TAG_CAT_COFORMAL if coformal else TAG_CAT_CONSTANT_LENGTH,
        tc_upper=tc, tc_provenance=tc_tags[1] if coformal else tc_tags[0])
    if coformal:
        if tc != model.dim_v():
            raise VerificationFailed(
                "coformal bound does not equal the generator count")
        notes.append(f"coformal: bound equals dim V = {tc}")
    return report


def cat_estimate(model: SullivanModel) -> int:
    """Category upper bound for an elliptic constant-length model.

    dim V^odd + (l-2)*dim V^even; the model does not have to be pure.
    """
    return _bound_report(model, []).cat_value


def tc_upper_bound(model: SullivanModel) -> BoundReport:
    """Topological-complexity upper bound 2*cat + chi_pi for pure models.

    At length 2 the value provably equals the generator count; that identity
    is re-checked and the coformal tag is used.
    """
    if not model.is_pure():
        raise NotPure(f"model {model.name!r} is not pure")
    return _bound_report(model, [])


def tc_upper_bound_nonpure(model: SullivanModel, pure_sub) -> BoundReport:
    """Topological-complexity bound routed through a pure elliptic sub-model.

    The sub-model spanned by ``pure_sub`` must be closed under the
    differential, pure, elliptic, and contain every even generator.  The
    bound itself is 2*cat + chi_pi of the full model.
    """
    try:
        sub = model.sub_model(pure_sub, name=f"{model.name}/pure-part")
    except NotClosedUnderDifferential as ex:
        raise SubModelNotClosed(str(ex)) from ex
    if not sub.is_pure():
        raise SubModelNotPure(
            f"sub-model on {sorted(g.name for g in sub.generators)} is not pure")
    if set(sub.even_generators) != set(model.even_generators):
        missing = {g.name for g in model.even_generators} - {
            g.name for g in sub.even_generators}
        raise EvenMismatch(
            f"sub-model misses even generators {sorted(missing)}")
    if not is_elliptic_pure(sub):
        raise NotElliptic(f"pure sub-model of {model.name!r} is not elliptic")
    notes = [
        "pure sub-model on {%s}: closed under d, pure, elliptic, "
        "full even part" % ", ".join(g.name for g in sub.generators)
    ]
    return _bound_report(model, notes,
                         (TAG_TC_EXTENSION, TAG_TC_EXTENSION_COFORMAL))
