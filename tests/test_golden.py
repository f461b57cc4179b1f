"""Golden snapshots: the full CLI suite in both views, and the widening phases of both searches.

``golden/cli_suite.json`` holds, for each invocation of
``test_acceptance._cli_suite``, the arguments (model paths relative to the
repository root), the exit code, stdout and stderr.  ``golden/cli_text.json``
holds the same for the suite run without ``--json``, the text view.  The
tests re-run the suite and compare the serialized result with the file byte
for byte, so a refactor that changes any certificate, witness or report, in
either view, fails here.

Only ``needs_combination`` takes a ``search`` in the CLI suite past the
plain subsets, so ``golden/search_widening.json`` covers the combination
candidates further: for three models that need them it holds the stage
pick, the exhaustive search's outcome, the F0 extension, and what the
exhaustive search does at candidate budgets 1, 3, 5 and 40 (the exception
class, or the result); the stage pick takes no budget.

After an intended change of output, regenerate the three files with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

from test_acceptance import _cli_suite

from sullivan import build_model
from sullivan.errors import SullivanError
from sullivan.extension import (
    exhaustive_homogeneous_search,
    f0_extend,
    find_homogeneous_regular_subset,
    first_stage,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_suite.json"
TEXT = pathlib.Path(__file__).resolve().parent / "golden" / "cli_text.json"
WIDENING = pathlib.Path(__file__).resolve().parent / "golden" / "search_widening.json"

WIDENING_BUDGETS = (1, 3, 5, 40)


def _relative(arg: str) -> str:
    path = pathlib.Path(arg)
    if path.is_absolute() and ROOT in path.parents:
        return path.relative_to(ROOT).as_posix()
    return arg


def snapshot(as_json: bool = True) -> str:
    rows = [{"argv": [_relative(a) for a in argv], "exit": code,
             "stdout": out, "stderr": err}
            for argv, code, out, err in _cli_suite(as_json)]
    return json.dumps(rows, indent=1) + "\n"


def _needs_combination():
    """The generators and differentials of models/needs_combination.model,
    for ``build_model``: no plain 2-subset of the odds is regular."""
    gens = [("x", 2), ("w", 2), ("y1", 3), ("y2", 3), ("y3", 3)]
    diffs = {"y1": lambda e: e["x"] ** 2 + e["x"] * e["w"],
             "y2": lambda e: e["x"] * e["w"] + e["w"] ** 2,
             "y3": lambda e: e["x"] * e["w"]}
    return gens, diffs


def _widening_models():
    # ``needs-combination`` itself, then two variants.  The first adds an odd
    # generator in a second degree with zero differential, so the exhaustive
    # search mixes two degrees.  The second adds y4 in degree 3 with
    # d(y4) = 2xw, so the stage pick walks four active odds.
    gens, diffs = _needs_combination()
    return [build_model(gens, diffs, name="needs-combination"),
            build_model(gens + [("y4", 5)], diffs, name="needs-combination-4"),
            build_model(gens + [("y4", 3)],
                        {**diffs, "y4": lambda e: 2 * e["x"] * e["w"]},
                        name="needs-combination-2xw")]


def _choice_dict(choice) -> dict:
    return {"elements": [e.render() for e in choice.elements],
            "images": [e.render() for e in choice.images],
            "subset": None if choice.subset is None else list(choice.subset),
            "height": choice.height, "tried": choice.tried}


def _outcome(call) -> dict:
    try:
        return {"result": call()}
    except SullivanError as ex:
        return {"error": type(ex).__name__}


def widening_snapshot() -> str:
    rows = []
    for model in _widening_models():
        budgets = {}
        for budget in WIDENING_BUDGETS:
            budgets[str(budget)] = {"search": _outcome(lambda: exhaustive_homogeneous_search(
                model, max_candidates=budget).to_dict())}
        rows.append({
            "model": model.name,
            "stage": _choice_dict(find_homogeneous_regular_subset(first_stage(model))),
            "search": exhaustive_homogeneous_search(model).to_dict(),
            "f0_extend": f0_extend(model).to_dict(),
            "budgets": budgets,
        })
    return json.dumps(rows, indent=1) + "\n"


def test_cli_suite_matches_golden_snapshot():
    assert snapshot() == GOLDEN.read_text(encoding="utf-8")


def test_cli_text_view_matches_golden_snapshot():
    assert snapshot(as_json=False) == TEXT.read_text(encoding="utf-8")


def test_search_widening_matches_golden_snapshot():
    assert widening_snapshot() == WIDENING.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(snapshot(), encoding="utf-8")
    TEXT.write_text(snapshot(as_json=False), encoding="utf-8")
    WIDENING.write_text(widening_snapshot(), encoding="utf-8")
