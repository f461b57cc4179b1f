"""Golden snapshot of the full CLI suite: every command on every shipped model.

``golden/cli_suite.json`` holds, for each invocation of
``test_acceptance._cli_suite``, the arguments (model paths relative to the
repository root), the exit code, stdout and stderr.  The test re-runs the
suite and compares the serialized result with the file byte for byte, so a
refactor that changes any certificate, witness or report fails here.

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

from test_acceptance import _cli_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_suite.json"


def _relative(arg: str) -> str:
    path = pathlib.Path(arg)
    if path.is_absolute() and ROOT in path.parents:
        return path.relative_to(ROOT).as_posix()
    return arg


def snapshot() -> str:
    rows = [{"argv": [_relative(a) for a in argv], "exit": code,
             "stdout": out, "stderr": err}
            for argv, code, out, err in _cli_suite()]
    return json.dumps(rows, indent=1) + "\n"


def test_cli_suite_matches_golden_snapshot():
    assert snapshot() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(snapshot(), encoding="utf-8")
