"""Command-line interface: validate, analyze, extend, search, bound, cohomology.

Each ``cmd_<name>(model, args)`` returns ``(payload, lines, exit_code)`` and
neither loads its model nor writes to stdout.  ``main`` loads the model once,
so a missing file is reported before any option check, and prints one view:
the JSON payload under ``--json``, else the text lines.  The text of
``extend`` and ``search`` reads the strings their payload holds.

Exit codes: 0 success; 1 mathematical negative result (the input is fine but
the requested structure does not exist or a hypothesis fails); 2 input error
(unparseable or invalid model, unsatisfiable configuration); 3 internal
fault (a certified invariant broke, or any other unexpected exception; both
indicate a bug); each package error's class declares its exit code
(``errors``).  Every error but a usage error is one ``error[<code>]: message``
line on stderr.  A usage error (an unknown option, a missing argument) is
argparse's: a usage line and a message on stderr, exit 2, raised as
``SystemExit`` when ``main`` is called in-process.

JSON output is key-sorted and content-addressed: identical inputs produce
byte-identical bytes.  The stage pick of ``extend`` and the candidates of
``search`` follow one fixed order each, so there is no seed to set; only
``search`` takes a budget (``--max-search``), as only it walks whole picks.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from . import ellipticity as ell
from . import extension as ext
from .errors import InvalidInput, SullivanError
from .model import SullivanModel
from .parsing import load_model

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _model_summary(model: SullivanModel) -> str:
    return f"{model.name}: " + ", ".join(f"{g.name}:{g.degree}" for g in model.generators)


def cmd_validate(model: SullivanModel, args):
    report = model.validate()
    return report.to_dict(), [
        _model_summary(model),
        f"valid minimal model; pure={report.pure} "
        f"length={report.length.render()} chi_pi={report.chi_pi}"], EXIT_OK


def cmd_analyze(model: SullivanModel, args):
    report = replace(model.validate(), elliptic=ell.is_elliptic(model))  # the cached one stays
    if report.elliptic and model.is_pure():
        report.formal_dimension = model.formal_dimension()
        report.exponents = ell.all_nilpotency_exponents(model)
    payload = report.to_dict()
    lines = [_model_summary(model),
             f"pure={payload['pure']} minimal={payload['minimal']} "
             f"length={model.differential_length().render()} "
             f"elliptic={payload['elliptic']} chi_pi={payload['chi_pi']}"]
    if "formal_dimension" in payload:
        lines.append(f"formal dimension {payload['formal_dimension']}")
    lines += [f"nilpotency exponent of {name}: {n}"
              for name, n in sorted(payload.get("exponents", {}).items())]
    return payload, lines, EXIT_OK


def cmd_extend(model: SullivanModel, args):
    payload = ext.f0_extend(model).to_dict()
    lines = [_model_summary(model),
             "F0-basis extension found:" if payload["z_odd"]
             else "F0-basis extension is empty (no even generators)"]
    lines += [f"  degree {z['degree']}: {z['element']}" for z in payload["z_odd"]]
    lines += [f"  certificate: d({c['witness']}) = {c['generator']}^{c['exponent']}"
              for c in payload["certificates"]]
    return payload, lines, EXIT_OK


def cmd_search(model: SullivanModel, args):
    if args.max_search < 1:
        raise InvalidInput(f"--max-search must be at least 1, got {args.max_search}")
    payload = ext.exhaustive_homogeneous_search(
        model, max_candidates=args.max_search).to_dict()
    if payload["found"] is not None:
        return payload, ["homogeneous F0 basis: " + ", ".join(payload["found"])], EXIT_OK
    lines = ["no homogeneous F0-basis extension "
             f"(tried {payload['tried']} candidates, "
             f"exhaustive={payload['fully_exhaustive']})"]
    for r in payload["rejected"]:
        extra = f" (witness {r['witness']})" if r.get("witness") else ""
        lines.append(f"  rejected {{{', '.join(r['candidate'])}}}: {r['reason']}{extra}")
    return payload, lines, EXIT_NEGATIVE


def cmd_bound(model: SullivanModel, args):
    if args.pure_sub:
        names = [n for part in args.pure_sub for n in part.split(",") if n]
        report = bounds_mod.tc_upper_bound_nonpure(model, names)
    else:
        report = bounds_mod.tc_upper_bound(model)
    return report.to_dict(), [
        _model_summary(model),
        f"cat <= {report.cat_value}  [{report.cat_provenance}]",
        f"tc  <= {report.tc_upper}  [{report.tc_provenance}]",
        *(f"note: {note}" for note in report.applicability_notes)], EXIT_OK


def cmd_cohomology(model: SullivanModel, args):
    if args.up_to is None:
        raise InvalidInput("--up-to is required for cohomology")
    if args.up_to < 0:
        raise InvalidInput(f"--up-to {args.up_to} is negative")
    dims = ell.cohomology_dims(model, args.up_to)
    return {"model": model.name, "up_to": args.up_to, "dims": dims}, [
        _model_summary(model),
        *(f"H^{k} = {d}" for k, d in enumerate(dims) if d or k == 0),
        f"total dimension through degree {args.up_to}: {sum(dims)}"], EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact invariants of pure Sullivan minimal models: "
                    "ellipticity, F0-basis extensions, category and "
                    "topological-complexity bounds.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="path to a .model file")
        sp.add_argument("--json", action="store_true",
                        help="emit a key-sorted JSON report on stdout")

    sp = sub.add_parser("validate", help="parse and validate a model file")
    common(sp)

    sp = sub.add_parser("analyze",
                        help="structural report: pureness, length, ellipticity, "
                             "exponents, formal dimension")
    common(sp)

    sp = sub.add_parser("extend", help="construct a verified F0-basis extension")
    common(sp)

    sp = sub.add_parser("search",
                        help="exhaustive search for a homogeneous F0 basis")
    common(sp)
    sp.add_argument("--max-search", type=int, default=20000,
                    help="candidate budget before giving up")

    sp = sub.add_parser("bound",
                        help="category and topological-complexity upper bounds")
    common(sp)
    sp.add_argument("--pure-sub", action="append", default=None,
                    metavar="NAMES",
                    help="comma-separated generators of a pure elliptic "
                         "sub-model (routes the non-pure bound)")

    sp = sub.add_parser("cohomology", help="exact cohomology dimensions by degree")
    common(sp)
    sp.add_argument("--up-to", type=int, default=None, metavar="D",
                    help="top degree to compute (required)")
    return p


_parser = functools.cache(build_parser)  # the parser of ``main``, built on its first call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a verified witness may have more digits than the interpreter prints by
    # default (4300); every input number is bounded by parsing.MAX_DIGITS.
    # the limit is the interpreter's, so in-process callers get theirs back
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7 and later
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        model = load_model(args.model)  # a missing file before any option check
        # looked up by name on each call: the cached parser binds no function
        payload, lines, code = globals()[f"cmd_{args.command}"](model, args)
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n" if args.json
                         else "".join(line + "\n" for line in lines))
        return code
    except SullivanError as ex:  # its class carries the exit code
        sys.stderr.write(f"error[{ex.code}]: {ex}\n")
        return ex.exit
    except OSError as ex:
        sys.stderr.write(f"error[io]: {ex}\n")
        return EXIT_INPUT
    except Exception as ex:  # a bug: report it on one line, never a traceback
        detail = " ".join(f"{type(ex).__name__}: {ex}".split())
        sys.stderr.write(f"error[internal]: {detail}\n")
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
