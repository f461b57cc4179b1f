"""One benchmark run of one workload, in its own process.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports the program from ``src/`` next to this directory, builds the
workload's inputs from the seed, then runs whole rounds of its operations,
one after another on one thread, until ``--seconds`` have passed.  Every
round starts from a freshly imported program, so no state the program keeps
between calls carries over from one round to the next.  Prints one JSON
document on stdout: the model texts, every operation's latency and outcome,
the first rendered output of each model (later rounds must repeat it byte
for byte), the set-up times, the machine's speed around each set-up and
each operation (see ``Speedometer``), peak memory and, with ``--trace 1``,
the per-round layer metrics; the traced run's spans go to
``bench/out/spans-<workload>-<seed>.jsonl``.  ``run.py`` checks the outputs
in another process.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: an operation running longer than this counts as failed
OP_TIME_LIMIT_S = 60
#: set-up (import plus input generation) is repeated and the median reported
SETUP_REPEATS = 3
#: a run holds at least this many rounds, so every model's latency is a
#: median over several repeats
MIN_ROUNDS = 3
#: calibration samples taken before and after each set-up and before each
#: round; one more is taken after every operation
CALIBRATION_SAMPLES = 8
#: median of ``calibration_s()`` on the reference machine (a shared two-core
#: virtual machine, Python 3.11); timings are reported at this speed
REFERENCE_CALIBRATION_S = 0.00160
#: a timing is scaled by the calibration samples taken this close to it
SPEED_WINDOW_S = 0.5

_CAL_A = {(i, j, 3 - i): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
_CAL_B = {(j, i, i + j): Fraction(2 * j - 3, i + 1) for i in range(4) for j in range(4)}


def calibration_s() -> float:
    """Seconds taken by a fixed piece of the kind of work the engine does
    most, independent of the program: a product of two polynomials with
    Fraction coefficients keyed by exponent tuples.  The garbage collector
    is paused, so the size of the program's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out: dict = {}
        for e, c in _CAL_A.items():
            for f, d in _CAL_B.items():
                key = tuple(x + y for x, y in zip(e, f))
                out[key] = out.get(key, 0) + c * d
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Calibration samples taken through a run: when each ended and how
    long it took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            took = calibration_s()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def speed(self, t0: float, t1: float) -> float:
        """How much slower than the reference machine the samples taken
        within ``SPEED_WINDOW_S`` of [t0, t1] ran, on average: 1.0 at the
        reference speed, 1.2 when 20% slower.  The machine's speed changes
        within a second, so only nearby samples tell what a timing met."""
        lo = bisect.bisect_left(self.at, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + SPEED_WINDOW_S)
        near = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return statistics.fmean(near) / REFERENCE_CALIBRATION_S


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIME_LIMIT_S} s")


def import_program():
    """Import the package afresh: each set-up repeat pays the import, and
    each round starts from a program that has run nothing yet."""
    for name in [n for n in sys.modules if n == "sullivan" or n.startswith("sullivan.")]:
        del sys.modules[name]
    import sullivan  # noqa: F401
    import sullivan.cli  # noqa: F401
    return sys.modules


def finite_predicate(mods):
    """finite(polys, even_degrees): the program's finite-quotient decision."""
    algebra = mods["sullivan.algebra"]
    groebner = mods["sullivan.groebner"]

    def finite(polys, degrees):
        gens = [algebra.Generator(f"x{i + 1}", d, i) for i, d in enumerate(degrees)]
        elements = []
        for p in polys:
            terms = {}
            for exps, c in p.items():
                mon = algebra.Monomial.make([(g, e) for g, e in zip(gens, exps) if e], ())
                terms[mon] = c
            elements.append(algebra.Element(terms))
        return groebner.quotient_is_finite_dimensional(groebner.buchberger(elements, gens))

    return finite


# -- operations: model text in, rendered output out -----------------------------

def op_random_suite(mods, text, path):
    m = mods["sullivan.parsing"].parse_model(text)
    res = mods["sullivan.extension"].f0_extend(m)
    rep = mods["sullivan.bounds"].tc_upper_bound(m)
    return json.dumps({"extend": res.to_dict(), "bound": rep.to_dict()}, sort_keys=True)


def op_cohomology(mods, text, path):
    ell = mods["sullivan.ellipticity"]
    m = mods["sullivan.parsing"].parse_model(text)
    elliptic = ell.is_elliptic(m)
    f = m.formal_dimension()
    dims = ell.cohomology_dims(m, f + workloads.COHOMOLOGY_MARGIN)
    return json.dumps({"elliptic": elliptic, "formal_dimension": f, "dims": dims},
                      sort_keys=True)


def op_scaling(mods, text, path):
    m = mods["sullivan.parsing"].parse_model(text)
    return json.dumps(mods["sullivan.extension"].f0_extend(m).to_dict(), sort_keys=True)


class CliFailed(Exception):
    pass


def op_search(mods, text, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["sullivan.cli"].main(["search", path, "--json"])
    if code not in (0, 1):  # 1 is the negative answer "no basis exists"
        raise CliFailed(f"exit {code}: {err.getvalue().strip()}")
    return json.dumps({"exit": code, "stdout": out.getvalue()}, sort_keys=True)


OPERATIONS = {
    "random-suite": op_random_suite,
    "cohomology-oracle": op_cohomology,
    "scaling-ladder": op_scaling,
    "search-reject": op_search,
}


def layer_metrics(rec: tracing.SpanRecorder, lo: int) -> dict:
    """Calls, self time and counters of one round's spans, which start at
    index lo; a wrapped function the round never called has 0 calls."""
    out = {}
    for name in rec.wrapped:
        out[f"{name}.calls"], out[f"{name}.self_s"] = 0, 0.0
    for name, (calls, self_s) in tracing.self_times(rec.spans[lo:], lo).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(dict.fromkeys(tracing.COUNTED, 0))
    out.update(rec.counts)
    calls = out.get("groebner.buchberger.calls", 0)
    distinct = len(rec.distinct.get("groebner.buchberger.distinct", ()))
    out["groebner.buchberger.distinct_ratio"] = distinct / calls if calls else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    meter = Speedometer()
    setup_s, setup_speed = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        meter.sample(CALIBRATION_SAMPLES)
        t0 = time.perf_counter()
        mods = import_program()
        specs = workloads.GENERATORS[args.workload](args.seed, finite_predicate(mods))
        t1 = time.perf_counter()
        meter.sample(CALIBRATION_SAMPLES)
        setup_s.append(t1 - t0)
        setup_speed.append(meter.speed(t0, t1))
    texts = [s.text() for s in specs]

    model_dir = None
    paths = [None] * len(texts)
    if args.workload == "search-reject":
        model_dir = OUT / f"models-{os.getpid()}"
        model_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for spec, text in zip(specs, texts):
            p = model_dir / f"{spec.name}.model"
            p.write_text(text, encoding="utf-8")
            paths.append(str(p))

    op = OPERATIONS[args.workload]
    rec = tracing.SpanRecorder() if args.trace else None

    signal.signal(signal.SIGALRM, _alarm)
    starts, latencies, outcomes, errors = [], [], [], {}
    first_output: list[str | None] = [None] * len(texts)
    mismatched = []
    rounds, round_metrics = 0, []
    t_start = time.perf_counter()
    try:
        while True:
            mods = import_program()
            gc.collect()  # the previous round's program is freed before the clock runs
            meter.sample(CALIBRATION_SAMPLES)
            if rec is not None:
                lo = len(rec.spans)
                rec.counts, rec.distinct = {}, {}
                tracing.install(rec)
            for i, text in enumerate(texts):
                signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
                t0 = time.perf_counter()
                try:
                    out = op(mods, text, paths[i])
                    ok = True
                except Exception as ex:  # a failed operation is counted, the run goes on
                    out, ok = None, False
                    errors.setdefault(i, "".join(
                        traceback.format_exception_only(type(ex), ex)).strip())
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                starts.append(t0)
                latencies.append(time.perf_counter() - t0)
                outcomes.append(ok)
                meter.sample()
                if ok:
                    if first_output[i] is None:
                        first_output[i] = out
                    elif out != first_output[i]:
                        mismatched.append(i)
            rounds += 1
            if rec is not None:
                round_metrics.append(layer_metrics(rec, lo))
            if rounds >= MIN_ROUNDS and time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        if model_dir is not None:
            shutil.rmtree(model_dir, ignore_errors=True)
    wall = time.perf_counter() - t_start
    if rec is not None:
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    doc = {
        "rounds": rounds,
        "wall_s": wall,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "speeds": [meter.speed(t0, t0 + dt) for t0, dt in zip(starts, latencies)],
        "texts": texts,
        "latencies": latencies,
        "outcomes": outcomes,
        "errors": {str(k): v for k, v in errors.items()},
        "outputs": first_output,
        "mismatched": sorted(set(mismatched)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": round_metrics,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
