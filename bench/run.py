"""Benchmark of the sullivan engine: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: random-suite, cohomology-oracle, scaling-ladder, search-reject
(see bench/README.md).  The run happens in a child process (bench/worker.py)
that imports the program from src/; this process then re-checks every
output with bench/checker.py, which shares no code with the program, and
prints a summary line followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
wrapping installed; with --trace 1 they are the per-layer ones from a run
with every public function of the program wrapped (bench/tracer.py).
Exits 1 without a result when the program cannot be imported or run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("random-suite", "cohomology-oracle", "scaling-ladder", "search-reject")
#: the worker is killed after this long, so a run ends within 180 s
WORKER_TIMEOUT_S = 150


def end_to_end(doc: dict) -> dict:
    """Each model's median latency over the run's rounds, then percentiles
    and throughput over models.  Every latency, and every set-up time, is
    first divided by the machine's speed around it (``worker.Speedometer``:
    the fixed calibration work's time against the reference machine's), so
    the figures are at the reference machine's speed and the shared
    machine's changes of speed largely cancel."""
    n = len(doc["texts"])
    typical = []
    for i in range(n):
        times = [doc["latencies"][k] / doc["speeds"][k]
                 for k in range(i, len(doc["latencies"]), n) if doc["outcomes"][k]]
        if times:
            typical.append(statistics.median(times))
    if not typical:
        return {}
    setup = [t / s for t, s in zip(doc["setup_s"], doc["setup_speed"])]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "models_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "model_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
        "model_p90_ms": {"value": 1e3 * statistics.quantiles(typical, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(doc: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics BENCHMARK.json names: a count is one round's
    (every round must repeat it exactly), a time the median over rounds.
    Each name must be one the tracer records, as a wrapped function's calls
    or self time or as a counter, so a renamed function cannot read as 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    out = {}
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if any(name not in r for r in doc["layers"]):
            problems.append(f"{name} is not recorded by the tracer")
            continue
        values = [r[name] for r in doc["layers"]]
        if unit == "s":
            value = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between rounds: {sorted(set(values))}")
            value = values[0]
        out[name] = {"value": value, "unit": unit}
    return out, problems


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload: str, doc: dict) -> list[str]:
    import checker  # sympy is imported here, outside the measured process

    problems = []
    for i in doc["mismatched"]:
        problems.append(f"model {i}: output differs between rounds")
    for i, (text, output) in enumerate(zip(doc["texts"], doc["outputs"])):
        if output is not None:
            problems += [f"model {i}: {p}" for p in checker.check(workload, text, output)]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sullivan" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'sullivan'} is missing\n")
        return 1

    doc = run_worker(args)
    problems = check_outputs(args.workload, doc)
    if args.trace:
        metrics, layer_problems = per_layer(doc)
        problems += layer_problems
    else:
        metrics = end_to_end(doc)
    attempted = len(doc["outcomes"])
    failed = attempted - sum(doc["outcomes"])
    digest = hashlib.sha256("\n".join(o or "" for o in doc["outputs"]).encode()).hexdigest()
    for p in problems[:20]:
        print(f"check failed: {p}")
    for i, err in sorted(doc["errors"].items(), key=lambda kv: int(kv[0])):
        print(f"operation failed: model {i}: {err}")
    print(f"workload={args.workload} seed={args.seed} models={len(doc['texts'])} "
          f"rounds={doc['rounds']} attempted={attempted} failed={failed} "
          f"wall_s={doc['wall_s']:.3f} speed={statistics.median(doc['speeds']):.3f} "
          f"outputs_sha256={digest}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
