"""Tests of the benchmark itself: python3 -m pytest bench -q (about four minutes)."""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import tracer  # noqa: E402

#: the seed the reference figures in README.md were taken on is 1; these
#: tests use another
SECOND_SEED = 2


def run_bench(workload: str, seed: int, trace: int, seconds: int = 1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = dict(kv.split("=", 1) for kv in lines[-2].split())
    return summary, json.loads(lines[-1])


def test_self_time_arithmetic():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        (tracer.BOOKKEEPING, 9.0, 9.5, 0),
        ("c", 6.0, 8.0, 3),
        ("c", 7.0, 8.5, 3),  # overlaps its sibling: covered time counts once
    ]
    got = tracer.self_times(spans)
    assert got["a"] == (1, pytest.approx(10 - 3 - 4 - 0.5))
    assert got["b"] == (2, pytest.approx((3 - 1) + (4 - 2.5)))
    assert got["c"] == (3, pytest.approx(1 + 2 + 1.5))
    assert tracer.BOOKKEEPING not in got
    # a window of spans starting at absolute index 3 keeps parent indices
    window = tracer.self_times(spans[3:], lo=3)
    assert window["b"] == (1, pytest.approx(1.5))


def test_patching_reaches_internal_call_sites():
    import sullivan.extension as ext
    import sullivan.groebner as gb
    from sullivan.parsing import load_model

    original = gb.buchberger
    rec = tracer.SpanRecorder()
    uninstall = tracer.install(rec)
    try:
        assert ext.buchberger is not original
        ext.f0_extend(load_model(str(ROOT / "models" / "coformal_tower.model")))
    finally:
        uninstall()
    assert ext.buchberger is original and gb.buchberger is original
    spans = rec.spans
    parents = {spans[p][0].split(".")[0] for name, _, _, p in spans
               if name == "groebner.buchberger" and p >= 0}
    assert {"ellipticity", "extension"} <= parents
    assert rec.counts["groebner.buchberger.basis_terms"] > 0
    assert {"groebner.buchberger", "model.d", "cli.main"} <= rec.wrapped


def test_every_round_starts_from_a_fresh_program():
    import worker

    first = worker.import_program()["sullivan.groebner"]
    second = worker.import_program()["sullivan.groebner"]
    assert first is not second
    assert second.buchberger is not first.buchberger


def test_end_to_end_takes_medians_at_the_reference_speed():
    import run

    doc = {  # two models, three rounds; round 1 ran at half speed
        "texts": ["a", "b"], "speeds": [1.0, 1.0, 2.0, 2.0, 1.0, 1.0],
        "latencies": [0.010, 0.100, 0.030, 0.220, 0.012, 0.090],
        "outcomes": [True, True, True, True, True, False],
        "setup_s": [1.0, 3.0, 1.2], "setup_speed": [1.0, 2.0, 1.0],
        "peak_rss_mb": 20.0,
    }
    m = {k: v["value"] for k, v in run.end_to_end(doc).items()}
    # model a: 0.010, 0.015, 0.012 -> 0.012; model b: 0.100, 0.110 -> 0.105
    assert m["models_per_s"] == pytest.approx(2 / (0.012 + 0.105))
    assert m["model_p50_ms"] == pytest.approx(1e3 * (0.012 + 0.105) / 2)
    assert m["setup_s"] == pytest.approx(1.2)
    assert m["peak_rss_mb"] == 20.0


def test_calibration_pauses_the_collector_and_restores_it():
    import gc

    import worker

    assert gc.isenabled()
    meter = worker.Speedometer()
    meter.sample(3)
    assert len(meter.took) == 3 and meter.speed(meter.at[0], meter.at[-1]) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        worker.calibration_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_per_layer_names_a_metric_the_tracer_does_not_record():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"]: 0 for m in spec["per_layer"]}
    metrics, problems = run.per_layer({"layers": [layers, layers]})
    assert problems == [] and set(metrics) == set(layers)
    gone = spec["per_layer"][0]["name"]
    _, problems = run.per_layer({"layers": [{k: v for k, v in layers.items() if k != gone}]})
    assert problems == [f"{gone} is not recorded by the tracer"]


def test_checker_is_independent_and_rejects_tampered_outputs():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, checker; print(sorted(m for m in sys.modules if 'sullivan' in m))"],
        cwd=HERE, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "[]"

    from sullivan.bounds import tc_upper_bound
    from sullivan.ellipticity import cohomology_dims
    from sullivan.extension import f0_extend
    from sullivan.parsing import parse_model

    text = (ROOT / "models" / "coformal_tower.model").read_text()
    m = parse_model(text)
    good = {"extend": f0_extend(m).to_dict(), "bound": tc_upper_bound(m).to_dict()}
    assert checker.check("random-suite", text, json.dumps(good)) == []

    def tampered(edit):
        out = json.loads(json.dumps(good))
        edit(out)
        return checker.check("random-suite", text, json.dumps(out))

    cert = "certificates"
    assert tampered(lambda o: o["extend"][cert][0].update(
        exponent=o["extend"][cert][0]["exponent"] + 1))
    assert tampered(lambda o: o["extend"][cert][0].update(witness="2*z1"))
    assert tampered(lambda o: o["extend"]["verification"].update(quotient_dimension=7))
    assert tampered(lambda o: o["extend"]["z_odd"][1].update(element="y2"))
    assert tampered(lambda o: o["bound"]["tc_upper"].update(value=6))

    f = 11  # 3 + 5 + 7 - (1 + 3)
    dims = cohomology_dims(m, f + 6)
    good_h = {"elliptic": True, "formal_dimension": f, "dims": dims}
    assert checker.check("cohomology-oracle", text, json.dumps(good_h)) == []
    bad_dims = list(dims)
    bad_dims[2] += 1
    assert checker.check("cohomology-oracle", text,
                         json.dumps(dict(good_h, dims=bad_dims)))


@pytest.mark.parametrize("workload", ["random-suite", "cohomology-oracle",
                                      "scaling-ladder", "search-reject"])
def test_workload_on_second_seed(workload):
    summary, result = run_bench(workload, SECOND_SEED, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {
        "setup_s", "models_per_s", "model_p50_ms", "model_p90_ms", "peak_rss_mb"}
    assert int(summary["attempted"]) == result["attempted"]


def test_traced_counts_and_outputs_repeat():
    first_summary, first = run_bench("search-reject", SECOND_SEED, trace=1)
    second_summary, second = run_bench("search-reject", SECOND_SEED, trace=1)
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}
    assert counts == again
    assert counts["cli.main.calls"] == 24  # one per model of a round
    assert counts["extension.exhaustive_homogeneous_search.rejected"] > 0
    assert first_summary["outputs_sha256"] == second_summary["outputs_sha256"]
    untraced_summary, _ = run_bench("search-reject", SECOND_SEED, trace=0)
    assert untraced_summary["outputs_sha256"] == first_summary["outputs_sha256"]
