"""Smoke-size tests of the benchmark itself.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = {"gsdist": 20, "census-small": 20, "census-wide": 4, "matrix-roundtrip": 1}
PRINTED_NAMES = ["setup_s", "wall_s_p50", "wall_s_tail", "cpu_s", "peak_rss_mb", "error_rate"]


@pytest.fixture(autouse=True)
def in_checkout(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.syspath_prepend(run.SRC)


def _traced(name, workdir):
    workload = WORKLOADS[name]
    size = SMOKE[name]
    reference = workload.reference(7, size) if workload.reference else None
    tally = run.Tally()
    metrics, _, tracer = run.traced(workload, 7, 0, str(workdir), reference, tally, size=size)
    assert tally.failed == 0, tally.errors
    return metrics, tracer


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_counts_repeat_and_spans_nest(name, tmp_path):
    first, tracer = _traced(name, tmp_path)
    second, _ = _traced(name, tmp_path)
    assert {k: first[k] for k in run.EXACT} == {k: second[k] for k in run.EXACT}
    assert first["cli.output.bytes"] > 0

    spans = tracer.spans
    assert spans
    for name_, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            _, _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end
    assert min(tracer.self_times_ns()) >= 0


def test_traced_counts_match_the_workload_shape(tmp_path):
    metrics, _ = _traced("gsdist", tmp_path)
    trials, rows, states = SMOKE["gsdist"], 11, 40 + 106 + 137 + 132 + 103 + 68 + 38 + 18 + 8 + 3 + 1
    assert metrics["rng.substream.calls"] == trials * rows
    assert metrics["rng.normals.drawn"] == trials * states
    assert metrics["linalg.eigvalsh.calls"] == 0

    metrics, _ = _traced("census-wide", tmp_path)
    assert metrics["linalg.eigvalsh.calls"] == SMOKE["census-wide"] * 4
    assert metrics["linalg.eigvalsh.flops_computed"] == SMOKE["census-wide"] * 4 * (4 * 64 ** 3 // 3)


def test_tracer_restores_every_patched_name(tmp_path):
    import numpy as np
    from irreplab import cli, rng, su2

    before = (np.linalg.eigvalsh, rng.SubStream.normals, su2.substream, cli.main)
    _traced("census-small", tmp_path)
    assert (np.linalg.eigvalsh, rng.SubStream.normals, su2.substream, cli.main) == before


def test_quiet_rounds_drop_the_most_stolen_half():
    def round_(steal):
        return [{"steal_ticks": steal, "host_ticks": 100}]

    rounds = [round_(s) for s in (0, 30, 5, 50)]
    assert run.least_stolen(rounds) == [round_(0), round_(5)]
    calm = [round_(0) for _ in range(3)]
    assert run.least_stolen(calm) == calm


def test_tail_has_ten_samples_above_and_is_never_below_the_median():
    assert run.tail([float(x) for x in range(40)]) == (29.0, 75.0)
    assert run.tail([float(x) for x in range(15)]) == (7.0, 100.0 * 8 / 15)


def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, trace", [("census-small", 0), ("census-small", 1),
                                         ("matrix-roundtrip", 0)])
def test_every_metric_is_printed_with_its_unit(name, trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = spec["per_layer" if trace else "end_to_end"]
    out = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in expected:
        assert printed[metric["name"]] == metric["unit"]
    if not trace:
        throughput = "trials_per_s" if name != "matrix-roundtrip" else "roundtrips_per_s"
        for printed_name in PRINTED_NAMES + [throughput]:
            assert printed_name in printed


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    with open(os.path.join(run.HERE, "predictions.json"), encoding="utf-8") as fh:
        predicted = {m for layer in json.load(fh)["layers"] for m in layer["per_layer"]}
    layer_metrics = {name for name, _ in run.PER_LAYER if not name.startswith("trace.")}
    assert predicted == layer_metrics


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "gsdist", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
