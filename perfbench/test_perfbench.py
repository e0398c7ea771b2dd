"""The benchmark's own tests, on tiny ranks (``--size smoke``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(workload, trace, *extra, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
         "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_spec_names_match_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert set(END_TO_END) == set(bench.END_TO_END_UNITS)
    assert PER_LAYER == bench.LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result, lines = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
        assert f"{name} {m['value']} {m['unit']}" in lines
    assert any(line.startswith("machine ") for line in lines)
    record = json.loads((HERE / "out" / f"result-{workload}-smoke-seed1-trace0.json").read_text())
    peaks = [p["peak_rss_mb"] for p in record["passes"]["plain"]]
    assert result["metrics"]["peak_rss_mb"]["value"] == max(peaks)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_and_span_nesting(workload):
    result, lines = result_of(run_bench(workload, 1))
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    for name, value in metrics.items():
        assert value is not None, name
        if name != "trace.overhead_s":
            assert value >= 0, name
        assert f"{name} {value} {PER_LAYER[name]}" in lines

    spans = [json.loads(line) for line in
             (HERE / "out" / f"trace-{workload}-smoke-seed1.jsonl").read_text().splitlines()]
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["op"] == s["op"]
    assert all(v >= 0 for v in tracer.self_times(spans).values())

    if workload == "verify":
        assert metrics["reducer.steps"] > 0 and metrics["reducer.calls"] > 0
        assert metrics["verify.residual_terms"] > 0  # the mutation control
    elif workload == "crosscheck":
        assert metrics["coeffs.closed_s"] > 0 and metrics["coeffs.solve_s"] > 0
        assert metrics["qcoeff.pmul_calls"] > 0
    else:
        assert metrics["reducer.calls"] == 0
        assert metrics["repcheck.points"] == 2 * 3  # smoke: ranks 1..2, 3 samples each


def test_kernel_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _ = result_of(run_bench("verify", 1, seed=5))
        counts.append({k: result["metrics"][k]["value"]
                       for k in ("reducer.steps", "reducer.passes", "reducer.peak_words")})
    assert counts[0] == counts[1]


def test_gate_counts_a_perturbed_table_as_failed():
    result, lines = result_of(run_bench("verify", 0, "--fault"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] < 1
    assert any(line.startswith("FAILED ") for line in lines)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_wrapper_is_reported_absent(monkeypatch):
    import qonsager.reducer  # noqa: F401

    monkeypatch.setattr(tracer, "SPAN_TARGETS", (
        ("reducer.kernel", "qonsager.reducer", "_kernel.no_such_entry"),
    ))
    monkeypatch.setattr(tracer, "COUNTER_TARGETS", ())
    t = tracer.Tracer()
    t.install()
    assert t.missing == ["reducer.kernel"]
    metrics = tracer.layer_metrics(t)
    assert metrics["reducer.kernel_s"] is None and metrics["reducer.steps"] is None
    assert metrics["reducer.pack_s"] == 0


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "name": "a", "start": 0, "end": 100, "parent": None, "op": 0},
        {"id": 1, "name": "b", "start": 10, "end": 40, "parent": 0, "op": 0},
        {"id": 2, "name": "c", "start": 20, "end": 30, "parent": 1, "op": 0},
        {"id": 3, "name": "b", "start": 50, "end": 90, "parent": 0, "op": 0},
    ]
    assert tracer.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}


def test_digest_ignores_only_the_ms_field():
    text = '{\n  "ms": 123,\n  "zero": true\n}\n'
    assert workloads.digest(text) == workloads.digest(text.replace("123", "7"))
    assert workloads.digest(text) != workloads.digest(text.replace("true", "false"))


def test_every_seed_choice_has_a_recorded_digest():
    digests = json.loads((HERE / "digests.json").read_text())
    for size in workloads.SIZES:
        for seed in range(64):
            for workload in workloads.WORKLOADS:
                for op in workloads.ops_for(workload, seed, size):
                    assert op.key in digests[size], (size, op.key)


def test_reference_units_weight_each_operation_by_the_jobs_around_it():
    # ops of 2 s and 5 s between reference times 1, 3, 2; 3 s of the pass is
    # outside the operations and goes by the mean reference, 2.
    assert bench.in_ref_units(10.0, [2.0, 5.0], [1.0, 3.0, 2.0]) == 4.5
    # A host twice as slow doubles every time and leaves the result alone.
    assert bench.in_ref_units(20.0, [4.0, 10.0], [2.0, 6.0, 4.0]) == 4.5
