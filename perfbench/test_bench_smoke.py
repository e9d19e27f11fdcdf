"""Tests of the benchmark: smoke mode, metric definitions, and refusal to run
without the library sources."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def test_metric_definitions_match_benchmark_json():
    sys.path.insert(0, HERE)
    try:
        from bench_metrics import END_TO_END, PER_LAYER, TRACE_RUN
    finally:
        sys.path.remove(HERE)
    spec = _benchmark_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER + TRACE_RUN
    ]
    assert [w["name"] for w in spec["workloads"]] == [
        "ls-decide", "ls-literal", "circuit-verify", "counting"
    ]


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    spec = _benchmark_spec()
    untraced = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    traced = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # four workloads, each untraced then traced
    assert len(results) == 8
    for index, result in enumerate(results):
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == (traced if index % 2 else untraced)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert lines.count("failed_frac = 0.0 fraction") == 8
    assert results[1]["metrics"]["oracle.calls_per_op"]["value"] == 1
    assert os.path.exists(os.path.join(HERE, "out", "spans-counting-seed3.json"))


def test_refuses_to_run_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ls-decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
