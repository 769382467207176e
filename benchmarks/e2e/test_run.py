"""Self-test of the end-to-end benchmark harness.

Runs ``run.py --smoke`` (200-group inputs, 0.5 s streams) end to end::

    python -m pytest benchmarks/e2e -q

It is not part of the tier-1 suite, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]

#: The layers the traced run must cover, as named in the layer table.
LAYERS = {"index", "artifacts", "comparator", "algorithms", "plan",
          "parallel", "engine", "pool", "net"}


def run_bench(out: Path, *args: str):
    """Run the harness; returns the printed metrics and the summary line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        printed[workload, metric] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    return out, *run_bench(out)


def test_every_benchmark_metric_is_printed_for_every_workload(untraced):
    _, printed, summary = untraced
    assert summary["correct"] and summary["failed"] == 0
    for workload in WORKLOADS:
        for entry in BENCHMARK["end_to_end"]:
            assert printed[workload, entry["name"]][1] == entry["unit"]
            assert summary["metrics"][f"{workload}.{entry['name']}"]["unit"] == entry["unit"]
        assert printed[workload, "failed_ratio"][0] == 0


def test_trace_has_spans_for_every_layer(tmp_path):
    printed, summary = run_bench(tmp_path, "--trace")
    layers = set()
    for workload in WORKLOADS:
        for entry in BENCHMARK["per_layer"]:
            assert printed[workload, entry["name"]][1] == entry["unit"]
        with open(tmp_path / f"{workload}.trace.jsonl") as spans:
            layers.update(json.loads(line)["name"].split(".")[0] for line in spans)
    assert layers >= LAYERS
    assert summary["correct"]


def test_corrupted_golden_digest_counts_as_failure(tmp_path):
    expected = tmp_path / "expected"
    args = ("--workload", "oneshot-tiny", "--expected", str(expected))
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path),
         *args, "--write-expected"],
        check=True, capture_output=True, timeout=120,
    )
    printed, summary = run_bench(tmp_path, *args)
    assert printed["oneshot-tiny", "failed_ratio"][0] == 0

    golden = expected / "oneshot-tiny.json"
    data = json.loads(golden.read_text())
    first = sorted(data["digests"])[0]
    data["digests"][first] = "0" * 64
    golden.write_text(json.dumps(data))
    printed, summary = run_bench(tmp_path, *args)
    assert printed["oneshot-tiny", "failed_ratio"][0] > 0
    assert not summary["correct"] and summary["failed"] > 0


def test_seed_changes_the_inputs(untraced, tmp_path):
    out = untraced[0]
    run_bench(tmp_path, "--workload", "oneshot-tiny", "--seed", "7")
    default = json.loads((out / "oneshot-tiny.json").read_text())
    other = json.loads((tmp_path / "oneshot-tiny.json").read_text())
    assert (default["seed"], other["seed"]) == (41, 7)
    assert default["inputs"] != other["inputs"]
