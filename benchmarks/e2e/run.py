"""End-to-end benchmark of the aggregate-skyline stack.

Runs each workload of ``workload.py`` in its own fresh process, prints
every metric as ``<workload> <metric> <value> <unit>``, writes a JSON
copy per workload under ``--out``, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists (its ``end_to_end`` metrics, or with ``--trace``
its ``per_layer`` metrics).  See README.md in this directory.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 41]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

Exit codes: 0 ran (``correct`` says whether every result checked out),
2 refused to run (no checkout around it, or too few cores), 3 a workload
leaked a thread, a process or a ``/dev/shm`` segment, or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SMOKE_SECONDS = 0.5
CHILD_TIMEOUT_S = 150
#: How long a finished workload's leftover processes get to exit on their
#: own; multiprocessing's resource tracker exits once its parent is gone.
SESSION_GRACE_S = 5.0
#: --write-expected runs every read spec on all engine-rw snapshots.
EXPECTED_TIMEOUT_S = 900


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=list(wl.WORKLOADS),
                        default=list(wl.WORKLOADS), metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(wl.WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=41, help="input seed (default 41)")
    # BENCHMARK.json's command is run as ``<command> --workload W --seed N
    # --seconds <run_seconds> --trace <0|1>``, so both flags take a value.
    # The bounds in BENCHMARK.json hold for streams of run_seconds.
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed stream (default: run_seconds of"
                             f" BENCHMARK.json, {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="time each layer's public calls and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "e2e",
                        help="directory for the JSON copies and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="200-group inputs and 0.5 s streams, for the self-test")
    parser.add_argument("--expected", type=Path, default=HERE / "expected",
                        help="directory of golden result digests")
    parser.add_argument("--write-expected", action="store_true",
                        help="run every (snapshot, spec) once and write its digest to --expected")
    return parser.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def wait_until_gone(session: int, grace: float) -> dict:
    """Processes of ``session`` still alive after up to ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        left = wl.session_processes(session)
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def stop_session(session: int) -> dict:
    """Waits for the processes a finished workload left in its session,
    kills those that outlive the grace period, and returns them."""
    left = wait_until_gone(session, SESSION_GRACE_S)
    if left:
        try:
            os.killpg(session, signal.SIGKILL)
        except ProcessLookupError:
            pass
        wait_until_gone(session, SESSION_GRACE_S)
    return left


def run_child(args, name: str, *extra: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one workload process; returns its report (the last stdout line)."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", "smoke" if args.smoke else "full",
        "--out", str(args.out), "--expected", str(args.expected), *extra,
    ]
    if args.trace:
        command.append("--trace")
    shm_before = wl.shm_segments()
    # Its own session: the pool workers it starts stay in that session even
    # when they outlive it, so they can be found and stopped.  Its output
    # goes to a file, not a pipe, so a leftover process holding it open
    # cannot keep this one waiting.
    stdout_path = args.out / f"{name}.stdout"
    with open(stdout_path, "w") as stdout:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=stdout, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        stop_session(proc.pid)
        # The kill also stops the resource tracker that would unlink them.
        left = sorted(wl.shm_segments() - shm_before)
        raise BenchError(f"{name}: no result within {timeout}s"
                         + (f"; left /dev/shm/{', '.join(left)}" if left else ""))
    left = stop_session(proc.pid)
    lines = stdout_path.read_text().strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{name}: exited with code {proc.returncode} and no report")
    leaks = report["leaks"] + [f"/dev/shm/{s}" for s in sorted(wl.shm_segments() - shm_before)]
    leaks += [f"process {pid} ({cmd[:80]})" for pid, cmd in left.items()]
    if leaks:
        raise BenchError(f"{name} leaked: {', '.join(leaks)}")
    if proc.returncode != 0:
        raise BenchError(f"{name}: exited with code {proc.returncode}")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_file.is_file():
        print(f"{ROOT} is not a checkout of the repository (no src/repro or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    for name in args.workload:
        workload = wl.WORKLOADS[name]
        if max(workload.workers, workload.clients) > cores:
            print(f"refusing to run {name}: it needs {workload.workers} pool workers and"
                  f" {workload.clients} client threads, but only {cores} cores are"
                  " available, so it would measure contention", file=sys.stderr)
            return 2
    benchmark = json.loads(benchmark_file.read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else benchmark["run_seconds"]
    gated = benchmark["per_layer" if args.trace else "end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)

    try:
        if args.write_expected:
            write_expected(args)
        else:
            measure(args, gated)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    return 0


def write_expected(args) -> None:
    for name in args.workload:
        report = run_child(args, name, "--write-expected", timeout=EXPECTED_TIMEOUT_S)
        for failure in report["failures"]:
            print(f"{name}: {failure}", file=sys.stderr)
        print(f"{name}: ran {report['attempted']} ops, wrote their digests to {args.expected}")


def measure(args, gated: list) -> None:
    fingerprint = host_fingerprint()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in args.workload:
        report = run_child(args, name)
        report["fingerprint"] = {
            **fingerprint, "start_method": report["start_method"], "numpy": report["numpy"]
        }
        metrics = report["layers"] if args.trace else report["metrics"]
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit}")
        for failure in report["failures"][:10]:
            print(f"{name}: {failure}", file=sys.stderr)
        suffix = ".trace.json" if args.trace else ".json"
        (args.out / f"{name}{suffix}").write_text(json.dumps(report, indent=1) + "\n")
        failed = len(report["failures"])
        summary["correct"] = summary["correct"] and failed == 0
        summary["attempted"] += report["attempted"]
        summary["failed"] += failed
        prefix = "" if len(args.workload) == 1 else f"{name}."
        for entry in gated:
            if entry["name"] not in metrics:
                raise BenchError(f"BENCHMARK.json names {entry['name']}, which {name} does not report")
            value, unit = metrics[entry["name"]]
            summary["metrics"][prefix + entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main())
