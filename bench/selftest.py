"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload once at the tiny size and checks that:

* every metric of BENCHMARK.json is printed by name with its unit, plain
  and traced, and the last line is the result object;
* at the default seed every job matches its recorded digest;
* a second seed gives a job failure fraction of 0;
* a tampered expected digest, and a tampered expected verdict, are each
  counted as a failed job;
* the traced self times, observer time and unattributed time add up to
  the traced wall time;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds and prints each failed check otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

SECOND_SEED = 1


def _bench(*args: str, root: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )


def _check_output(proc, declared, problems, where):
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {name} missing or without unit {unit}")
        if (name, unit) not in printed:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: undeclared metrics printed")
    return result


def _check_accounting(result, problems, where):
    values = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(v for k, v in values.items() if k.endswith(".self_s"))
    parts += values["trace.observer_s"] + values["trace.unattributed_s"]
    if abs(parts - values["trace.wall_s"]) > 1e-6 * max(1.0, values["trace.wall_s"]):
        problems.append(f"{where}: self times add up to {parts}, traced wall {values['trace.wall_s']}")


def _invert_first_verdict(jobs, inputs):
    """Expect the opposite verdict from the first job."""
    first = jobs[0]

    def run_inverted(state):
        outcome = first.run(state)
        return dataclasses.replace(outcome, ok=not outcome.ok)

    return [dataclasses.replace(first, run=run_inverted)] + jobs[1:]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in run.WORKLOADS:
        common = ["--workload", workload, "--seconds", "1", "--size", "tiny"]
        for seed in (run.DEFAULT_SEED, SECOND_SEED):
            where = f"{workload} seed {seed}"
            result = _check_output(_bench(*common, "--seed", str(seed), "--trace", "0"),
                                   bench["end_to_end"], problems, where)
            if result is not None and (result["failed"] or not result["correct"]):
                problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
        where = f"{workload} traced"
        result = _check_output(_bench(*common, "--seed", str(run.DEFAULT_SEED), "--trace", "1"),
                               bench["per_layer"], problems, where)
        if result is not None:
            _check_accounting(result, problems, where)
            if result["failed"]:
                problems.append(f"{where}: {result['failed']} jobs failed")

        recorded = run.recorded_digests(workload, "tiny")
        name = sorted(recorded)[0]
        tampered = dict(recorded, **{name: "0" * 64})
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.measure(workload, run.DEFAULT_SEED, 0.0, False, "tiny", recorded=tampered)
        if result["failed"] != 1 or result["correct"]:
            problems.append(f"{workload}: tampered digest of {name} gave {result['failed']} failures")
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.measure(workload, run.DEFAULT_SEED, 0.0, False, "tiny",
                                 jobs_hook=_invert_first_verdict)
        if result["failed"] != 1 or result["correct"]:
            problems.append(f"{workload}: tampered verdict gave {result['failed']} failures")

    os.makedirs(run.WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0",
                      root=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
