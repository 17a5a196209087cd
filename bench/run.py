"""Benchmark of the starq engine: seeded workloads, exactness gate, traced run.

    python3 bench/run.py --workload construct --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src/`` and nowhere else.  One run is one fresh, single-threaded
interpreter working through one workload (see ``workloads.py``).

Host speed.  On a shared host the speed of one core drifts by up to 2x
within seconds, the same way for all CPython code, so every timed region
runs under a ``hostclock.HostClock``: it samples the host speed with a
short probe loop every 20 ms and rescales the time to a fixed nominal
speed, close to that of an uncontended Xeon core running CPython 3.11.
The end-to-end times below are these rescaled ("scaled") times; the raw
times are printed per job.

End-to-end metrics (``--trace 0``):

* ``wall_s``: the sum over the job list of each job's median scaled time
  over the passes, i.e. the wall time of one pass;
* ``job_geomean_s``: geometric mean of those per-job medians;
* ``setup_s``: ``import starq``, drawing the seeded inputs and writing any
  spec files, in a fresh interpreter: this run's own set-up and those of
  child interpreters started between passes; the median of
  ``SETUP_SAMPLES`` set-ups;
* ``peak_rss_mb``: peak resident set of this process.

Passes over the job list repeat while the next one still fits in
``--seconds`` (at least one).  Every job's verdict and exit code are
checked, and the SHA-256 of its exact outputs is compared with
``digests.json``: all jobs at the default seed, the jobs whose outputs do
not depend on the seed at any other.  ``failed / attempted`` is the job
failure fraction, printed as ``job_fail_frac``.

With ``--trace 1`` the run makes one pass with the wrappers of
``layertrace.py`` installed and plain passes for the rest of its time,
prints the per-layer metrics and saves the spans under ``.bench_work/``.
Per-layer times are raw, with the probes' time taken out of every span;
``trace.overhead_frac`` compares the scaled walls of the traced pass and
of the median plain pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from typing import NamedTuple

from hostclock import HostClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ("construct", "verify", "cli_demo")
DEFAULT_SEED = 0
SETUP_SAMPLES = 9


class EngineMissing(Exception):
    pass


class JobResult(NamedTuple):
    name: str
    seconds: float  # raw wall time
    scaled: float  # time at the nominal host speed
    digest: str
    failure: str  # "" when the job passed every check


def load_engine():
    """Import ``starq`` from this checkout's ``src/`` and the workload module."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "starq", "__init__.py")):
        raise EngineMissing(f"no starq sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import starq

    here = os.path.realpath(os.path.dirname(starq.__file__))
    if here != os.path.realpath(os.path.join(src, "starq")):
        raise EngineMissing(f"starq was imported from {here}, not from {src}")
    import workloads

    return workloads


def set_up(workload: str, seed: int, size: str, workdir: str):
    """Import the engine and draw the inputs; returns (module, inputs, scaled seconds)."""
    with HostClock() as clock:
        clock.lap()
        W = load_engine()
        inputs = W.make_inputs(workload, seed, size, ROOT, workdir)
        _, scaled = clock.lap()
    return W, inputs, scaled


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Scaled set-up time of a fresh child interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--size", size, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def recorded_digests(workload: str, size: str) -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(f"{workload}/{size}", {})


def expected_digests(jobs, recorded: dict, seed: int) -> dict:
    """Digests a job must reproduce: all at the default seed, else the unseeded jobs."""
    return {job.name: recorded.get(job.name) for job in jobs
            if seed == DEFAULT_SEED or not job.seeded}


def run_pass(jobs, expected: dict, clock: HostClock, tracer=None) -> list:
    """One pass over the jobs, timed by ``clock``."""
    state: dict = {}
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        clock.lap()
        try:
            outcome = job.run(state)
            failure = "" if outcome.ok else "wrong verdict: " + outcome.detail
        except Exception:  # a traceback is a failed job, not a crashed benchmark
            outcome = None
            failure = "raised: " + traceback.format_exc(limit=3)
        seconds, scaled = clock.lap()
        digest = outcome.digest if outcome is not None else ""
        if job.name in expected and expected[job.name] != digest:
            failure += f" digest {digest} != recorded {expected[job.name]}"
        results.append(JobResult(job.name, seconds, scaled, digest, failure.strip()))
    return results


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _report_jobs(passes: list):
    for p, results in enumerate(passes):
        for r in results:
            if p == 0 or r.failure:
                status = f"FAIL {r.failure}" if r.failure else "ok"
                print(f"pass {p} job {r.name} raw {r.seconds:.4f}s scaled {r.scaled:.4f}s "
                      f"sha256={r.digest} {status}")


def _failures(passes: list):
    attempted = sum(len(p) for p in passes)
    return attempted, sum(1 for p in passes for r in p if r.failure)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            jobs_hook=None, recorded=None) -> dict:
    """One benchmark run; returns the result object printed on the last line.

    ``jobs_hook(jobs, inputs)`` and ``recorded`` let the self-test tamper
    with the expected verdicts and digests.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        W, inputs, own_setup = set_up(workload, seed, size, workdir)
        jobs = W.make_jobs(workload, inputs, size)
        if jobs_hook is not None:
            jobs = jobs_hook(jobs, inputs)
        if recorded is None:
            recorded = recorded_digests(workload, size)
        expected = expected_digests(jobs, recorded, seed)
        if trace:
            return _traced_run(workload, jobs, expected, seconds)

        setup_samples = [own_setup]
        passes = []
        start = perf_counter()
        while True:
            if len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(probe_setup(workload, seed, size))
            t0 = perf_counter()
            with HostClock() as clock:
                passes.append(run_pass(jobs, expected, clock))
            last = perf_counter() - t0
            if perf_counter() - start + last > seconds:
                break
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup(workload, seed, size))

        _report_jobs(passes)
        per_job = [statistics.median(p[i].scaled for p in passes) for i in range(len(jobs))]
        attempted, failed = _failures(passes)
        values = {
            "wall_s": sum(per_job),
            "job_geomean_s": _geomean(per_job),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "job_fail_frac": failed / attempted,
            "raw_wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        }
        print(f"workload {workload} seed {seed} size {size}: {len(passes)} passes, "
              f"{attempted} jobs attempted, {failed} failed")
        return _result(values, attempted, failed, "end_to_end",
                       extra={"job_fail_frac": "ratio", "raw_wall_s": "s"})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_run(workload: str, jobs, expected: dict, seconds: float) -> dict:
    """One traced pass, then plain passes for the rest of the run's time."""
    import layertrace

    start = perf_counter()
    tracer = layertrace.Tracer()
    with HostClock() as clock:
        tracer.install(clock, extra_namespaces=[sys.modules["workloads"]])
        try:
            traced = run_pass(jobs, expected, clock, tracer)
        finally:
            tracer.uninstall()
    plain = []
    while True:
        t0 = perf_counter()
        with HostClock() as clock:
            plain.append(run_pass(jobs, expected, clock))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    _report_jobs([traced] + plain)
    tracer.write(os.path.join(WORK_DIR, f"spans-{workload}"))
    values = layertrace.layer_metrics(
        tracer,
        traced_wall=sum(r.seconds for r in traced),
        untraced_wall=statistics.median(sum(r.seconds for r in p) for p in plain),
        overhead=sum(r.scaled for r in traced)
        / statistics.median(sum(r.scaled for r in p) for p in plain) - 1.0,
    )
    attempted, failed = _failures([traced] + plain)
    return _result(values, attempted, failed, "per_layer")


def _result(values: dict, attempted: int, failed: int, kind: str, extra=None) -> dict:
    """Print every metric with its unit and build the result object, which
    holds exactly the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    units = {m["name"]: m["unit"] for m in declared}
    units.update(extra or {})
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def record(workload: str, size: str):
    """Store the default-seed digests of one workload in digests.json."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        W, inputs, _ = set_up(workload, DEFAULT_SEED, size, workdir)
        with HostClock() as clock:
            results = run_pass(W.make_jobs(workload, inputs, size), {}, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [(r.name, r.failure) for r in results if r.failure]
    if bad:
        raise SystemExit(f"not recording {workload}/{size}, jobs failed: {bad}")
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[f"{workload}/{size}"] = {r.name: r.digest for r in results}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same job shapes small, for the self-test")
    parser.add_argument("--record", action="store_true",
                        help="store the default-seed digests in digests.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            os.makedirs(WORK_DIR, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
            try:
                print(repr(set_up(args.workload, args.seed, args.size, workdir)[2]))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        if args.record:
            record(args.workload, args.size)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
