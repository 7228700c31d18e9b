"""Benchmark of icisres: one workload per run, timed in normalised seconds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run times whole rounds of the
workload's operations for about S seconds (a traced run does one round),
checks every output afterwards, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.  Metrics
are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.  Any failed check makes the exit code 1; so does a checkout
without the program, and then nothing is printed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def _monotonic() -> float:
    """A clock every process on the machine reads alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_program():
    """Put the checkout's icisres first on the path; fail if it is missing."""
    sys.path.insert(0, str(SRC))
    try:
        import icisres
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import icisres from {SRC}: {exc}")
    if Path(icisres.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: icisres comes from {icisres.__file__}, "
                         f"not from {SRC}")


@dataclass
class Result:
    op: object
    round: int
    start: float
    end: float
    output: object
    error: Optional[str]   # type and message of an uncaught exception
    busy: float = 0.0      # seconds of the interval spent in reference samples
    factor: float = 1.0    # normalised seconds per raw second

    @property
    def raw_s(self) -> float:
        return self.end - self.start - self.busy

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


def measure_setup(workload: str, seed: int) -> List[float]:
    """Raw seconds from process start until the first job is ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = _monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr}")
        times.append(float(proc.stdout) - started)
    return times


def run_rounds(wl, seconds: float, clock, tracer=None) -> List[Result]:
    """Whole rounds until about `seconds` have passed; one round if traced."""
    results: List[Result] = []
    clock.burst()
    began = time.perf_counter()
    r = 0
    with clock:
        while True:
            round_began = time.perf_counter()
            for op in wl.round_ops(r):
                if tracer is not None:
                    tracer.current_job = len(results)
                start = time.perf_counter()
                try:
                    output, error = op.call(), None
                except Exception as exc:     # the failure is the measurement
                    # keep no traceback: its frames would hold the job's memory
                    output, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                if tracer is not None:
                    tracer.current_job = -1
                results.append(Result(op, r, start, end, output, error))
            r += 1
            now = time.perf_counter()
            if tracer is not None or \
                    now - began + (now - round_began) / 2 >= seconds:
                break
    clock.burst()
    for res in results:
        res.busy = clock.busy(res.start, res.end)
        res.factor = clock.factor(res.start, res.end)
    return results


def write_jobs(path: Path, results: List[Result], passed: List[bool],
               setup: List[float]) -> None:
    """Every job's raw and normalised seconds, for looking into a run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "setup_raw_s": setup,
        "jobs": [{"key": res.op.key, "round": res.round, "raw_s": res.raw_s,
                  "norm_s": res.norm_s, "error": res.error, "passed": ok}
                 for res, ok in zip(results, passed)]}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.prepare(args.workload, args.seed)
    if args.setup_probe:
        print(repr(_monotonic()))
        return 0

    setup = measure_setup(args.workload, args.seed)
    from refclock import RefClock
    clock = RefClock()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = run_rounds(wl, args.seconds, clock, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks
    report = checks.check(args.workload, results)
    unexpected = [res for res in results
                  if res.error is not None and not res.op.known_fault]
    for res in unexpected:
        report.problems.append(f"{res.op.key}: {res.error}")
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    failed = sum(1 for res in results if res.error is not None)
    passed = [res for res, ok in zip(results, report.passed)
              if ok and res.error is None]
    timed_s = sum(res.norm_s for res in results)
    raw_s = sum(res.raw_s for res in results)
    p50 = statistics.median(res.norm_s for res in results)
    ref_min, ref_mean, ref_max = clock.spread()
    # the same figures in raw seconds, and the reference they were scaled by
    print("# raw " + json.dumps({
        "rounds": results[-1].round + 1,
        "jobs_per_s": len(passed) / raw_s,
        "job_p50_s": statistics.median(res.raw_s for res in results),
        "setup_s": statistics.median(setup),
        "ref_samples": len(clock.durations),
        "ref_min_s": ref_min, "ref_mean_s": ref_mean, "ref_max_s": ref_max}))

    if tracer is None:
        metrics = {
            "jobs_per_s": (len(passed) / timed_s, "1/s"),
            "job_p50_s": (p50, "s"),
            # a probe runs in another process, maybe on a core of another
            # speed, and reads too short a burst to scale by itself: the
            # median probe is scaled by the reference over the whole run
            "setup_s": (statistics.median(setup) * clock.overall_factor(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracing import per_layer_units
        # spans hold the reference samples taken inside them; those are
        # spread evenly over a job, so scale its spans by the job's share
        # of real work as well as by its normalisation factor
        values = tracer.metrics(
            [res.end - res.start for res in results],
            [res.factor * res.raw_s / (res.end - res.start) for res in results])
        values["trace.job_p50_s"] = p50
        metrics = {name: (values[name], unit)
                   for name, unit in per_layer_units().items()}
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")

    write_jobs(HERE / "out" / f"jobs-{args.workload}-{args.seed}.json",
               results, report.passed, setup)
    correct = not report.problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
