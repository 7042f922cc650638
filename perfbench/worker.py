"""One benchmark run of one workload, in a fresh single-threaded interpreter.

Started by run.py, never imported by it.  Repeats the workload's job list in
timed passes until the time budget is spent, checks every job's output, and
prints one JSON line with the pass times, failure counts, peak memory and
(with --trace 1) the per-layer metrics of the traced passes.  With --trace 1
the passes alternate untraced and traced, so the tracing overhead is measured
in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import inflate_lab  # noqa: E402,F401
from inflate_lab import measure_lab  # noqa: E402

import workloads  # noqa: E402
from probe import SampledTimer  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def reference_text(name: str):
    try:
        with open(os.path.join(REFERENCE_DIR, name + ".out"), newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Run:
    def __init__(self, workload: str, seed: int):
        self.jobs = workloads.jobs_for(workload, seed)
        self.references = {job.reference: reference_text(job.reference)
                           for job in self.jobs if job.reference}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.certified = 0
        self.cert_known = 0
        self.drift: set = set()
        self.probes: list = []

    def one_pass(self, timer, tracer=None):
        """Run every job once; returns each job's wall time and rescaled time."""
        times = []
        for job in self.jobs:
            # each job calibrates the raster itself, as a fresh CLI process does
            getattr(measure_lab, "_CALIBRATION_CACHE", {}).clear()
            self.attempted += 1
            if tracer is not None:
                tracer.job = job.name
                tracer.enter("bench.job")
            timer.start()
            try:
                result = job.run()
            except Exception:  # a job that raises counts as failed; keep going
                self.fail(job.name, traceback.format_exc(limit=3))
                continue
            finally:
                times.append(timer.stop())
                self.probes += timer.samples
                if tracer is not None:
                    tracer.exit()
            try:
                problems = job.check(result)
                certified = job.certified(result) if job.certified is not None else False
            except Exception:  # an output the check cannot read is a failed job
                problems, certified = [traceback.format_exc(limit=2)], False
            if problems:
                self.fail(job.name, "; ".join(problems[:3]))
            if job.certified is not None and job.cert_known:
                self.cert_known += 1
                self.certified += int(certified)
            if job.reference and result.stdout != self.references[job.reference]:
                self.drift.add(job.reference)
        wall, scaled = zip(*times)
        return list(wall), list(scaled)

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{name}: {detail}")


def job_medians_sum(passes: list) -> float:
    """Sum over jobs of each job's median time across passes.

    Slow phases of a shared machine last seconds and hit a few jobs of a
    pass; a per-job median discards them better than a median of pass sums.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def counters_only(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not (k.endswith(".s") or k.endswith("_s"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="JSON-lines file for the spans")
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    plain, scaled, traced, traced_scaled, layer_runs = [], [], [], [], []
    timer = SampledTimer()
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                times, rescaled = run.one_pass(timer, tracer)
                traced.append(times)
                traced_scaled.append(rescaled)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.metrics())
        else:
            times, rescaled = run.one_pass(timer)
            plain.append(times)
            scaled.append(rescaled)
            if len(plain) == 1:
                # later passes only add allocator history, not memory a job
                # needs; the speed probe and its samples hold a few kilobytes
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        enough = (len(traced) >= MIN_TRACED_PASSES if tracer is not None
                  else len(plain) >= MIN_PASSES)
        if enough and elapsed * (1.0 + 1.0 / len(plain + traced)) > args.seconds:
            break

    out = {
        "passes": plain,
        "traced_passes": traced,
        "wall_run_s": job_medians_sum(plain),
        "run_s": job_medians_sum(scaled),
        "probe_s": statistics.median(run.probes),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "certified": run.certified,
        "cert_known": run.cert_known,
        "drift": sorted(run.drift),
        "reference_jobs": len(run.references),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer is not None:
        counts = counters_only(layer_runs[0])
        per_layer = {key: counts[key] if key in counts else
                     statistics.median(m[key] for m in layer_runs) for key in layer_runs[0]}
        per_layer["trace.overhead_s"] = job_medians_sum(traced_scaled) - job_medians_sum(scaled)
        if any(counters_only(m) != counters_only(layer_runs[0]) for m in layer_runs[1:]):
            run.fail("trace", "counters differ between traced passes")
            out["failed"], out["problems"] = run.failed, run.problems
        out["per_layer"] = per_layer
        out["unbound"] = tracer.unbound
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "env": out["env"], "per_layer": per_layer})
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
