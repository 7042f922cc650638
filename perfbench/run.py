"""inflate-lab benchmark: end-to-end job times and per-layer trace metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload positive --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each run starts a fresh single-threaded interpreter (worker.py) that repeats
the workload's job list for about --seconds seconds and checks every job's
output.  With --trace 0 the last stdout line reports the end-to-end metrics
setup_s, run_s and peak_rss_mb; both times are rescaled to a nominal host
speed by the speed probe in probe.py, and raw wall times are printed above.
With --trace 1 it reports the per-layer metrics of traced passes, and the
spans are written to perfbench/out/.  Lines before it give the environment,
failed_frac, certified_frac (certify) and drift against the stored README job
outputs.  Exits non-zero without a result when the package source is missing
or a run does not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from probe import NOMINAL_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 8      # before the worker, and as many again after it
RUN_DEADLINE_S = 170.0
AFTER_WORKER_S = 20.0   # kept back from the worker's timeout for the later launches
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); import inflate_lab; "
                  "sys.stdout.write(repr(time.monotonic()))")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def setup_times(launches: int) -> list:
    """Seconds from launching a fresh interpreter until inflate_lab is imported."""
    times = []
    for _ in range(launches):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout) - t0)
    return times


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    # one unmeasured launch first, so byte-code caches exist as they do for a
    # user's second and later jobs; launches before and after the worker
    # sample the host at both ends of the run
    setup = setup_times(SETUP_LAUNCHES + 1)[1:] if not trace else []
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
        cmd += ["--trace-out", trace_path]
    timeout = max(1.0, deadline - AFTER_WORKER_S - time.monotonic())
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {done.stderr[-2000:]}")
    data = json.loads(done.stdout.strip().splitlines()[-1])
    if not trace:
        setup += setup_times(SETUP_LAUNCHES)

    env = data["env"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={env['blas_threads']} "
          f"thread_env={json.dumps(env['thread_env'], sort_keys=True)}")
    attempted, failed = data["attempted"], data["failed"]
    print(f"workload={workload} seed={seed} jobs_attempted={attempted} "
          f"passes={len(data['passes'])} traced_passes={len(data['traced_passes'])}")
    for problem in data["problems"]:
        print(f"  FAILED {problem}")
    print(f"  failed_frac     {failed / attempted:.4f}  ({failed}/{attempted} jobs)")
    if data["cert_known"]:
        print(f"  certified_frac  {data['certified'] / data['cert_known']:.4f}  "
              f"({data['certified']}/{data['cert_known']} searches where a certificate exists)")
    if data["reference_jobs"]:
        drift = ", ".join(data["drift"]) or "none"
        print(f"  reference drift {drift}  ({data['reference_jobs']} README jobs compared)")

    if trace:
        metrics = {}
        for name, value in data["per_layer"].items():
            unit = "s" if name.endswith(".s") or name.endswith("_s") else "count"
            metrics[name] = {"value": value, "unit": unit}
        print(f"  trace overhead  {data['per_layer']['trace.overhead_s']:.4f} s per pass "
              f"(traced minus untraced run_s, both rescaled); spans in {trace_path}")
        if data["unbound"]:
            print(f"  not traced (missing; their metrics are left out): "
                  f"{', '.join(data['unbound'])}")
    else:
        pass_sums = [sum(times) for times in data["passes"]]
        lo, hi = quartiles(pass_sums)
        metrics = {
            # the median launch, rescaled by the host speed of the whole run:
            # single launches jitter by more than the host's speed drifts
            "setup_s": {"value": statistics.median(setup) * NOMINAL_S / data["probe_s"],
                        "unit": "s"},
            "run_s": {"value": data["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  speed probe     {data['probe_s']:.6f} s, median during the run "
              f"(nominal {NOMINAL_S} s)")
        print(f"  setup_s         {metrics['setup_s']['value']:.4f} s  (wall "
              f"{statistics.median(setup):.4f} s: median of {len(setup)} launches, "
              f"min {min(setup):.4f}, max {max(setup):.4f})")
        print(f"  run_s           {metrics['run_s']['value']:.4f} s  (wall "
              f"{data['wall_run_s']:.4f} s: sum of per-job medians over {len(pass_sums)} "
              f"passes; pass sums quartiles {lo:.4f}..{hi:.4f})")
        print(f"  peak_rss_mb     {metrics['peak_rss_mb']['value']:.1f} MB")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "inflate_lab", "__init__.py")):
        sys.stderr.write(f"perfbench: package source not found at {SRC}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            sys.stderr.write(f"perfbench: {name} run did not complete: {exc}\n")
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
