"""Self-tests of the benchmark: tracing changes no output, its counters repeat
exactly, the reference checks are sound, and a checkout without the package
source gives no result.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inflate_lab  # noqa: E402,F401
from inflate_lab import constructions, linear_analysis, maximal_volume, measure_lab  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import SampledTimer  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_MAP = [[0.5, 0.1], [0.2, 0.4], [0.1, 0.2]]
SMALL_CLI_JOBS = [
    ["check-inflation", "--params", json.dumps({
        "map": {"entries": SMALL_MAP, "domain_norm": workloads.NORM_JSON["linf"](2),
                "codomain_norm": workloads.NORM_JSON["l2"](3)},
        "lambda": 0.1, "restarts": 2, "steps": 10}), "--seed", "3"],
    ["mv", "--params", json.dumps({
        "u": [0.5, 0.2, 0.1], "a": workloads.NORM_JSON["l1"](2),
        "b": workloads.NORM_JSON["linf"](3), "restarts": 1}), "--seed", "1"],
    ["experiment-positive", "--params", json.dumps({
        "box": [[-1, 1], [-1, 1]], "m": 3, "f": {"kind": "zero"}, "eta": 0.5,
        "eps_schedule": [0.4], "boxcount": True, "box_size": 0.02})],
    ["experiment-negative", "--params", json.dumps({
        "u": [1, 0], "r": 0.3, "eps_schedule": [0.5], "restarts": 2, "steps": 20})],
]


def run_small_jobs(timer=None) -> list:
    """Outputs of a fixed small job list touching every traced layer."""
    outputs = []
    for argv in SMALL_CLI_JOBS:
        measure_lab._CALIBRATION_CACHE.clear()
        if timer is not None:
            timer.start()
        out = workloads.cli_call(argv)()
        if timer is not None:
            timer.stop()
        outputs.append((out.code, out.stdout, out.stderr))
    pert = lambda xs: xs + 0.05 * np.sin(3.0 * xs[:, ::-1])  # noqa: E731
    outputs.append(repr(measure_lab.coverage_check(pert, 1.0, 0.7, 1.0 / 50, lip_hint=2.0)))
    return outputs


def traced_small_jobs():
    tracer = Tracer().install()
    try:
        outputs = run_small_jobs()
    finally:
        tracer.uninstall()
    return tracer, outputs


def test_traced_outputs_are_byte_identical_to_untraced():
    plain = run_small_jobs()
    tracer, traced = traced_small_jobs()
    assert traced == plain
    # the linf-domain search may end without a certificate (exit code 3)
    assert [code for code, *_ in plain[:-1]] in ([0, 0, 0, 0], [3, 0, 0, 0])
    assert tracer.stats["cli.run"][0] == len(SMALL_CLI_JOBS)


def test_sampled_timing_changes_no_output():
    plain = run_small_jobs()
    timer = SampledTimer()
    assert run_small_jobs(timer) == plain
    timer.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    wall, scaled = timer.stop()
    assert len(timer.samples) >= 4  # before, after and samples inside
    assert 0.25 < wall < 0.3 + 1e-3 and scaled > 0


def test_traced_counters_repeat_exactly():
    def counters():
        tracer, _ = traced_small_jobs()
        return {k: v for k, v in tracer.metrics().items()
                if not (k.endswith(".s") or k.endswith("_s"))}

    first, second = counters(), counters()
    assert first == second
    for key in ("linear_analysis.operator_norm.vertex_calls",
                "linear_analysis.inflation_search.calls",
                "maximal_volume.max_volume.rescale_calls",
                "constructions.zigzag_curve.segments",
                "measure_lab.adversary.projections",
                "measure_lab.boxcount.keys",
                "measure_lab.coverage.image_points",
                "normed_space.eval.rows"):
        assert first[key] > 0, key
    # keys are distinct occupied boxes: fewer than the points or per-patch keys
    assert first["measure_lab.coverage.keys"] < first["measure_lab.coverage.image_points"]
    assert 0 < first["measure_lab.boxcount.keys"] <= first["measure_lab.boxcount.patch_keys"]


def test_metrics_of_an_unbound_function_are_left_out(monkeypatch):
    monkeypatch.delattr(measure_lab, "_mass_from_parts")
    tracer = Tracer().install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.unbound == ["measure_lab._mass_from_parts"]
    assert "measure_lab.boxcount.keys" not in metrics
    assert metrics["measure_lab.boxcount.patch_keys"] == 0
    assert metrics["measure_lab.boxcount.calls"] == 0


def test_self_time_is_span_time_minus_child_spans():
    tracer = Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.enter("outer")  # nested same-layer call: busy time counted once
    tracer.exit()
    tracer.exit()
    calls, busy, self_s = tracer.stats["outer"]
    inner = tracer.stats["inner"][1]
    assert calls == 2
    assert self_s == pytest.approx(busy - inner, abs=1e-12)


def test_every_binding_is_wrapped_and_restored():
    search = linear_analysis.inflation_search
    mv = maximal_volume.max_volume
    tracer = Tracer().install()
    try:
        assert tracer.unbound == []
        assert constructions.inflation_search is linear_analysis.inflation_search
        assert linear_analysis.inflation_search is not search
        assert inflate_lab.inflation_search is linear_analysis.inflation_search
        assert measure_lab.max_volume is maximal_volume.max_volume is not mv
    finally:
        tracer.uninstall()
    assert constructions.inflation_search is search
    assert measure_lab.max_volume is mv


@pytest.mark.parametrize("a,b", [("linf", "l2"), ("linf", "linf"), ("l1", "linf"),
                                 ("l1", "l2"), ("l2", "linf"), ("l2", "l2")])
def test_reference_operator_norm_is_a_maximum_over_the_ball(a, b):
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 2))
    ref = checks.reference_operator_norm(M, a, b)
    xs = rng.standard_normal((20000, 2))
    xs /= checks.vec_norms(xs, a)[:, None]
    assert np.max(checks.vec_norms(xs @ M.T, b)) <= ref * (1 + 1e-12)
    # attained at an extreme point of the ball
    if a == "l2":
        cands = M / np.linalg.norm(M, axis=1, keepdims=True) if b == "linf" else \
            np.linalg.svd(M)[2][:1]
    else:
        cands = np.array(list(itertools.product((-1.0, 1.0), repeat=2))) if a == "linf" \
            else np.vstack([np.eye(2), -np.eye(2)])
    assert np.max(checks.vec_norms(cands @ M.T, b)) == pytest.approx(ref, rel=1e-12)


def test_certificate_check_accepts_identity_and_rejects_overinflation():
    A = np.asarray(SMALL_MAP)
    A = A / checks.reference_operator_norm(A, "linf", "l2")
    lam = checks.gram_vol(A) / 2.0
    assert checks.certificate_problems(A, np.eye(2), np.ones(2), lam, "linf", "l2") == []
    assert checks.certificate_problems(A, np.eye(2), np.full(2, 1.5), lam, "linf", "l2")
    assert checks.certificate_problems(A, np.eye(2), np.full(2, 0.9), 0.0, "linf", "l2")


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.jobs_for(workload, 5)
        b = workloads.jobs_for(workload, 5)
        c = workloads.jobs_for(workload, 6)
        assert [j.name for j in a] == [j.name for j in b] == [j.name for j in c]
    first = workloads.jobs_for("certify", 5)[0].run.__closure__[0].cell_contents
    again = workloads.jobs_for("certify", 5)[0].run.__closure__[0].cell_contents
    other = workloads.jobs_for("certify", 6)[0].run.__closure__[0].cell_contents
    assert first == again != other


def test_run_gives_no_result_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "positive",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
