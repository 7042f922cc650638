"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.

Criterion 5 asserts the collapse at a threshold the negative theorem
certifies. For the cube domain, Euclidean R^2 and u = e_1 (mv(u) = 0), a
cell A = (a_1|a_2) with ||A||_{inf->2} <= 1 has |a_1|^2 + |a_2|^2 <= 1, so
vol A <= sqrt(2 delta) with delta = 1 - dg_1/dx_1 >= 0: vol >= t forces
delta >= t^2/2. On each horizontal line ||g - (u|0)||_inf <= eps gives
int delta dx_1 <= 2 eps, and Markov's inequality bounds the superlevel
fraction by 2 eps / t^2 for every admissible map. The bound is attained up
to constants (delta = t^2/2 on that share of columns plus a fine orthogonal
zigzag), so the final value can only be asserted where 2 eps / t^2 <= 0.1.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_contraction
from inflate_lab import constructions as co
from inflate_lab import linear_analysis as la
from inflate_lab import maximal_volume as mv
from inflate_lab import measure_lab as ml
from inflate_lab import normed_space as ns
from inflate_lab.cli import ExperimentConfig, run

BOX = np.array([[-1.0, 1.0], [-1.0, 1.0]])
UNIT = np.array([[0.0, 1.0], [0.0, 1.0]])


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_euclidean_inflation():
    dims = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    t0 = time.time()
    worst_norm = 0.0
    worst_vol = np.inf
    count = 0
    for d_idx, (n, m) in enumerate(dims):
        rng = np.random.default_rng(1000 + d_idx)
        for _ in range(40):
            A = random_contraction(rng, m, n)
            cert = la.euclidean_inflation(
                la.linear_map(A, ns.euclidean(n), ns.euclidean(m)))
            worst_norm = max(worst_norm, cert.worst_sign_norm)
            worst_vol = min(worst_vol, cert.lam)
            count += 1
    elapsed = time.time() - t0
    ok = (count == 200 and worst_vol >= 1.0 - 1e-9
          and worst_norm <= 1.0 + 1e-9 and elapsed < 5.0)
    verdict(1, ok, f"200 maps, min vol {worst_vol:.2e}, max norm {worst_norm:.12f}, "
                   f"{elapsed:.2f}s")
    assert count == 200
    assert worst_vol >= 1.0 - 1e-9
    assert worst_norm <= 1.0 + 1e-9
    assert elapsed < 5.0


def test_criterion_2_maximal_volume():
    details = []
    ok = True
    for n in (2, 3):
        u = np.zeros(n)
        u[0] = 1.0
        analytic = mv.max_volume(u, ns.linf(n), ns.euclidean(n), seed=0)
        generic = mv._ascent(u, ns.linf(n), ns.euclidean(n), restarts=32,
                             seed=1, iters=400)
        details.append(f"n={n}: analytic {analytic.value}, generic {generic.value:.2e}")
        ok = ok and analytic.value == 0.0 and analytic.analytic
        ok = ok and generic.value <= 1e-6
        assert analytic.value == 0.0
        assert generic.value <= 1e-6
    for n, m in ((2, 2), (3, 3)):
        rng = np.random.default_rng(40 + n)
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        contrast = mv.max_volume(u, ns.euclidean(n), ns.euclidean(m),
                                 restarts=12, seed=2)
        details.append(f"eucl n={n}: {contrast.value:.12f}")
        ok = ok and contrast.value >= 1.0 - 1e-6
        assert contrast.value >= 1.0 - 1e-6
    verdict(2, ok, "; ".join(details))


def test_criterion_3_inflation_pipeline_desk_scale():
    runs = [("zero", 0, lambda xs: np.zeros((xs.shape[0], 3)))]
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        C = random_contraction(rng, 3, 2, norm_bound=0.5)
        runs.append((f"contraction-{seed}", seed, lambda xs, C=C: xs @ C.T))
    worst_time = 0.0
    worst_int = np.inf
    worst_sup = 0.0
    worst_lip = 0.0
    for name, seed, f in runs:
        t0 = time.time()
        glued, rep = co.inflate_on_set(f, BOX, ns.euclidean(2), ns.euclidean(3),
                                       1.0, 0.1, 0.9, seed=seed)
        elapsed = time.time() - t0
        jac = ml.jacobian_integral(glued, BOX).value
        worst_time = max(worst_time, elapsed)
        worst_int = min(worst_int, jac)
        worst_sup = max(worst_sup, rep.sup_distance)
        worst_lip = max(worst_lip, rep.lip_cells_exact)
        assert rep.lip_cells_exact <= 1.0 + 1e-9, name
        assert rep.sup_distance <= 0.1, name
        assert jac >= 3.6 - 1e-9, name
        assert elapsed < 30.0, name
    verdict(3, True, f"11 runs: min integral {worst_int:.3f} >= 3.6, "
                     f"max sup {worst_sup:.2e} <= 0.1, max cell lip {worst_lip:.6f}, "
                     f"max time {worst_time:.1f}s")


def _injective_fixtures():
    fixtures = []
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        pieces = int(rng.integers(2, 5))
        breaks = np.linspace(0.0, 1.0, pieces + 1)
        s1 = np.column_stack([np.ones(pieces), np.zeros(pieces),
                              rng.uniform(-0.7, 0.7, pieces)])
        s2 = np.column_stack([np.zeros(pieces), np.ones(pieces),
                              rng.uniform(-0.7, 0.7, pieces)])
        fixtures.append(co.pa_from_axis_slopes(
            UNIT, [breaks, breaks], [s1, s2], [np.zeros(3), np.zeros(3)],
            np.zeros(3), ns.euclidean(2), ns.euclidean(3)))
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        emb = Q[:, :2] * rng.uniform(0.6, 1.0)
        breaks = np.array([0.0, 1.0])
        fixtures.append(co.pa_from_axis_slopes(
            UNIT, [breaks, breaks], [emb.T[0:1, :], emb.T[1:2, :]],
            [np.zeros(3), np.zeros(3)], np.zeros(3),
            ns.euclidean(2), ns.euclidean(3)))
    for seed in range(2):
        rng = np.random.default_rng(500 + seed)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pieces = 3
        breaks = np.linspace(0.0, 1.0, pieces + 1)
        s1 = np.column_stack([np.ones(pieces), np.zeros(pieces),
                              rng.uniform(-0.5, 0.5, pieces)]) @ Q.T
        s2 = np.column_stack([np.zeros(pieces), np.ones(pieces),
                              rng.uniform(-0.5, 0.5, pieces)]) @ Q.T
        fixtures.append(co.pa_from_axis_slopes(
            UNIT, [breaks, breaks], [s1, s2], [np.zeros(3), np.zeros(3)],
            np.zeros(3), ns.euclidean(2), ns.euclidean(3)))
    return fixtures


def test_criterion_4_area_formula_consistency():
    worst = 0.0
    for pam in _injective_fixtures():
        jac = ml.jacobian_integral(pam, UNIT).value
        box = ml.boxcount_image_measure(pam, UNIT, 3, 1e-3).value
        rel = abs(box - jac) / jac
        worst = max(worst, rel)
        assert rel <= 0.15
    verdict(4, True, f"10 injective fixtures, worst relative deviation {worst:.3%} <= 15%")


def test_criterion_5_collapse_trend():
    eps_schedule = tuple(2.0 ** (-i) for i in range(1, 9))
    config = ml.NegativeConfig(u=np.array([1.0, 0.0]), r=0.3,
                               eps_schedule=eps_schedule, seed=42,
                               grid=6, restarts=16, steps=200)
    report = ml.run_negative_experiment(config)
    records = report["records"]
    fractions = [rec["superlevel_fraction"] for rec in records]
    t = report["threshold"]
    bounds = [min(1.0, 2.0 * eps / t ** 2) for eps in eps_schedule]
    # the certified upper bound 2 eps / t^2 (module docstring) must itself
    # reach 0.1 by the last eps, or the final-value check asserts nothing true
    assert bounds[-1] <= 0.1, f"certified bound {bounds[-1]:.3f} > 0.1 at threshold {t}"

    control_cfg = ml.NegativeConfig(u=np.array([1.0, 0.0]), r=0.3,
                                    eps_schedule=eps_schedule, seed=42,
                                    control=True, threshold=t,
                                    domain_kind="euclidean", codomain_kind="euclidean")
    control = [rec["superlevel_fraction"]
               for rec in ml.run_negative_experiment(control_cfg)["records"]]

    violations = [rec for rec, bound in zip(records, bounds)
                  if rec["superlevel_fraction"] > bound
                  or rec["sup_dist"] > rec["eps"] + 1e-9
                  or rec["lip_exact"] > 1.0 + 1e-9]
    decreasing = all(b <= a + 0.02 for a, b in zip(fractions, fractions[1:]))
    final_ok = fractions[-1] <= 0.1
    control_ok = all(f >= 0.8 for f in control)
    ok = not violations and decreasing and final_ok and control_ok
    verdict(5, ok, f"threshold {t:.3f}, maxima {np.round(fractions, 3).tolist()}, "
                   f"certified bounds {np.round(bounds, 3).tolist()}, "
                   f"control min {min(control):.3f}")
    assert not violations, (
        f"records with an inadmissible map (sup_dist > eps or lip_exact > 1) or a "
        f"fraction above the certified bound min(1, 2 eps / t^2): {violations}")
    assert decreasing, f"sequence not weakly decreasing: {fractions}"
    assert control_ok, f"control dropped below 0.8: {control}"
    assert final_ok, (
        f"final achieved maximum {fractions[-1]} > 0.1 at eps_8 = 2^-8, "
        f"where every admissible map has at most {bounds[-1]:.3f}")


def test_criterion_6_extension_lemma():
    worst_eq = 0.0
    worst_quot_margin = np.inf
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        L = float(rng.uniform(0.0, 0.8))
        theta = rng.uniform(0, 2 * np.pi)
        M = L * np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
        c0 = rng.standard_normal(2) * 0.2
        f = lambda xs, M=M, c0=c0: xs @ M.T + c0
        delta = float(rng.uniform(0.05, 0.3))
        k = int(rng.integers(1, 4))
        sets, radii, maps = [], [], []
        for i in range(k):
            center = np.array([6.0 * i, 0.0]) + rng.uniform(-0.5, 0.5, 2)
            half = rng.uniform(0.2, 0.8, 2)
            sets.append(np.stack([center - half, center + half], axis=1))
            rho = float(rng.uniform(0.3, 1.0))
            radii.append(rho)
            shift = rng.standard_normal(2)
            shift *= 0.9 * delta * rho / np.linalg.norm(shift)
            maps.append(lambda xs, M=M, c0=c0, s=shift: xs @ M.T + c0 + s)
        spec = co.PatchSpec(tuple(sets), tuple(radii), tuple(maps), f, delta,
                            ns.euclidean(2), ns.euclidean(2))
        g = co.glue_patches(spec, L, seed=seed)

        for i, patch_set in enumerate(sets):
            inside = patch_set[:, 0] + rng.random((40, 2)) * (patch_set[:, 1] - patch_set[:, 0])
            eq = np.max(np.linalg.norm(g.eval_many(inside) - maps[i](inside), axis=1))
            worst_eq = max(worst_eq, eq)
            assert eq <= 1e-12
        far = rng.uniform(-4.0, -2.5, (40, 2))
        assert np.array_equal(g.eval_many(far), f(far))

        lo = np.min([s[:, 0] for s in sets], axis=0) - 2.0
        hi = np.max([s[:, 1] for s in sets], axis=0) + 2.0
        xs = lo + rng.random((300, 2)) * (hi - lo)
        ys = lo + rng.random((300, 2)) * (hi - lo)
        d = np.linalg.norm(xs - ys, axis=1)
        keep = d > 1e-12
        quot = np.linalg.norm(g.eval_many(xs[keep]) - g.eval_many(ys[keep]), axis=1) / d[keep]
        assert np.max(quot) <= L + 4 * delta + 1e-9
        worst_quot_margin = min(worst_quot_margin, L + 4 * delta - np.max(quot))
        sup = np.max(np.linalg.norm(g.eval_many(xs) - f(xs), axis=1))
        assert sup < delta
    verdict(6, True, f"100 patch specs: worst core equality defect {worst_eq:.1e}, "
                     f"smallest Lipschitz margin {worst_quot_margin:.3f}")


def test_criterion_7_lsc_coverage():
    eta = 0.5
    delta = co.lsc_margin(np.eye(2), eta)
    assert delta == pytest.approx((1 - np.sqrt(0.5)) / 2)
    target = float(np.sqrt(eta))
    covered = []
    for seed in range(50):
        rng = np.random.default_rng(600 + seed)
        amp = rng.uniform(0.5, 1.0, 3)
        freq = rng.uniform(1.0, 2.5, (3, 2))
        phase = rng.uniform(0, 2 * np.pi, 3)
        dirs = rng.standard_normal((3, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        def pert(xs, amp=amp, freq=freq, phase=phase, dirs=dirs):
            w = np.zeros_like(xs)
            for j in range(3):
                w += amp[j] * np.sin(xs @ freq[j] + phase[j])[:, None] * dirs[j]
            scale = 0.999 * delta / max(np.max(np.linalg.norm(w, axis=1)), 1e-12)
            return xs + scale * w

        # perturbation Lipschitz <= delta * max frequency ~ 0.37, so 2.0 is safe
        rep = ml.coverage_check(pert, 1.0, target, 1.0 / 200, lip_hint=2.0)
        covered.append(rep.value)
        assert rep.value == 1.0, f"seed {seed} covered only {rep.value}"
    verdict(7, True, f"50 perturbations at delta={delta:.4f}: all cover B(0, sqrt(0.5)) "
                     f"at grid 1/200")


def test_criterion_8_norm_kernel_exactness():
    ok = True
    for n in range(1, 5):
        assert ns.vol_of_norm(ns.linf(n)) == 1.0
    assert ns.vol_of_norm(ns.l1(2)) == pytest.approx(2.0, abs=1e-9)
    assert ns.vol_of_norm(ns.euclidean(2)) == pytest.approx(4.0 / np.pi, abs=1e-6)
    facet = ns.analyze_extremal(ns.linf(2), [1.0, 0.0])
    vertex = ns.analyze_extremal(ns.linf(2), [1.0, 1.0])
    assert not facet.is_extremal
    assert vertex.is_strongly_extremal
    verdict(8, ok, "vol_of_norm exact on linf (n<=4), l1, l2; cube extremal flags correct")


def test_criterion_9_cli_determinism(tmp_path):
    jobs = [
        ("mv", {"u": [1.0, 0.0], "a": {"dim": 2, "kind": {"lp": "inf"}},
                "b": {"dim": 2, "kind": "euclidean"}}, "json"),
        ("check-inflation", {"map": {"entries": [[0.6, 0.0], [0.0, 0.4]],
                                     "domain_norm": {"dim": 2, "kind": "euclidean"},
                                     "codomain_norm": {"dim": 2, "kind": "euclidean"}},
                             "lambda": 1.0}, "json"),
        ("experiment-negative", {"u": [1.0, 0.0], "r": 0.3,
                                 "eps_schedule": [0.5, 0.25], "grid": 4,
                                 "restarts": 4, "steps": 60}, "json"),
        ("experiment-positive", {"box": [[-1.0, 1.0], [-1.0, 1.0]], "m": 3,
                                 "f": {"kind": "zero"}, "eta": 0.5,
                                 "eps_schedule": [0.2]}, "csv"),
    ]
    for idx, (command, params, fmt) in enumerate(jobs):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{command}-{idx}-{attempt}.{fmt}"
            code = run(ExperimentConfig(command, params, seed=17, out=str(out),
                                        format=fmt))
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{command} not byte-identical"
    verdict(9, True, "4 commands rerun byte-identical (json and csv)")
