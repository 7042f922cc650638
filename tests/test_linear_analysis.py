import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_contraction
from inflate_lab import linear_analysis as la
from inflate_lab import normed_space as ns
from inflate_lab.errors import NumericalFailure, PreconditionError


def eucl_map(matrix):
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return la.linear_map(matrix, ns.euclidean(n), ns.euclidean(m))


class TestVol:
    def test_identity(self):
        assert la.vol(eucl_map(np.eye(2))) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert la.vol(eucl_map(np.diag([2.0, 3.0]))) == pytest.approx(6.0, rel=1e-12)

    def test_gram_oracle(self):
        A = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        gram = A.T @ A
        by_hand = math.sqrt(np.linalg.det(gram))
        assert la.vol_matrix(A) == pytest.approx(by_hand, rel=1e-12)
        assert by_hand == pytest.approx(0.5)

    def test_wide_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            la.vol_matrix(np.zeros((2, 3)))

    def test_composition_with_invertible(self, rng):
        for _ in range(10):
            A = rng.standard_normal((3, 2))
            W = rng.standard_normal((2, 2))
            if abs(np.linalg.det(W)) < 0.05:
                continue
            assert la.vol_matrix(A @ W) == pytest.approx(
                abs(np.linalg.det(W)) * la.vol_matrix(A), rel=1e-9)


class TestOperatorNorm:
    def test_segment_image_of_cube(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        m = la.linear_map(A, ns.linf(3), ns.euclidean(3))
        assert la.operator_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_identity_euclidean(self):
        assert la.operator_norm(eucl_map(np.eye(2))) == pytest.approx(1.0, abs=1e-14)

    def test_sum_functional_cube_to_l2(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        m = la.linear_map(A, ns.linf(2), ns.euclidean(2))
        # vertex enumeration oracle over {+-1}^2
        oracle = max(np.linalg.norm(A @ np.array(v))
                     for v in ([1, 1], [1, -1], [-1, 1], [-1, -1]))
        assert la.operator_norm(m) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(2.0)

    def test_exact_polytopal_dominates_sampling(self, rng):
        for _ in range(5):
            A = rng.standard_normal((2, 2))
            m = la.linear_map(A, ns.linf(2), ns.euclidean(2))
            exact = la.operator_norm(m)
            # dense boundary sampling lower bound
            theta = rng.uniform(-1, 1, size=(500, 2))
            theta /= np.max(np.abs(theta), axis=1, keepdims=True)
            sampled = np.max(np.linalg.norm(theta @ A.T, axis=1))
            assert exact >= sampled - 1e-10

    def test_norm_axioms_on_maps(self, rng):
        a, b = ns.linf(2), ns.euclidean(2)
        for _ in range(10):
            A = rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2))
            t = float(rng.uniform(-2, 2))
            nA = la.operator_norm(la.linear_map(A, a, b))
            nB = la.operator_norm(la.linear_map(B, a, b))
            nAB = la.operator_norm(la.linear_map(A + B, a, b))
            nTA = la.operator_norm(la.linear_map(t * A, a, b))
            assert nAB <= nA + nB + 1e-10
            assert nTA == pytest.approx(abs(t) * nA, abs=1e-10)

    def test_sampled_path_reports_gap(self, rng):
        # the smooth pair lp3 -> l2 has no finite formula: a certified bracket
        a = ns.lp(2, 3.0)
        A = rng.standard_normal((2, 2)) * 0.3
        report = la.operator_norm_report(A[None], a, ns.euclidean(2))
        assert not report.exact
        # a dense equal-angle grid on the a-sphere that refines the inscribed
        # polygon's directions, so it contains its vertices bit for bit
        theta = np.linspace(0.0, 2.0 * math.pi, 64 * ns._POLYGON_VERTICES, endpoint=False)
        xs = np.column_stack([np.cos(theta), np.sin(theta)])
        xs /= ns.eval_many(a, xs)[:, None]
        dense = float(np.max(np.linalg.norm(xs @ A.T, axis=1)))
        _, c = a._inscribed
        assert report.lower[0] <= dense <= report.values[0]
        assert report.values[0] / report.lower[0] <= c * (1.0 + 1e-15)
        assert 1.0 < c < 1.0 + 1e-4

    def test_bracket_contains_the_norm_in_three_dimensions(self, rng):
        # the lattice-hull polytope; the sample holds its vertices, so lower <= dense
        a, b = ns.lp(3, 3.0), ns.lp(3, 4.0)
        P, c = a._inscribed
        xs = rng.standard_normal((200_000, 3))
        xs = np.concatenate([xs / ns.eval_many(a, xs)[:, None], P])
        for A in rng.standard_normal((5, 3, 3)):
            report = la.operator_norm_report(A[None], a, b)
            dense = float(np.max(ns.eval_many(b, xs @ A.T)))
            assert not report.exact
            assert report.lower[0] <= dense <= report.values[0]
            assert report.values[0] <= c * report.lower[0]

    def test_bracket_guard_above_three_dimensions(self):
        with pytest.raises(PreconditionError, match="bracket guard"):
            la.operator_norm_report(np.eye(4)[None], ns.lp(4, 3.0), ns.lp(4, 4.0))

    def test_l1_codomain_beyond_the_dual_cube_limit_takes_the_domain_side(self, rng):
        # the dual of l1(m) is the 2^m cube: listed up to _DUAL_CUBE_MAX_DIM, and
        # above it the smooth domain's bracket answers instead of the cube guard
        A = rng.standard_normal((ns._DUAL_CUBE_MAX_DIM + 1, 2))
        a = ns.euclidean(2)
        report = la.operator_norm_report(A[None], a, ns.l1(len(A)))
        _, c = a._inscribed
        theta = np.linspace(0.0, 2.0 * math.pi, 64 * ns._POLYGON_VERTICES, endpoint=False)
        dense = float(np.max(np.sum(np.abs(np.column_stack([np.cos(theta), np.sin(theta)]) @ A.T), axis=1)))
        assert not report.exact
        assert report.lower[0] <= dense <= report.values[0] <= c * report.lower[0]
        # l1(21): past the cube enumeration guard, which the dual path used to raise
        report = la.operator_norm_report(rng.standard_normal((1, 21, 2)), a, ns.l1(21))
        assert not report.exact and report.lower[0] <= report.values[0]
        exact = la.operator_norm_report(A[:-1][None], a, ns.l1(len(A) - 1))
        assert exact.exact


def reference_operator_norm_report(A, a, b):
    """(value, exact) for one matrix, by brute force where a finite formula exists.

    A polytopal domain ball or a Euclidean pair: operator_norm_report's
    former one-matrix form, which the kernel must match bit for bit.  A
    smooth domain into linf or l1: the dual formulas, the largest row
    q-norm and the largest |A^T s|_q over sign vectors s, with q the
    conjugate exponent of the domain.  Any other pair: (None, False).
    """
    while a.kind == "transformed" or b.kind == "transformed":
        if a.kind == "transformed":
            A, a = A @ a.W, a.base
        if b.kind == "transformed":
            A, b = b._W_inv @ A, b.base
    verts = ns.ball_vertices(a)
    if verts is not None:
        return float(np.max(ns._eval_many(b, verts @ A.T))), True
    if la._is_euclidean(a) and la._is_euclidean(b):
        return float(np.linalg.svd(A, compute_uv=False)[0]), True
    p = 2.0 if a.kind == "euclidean" else a.p
    q = p / (p - 1.0)
    if b.kind == "lp" and b.p == math.inf:
        rows = A
    elif b.kind == "lp" and b.p == 1:
        rows = np.array([np.asarray(s) @ A for s in itertools.product((-1.0, 1.0), repeat=b.dim)])
    else:
        return None, False
    return float(np.max(np.sum(np.abs(rows) ** q, axis=1) ** (1.0 / q))), True


def _domain(kind, n):
    if kind == "polytopal":
        V = np.concatenate([np.eye(n), np.full((1, n), 0.7)])
        return ns.polytopal(np.concatenate([V, -V]))
    if kind == "transformed":
        return ns.transformed(ns.linf(n), np.eye(n) + np.triu(np.ones((n, n)), 1))
    return {"linf": ns.linf, "l1": ns.l1, "l2": ns.euclidean,
            "lp3": lambda d: ns.lp(d, 3.0)}[kind](n)


_CODOMAINS = {"l2": ns.euclidean, "linf": ns.linf, "l1": ns.l1}


@st.composite
def _stacks(draw):
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    As = draw(hnp.arrays(np.float64, (k, m, n), elements=st.floats(-3.0, 3.0)))
    return As, n, m


class TestOperatorNormStack:
    @pytest.mark.parametrize("codomain", sorted(_CODOMAINS))
    @pytest.mark.parametrize("domain", ["linf", "l1", "l2", "lp3", "polytopal", "transformed"])
    @given(stack=_stacks())
    @settings(max_examples=10)
    def test_matches_per_matrix_reference(self, domain, codomain, stack):
        As, n, m = stack
        a, b = _domain(domain, n), _CODOMAINS[codomain](m)
        report = la.operator_norm_report(As, a, b)
        expected = [reference_operator_norm_report(A, a, b) for A in As]
        # exact whenever either ball, or the codomain's dual ball, is a polytope
        assert report.exact is not (domain == "lp3" and codomain == "l2")
        assert all(report.exact is exact for _, exact in expected)
        if not report.exact:
            assert np.all(report.lower <= report.values)
            return
        assert report.lower.tobytes() == report.values.tobytes()
        if domain in ("l2", "lp3") and codomain != "l2":
            assert report.values == pytest.approx([v for v, _ in expected], rel=1e-12)
        else:
            assert report.values.tobytes() == np.array([v for v, _ in expected]).tobytes()

    def test_non_finite_entry_rejected(self):
        As = np.zeros((3, 2, 2))
        As[1, 0, 1] = np.inf
        with pytest.raises(PreconditionError, match="finite"):
            la.operator_norm_report(As, ns.linf(2), ns.euclidean(2))


def test_bracket_for_n2_leaves_scipy_spatial_unimported():
    # a hull would cost the process about 9 MB of peak RSS for no gain at n = 2
    code = ("import sys\n"
            "import numpy as np\n"
            "from inflate_lab import maximal_volume as mv, normed_space as ns\n"
            "from inflate_lab.linear_analysis import operator_norm_report\n"
            "a, b = ns.lp(2, 3.0), ns.lp(2, 4.0)\n"
            "assert not operator_norm_report(np.ones((1, 2, 2)), a, b).exact\n"
            "mv.max_volume(np.array([0.5, 0.0]), a, b, restarts=1, iters=1)\n"
            "print('scipy.spatial' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(la.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_lp_volumes_and_pair_probe_leave_scipy_stats_unimported():
    code = ("import sys\n"
            "from inflate_lab import linear_analysis as la, normed_space as ns\n"
            "ns.ball_volume_report(ns.lp(2, 3.0))\n"
            "ns.ball_volume_report(ns.lp(3, 1.5))\n"
            "la.inflating_pair_probe(ns.lp(2, 3.0), ns.euclidean(3), 1.0, 1, 0)\n"
            "print('scipy.stats' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(la.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestSignPermutations:
    def test_pair(self):
        got = {tuple(row) for row in la.sign_permutations([2.0, 3.0])}
        assert got == {(2.0, 3.0), (-2.0, 3.0), (2.0, -3.0), (-2.0, -3.0)}

    def test_single(self):
        got = {tuple(row) for row in la.sign_permutations([1.0])}
        assert got == {(1.0,), (-1.0,)}

    def test_count(self):
        assert la.sign_permutations([5.0, 1.0, 1.0]).shape == (8, 3)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            la.sign_permutations(np.ones(21))


class TestEuclideanInflation:
    def test_paper_diag_example(self):
        A = np.array([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]])
        cert = la.euclidean_inflation(eucl_map(A))
        assert sorted(cert.eigenvalues) == pytest.approx([2.0, 4.0], rel=1e-12)
        assert cert.verified
        assert cert.lam == pytest.approx(1.0, abs=1e-9)
        assert cert.worst_sign_norm <= 1.0 + 1e-9

    def test_identity(self):
        cert = la.euclidean_inflation(eucl_map(np.eye(2)))
        assert np.allclose(cert.eigenvalues, [1.0, 1.0])
        assert cert.verified and cert.lam == pytest.approx(1.0, abs=1e-12)

    def test_scaled_rotation(self):
        theta = math.pi / 6.0
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        cert = la.euclidean_inflation(eucl_map(0.5 * R))
        # SVD oracle: both singular values are 0.5
        sv = np.linalg.svd(0.5 * R, compute_uv=False)
        assert np.allclose(sv, [0.5, 0.5])
        assert np.allclose(cert.eigenvalues, [2.0, 2.0], rtol=1e-12)
        assert cert.lam == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(NumericalFailure, match="degenerate"):
            la.euclidean_inflation(eucl_map(np.array([[1.0, 0.0], [0.0, 0.0]])))

    def test_expansion_rejected(self):
        with pytest.raises(PreconditionError):
            la.euclidean_inflation(eucl_map(np.diag([1.5, 0.5])))

    def test_batch_of_random_contractions(self, rng):
        for _ in range(30):
            A = random_contraction(rng, 3, 2)
            cert = la.euclidean_inflation(eucl_map(A))
            assert cert.verified
            assert cert.lam >= 1.0 - 1e-9
            assert cert.worst_sign_norm <= 1.0 + 1e-9


class TestVerifyCertificate:
    def test_euclidean_output_verifies(self, rng):
        A = random_contraction(rng, 2, 2)
        m = eucl_map(A)
        cert = la.euclidean_inflation(m)
        report = la.verify_certificate(m, cert)
        assert report.verified
        assert report.failing_sign is None

    def test_shrinking_eigenvalue_rejected(self):
        m = eucl_map(np.diag([0.5, 0.5]))
        cert = la.InflationCertificate(np.eye(2), np.array([0.5, 2.0]), 0.5, True, 1.0)
        report = la.verify_certificate(m, cert)
        assert not report.verified
        assert not report.eigenvalues_ok
        assert "non-shrinking" in report.message

    def test_hand_built_diag_inflation(self):
        # A = diag(0.5, 1), I = diag(2, 1) on the standard basis
        m = eucl_map(np.diag([0.5, 1.0]))
        cert = la.InflationCertificate(np.eye(2), np.array([2.0, 1.0]), 1.0, True, 1.0)
        report = la.verify_certificate(m, cert)
        assert report.verified
        assert report.min_vol == pytest.approx(1.0, abs=1e-12)
        assert report.worst_sign_norm == pytest.approx(1.0, abs=1e-12)

    def test_dependent_eigenbasis_rejected(self):
        m = eucl_map(np.eye(2))
        cert = la.InflationCertificate(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                       np.ones(2), 1.0, True, 1.0)
        with pytest.raises(PreconditionError):
            la.verify_certificate(m, cert)

    def test_wide_map_rejected(self):
        m = eucl_map([[0.5, 0.5]])
        cert = la.InflationCertificate(np.eye(2), np.ones(2), 0.0, True, 1.0)
        with pytest.raises(PreconditionError, match="n <= m"):
            la.verify_certificate(m, cert)

    def test_matches_per_pattern_loop(self, rng):
        # unit eigenvalues: the identity pattern passes and flipped ones may fail
        a, b = ns.linf(2), ns.euclidean(3)
        outcomes = set()
        for _ in range(20):
            A = rng.standard_normal((3, 2))
            m = la.linear_map(A / la.operator_norm(la.linear_map(A, a, b)), a, b)
            cert = la.InflationCertificate(rng.standard_normal((2, 2)), np.ones(2), 0.0, True, 1.0)
            report = la.verify_certificate(m, cert)
            matrices = la.sign_matrices(m, cert.preimages, cert.eigenvalues)
            norms = [la.operator_norm(la.linear_map(M, a, b)) for M in matrices]
            vols = [la.vol_matrix(M) for M in matrices]
            fails = [s for s, nrm, v in zip(la.sign_permutations(np.ones(2)), norms, vols)
                     if nrm > 1.0 + la.VERIFY_TOL or v < -la.VERIFY_TOL]
            assert report.failing_sign == (tuple(int(x) for x in fails[0]) if fails else None)
            assert report.worst_sign_norm == max(norms)
            assert report.min_vol == min(vols)
            outcomes.add(report.failing_sign)
        assert len(outcomes) > 1

    def test_sign_flip_volume_consistency(self, rng):
        for _ in range(5):
            A = random_contraction(rng, 3, 2)
            m = eucl_map(A)
            cert = la.euclidean_inflation(m)
            base = la.vol(m) * float(np.prod(np.abs(cert.eigenvalues)))
            for M in la.sign_matrices(m, cert.preimages, cert.eigenvalues):
                assert la.vol_matrix(M) == pytest.approx(base, rel=1e-9)


def reference_kappa_sweep(map_, X, steps=200):
    """The reach-and-bisect coordinate ascent that one sweep of exact exits
    replaced in inflation_search, kept as its oracle: each kappa_i doubles while
    every sign pattern keeps norm <= 1, then bisects back, sweeping until
    nothing grows or the budget of sign-norm calls runs out."""
    kappa = np.ones(map_.n)
    budget = steps
    improved = True
    while improved and budget > 0:
        improved = False
        for i in range(map_.n):
            lo, hi = kappa[i], la._KAPPA_CAP
            trial = kappa.copy()
            trial[i] = min(hi, max(2.0 * lo, 1.0))
            while budget > 0 and la._max_sign_norm(map_, X, trial) <= 1.0:
                lo = trial[i]
                trial[i] = min(hi, trial[i] * 2.0)
                budget -= 1
                if trial[i] >= hi:
                    break
            hi_local = trial[i]
            for _ in range(40):
                if budget <= 0:
                    break
                mid = 0.5 * (lo + hi_local)
                trial[i] = mid
                if la._max_sign_norm(map_, X, trial) <= 1.0:
                    lo = mid
                else:
                    hi_local = mid
                budget -= 1
            if lo > kappa[i] * (1 + 1e-12):
                improved = True
            kappa[i] = lo
    return kappa


HEXAGON = ns.polytopal([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.9], [-0.5, -0.9],
                        [0.5, -0.9], [-0.5, 0.9]])
PROBE_PAIRS = {
    "linf-l2": (ns.linf(2), ns.euclidean(3)),
    "l1-linf": (ns.l1(2), ns.linf(3)),
    "hexagon-l2": (HEXAGON, ns.euclidean(2)),
    "lp3-l2": (ns.lp(2, 3.0), ns.euclidean(3)),
    "lp3-linf": (ns.lp(2, 3.0), ns.linf(3)),
    "linf-lp3": (ns.linf(2), ns.lp(3, 3.0)),
}


def _unit_map(a, b, seed):
    G = np.random.default_rng(seed).standard_normal((b.dim, a.dim))
    return la.linear_map(G / la.operator_norm(la.linear_map(G, a, b)), a, b)


class TestInflationSearch:
    def test_euclidean_pair_finds_unit_inflation(self, rng):
        A = random_contraction(rng, 3, 2)
        cert = la.inflation_search(eucl_map(A), 0.999, restarts=8, seed=4)
        assert cert is not None and cert.verified
        assert cert.lam >= 0.999 - 1e-9

    def test_near_degenerate_cube_map_fails(self):
        A = np.array([[1.0, 1e-4], [0.0, 1e-4]])
        A = A / la.operator_norm(la.linear_map(A, ns.linf(2), ns.euclidean(2)))
        m = la.linear_map(A, ns.linf(2), ns.euclidean(2))
        cert = la.inflation_search(m, 0.01, restarts=6, seed=0)
        assert cert is None

    @pytest.mark.parametrize("a, b", [(ns.linf(2), ns.euclidean(3)), (ns.l1(2), ns.linf(3))],
                             ids=["linf-l2", "l1-linf"])
    def test_search_stops_inside_the_verifier_tolerance(self, a, b, rng):
        # X = I, kappa = 1 certifies vol(A) / 2 on a sign-symmetric domain ball;
        # a search that stops at 1 + 1e-7 hands verification only failing candidates
        for _ in range(3):
            A = rng.standard_normal((3, 2))
            m = la.linear_map(A / la.operator_norm(la.linear_map(A, a, b)), a, b)
            cert = la.inflation_search(m, la.vol(m) / 2.0, restarts=2, seed=0)
            assert cert is not None and cert.verified
            assert cert.worst_sign_norm <= 1.0

    def test_screen_accepts_a_map_whose_norm_rounds_above_one(self):
        # ||A||_{l1->linf} = 1 + ulp: at kappa = 1 every sign pattern of X = I
        # has that norm, which verification accepts and a screen at 1.0 would not
        one_up = np.nextafter(1.0, 2.0)
        m = la.linear_map(np.diag([one_up, one_up]), ns.l1(2), ns.linf(2))
        assert la.operator_norm(m) == one_up
        cert = la.inflation_search(m, 1.0, restarts=2, seed=0)
        assert cert is not None and cert.verified
        assert 1.0 < cert.worst_sign_norm <= 1.0 + la.VERIFY_TOL

    def test_lambda_zero_trivial(self):
        m = eucl_map(np.diag([0.8, 0.6]))
        cert = la.inflation_search(m, 0.0, restarts=4, seed=0)
        assert cert is not None and cert.verified
        assert cert.lam >= la.vol(m) - 1e-9

    def test_deterministic(self, rng):
        A = random_contraction(rng, 2, 2)
        m = la.linear_map(A / 1.0001, ns.linf(2), ns.euclidean(2))
        c1 = la.inflation_search(m, 0.05, restarts=6, seed=11)
        c2 = la.inflation_search(m, 0.05, restarts=6, seed=11)
        if c1 is None:
            assert c2 is None
        else:
            assert np.array_equal(c1.preimages, c2.preimages)
            assert np.array_equal(c1.eigenvalues, c2.eigenvalues)


    @given(pair=st.sampled_from(sorted(PROBE_PAIRS)), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30)
    def test_one_exit_sweep_matches_the_reach_and_bisect_loop(self, pair, seed):
        a, b = PROBE_PAIRS[pair]
        m = _unit_map(a, b, seed)
        cert = la.inflation_search(m, 0.0, restarts=4, seed=seed)
        if cert is None:
            return
        assert cert.worst_sign_norm <= 1.0 + la.VERIFY_TOL
        X, kappa = cert.preimages, cert.eigenvalues
        reference = reference_kappa_sweep(m, X)
        base = la._max_sign_norm(m, X, kappa)
        U, X_inv = m.matrix @ X, np.linalg.inv(X)
        signs = la.sign_permutations(np.ones(m.n))
        for i in range(m.n):
            # where the sign norm barely moves with kappa_i, a norm gap moves
            # the boundary by gap / slope: the loop accepts a norm that rounds
            # to 1.0, a bisected exit one up to 1 + _EXIT_SLACK
            bumped = kappa.copy()
            bumped[i] *= 1.0 + 1e-6
            slope = max((la._max_sign_norm(m, X, bumped) - base) / (1e-6 * kappa[i]), 1e-300)
            gap = 1e-15 + la._EXIT_SLACK
            assert abs(kappa[i] - reference[i]) <= 1e-9 * kappa[i] + gap / slope
            # a second sweep of exits gains nothing: one sweep is the fixed point
            Ws = signs[:, i, None, None] * np.outer(U[:, i], X_inv[i])
            t = la._ray_exit(la.sign_matrices(m, cert.preimages, cert.eigenvalues), Ws, a, b)
            assert kappa[i] == la._KAPPA_CAP or t <= 1e-9 * kappa[i] + 1e-15 / slope

    @pytest.mark.parametrize("lam", [0.0, 1e6], ids=["first-restart", "every-restart"])
    def test_each_screened_restart_takes_one_exit_per_eigenvalue(self, monkeypatch, lam):
        a, b = ns.linf(2), ns.euclidean(3)
        m = _unit_map(a, b, 3)
        screen, ray_exit = la._max_sign_norm, la._ray_exit
        passed, exits = [], []

        def counted_screen(*args):
            value = screen(*args)
            passed.append(value <= 1.0 + la.VERIFY_TOL)
            return value

        def counted_exit(*args):
            exits.append(1)
            return ray_exit(*args)

        monkeypatch.setattr(la, "_max_sign_norm", counted_screen)
        monkeypatch.setattr(la, "_ray_exit", counted_exit)
        cert = la.inflation_search(m, lam, restarts=8, seed=0)
        assert (cert is not None) == (lam == 0.0)
        assert sum(passed) > 0
        assert len(exits) == m.n * sum(passed)


_W2 = np.array([[1.0, 0.4], [0.1, 0.8]])
_W3 = np.array([[1.0, 0.3, 0.0], [0.2, 0.9, 0.1], [0.0, -0.4, 1.1]])
# pair -> (sha256 prefix of the report's values, lower and exact; repr of the
# ray exit; sha256 prefix of the certificate's arrays, lam and worst sign norm)
PATH_PINS = {
    "vertex": ((ns.l1(2), ns.linf(3)),
               ("5c51ac43e969edef", "0.627964251543593", "00cd22e3fe6f0333")),
    "euclidean": ((ns.euclidean(2), ns.euclidean(3)),
                  ("3f86492c13f9a011", "0.41166832424107686", "12a5142e07ccc051")),
    "dual": ((ns.euclidean(2), ns.linf(3)),
             ("fa92cab3b4e14cde", "0.4900406528215481", "e781ccc2f6200fbe")),
    "bracket-n2": ((ns.lp(2, 3.0), ns.euclidean(3)),
                   ("20b3854725a4bd56", "0.37061680478820774", "334ca04b86b207bb")),
    "bracket-n3": ((ns.lp(3, 3.0), ns.euclidean(3)),
                   ("45ea3a885948e2ea", "0.229975972651476", "955476488c96c2de")),
    "transformed-domain": ((ns.transformed(ns.lp(2, 3.0), _W2), ns.lp(3, 4.0)),
                           ("432d41636e5273d2", "0.4224779404941661", "fe9b9e7dd35437ce")),
    "transformed-codomain": ((ns.euclidean(2), ns.transformed(ns.l1(3), _W3)),
                             ("eba4931b18b274d8", "0.21089828666162055", "d66d8f0959efd713")),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PATH_PINS))
def test_operator_norm_paths_keep_their_bits(name):
    # one pair per operator-norm path: the report, the ray exit and a searched
    # certificate keep every bit as the path table is reshaped
    (a, b), expected = PATH_PINS[name]
    rng = np.random.default_rng(7)
    As = rng.standard_normal((5, b.dim, a.dim))
    report = la.operator_norm_report(As, a, b)
    t = la._ray_exit(0.5 * As / np.max(report.values), rng.standard_normal(As.shape), a, b)
    G = rng.standard_normal((b.dim, a.dim))
    m = la.linear_map(G / la.operator_norm(la.linear_map(G, a, b)), a, b)
    cert = la.inflation_search(m, 0.0, restarts=4, seed=0)
    assert (_digest(report.values.tobytes(), report.lower.tobytes(), report.exact), repr(t),
            _digest(cert.preimages.tobytes(), cert.eigenvalues.tobytes(), cert.lam,
                    cert.worst_sign_norm)) == expected


class TestPairProbe:
    def test_euclidean_pair_fully_certified(self):
        report = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(2), 0.999,
                                         samples=8, seed=5, restarts=4)
        assert report.fraction_certified == 1.0
        assert report.failures == []

    def test_failures_near_degenerate_direction(self):
        bad = np.array([[1.0, 0.0], [0.0, 1e-4]])
        report = la.inflating_pair_probe(ns.linf(2), ns.euclidean(2), 0.1,
                                         samples=2, seed=5, restarts=4, include=[bad])
        assert len(report.failures) >= 1

    def test_lambda_zero_always_certified_euclidean(self):
        report = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(3), 0.0,
                                         samples=6, seed=2, restarts=4)
        assert report.fraction_certified == 1.0

    def test_lp_domain_normalized_target_is_exact(self):
        report = la.inflating_pair_probe(ns.lp(2, 3.0), ns.euclidean(3), 1.0, 1, 0)
        # 4 / vol(B_3^2), Dirichlet's closed form
        assert report.normalized_lam == 4 / 3.533277500570902 == 1.1320933607263186


class TestSerialization:
    def test_map_round_trip(self):
        m = la.linear_map([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]],
                          ns.linf(2), ns.euclidean(3))
        data = la.map_to_json(m)
        back = la.map_from_json(data)
        assert np.array_equal(back.matrix, m.matrix)
        assert la.map_to_json(back) == data

    def test_certificate_round_trip(self, rng):
        cert = la.euclidean_inflation(eucl_map(random_contraction(rng, 2, 2)))
        back = la.certificate_from_json(la.certificate_to_json(cert))
        assert np.array_equal(back.preimages, cert.preimages)
        assert back.lam == cert.lam and back.verified == cert.verified
