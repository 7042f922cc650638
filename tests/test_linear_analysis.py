import math

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
        A = rng.standard_normal((2, 2)) * 0.3
        report = la.operator_norm_report(A[None], ns.lp(2, 3.0), ns.euclidean(2))
        assert not report.exact
        # lower bound property against dense sampling
        xs = rng.standard_normal((2000, 2))
        xs /= ns.eval_many(ns.lp(2, 3.0), xs)[:, None]
        dense = float(np.max(np.linalg.norm(xs @ A.T, axis=1)))
        assert report.values[0] >= dense - 1e-6


def reference_operator_norm_report(A, a, b):
    """operator_norm_report's former one-matrix form: (value, exact)."""
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
    return la._sampled_operator_norm(A, a, b), False


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
        assert report.values.tobytes() == np.array([v for v, _ in expected]).tobytes()
        assert all(report.exact is exact for _, exact in expected)

    def test_non_finite_entry_rejected(self):
        As = np.zeros((3, 2, 2))
        As[1, 0, 1] = np.inf
        with pytest.raises(PreconditionError, match="finite"):
            la.operator_norm_report(As, ns.linf(2), ns.euclidean(2))


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
            matrices = la.sign_matrices(m, cert)
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
            for M in la.sign_matrices(m, cert):
                assert la.vol_matrix(M) == pytest.approx(base, rel=1e-9)


class TestInflationSearch:
    def test_euclidean_pair_finds_unit_inflation(self, rng):
        A = random_contraction(rng, 3, 2)
        cert = la.inflation_search(eucl_map(A), 0.999, restarts=8, steps=60, seed=4)
        assert cert is not None and cert.verified
        assert cert.lam >= 0.999 - 1e-9

    def test_near_degenerate_cube_map_fails(self):
        A = np.array([[1.0, 1e-4], [0.0, 1e-4]])
        A = A / la.operator_norm(la.linear_map(A, ns.linf(2), ns.euclidean(2)))
        m = la.linear_map(A, ns.linf(2), ns.euclidean(2))
        cert = la.inflation_search(m, 0.01, restarts=6, steps=60, seed=0)
        assert cert is None

    def test_lambda_zero_trivial(self):
        m = eucl_map(np.diag([0.8, 0.6]))
        cert = la.inflation_search(m, 0.0, restarts=4, steps=40, seed=0)
        assert cert is not None and cert.verified
        assert cert.lam >= la.vol(m) - 1e-9

    def test_deterministic(self, rng):
        A = random_contraction(rng, 2, 2)
        m = la.linear_map(A / 1.0001, ns.linf(2), ns.euclidean(2))
        c1 = la.inflation_search(m, 0.05, restarts=6, steps=80, seed=11)
        c2 = la.inflation_search(m, 0.05, restarts=6, steps=80, seed=11)
        if c1 is None:
            assert c2 is None
        else:
            assert np.array_equal(c1.preimages, c2.preimages)
            assert np.array_equal(c1.eigenvalues, c2.eigenvalues)


class TestPairProbe:
    def test_euclidean_pair_fully_certified(self):
        report = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(2), 0.999,
                                         samples=8, seed=5, restarts=4, steps=40)
        assert report.fraction_certified == 1.0
        assert report.failures == []

    def test_failures_near_degenerate_direction(self):
        bad = np.array([[1.0, 0.0], [0.0, 1e-4]])
        report = la.inflating_pair_probe(ns.linf(2), ns.euclidean(2), 0.1,
                                         samples=2, seed=5, restarts=4, steps=40,
                                         include=[bad])
        assert len(report.failures) >= 1

    def test_lambda_zero_always_certified_euclidean(self):
        report = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(3), 0.0,
                                         samples=6, seed=2, restarts=4, steps=40)
        assert report.fraction_certified == 1.0

    def test_threads_match_sequential(self):
        kwargs = dict(samples=4, seed=9, restarts=3, steps=30)
        seq = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(2), 0.9, **kwargs)
        par = la.inflating_pair_probe(ns.euclidean(2), ns.euclidean(2), 0.9,
                                      threads=4, **kwargs)
        assert seq.fraction_certified == par.fraction_certified
        assert seq.failures == par.failures


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
