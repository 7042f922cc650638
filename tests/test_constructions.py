import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from inflate_lab import constructions as co
from inflate_lab import linear_analysis as la
from inflate_lab import normed_space as ns
from inflate_lab.errors import NumericalFailure, PreconditionError
from inflate_lab.geometry import GridSubset


def eucl_map(matrix):
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return la.linear_map(matrix, ns.euclidean(n), ns.euclidean(m))


class TestZigzag:
    def test_zero_map_triangle_wave(self):
        u = np.array([1.0, 0.0])
        z = co.zigzag_curve(np.zeros(2), u, 0.1, (0.0, 1.0))
        ts = np.linspace(0.0, 1.0, 10_001)
        vals = z.eval_many(ts)
        assert np.max(np.linalg.norm(vals, axis=1)) < 0.1
        assert np.allclose(vals[:, 1], 0.0)  # stays in span{u}
        for s in z.segment_directions:
            assert s in (-1.0, 1.0)

    def test_kappa_one_single_segment(self):
        a = np.array([0.3, 0.4])
        z = co.zigzag_curve(a, a, 0.05, (-1.0, 2.0))
        assert len(z.segment_directions) == 1
        ts = np.linspace(-1.0, 2.0, 101)
        assert np.allclose(z.eval_many(ts), ts[:, None] * a, atol=1e-12)

    def test_kappa_two_dense_sampling(self):
        a = np.array([0.5, 0.0])
        u = np.array([1.0, 0.0])
        z = co.zigzag_curve(a, u, 0.05, (0.0, 1.0))
        ts = np.linspace(0.0, 1.0, 10_001)
        dev = np.max(np.linalg.norm(z.eval_many(ts) - ts[:, None] * a, axis=1))
        assert dev < 0.05
        # derivative is exactly +-u on every segment
        derivs = z.segment_directions[:, None] * z.direction_vector[None, :]
        for d in derivs:
            assert np.array_equal(d, u) or np.array_equal(d, -u)

    def test_negative_kappa(self):
        a = np.array([1.0, 0.0])
        u = -2.0 * a
        z = co.zigzag_curve(a, u, 0.1, (0.0, 1.0))
        ts = np.linspace(0.0, 1.0, 2001)
        dev = np.max(np.linalg.norm(z.eval_many(ts) - ts[:, None] * a, axis=1))
        assert dev < 0.1

    def test_endpoints_exact_on_mesh(self):
        a = np.array([0.5, 0.0])
        z = co.zigzag_curve(a, np.array([1.0, 0.0]), 0.05, (0.0, 1.0))
        # derivative signs alternate within each mesh and track the line at
        # the mesh nodes: values at even breakpoints lie on the line
        node = z.breakpoints[2]
        assert np.allclose(z.eval_many(np.array([node]))[0], node * a, atol=1e-12)

    def test_inadmissible_direction(self):
        with pytest.raises(PreconditionError, match="not admissible"):
            co.zigzag_curve(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, (0, 1))
        with pytest.raises(PreconditionError, match="not admissible"):
            co.zigzag_curve(np.array([1.0, 0.0]), np.array([0.5, 0.0]), 0.1, (0, 1))

    @pytest.mark.parametrize("a, u, eps", [
        ([0.0, 0.0], [1.0, 0.0], 1e-320),   # span / h overflows
        ([0.0, 0.0], [1e300, 0.0], 1e-300),  # |u| overflows, so h is 0
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_mesh_width_underflow_is_typed(self, a, u, eps):
        with pytest.raises(NumericalFailure, match="resolution guard"):
            co.zigzag_curve(np.array(a), np.array(u), eps, (0.0, 1.0))

    def test_orthogonal_huge_vectors_rejected(self):
        # a_vec @ u and the Euclidean norms overflow to inf and NaN unscaled
        with pytest.raises(PreconditionError, match="not parallel"):
            co.zigzag_curve(np.array([1e200, 1e200]), np.array([1e200, -1e200]), 0.1, (0.0, 1.0),
                            vec_len=lambda v: float(np.max(np.abs(v))))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_infinite_length_is_typed(self):
        with pytest.raises(PreconditionError, match="finite"):
            co.zigzag_curve(np.array([1e200, 0.0]), np.array([3e200, 0.0]), 0.1, (0.0, 1.0))

    def test_guard_runs_before_allocation(self):
        # about 4e7 meshes requested: the guard must trip before any array exists
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match="resolution guard"):
                co.zigzag_curve(np.array([0.5, 0.0]), np.array([1.0, 0.0]), 1e-8, (0.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_zigzag(a_vec, u, eps, interval):
    """zigzag_curve's former per-mesh loop, for Euclidean lengths and a_vec != 0.

    Returns (breakpoints, segment_directions), or None where zigzag_curve's
    segment guard trips.
    """
    a_vec = np.asarray(a_vec, dtype=float)
    u = np.asarray(u, dtype=float)
    lo, hi = float(interval[0]), float(interval[1])
    len_a = float(np.linalg.norm(a_vec))
    len_u = float(np.linalg.norm(u))
    span = hi - lo
    cos = float(a_vec @ u) / (np.linalg.norm(a_vec) * np.linalg.norm(u))
    kappa = math.copysign(len_u / len_a, cos)
    if abs(kappa) <= 1.0 + 1e-12 or span * (kappa * kappa - 1.0) * len_a / (2.0 * abs(kappa)) <= 0.9 * eps:
        return np.array([lo, hi]), np.array([1.0 if kappa > 0 else -1.0])
    h = 1.8 * eps * abs(kappa) / ((kappa * kappa - 1.0) * len_a)
    meshes = max(1, math.ceil(span / h))
    if 2 * meshes > co._MAX_SEGMENTS:
        return None
    h = span / meshes
    alpha = h * (kappa + 1.0) / (2.0 * kappa)
    breaks = [lo]
    signs = []
    for j in range(meshes):
        start = lo + j * h
        end = hi if j == meshes - 1 else start + h
        turn = start + alpha
        if turn > start + 1e-15 and turn < end - 1e-15:
            breaks.extend([turn, end])
            signs.extend([1.0, -1.0])
        else:
            breaks.append(end)
            signs.append(1.0 if alpha >= h / 2 else -1.0)
    return np.asarray(breaks), np.asarray(signs)


def assert_matches_reference(a, u, eps, interval):
    expected = reference_zigzag(a, u, eps, interval)
    if expected is None:
        with pytest.raises(NumericalFailure, match="resolution guard"):
            co.zigzag_curve(a, u, eps, interval)
        return None
    z = co.zigzag_curve(a, u, eps, interval)
    assert z.breakpoints.tobytes() == expected[0].tobytes()
    assert z.segment_directions.tobytes() == expected[1].tobytes()
    return z


class TestZigzagOracle:
    @given(a=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
           log_excess=st.floats(-12.0, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           log_eps=st.floats(-15.0, 0.0), lo=st.floats(-5.0, 5.0),
           log_width=st.floats(-3.0, 1.0))
    @settings(max_examples=200)
    def test_bit_identical_to_loop(self, a, log_excess, sign, log_eps, lo, log_width):
        a = np.array(a)
        assume(np.linalg.norm(a) > 1e-3)
        kappa = sign * (1.0 + 10.0 ** log_excess)
        assert_matches_reference(a, kappa * a, 10.0 ** log_eps, (lo, lo + 10.0 ** log_width))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_turns_at_mesh_ends_drop(self, sign):
        # every turn lies within 1e-15 of a mesh end: one segment per mesh
        a = np.array([1.0, 0.0])
        z = assert_matches_reference(a, sign * (1.0 + 1e-11) * a, 1e-15, (0.0, 1.0))
        assert len(z.segment_directions) == 11112
        assert np.all(z.segment_directions == sign)

    def test_some_turns_drop(self):
        z = assert_matches_reference(np.array([1.0]), np.array([-1.000000000006722]),
                                     2.7129219529829726e-15,
                                     (0.14495879772967157, 1.1026317974327937))
        signs = z.segment_directions
        assert 0 < np.sum(signs > 0) < np.sum(signs < 0)


BOX = np.array([[-1.0, 1.0], [-1.0, 1.0]])


class TestInflateAffine:
    def test_identity_trivial_certificate(self):
        m = eucl_map(np.eye(2))
        cert = la.euclidean_inflation(m)
        g = co.inflate_affine(m, cert, BOX, 0.1)
        xs = np.random.default_rng(0).uniform(-1, 1, (500, 2))
        assert np.allclose(g.eval_many(xs), xs, atol=1e-12)
        assert g.cell_shape() == (1, 1)

    def test_half_embed_guarantees(self):
        A = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        m = eucl_map(A)
        cert = la.euclidean_inflation(m)
        g = co.inflate_affine(m, cert, BOX, 0.1)
        # every cell differential is a sign permutation of the inflated map
        sign_mats = la.sign_matrices(m, cert)
        for M in g.distinct_linears():
            assert any(np.allclose(M, S, atol=1e-11) for S in sign_mats)
        # per-cell operator norm and volume guarantees
        assert g.exact_lipschitz() <= 1.0 + 1e-9
        L0 = la.operator_norm(m)
        assert g.constant_cell_vol >= L0 * cert.lam - 1e-9
        # uniform closeness, sampled densely
        xs = np.random.default_rng(1).uniform(-1, 1, (10_000, 2))
        dev = np.max(np.linalg.norm(g.eval_many(xs) - xs @ A.T, axis=1))
        assert dev < 0.1
        assert g.continuity_defect() <= 1e-10

    def test_loose_eps_coarse_cells(self):
        A = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        m = eucl_map(A)
        cert = la.euclidean_inflation(m)
        g_loose = co.inflate_affine(m, cert, BOX, 10.0)
        g_tight = co.inflate_affine(m, cert, BOX, 0.05)
        assert np.prod(g_loose.cell_shape()) < np.prod(g_tight.cell_shape())
        assert g_loose.exact_lipschitz() <= 1.0 + 1e-9
        assert g_loose.constant_cell_vol == pytest.approx(g_tight.constant_cell_vol)

    def test_unverified_certificate_rejected(self):
        m = eucl_map(np.diag([0.5, 0.5]))
        cert = la.euclidean_inflation(m)
        bad = la.InflationCertificate(cert.preimages, cert.eigenvalues, cert.lam,
                                      False, cert.worst_sign_norm)
        with pytest.raises(NumericalFailure):
            co.inflate_affine(m, bad, BOX, 0.1)

    def test_wrong_map_certificate_rejected(self):
        m1 = eucl_map(np.diag([0.5, 0.5]))
        m2 = eucl_map(np.diag([0.9, 0.2]))
        cert = la.euclidean_inflation(m1)
        with pytest.raises(NumericalFailure):
            co.inflate_affine(m2, cert, BOX, 0.1)

    def test_offset_carried(self):
        m = eucl_map(np.eye(2))
        cert = la.euclidean_inflation(m)
        g = co.inflate_affine(m, cert, BOX, 0.1, offset=np.array([3.0, -1.0]))
        assert np.allclose(g(np.zeros(2)), [3.0, -1.0], atol=1e-12)

    def test_json_round_trip(self):
        A = np.array([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]])
        m = eucl_map(A)
        g = co.inflate_affine(m, la.euclidean_inflation(m), BOX, 0.3)
        back = co.PiecewiseAffineMap.from_json(g.to_json())
        xs = np.random.default_rng(2).uniform(-1, 1, (200, 2))
        assert np.allclose(back.eval_many(xs), g.eval_many(xs), atol=0)
        assert back.constant_cell_vol == g.constant_cell_vol


class TestGluePatches:
    def _norms(self):
        return ns.euclidean(2), ns.euclidean(2)

    def test_single_patch_equal_to_base(self):
        a, b = self._norms()
        f = lambda xs: 0.25 * xs
        spec = co.PatchSpec((np.array([[0.0, 0.2], [0.0, 0.2]]),), (0.5,), (f,),
                            f, 0.1, a, b)
        g = co.glue_patches(spec, 0.25)
        xs = np.random.default_rng(0).uniform(-2, 2, (500, 2))
        assert np.allclose(g.eval_many(xs), f(xs), atol=1e-15)

    def test_bump_closed_form(self):
        # f = 0, S = {0}, rho = 1, g1 = c with |c| = delta * rho:
        # g(x) = chi(x) c with chi(x) = max(1/2 - |x|, 0) / (1/2)
        a, b = self._norms()
        delta = 0.2
        c = np.array([delta, 0.0])
        f = lambda xs: np.zeros_like(xs)
        g1 = lambda xs: np.tile(c, (xs.shape[0], 1))
        spec = co.PatchSpec((np.zeros((1, 2)),), (1.0,), (g1,), f, delta, a, b)
        g = co.glue_patches(spec, 0.0)
        xs = np.random.default_rng(1).uniform(-1.5, 1.5, (2000, 2))
        chi = np.maximum(0.5 - np.linalg.norm(xs, axis=1), 0.0) / 0.5
        assert np.allclose(g.eval_many(xs), chi[:, None] * c, atol=1e-12)
        # sampled Lipschitz quotient stays below 2 delta (hand bound) <= 4 delta
        ys = np.random.default_rng(2).uniform(-1.5, 1.5, (2000, 2))
        q = np.linalg.norm(g.eval_many(xs) - g.eval_many(ys), axis=1) / \
            np.linalg.norm(xs - ys, axis=1)
        assert np.max(q) <= 2 * delta + 1e-9

    def test_two_far_patches(self, rng):
        a, b = self._norms()
        L, delta = 0.5, 0.1
        M = np.array([[0.5, 0.0], [0.0, 0.3]])
        f = lambda xs: xs @ M.T
        sets = (np.array([[-4.0, -3.0], [-1.0, 1.0]]), np.array([[3.0, 4.0], [-1.0, 1.0]]))
        shifts = (np.array([0.05, 0.0]), np.array([0.0, -0.08]))
        maps = tuple((lambda s: (lambda xs: xs @ M.T + s))(s) for s in shifts)
        spec = co.PatchSpec(sets, (1.0, 1.0), maps, f, delta, a, b)
        g = co.glue_patches(spec, L)
        assert g.lip_bound == pytest.approx(L + 4 * delta)
        inside0 = rng.uniform(0, 1, (200, 2)) * np.array([1.0, 2.0]) + np.array([-4.0, -1.0])
        assert np.allclose(g.eval_many(inside0), maps[0](inside0), atol=1e-12)
        between = rng.uniform(-1.5, 1.5, (200, 2))
        assert np.allclose(g.eval_many(between), f(between), atol=1e-15)
        xs = rng.uniform(-5, 5, (3000, 2))
        ys = rng.uniform(-5, 5, (3000, 2))
        q = np.linalg.norm(g.eval_many(xs) - g.eval_many(ys), axis=1) / \
            np.linalg.norm(xs - ys, axis=1)
        assert np.max(q) <= L + 4 * delta + 1e-9

    def test_overlapping_neighborhoods_rejected(self):
        a, b = self._norms()
        f = lambda xs: np.zeros_like(xs)
        sets = (np.zeros((1, 2)), np.array([[1.5, 0.0]]))
        spec = co.PatchSpec(sets, (1.0, 1.0), (f, f), f, 0.1, a, b)
        with pytest.raises(PreconditionError, match="overlap"):
            co.glue_patches(spec, 0.0)

    def test_deviating_patch_rejected(self):
        a, b = self._norms()
        f = lambda xs: np.zeros_like(xs)
        g1 = lambda xs: np.full((xs.shape[0], 2), 5.0)
        spec = co.PatchSpec((np.zeros((1, 2)),), (1.0,), (g1,), f, 0.1, a, b)
        with pytest.raises(PreconditionError, match="deviates"):
            co.glue_patches(spec, 0.0)


class TestMargins:
    def test_lsc_margin_examples(self):
        assert co.lsc_margin(np.eye(2), 0.3) == pytest.approx((1 - math.sqrt(0.3)) / 2)
        assert co.lsc_margin(np.eye(1), 0.6) == pytest.approx(0.2)

    def test_lsc_margin_vanishes_as_eta_to_one(self):
        vals = [co.lsc_margin(np.eye(2), eta) for eta in (0.5, 0.9, 0.99, 0.9999)]
        assert all(v > w for v, w in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_lsc_margin_uses_inverse_norm(self):
        A = np.diag([2.0, 0.5])
        # ||A^-1|| = 1 / sigma_min = 2
        assert co.lsc_margin(A, 0.5) == pytest.approx((1 - math.sqrt(0.5)) / 4.0)

    def test_lsc_margin_errors(self):
        with pytest.raises(PreconditionError):
            co.lsc_margin(np.eye(2), 0.2)  # below 1/2^n
        with pytest.raises(PreconditionError):
            co.lsc_margin(np.eye(2), 1.0)
        with pytest.raises(PreconditionError):
            co.lsc_margin(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.5)

    def test_balls_epsilon_examples(self):
        assert co.balls_epsilon(1.0, 0.1, 10) == pytest.approx(0.01)
        assert co.balls_epsilon(1.0, 0.1, 1) == pytest.approx(0.1)
        assert co.balls_epsilon(2.0, 0.5, 4) == pytest.approx(0.0625)
        with pytest.raises(PreconditionError):
            co.balls_epsilon(0.0, 0.1, 2)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60)
    def test_balls_epsilon_contract_on_random_step_functions(self, seed):
        # random measure space: weighted atoms; psi <= K with mean >= K(1-eps)
        r = np.random.default_rng(seed)
        K, delta, N = 1.0 + r.random(), 0.05 + 0.3 * r.random(), int(r.integers(2, 9))
        eps = co.balls_epsilon(K, delta, N)
        weights = r.random(24) + 1e-3
        weights /= weights.sum()
        drop = r.random(24) * K  # candidate shortfalls below K
        # scale shortfalls so the mean constraint holds
        budget = K * eps / max(float(np.sum(weights * drop)), 1e-300)
        drop = drop * min(1.0, budget)
        psi = K - drop
        assert float(np.sum(weights * psi)) >= K * (1 - eps) - 1e-12
        fraction = float(np.sum(weights[psi >= K - delta]))
        assert fraction >= 1.0 - 1.0 / N - 1e-9


class TestInflateOnSet:
    def test_zero_measure_set_trivial(self):
        empty = GridSubset.empty(BOX, (4, 4))
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), empty,
            ns.euclidean(2), ns.euclidean(3), 1.0, 0.1, 0.9, seed=0)
        assert glued is None
        assert report.achieved_integral == 0.0
        assert report.target_integral == 0.0

    def test_zero_map_reaches_target(self):
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), BOX,
            ns.euclidean(2), ns.euclidean(3), 1.0, 0.2, 0.5, seed=3)
        assert report.achieved_integral >= report.target_integral
        assert report.sup_distance <= 0.2
        assert report.lip_cells_exact <= 1.0 + 1e-9
        assert report.lip_glue_bound <= 1.0 + 1e-9

    def test_contraction_reaches_target(self):
        M = 0.5 * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        glued, report = co.inflate_on_set(
            lambda xs: xs @ M.T, BOX, ns.euclidean(2), ns.euclidean(3),
            1.0, 0.1, 0.9, seed=5)
        assert report.achieved_integral >= 0.9 * 4.0
        assert report.sup_distance <= 0.1

    def test_grid_subset_domain(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        subset = GridSubset(BOX, (2, 2), mask)
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), subset,
            ns.euclidean(2), ns.euclidean(3), 1.0, 0.2, 0.5, seed=1)
        assert report.domain_measure == pytest.approx(1.0)
        assert report.achieved_integral >= report.target_integral

    def test_expanding_map_rejected(self):
        M = 2.0 * np.eye(2)
        with pytest.raises(PreconditionError):
            co.inflate_on_set(lambda xs: xs @ M.T, BOX, ns.euclidean(2),
                              ns.euclidean(2), 1.0, 0.1, 0.5, seed=0)
