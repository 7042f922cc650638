import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from inflate_lab import constructions as co
from inflate_lab import linear_analysis as la
from inflate_lab import measure_lab as ml
from inflate_lab import normed_space as ns
from inflate_lab.errors import DimensionMismatch, NumericalFailure, PreconditionError
from inflate_lab.geometry import GridSubset


def eucl_map(matrix):
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return la.linear_map(matrix, ns.euclidean(n), ns.euclidean(m))


def slope_signs(z, u):
    """Sign of each segment of a zigzag, asserting every slope row is exactly u or -u."""
    plus = np.all(z.slopes == u, axis=1)
    minus = np.all(z.slopes == -u, axis=1)
    assert np.all(plus | minus)
    return np.where(plus, 1.0, -1.0)


class TestZigzag:
    def test_zero_map_triangle_wave(self):
        u = np.array([1.0, 0.0])
        z = co.zigzag_curve(np.zeros(2), u, 0.1, (0.0, 1.0))
        assert isinstance(z, co.CoordinateCurve)
        ts = np.linspace(0.0, 1.0, 10_001)
        vals = z.eval_many(ts)
        assert np.max(np.linalg.norm(vals, axis=1)) < 0.1
        assert np.allclose(vals[:, 1], 0.0)  # stays in span{u}
        slope_signs(z, u)

    def test_kappa_one_single_segment(self):
        a = np.array([0.3, 0.4])
        z = co.zigzag_curve(a, a, 0.05, (-1.0, 2.0))
        assert z.segment_count == 1
        assert slope_signs(z, a).tolist() == [1.0]
        ts = np.linspace(-1.0, 2.0, 101)
        assert np.allclose(z.eval_many(ts), ts[:, None] * a, atol=1e-12)

    def test_kappa_two_dense_sampling(self):
        a = np.array([0.5, 0.0])
        u = np.array([1.0, 0.0])
        z = co.zigzag_curve(a, u, 0.05, (0.0, 1.0))
        ts = np.linspace(0.0, 1.0, 10_001)
        dev = np.max(np.linalg.norm(z.eval_many(ts) - ts[:, None] * a, axis=1))
        assert dev < 0.05
        slope_signs(z, u)  # derivative is exactly +-u on every segment

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

    def test_build_and_node_values_peak_bytes_per_segment(self):
        # column-major slopes and node values: building about 9e4 segments
        # peaks near 45.5 bytes a segment, and the node values near 64 with the
        # curve's own arrays; a (K, m) temporary in either adds 24 (m = 3)
        a = np.array([0.5, 0.0, 0.2])
        tracemalloc.start()
        try:
            z = co.zigzag_curve(a, 2.0 * a, 1e-5, (0.0, 1.0))
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            z._values
            _, values_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = z.segment_count
        assert k > 80_000
        assert build_peak / k < 52.0
        assert values_peak / k < 72.0


def reference_zigzag(a_vec, u, eps, interval):
    """zigzag_curve's former per-mesh loop, for Euclidean lengths and a_vec != 0.

    Returns (breakpoints, per-segment signs of u), or None where
    zigzag_curve's segment guard trips.
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
    assert z.slopes.tobytes() == (expected[1][:, None] * np.asarray(u, dtype=float)).tobytes()
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
        u = sign * (1.0 + 1e-11) * a
        z = assert_matches_reference(a, u, 1e-15, (0.0, 1.0))
        assert z.segment_count == 11112
        assert np.all(slope_signs(z, u) == sign)

    def test_some_turns_drop(self):
        u = np.array([-1.000000000006722])
        z = assert_matches_reference(np.array([1.0]), u, 2.7129219529829726e-15,
                                     (0.14495879772967157, 1.1026317974327937))
        signs = slope_signs(z, u)
        assert 0 < np.sum(signs > 0) < np.sum(signs < 0)


def reference_node_values(breaks, slopes, anchor):
    """_node_values's former three-array form: cumsum, shift by the anchor, concatenate."""
    steps = slopes * np.diff(breaks)[:, None]
    start = np.broadcast_to(anchor[..., None, :], steps.shape[:-2] + (1, steps.shape[-1]))
    return np.concatenate([start, start + np.cumsum(steps, axis=-2)], axis=-2)


class TestNodeValues:
    @given(lead=st.sampled_from([(), (3, 2), (1, 1), (2, 3)]), k=st.integers(1, 50),
           m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120)
    def test_bit_identical_to_reference(self, lead, k, m, seed):
        r = np.random.default_rng(seed)
        breaks = np.cumsum(r.uniform(1e-3, 2.0, k + 1)) - r.uniform(0.0, 5.0)
        slopes = r.standard_normal(lead + (k, m)) * 10.0 ** r.uniform(-8, 8, lead + (k, 1))
        anchor = r.standard_normal(lead + (m,)) * 10.0 ** r.uniform(-8, 8)
        got = co._node_values(breaks, slopes, anchor)
        expected = reference_node_values(breaks, slopes, anchor)
        assert got.shape == expected.shape == lead + (k + 1, m)
        assert got.tobytes() == expected.tobytes()

    @given(k=st.integers(1, 50), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_column_major_slopes_keep_their_order_and_bits(self, k, m, seed):
        r = np.random.default_rng(seed)
        breaks = np.cumsum(r.uniform(1e-3, 2.0, k + 1)) - r.uniform(0.0, 5.0)
        slopes = np.asfortranarray(r.standard_normal((k, m)) * 10.0 ** r.uniform(-8, 8, (k, 1)))
        anchor = r.standard_normal(m) * 10.0 ** r.uniform(-8, 8)
        got = co._node_values(breaks, slopes, anchor)
        assert got.flags.f_contiguous or k == 1  # one row is in both orders
        assert got.tobytes() == reference_node_values(breaks, slopes, anchor).tobytes()


class TestCoordinateCurve:
    @pytest.mark.parametrize("breaks", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                        [np.nan, np.nan], [-np.inf, 0.0], [0.0, 1.0, 1.0]])
    def test_breakpoints_must_be_finite_and_increasing(self, breaks):
        with pytest.raises(PreconditionError, match="finite and strictly increasing"):
            co.CoordinateCurve(np.array(breaks), np.ones((len(breaks) - 1, 2)), np.zeros(2))

    @pytest.mark.parametrize("anchor", [[5.0], [5.0, 6.0]])
    def test_anchor_shape_checked_at_construction(self, anchor):
        with pytest.raises(DimensionMismatch, match="anchor shape"):
            co.CoordinateCurve(np.array([0.0, 1.0]), np.ones((1, 3)), np.array(anchor))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("slopes, anchor, field", [
        (np.ones((1, 2)), np.array([np.nan, 0.0]), "anchor"),
        (np.array([[np.inf, 1.0]]), np.zeros(2), "slopes"),
    ], ids=["nan-anchor", "inf-slope"])
    def test_slopes_and_anchor_must_be_finite(self, slopes, anchor, field):
        # a NaN anchor used to build a curve that evaluates to NaN everywhere, and an
        # infinite slope was refused only by the operator norm, after a RuntimeWarning
        with pytest.raises(PreconditionError, match=f"{field} must be finite"):
            co.CoordinateCurve(np.array([0.0, 1.0]), slopes, anchor)
        with pytest.raises(PreconditionError, match=f"{field} must be finite"):
            co.pa_from_axis_slopes(BOX, [BOX[0], BOX[1]], [slopes, np.ones((1, 2))],
                                   [anchor, np.zeros(2)], np.zeros(2),
                                   ns.euclidean(2), ns.euclidean(2))

    def test_memory_order_changes_no_map_output(self):
        A = np.array([[0.5, 0.0], [0.0, 0.25], [0.1, 0.0]])
        m = eucl_map(A)
        g = co.inflate_affine(m, la.euclidean_inflation(m), BOX, 0.05)
        c_order = dataclasses.replace(g, curves=tuple(
            co.CoordinateCurve(c.breakpoints, np.ascontiguousarray(c.slopes), c.anchor)
            for c in g.curves))
        assert all(c.segment_count > 1 and c.slopes.flags.f_contiguous
                   and c._values.flags.f_contiguous for c in g.curves)
        assert all(c.slopes.flags.c_contiguous for c in c_order.curves)
        xs = np.random.default_rng(3).uniform(-1, 1, (5000, 2))
        assert g.eval_many(xs).tobytes() == c_order.eval_many(xs).tobytes()
        assert g.distinct_linears().tobytes() == c_order.distinct_linears().tobytes()
        assert g.cell_vol_table().tobytes() == c_order.cell_vol_table().tobytes()
        assert json.dumps(g.to_json()) == json.dumps(c_order.to_json())


BOX = np.array([[-1.0, 1.0], [-1.0, 1.0]])


class TestPiecewiseAffineMap:
    def test_singular_basis_is_refused_at_construction(self):
        curve = co.CoordinateCurve(np.array([0.0, 1.0]), np.ones((1, 2)), np.zeros(2))
        with pytest.raises(PreconditionError, match="basis must be invertible"):
            co.PiecewiseAffineMap((curve, curve), [[1.0, 2.0], [2.0, 4.0]], np.zeros(2), BOX,
                                  ns.euclidean(2), ns.euclidean(2))

    @pytest.mark.parametrize("anchor_value", [[0.0], [0.0, 0.0, 0.0]])
    def test_anchor_value_length_is_checked_at_construction(self, anchor_value):
        curve = co.CoordinateCurve(np.array([0.0, 1.0]), np.ones((1, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatch, match="anchor_value must"):
            co.PiecewiseAffineMap((curve, curve), np.eye(2), anchor_value, BOX,
                                  ns.euclidean(2), ns.euclidean(2))

    @pytest.mark.parametrize("domain", [BOX[:1], np.array([[-1.0, 1.0]] * 3)])
    def test_domain_rows_are_checked_at_construction(self, domain):
        # a 3-row box with two curves used to build, then fail in jacobian_integral
        curve = co.CoordinateCurve(np.array([-1.0, 1.0]), np.ones((1, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatch, match="one row per curve"):
            co.PiecewiseAffineMap((curve, curve), np.eye(2), np.zeros(2), domain,
                                  ns.euclidean(2), ns.euclidean(2))

    @pytest.mark.parametrize("seed", range(12))
    def test_distinct_linears_match_the_per_combination_loop(self, seed):
        # the reference is the loop distinct_linears ran before it became one array
        # expression: one (m, n) column stack per combination, times basis^-1
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        m = n + int(rng.integers(0, 2))
        curves = []
        for _ in range(n):
            k = int(rng.integers(1, 6))
            rows = rng.normal(size=(int(rng.integers(1, 4)), m))
            curves.append(co.CoordinateCurve(np.linspace(0.0, 1.0, k + 1),
                                             rows[rng.integers(0, len(rows), k)], np.zeros(m)))
        bases = [np.eye(n), np.diag(rng.uniform(0.5, 2.0, n)), rng.normal(size=(n, n))]
        basis = bases[seed // 3 % 3]
        pam = co.PiecewiseAffineMap(curves, basis, np.zeros(m), [[0.0, 1.0]] * n,
                                    ns.euclidean(n), ns.euclidean(m))
        uniques = [c._unique_slopes[0] for c in pam.curves]
        want = [np.stack([u[i] for u, i in zip(uniques, combo)], axis=1) @ pam.coord_map
                for combo in np.ndindex(*[len(u) for u in uniques])]
        assert pam.distinct_linears().tobytes() == np.array(want).tobytes()


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
        sign_mats = la.sign_matrices(m, cert.preimages, cert.eigenvalues)
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

    def test_single_point_maps_glue_like_their_batch_forms(self):
        def base_pt(x):
            return np.array([0.5 * x[0], 0.5 * x[1], 0.0])

        def patch_pt(x):
            return np.array([0.5 * x[0], 0.5 * x[1], 0.01 * x[0] * x[1]])

        def base(xs):
            return np.stack([0.5 * xs[:, 0], 0.5 * xs[:, 1], np.zeros(len(xs))], axis=1)

        def patch(xs):
            return np.stack([0.5 * xs[:, 0], 0.5 * xs[:, 1], 0.01 * xs[:, 0] * xs[:, 1]],
                            axis=1)

        cores = (np.array([[0.0, 0.3], [0.0, 0.3]]), np.array([[0.6, 0.9], [0.6, 0.9]]))

        def glued(f, g):
            spec = co.PatchSpec(cores, (0.1, 0.1), (g, g), f, 0.2,
                                ns.euclidean(2), ns.euclidean(3))
            return co.glue_patches(spec, 0.5)

        xs = np.random.default_rng(3).uniform(-0.2, 1.2, (2000, 2))
        expected = glued(base, patch).eval_many(xs)
        for f, g in ((base_pt, patch_pt), (base_pt, patch), (base, patch_pt)):
            g_glued = glued(f, g)
            assert np.array_equal(g_glued.eval_many(xs), expected)
            assert [piece for _, piece in g_glued.pieces()] == [g, g]


def test_batch_form_adapts_to_itself():
    # the single-point f reads a lone coordinate too, with another value
    def f(x):
        return x ** 2 / (1.0 + np.sum(x ** 2))

    xs = np.random.default_rng(4).uniform(-1, 1, (50, 2))
    once = co._as_batch(f, 2)
    expected = np.stack([f(x) for x in xs])
    assert np.array_equal(once(xs), expected)
    assert np.array_equal(co._as_batch(once, 2)(xs), expected)


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
        with pytest.raises(PreconditionError, match="full rank"):
            # sigma_min / sigma_max = 1e-11: rank-deficient by the one rule
            co.lsc_margin(np.diag([1.0, 1e-11]), 0.5)

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


class TestGridSubset:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)], ids=["short", "long"])
    def test_shape_length_is_checked_at_construction(self, shape):
        # used to fail in measure() with numpy's broadcast error
        with pytest.raises(DimensionMismatch, match="must have one count per box row"):
            GridSubset(BOX, shape, np.ones(shape, dtype=bool))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(2, 0), (2, -1), (2.0, 2.0)],
                             ids=["zero", "negative", "float"])
    def test_shape_counts_are_checked_at_construction(self, shape):
        # a zero count used to divide by zero into infinite cell widths
        with pytest.raises(PreconditionError, match="must hold positive integers"):
            GridSubset(BOX, shape, np.ones((2, 2), dtype=bool))


class TestInflateOnSet:
    @pytest.mark.parametrize("a", [
        ns.transformed(ns.euclidean(2), np.eye(2)),
        ns.transformed(ns.euclidean(2), np.diag([2.0, 1.0])),
        ns.polytopal([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    ], ids=["transformed-identity", "transformed-diagonal", "polytopal-square"])
    def test_domain_norms_the_glue_cannot_measure_are_refused_before_any_search(
            self, monkeypatch, a):
        # these used to build every patch, then fail in glue_patches
        def no_search(*args, **kwargs):
            raise AssertionError("ran an inflation search")

        monkeypatch.setattr(co, "inflation_search", no_search)
        with pytest.raises(PreconditionError, match="needs a euclidean or lp domain norm"):
            co.inflate_on_set(lambda xs: np.zeros((xs.shape[0], 3)), BOX, a,
                              ns.euclidean(3), 1.0, 0.2, 0.5, seed=0, f_lip=0.0)

    def test_achieved_integral_is_the_jacobian_integral_of_the_glued_map(self):
        subset = GridSubset(BOX, (2, 2), np.array([[True, True], [False, True]]))
        for E in (BOX, subset):
            glued, report = co.inflate_on_set(
                lambda xs: np.zeros((xs.shape[0], 3)), E, ns.euclidean(2), ns.euclidean(3),
                1.0, 0.2, 0.5, seed=4)
            assert repr(report.achieved_integral) == repr(ml.jacobian_integral(glued, E).value)

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

    def test_coarse_fits_double_the_grid(self, monkeypatch):
        calls = []
        grid = co._inflate_on_grid

        def counted(*args):
            calls.append(args)
            return grid(*args)

        monkeypatch.setattr(co, "_inflate_on_grid", counted)
        f = lambda xs: 0.5 * np.stack([xs[:, 0], xs[:, 1], 0.01 * xs[:, 0] ** 2], axis=1)
        glued, report = co.inflate_on_set(f, [[0.0, 1.0], [0.0, 1.0]], ns.euclidean(2),
                                          ns.euclidean(3), 1.0, 0.2, 0.5, seed=0, f_lip=0.51)
        assert report.cell_grid == (4, 4)
        assert len(calls) == 2
        assert report.achieved_integral >= report.target_integral
        assert report.sup_distance <= 0.2
        assert report.lip_glue_bound <= 1.0

    def test_fits_that_never_converge_stop_at_64_cells(self):
        f = lambda xs: 0.4 * np.stack([np.sin(xs[:, 0]), np.sin(xs[:, 1]),
                                       np.zeros(xs.shape[0])], axis=1)
        with pytest.raises(NumericalFailure, match="do not converge at 64 cells per axis"):
            co.inflate_on_set(f, BOX, ns.euclidean(2), ns.euclidean(3), 1.0, 0.1, 0.9, seed=0)

    # Byte-level pins of three paths the README jobs do not take: every report
    # field by repr, and a sha256 over the patches' breakpoints and slopes.
    @pytest.mark.parametrize("make, report, digest", [
        (lambda: co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), BOX, ns.l1(2), ns.linf(3), 1.0, 0.2, 0.5,
            seed=2),
         co.InflateReport(
             achieved_integral=2.7000017062902097, target_integral=2.0, domain_measure=4.0,
             sup_distance=0.00024036941781317996, lip_cells_exact=0.9064126192070304,
             lip_glue_bound=0.9981282523841406, cell_grid=(2, 2), sigma=0.9064126192070305,
             lip_scale=0.9064126192070304, lam=1.0, eta=0.5, eps=0.2, seed=2, prescaled=False,
             patch_count=4),
         "dc4acc001afdfc41038edc7f9ce7a8d688023de45273d82b46ee9ef30498e438"),
        (lambda: co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)),
            GridSubset(BOX, (2, 2), np.array([[True, True], [False, True]])),
            ns.euclidean(2), ns.euclidean(3), 1.0, 0.2, 0.5, seed=4),
         co.InflateReport(
             achieved_integral=2.0250000000000004, target_integral=1.5, domain_measure=3.0,
             sup_distance=0.000322422758888627, lip_cells_exact=0.9064126192070306,
             lip_glue_bound=0.9981282523841406, cell_grid=(2, 2), sigma=0.9064126192070305,
             lip_scale=0.9064126192070304, lam=1.0, eta=0.5, eps=0.2, seed=4, prescaled=False,
             patch_count=3),
         "a87b36950347550b06282f85b62cfae72d7f17600600bb356b1d8306ce03c314"),
        (lambda: co.inflate_on_set(
            lambda xs: xs @ (0.99 * np.eye(3, 2)).T + 0.1, BOX, ns.euclidean(2),
            ns.euclidean(3), 1.0, 0.2, 0.5, seed=6, f_lip=0.99),
         co.InflateReport(
             achieved_integral=2.8493193612338175, target_integral=2.0, domain_measure=4.0,
             sup_distance=0.0802566377967507, lip_cells_exact=0.9377737232063839,
             lip_glue_bound=0.9987554744641277, cell_grid=(2, 2), sigma=0.9,
             lip_scale=0.9377737232063839, lam=1.0, eta=0.5, eps=0.2, seed=6, prescaled=True, patch_count=4),
         "da6e1dec7db4a068ad361ed149aeeb1c25cbb8ad85d9f133b1a748d1f0d75ebb"),
    ], ids=["zero-l1-linf-searched", "three-of-four-cells", "prescaled-affine"])
    def test_pipeline_outputs_are_pinned(self, make, report, digest):
        glued, got = make()
        for field in dataclasses.fields(co.InflateReport):
            assert repr(getattr(got, field.name)) == repr(getattr(report, field.name)), field.name
        h = hashlib.sha256()
        for g_i in glued.spec.patch_maps:
            for curve in g_i.curves:
                h.update(curve.breakpoints.tobytes())
                h.update(curve.slopes.tobytes())
        assert h.hexdigest() == digest
