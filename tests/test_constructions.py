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
from inflate_lab.geometry import GridSubset, as_domain


def eucl_map(matrix):
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return la.linear_map(matrix, ns.euclidean(n), ns.euclidean(m))


def all_nodes(curve):
    """The curve's values at all K + 1 of its nodes, from its node lookup."""
    return curve._nodes(np.arange(curve.segment_count + 1))


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

    def test_build_and_evaluation_peak_bytes_per_segment(self):
        # building about 9e4 column-major segments peaks near 45.5 bytes a segment;
        # evaluating adds only the checkpoints, 8 m / C bytes a segment, and the
        # fixed chunk buffers (widths, steps and take's intp copy of the labels)
        # where a (K + 1, m) node-value array added 8 m
        a = np.array([0.5, 0.0, 0.2])
        tracemalloc.start()
        try:
            z = co.zigzag_curve(a, 2.0 * a, 1e-5, (0.0, 1.0))
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            z.eval_many(np.linspace(0.0, 1.0, 160))
            _, eval_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = z.segment_count
        assert k > 2 * co._NODE_CHUNK
        assert build_peak / k < 52.0
        chunk_buffers = 3 * 8 * co._NODE_CHUNK
        query = 131_072  # the lookup's (C, 160, m) block and eval_many's own arrays
        assert eval_peak - built <= 8 * 3 / co._NODE_STRIDE * k + chunk_buffers + query

    def test_palette_bytes_per_segment(self):
        # 8 bytes of breakpoint and 1 of label a segment, and 8 m of node values
        # once evaluated; the (K, m) slope rows took 8 m more before either
        a = np.array([0.5, 0.0, 0.2])
        tracemalloc.start()
        try:
            z = co.zigzag_curve(a, 2.0 * a, 4.5e-6, (0.0, 1.0))
            built, _ = tracemalloc.get_traced_memory()
            z.eval_many(np.linspace(0.0, 1.0, 7))
            evaluated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = z.segment_count
        assert k > 190_000
        assert built <= 9 * k + 16_384
        assert evaluated <= (9 + 8 * 3) * k + 16_384


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


def explicit_zigzag(a, u, eps, interval):
    """The zigzag in the form CoordinateCurve(breaks, u x signs, anchor).

    Breakpoints and signs come from reference_zigzag, or for a = 0 from
    the triangle wave's +u, -u alternation from 0 on zigzag_curve's breakpoints.
    """
    if not np.any(a):
        breaks = co.zigzag_curve(a, u, eps, interval).breakpoints
        signs = np.tile([1.0, -1.0], (len(breaks) - 1) // 2)
        return co.CoordinateCurve(breaks, np.multiply.outer(u, signs).T, np.zeros_like(u))
    breaks, signs = reference_zigzag(a, u, eps, interval)
    return co.CoordinateCurve(breaks, np.multiply.outer(u, signs).T, interval[0] * a)


class TestZigzagPalette:
    @given(kind=st.sampled_from(["triangle", "single", "mesh", "dropped"]),
           m=st.integers(1, 3), sign=st.sampled_from([-1.0, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=160)
    def test_bit_identical_to_the_explicit_form(self, kind, m, sign, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(-1.0, 1.0, m)
        assume(np.linalg.norm(a) > 1e-2)
        lo = r.uniform(-5.0, 5.0)
        width = 10.0 ** r.uniform(-1.0, 0.3)
        eps = 10.0 ** r.uniform(-3.0, 0.0)
        if kind == "triangle":
            a, u = np.zeros(m), sign * a
        elif kind == "single":  # kappa = +-1
            u = sign * a
        elif kind == "mesh":
            u = sign * (1.0 + 10.0 ** r.uniform(-3.0, 1.0)) * a
        else:  # turns within about 1e-15 of a mesh end: some or all dropped
            u = sign * (1.0 + 10.0 ** r.uniform(-12.0, -10.5)) * a
            eps = 10.0 ** r.uniform(-15.5, -14.5)
        interval = (lo, lo + width)
        z = co.zigzag_curve(a, u, eps, interval)
        x = explicit_zigzag(a, u, eps, interval)
        assert z.labels.dtype == np.uint8
        ts = np.linspace(lo - 0.1 * width, lo + 1.1 * width, 2000)

        def pam(c):
            return co.PiecewiseAffineMap((c,), [[1.0]], np.zeros(m), [interval],
                                         ns.euclidean(1), ns.euclidean(m))

        pairs = [(z.breakpoints, x.breakpoints), (z.rows, x.rows), (z.labels, x.labels),
                 (z.slopes, x.slopes), (all_nodes(z), all_nodes(x)),
                 (all_nodes(z), co._node_values(x.breakpoints, x.slopes, x.anchor)),
                 (z.eval_many(ts), x.eval_many(ts)),
                 (pam(z).distinct_linears(), pam(x).distinct_linears()),
                 (pam(z).cell_vol_table(), pam(x).cell_vol_table())]
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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


C, CHUNK = co._NODE_STRIDE, co._NODE_CHUNK


class TestNodeLookup:
    @given(k=st.one_of(st.integers(1, 3 * C),
                       st.sampled_from([C - 1, C, C + 1, 2 * C, CHUNK - 1, CHUNK, CHUNK + 1,
                                        CHUNK + C - 1, 2 * CHUNK + 17])),
           m=st.integers(1, 3), palette=st.integers(1, 4), negative_zero=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_node_values_at_every_node(self, k, m, palette, negative_zero,
                                                        seed):
        r = np.random.default_rng(seed)
        breaks = np.cumsum(r.uniform(1e-3, 2.0, k + 1)) - r.uniform(0.0, 5.0)
        rows = r.standard_normal((palette, m)) * 10.0 ** r.uniform(-8, 8, (palette, 1))
        anchor = r.standard_normal(m) * 10.0 ** r.uniform(-8, 8)
        if negative_zero:  # -0.0 steps from node 0 on must keep their sign
            rows[0], anchor[:] = -0.0, -0.0
        curve = co.CoordinateCurve(breaks, rows[r.integers(0, palette, k)], anchor)
        want = co._node_values(curve.breakpoints, curve.slopes, curve.anchor)
        assert curve._checkpoints.shape == (k // C + 1, m)
        assert all_nodes(curve).tobytes() == want.tobytes()
        some = r.integers(0, k + 1, 300)  # any order, repeats allowed
        assert curve._nodes(some).tobytes() == want[some].tobytes()


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
        assert all(c.segment_count > 1 and c.slopes.flags.f_contiguous for c in g.curves)
        assert all(c.slopes.flags.c_contiguous for c in c_order.curves)
        for c, d in zip(g.curves, c_order.curves):
            want = co._node_values(c.breakpoints, c.slopes, c.anchor)
            assert all_nodes(c).tobytes() == all_nodes(d).tobytes() == want.tobytes()
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
        uniques = [np.unique(c.slopes, axis=0) for c in pam.curves]
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

    def test_the_first_overlapping_pair_in_loop_order_is_named(self):
        # boxes 0 and 1 are apart, box 2 meets both
        a, b = self._norms()
        f = lambda xs: np.zeros_like(xs)
        sets = (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[3.0, 4.0], [0.0, 1.0]]),
                np.array([[1.5, 2.5], [0.0, 1.0]]))
        spec = co.PatchSpec(sets, (0.5,) * 3, (f,) * 3, f, 0.1, a, b)
        with pytest.raises(PreconditionError,
                           match=r"patch neighborhoods 0 and 2 overlap \(gap 0.5\)"):
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


HEXAGON = ns.polytopal([[1.0, 0.0], [0.5, 0.75], [-0.5, 0.75], [-1.0, 0.0], [-0.5, -0.75],
                        [0.5, -0.75]])


class TestPatchSets:
    def test_a_two_by_two_array_in_the_plane_is_a_box(self):
        # the one shape rule: (n, 2) is a box, so [[0, 0], [1, 1]] is the point (0, 1)
        point = co._patch_set([[0, 0], [1, 1]], 2)
        assert point.tobytes() == np.array([[[0.0, 0.0], [1.0, 1.0]]]).tobytes()
        # one point listed twice makes a cloud of (0, 0) and (1, 1)
        cloud = co._patch_set([[0, 0], [1, 1], [1, 1]], 2)
        assert cloud.tobytes() == np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                                            [[1.0, 1.0], [1.0, 1.0]]]).tobytes()
        assert co._patch_set([2, 3], 2).tobytes() == co._patch_set([[2, 3]], 2).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            point[0, 0, 0] = 1.0

    def test_a_point_patch_set_is_accepted_in_any_norm(self):
        # a box of width 0 is a point, whose clamp is exact in every norm
        f = lambda xs: np.zeros_like(xs)
        g1 = lambda xs: np.full((xs.shape[0], 2), 0.05)
        for point in ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]):
            spec = co.PatchSpec((point,), (1.0,), (g1,), f, 0.1, HEXAGON, ns.euclidean(2))
            g = co.glue_patches(spec, 0.0)
            assert np.array_equal(g.eval_many(np.zeros((1, 2))), [[0.05, 0.05]])
        with pytest.raises(PreconditionError, match="lp-family domain norm"):
            co.PatchSpec(([[0.0, 1.0], [0.0, 0.0]],), (1.0,), (g1,), f, 0.1, HEXAGON,
                         ns.euclidean(2))


def every_point_glue(glued, xs):
    """GluedMap.eval_many as it was written: every patch's chi over every point."""
    out = glued._base(xs).copy()
    for i, g_i in enumerate(glued._patches):
        w = glued.chi(xs, i)
        active = w > 0.0
        if np.any(active):
            diff = g_i(xs[active]) - out[active]
            out[active] += w[active, None] * diff
    return out


class TestGluedEvaluation:
    LP = [ns.euclidean(2), ns.l1(2), ns.linf(2), ns.lp(2, 3.0), ns.euclidean(3), ns.lp(3, 1.5)]
    OTHER = [HEXAGON, ns.transformed(ns.euclidean(2), [[3.0, 1.0], [0.5, 2.0]])]

    @staticmethod
    def _glued_and_points(norm, seed):
        """Up to five random box or cloud patches with affine maps (boxes only in an lp
        norm), and points in the whole square and close to the patches."""
        r = np.random.default_rng(seed)
        n, k = norm.dim, int(r.integers(1, 6))
        sets = []
        for _ in range(k):
            if norm.kind in co._CLAMP_KINDS and r.random() < 0.5:
                lo = r.uniform(-3.0, 3.0, n)
                sets.append(np.stack([lo, lo + r.uniform(0.0, 1.0, n)], axis=1))
            else:
                sets.append(r.uniform(-3.0, 3.0, (int(r.choice([1, 3, 4])), n)))

        def affine():
            M, c = r.standard_normal((3, n)), r.standard_normal(3)
            return lambda xs: xs @ M.T + c

        radii = tuple(r.uniform(0.05, 1.0, k))
        spec = co.PatchSpec(tuple(sets), radii, tuple(affine() for _ in range(k)), affine(),
                            0.1, norm, ns.euclidean(3))
        near = [co._patch_set(s, n)[:, :, 0] for s in sets]
        near = np.concatenate([p + r.uniform(-rho, rho, p.shape) for p, rho in zip(near, radii)])
        xs = np.concatenate([r.uniform(-4.0, 4.0, (int(r.integers(0, 2000)), n)), near])
        return co.GluedMap(spec, 1.0), r.permutation(xs)

    @pytest.mark.parametrize("norm", LP, ids=lambda a: f"{a.kind}{a.dim}-{a.p}")
    def test_lp_outputs_equal_every_point_chi_bit_for_bit(self, norm):
        for seed in range(60):
            glued, xs = self._glued_and_points(norm, seed)
            assert glued.eval_many(xs).tobytes() == every_point_glue(glued, xs).tobytes()

    @pytest.mark.parametrize("norm", OTHER, ids=["hexagon", "transformed"])
    def test_other_norms_agree_within_an_ulp_of_the_largest_patch_offset(self, norm):
        # a patch's distances are taken as one matmul over the points in its hull, which
        # may round apart from one over all points; over these seeds the outputs moved by
        # at most 0.49 eps max_i |g_i - f| (hexagon) and 0.17 eps of it (transformed)
        for seed in range(60):
            glued, xs = self._glued_and_points(norm, seed)
            offset = max(np.max(np.abs(g_i(xs) - glued._base(xs))) for g_i in glued._patches)
            gap = np.abs(glued.eval_many(xs) - every_point_glue(glued, xs))
            assert np.all(gap <= np.finfo(float).eps * offset)

    def test_chi_is_zero_outside_the_coordinate_hull(self):
        # |v_j| <= |e_j|_* |v|: in transformed(euclidean, 3 I) chi reaches 1.5 rho / 2 on
        # an axis, three times what a coordinate box of rho / 2 would hold
        norm = ns.transformed(ns.euclidean(2), 3.0 * np.eye(2))
        f = lambda xs: np.zeros((xs.shape[0], 2))
        g1 = lambda xs: np.ones((xs.shape[0], 2))
        glued = co.GluedMap(co.PatchSpec(([0.0, 0.0],), (1.0,), (g1,), f, 0.1, norm,
                                         ns.euclidean(2)), 0.0)
        ts = np.linspace(-2.0, 2.0, 4001)
        xs = np.stack([ts, np.zeros_like(ts)], axis=1)
        out = glued.eval_many(xs)
        assert out.tobytes() == every_point_glue(glued, xs).tobytes()
        assert np.max(np.abs(ts[out[:, 0] > 0.0])) == pytest.approx(1.5, abs=1e-3)


class TestNeighbourhoodSamples:
    NORM = ns.transformed(ns.euclidean(2), 3.0 * np.eye(2))  # |e_j| = 1/3

    def test_samples_reach_the_whole_neighbourhood(self):
        # the rho-ball is the disk of radius 3 rho; coordinate boxes of rho held
        # every draw within linf 0.5
        point = co._patch_set([0.0, 0.0], 2)
        pts = co._sample_neighborhood(point, 0.5, 160, np.random.default_rng(0), self.NORM)
        assert len(pts) == 160
        assert np.all(ns.eval_many(self.NORM, pts) <= 0.5)
        assert np.max(np.abs(pts)) > 0.5

    def test_lp_draws_keep_their_bits(self):
        # |e_j|_* is 1.0 exactly in lp norms: the hulls are the boxes grown by rho
        boxes = co._patch_set([[0.0, 0.3], [-0.2, 0.1]], 2)
        for norm in (ns.euclidean(2), ns.l1(2), ns.linf(2), ns.lp(2, 3.0)):
            hulls = co._coordinate_hulls(boxes, 0.37, norm)
            assert hulls.tobytes() == np.stack([boxes[:, :, 0] - 0.37, boxes[:, :, 1] + 0.37],
                                               axis=2).tobytes()

    def test_a_patch_deviating_only_beyond_the_coordinate_box_is_refused(self):
        f = lambda xs: np.zeros((xs.shape[0], 2))
        g1 = lambda xs: np.where(np.max(np.abs(xs), axis=1, keepdims=True) > 0.5, 1.0, 0.0) \
            * np.ones((1, 2))
        spec = co.PatchSpec(([0.0, 0.0],), (0.5,), (g1,), f, 0.1, self.NORM, ns.euclidean(2))
        with pytest.raises(PreconditionError, match="deviates"):
            co.glue_patches(spec, 0.0)


def old_dist_to_set(xs, arr, norm):
    """Distance to a box ((n, 2) rows) or a point cloud ((k, n)), as it was written per shape."""
    if arr.shape == (norm.dim, 2):
        return ns._eval_many(norm, xs - np.clip(xs, arr[:, 0], arr[:, 1]))
    dists = np.empty((xs.shape[0], arr.shape[0]))
    for j, p in enumerate(arr):
        dists[:, j] = ns._eval_many(norm, xs - p[None, :])
    return np.min(dists, axis=1)


def old_set_to_set_distance(a, b, norm):
    if a.shape == (norm.dim, 2):
        if b.shape == (norm.dim, 2):
            gap = np.maximum(0.0, np.maximum(b[:, 0] - a[:, 1], a[:, 0] - b[:, 1]))
            return float(ns.norm_eval(norm, gap))
        return float(np.min(old_dist_to_set(b, a, norm)))
    return float(np.min(old_dist_to_set(a, b, norm)))


_COORD = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def patch_arrays(draw, clouds_only=False):
    """A box ((2, 2), low <= high) or a cloud of 1, 3 or 4 points of the plane."""
    if not clouds_only and draw(st.booleans()):
        rows = [sorted(draw(st.lists(_COORD, min_size=2, max_size=2))) for _ in range(2)]
        return np.array(rows)
    k = draw(st.sampled_from([1, 3, 4]))
    return np.array(draw(st.lists(st.lists(_COORD, min_size=2, max_size=2),
                                  min_size=k, max_size=k)))


class TestStackedDistances:
    LP = [ns.l1(2), ns.euclidean(2), ns.linf(2), ns.lp(2, 3.0)]

    @settings(max_examples=150, deadline=None)
    @given(patch_arrays(), patch_arrays(), st.lists(st.lists(_COORD, min_size=2, max_size=2),
                                                     min_size=1, max_size=5))
    def test_lp_distances_equal_the_per_shape_formulas_bit_for_bit(self, a, b, xs):
        xs = np.array(xs)
        for norm in self.LP:
            got = co._dist_to_set(xs, co._patch_set(a, 2), norm)
            assert got.tobytes() == old_dist_to_set(xs, a, norm).tobytes()
            got = co._set_to_set_distance(co._patch_set(a, 2), co._patch_set(b, 2), norm)
            assert repr(got) == repr(old_set_to_set_distance(a, b, norm))

    @settings(max_examples=150, deadline=None)
    @given(patch_arrays(clouds_only=True), patch_arrays(clouds_only=True),
           st.lists(st.lists(_COORD, min_size=2, max_size=2), min_size=1, max_size=5))
    def test_hexagon_cloud_distances_agree_within_4_ulps(self, a, b, xs):
        # one (k_a k_b, 2) matmul may round apart from k_b matmuls of (k_a, 2)
        xs = np.array(xs)
        np.testing.assert_array_max_ulp(co._dist_to_set(xs, co._patch_set(a, 2), HEXAGON),
                                        old_dist_to_set(xs, a, HEXAGON), maxulp=4)
        np.testing.assert_array_max_ulp(
            co._set_to_set_distance(co._patch_set(a, 2), co._patch_set(b, 2), HEXAGON),
            old_set_to_set_distance(a, b, HEXAGON), maxulp=4)


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

    def test_a_box_is_its_one_cell_lattice_bit_for_bit(self):
        # lo + (hi - lo) is 0.0 here, not 2^-60
        box = np.array([[-1.0, 2.0 ** -60]] * 2)
        E = as_domain(box)
        assert E.shape == (1, 1) and E.measure() == (1.0 + 2.0 ** -60) ** 2
        assert E.cell_boxes[0].tobytes() == box.tobytes()
        assert E.cell_box((0, 0)).tobytes() == box.tobytes()
        assert as_domain(E) is E

    def test_every_lattice_ends_on_its_box(self):
        # lo + k (hi - lo) / k missed hi by an ulp on about 40% of these lattices
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(1, 65))
            lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
            cells = GridSubset.full([[lo, hi]], (k,)).cell_boxes[:, 0]
            assert cells[0, 0] == lo and cells[-1, 1] == hi

    def test_neighbouring_cells_share_their_face_bit_for_bit(self):
        # cell i ended at lo + i w + w, cell i + 1 started at lo + (i + 1) w: on
        # 847 of these lattices some neighbours overlapped or left a gap
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            shape = tuple(int(c) for c in rng.integers(2, 65 if n == 1 else 9, n))
            lo = rng.uniform(-3.0, 3.0, n)
            E = GridSubset.full(np.stack([lo, lo + rng.uniform(1e-3, 6.0, n)], axis=1), shape)
            cells = E.cell_boxes.reshape(shape + (n, 2))
            for d in range(n):
                upper = np.take(cells, np.arange(shape[d] - 1), axis=d)[..., d, 1]
                lower = np.take(cells, np.arange(1, shape[d]), axis=d)[..., d, 0]
                assert upper.tobytes() == lower.tobytes()

    def test_cell_boxes_equal_cell_box_cell_by_cell(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            shape = tuple(int(c) for c in rng.integers(1, 7, n))
            lo = rng.uniform(-3.0, 3.0, n)
            E = GridSubset(np.stack([lo, lo + rng.uniform(0.01, 4.0, n)], axis=1), shape,
                           rng.random(shape) < 0.5)
            cells = E.cell_boxes
            assert cells.shape == (np.count_nonzero(E.mask), n, 2)
            for row, idx in zip(cells, np.argwhere(E.mask)):
                assert row.tobytes() == E.cell_box(idx).tobytes()
            assert [c.tobytes() for _, c in E.cells()] == [c.tobytes() for c in cells]

    def test_the_mask_is_a_read_only_copy(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        E = GridSubset(BOX, (2, 2), mask)
        cells = E.cell_boxes.copy()
        mask[1, 1] = True
        assert E.measure() == pytest.approx(1.0)
        assert np.array_equal(E.cell_boxes, cells)
        with pytest.raises(ValueError, match="read-only"):
            E.mask[1, 1] = True

    def test_affine_pieces_clip_like_the_per_box_loop(self):
        # lattices whose neighbouring cells touch by an ulp, clipped to cells,
        # to cells nudged by an ulp, and to random boxes
        rng = np.random.default_rng(8)
        curve = co.CoordinateCurve(np.array([0.0, 1.0]), np.ones((1, 2)), np.zeros(2))
        f = lambda xs: np.zeros_like(xs)
        a = ns.euclidean(2)
        for trial in range(40):
            lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
            shape = tuple(int(c) for c in rng.integers(1, 8, 2))
            E = GridSubset([[lo, hi]] * 2, shape, rng.random(shape) < 0.6)
            loop_boxes = [E.cell_box(idx) for idx in np.argwhere(E.mask)]
            domains = [E.cell_box(rng.integers(0, shape)) for _ in range(4)]
            domains += [np.nextafter(d, d + np.array([1.0, -1.0]) * (-1) ** trial)
                        for d in domains]
            domains += [np.sort(rng.uniform(lo - 0.5, hi + 0.5, (2, 2)), axis=1)
                        for _ in range(4)]
            pams = [co.PiecewiseAffineMap((curve, curve), np.eye(2), np.zeros(2), d, a, a)
                    for d in domains]
            glued = co.GluedMap(co.PatchSpec(tuple(domains), (0.5,) * len(domains),
                                             tuple(pams), f, 0.1, a, a), 1.0)
            want = []
            for dom, pam in zip(domains, pams):
                clipped = []
                for box in loop_boxes:
                    box_lo = np.maximum(box[:, 0], dom[:, 0])
                    box_hi = np.minimum(box[:, 1], dom[:, 1])
                    if np.all(box_hi > box_lo):
                        clipped.append(np.stack([box_lo, box_hi], axis=1))
                if clipped:
                    want.append((pam, clipped))
            got = co._affine_pieces(glued, E, "test")
            assert [pam for pam, _ in got] == [pam for pam, _ in want]
            for (_, got_boxes), (_, want_boxes) in zip(got, want):
                assert [box.tobytes() for box in got_boxes] == \
                    [box.tobytes() for box in want_boxes]


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

    @staticmethod
    def _cores_lie_in_occupied_cells(glued, E):
        cells = E.cell_boxes
        for (core,) in glued.spec.patch_sets:
            inside = np.all((cells[:, :, 0] <= core[:, 0]) & (core[:, 1] <= cells[:, :, 1]),
                            axis=1)
            assert inside.any()

    def test_touching_cells_of_an_unoccupied_row_build_no_patch(self):
        # on this box row 1's float upper bound passed row 2's lower bound by
        # 1.1e-16 and now meets it; the float overlap test used to build 12
        # patches for 6 cells
        mask = np.zeros((6, 6), dtype=bool)
        mask[2] = True
        E = GridSubset([[0.087, 1.964]] * 2, (6, 6), mask)
        assert E.cell_box((1, 0))[0, 1] == E.cell_box((2, 0))[0, 0]
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), E, ns.euclidean(2), ns.euclidean(3),
            1.0, 0.2, 0.5, seed=0)
        assert report.cell_grid == (6, 6)
        assert report.patch_count == 6
        self._cores_lie_in_occupied_cells(glued, E)
        assert report.achieved_integral >= report.target_integral

    def test_a_non_square_subset_refines_its_own_lattice(self):
        E = GridSubset([[0.0, 1.0], [0.0, 1.0]], (1, 4), np.array([[True, False, True, True]]))
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), E, ns.euclidean(2), ns.euclidean(3),
            1.0, 0.2, 0.5, seed=0)
        assert report.cell_grid == (2, 4)
        assert report.patch_count == 6
        self._cores_lie_in_occupied_cells(glued, E)
        assert report.achieved_integral >= report.target_integral

    def test_an_elongated_subset_doubles_the_axes_below_the_cap(self, monkeypatch):
        # (2, 40) is too coarse along x0; doubling both axes would reach 80 > 64
        calls = []
        grid = co._inflate_on_grid

        def counted(*args):
            calls.append(args[-1])
            return grid(*args)

        monkeypatch.setattr(co, "_inflate_on_grid", counted)
        mask = np.zeros((1, 40), dtype=bool)
        mask[0, 5] = True
        E = GridSubset([[0.0, 1.0], [0.0, 1.0]], (1, 40), mask)
        f = lambda xs: 0.5 * np.stack([xs[:, 0], xs[:, 1], 0.05 * xs[:, 0] ** 2], axis=1)
        glued, report = co.inflate_on_set(f, E, ns.euclidean(2), ns.euclidean(3), 1.0, 0.2,
                                          0.5, seed=0, f_lip=0.51)
        assert calls == [(2, 40), (4, 40), (8, 40), (16, 40), (32, 40)]
        assert report.cell_grid == (32, 40)
        assert report.patch_count == 32
        self._cores_lie_in_occupied_cells(glued, E)
        assert report.achieved_integral >= report.target_integral
        assert report.sup_distance <= 0.2

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
