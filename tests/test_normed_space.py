import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inflate_lab import normed_space as ns
from inflate_lab.errors import DimensionMismatch, PreconditionError

CROSS_2D = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


def gauge_by_bisection(inside, x, iters=60):
    """Independent gauge oracle: bisection on the ray against a membership test."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        return 0.0
    hi = 1.0
    while not inside(x / hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid > 0 and inside(x / mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestNormEval:
    def test_linf_example(self):
        assert ns.norm_eval(ns.linf(2), [1.0, -1.0]) == 1.0

    def test_euclidean_345(self):
        assert ns.norm_eval(ns.euclidean(2), [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_cross_polytope_gauge_vs_bisection_oracle(self):
        cross = ns.polytopal(CROSS_2D)
        inside = lambda y: abs(y[0]) + abs(y[1]) <= 1.0 + 1e-12
        for x in ([0.5, 0.5], [0.2, -0.1], [-0.7, 0.1]):
            expected = gauge_by_bisection(inside, x)
            assert ns.norm_eval(cross, np.array(x)) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ns.norm_eval(ns.euclidean(2), [1.0, 2.0, 3.0])

    def test_nonspanning_vertices_rejected(self):
        with pytest.raises(PreconditionError):
            ns.polytopal([[1.0, 0.0], [-1.0, 0.0]])

    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(PreconditionError):
            ns.polytopal([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])

    def test_transformed_matches_definition(self, rng):
        base = ns.polytopal(CROSS_2D)
        W = np.array([[2.0, 1.0], [0.0, 1.0]])
        tn = ns.transformed(base, W)
        W_inv = np.linalg.inv(W)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert ns.norm_eval(tn, x) == pytest.approx(
                ns.norm_eval(base, W_inv @ x), rel=1e-12)


class TestBallVolume:
    def test_linf_all_dims(self):
        for n in range(1, 5):
            assert ns.ball_volume(ns.linf(n)) == 2.0 ** n

    def test_euclidean_disc(self):
        assert ns.ball_volume(ns.euclidean(2)) == pytest.approx(math.pi, abs=1e-12)

    def test_cross_polytope_triangulation_oracle(self):
        # shoelace oracle for the square with vertices +-e1, +-e2
        verts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        shoelace = 0.5 * abs(sum(
            verts[i][0] * verts[(i + 1) % 4][1] - verts[(i + 1) % 4][0] * verts[i][1]
            for i in range(4)))
        assert ns.ball_volume(ns.polytopal(CROSS_2D)) == pytest.approx(shoelace, abs=1e-9)
        assert ns.ball_volume(ns.l1(2)) == pytest.approx(2.0, abs=1e-12)

    def test_generic_lp_qmc_reports_error(self):
        report = ns.ball_volume_report(ns.lp(2, 3.0))
        assert report.method == "qmc"
        assert report.error_bound > 0
        # closed-form cross-check: 2^n Gamma(1+1/p)^n / Gamma(1+n/p)
        exact = 4.0 * math.gamma(1 + 1 / 3.0) ** 2 / math.gamma(1 + 2 / 3.0)
        assert report.value == pytest.approx(exact, rel=0.02)

    def test_transformed_volume(self):
        W = np.array([[2.0, 0.0], [1.0, 1.5]])
        got = ns.ball_volume(ns.transformed(ns.euclidean(2), W))
        assert got == pytest.approx(abs(np.linalg.det(W)) * math.pi, rel=1e-12)


class TestVolOfNorm:
    def test_examples(self):
        assert ns.vol_of_norm(ns.linf(3)) == 1.0
        assert ns.vol_of_norm(ns.euclidean(2)) == pytest.approx(4.0 / math.pi, abs=1e-12)
        assert ns.vol_of_norm(ns.l1(2)) == pytest.approx(2.0, abs=1e-12)

    def test_change_of_variables(self, rng):
        for base in (ns.euclidean(2), ns.linf(2), ns.polytopal(CROSS_2D)):
            for _ in range(5):
                W = rng.standard_normal((2, 2))
                if abs(np.linalg.det(W)) < 0.1:
                    continue
                got = ns.vol_of_norm(ns.transformed(base, W))
                want = ns.vol_of_norm(base) / abs(np.linalg.det(W))
                assert got == pytest.approx(want, rel=1e-9)


class TestNormAxioms:
    @given(st.integers(0, 10_000), st.sampled_from(["euclidean", "linf", "l1", "p3", "cross"]))
    @settings(max_examples=60)
    def test_triangle_and_homogeneity(self, seed, kind):
        norm = {
            "euclidean": ns.euclidean(2),
            "linf": ns.linf(2),
            "l1": ns.l1(2),
            "p3": ns.lp(2, 3.0),
            "cross": ns.polytopal(CROSS_2D),
        }[kind]
        r = np.random.default_rng(seed)
        x, y = r.standard_normal(2), r.standard_normal(2)
        t = float(r.uniform(-3, 3))
        nx, ny = ns.norm_eval(norm, x), ns.norm_eval(norm, y)
        assert ns.norm_eval(norm, x + y) <= nx + ny + 1e-12
        assert ns.norm_eval(norm, t * x) == pytest.approx(abs(t) * nx, abs=1e-12, rel=1e-12)
        assert ns.norm_eval(norm, np.zeros(2)) == 0.0


class TestExtremal:
    def test_cube_vertex_strongly_extremal(self):
        rep = ns.analyze_extremal(ns.linf(2), [1.0, 1.0])
        assert rep.is_boundary and rep.is_extremal and rep.is_strongly_extremal
        P = rep.witness_projection
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P @ np.array([1.0, 1.0]), [1.0, 1.0], atol=1e-12)

    def test_cube_facet_midpoint_not_extremal(self):
        rep = ns.analyze_extremal(ns.linf(2), [1.0, 0.0])
        assert rep.is_boundary
        assert not rep.is_extremal and not rep.is_strongly_extremal
        assert rep.witness_projection is None

    def test_euclidean_all_boundary_strongly_extremal(self, rng):
        for _ in range(10):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            rep = ns.analyze_extremal(ns.euclidean(3), u)
            assert rep.is_strongly_extremal

    def test_l1_vertices_only(self):
        assert ns.analyze_extremal(ns.l1(2), [0.0, 1.0]).is_strongly_extremal
        assert not ns.analyze_extremal(ns.l1(2), [0.5, 0.5]).is_extremal

    def test_polytopal_vertex_detection(self):
        hexagon = []
        for k in range(6):
            theta = math.pi * k / 3.0
            hexagon.append([math.cos(theta), math.sin(theta)])
        norm = ns.polytopal(hexagon)
        rep = ns.analyze_extremal(norm, hexagon[0])
        assert rep.is_extremal and rep.is_strongly_extremal
        edge_mid = 0.5 * (np.array(hexagon[0]) + np.array(hexagon[1]))
        rep2 = ns.analyze_extremal(norm, edge_mid / ns.norm_eval(norm, edge_mid))
        assert not rep2.is_extremal

    def test_off_boundary_errors(self):
        with pytest.raises(PreconditionError):
            ns.analyze_extremal(ns.euclidean(2), [0.5, 0.0])

    def test_transformed_norm_inherits_classification(self):
        W = np.array([[2.0, 0.5], [0.0, 1.0]])
        sheared_cube = ns.transformed(ns.linf(2), W)
        vertex = W @ np.array([1.0, 1.0])
        rep = ns.analyze_extremal(sheared_cube, vertex)
        assert rep.is_strongly_extremal
        P = rep.witness_projection
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P @ vertex, vertex, atol=1e-12)
        facet_mid = W @ np.array([1.0, 0.0])
        rep2 = ns.analyze_extremal(sheared_cube, facet_mid)
        assert not rep2.is_extremal

    def test_strongly_extremal_implies_extremal_sampled(self, rng):
        norms = [ns.euclidean(2), ns.linf(2), ns.l1(2), ns.lp(2, 3.0),
                 ns.polytopal(CROSS_2D)]
        for norm in norms:
            for _ in range(8):
                u = rng.standard_normal(2)
                u = u / ns.norm_eval(norm, u)
                rep = ns.analyze_extremal(norm, u)
                if rep.is_strongly_extremal:
                    assert rep.is_extremal

    def test_witness_modulus_shrinks(self, rng):
        # points of the ball whose projection approaches u must approach u:
        # for the cube vertex the modulus is linear, |w - u|_2 <= 2 delta
        u = np.array([1.0, 1.0])
        rep = ns.analyze_extremal(ns.linf(2), u)
        P = rep.witness_projection
        samples = rng.uniform(-1, 1, size=(20_000, 2))
        for delta in (0.3, 0.1, 0.03):
            close = np.linalg.norm(samples @ P.T - u, axis=1) <= delta
            assert np.any(close)
            assert np.max(np.linalg.norm(samples[close] - u, axis=1)) <= 2.0 * delta + 1e-12


class TestSerialization:
    def test_round_trip_all_kinds(self):
        norms = [
            ns.euclidean(3),
            ns.linf(2),
            ns.lp(2, 2.5),
            ns.polytopal(CROSS_2D),
            ns.transformed(ns.l1(2), [[2.0, 0.0], [0.5, 1.0]]),
        ]
        for norm in norms:
            data = ns.norm_to_json(norm)
            back = ns.norm_from_json(data)
            assert ns.norm_to_json(back) == data

    def test_infinity_encoding(self):
        data = ns.norm_to_json(ns.linf(2))
        assert data["kind"] == {"lp": "inf"}
        assert ns.norm_from_json(data).p == math.inf
