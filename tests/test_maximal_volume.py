import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from inflate_lab import linear_analysis as la
from inflate_lab import maximal_volume as mv
from inflate_lab import normed_space as ns
from inflate_lab.errors import DimensionMismatch, PreconditionError


class TestColumnAugment:
    def test_identity(self):
        m = mv.column_augment([1.0, 0.0], np.array([[0.0], [1.0]]))
        assert np.array_equal(m.matrix, np.eye(2))

    def test_embed_with_e3(self):
        m = mv.column_augment([1.0, 0.0, 0.0], np.array([[0.0], [0.0], [1.0]]))
        assert m.matrix.shape == (3, 2)
        from inflate_lab.linear_analysis import vol
        assert vol(m) == pytest.approx(1.0, abs=1e-12)

    def test_determinant_oracle(self):
        m = mv.column_augment([2.0, 0.0], np.array([[0.0], [1.0]]))
        from inflate_lab.linear_analysis import vol
        assert vol(m) == pytest.approx(abs(np.linalg.det(m.matrix)), rel=1e-12)
        assert vol(m) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mv.column_augment([1.0, 0.0], np.array([[1.0, 0.0, 0.0]]))


# no reflection of the first axis maps these balls to themselves
SKEW_HEXAGON = ns.polytopal([[1.0, 0.3], [0.2, 1.0], [-0.8, 0.7],
                             [-1.0, -0.3], [-0.2, -1.0], [0.8, -0.7]])
CUT_CUBE = ns.polytopal(np.concatenate([np.eye(3), [[0.6, 0.6, 0.6]],
                                        -np.eye(3), [[-0.6, -0.6, -0.6]]]))


def reference_quadratic_exit(beta, w):
    """The row-by-row loop the batched _quadratic_exit replaces, kept as its oracle."""
    t_best = math.inf
    for base, wv in zip(beta, w):
        aa = float(wv @ wv)
        cc = float(base @ base)
        bb = 2.0 * float(base @ wv)
        if aa < 1e-300:
            continue
        if cc > 1.0 + 1e-15:
            return 0.0
        disc = bb * bb - 4.0 * aa * (cc - 1.0)
        t_v = (-bb + math.sqrt(max(disc, 0.0))) / (2.0 * aa)
        t_best = min(t_best, max(t_v, 0.0))
    return float(t_best)


@st.composite
def _ray_sets(draw):
    rows, dim = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    entries = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))
    beta = draw(hnp.arrays(np.float64, (rows, dim), elements=entries))
    w = draw(hnp.arrays(np.float64, (rows, dim), elements=entries))
    if draw(st.booleans()):  # every row starts in the ball: the quadratics decide
        beta = beta / max(1.0, float(np.max(np.linalg.norm(beta, axis=1))))
    return beta, w


@given(rays=_ray_sets())
@settings(max_examples=300)
def test_quadratic_exit_is_bit_equal_to_the_row_loop(rays):
    beta, w = rays
    got = la._quadratic_exit(beta, w)
    assert np.float64(got).tobytes() == np.float64(reference_quadratic_exit(beta, w)).tobytes()


LP3_WARPED = ns.transformed(ns.lp(2, 3.0), [[1.0, 0.4], [0.1, 0.8]])


class TestFeasibleScale:
    # one pair per path of la._ray_exit: domain vertices into an l2 or listed
    # polytope codomain, dual vertices into an l2 dual, the disjoint-support lp
    # form, inscribed rays, bisection on rays and on the norm.  The dual path
    # never meets a polytopal dual of the domain: a polytope domain has vertices.
    @pytest.mark.parametrize("a, b", [
        (ns.l1(2), ns.linf(3)),
        (ns.linf(2), ns.l1(3)),
        (SKEW_HEXAGON, CUT_CUBE),
        (ns.euclidean(2), ns.linf(3)),
        (ns.linf(2), ns.l1(12)),
        (ns.euclidean(2), ns.l1(12)),
        (ns.linf(2), ns.euclidean(3)),
        (ns.lp(2, 3.0), ns.linf(3)),
        (ns.lp(2, 3.0), ns.euclidean(3)),
        (ns.linf(2), ns.lp(3, 3.0)),
        (ns.euclidean(2), ns.euclidean(3)),
        (LP3_WARPED, ns.euclidean(3)),
    ], ids=["l1-linf", "linf-l1", "polytopal", "l2-linf", "linf-l1_12", "l2-l1_12",
            "linf-l2", "lp3-linf", "lp3-l2", "linf-lp3", "l2-l2", "Wlp3-l2"])
    def test_ray_exit_is_feasible_and_tight(self, a, b, rng):
        def norm(Ms):
            return float(np.max(la.operator_norm_report(Ms, a, b).values))

        m, n = b.dim, a.dim
        for trial in range(20):
            if trial % 2:  # one column ray, as max_volume scales it
                u = rng.standard_normal(m)
                Bs = np.zeros((1, m, n))
                Bs[0, :, 0] = u
                Bs *= 0.5 / norm(Bs)
                Ws = np.zeros_like(Bs)
                Ws[0, :, 1:] = rng.standard_normal((m, n - 1))
                t = mv._max_feasible_scale(Bs[0, :, 0], Ws[0, :, 1:], a, b)
            else:  # a stack, as inflation_search grows an eigenvalue
                Bs = rng.standard_normal((3, m, n))
                Bs *= 0.5 / norm(Bs)
                Ws = rng.standard_normal((3, m, n))
                t = la._ray_exit(Bs, Ws, a, b)
            assert 0.0 < t < 1e6
            assert norm(Bs + t * Ws) <= 1.0 + 1e-12
            assert norm(Bs + (1.0 + 1e-9) * t * Ws) > 1.0

    def test_ray_exit_without_motion_is_unbounded(self):
        Bs = np.full((2, 3, 2), 0.1)
        assert la._ray_exit(Bs, np.zeros_like(Bs), ns.linf(2), ns.euclidean(3)) == math.inf
        assert mv._max_feasible_scale(Bs[0, :, 0], np.zeros((3, 1)), ns.linf(2),
                                      ns.euclidean(3)) == 1.0

    def test_l1_codomain_beyond_the_dual_cube_limit_bisects(self):
        # the facets of l1(21) are the 2^21 cube, past the enumeration guard:
        # the exit bisects on the domain-vertex rays instead
        a, b = ns.linf(2), ns.l1(21)
        u = np.zeros(21)
        u[0] = 0.5
        V = np.linspace(-1.0, 1.0, 21)[:, None]
        t = mv._max_feasible_scale(u, V, a, b)
        norm = la.operator_norm_report(np.concatenate([u[:, None], t * V], axis=1)[None], a, b)
        # the bisection keeps 1e-13 of slack on the rays
        assert 0.0 < t and abs(float(norm.values[0]) - 1.0) <= 2e-12
        res = mv._ascent(u, a, b, restarts=2, seed=0, iters=20)
        assert res.value > 0.0 and res.feasibility_gap <= 2e-12

    def test_bracketed_pair_keeps_the_upper_end_feasible(self):
        a, b = ns.lp(2, 3.0), ns.lp(2, 4.0)
        u, V = np.array([0.4, 0.1]), np.array([[0.3], [0.9]])
        t = mv._max_feasible_scale(u, V, a, b)
        report = la.operator_norm_report(np.concatenate([u[:, None], t * V], axis=1)[None], a, b)
        assert not report.exact
        assert 0.0 < t and report.values[0] <= 1.0 + 1e-12

    def test_sphere_point_of_a_smooth_pair_is_accepted(self):
        # |u|_4 = 1: the lower end of ||(u|0)|| is 1 and passes the precondition;
        # the upper end c > 1 certifies no completion, and the gap reports it
        a, b = ns.lp(2, 3.0), ns.lp(2, 4.0)
        u = np.array([1.0, 1.0]) / 2.0 ** 0.25
        res = mv.max_volume(u, a, b, restarts=1, seed=0, iters=1)
        assert res.value == 0.0
        assert 0.0 < res.feasibility_gap < 1e-4


class TestMaxVolume:
    def test_analytic_collapse_is_exact_zero(self):
        res = mv.max_volume([1.0, 0.0], ns.linf(2), ns.euclidean(2), seed=0)
        assert res.value == 0.0
        assert res.analytic
        assert np.array_equal(res.best_V, np.zeros((2, 1)))

    def test_generic_path_also_collapses(self):
        res = mv._ascent(np.array([1.0, 0.0]), ns.linf(2), ns.euclidean(2), restarts=32,
                         seed=1, iters=400)
        assert res.value <= 1e-6
        assert res.feasibility_gap <= 1e-9

    def test_zero_vector(self):
        # (0|V) has rank below n, so 0 is mv(u) itself, not a bound
        res = mv.max_volume(np.zeros(3), ns.euclidean(2), ns.euclidean(3), seed=0)
        assert res.value == 0.0
        assert res.analytic and res.restarts_used == 0

    def test_euclidean_orthonormal_completion(self, rng):
        # oracle: the orthonormal completion achieves exactly 1
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        res = mv.max_volume(u, ns.euclidean(3), ns.euclidean(3), restarts=12, seed=3)
        assert res.value >= 1.0 - 1e-6
        assert res.value <= 1.0 + 1e-9
        assert res.feasibility_gap <= 1e-9

    def test_monotone_under_target_scaling(self):
        # scaling the target norm up shrinks its unit ball, so the feasible
        # completion set shrinks and the found value cannot grow
        u = np.array([0.9, 0.0, 0.0])
        values = []
        for t in (1.0, 1.05, 1.1):
            b = ns.transformed(ns.euclidean(3), np.eye(3) / t)
            res = mv.max_volume(u, ns.euclidean(2), b, restarts=4, seed=7, iters=120)
            values.append(res.value)
        assert values[1] <= values[0] + 1e-6
        assert values[2] <= values[1] + 1e-6

    def test_hadamard_ceiling(self, rng):
        u = rng.standard_normal(3)
        u /= 2.0 * np.linalg.norm(u)
        res = mv.max_volume(u, ns.euclidean(2), ns.euclidean(3), restarts=4, seed=5)
        col_max = max(np.linalg.norm(res.best_V, axis=0).max(initial=0.0), 1.0)
        assert res.value <= np.linalg.norm(u) * col_max + 1e-9

    def test_determinism(self):
        a, b = ns.linf(2), ns.euclidean(2)
        r1 = mv.max_volume([0.7, 0.1], a, b, restarts=6, seed=9)
        r2 = mv.max_volume([0.7, 0.1], a, b, restarts=6, seed=9)
        assert r1.value == r2.value
        assert np.array_equal(r1.best_V, r2.best_V)
        assert r1.feasibility_gap == r2.feasibility_gap

    def test_infeasible_u_rejected(self):
        with pytest.raises(PreconditionError):
            mv.max_volume([2.0, 0.0], ns.linf(2), ns.euclidean(2), seed=0)

    def test_value_consistent_with_best_V(self, rng):
        from inflate_lab.linear_analysis import vol_matrix
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        res = mv.max_volume(u, ns.euclidean(2), ns.euclidean(3), restarts=4, seed=2)
        recomputed = vol_matrix(np.concatenate([u[:, None], res.best_V], axis=1))
        assert res.value == pytest.approx(recomputed, abs=1e-12)


HEXAGON = ns.polytopal([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
                        for k in range(6)])
EXACT_PAIRS = {
    "l1-linf3": (ns.l1(2), ns.linf(3)),
    "linf-l1_3": (ns.linf(2), ns.l1(3)),
    "l2-l1_3": (ns.euclidean(2), ns.l1(3)),
    "linf-hexagon": (ns.linf(2), HEXAGON),
    "linf-l2_2": (ns.linf(2), ns.euclidean(2)),
    "linf-l2_3": (ns.linf(2), ns.euclidean(3)),
}


def _column(direction, radius, a, b):
    """direction scaled so that ||(u|0)||_{a->b} = radius."""
    zero = np.zeros((b.dim, a.dim - 1))
    base = la.operator_norm_report(np.concatenate([direction[:, None], zero], axis=1)[None],
                                   a, b).values[0]
    return radius * direction / base


def box_vertex_mv(u, half_widths):
    """max of vol(u|v) = |u| |P v| over the box |v_i| <= half_widths[i], at a vertex."""
    u = np.asarray(u, dtype=float)
    u_hat = u / np.linalg.norm(u)
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(u)):
        v = np.asarray(signs) * half_widths
        best = max(best, float(np.linalg.norm(v - (v @ u_hat) * u_hat)))
    return float(np.linalg.norm(u)) * best


def cube_vertex_mv(u):
    """mv(u) for l1(2) -> linf(3): ||(u|v)|| = max(|u|_inf, |v|_inf), so the
    feasible set is the cube {v : |v|_inf <= 1}."""
    return box_vertex_mv(u, np.ones(3))


class TestExactPath:
    @pytest.mark.parametrize("pair", sorted(EXACT_PAIRS))
    @given(direction=hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           radius=st.floats(0.05, 1.0))
    @settings(max_examples=3)
    def test_exact_value_bounds_ascent_and_grid(self, pair, direction, radius):
        a, b = EXACT_PAIRS[pair]
        direction = direction[:b.dim]
        if np.linalg.norm(direction) < 1e-3:
            direction = np.ones(b.dim)
        u = _column(direction, radius, a, b)
        res = mv.max_volume(u, a, b)
        assert res.analytic and res.restarts_used == 0
        M = np.concatenate([u[:, None], res.best_V], axis=1)
        assert res.value == pytest.approx(la.vol_matrix(M), abs=1e-12)
        report = la.operator_norm_report(M[None], a, b)
        assert report.exact and report.values[0] <= 1.0 + 1e-12
        ascent = mv._ascent(u, a, b, restarts=32, seed=0, iters=100)
        assert res.value >= ascent.value - 1e-12
        if b.dim == 2:
            # every feasible point of a grid over the box holding the feasible set
            axis = np.linspace(-2.0, 2.0, 201)
            V = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            Ms = np.concatenate([np.broadcast_to(u, V.shape)[:, :, None], V[:, :, None]], axis=2)
            feasible = la.operator_norm_report(Ms, a, b).values <= 1.0
            vols = np.abs(u[0] * V[feasible, 1] - u[1] * V[feasible, 0])
            assert np.max(vols) <= res.value + 1e-12

    @pytest.mark.parametrize("u", [[0.5, 0.2, 0.1], [0.9, -0.9, 0.3], [1.0, 0.0, 0.0],
                                   [0.05, 0.6, -0.55]])
    def test_l1_into_linf3_is_the_best_cube_vertex(self, u):
        res = mv.max_volume(u, ns.l1(2), ns.linf(3))
        assert res.analytic
        assert res.value == pytest.approx(cube_vertex_mv(u), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lp_into_linf_is_the_best_box_vertex(self, p, rng):
        # row i of (u|v) meets linf(m)'s dual vertex e_i: |(u_i, v_i)|_q <= 1,
        # so the feasible set is the box |v_i| <= (1 - |u_i|^q)^(1/q)
        q = p / (p - 1.0)
        a = ns.euclidean(2) if p == 2.0 else ns.lp(2, p)
        for m in (2, 3, 4):
            u = rng.uniform(-0.9, 0.9, m)
            res = mv.max_volume(u, a, ns.linf(m))
            assert res.analytic
            widths = (1.0 - np.abs(u) ** q) ** (1.0 / q)
            assert res.value == pytest.approx(box_vertex_mv(u, widths), rel=1e-11)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_lp_into_linf_takes_the_closed_form_exit(self, p, rng):
        # the dual rays (y.u, 0) and (0, V^T y) have disjoint supports, so the
        # feasibility projection exits in closed form, without bisection slack
        q = p / (p - 1.0)
        for m in (2, 3, 4):
            u = rng.uniform(-0.9, 0.9, m)
            res = mv.max_volume(u, ns.lp(2, p), ns.linf(m))
            widths = (1.0 - np.abs(u) ** q) ** (1.0 / q)
            assert res.value == pytest.approx(box_vertex_mv(u, widths), rel=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_linf_into_l2_closed_form(self, m, rng):
        for radius in (0.1, 0.6, 0.99):
            u = rng.standard_normal(m)
            u *= radius / np.linalg.norm(u)
            res = mv.max_volume(u, ns.linf(2), ns.euclidean(m))
            assert res.analytic
            assert res.value == pytest.approx(radius * math.sqrt(1.0 - radius ** 2), rel=1e-12)
            assert abs(float(u @ res.best_V[:, 0])) <= 1e-12

    def test_euclidean_pair_is_the_length_of_u(self, rng):
        u = rng.standard_normal(3)
        u *= 0.7 / np.linalg.norm(u)
        res = mv.max_volume(u, ns.euclidean(2), ns.euclidean(3))
        assert res.analytic
        assert res.value == pytest.approx(0.7, rel=1e-11)
        # the bisected exit on the singular-value norm keeps 1e-13 of slack
        assert res.feasibility_gap <= 2e-12

    def test_past_the_enumeration_cap_the_ascent_runs(self):
        # 2048 classes of dual vertices: choose(2048, 12) subsets
        u = np.zeros(12)
        u[0] = 0.5
        a, b = ns.euclidean(2), ns.l1(12)
        res = mv.max_volume(u, a, b, restarts=1, seed=0, iters=5)
        ascent = mv._ascent(u, a, b, restarts=1, seed=0, iters=5)
        assert not res.analytic and res.restarts_used == 1
        assert res.value == ascent.value
        assert np.array_equal(res.best_V, ascent.best_V)

    def test_smooth_codomain_keeps_the_ascent(self):
        res = mv.max_volume([0.4, 0.1], ns.lp(2, 3.0), ns.lp(2, 4.0), restarts=1, iters=2)
        assert not res.analytic


def reference_vol_gradient(u, V, step=1e-5):
    """The central difference the closed-form _vol_gradient replaces, kept as its oracle."""
    grad = np.zeros_like(V)
    for i, j in itertools.product(range(V.shape[0]), range(V.shape[1])):
        E = np.zeros_like(V)
        E[i, j] = step
        up = la.vol_matrix(np.concatenate([u[:, None], V + E], axis=1))
        down = la.vol_matrix(np.concatenate([u[:, None], V - E], axis=1))
        grad[i, j] = (up - down) / (2.0 * step)
    return grad


@st.composite
def _augmentations(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n, 4))
    M = draw(hnp.arrays(np.float64, (m, n), elements=st.floats(-1.0, 1.0)))
    # away from rank deficiency, where vol has a kink the difference cannot resolve
    s = np.linalg.svd(M, compute_uv=False)
    assume(s[-1] >= 0.2)
    return M[:, 0], M[:, 1:]


@given(pair=_augmentations())
@settings(max_examples=100)
def test_vol_gradient_matches_the_central_difference(pair):
    u, V = pair
    got = mv._vol_gradient(u, V)
    # abs covers entries near 0, where the difference keeps ~1e-11 of rounding
    assert got == pytest.approx(reference_vol_gradient(u, V), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (3, 3), (3, 4)])
def test_vol_gradient_is_zero_at_V_zero(n, m, rng):
    u = rng.standard_normal(m)
    V = np.zeros((m, n - 1))
    assert np.array_equal(mv._vol_gradient(u, V), V)
    assert np.array_equal(reference_vol_gradient(u, V), V)


class TestUscProbe:
    def test_huge_delta_passes_first(self):
        rep = mv.usc_probe([1.0, 0.0], ns.linf(2), ns.euclidean(2), delta=10.0,
                           trials=4, seed=0, restarts=2, iters=60)
        assert rep.passing_eps == rep.schedule[0]
        assert not rep.under_converged

    def test_euclidean_bound_one_plus_delta(self):
        rep = mv.usc_probe([1.0, 0.0], ns.euclidean(2), ns.euclidean(2), delta=0.05,
                           trials=4, seed=1, restarts=2, iters=80)
        assert rep.passing_eps is not None
        assert rep.mv_value == pytest.approx(1.0, abs=1e-6)

    def test_reference_value_is_exact_on_a_polytopal_pair(self):
        u = [0.5, 0.2, 0.1]
        rep = mv.usc_probe(u, ns.l1(2), ns.linf(3), delta=10.0, trials=2, seed=0,
                           restarts=1, iters=5)
        assert rep.mv_value == mv.max_volume(u, ns.l1(2), ns.linf(3)).value
        assert rep.mv_value == pytest.approx(cube_vertex_mv(u), rel=1e-12)

    def test_polytopal_pair_compares_exact_values(self):
        # an ascent of 4 restarts x 150 steps stops low enough here to pass at 0.0625
        u = np.array([0.5, 0.2, 0.1])
        delta = 0.02
        rep = mv.usc_probe(u, ns.l1(2), ns.linf(3), delta=delta, trials=12, seed=0)
        assert rep.passing_eps == 0.015625
        assert rep.violations
        assert all(value > cube_vertex_mv(u) + delta for _, _, value in rep.violations)

    def test_collapse_case_passes_at_small_eps(self):
        schedule = [0.5 * 2.0 ** (-k) for k in range(12)]
        rep = mv.usc_probe([1.0, 0.0], ns.linf(2), ns.euclidean(2), delta=0.05,
                           trials=5, seed=2, schedule=schedule, restarts=2, iters=80)
        assert rep.mv_value == 0.0
        assert rep.passing_eps is not None
        assert rep.passing_eps > 0.0
