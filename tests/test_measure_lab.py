import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from inflate_lab import constructions as co
from inflate_lab import linear_analysis as la
from inflate_lab import measure_lab as ml
from inflate_lab import normed_space as ns
from inflate_lab.errors import NumericalFailure, PreconditionError
from inflate_lab.geometry import GridSubset, box_measure

BOX = np.array([[-1.0, 1.0], [-1.0, 1.0]])
UNIT = np.array([[0.0, 1.0], [0.0, 1.0]])


def pa_identity(box, scale=1.0):
    n = box.shape[0]
    breaks = [np.array([box[d, 0], box[d, 1]]) for d in range(n)]
    slopes = [scale * np.eye(n)[d:d + 1, :] for d in range(n)]
    anchors = [scale * box[d, 0] * np.eye(n)[d] for d in range(n)]
    return co.pa_from_axis_slopes(box, breaks, slopes, anchors, np.zeros(n),
                                  ns.euclidean(n), ns.euclidean(n))


def graph_fixture(rng, pieces=3):
    """Injective PA map (x, y) -> (x, y, phi(x) + psi(y)) on the unit square."""
    breaks = np.linspace(0.0, 1.0, pieces + 1)
    s1 = np.column_stack([np.ones(pieces), np.zeros(pieces), rng.uniform(-0.6, 0.6, pieces)])
    s2 = np.column_stack([np.zeros(pieces), np.ones(pieces), rng.uniform(-0.6, 0.6, pieces)])
    return co.pa_from_axis_slopes(UNIT, [breaks, breaks], [s1, s2],
                                  [np.zeros(3), np.zeros(3)], np.zeros(3),
                                  ns.euclidean(2), ns.euclidean(3))


class TestEstimateLipschitz:
    def test_identity_exact(self):
        pam = pa_identity(UNIT)
        rep = ml.estimate_lipschitz(pam, UNIT, ns.euclidean(2), ns.euclidean(2),
                                    pairs=300, seed=0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.resolution["exact_cells"] == pytest.approx(1.0, abs=1e-12)

    def test_half_identity(self):
        pam = pa_identity(UNIT, scale=0.5)
        rep = ml.estimate_lipschitz(pam, UNIT, ns.euclidean(2), ns.euclidean(2),
                                    pairs=300, seed=0)
        assert rep.value == pytest.approx(0.5, abs=1e-12)

    def test_inflated_half_embed_exactly_one(self):
        A = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        m = la.linear_map(A, ns.euclidean(2), ns.euclidean(3))
        g = co.inflate_affine(m, la.euclidean_inflation(m), BOX, 0.1)
        rep = ml.estimate_lipschitz(g, BOX, ns.euclidean(2), ns.euclidean(3),
                                    pairs=500, seed=1)
        assert rep.resolution["exact_cells"] == pytest.approx(1.0, abs=1e-9)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_sampled_quotients_never_exceed_exact(self, rng):
        pam = graph_fixture(rng)
        rep = ml.estimate_lipschitz(pam, UNIT, ns.euclidean(2), ns.euclidean(3),
                                    pairs=2000, seed=2)
        assert rep.value == rep.resolution["exact_cells"]  # exact dominates

    def test_empty_domain_errors(self):
        pam = pa_identity(UNIT)
        with pytest.raises(Exception):
            ml.estimate_lipschitz(pam, np.array([[0.0, 0.0], [0.0, 0.0]]),
                                  ns.euclidean(2), ns.euclidean(2), pairs=0, seed=0)


class TestJacobianIntegral:
    def test_identity_unit_square(self):
        rep = ml.jacobian_integral(pa_identity(UNIT), UNIT)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.error_bound == 0.0

    def test_constant_half_cells(self):
        A = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        m = la.linear_map(A, ns.euclidean(2), ns.euclidean(3))
        g = co.inflate_affine(m, la.euclidean_inflation(m), BOX, 0.5)
        # every cell has vol exactly 1 here (the inflation is isometric)
        assert ml.jacobian_integral(g, BOX).value == pytest.approx(4.0, rel=1e-12)

    def test_hand_sum_on_varying_fixture(self, rng):
        pam = graph_fixture(rng)
        by_hand = 0.0
        shape = pam.cell_shape()
        for i in range(shape[0]):
            for j in range(shape[1]):
                cell_measure = (pam.curves[0].breakpoints[i + 1] - pam.curves[0].breakpoints[i]) * \
                               (pam.curves[1].breakpoints[j + 1] - pam.curves[1].breakpoints[j])
                by_hand += la.vol_matrix(pam.cell_linear((i, j))) * cell_measure
        assert ml.jacobian_integral(pam, UNIT).value == pytest.approx(by_hand, rel=1e-12)

    def test_grid_subset(self):
        pam = pa_identity(BOX)
        mask = np.array([[True, False], [False, True]])
        subset = GridSubset(BOX, (2, 2), mask)
        assert ml.jacobian_integral(pam, subset).value == pytest.approx(2.0, rel=1e-12)


class TestGluedIntegrals:
    @pytest.mark.parametrize("integral", [
        ml.jacobian_integral,
        lambda g, E: ml.superlevel_fraction(g, E, 0.5),
    ], ids=["jacobian_integral", "superlevel_fraction"])
    def test_non_piecewise_affine_piece_rejected(self, integral):
        def zeros(xs):
            return np.zeros((xs.shape[0], 3))

        spec = co.PatchSpec((UNIT,), (0.2,), (zeros,), zeros, 0.1,
                            ns.euclidean(2), ns.euclidean(3))
        with pytest.raises(PreconditionError):
            integral(co.GluedMap(spec, 0.0), UNIT)

    def test_grid_subset_sums_its_cells(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        subset = GridSubset(BOX, (2, 2), mask)
        glued, report = co.inflate_on_set(
            lambda xs: np.zeros((xs.shape[0], 3)), subset,
            ns.euclidean(2), ns.euclidean(3), 1.0, 0.2, 0.5, seed=1)
        jac = ml.jacobian_integral(glued, subset).value
        assert jac >= report.achieved_integral - 1e-12
        frac = ml.superlevel_fraction(glued, subset, 0.5).value
        assert frac > 0.0
        cells = [cell for _, cell in subset.cells()]
        assert jac == pytest.approx(
            sum(ml.jacobian_integral(glued, cell).value for cell in cells), rel=1e-12)
        assert frac * subset.measure() == pytest.approx(
            sum(ml.superlevel_fraction(glued, cell, 0.5).value * box_measure(cell)
                for cell in cells), rel=1e-12)


@pytest.mark.parametrize("integral", [
    ml.jacobian_integral,
    lambda g, E: ml.superlevel_fraction(g, E, 0.5),
], ids=["jacobian_integral", "superlevel_fraction"])
@pytest.mark.parametrize("stretch", [5e-6, 1e-13])
def test_near_identity_basis_rejected(integral, stretch):
    # cells live in t = basis^-1 x; only the exact identity lets them be measured in x
    breaks = np.array([0.0, 0.5, 1.0])
    s1 = np.array([[1.0, 0.0], [1.0, 0.0]])
    s2 = np.array([[0.0, 1.0], [0.0, 2.0]])
    pam = co.pa_from_axis_slopes(UNIT, [breaks, breaks], [s1, s2],
                                 [np.zeros(2), np.zeros(2)], np.zeros(2),
                                 ns.euclidean(2), ns.euclidean(2),
                                 basis=np.diag([1.0 + stretch, 1.0]))
    with pytest.raises(PreconditionError, match="identity basis"):
        integral(pam, UNIT)


class TestSuperlevel:
    def test_all_cells_at_one(self):
        rep = ml.superlevel_fraction(pa_identity(UNIT), UNIT, 0.5)
        assert rep.value == 1.0

    def test_all_cells_at_zero(self):
        breaks = np.array([0.0, 1.0])
        flat = co.pa_from_axis_slopes(UNIT, [breaks, breaks],
                                      [np.zeros((1, 2)), np.zeros((1, 2))],
                                      [np.zeros(2), np.zeros(2)], np.zeros(2),
                                      ns.euclidean(2), ns.euclidean(2))
        assert ml.superlevel_fraction(flat, UNIT, 0.01).value == 0.0

    def test_half_half(self):
        breaks = np.array([0.0, 0.5, 1.0])
        s1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        s2 = np.array([[0.0, 1.0], [0.0, 0.0]])  # second column collapses above y = 0.5
        pam = co.pa_from_axis_slopes(UNIT, [breaks, breaks], [s1, s2],
                                     [np.zeros(2), np.zeros(2)], np.zeros(2),
                                     ns.euclidean(2), ns.euclidean(2))
        assert ml.superlevel_fraction(pam, UNIT, 0.5).value == pytest.approx(0.5)

    def test_monotone_in_threshold(self, rng):
        pam = graph_fixture(rng)
        values = [ml.superlevel_fraction(pam, UNIT, r).value
                  for r in (0.2, 0.6, 1.0, 1.4)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestBoxcount:
    def test_unit_segment_calibration_case(self):
        breaks = np.array([0.0, 1.0])
        seg = co.pa_from_axis_slopes(np.array([[0.0, 1.0]]), [breaks],
                                     [np.array([[1.0, 0.0]])], [np.zeros(2)],
                                     np.zeros(2), ns.euclidean(1), ns.euclidean(2))
        rep = ml.boxcount_image_measure(seg, np.array([[0.0, 1.0]]), 2, 1e-3)
        assert rep.value == pytest.approx(1.0, abs=0.02)

    def test_rotated_square(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        emb = Q[:, :2]
        breaks = np.array([-1.0, 1.0])
        pam = co.pa_from_axis_slopes(BOX, [breaks, breaks],
                                     [emb.T[0:1, :], emb.T[1:2, :]],
                                     [np.zeros(3), np.zeros(3)], np.zeros(3),
                                     ns.euclidean(2), ns.euclidean(3))
        rep = ml.boxcount_image_measure(pam, BOX, 3, 1e-3)
        assert rep.value == pytest.approx(4.0, abs=0.08)

    def test_constant_map_reads_zero(self):
        breaks = np.array([-1.0, 1.0])
        flat = co.pa_from_axis_slopes(BOX, [breaks, breaks],
                                      [np.zeros((1, 3)), np.zeros((1, 3))],
                                      [np.zeros(3), np.zeros(3)],
                                      np.array([0.3, 0.3, 0.3]),
                                      ns.euclidean(2), ns.euclidean(3))
        assert ml.boxcount_image_measure(flat, BOX, 3, 1e-3).value == 0.0

    def test_unsupported_dims(self):
        with pytest.raises(PreconditionError):
            ml.boxcount_image_measure(lambda xs: xs, np.zeros((3, 2)), 3, 1e-2)

    def test_area_formula_on_injective_fixture(self, rng):
        pam = graph_fixture(rng)
        jac = ml.jacobian_integral(pam, UNIT).value
        box = ml.boxcount_image_measure(pam, UNIT, 3, 1e-3).value
        assert abs(box - jac) <= 0.15 * jac


def reference_calibration(n, m, box_size):
    """_calibration's former raster: box-count the unit n-cube embedded in R^m."""
    embed = np.zeros((m, n))
    embed[:n, :n] = np.eye(n)
    box = np.stack([np.zeros(n), np.ones(n)], axis=1)
    breaks = np.array([0.0, 1.0])
    pam = co.pa_from_axis_slopes(box, [breaks] * n, [embed[:, d:d + 1].T for d in range(n)],
                                 [np.zeros(m)] * n, np.zeros(m),
                                 ns.euclidean(n), ns.euclidean(m))
    return ml._pa_boxcount_weighted(pam, box_size)


@st.composite
def calibration_cases(draw):
    """(n, m, s) with s at 1/k or a few floats away, where the two floors may disagree."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(n, 4))
    if draw(st.booleans()):
        s = draw(st.floats(0.005, 1.2))
    else:
        s = 1.0 / draw(st.integers(1, 300 if n == 2 else 3000))
        for _ in range(draw(st.integers(-3, 3)), 0):
            s = math.nextafter(s, 0.0)
        for _ in range(draw(st.integers(0, 3))):
            s = math.nextafter(s, 2.0)
    return n, m, s


class TestKeyKernels:
    @settings(max_examples=300)
    @given(calibration_cases())
    def test_calibration_matches_raster(self, case):
        n, m, s = case
        assert ml._calibration(n, m, s) == reference_calibration(n, m, s)

    @pytest.mark.parametrize("m", [3, 4])
    def test_key_range_guard_matches_raster(self, m):
        # for n = 1 and m >= 3 the key range of _pack_keys binds before the box limit
        last = (1 << (63 // m - 1)) - 1
        inside, outside = 1.0 / (last - 0.5), 1.0 / last
        assert ml._calibration(1, m, inside) == reference_calibration(1, m, inside)
        for calibrate in (ml._calibration, reference_calibration):
            with pytest.raises(NumericalFailure):
                calibrate(1, m, outside)

    def test_box_limit_guard(self):
        # 10954^2 boxes are under the 120M limit, 10955^2 are over it
        assert ml._calibration(2, 3, 1.0 / 10953) == pytest.approx((10954 / 10953) ** 2)
        with pytest.raises(NumericalFailure):
            ml._calibration(2, 3, 1.0 / 10954)
        with pytest.raises(NumericalFailure):
            ml._calibration(1, 2, 1.0 / 120_000_000)

    @given(st.one_of(
        hnp.arrays(np.int64, st.integers(0, 300), elements=st.integers(-5, 5)),
        hnp.arrays(np.int64, st.integers(0, 300))))
    def test_distinct_matches_unique(self, keys):
        assert ml._distinct(keys).tobytes() == np.unique(keys).tobytes()

    @pytest.mark.parametrize("cols, off, tbox, s", [
        (np.array([[1.0], [0.0]]), np.zeros(2), np.array([[0.0, 1.0]]), 1e-13),
        (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3), UNIT, 1e-12),
    ], ids=["curve", "surface"])
    def test_patch_guard_runs_before_allocation(self, cols, off, tbox, s):
        # 1e12 or more columns: the guard must trip before the column array exists
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match="raster guard"):
                ml._affine_patch_keys(cols, off, tbox, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_coverage(g, radius, target_radius, grid, lip_hint):
    """coverage_check's former membership test: np.unique image keys, nine np.isin calls."""
    h = grid / (2.0 * lip_hint)
    count = int(math.ceil(2.0 * radius / h)) + 1
    ax = np.linspace(-radius, radius, count)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    theta = np.linspace(0.0, 2.0 * math.pi, 4 * count, endpoint=False)
    pts = np.concatenate([pts, radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)])
    img_keys = np.unique(ml._box_keys(g(pts), grid))
    t_ax = np.arange(-target_radius, target_radius + grid, grid)
    TX, TY = np.meshgrid(t_ax, t_ax, indexing="ij")
    targets = np.stack([TX.ravel(), TY.ravel()], axis=1)
    targets = targets[np.linalg.norm(targets, axis=1) <= target_radius]
    base_idx = np.floor(targets / grid).astype(np.int64)
    covered = np.zeros(targets.shape[0], dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            covered |= np.isin(ml._pack_keys(base_idx + np.array([dx, dy])), img_keys)
    return float(np.mean(covered))


class TestCoverage:
    @pytest.mark.parametrize("g", [
        lambda xs: 0.5 * xs,
        lambda xs: 0.7 * xs + np.array([0.25, -0.1]),
        lambda xs: np.stack([xs[:, 0], 0.2 * xs[:, 1] ** 2], axis=1),
    ], ids=["shrunk", "shifted", "folded"])
    def test_partial_cover_matches_isin_reference(self, g):
        rep = ml.coverage_check(g, 1.0, 0.9, 1.0 / 200, lip_hint=1.0)
        assert 0.0 < rep.value < 1.0
        assert rep.value == reference_coverage(g, 1.0, 0.9, 1.0 / 200, 1.0)

    def test_identity_full(self):
        rep = ml.coverage_check(lambda xs: xs, 1.0, 1.0, 1.0 / 200, lip_hint=1.0)
        assert rep.value == 1.0

    def test_shrunk_map_uncovered_annulus(self):
        rep = ml.coverage_check(lambda xs: 0.5 * xs, 1.0, 0.9, 1.0 / 200, lip_hint=1.0)
        assert rep.value < 1.0

    def test_lsc_margin_perturbation_covers(self, rng):
        eta = 0.5
        delta = co.lsc_margin(np.eye(2), eta)
        phase = rng.uniform(0, 2 * np.pi, size=2)

        def pert(xs):
            w = np.stack([np.sin(3 * xs[:, 0] + phase[0]) * np.cos(2 * xs[:, 1]),
                          np.cos(2 * xs[:, 0]) * np.sin(3 * xs[:, 1] + phase[1])], axis=1)
            scale = 0.999 * delta / max(np.max(np.linalg.norm(w, axis=1)), 1e-12)
            return xs + scale * w

        rep = ml.coverage_check(pert, 1.0, np.sqrt(eta), 1.0 / 200, lip_hint=2.0)
        assert rep.value == 1.0

    def test_planar_only(self):
        with pytest.raises(PreconditionError):
            ml.coverage_check(lambda xs: np.concatenate([xs, xs[:, :1]], axis=1),
                              1.0, 1.0, 0.01)


class TestExperiments:
    def test_positive_records(self):
        config = ml.PositiveConfig(
            box=BOX, m=3, f={"kind": "zero"}, eta=0.5, lam=1.0,
            eps_schedule=(0.2, 0.1), seed=11)
        report = ml.run_positive_experiment(config)
        assert len(report["records"]) == 2
        for rec in report["records"]:
            assert rec["jac_integral"] >= 0.5 * 4.0 - 1e-9
            assert rec["sup_dist"] <= rec["eps"]
            assert rec["lip_exact"] <= 1.0 + 1e-9

    def test_negative_trend_at_calibrated_threshold(self):
        # every admissible map has superlevel fraction at most 2 eps / t^2
        # (derivation in test_acceptance); at t = 0.3 that bound is still
        # 0.69 at eps = 2^-5, so each record is checked against the bound
        # and criterion 5 asserts the collapse where it is certified
        config = ml.NegativeConfig(
            u=np.array([1.0, 0.0]), r=0.3,
            eps_schedule=tuple(2.0 ** (-i) for i in range(1, 6)),
            seed=42, grid=6, restarts=8, steps=150)
        report = ml.run_negative_experiment(config)
        fr = [rec["superlevel_fraction"] for rec in report["records"]]
        assert all(a >= b - 0.02 for a, b in zip(fr, fr[1:]))
        t = report["threshold"]
        for rec in report["records"]:
            assert rec["superlevel_fraction"] <= min(1.0, 2.0 * rec["eps"] / t ** 2)
            assert rec["sup_dist"] <= rec["eps"] + 1e-9
            assert rec["lip_exact"] <= 1.0 + 1e-9

    def test_positive_records_with_boxcount(self):
        config = ml.PositiveConfig(
            box=BOX, m=3, f={"kind": "affine",
                             "linear": [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]],
                             "offset": [0.0, 0.0, 0.0]},
            eta=0.5, lam=1.0, eps_schedule=(0.2,), seed=4,
            run_boxcount=True, box_size=5e-3)
        report = ml.run_positive_experiment(config)
        rec = report["records"][0]
        # the construction folds heavily: the image area stays near the
        # 0.5-scaled core area (~0.25 * sigma^n * 4) while the Jacobian
        # integral counts every fold
        assert 0.6 <= rec["boxcount"] <= 1.0
        assert rec["boxcount"] < 0.5 * rec["jac_integral"]

    def test_negative_control_stays_high(self):
        config = ml.NegativeConfig(
            u=np.array([1.0, 0.0]), r=0.01, eps_schedule=(0.25, 0.0625),
            seed=7, control=True, threshold=0.01,
            domain_kind="euclidean", codomain_kind="euclidean")
        report = ml.run_negative_experiment(config)
        for rec in report["records"]:
            assert rec["superlevel_fraction"] >= 0.8

    @pytest.mark.parametrize("codomain", ["linf", "euclidean"])
    def test_adversary_off_the_closed_form(self, codomain):
        # an l1 domain sends every worst-cell norm through operator_norm_report
        config = ml.NegativeConfig(
            u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(0.25, 0.0625), seed=3,
            domain_kind="l1", codomain_kind=codomain, restarts=3, steps=40)
        report = ml.run_negative_experiment(config)
        for rec in report["records"]:
            assert rec["lip_exact"] <= 1.0 + 1e-9
            assert rec["sup_dist"] <= rec["eps"] + 1e-9

    def test_sup_dist_in_codomain_norm(self):
        # linf -> l1: Euclidean sup distances let the adversary leave the l1 eps-ball
        u = np.array([1.0, 0.0])
        config = ml.NegativeConfig(
            u=u, r=0.3, eps_schedule=(0.25, 0.0625), seed=0, domain_kind="linf",
            codomain_kind="l1", threshold=0.3, grid=6, restarts=3, steps=60)
        report = ml.run_negative_experiment(config)
        t = np.linspace(-1.0, 1.0, 7)
        X, Y = np.meshgrid(t, t, indexing="ij")
        corners = np.stack([X.ravel(), Y.ravel()], axis=1)
        for i, rec in enumerate(report["records"]):
            _, pam = ml._adversarial_search(ns.linf(2), ns.l1(2), u, rec["eps"], 0.3,
                                            6, 3, 60, config.seed + 1000 * i)
            dev = pam.eval_many(corners) - corners[:, :1] * u
            l1_dist = float(np.max(np.sum(np.abs(dev), axis=1)))
            assert rec["sup_dist"] == pytest.approx(l1_dist, rel=1e-12)
            assert l1_dist <= rec["eps"] + 1e-9

    def test_csv_round_trip(self, tmp_path):
        config = ml.PositiveConfig(
            box=BOX, m=3, f={"kind": "zero"}, eta=0.3, lam=1.0,
            eps_schedule=(0.25,), seed=1)
        report = ml.run_positive_experiment(config)
        path = tmp_path / "records.csv"
        ml.records_to_csv(report["records"], str(path))
        text = path.read_text().splitlines()
        assert text[0].split(",") == ml.CSV_FIELDS
        assert len(text) == 2
