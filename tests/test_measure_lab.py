import math
import tracemalloc
from itertools import combinations
from unittest import mock

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
from inflate_lab.seeding import rng_for

BOX = np.array([[-1.0, 1.0], [-1.0, 1.0]])
UNIT = np.array([[0.0, 1.0], [0.0, 1.0]])


def pa_identity(box, scale=1.0):
    n = box.shape[0]
    breaks = [np.array([box[d, 0], box[d, 1]]) for d in range(n)]
    slopes = [scale * np.eye(n)[d:d + 1, :] for d in range(n)]
    anchors = [scale * box[d, 0] * np.eye(n)[d] for d in range(n)]
    return co.pa_from_axis_slopes(box, breaks, slopes, anchors, np.zeros(n),
                                  ns.euclidean(n), ns.euclidean(n))


def flat_square(box):
    """The embedding (x, y) -> (x, y, 0) on a box, as one affine cell."""
    e = np.eye(3)
    return co.pa_from_axis_slopes(box, [box[0], box[1]], [e[0:1], e[1:2]],
                                  [box[0, 0] * e[0], box[1, 0] * e[1]], np.zeros(3),
                                  ns.euclidean(2), ns.euclidean(3))


def quarter_cell():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    return GridSubset(UNIT, (2, 2), mask)


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

    def test_values_are_pinned(self):
        # read before the sampler moved into constructions, bit for bit
        e2, e3 = ns.euclidean(2), ns.euclidean(3)
        pam = graph_fixture(np.random.default_rng(7))
        cores = (np.array([[0.1, 0.4], [0.1, 0.4]]), np.array([[0.6, 0.9], [0.6, 0.9]]))
        spec = co.PatchSpec(cores, (0.05, 0.05), tuple(flat_square(c) for c in cores),
                            lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1),
                            0.1, e2, e3)
        glued = co.glue_patches(spec, 1.0)
        mask = np.array([[True, False, False], [False, True, True], [False, False, True]])
        E = GridSubset(UNIT, (3, 3), mask)
        f = lambda xs: np.stack([np.sin(3 * xs[:, 0]), xs[:, 0] * xs[:, 1]], axis=1)  # noqa: E731
        cases = [
            ((pam, UNIT, e2, e3, 500, 4), "0x1.31eebbe64cbbap+0"),
            ((glued, UNIT, e2, e3, 700, 5), "0x1.00000000005acp+0"),
            ((f, E, ns.lp(2, 3.0), ns.linf(2), 300, 6), "0x1.79e347ee535b5p+1"),
        ]
        for (g, domain, a, b, pairs, seed), value in cases:
            rep = ml.estimate_lipschitz(g, domain, a, b, pairs=pairs, seed=seed)
            assert rep.value == float.fromhex(value)


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


class TestCellSumPins:
    # read before the cell-measure sum moved into constructions and took its window
    # rule from PiecewiseAffineMap, each value compared by repr
    @staticmethod
    def cases():
        e2, e3 = ns.euclidean(2), ns.euclidean(3)
        pam = graph_fixture(np.random.default_rng(7), pieces=5)
        cores = (np.array([[0.1, 0.4], [0.1, 0.4]]), np.array([[0.6, 0.9], [0.6, 0.9]]))
        spec = co.PatchSpec(cores, (0.05, 0.05), tuple(flat_square(c) for c in cores),
                            lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1),
                            0.1, e2, e3)
        glued = co.glue_patches(spec, 1.0)
        mask = np.array([[True, False, False], [False, True, True], [False, False, True]])
        E = GridSubset(UNIT, (3, 3), mask)
        window = np.array([[0.13, 0.71], [0.05, 0.62]])
        return {"partial-window": (pam, window), "grid-subset": (pam, E), "glued": (glued, E)}

    @pytest.mark.parametrize("case, jac, frac_high, frac_low", [
        ("partial-window", 0.3869889143887334, 0.9534180278281913, 1.0000000000000002),
        ("grid-subset", 0.49611426706979617, 0.6700000000000002, 1.0000000000000002),
        ("glued", 0.13333333333333336, 0.0, 0.3000000000000001),
    ])
    def test_cell_sums_are_pinned(self, case, jac, frac_high, frac_low):
        g, E = self.cases()[case]
        assert repr(ml.jacobian_integral(g, E).value) == repr(jac)
        assert repr(ml.superlevel_fraction(g, E, 1.1).value) == repr(frac_high)
        assert repr(ml.superlevel_fraction(g, E, 0.5).value) == repr(frac_low)


class TestGluedIntegrals:
    @pytest.mark.parametrize("measure", [
        ml.jacobian_integral,
        lambda g, E: ml.boxcount_image_measure(g, E, 3, 0.01),
    ], ids=["jacobian_integral", "boxcount"])
    @pytest.mark.parametrize("points", [3, 4])
    def test_point_cloud_cores_are_refused(self, measure, points):
        # cores of increasing coordinates, which as_box took for a box of `points`
        # rows; the sums then failed with numpy's broadcast error
        cloud = np.linspace(0.2, 0.8, 2 * points).reshape(points, 2)
        spec = co.PatchSpec((cloud,), (0.05,), (flat_square(UNIT),),
                            lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1),
                            0.1, ns.euclidean(2), ns.euclidean(3))
        with pytest.raises(PreconditionError, match="need box cores; core 0 is a point cloud"):
            measure(co.GluedMap(spec, 1.0), UNIT)

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


def near_identity_map(basis):
    breaks = np.array([0.0, 0.5, 1.0])
    s1 = np.array([[1.0, 0.0], [1.0, 0.0]])
    s2 = np.array([[0.0, 1.0], [0.0, 2.0]])
    return co.pa_from_axis_slopes(UNIT, [breaks, breaks], [s1, s2],
                                  [np.zeros(2), np.zeros(2)], np.zeros(2),
                                  ns.euclidean(2), ns.euclidean(2), basis=basis)


@pytest.mark.parametrize("integral, exact", [
    (ml.jacobian_integral, lambda stretch: 1.5 / (1.0 + stretch)),
    (lambda g, E: ml.superlevel_fraction(g, E, 1.5), lambda stretch: 0.5),
], ids=["jacobian_integral", "superlevel_fraction"])
@pytest.mark.parametrize("stretch", [5e-6, 1e-13])
def test_diagonal_near_identity_basis_is_integrated(integral, exact, stretch):
    # cells live in t = basis^-1 x; a diagonal basis maps UNIT onto a box in t, so the
    # cells are summed one by one, each measured in x as |det basis| times its t-measure:
    # on UNIT the map is (x, y) -> (x / (1 + stretch), y or 2y), whichever half y is in
    pam = near_identity_map(np.diag([1.0 + stretch, 1.0]))
    assert integral(pam, UNIT).value == pytest.approx(exact(stretch), rel=1e-12)


@pytest.mark.parametrize("integral, error, match", [
    (ml.jacobian_integral, PreconditionError, "constant cell volume"),
    (lambda g, E: ml.superlevel_fraction(g, E, 0.5), PreconditionError, "constant cell volume"),
    (lambda g, E: ml.boxcount_image_measure(g, E, 2, 0.01), NumericalFailure,
     "raster guard: tilted basis"),
], ids=["jacobian_integral", "superlevel_fraction", "boxcount"])
def test_tilted_near_identity_basis_rejected(integral, error, match):
    # basis^-1 has two nonzeros in its first row: UNIT is no box in t, and without a
    # constant cell volume or an affine reference no cell can be measured in x
    pam = near_identity_map(np.array([[1.0, 5e-6], [0.0, 1.0]]))
    with pytest.raises(error, match=match):
        integral(pam, UNIT)


class TestABoxIsItsOneCellLattice:
    # a box and GridSubset.full(box, (1, 1)) are one set, read the same way
    SUB = np.array([[0.1, 0.7], [0.3, 0.9]])

    @pytest.mark.parametrize("measure", [
        lambda E: ml.jacobian_integral(graph_fixture(np.random.default_rng(3)), E),
        lambda E: ml.superlevel_fraction(graph_fixture(np.random.default_rng(3)), E, 1.05),
        lambda E: ml.boxcount_image_measure(graph_fixture(np.random.default_rng(3)), E, 3, 0.02),
        lambda E: ml.boxcount_image_measure(
            lambda xs: np.stack([xs[:, 0], np.sin(xs[:, 1]), xs[:, 0] * xs[:, 1]], axis=1),
            E, 3, 0.02, seed=2),
        lambda E: ml.estimate_lipschitz(
            lambda xs: np.stack([np.sin(3 * xs[:, 0]), xs[:, 0] * xs[:, 1]], axis=1),
            E, ns.euclidean(2), ns.linf(2), pairs=300, seed=6),
        lambda E: co.inflate_on_set(lambda xs: 0.5 * np.stack([xs[:, 0], xs[:, 1],
                                                               0.02 * xs[:, 0] ** 2], axis=1),
                                    E, ns.euclidean(2), ns.euclidean(3), 1.0, 0.2, 0.5,
                                    seed=1)[1],
    ], ids=["jacobian_integral", "superlevel_fraction", "boxcount-raster", "boxcount-cloud",
            "estimate_lipschitz", "inflate_on_set"])
    def test_a_box_reads_as_its_one_cell_lattice(self, measure):
        got, want = measure(self.SUB), measure(GridSubset.full(self.SUB, (1, 1)))
        assert repr(got) == repr(want)


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

    @pytest.mark.parametrize("m", [2, 4])
    def test_a_count_outside_the_codomain_is_refused(self, m):
        # R^3 keys were read as R^m ones: the flat square read 1.0 at any m
        cores = (np.array([[0.1, 0.4], [0.1, 0.4]]),)
        to_r3 = lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1)  # noqa: E731
        glued = co.glue_patches(co.PatchSpec(cores, (0.05,), (flat_square(cores[0]),), to_r3,
                                             0.1, ns.euclidean(2), ns.euclidean(3)), 1.0)
        for g in (flat_square(UNIT), glued):
            with pytest.raises(PreconditionError, match=f"in R\\^{m} of a map into R\\^3"):
                ml.boxcount_image_measure(g, UNIT, m, 5e-2)
        for hint in (1.0, None):  # the column count of the cloud's images tells
            with pytest.raises(PreconditionError, match=f"in R\\^{m} of a map into R\\^3"):
                ml.boxcount_image_measure(to_r3, UNIT, m, 5e-2, lip_hint=hint)

    def test_a_map_into_r5_is_not_counted_in_r3(self):
        # the desk-scale bound m <= 4 holds for the m asked, not for the map
        e = np.eye(5)
        pam = co.pa_from_axis_slopes(UNIT, [UNIT[0], UNIT[1]], [e[0:1], e[1:2]],
                                     [np.zeros(5)] * 2, np.zeros(5),
                                     ns.euclidean(2), ns.euclidean(5))
        with pytest.raises(PreconditionError, match="map into R\\^5"):
            ml.boxcount_image_measure(pam, UNIT, 3, 5e-2)

    def test_area_formula_on_injective_fixture(self, rng):
        pam = graph_fixture(rng)
        jac = ml.jacobian_integral(pam, UNIT).value
        box = ml.boxcount_image_measure(pam, UNIT, 3, 1e-3).value
        assert abs(box - jac) <= 0.15 * jac

    @pytest.mark.parametrize("E, area", [
        (np.array([[0.0, 0.5], [0.0, 1.0]]), 0.5),
        (quarter_cell(), 0.25),
        (np.array([[5.0, 6.0], [5.0, 6.0]]), 0.0),
    ], ids=["half", "quarter-cell", "disjoint"])
    def test_counts_the_image_of_E_only(self, E, area):
        g = flat_square(UNIT)
        jac = ml.jacobian_integral(g, E).value
        rep = ml.boxcount_image_measure(g, E, 3, 1e-2)
        assert jac == pytest.approx(area, abs=1e-12)
        assert abs(rep.value - jac) <= rep.error_bound

    @pytest.mark.parametrize("E, area", [
        (np.array([[0.0, 0.5], [0.0, 1.0]]), 0.5),
        (quarter_cell(), 0.25),
    ], ids=["half", "quarter-cell"])
    def test_cloud_counts_the_image_of_E_only(self, E, area):
        g = lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1)  # noqa: E731
        rep = ml.boxcount_image_measure(g, E, 3, 1e-2, lip_hint=1.0)
        assert rep.resolution["method"] == "cloud"
        assert abs(rep.value - area) <= rep.error_bound

    def test_cloud_reads_zero_on_an_empty_grid_subset(self):
        g = lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1)  # noqa: E731
        E = GridSubset.empty(UNIT, (2, 2))
        for hint in (1.0, None):
            rep = ml.boxcount_image_measure(g, E, 3, 1e-2, lip_hint=hint)
            assert rep.resolution["method"] == "cloud"
            assert rep.value == 0.0
        assert ml.boxcount_image_measure(flat_square(UNIT), E, 3, 1e-2).value == 0.0

    def test_cloud_lip_hint_is_sampled_on_E(self):
        # 1-Lipschitz on the quarter cell, 50-Lipschitz beyond x = 0.5: a hint
        # sampled over the bounding box asks for 2.5e9 cloud points
        def g(xs):
            return np.stack([xs[:, 0], xs[:, 1], 50.0 * np.maximum(xs[:, 0] - 0.5, 0.0)], axis=1)

        e2, e3 = ns.euclidean(2), ns.euclidean(3)
        E = quarter_cell()
        assert co._sampled_lipschitz(g, E, e2, e3, 0) == pytest.approx(1.0, abs=1e-12)
        rep = ml.boxcount_image_measure(g, E, 3, 1e-3)
        assert rep.value == ml.boxcount_image_measure(g, E, 3, 1e-3, lip_hint=1.0).value
        assert abs(rep.value - 0.25) <= rep.error_bound
        # on a plain box the pairs are drawn over the whole box: the far
        # pairs of the stream, with no near pairs, already read the slope 50
        rng = rng_for(0, 51)
        xs, ys = rng.random((2000, 2)), rng.random((2000, 2))
        quot = np.linalg.norm(g(xs) - g(ys), axis=1) / np.linalg.norm(xs - ys, axis=1)
        sampled = co._sampled_lipschitz(g, UNIT, e2, e3, 0)
        assert 40.0 < float(np.max(quot)) <= sampled * (1 + 1e-12)
        assert sampled <= math.hypot(1.0, 50.0) * (1 + 1e-12)

    def test_cloud_takes_a_single_point_map_without_a_hint(self):
        # the map is wrapped for batches once, before the sampled hint uses it
        def point(x):
            return np.array([x[0], x[1], 0.0])

        batch = lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1)  # noqa: E731
        E = np.array([[0.0, 0.5], [0.0, 1.0]])
        rep = ml.boxcount_image_measure(point, E, 3, 5e-2)
        assert rep.value == ml.boxcount_image_measure(batch, E, 3, 5e-2).value

    def test_single_point_map_with_two_outputs_is_not_taken_for_a_batch_map(self):
        # on a (2, 2) input the single-point form returns two rows as well,
        # (x_0, 0.5 x_1) for the rows x_0 and x_1: only its rows tell
        def point(x):
            return np.array([x[0], 0.5 * x[1]])

        batch = lambda xs: np.stack([xs[:, 0], 0.5 * xs[:, 1]], axis=1)  # noqa: E731
        for hint in (1.0, None):
            rep = ml.boxcount_image_measure(point, UNIT, 2, 5e-2, lip_hint=hint)
            assert rep.value == ml.boxcount_image_measure(batch, UNIT, 2, 5e-2,
                                                          lip_hint=hint).value
            assert abs(rep.value - 0.5) <= rep.error_bound

    def test_glued_counts_the_cores_in_E_only(self):
        cores = (np.array([[0.1, 0.4], [0.1, 0.4]]), np.array([[0.6, 0.9], [0.6, 0.9]]))
        spec = co.PatchSpec(cores, (0.05, 0.05), tuple(flat_square(c) for c in cores),
                            lambda xs: np.concatenate([xs, np.zeros((len(xs), 1))], axis=1),
                            0.1, ns.euclidean(2), ns.euclidean(3))
        glued = co.glue_patches(spec, 1.0)
        for E, area in ((np.array([[0.0, 0.5], [0.0, 1.0]]), 0.09), (UNIT, 0.18)):
            jac = ml.jacobian_integral(glued, E).value
            rep = ml.boxcount_image_measure(glued, E, 3, 1e-2)
            assert jac == pytest.approx(area, abs=1e-12)
            assert abs(rep.value - jac) <= rep.error_bound

    def test_axis_aligned_basis_count_is_pinned(self):
        # basis diag(5/3, 2): the window is a box in t, so cells are counted one by one
        A = np.array([[0.6, 0.0], [0.0, 0.5], [0.0, 0.0]])
        m = la.linear_map(A, ns.euclidean(2), ns.euclidean(3))
        g = co.inflate_affine(m, la.euclidean_inflation(m), UNIT, 0.2)
        assert not g.identity_basis
        assert ml.boxcount_image_measure(g, UNIT, 3, 0.01).value == 0.362317419860798

    def test_tilted_basis_without_a_reference_raises(self):
        # x -> A x on BOX, written in a basis turned by 30 degrees: counting the
        # t-space bounding box of BOX would read 3.676 against the area 1.981
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        R = np.array([[c, -s], [s, c]])
        A = np.array([[0.8, 0.1], [0.0, 0.6], [0.2, 0.0]])
        AR = A @ R
        breaks = np.array([-1.5, 1.5])
        pam = co.pa_from_axis_slopes(BOX, [breaks, breaks], [AR[:, 0:1].T, AR[:, 1:2].T],
                                     [-1.5 * AR[:, 0], -1.5 * AR[:, 1]], np.zeros(3),
                                     ns.euclidean(2), ns.euclidean(3), basis=R)
        xs = rng_for(0, 1).uniform(-1.0, 1.0, (50, 2))
        assert np.allclose(pam.eval_many(xs), xs @ A.T, atol=1e-12)
        with pytest.raises(NumericalFailure, match="raster guard: tilted basis"):
            ml.boxcount_image_measure(pam, BOX, 3, 0.01)

    def test_tilted_inflation_counts_the_window(self):
        # an l1 -> linf inflation with non-diagonal preimages is counted by its
        # affine reference over BOX, not over the t-space bounding box of BOX
        a, b = ns.norm_from_json({"dim": 2, "kind": "l1"}), ns.norm_from_json(
            {"dim": 3, "kind": "linf"})
        A = np.array([[0.5, 0.2], [0.1, 0.4], [0.3, -0.2]])
        m = la.linear_map(A / la.operator_norm(la.linear_map(A, a, b)), a, b)
        cert = la.inflation_search(m, 0.0, seed=1)
        assert np.allclose(cert.eigenvalues, 1.0)
        assert np.count_nonzero(cert.preimages) == 4
        g = co.inflate_affine(m, cert, BOX, 0.002)
        rep = ml.boxcount_image_measure(g, BOX, 3, 0.01)
        assert abs(rep.value - ml.jacobian_integral(g, BOX).value) <= rep.error_bound

    def test_tilted_glued_map_counts_its_cores(self):
        # four l1 -> linf cores with tilted bases; each core's side shrinks by
        # sigma, so the cores' image has area vol(M) sigma^2 (the t-space
        # bounding boxes of the cores read 0.1149, above vol(M) = 0.0860)
        M = np.array([[0.3, 0.1], [0.05, 0.25], [0.1, -0.1]])
        a, b = ns.norm_from_json({"dim": 2, "kind": "l1"}), ns.norm_from_json(
            {"dim": 3, "kind": "linf"})
        glued, report = co.inflate_on_set(lambda xs: xs @ M.T, UNIT, a, b, 0.05, 0.1, 0.5, 0,
                                          f_lip=la.operator_norm(la.linear_map(M, a, b)))
        assert all(not piece.identity_basis for _, piece in glued.pieces())
        rep = ml.boxcount_image_measure(glued, UNIT, 3, 0.002)
        area = la.vol_matrix(M)
        assert rep.value < area
        assert abs(rep.value - area * report.sigma ** 2) <= rep.error_bound


def reference_calibration(n, m, box_size):
    """_calibration's former raster: box-count the unit n-cube embedded in R^m."""
    embed = np.zeros((m, n))
    embed[:n, :n] = np.eye(n)
    box = np.stack([np.zeros(n), np.ones(n)], axis=1)
    breaks = np.array([0.0, 1.0])
    pam = co.pa_from_axis_slopes(box, [breaks] * n, [embed[:, d:d + 1].T for d in range(n)],
                                 [np.zeros(m)] * n, np.zeros(m),
                                 ns.euclidean(n), ns.euclidean(m))
    return ml._mass_from_parts([ml._pa_boxcount_parts(pam, box_size, box)], n, box_size)


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


def reference_affine_patch_keys(cols, off, tbox, s):
    """_affine_patch_keys before the column-list scanline: coordinate-keyed
    interval dicts, every interval repeated on every pass."""

    def raster_columns(lo_x, hi_x):
        a, b = lo_x / s, hi_x / s
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NumericalFailure("box-count raster guard: footprint too large")
        u_lo, u_hi = math.floor(a), math.floor(b)
        if u_hi - u_lo + 1 > ml._MAX_RASTER_BOXES:
            raise NumericalFailure("box-count raster guard: footprint too large")
        return np.arange(u_lo, u_hi + 1)

    m, n = cols.shape
    if la.vol_matrix(cols) <= 1e-14:
        return None
    if n == 2:
        best, fp = -1.0, None
        for p, q in combinations(range(m), 2):
            d = abs(cols[p, 0] * cols[q, 1] - cols[p, 1] * cols[q, 0])
            if d > best:
                best, fp = d, (p, q)
        corners_t = np.array([[tbox[0, 0], tbox[1, 0]], [tbox[0, 1], tbox[1, 0]],
                              [tbox[0, 1], tbox[1, 1]], [tbox[0, 0], tbox[1, 1]]])
        corners = corners_t @ cols.T + off
        quad = corners[:, list(fp)]
        us = raster_columns(quad[:, 0].min(), quad[:, 0].max())
        xa = us * s
        xb = xa + s
        vmin = np.full(us.shape, np.inf)
        vmax = np.full(us.shape, -np.inf)
        for e in range(4):
            P0, P1 = quad[e], quad[(e + 1) % 4]
            x0, x1 = float(P0[0]), float(P1[0])
            lo_x, hi_x = min(x0, x1), max(x0, x1)
            overlap = (xb >= lo_x) & (xa <= hi_x)
            if abs(x1 - x0) < 1e-14:
                vmin = np.where(overlap, np.minimum(vmin, min(P0[1], P1[1])), vmin)
                vmax = np.where(overlap, np.maximum(vmax, max(P0[1], P1[1])), vmax)
                continue
            slope = (P1[1] - P0[1]) / (x1 - x0)
            for xe in (np.clip(xa, lo_x, hi_x), np.clip(xb, lo_x, hi_x)):
                val = P0[1] + slope * (xe - x0)
                vmin = np.where(overlap, np.minimum(vmin, val), vmin)
                vmax = np.where(overlap, np.maximum(vmax, val), vmax)
        keep = vmax >= vmin
        if not np.any(keep):
            return None
        us, xa, xb, vmin, vmax = us[keep], xa[keep], xb[keep], vmin[keep], vmax[keep]
        v_lo = np.floor(vmin / s).astype(np.int64)
        v_hi = np.floor(vmax / s).astype(np.int64)
        counts = v_hi - v_lo + 1
        total = int(counts.sum())
        if total > ml._MAX_RASTER_BOXES:
            raise NumericalFailure("box-count raster guard: footprint too large")
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        col_v = v_lo.repeat(counts) + (np.arange(total) - np.repeat(starts, counts))
        idx_cols = {fp[0]: us.repeat(counts), fp[1]: col_v}
        intervals = {fp[0]: (xa.repeat(counts), xb.repeat(counts)),
                     fp[1]: (col_v * s, col_v * s + s)}
        footprint = list(fp)
    else:
        p = int(np.argmax(np.abs(cols[:, 0])))
        ends = np.array([tbox[0, 0], tbox[0, 1]])[:, None] * cols[:, 0][None, :] + off
        lo_x, hi_x = float(ends[:, p].min()), float(ends[:, p].max())
        us = raster_columns(lo_x, hi_x)
        xa = np.clip(us * s, lo_x, hi_x)
        xb = np.clip(us * s + s, lo_x, hi_x)
        idx_cols = {p: us}
        intervals = {p: (xa, xb)}
        footprint = [p]

    rest = [c for c in range(m) if c not in footprint]
    if rest:
        F = cols[footprint, :]
        F_inv = np.linalg.inv(F)
        zc = cols[rest, :] @ F_inv
        z0 = off[rest] - zc @ off[footprint]
        for r_pos, coord in enumerate(rest):
            z_min = np.full(next(iter(idx_cols.values())).shape, z0[r_pos])
            z_max = z_min.copy()
            for d_pos, d_coord in enumerate(footprint):
                lo_i, hi_i = intervals[d_coord]
                c = zc[r_pos, d_pos]
                z_min = z_min + np.minimum(c * lo_i, c * hi_i)
                z_max = z_max + np.maximum(c * lo_i, c * hi_i)
            w_lo = np.floor(z_min / s).astype(np.int64)
            w_hi = np.floor(z_max / s).astype(np.int64)
            spans = w_hi - w_lo + 1
            total = int(spans.sum())
            if total > ml._MAX_RASTER_BOXES:
                raise NumericalFailure("box-count raster guard: column spans too large")
            starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
            new_idx = w_lo.repeat(spans) + (np.arange(total) - np.repeat(starts, spans))
            for key in list(idx_cols):
                idx_cols[key] = idx_cols[key].repeat(spans)
            for key in list(intervals):
                a_i, b_i = intervals[key]
                intervals[key] = (a_i.repeat(spans), b_i.repeat(spans))
            idx_cols[coord] = new_idx
            intervals[coord] = (new_idx * s, new_idx * s + s)

    return ml._distinct(ml._pack_keys(np.stack([idx_cols[c] for c in range(m)], axis=1)))


@st.composite
def patch_cases(draw):
    """(cols, off, tbox, s): small patches, some with zero rows or entries on a 0.1 grid."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(n, 4))
    cols = np.array([[draw(st.floats(-1.5, 1.5)) for _ in range(n)] for _ in range(m)])
    if draw(st.booleans()):
        cols = np.round(cols, 1)
    for row in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        cols[row] = 0.0
    off = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(m)])
    tbox = np.array([[a, a + draw(st.floats(0.05, 1.0))]
                     for a in (draw(st.floats(-1.0, 1.0)) for _ in range(n))])
    return cols, off, tbox, draw(st.floats(0.01, 0.1))


@st.composite
def boxcount_parts(draw):
    """(parts, n, s): windows of cells with overlapping sorted distinct keys, and
    one distinct weight a cell, in _pa_boxcount_parts's (keys, weights, counts) form."""
    cells = draw(st.lists(st.integers(0, 4), max_size=3))
    weights = iter(draw(st.lists(st.floats(1e-3, 1e3), min_size=sum(cells),
                                 max_size=sum(cells), unique=True)))
    parts = []
    for count in cells:
        keys = [np.array(sorted(draw(st.sets(st.integers(-30, 30), min_size=1, max_size=40))),
                         dtype=np.int64) for _ in range(count)]
        parts.append((np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64),
                      np.array([next(weights) for _ in range(count)]),
                      np.array([k.size for k in keys], dtype=np.int64)))
    return parts, draw(st.integers(1, 2)), draw(st.floats(1e-3, 0.5))


def reference_mass_from_parts(parts, n, box_size):
    """_mass_from_parts over a weight per key, by np.unique with return_index."""
    if not parts:
        return 0.0
    keys = np.concatenate([p[0] for p in parts])
    if keys.size == 0:
        return 0.0
    weights = np.concatenate([np.repeat(p[1], p[2]) for p in parts])
    _, first = np.unique(keys, return_index=True)
    return float(np.sum(weights[first]) * box_size ** n)


def boxcount_peak(pam, s):
    """(distinct keys, tracemalloc peak) of pam's box count on UNIT at box size s."""
    distinct = np.unique(ml._pa_boxcount_parts(pam, s, UNIT)[0]).size
    tracemalloc.start()
    try:
        ml.boxcount_image_measure(pam, UNIT, 3, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return distinct, peak


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

    @settings(max_examples=300, deadline=None)
    @given(patch_cases())
    def test_patch_keys_match_the_reference(self, case):
        got, want = ml._affine_patch_keys(*case), reference_affine_patch_keys(*case)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(patch_cases(), st.integers(1, 7))
    def test_patch_keys_in_small_blocks_match_the_reference(self, case, block):
        # blocks of a few footprint boxes split columns and runs at every offset
        with mock.patch.object(ml, "_RASTER_BLOCK", block):
            got = ml._affine_patch_keys(*case)
        want = reference_affine_patch_keys(*case)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(boxcount_parts())
    def test_mass_matches_a_weight_per_key(self, case):
        assert ml._mass_from_parts(*case) == reference_mass_from_parts(*case)

    @settings(max_examples=300, deadline=None)
    @given(boxcount_parts())
    def test_mass_leaves_the_parts_as_they_were(self, case):
        # the trace counts the keys of the parts after the call
        parts, n, s = case
        before = [[a.tobytes() for a in p] for p in parts]
        assert ml._mass_from_parts(parts, n, s) == reference_mass_from_parts(parts, n, s)
        assert [[a.tobytes() for a in p] for p in parts] == before

    def test_boxcount_peak_bytes_per_key(self):
        # at s = 1e-3 a tilted unit square has 1,738,164 distinct keys; its box
        # count peaked at 33.0 bytes a key (the window's keys, their joined
        # copy, the stable argsort and the sorted keys), now at 17.2 (the keys
        # and the argsort)
        q, _ = np.linalg.qr(np.random.default_rng(20230614).standard_normal((3, 3)))
        e = np.array([0.0, 1.0])
        pam = co.pa_from_axis_slopes(UNIT, [e, e], [q.T[0:1], q.T[1:2]], [np.zeros(3)] * 2,
                                     np.zeros(3), ns.euclidean(2), ns.euclidean(3))
        distinct, peak = boxcount_peak(pam, 1e-3)
        assert distinct > 1_700_000
        # the allowance covers one block's work arrays, about 60 bytes a footprint box
        assert peak <= 20 * distinct + 128 * ml._RASTER_BLOCK

    def test_joined_cells_peak_bytes_per_key(self):
        # the 3 x 3 graph surface joins nine cells' keys, 1,475,760 for
        # 1,470,522 distinct at s = 1e-3: 33.1 bytes a key, now 17.5
        distinct, peak = boxcount_peak(graph_fixture(np.random.default_rng(20230614)), 1e-3)
        assert distinct > 1_400_000
        assert peak <= 20 * distinct + 128 * ml._RASTER_BLOCK

    @pytest.mark.parametrize("cols, off, tbox, s", [
        (np.array([[1.0], [0.0]]), np.zeros(2), np.array([[0.0, 1.0]]), 1e-13),
        (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3), UNIT, 1e-12),
        # the large row has the largest minors, so it joins the footprint
        (np.array([[1.0, 0.0], [0.0, 1.0], [1e9, 0.0]]), np.zeros(3), UNIT, 1e-3),
        # 1e23 boxes in a column: more than int64 holds, refused all the same
        (np.array([[1.0, 0.0], [0.0, 1e20]]), np.zeros(2), UNIT, 1e-3),
    ], ids=["curve", "surface", "large-third-row", "past-int64"])
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

    def test_indices_past_int64_are_refused(self):
        # the third coordinate, 1e33 boxes out, casts to INT64_MIN
        cols = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalFailure, match="image extends too far"):
            ml._affine_patch_keys(cols, np.array([0.0, 0.0, 1e30]), UNIT, 1e-3)

    def test_a_run_straddling_int64_is_refused(self):
        # the footprint run 2^63 - 1024 .. 2^63 is 1025 boxes, under the box
        # limit; cast to int64 its last end wraps to INT64_MIN and its first
        # does not, so the range guard must read the ends before the cast
        cols = np.array([[1024.0], [0.0]])
        with pytest.raises(NumericalFailure, match="image extends too far"):
            ml._affine_patch_keys(cols, np.array([2.0 ** 63 - 1024, 0.0]),
                                  np.array([[0.0, 1.0]]), 1.0)

    def test_rest_guard_names_the_column_spans(self, monkeypatch):
        # a rest coordinate spans at most 3 boxes per footprint box (the
        # footprint has the largest minor), so only a footprint of 40M boxes
        # reaches the rest guard at the real limit; a lowered limit does here
        cols = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        monkeypatch.setattr(ml, "_MAX_RASTER_BOXES", 51 * 51)  # the footprint at s = 0.02
        with pytest.raises(NumericalFailure, match="column spans too large"):
            ml._affine_patch_keys(cols, np.zeros(3), UNIT, 0.02)

    def test_rest_guard_counts_every_block(self, monkeypatch):
        # the same patch in blocks of 64 footprint boxes: a block holds at most
        # 3 * 64 keys, under the lowered limit; only the running total is over it
        cols = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert ml._affine_patch_keys(cols, np.zeros(3), UNIT, 0.02).size > 51 * 51
        monkeypatch.setattr(ml, "_RASTER_BLOCK", 64)
        monkeypatch.setattr(ml, "_MAX_RASTER_BOXES", 51 * 51)
        with pytest.raises(NumericalFailure, match="column spans too large"):
            ml._affine_patch_keys(cols, np.zeros(3), UNIT, 0.02)


def reference_coverage(g, radius, target_radius, grid, lip_hint):
    """coverage_check by brute force over the ring: per lattice point, the
    winding number sums the signed crossings of every edge, the exclusion
    compares its cell with every ring vertex's cell, and every certified
    point is checked at least 3 s / 4 from the polygon by exact
    point-to-segment distances."""
    s = grid / 4.0
    count = max(math.ceil(4.0 * math.pi * radius * lip_hint / s), 3)
    theta = 2.0 * math.pi * np.arange(count) / count
    a = g(radius * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    b = np.roll(a, -1, axis=0)
    t_ax = np.arange(-target_radius, target_radius + grid, grid)
    TX, TY = np.meshgrid(t_ax, t_ax, indexing="ij")
    targets = np.stack([TX.ravel(), TY.ravel()], axis=1)
    targets = targets[np.linalg.norm(targets, axis=1) <= target_radius]
    base = np.floor(targets / grid).astype(np.int64)
    offsets = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    cells = np.unique((base[:, None, :] + offsets).reshape(-1, 2), axis=0)
    sub = np.array([(i, j) for i in range(4) for j in range(4)])
    idx = (4 * cells[:, None, :] + sub).reshape(-1, 2)
    vertex_cells = np.floor(a / s).astype(np.int64)
    certified = []
    for chunk in np.array_split(idx, max(1, len(idx) // 1000)):
        q = chunk * s
        qx, qy = q[:, :1], q[:, 1:]
        up = (a[:, 1] <= qy) & (qy < b[:, 1])
        down = (b[:, 1] <= qy) & (qy < a[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            x = a[:, 0] + (qy - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
        right = x > qx
        winding = np.sum(up & right, axis=1) - np.sum(down & right, axis=1)
        cheb = np.max(np.abs(chunk[:, None, :] - vertex_cells), axis=2)
        ok = (winding != 0) & (np.min(cheb, axis=1) >= 2)
        e = b - a
        t = np.clip(np.sum((q[ok][:, None, :] - a) * e, axis=2)
                    / np.maximum(np.sum(e * e, axis=1), 1e-300), 0.0, 1.0)
        dist = np.linalg.norm(a + t[:, :, None] * e - q[ok][:, None, :], axis=2)
        assert np.all(np.min(dist, axis=1) >= 0.75 * s * (1 - 1e-9))
        certified.append(chunk[ok] // 4)
    good = {tuple(c) for c in np.concatenate(certified)}
    covered = [any((bx + dx, by + dy) in good for dx, dy in offsets) for bx, by in base]
    return float(np.mean(covered))


class TestCoverage:
    @pytest.mark.parametrize("g, expected", [
        (lambda xs: 0.5 * xs, "partial"),
        (lambda xs: 0.7 * xs + np.array([0.25, -0.1]), "partial"),
        # the boundary image folds back on itself: degree 0 everywhere
        (lambda xs: np.stack([xs[:, 0], 0.2 * xs[:, 1] ** 2], axis=1), "none"),
    ], ids=["shrunk", "shifted", "folded"])
    def test_matches_brute_force_winding_reference(self, g, expected):
        rep = ml.coverage_check(g, 1.0, 0.9, 1.0 / 16, lip_hint=1.0)
        if expected == "partial":
            assert 0.0 < rep.value < 1.0
        else:
            assert rep.value == 0.0
        assert rep.value == reference_coverage(g, 1.0, 0.9, 1.0 / 16, 1.0)

    def test_folded_map_is_not_certified(self):
        g = lambda xs: np.stack([xs[:, 0], 0.2 * xs[:, 1] ** 2], axis=1)  # noqa: E731
        assert ml.coverage_check(g, 1.0, 0.9, 1.0 / 200, lip_hint=1.0).value == 0.0

    def test_shrunk_map_sound_and_tight(self):
        grid = 1.0 / 200
        targets, covered, _ = ml._certified_targets(lambda xs: 0.5 * xs, 1.0, 0.9, grid, 1.0)
        r = np.linalg.norm(targets, axis=1)
        assert np.all(r[covered] <= 0.5 + 2 * grid * math.sqrt(2))
        assert np.all(covered[r <= 0.5 - 2 * grid])

    def test_lipschitz_hint_below_ring_quotient_raises(self):
        with pytest.raises(PreconditionError, match="chord quotient"):
            ml.coverage_check(lambda xs: xs, 1.0, 1.0, 1.0 / 200, lip_hint=0.5)

    @pytest.mark.parametrize("grid, lip_hint", [(1e-2, 1e7), (1e-6, 1e-3)],
                             ids=["ring", "lattice"])
    def test_ring_guard_runs_before_allocation(self, grid, lip_hint):
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match="coverage ring guard"):
                ml.coverage_check(lambda xs: xs, 1.0, 1.0, grid, lip_hint=lip_hint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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


def reference_adversarial_search(a, b, u, eps, threshold, k, restarts, steps, seed):
    """_adversarial_search as a loop over restarts, one candidate at a time."""
    n, m = a.dim, b.dim
    fast_norms = (n == 2 and a.kind == "lp" and a.p == math.inf
                  and (b.kind == "euclidean" or (b.kind == "lp" and b.p == 2)))
    seg_len = 2.0 / k
    breaks = np.linspace(-1.0, 1.0, k + 1)
    base = [np.tile(u, (k, 1)), np.zeros((k, m))]
    anchors = [-1.0 * u, np.zeros(m)]

    def worst_norm(slopes):
        s1, s2 = slopes
        if fast_norms:
            plus = s1[:, None, :] + s2[None, :, :]
            minus = s1[:, None, :] - s2[None, :, :]
            return float(np.sqrt(max(np.max(np.sum(plus ** 2, axis=2)),
                                     np.max(np.sum(minus ** 2, axis=2)))))
        cells = np.stack(np.broadcast_arrays(s1[:, None, :], s2[None, :, :]), axis=-1)
        return float(np.max(la.operator_norm_report(cells.reshape(k * k, m, 2), a, b).values))

    def project(slopes):
        w = worst_norm(slopes)
        if w > 1.0:
            slopes = [s / w for s in slopes]
        vals = [co._node_values(breaks, s, anchor) for s, anchor in zip(slopes, anchors)]
        total = (vals[0] - breaks[:, None] * u[None, :])[:, None, :] + vals[1][None, :, :]
        sup = float(np.max(ns._eval_many(b, total.reshape(-1, m))))
        if sup > eps:
            psi = 0.999 * eps / sup
            slopes = [s0 + psi * (s - s0) for s, s0 in zip(slopes, base)]
        return slopes

    def score(slopes):
        s1, s2 = slopes
        if m == 2:
            vols = np.abs(s1[:, None, 0] * s2[None, :, 1] - s1[:, None, 1] * s2[None, :, 0])
        else:
            gram = np.multiply.outer(np.sum(s1 ** 2, axis=1), np.sum(s2 ** 2, axis=1))
            vols = np.sqrt(np.clip(gram - (s1 @ s2.T) ** 2, 0.0, None))
        frac = float(np.mean(vols >= threshold))
        guide = float(np.mean(np.minimum(vols / max(threshold, 1e-12), 1.0)))
        return frac + 1e-3 * guide, frac

    best_frac, best = 0.0, None
    for r in range(restarts):
        rng = rng_for(seed, 8088, r)
        cand = base
        if r > 0:
            cand = project([s + rng.standard_normal((k, m)) * (0.3 * eps / seg_len)
                            for s in base])
        s_best, _ = score(cand)
        step = max(eps / seg_len, 0.05)
        for _ in range(steps):
            d = int(rng.integers(0, n))
            i = int(rng.integers(0, k))
            trial = [s.copy() for s in cand]
            trial[d][i] += rng.standard_normal(m) * step
            trial = project(trial)
            s_new, _ = score(trial)
            if s_new > s_best:
                cand, s_best = trial, s_new
            else:
                step *= 0.985
                if step < 1e-6:
                    break
        _, frac = score(cand)
        if best is None or frac > best_frac + 1e-15:
            best_frac, best = frac, cand
    box = np.stack([-np.ones(n), np.ones(n)], axis=1)
    return best_frac, co.pa_from_axis_slopes(box, [breaks] * n, best, anchors,
                                             np.zeros(m), a, b)


ADVERSARY_PAIRS = (("linf", "l2", 2), ("linf", "l2", 3), ("l1", "l1", 2), ("l1", "linf", 2),
                   ("l1", "l2", 2), ("linf", "l1", 2), ("linf", "linf", 2))
NORMS = {"l1": ns.l1, "l2": ns.euclidean, "linf": ns.linf}


@st.composite
def adversary_cases(draw):
    """Arguments of _adversarial_search; |u|_b up to 1.5 also starts restart 0 outside the ball."""
    dom, cod, m = draw(st.sampled_from(ADVERSARY_PAIRS))
    b = NORMS[cod](m)
    v = draw(hnp.arrays(float, m, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.max(np.abs(v)) > 0.1))
    u = v * (draw(st.floats(0.3, 1.5)) / ns.norm_eval(b, v))
    size = draw(st.integers(1, 4))
    schedule = draw(st.lists(st.sampled_from([0.5, 0.25, 0.0625, 2.0 ** -8]),
                             min_size=size, max_size=size))
    seeds = draw(st.lists(st.integers(0, 2 ** 16), min_size=size, max_size=size))
    return (NORMS[dom](2), b, u, schedule, draw(st.floats(0.05, 0.9)), draw(st.integers(2, 6)),
            draw(st.integers(1, 8)), draw(st.integers(0, 60)), seeds)


def assert_same_search(got, want):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for mine, theirs in zip(got[1].curves, want[1].curves, strict=True):
        assert mine.slopes.tobytes() == theirs.slopes.tobytes()
        assert mine.anchor.tobytes() == theirs.anchor.tobytes()


def assert_same_searches(case):
    """Every search of one batched schedule against the loop, one eps at a time."""
    a, b, u, schedule, threshold, k, restarts, steps, seeds = case
    found = ml._adversarial_search(*case)
    assert len(found) == len(schedule)
    for got, eps, seed in zip(found, schedule, seeds):
        assert_same_search(got, reference_adversarial_search(
            a, b, u, eps, threshold, k, restarts, steps, seed))


def counted_projections(monkeypatch) -> list:
    calls = []
    kernel = ml._sup_dist_nodes

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ml, "_sup_dist_nodes", counted)
    return calls


class TestAdversaryOracle:
    @settings(max_examples=120)
    @given(adversary_cases())
    def test_batched_restarts_match_the_loop(self, case):
        assert_same_searches(case)

    def test_every_restart_reaches_the_step_stop(self, monkeypatch):
        calls = counted_projections(monkeypatch)
        case = (ns.linf(2), ns.euclidean(2), np.array([1.0, 0.0]), [0.25, 0.0625], 0.3, 3, 6,
                1500, [5, 1005])
        assert_same_searches(case)
        # one batched call for the start and one per step: fewer than 1501 means all twelve
        # rows stopped
        assert len(calls) < 1 + 1500

    def test_one_schedule_is_one_batch(self, monkeypatch):
        calls = counted_projections(monkeypatch)
        config = ml.NegativeConfig(
            u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(0.5, 0.25, 0.125), seed=2,
            domain_kind="l1", codomain_kind="linf", threshold=0.3, restarts=3, steps=40)
        records = ml.run_negative_experiment(config)["records"]
        assert len(records) == 3
        assert len(calls) <= config.steps + 1

    def test_empty_schedule_has_no_records(self, monkeypatch):
        calls = counted_projections(monkeypatch)
        config = ml.NegativeConfig(u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(), seed=0,
                                   threshold=0.3)
        assert ml.run_negative_experiment(config)["records"] == []
        assert calls == []


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

    def test_positive_takes_lip_f_exactly(self, monkeypatch):
        # a descriptor's Lip(f) is 0 or ||M||_{a->b}; nothing samples it
        def no_sampling(*args, **kwargs):
            raise AssertionError("Lip(f) was sampled")

        monkeypatch.setattr(co, "_sampled_lipschitz", no_sampling)
        monkeypatch.setattr(ml, "_sampled_lipschitz", no_sampling)
        # ||M|| = 0.95 lies above the headroom L0 = 0.675^(1/4) of eta = 0.5
        affine = {"kind": "affine", "linear": [[0.95, 0.0], [0.0, 0.5], [0.0, 0.0]]}
        for f in ({"kind": "zero"}, affine):
            config = ml.PositiveConfig(box=UNIT, m=3, f=f, eta=0.5, lam=1.0,
                                       eps_schedule=(0.2,), seed=2)
            rec = ml.run_positive_experiment(config)["records"][0]
            assert rec["jac_integral"] >= 0.5 - 1e-9
            assert rec["sup_dist"] <= rec["eps"]
            assert rec["lip_glue_bound"] <= 1.0

    @pytest.mark.parametrize("schedule, builds", [
        ((0.2, -1.0), 0), ((0.2, 0.0), 0), ((0.2, math.nan), 0), ((math.inf,), 1)],
        ids=["negative", "zero", "nan", "infinity"])
    def test_positive_schedule_is_checked_before_any_build(self, monkeypatch, schedule,
                                                           builds):
        # the eps-0.2 construction used to be built, certified and glued first
        calls = []

        class Built(Exception):
            pass

        def counted(*args, **kwargs):
            calls.append(args[5])
            raise Built

        monkeypatch.setattr(ml, "inflate_on_set", counted)
        config = ml.PositiveConfig(box=UNIT, m=3, f={"kind": "zero"}, eta=0.5, lam=1.0,
                                   eps_schedule=schedule, seed=0)
        with pytest.raises(Built if builds else PreconditionError):
            ml.run_positive_experiment(config)
        assert len(calls) == builds

    @pytest.mark.parametrize("schedule, builds", [((0.2, 0.1), 1), ((0.1, 0.005), 2)])
    def test_equal_scales_make_one_build(self, monkeypatch, schedule, builds):
        # eps 0.2 and 0.1 give the README job the same L0 and delta_glue, so the
        # same map; at 0.005 delta_glue is 0.45 eps, below its cap 0.245 (1 - L0)
        def config(eps_schedule):
            return ml.PositiveConfig(box=BOX, m=3, f={"kind": "zero"}, eta=0.9, lam=1.0,
                                     eps_schedule=eps_schedule, seed=0, run_boxcount=True)

        singles = [rec for eps in schedule
                   for rec in ml.run_positive_experiment(config((eps,)))["records"]]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[5])
            return co.inflate_on_set(*args, **kwargs)

        monkeypatch.setattr(ml, "inflate_on_set", counted)
        records = ml.run_positive_experiment(config(schedule))["records"]
        assert len(calls) == builds
        assert repr(records) == repr(singles)

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

    def test_euclidean_to_linf_lipschitz_is_exact(self):
        # l2 -> linf by duality: the largest row 2-norm of each cell, exactly
        u = np.array([1.0, 0.0])
        a, b = ns.euclidean(2), ns.linf(2)
        config = ml.NegativeConfig(
            u=u, r=0.3, eps_schedule=(0.25,), seed=0, domain_kind="euclidean",
            codomain_kind="linf", threshold=0.3, grid=6, restarts=3, steps=40)
        record = ml.run_negative_experiment(config)["records"][0]
        [(_, pam)] = ml._adversarial_search(a, b, u, [0.25], 0.3, 6, 3, 40, [config.seed])
        cells = pam.distinct_linears()
        report = la.operator_norm_report(cells, a, b)
        rows = np.max(np.linalg.norm(cells, axis=2), axis=1)
        assert report.exact is True
        assert report.values.tobytes() == rows.tobytes()
        assert record["lip_exact"] == float(np.max(rows))

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
        found = ml._adversarial_search(ns.linf(2), ns.l1(2), u, config.eps_schedule, 0.3,
                                       6, 3, 60, [config.seed, config.seed + 1000])
        for rec, (_, pam) in zip(report["records"], found, strict=True):
            dev = pam.eval_many(corners) - corners[:, :1] * u
            l1_dist = float(np.max(np.sum(np.abs(dev), axis=1)))
            assert rec["sup_dist"] == pytest.approx(l1_dist, rel=1e-12)
            assert l1_dist <= rec["eps"] + 1e-9

    def test_u_on_the_sphere_of_a_smooth_pair_is_feasible(self):
        # |u|_4 = 1: the certified lower end of ||(u|0)||_{lp3->lp4} is 1, so u
        # passes the same check as max_volume, though the bracket's upper end exceeds 1
        config = ml.NegativeConfig(
            u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(0.25,), seed=0,
            domain_kind={"lp": 3}, codomain_kind={"lp": 4}, threshold=0.5,
            restarts=1, steps=2)
        [record] = ml.run_negative_experiment(config)["records"]
        assert record["sup_dist"] <= record["eps"] + 1e-9

    # Records of one fast-path (cube -> Euclidean) and one operator_norm_report schedule,
    # recorded when every eps ran its own search; each field is compared by repr.
    @pytest.mark.parametrize("config, threshold, records", [
        (ml.NegativeConfig(u=np.array([0.6, 0.8]), r=0.1, eps_schedule=(0.25, 0.0625, 2.0 ** -6),
                           seed=9, restarts=4, steps=80),
         0.1,
         [dict(eps=0.25, superlevel_fraction=0.8333333333333334, sup_dist=0.24974999999999986,
               lip_exact=0.9999419563844295, jac_integral=0.5360665781963824),
          dict(eps=0.0625, superlevel_fraction=0.3333333333333333, sup_dist=0.058236198922438705,
               lip_exact=0.9995853552313347, jac_integral=0.1375767037368873),
          dict(eps=0.015625, superlevel_fraction=0.0, sup_dist=0.015609374999999915,
               lip_exact=0.9999997366441689, jac_integral=0.0670046192610545)]),
        (ml.NegativeConfig(u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(0.5, 0.125, 0.03125),
                           seed=5, threshold=0.3, domain_kind="l1", codomain_kind="linf",
                           restarts=3, steps=60),
         0.3,
         [dict(eps=0.5, superlevel_fraction=1.0, sup_dist=0.49950000000000006,
               lip_exact=0.9999816115787948, jac_integral=1.9533386365984657),
          dict(eps=0.125, superlevel_fraction=0.3333333333333333, sup_dist=0.1180326966445786,
               lip_exact=0.9877937551181326, jac_integral=0.7008283286168246),
          dict(eps=0.03125, superlevel_fraction=0.0, sup_dist=0.031218750000000003,
               lip_exact=1.0, jac_integral=0.1818108948941241)]),
    ], ids=["linf-l2-fast-path", "l1-linf-operator-norms"])
    def test_negative_records_are_pinned(self, config, threshold, records):
        report = ml.run_negative_experiment(config)
        assert repr(report["threshold"]) == repr(threshold)
        for got, want in zip(report["records"], records, strict=True):
            want = dict(want, boxcount=None, seed=config.seed)
            assert got.keys() == want.keys()
            for key in want:
                assert repr(got[key]) == repr(want[key]), key

    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"grid": 0}, {"grid": 1}])
    def test_bad_search_budget_is_a_precondition_error(self, budget):
        config = ml.NegativeConfig(u=np.array([1.0, 0.0]), r=0.3, eps_schedule=(0.25,),
                                   seed=0, threshold=0.3, **budget)
        with pytest.raises(PreconditionError, match="restarts >= 1 and grid >= 2"):
            ml.run_negative_experiment(config)

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
