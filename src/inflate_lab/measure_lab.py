"""Measurement harness: Lipschitz estimates, Jacobian integrals,
box-counting image measure, superlevel fractions, coverage checks, and
the positive / negative experiment drivers.

Exactness policy: quantities derived from piecewise-affine structure
(cell operator norms, cell volumes, measures of cells) are computed
exactly; everything driven by sampling (two-point Lipschitz quotients,
sup distances, box-counting) is an estimate and carries its resolution
parameters and, where available, an empirical error bound.  Planar
coverage is certified by winding number, a lower bound given the
caller's Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import combinations, product
from typing import Callable, Optional

import numpy as np

from . import normed_space as ns
from .constructions import (GluedMap, PiecewiseAffineMap, _affine_pieces, _as_batch,
                            _cell_measure_sum, _eps_scales, _node_values, _sampled_lipschitz,
                            inflate_on_set, pa_from_axis_slopes)
from .errors import NumericalFailure, PreconditionError
from .geometry import as_box, as_domain, box_measure, float_array
from .linear_analysis import LinearMap, operator_norm, operator_norm_report, vol_matrix
from .maximal_volume import checked_base_norm, max_volume
from .seeding import rng_for

_MAX_CLOUD_POINTS = 60_000_000
_MAX_RASTER_BOXES = 120_000_000


@dataclass(frozen=True)
class MeasureReport:
    quantity: str
    value: float
    resolution: dict
    seed: int
    error_bound: Optional[float] = None

    def to_json(self) -> dict:
        return asdict(self)


# -- Lipschitz estimation ----------------------------------------------------


def estimate_lipschitz(f, domain, a: ns.Norm, b: ns.Norm, pairs: int = 2000,
                       seed: int = 0) -> MeasureReport:
    """Max sampled two-point quotient; exact cell norms when available.

    The sampled maximum is _sampled_lipschitz over ``pairs`` pairs in the
    domain, always a lower bound on the true constant.  For
    piecewise-affine maps the exact per-cell operator norm maximum is
    included (it equals the true constant on convex domains); for glued
    maps the exact core values are combined with the sampled quotients
    across the blend bands.  f may be a batch or a single-point callable.
    """
    if pairs < 1:
        raise PreconditionError("need at least one sample pair")
    E = as_domain(domain)
    if E.measure() <= 0.0:
        raise PreconditionError("empty domain")
    fbatch = _as_batch(f, E.dim)
    sampled = _sampled_lipschitz(fbatch, E, a, b, seed, pairs)

    exact = None
    if isinstance(f, PiecewiseAffineMap):
        exact = f.exact_lipschitz()
    elif isinstance(f, GluedMap):
        exact = max((p.exact_lipschitz() for _, p in f.pieces()
                     if isinstance(p, PiecewiseAffineMap)), default=0.0)
    value = sampled if exact is None else max(sampled, exact)
    return MeasureReport(
        quantity="lipschitz_estimate",
        value=value,
        resolution={"pairs": pairs, "exact_cells": exact},
        seed=seed,
    )


# -- cell-measure integrals --------------------------------------------------


def jacobian_integral(g, E) -> MeasureReport:
    """Exact integral of vol g' over E: sum of cell vol times cell measure.

    For glued maps the inflated cores are summed exactly and the blend
    bands (where the map is not piecewise affine) contribute zero, so
    the value is a certified lower bound there; for plain
    piecewise-affine maps it is the exact integral.
    """
    E = as_domain(E)
    value = _cell_measure_sum(g, E, lambda vol: vol, "jacobian_integral")
    return MeasureReport(
        quantity="jacobian_integral",
        value=float(value),
        resolution={"domain_measure": E.measure()},
        seed=0,
        error_bound=0.0,
    )


def superlevel_fraction(g, E, r: float) -> MeasureReport:
    """Exact fraction of E where the cell volume meets the threshold r.

    Blend bands of glued maps count as below threshold (conservative).
    """
    E = as_domain(E)
    total = E.measure()
    if total <= 0:
        raise PreconditionError("superlevel fraction needs a positive-measure set")
    meas = _cell_measure_sum(g, E, lambda vol: vol >= r, "superlevel_fraction")
    return MeasureReport(
        quantity="superlevel_fraction",
        value=float(meas / total),
        resolution={"threshold": r, "domain_measure": total},
        seed=0,
        error_bound=0.0,
    )


# -- box-counting image measure ----------------------------------------------


# read by nothing here; perfbench/tests/test_perfbench.py still clears it by name
_CALIBRATION_CACHE: dict = {}


def _pack_keys(idx: np.ndarray) -> np.ndarray:
    """One int64 key per row of integer box indices, by shift-and-or."""
    d = idx.shape[1]
    bits = 63 // d
    off = 1 << (bits - 1)
    # two one-sided tests: np.abs(INT64_MIN), where a cast of a float past
    # int64 lands, is INT64_MIN again and would pass
    if np.any(idx >= off - 1) or np.any(idx <= 1 - off):
        raise NumericalFailure("box-count guard: image extends too far for this box size")
    key = idx[:, 0] + off
    for j in range(1, d):
        key = (key << bits) | (idx[:, j] + off)
    return key


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys, byte for byte np.unique(keys), by sort and neighbour compare.

    numpy 2's plain np.unique on int64 takes a hash-table path several
    times slower than a sort; the patch and cloud keys go through here
    instead.  _mass_from_parts keeps np.unique with return_index, which
    takes numpy's mergesort path rather than the hash path.
    """
    keys = np.sort(keys)
    keep = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _unpack_keys(keys: np.ndarray, d: int) -> np.ndarray:
    """Rows of integer box indices back from _pack_keys's keys."""
    bits = 63 // d
    off = 1 << (bits - 1)
    mask = (1 << bits) - 1
    return np.stack([((keys >> (bits * (d - 1 - j))) & mask) - off for j in range(d)], axis=1)


def _box_keys(points: np.ndarray, box_size: float) -> np.ndarray:
    return _pack_keys(np.floor(points / box_size).astype(np.int64))


def _direction_factor(cols: np.ndarray) -> float:
    """L1 mass of the unit tangent plane's coordinate minors.

    A flat n-patch with orthonormal tangent frame T occupies about
    area / s^n * sum_{axes subsets} |minor| boxes of side s; the factor
    depends only on the patch direction, so dividing it out de-biases
    tilt without consulting the patch's volume.
    """
    q, _ = np.linalg.qr(cols)
    m, n = q.shape
    total = 0.0
    for rows in combinations(range(m), n):
        total += abs(float(np.linalg.det(q[list(rows), :])))
    return total


def _spans(lo: np.ndarray, hi: np.ndarray, what: str):
    """(counts, values): the integer runs floor(lo) .. floor(hi), end to end.

    ``lo`` and ``hi`` are per-column bounds in box units.  The guard runs
    before the runs are allocated, on a float total that neither wraps nor
    passes non-finite bounds; ``what`` names the stage in its message.
    """
    first, last = np.floor(lo), np.floor(hi)
    if not float(np.sum(last - first + 1)) <= _MAX_RASTER_BOXES:
        raise NumericalFailure(f"box-count raster guard: {what} too large")
    first = first.astype(np.int64)
    counts = last.astype(np.int64) - first + 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return counts, first.repeat(counts) + (np.arange(int(counts.sum())) - np.repeat(starts, counts))


def _affine_patch_keys(cols: np.ndarray, off: np.ndarray, tbox: np.ndarray,
                       s: float) -> Optional[np.ndarray]:
    """Integer keys of every box of side s touched by {cols @ t + off : t in tbox}.

    Column scanline: project the patch onto its two (or one, for curves)
    dominant image coordinates, rasterize the footprint exactly per
    column, and span the remaining coordinates by their exact affine
    range over each column.  Exact except at footprint-boundary columns.
    Returns None for patches of rank below n (they carry no n-measure).
    """
    m, n = cols.shape
    if vol_matrix(cols) <= 1e-14:
        return None
    # idx holds one index column per coordinate of fp + rest; lo and hi
    # hold each footprint coordinate's extent over the same rows
    if n == 2:
        fp = list(max(combinations(range(m), 2), key=lambda pq: abs(
            cols[pq[0], 0] * cols[pq[1], 1] - cols[pq[0], 1] * cols[pq[1], 0])))
        corners_t = np.array([[tbox[0, 0], tbox[1, 0]], [tbox[0, 1], tbox[1, 0]],
                              [tbox[0, 1], tbox[1, 1]], [tbox[0, 0], tbox[1, 1]]])
        quad = (corners_t @ cols.T + off)[:, fp]
        _, us = _spans(quad[:, 0].min(keepdims=True) / s, quad[:, 0].max(keepdims=True) / s,
                       "footprint")
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
        counts, v = _spans(vmin[keep] / s, vmax[keep] / s, "footprint")
        idx = [us[keep].repeat(counts), v]
        lo = [xa[keep].repeat(counts), v * s]
        hi = [xb[keep].repeat(counts), v * s + s]
    else:
        fp = [int(np.argmax(np.abs(cols[:, 0])))]
        ends = np.array([tbox[0, 0], tbox[0, 1]])[:, None] * cols[:, 0][None, :] + off
        lo_x, hi_x = ends[:, fp].min(axis=0), ends[:, fp].max(axis=0)
        _, us = _spans(lo_x / s, hi_x / s, "footprint")
        idx, lo, hi = [us], [np.clip(us * s, lo_x, hi_x)], [np.clip(us * s + s, lo_x, hi_x)]

    rest = [c for c in range(m) if c not in fp]
    if rest:
        zc = cols[rest, :] @ np.linalg.inv(cols[fp, :])
        z0 = off[rest] - zc @ off[fp]
        for r in range(len(rest)):
            z_min = z_max = z0[r]
            for c, lo_d, hi_d in zip(zc[r], lo, hi):
                z_min = z_min + np.minimum(c * lo_d, c * hi_d)
                z_max = z_max + np.maximum(c * lo_d, c * hi_d)
            counts, w = _spans(z_min / s, z_max / s, "column spans")
            idx = [col.repeat(counts) for col in idx] + [w]
            if r + 1 < len(rest):
                lo = [col.repeat(counts) for col in lo]
                hi = [col.repeat(counts) for col in hi]

    order = np.argsort(fp + rest)
    return _distinct(_pack_keys(np.stack([idx[i] for i in order], axis=1)))


def _pa_boxcount_parts(pam: PiecewiseAffineMap, box_size: float, window: np.ndarray):
    """(keys, weights) of the occupied boxes of pam(window), for a box ``window``.

    When the map has at most 200,000 cells and the window is a box in t
    (PiecewiseAffineMap._segment_windows, the rule of the exact integrals
    too), each affine cell's occupied boxes are enumerated exactly by
    column scanline, weighted by the inverse direction factor of their
    cell.  Otherwise (zigzag-dense maps, or a tilted basis) the image lies
    within the stored deviation of an affine reference, which is
    rasterized over the window instead when that deviation is at most
    0.3 box; without such a reference the raster guard is raised, naming
    the cell count before the basis.
    """
    many = int(np.prod(pam.cell_shape())) > 200_000
    segments = None if many else pam._segment_windows(window)
    if segments is None:
        if pam.affine_ref is None or pam.affine_ref[2] > 0.3 * box_size:
            why = "too many cells" if many else "tilted basis"
            raise NumericalFailure(
                f"box-count raster guard: {why} and no tight affine reference")
        A_ref, off_ref, _dev = pam.affine_ref
        keys = _affine_patch_keys(A_ref, off_ref, window, box_size)
        if keys is None:
            return (np.zeros(0, dtype=np.int64), np.zeros(0))
        return keys, np.full(keys.shape, 1.0 / _direction_factor(A_ref))

    # per axis, the live segments in the window: (t-interval, slope, value at its start)
    axes = []
    for seg, curve in zip(segments, pam.curves):
        live = seg[:, 1] > seg[:, 0]
        axes.append(list(zip(seg[live], curve.rows[curve.labels[live]],
                             curve.eval_many(seg[live, 0]))))

    factors: dict = {}
    keys_parts = []
    weights_parts = []
    for cell in product(*axes):
        tbox = np.array([t for t, _, _ in cell])
        cols = np.stack([slope for _, slope, _ in cell], axis=1)
        value = sum((start for _, _, start in cell), pam.anchor_value)
        keys = _affine_patch_keys(cols, value - cols @ tbox[:, 0], tbox, box_size)
        if keys is None:
            continue
        fkey = cols.tobytes()
        if fkey not in factors:
            factors[fkey] = _direction_factor(cols)
        keys_parts.append(keys)
        weights_parts.append(np.full(keys.shape, 1.0 / factors[fkey]))

    if not keys_parts:
        return (np.zeros(0, dtype=np.int64), np.zeros(0))
    return np.concatenate(keys_parts), np.concatenate(weights_parts)


def _mass_from_parts(parts, n: int, box_size: float) -> float:
    keys = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0, dtype=np.int64)
    weights = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0)
    if keys.size == 0:
        return 0.0
    _, first = np.unique(keys, return_index=True)
    return float(np.sum(weights[first]) * box_size ** n)


def _calibration(n: int, m: int, box_size: float) -> float:
    """Raster estimator reading for the unit n-cube isometrically embedded in R^m.

    Closed form of the scanline raster: the axis-aligned cube [0, 1]^n
    touches floor(1/s) + 1 boxes per axis, each of weight 1, so the
    reading is (floor(1/s) + 1)^n s^n, bit for bit.  It raises where the
    raster does: past the box-count limit or the key range of _pack_keys.
    """
    if not 1 <= n <= m:
        raise PreconditionError(f"calibration needs 1 <= n <= m, got n = {n}, m = {m}")
    _check_box_size(box_size)
    inv = 1.0 / box_size
    if not math.isfinite(inv):
        raise NumericalFailure("box-count raster guard: footprint too large")
    last = math.floor(inv)
    if (last + 1) ** n > _MAX_RASTER_BOXES:
        raise NumericalFailure("box-count raster guard: footprint too large")
    if last >= (1 << (63 // m - 1)) - 1:
        raise NumericalFailure("box-count guard: image extends too far for this box size")
    return float((last + 1) ** n) * box_size ** n


def _check_box_size(box_size: float) -> None:
    if not 0 < box_size < math.inf:
        raise PreconditionError(f"box_size must be positive and finite, got {box_size}")


def _check_boxcount(n: int, m: int, box_size: float) -> None:
    if n > 2 or m > 4:
        raise PreconditionError("box-counting is desk-scale only: n <= 2, m <= 4")
    _check_box_size(box_size)


def boxcount_image_measure(g, E, m: int, box_size: float, lip_hint: Optional[float] = None,
                           seed: int = 0) -> MeasureReport:
    """Box-counting estimate of H^n(g(E)) in R^m.

    The image is covered by axis-aligned boxes of side box_size; each
    distinct occupied box contributes box_size^n divided by a
    direction-only tilt factor of the patch that claims it, and the
    total is normalized so the isometrically embedded unit n-cube reads
    exactly 1 at the same settings.  Piecewise-affine and glued maps are
    rasterized piece by piece on the part of E inside each piece's
    domain (see _affine_pieces); for glued maps that leaves out the
    blend bands, making the value a lower bound there.  Other maps are
    sampled on a point cloud over the cells of E, spaced
    box_size / (2 lip_hint); without lip_hint, the Euclidean
    _sampled_lipschitz of g on E stands in.  The
    reported error bound is empirical, from calibration behaviour; both
    over- and under-counting are possible at patch boundaries and
    overlaps.
    """
    E = as_domain(E)
    n = E.dim
    _check_boxcount(n, m, box_size)
    if isinstance(g, (PiecewiseAffineMap, GluedMap)):
        parts = [_pa_boxcount_parts(pam, box_size, window)
                 for pam, windows in _affine_pieces(g, E, "box counting")
                 for window in windows]
        raw = _mass_from_parts(parts, n, box_size)
        method = "raster" if isinstance(g, PiecewiseAffineMap) else "raster-cores"
    else:
        fbatch = _as_batch(g, n)
        boxes = E.cell_boxes  # none for an empty GridSubset, whose image has measure 0
        raw = 0.0 if len(boxes) == 0 else _cloud_boxcount(
            fbatch, boxes, n, box_size, lip_hint if lip_hint is not None else
            _sampled_lipschitz(fbatch, E, ns.euclidean(n), ns.euclidean(m), seed))
        method = "cloud"
    cal = _calibration(n, m, box_size)
    value = raw / cal
    err = 0.03 * value + box_size if method != "cloud" else 0.12 * value + box_size
    return MeasureReport(
        quantity="hausdorff_boxcount",
        value=float(value),
        resolution={"box_size": box_size, "method": method, "calibration": cal},
        seed=seed,
        error_bound=float(err),
    )


def _cloud_boxcount(fbatch: Callable, boxes: np.ndarray, n: int, box_size: float,
                    lip: float) -> float:
    """Plain sample-cloud box count over a union of boxes, for maps without affine structure."""
    spacing = box_size / (2.0 * max(lip, 1e-9))
    grids = [[np.linspace(lo, hi, max(int(math.ceil((hi - lo) / spacing)) + 1, 2))
              for lo, hi in box] for box in boxes]
    total_pts = sum(int(np.prod([len(ax) for ax in axes])) for axes in grids)
    if total_pts > _MAX_CLOUD_POINTS:
        raise NumericalFailure(f"box-count cloud guard: {total_pts} sample points")
    seen = []
    for axes in grids:
        if n == 1:
            img = fbatch(axes[0][:, None])
            seen.append(_distinct(_box_keys(img, box_size)))
            continue
        rest = np.meshgrid(*axes[1:], indexing="ij")
        rest = np.stack([g.ravel() for g in rest], axis=1)
        rows = max(1, 2_000_000 // max(1, rest.shape[0]))
        for start in range(0, len(axes[0]), rows):
            block = axes[0][start:start + rows]
            pts = np.concatenate(
                [np.repeat(block, rest.shape[0])[:, None],
                 np.tile(rest, (block.shape[0], 1))], axis=1)
            seen.append(_distinct(_box_keys(fbatch(pts), box_size)))
    count = _distinct(np.concatenate(seen)).size
    return count * box_size ** n


# -- planar coverage check ---------------------------------------------------


def coverage_check(g, radius: float, target_radius: float, grid: float,
                   lip_hint: float = 3.0) -> MeasureReport:
    """Fraction of the target disc grid certified to lie in g(B(0, radius)), by degree.

    g is evaluated once, on a ring of N = ceil(4 pi radius lip_hint / s)
    points of the boundary circle, s = grid / 4.  If lip_hint bounds the
    Lipschitz constant of g, every edge of the closed polygon P through
    the ring images is at most s / 2 long and P lies within
    lip_hint * arc / 2 <= s / 4 of g(circle), so the straight homotopy
    between them misses any point q farther than s / 4 from P, and a
    nonzero winding number of P around q puts q in g(B) (degree theory).
    The winding numbers of an s-spaced lattice over the target window come
    from signed edge crossings per lattice row and one cumulative sum.  A
    lattice point is certified when its winding number is nonzero and its
    s-cell lies outside the 3 x 3 dilation of the ring vertices' cells;
    such a point is at least 3 s / 4 from P.  A target grid point counts
    as covered when a certified point lies in its 3 x 3 block of grid
    cells.  The value is a certified lower bound given lip_hint; the ring's
    own chord quotients must not exceed it.
    """
    if radius <= 0 or target_radius <= 0 or grid <= 0 or lip_hint <= 0:
        raise PreconditionError("radii, grid and lip_hint must be positive")
    targets, covered, ring_count = _certified_targets(g, radius, target_radius, grid, lip_hint)
    return MeasureReport(
        quantity="coverage_ratio",
        value=float(np.mean(covered)) if targets.size else 1.0,
        resolution={"grid": grid, "radius": radius, "target_radius": target_radius,
                    "targets": int(targets.shape[0]), "ring": ring_count},
        seed=0,
        error_bound=None,
    )


def _certified_targets(g, radius: float, target_radius: float, grid: float,
                       lip_hint: float):
    """coverage_check's targets, which of them are covered, and the ring's size."""
    s = grid / 4.0
    ring_count = 4.0 * math.pi * radius * lip_hint / s
    half = target_radius / grid
    # the lattice is at most 4 (2 half + 4) points on a side
    if not (ring_count <= _MAX_CLOUD_POINTS and (8.0 * half + 16.0) ** 2 <= _MAX_RASTER_BOXES):
        raise NumericalFailure("coverage ring guard")
    ring_count = max(math.ceil(ring_count), 3)
    # grid cells of the targets' 3 x 3 blocks, 4 x 4 lattice points to a cell
    c_lo = math.floor(-half) - 1
    nc = math.floor(half) + 2 - c_lo
    side, lo = 4 * nc, 4 * c_lo

    theta = 2.0 * math.pi * np.arange(ring_count) / ring_count
    ring = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    img = _as_batch(g, 2)(ring)
    if img.shape[1] != 2:
        raise PreconditionError("coverage_check is planar: map must land in R^2")
    nxt = np.roll(img, -1, axis=0)
    quotient = np.max(np.linalg.norm(nxt - img, axis=1)
                      / np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1))
    if not quotient <= lip_hint * (1.0 + 1e-9):
        raise PreconditionError(
            f"coverage ring chord quotient {quotient:.6g} exceeds lip_hint {lip_hint}")
    cells = _unpack_keys(_box_keys(img, s), 2)

    # winding numbers: an edge crossing lattice row y_j (half-open in y) adds
    # its sign to every lattice point right of the crossing; an edge is at
    # most s / 2 long, so only the rows floor(low end / s) and the next can meet it
    rows = np.floor(np.minimum(img[:, 1], nxt[:, 1]) / s).astype(np.int64)
    crossings = np.zeros((side, side + 1), dtype=np.int32)
    for j in (rows, rows + 1):
        y = j * s
        up = (img[:, 1] <= y) & (y < nxt[:, 1])
        down = (nxt[:, 1] <= y) & (y < img[:, 1])
        hit = (up | down) & (j >= lo) & (j < lo + side)
        a, b, yh = img[hit], nxt[hit], y[hit]
        x = a[:, 0] + (yh - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
        col = np.clip(np.floor(x / s).astype(np.int64) + 1 - lo, 0, side)
        np.add.at(crossings, (j[hit] - lo, col), np.where(up[hit], 1, -1).astype(np.int32))
    certified = np.cumsum(crossings, axis=1, dtype=np.int32)[:, :side] != 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            ix, iy = cells[:, 0] + dx - lo, cells[:, 1] + dy - lo
            keep = (ix >= 0) & (ix < side) & (iy >= 0) & (iy < side)
            certified[iy[keep], ix[keep]] = False
    cell_ok = certified.reshape(nc, 4, nc, 4).any(axis=(1, 3))

    t_ax = np.arange(-target_radius, target_radius + grid, grid)
    TX, TY = np.meshgrid(t_ax, t_ax, indexing="ij")
    targets = np.stack([TX.ravel(), TY.ravel()], axis=1)
    targets = targets[np.linalg.norm(targets, axis=1) <= target_radius]
    base_idx = np.floor(targets / grid).astype(np.int64) - c_lo
    covered = np.zeros(targets.shape[0], dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            covered |= cell_ok[base_idx[:, 1] + dy, base_idx[:, 0] + dx]
    return targets, covered, ring_count


# -- experiment drivers ------------------------------------------------------


def map_from_descriptor(desc: dict, n: int, m: int) -> Callable:
    """Build a batch callable from a serializable map description."""
    kind = desc.get("kind")
    if kind == "zero":
        return lambda xs: np.zeros((xs.shape[0], m))
    if kind == "affine":
        if "linear" not in desc:
            raise PreconditionError("affine descriptor needs a linear part")
        M = float_array(desc["linear"], "affine linear part", (m, n))
        c = float_array(desc.get("offset", np.zeros(m)), "affine offset", (m,))
        return lambda xs: xs @ M.T + c
    raise PreconditionError(f"unknown map descriptor kind {kind!r}")


@dataclass(frozen=True)
class PositiveConfig:
    box: np.ndarray
    m: int
    f: dict                       # map descriptor
    eta: float
    lam: float
    eps_schedule: tuple
    seed: int
    run_boxcount: bool = False
    box_size: float = 1e-3
    domain_kind: str | dict = "euclidean"  # a norm_from_json "kind"
    codomain_kind: str | dict = "euclidean"


def run_positive_experiment(config: PositiveConfig) -> dict:
    """Inflate toward the target for each eps; one record per eps."""
    box = as_box(config.box)
    n = box.shape[0]
    if box_measure(box) <= 0.0:
        raise PreconditionError("the positive experiment needs a box of positive measure")
    a = ns.norm_from_json({"dim": n, "kind": config.domain_kind})
    b = ns.norm_from_json({"dim": config.m, "kind": config.codomain_kind})
    fbatch = map_from_descriptor(config.f, n, config.m)
    # Lip(f) of a descriptor is exact: 0, or ||M||_{a->b}
    f_lip = 0.0 if config.f["kind"] == "zero" else operator_norm(
        LinearMap(config.f["linear"], a, b))
    if config.run_boxcount and config.m > n:
        _check_boxcount(n, config.m, config.box_size)
    for eps in config.eps_schedule:  # the whole schedule, before the first build
        if not eps > 0:
            raise PreconditionError(f"eps must be positive, got {eps}")
    records = []
    last = None  # (scales, report, boxcount) of the last build
    for eps in config.eps_schedule:
        # eps reaches the build only through its scales: an eps with the
        # last one's scales reuses that build's report and box count
        scales = _eps_scales(fbatch, box, b, config.eta, float(eps), f_lip, config.seed)
        if last is None or last[0] != scales:
            glued, rep = inflate_on_set(fbatch, box, a, b, config.lam, float(eps),
                                        config.eta, config.seed, f_lip=f_lip)
            boxcount = None
            if config.run_boxcount and config.m > n:
                boxcount = boxcount_image_measure(glued, box, config.m, config.box_size).value
            del glued  # hold no construction while the next eps builds
            last = (scales, rep, boxcount)
        _, rep, boxcount = last
        records.append({
            "eps": float(eps),
            "sup_dist": rep.sup_distance,
            "lip_exact": rep.lip_cells_exact,
            "lip_glue_bound": rep.lip_glue_bound,
            "jac_integral": rep.achieved_integral,
            "target": rep.target_integral,
            "boxcount": boxcount,
            "superlevel_fraction": None,
            "seed": config.seed,
        })
    return {"experiment": "positive", "config": _config_json(config), "records": records}


@dataclass(frozen=True)
class NegativeConfig:
    u: np.ndarray
    r: float
    eps_schedule: tuple
    seed: int
    domain_kind: str | dict = "linf"  # norm_from_json "kind" on R^n (the cube [-1,1]^n domain)
    codomain_kind: str | dict = "euclidean"
    n: int = 2
    m: int = 2
    grid: int = 6
    restarts: int = 16
    steps: int = 200
    control: bool = False          # run the inflating control pipeline instead
    threshold: Optional[float] = None  # defaults to mv(u) + r


def run_negative_experiment(config: NegativeConfig) -> dict:
    """Adversarial superlevel search along a shrinking eps schedule.

    For each eps the searcher looks for a piecewise-affine g with
    ||g - (u|0)||_inf <= eps and exact per-cell Lipschitz norm at most 1
    maximizing the fraction of the cube where vol g' clears the
    threshold mv(u) + r.  Achieved fractions are searcher lower bounds
    of the true maxima.  The searches of all eps run in one batch (one
    _adversarial_search call, seed + 1000 i for eps i), with the same
    records as one search per eps.  With ``control`` set, the map is
    produced by the inflation pipeline instead (the contrast case where
    the fraction stays high), one eps at a time.  The control inflates
    at lambda = 1, which only a Euclidean domain and codomain reach, so
    it needs both and a threshold below 1, the largest volume of a
    Euclidean contraction; anything else is refused before any build.
    """
    a = ns.norm_from_json({"dim": config.n, "kind": config.domain_kind})
    b = ns.norm_from_json({"dim": config.m, "kind": config.codomain_kind})
    if config.control and not (ns._is_euclidean(a) and ns._is_euclidean(b)):
        raise PreconditionError("the control inflates at lambda = 1 and needs a Euclidean "
                                "domain and codomain")
    if not config.control and config.n != 2:
        raise PreconditionError("the adversarial searcher is implemented for n = 2")
    if config.restarts < 1 or config.grid < 2:
        raise PreconditionError("need restarts >= 1 and grid >= 2")
    if not all(0 < eps < math.inf for eps in config.eps_schedule):
        raise PreconditionError("every eps in eps_schedule must be positive and finite")
    for name in ("r", "threshold"):
        if getattr(config, name) is not None and math.isnan(getattr(config, name)):
            raise PreconditionError(f"{name} must be a number, got NaN")
    u = float_array(config.u, "u", (config.m,))
    checked_base_norm(u, a, b)
    if config.threshold is not None:
        threshold = float(config.threshold)
    else:
        mv = max_volume(u, a, b, restarts=8, seed=config.seed)
        threshold = mv.value + config.r
    if config.control and not threshold < 1.0:
        raise PreconditionError("the control threshold must be below 1, the largest volume "
                                f"of a Euclidean contraction, got {threshold}")

    box = np.stack([-np.ones(config.n), np.ones(config.n)], axis=1)
    if not config.control:
        searched = _adversarial_search(
            a, b, u, config.eps_schedule, threshold, config.grid, config.restarts,
            config.steps, [config.seed + 1000 * i for i in range(len(config.eps_schedule))])
    M = np.concatenate([u[:, None], np.zeros((config.m, config.n - 1))], axis=1)  # (u|0)
    records = []
    for i, eps in enumerate(config.eps_schedule):
        if config.control:
            glued = None  # free the last eps's construction before building the next
            glued, rep = inflate_on_set(lambda xs: xs @ M.T, box, a, b, 1.0, float(eps), 0.9,
                                        seed=config.seed + i, f_lip=1.0)
            frac = superlevel_fraction(glued, box, threshold).value
            sup, lip, jac = rep.sup_distance, rep.lip_cells_exact, rep.achieved_integral
        else:
            frac, best = searched[i]
            sup, lip = _exact_sup_dist(best, u), best.declared_lip
            jac = jacobian_integral(best, box).value
        records.append({"eps": float(eps), "superlevel_fraction": frac, "sup_dist": sup,
                        "lip_exact": lip, "jac_integral": jac, "boxcount": None,
                        "seed": config.seed})
    return {
        "experiment": "negative",
        "threshold": threshold,
        "config": _config_json(config),
        "records": records,
    }


def _config_json(config) -> dict:
    data = asdict(config)
    for key, value in list(data.items()):
        if isinstance(value, np.ndarray):
            data[key] = value.tolist()
        elif isinstance(value, tuple):
            data[key] = list(value)
    return data


# -- the adversarial searcher --------------------------------------------------


def _separable_map(u: np.ndarray, slopes: np.ndarray, a: ns.Norm,
                   b: ns.Norm) -> PiecewiseAffineMap:
    """The separable PA map on the cube with per-axis per-segment slopes (n, k, m)."""
    n, k, m = slopes.shape
    box = np.stack([-np.ones(n), np.ones(n)], axis=1)
    return pa_from_axis_slopes(box, [np.linspace(-1.0, 1.0, k + 1)] * n, list(slopes),
                               _anchors(u, n), np.zeros(m), a, b)


def _anchors(u: np.ndarray, n: int) -> np.ndarray:
    # direction 1 tracks t * u from t = -1; others start at 0
    anchors = np.zeros((n, u.shape[0]))
    anchors[0] = -1.0 * u
    return anchors


def _cell_norms_linf_to_l2(slopes: np.ndarray) -> np.ndarray:
    """Exact worst cell norm per candidate of an (R, 2, k, m) stack, cube to Euclidean."""
    s1, s2 = slopes[:, 0, :, None, :], slopes[:, 1, None, :, :]
    return np.sqrt(np.maximum(np.max(np.sum((s1 + s2) ** 2, axis=-1), axis=(1, 2)),
                              np.max(np.sum((s1 - s2) ** 2, axis=-1), axis=(1, 2))))


def _cell_vols(slopes: np.ndarray) -> np.ndarray:
    """Cell volumes (R, k, k) of each candidate of an (R, 2, k, m) stack."""
    s1, s2 = slopes[:, 0], slopes[:, 1]
    if s1.shape[-1] == 2:
        return np.abs(s1[:, :, None, 0] * s2[:, None, :, 1]
                      - s1[:, :, None, 1] * s2[:, None, :, 0])
    g11 = np.sum(s1 ** 2, axis=-1)
    g22 = np.sum(s2 ** 2, axis=-1)
    g12 = s1 @ s2.transpose(0, 2, 1)
    return np.sqrt(np.clip(g11[:, :, None] * g22[:, None, :] - g12 ** 2, 0.0, None))


def _sup_dist_nodes(slopes: np.ndarray, breaks: np.ndarray, u: np.ndarray,
                    b: ns.Norm) -> np.ndarray:
    """Exact sup of ||g - (u|0)||_b over the cube (attained at cell corners), per candidate."""
    R, n, _, m = slopes.shape
    vals = _node_values(breaks, slopes, _anchors(u, n))
    dev0 = vals[:, 0] - breaks[:, None] * u
    total = dev0[:, :, None, :] + vals[:, 1, None, :, :]
    return np.max(ns._eval_many(b, total.reshape(-1, m)).reshape(R, -1), axis=1)


def _exact_sup_dist(pam: PiecewiseAffineMap, u: np.ndarray) -> float:
    """Exact sup of ||pam - (u|0)|| in the map's codomain norm, over its cell corners."""
    corners = [c.breakpoints for c in pam.curves]
    mesh = np.meshgrid(*corners, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    target = pts[:, :1] * u[None, :]
    return float(np.max(ns._eval_many(pam.codomain_norm, pam.eval_many(pts) - target)))


def _adversarial_search(a: ns.Norm, b: ns.Norm, u: np.ndarray, schedule, threshold: float,
                        k: int, restarts: int, steps: int, seeds) -> list:
    """Coordinate-perturbation ascent over per-segment slope vectors, one search per eps.

    Returns one (fraction, map) per eps of ``schedule``; search i runs
    ``restarts`` candidates from the streams of ``seeds[i]``.  Projection
    keeps a candidate admissible: a global slope rescale enforces the
    exact worst-cell operator norm <= 1, and a convex blend toward the
    baseline (u|0) enforces the exact sup-distance <= eps (both
    constraints are convex along the blend).

    All searches run as one (len(schedule) * restarts, n, k, m) slope
    stack, one kernel call per stage and step; each row carries its own
    eps (start noise, first step, projection cap) and step size.  Row
    (i, r) draws from its own stream rng_for(seeds[i], 8088, r), at the
    step that uses the draw and in the order of a single-restart loop,
    so no array grows with the step count; the largest are a step's
    rows * k^2 cells (m x 2 each, times the domain ball's vertex count on
    the operator_norm_report path).  No draw depends on the ascent, every
    stage is elementwise or reduces within one row, and a row that has
    stopped is never accepted again, so each search's result does not
    depend on batching.
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.size == 0:
        return []
    n, m = a.dim, b.dim
    # the same cell norms in closed form; operator_norm_report's vertex path runs the
    # negative benchmark jobs 1.3-1.8x slower (batched searches, 2-core host)
    fast_norms = n == 2 and a.kind == "lp" and a.p == math.inf and ns._is_euclidean(b)
    seg_len = 2.0 / k
    breaks = np.linspace(-1.0, 1.0, k + 1)
    base = np.zeros((n, k, m))
    base[0] = u
    eps = np.repeat(schedule, restarts)
    restart = np.tile(np.arange(restarts), schedule.size)
    rows = np.arange(eps.size)
    rngs = [rng_for(seed, 8088, r) for seed in seeds for r in range(restarts)]

    start = np.repeat(base[None], eps.size, axis=0)
    for j in np.flatnonzero(restart > 0):
        for d in range(n):
            start[j, d] += rngs[j].standard_normal((k, m)) * (0.3 * eps[j] / seg_len)

    def worst_norm(S: np.ndarray) -> np.ndarray:
        if fast_norms:
            return _cell_norms_linf_to_l2(S)
        cols = np.broadcast_arrays(S[:, 0, :, None, :], S[:, 1, None, :, :])
        cells = np.stack(cols, axis=-1).reshape(-1, m, 2)
        return np.max(operator_norm_report(cells, a, b).values.reshape(len(S), -1), axis=1)

    def project(S: np.ndarray) -> np.ndarray:
        w = worst_norm(S)
        S = S / np.where(w > 1.0, w, 1.0)[:, None, None, None]
        sup = _sup_dist_nodes(S, breaks, u, b)
        over = sup > eps
        psi = 0.999 * eps / np.where(over, sup, 1.0)
        return np.where(over[:, None, None, None], base + psi[:, None, None, None] * (S - base), S)

    def score(S: np.ndarray):
        vols = _cell_vols(S).reshape(len(S), -1)
        frac = np.mean(vols >= threshold, axis=1)
        guide = np.mean(np.minimum(vols / max(threshold, 1e-12), 1.0), axis=1)
        return frac + 1e-3 * guide, frac

    # restart 0 of each search starts at the baseline itself, unprojected
    cand = np.where((restart > 0)[:, None, None, None], project(start), start)
    s_best, _ = score(cand)
    step = np.maximum(eps / seg_len, 0.05)
    active = np.ones(eps.size, dtype=bool)
    axes = np.zeros(eps.size, dtype=np.intp)
    segs = np.zeros(eps.size, dtype=np.intp)
    kicks = np.zeros((eps.size, m))
    for _ in range(max(steps, 0)):
        # a stopped row keeps its last draw: its trial is never accepted
        for j in np.flatnonzero(active):
            rng = rngs[j]
            axes[j] = rng.integers(0, n)
            segs[j] = rng.integers(0, k)
            rng.standard_normal(out=kicks[j])
        trial = cand.copy()
        trial[rows, axes, segs] += kicks * step[:, None]
        trial = project(trial)
        s_new, _ = score(trial)
        accept = active & (s_new > s_best)
        cand = np.where(accept[:, None, None, None], trial, cand)
        s_best = np.where(accept, s_new, s_best)
        reject = active & ~accept
        step = np.where(reject, step * 0.985, step)
        active &= ~(reject & (step < 1e-6))
        if not active.any():
            break
    _, fracs = score(cand)
    # each search's first best restart; fractions are multiples of 1/k^2, so ties are exact
    best = rows[::restarts] + np.argmax(fracs.reshape(schedule.size, restarts), axis=1)
    return [(float(fracs[j]), _separable_map(u, cand[j], a, b)) for j in best]


# -- report output -------------------------------------------------------------


CSV_FIELDS = ["eps", "sup_dist", "lip_exact", "jac_integral", "boxcount",
              "superlevel_fraction"]


def records_to_csv(records: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        _write_records_csv(records, fh)


def _write_records_csv(records: list, fh) -> None:
    """CSV_FIELDS header and one row per record, to an open text handle."""
    import csv

    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for rec in records:
        writer.writerow({key: rec.get(key) for key in CSV_FIELDS})
