"""Measurement harness: Lipschitz estimates, Jacobian integrals,
box-counting image measure, superlevel fractions, coverage checks, and
the positive / negative experiment drivers.

Exactness policy: quantities derived from piecewise-affine structure
(cell operator norms, cell volumes, measures of cells) are computed
exactly; everything driven by sampling (two-point Lipschitz quotients,
sup distances, box-counting) is an estimate and carries its resolution
parameters and, where available, an empirical error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional

import numpy as np

from . import normed_space as ns
from .constructions import (GluedMap, PiecewiseAffineMap, _as_batch, _node_values,
                            batch_call, inflate_on_set, pa_from_axis_slopes)
from .errors import NumericalFailure, PreconditionError
from .geometry import (GridSubset, as_box, box_overlap, domain_box, domain_measure,
                       sample_box)
from .linear_analysis import LinearMap, operator_norm, operator_norm_report, vol_matrix
from .maximal_volume import max_volume
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

    The sampled maximum is always a lower bound on the true constant.
    For piecewise-affine maps the exact per-cell operator norm maximum
    is included (it equals the true constant on convex domains); for
    glued maps the exact core values are combined with the sampled
    quotients across the blend bands.
    """
    box = domain_box(domain)
    if pairs < 1:
        raise PreconditionError("need at least one sample pair")
    if domain_measure(domain) <= 0.0:
        raise PreconditionError("empty domain")
    fbatch = _as_batch(f, box.shape[0])
    rng = rng_for(seed, 51)
    if isinstance(domain, GridSubset):
        pts = []
        occupied = list(domain.cells())
        for k in range(pairs):
            _, cell = occupied[int(rng.integers(0, len(occupied)))]
            pts.append(sample_box(cell, 2, rng))
        xs = np.concatenate([p[:1] for p in pts], axis=0)
        ys = np.concatenate([p[1:] for p in pts], axis=0)
    else:
        xs = sample_box(box, pairs, rng)
        ys = sample_box(box, pairs, rng)
    diam = float(ns.norm_eval(a, box[:, 1] - box[:, 0]))
    near = xs + (ys - xs) * (1e-4 * diam / np.maximum(
        ns._eval_many(a, ys - xs), 1e-300))[:, None]
    xs = np.concatenate([xs, xs], axis=0)
    ys = np.concatenate([ys, near], axis=0)
    da = ns._eval_many(a, xs - ys)
    keep = da > 1e-14
    quot = ns._eval_many(b, batch_call(fbatch, xs[keep]) - batch_call(fbatch, ys[keep])) / da[keep]
    sampled = float(np.max(quot)) if quot.size else 0.0

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


def _cell_measure_sum(g, E, weight: Callable, what: str) -> float:
    """Exact sum over cells of weight(cell vol) times the cell's measure inside E.

    For glued maps only the inflated cores are summed; the blend bands,
    where the map is not piecewise affine, contribute zero.
    """
    boxes = [cell for _, cell in E.cells()] if isinstance(E, GridSubset) else [as_box(E)]
    if isinstance(g, PiecewiseAffineMap):
        parts = [(g, boxes)]
    elif isinstance(g, GluedMap):
        parts = []
        for core, piece in g.pieces():
            if not isinstance(piece, PiecewiseAffineMap):
                raise PreconditionError("glued map pieces must be piecewise affine")
            core_box = as_box(core)
            clipped = []
            for box in boxes:
                lo = np.maximum(box[:, 0], core_box[:, 0])
                hi = np.minimum(box[:, 1], core_box[:, 1])
                if np.all(hi > lo):
                    clipped.append(np.stack([lo, hi], axis=1))
            if clipped:
                parts.append((piece, clipped))
    else:
        raise PreconditionError(f"{what} needs a piecewise-affine or glued map")
    total = 0.0
    for pam, pam_boxes in parts:
        if pam.constant_cell_vol is not None:
            overlap = sum(box_overlap(box, pam.domain) for box in pam_boxes)
            total += weight(pam.constant_cell_vol) * overlap
            continue
        if not pam.identity_basis:
            raise PreconditionError(
                f"exact {what} needs identity basis or constant cell volume")
        weights = weight(pam.cell_vol_table())
        for box in pam_boxes:
            measure = 1.0
            for d, curve in enumerate(pam.curves):
                b = curve.breakpoints
                lo = np.maximum(b[:-1], box[d, 0])
                hi = np.minimum(b[1:], box[d, 1])
                measure = np.multiply.outer(measure, np.clip(hi - lo, 0.0, None))
            total += float(np.sum(weights * measure))
    return total


def jacobian_integral(g, E) -> MeasureReport:
    """Exact integral of vol g' over E: sum of cell vol times cell measure.

    For glued maps the inflated cores are summed exactly and the blend
    bands (where the map is not piecewise affine) contribute zero, so
    the value is a certified lower bound there; for plain
    piecewise-affine maps it is the exact integral.
    """
    value = _cell_measure_sum(g, E, lambda vol: vol, "jacobian_integral")
    return MeasureReport(
        quantity="jacobian_integral",
        value=float(value),
        resolution={"domain_measure": domain_measure(E)},
        seed=0,
        error_bound=0.0,
    )


def superlevel_fraction(g, E, r: float) -> MeasureReport:
    """Exact fraction of E where the cell volume meets the threshold r.

    Blend bands of glued maps count as below threshold (conservative).
    """
    total = domain_measure(E)
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
    if np.any(np.abs(idx) >= off - 1):
        raise NumericalFailure("box-count guard: image extends too far for this box size")
    key = idx[:, 0] + off
    for j in range(1, d):
        key = (key << bits) | (idx[:, j] + off)
    return key


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys, byte for byte np.unique(keys), by sort and neighbour compare.

    numpy 2's plain np.unique on int64 takes a hash-table path several
    times slower than a sort; every box-key path goes through here instead.
    """
    keys = np.sort(keys)
    keep = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _box_keys(points: np.ndarray, box_size: float) -> np.ndarray:
    return _pack_keys(np.floor(points / box_size).astype(np.int64))


def _raster_columns(lo_x: float, hi_x: float, s: float) -> np.ndarray:
    """Column indices floor(lo_x / s) .. floor(hi_x / s), guarded before allocating."""
    a, b = lo_x / s, hi_x / s
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericalFailure("box-count raster guard: footprint too large")
    u_lo, u_hi = math.floor(a), math.floor(b)
    if u_hi - u_lo + 1 > _MAX_RASTER_BOXES:
        raise NumericalFailure("box-count raster guard: footprint too large")
    return np.arange(u_lo, u_hi + 1)


def _direction_factor(cols: np.ndarray) -> float:
    """L1 mass of the unit tangent plane's coordinate minors.

    A flat n-patch with orthonormal tangent frame T occupies about
    area / s^n * sum_{axes subsets} |minor| boxes of side s; the factor
    depends only on the patch direction, so dividing it out de-biases
    tilt without consulting the patch's volume.
    """
    q, _ = np.linalg.qr(cols)
    m, n = q.shape
    from itertools import combinations

    total = 0.0
    for rows in combinations(range(m), n):
        total += abs(float(np.linalg.det(q[list(rows), :])))
    return total


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
    from itertools import combinations

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
        us = _raster_columns(quad[:, 0].min(), quad[:, 0].max(), s)
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
        if total > _MAX_RASTER_BOXES:
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
        us = _raster_columns(lo_x, hi_x, s)
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
            if total > _MAX_RASTER_BOXES:
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

    return _distinct(_pack_keys(np.stack([idx_cols[c] for c in range(m)], axis=1)))


def _pa_boxcount_parts(pam: PiecewiseAffineMap, box_size: float,
                       x_window: Optional[np.ndarray] = None):
    """(keys, weights) of occupied boxes of the image of a separable PA map.

    Each affine cell's occupied boxes are enumerated exactly by column
    scanline, weighted by the inverse direction factor of their cell.
    For zigzag-dense maps (huge cell counts) the image lies within the
    stored deviation of an affine reference, which is rasterized instead
    when that deviation is far below one box.
    """
    n, m = pam.n, pam.m
    window = pam.domain if x_window is None else as_box(x_window)

    if int(np.prod([c.segment_count for c in pam.curves])) > 200_000:
        if pam.affine_ref is None or pam.affine_ref[2] > 0.3 * box_size:
            raise NumericalFailure(
                "box-count raster guard: too many cells and no tight affine reference")
        A_ref, off_ref, _dev = pam.affine_ref
        keys = _affine_patch_keys(A_ref, off_ref, window, box_size)
        if keys is None:
            return (np.zeros(0, dtype=np.int64), np.zeros(0))
        return keys, np.full(keys.shape, 1.0 / _direction_factor(A_ref))

    # t-range of the window (bounding parallelepiped when the basis is tilted)
    T = pam.coord_map
    t_window = np.empty((n, 2))
    for d in range(n):
        row = T[d, :]
        t_window[d, 0] = float(np.minimum(row * window[:, 0], row * window[:, 1]).sum())
        t_window[d, 1] = float(np.maximum(row * window[:, 0], row * window[:, 1]).sum())

    factor_cache: dict = {}

    def factor_for(cols: np.ndarray) -> float:
        key = cols.tobytes()
        if key not in factor_cache:
            factor_cache[key] = _direction_factor(cols)
        return factor_cache[key]

    keys_parts = []
    weights_parts = []
    curve_axes = []
    for d in range(n):
        b = pam.curves[d].breakpoints
        lo = int(np.clip(np.searchsorted(b, t_window[d, 0], side="right") - 1,
                         0, pam.curves[d].segment_count - 1))
        hi = int(np.clip(np.searchsorted(b, t_window[d, 1], side="left") - 1,
                         0, pam.curves[d].segment_count - 1))
        curve_axes.append((b, lo, hi))

    from itertools import product as iproduct

    ranges = [range(lo, hi + 1) for _, lo, hi in curve_axes]
    for index in iproduct(*ranges):
        tbox = np.empty((n, 2))
        skip = False
        for d in range(n):
            b, _, _ = curve_axes[d]
            a_t = max(float(b[index[d]]), float(t_window[d, 0]))
            b_t = min(float(b[index[d] + 1]), float(t_window[d, 1]))
            if b_t <= a_t:
                skip = True
                break
            tbox[d] = (a_t, b_t)
        if skip:
            continue
        cols = np.stack([pam.curves[d].slopes[index[d]] for d in range(n)], axis=1)
        corner_t = tbox[:, 0]
        value = pam.anchor_value.copy()
        for d in range(n):
            value = value + pam.curves[d].eval_many(np.array([corner_t[d]]))[0]
        cell_off = value - cols @ corner_t
        keys = _affine_patch_keys(cols, cell_off, tbox, box_size)
        if keys is None:
            continue
        keys_parts.append(keys)
        weights_parts.append(np.full(keys.shape, 1.0 / factor_for(cols)))

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


def _pa_boxcount_weighted(pam: PiecewiseAffineMap, box_size: float,
                          x_window: Optional[np.ndarray] = None) -> float:
    return _mass_from_parts([_pa_boxcount_parts(pam, box_size, x_window)],
                            pam.n, box_size)


def _glued_boxcount(glued: GluedMap, box_size: float) -> float:
    """Core-piece rasterization; blend bands contribute nothing (lower bound)."""
    parts = []
    n = 1
    for core, piece in glued.pieces():
        if not isinstance(piece, PiecewiseAffineMap):
            raise PreconditionError("glued map pieces must be piecewise affine")
        n = piece.n
        parts.append(_pa_boxcount_parts(piece, box_size, x_window=as_box(core)))
    return _mass_from_parts(parts, n, box_size)


def _calibration(n: int, m: int, box_size: float) -> float:
    """Raster estimator reading for the unit n-cube isometrically embedded in R^m.

    Closed form of the scanline raster: the axis-aligned cube [0, 1]^n
    touches floor(1/s) + 1 boxes per axis, each of weight 1, so the
    reading is (floor(1/s) + 1)^n s^n, bit for bit.  It raises where the
    raster does: past the box-count limit or the key range of _pack_keys.
    """
    if not 1 <= n <= m:
        raise PreconditionError(f"calibration needs 1 <= n <= m, got n = {n}, m = {m}")
    inv = 1.0 / box_size
    if not math.isfinite(inv):
        raise NumericalFailure("box-count raster guard: footprint too large")
    last = math.floor(inv)
    if (last + 1) ** n > _MAX_RASTER_BOXES:
        raise NumericalFailure("box-count raster guard: footprint too large")
    if last >= (1 << (63 // m - 1)) - 1:
        raise NumericalFailure("box-count guard: image extends too far for this box size")
    return float((last + 1) ** n) * box_size ** n


def boxcount_image_measure(g, E, m: int, box_size: float, lip_hint: Optional[float] = None,
                           seed: int = 0) -> MeasureReport:
    """Box-counting estimate of H^n(g(E)) in R^m.

    The image is covered by axis-aligned boxes of side box_size; each
    distinct occupied box contributes box_size^n divided by a
    direction-only tilt factor of the patch that claims it, and the
    total is normalized so the isometrically embedded unit n-cube reads
    exactly 1 at the same settings.  For glued maps only the inflated
    cores are rasterized, making the value a lower bound there.  The
    reported error bound is empirical, from calibration behaviour; both
    over- and under-counting are possible at patch boundaries and
    overlaps.
    """
    box = domain_box(E)
    n = box.shape[0]
    if n > 2 or m > 4:
        raise PreconditionError("box-counting is desk-scale only: n <= 2, m <= 4")
    if box_size <= 0:
        raise PreconditionError("box_size must be positive")
    if isinstance(g, PiecewiseAffineMap):
        raw = _pa_boxcount_weighted(g, box_size)
        method = "raster"
    elif isinstance(g, GluedMap):
        raw = _glued_boxcount(g, box_size)
        method = "raster-cores"
    else:
        raw = _cloud_boxcount(g, box, n, m, box_size,
                              lip_hint if lip_hint is not None else _quick_lip(g, box, seed))
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


def _cloud_boxcount(fbatch: Callable, box: np.ndarray, n: int, m: int,
                    box_size: float, lip: float) -> float:
    """Plain sample-cloud box count for maps without affine structure."""
    spacing = box_size / (2.0 * max(lip, 1e-9))
    axes = []
    for lo, hi in box:
        count = int(math.ceil((hi - lo) / spacing)) + 1
        axes.append(np.linspace(lo, hi, max(count, 2)))
    total_pts = int(np.prod([len(ax) for ax in axes]))
    if total_pts > _MAX_CLOUD_POINTS:
        raise NumericalFailure(f"box-count cloud guard: {total_pts} sample points")
    fn = _as_batch(fbatch, n)
    seen = []
    if n == 1:
        img = batch_call(fn, axes[0][:, None])
        seen.append(_distinct(_box_keys(img, box_size)))
    else:
        rest = np.meshgrid(*axes[1:], indexing="ij")
        rest = np.stack([g.ravel() for g in rest], axis=1)
        rows = max(1, 2_000_000 // max(1, rest.shape[0]))
        for start in range(0, len(axes[0]), rows):
            block = axes[0][start:start + rows]
            pts = np.concatenate(
                [np.repeat(block, rest.shape[0])[:, None],
                 np.tile(rest, (block.shape[0], 1))], axis=1)
            seen.append(_distinct(_box_keys(batch_call(fn, pts), box_size)))
    count = _distinct(np.concatenate(seen)).size
    return count * box_size ** n


def _quick_lip(g, box, seed, pairs: int = 300) -> float:
    rng = rng_for(seed, 99)
    xs = sample_box(box, pairs, rng)
    ys = sample_box(box, pairs, rng)
    d = np.linalg.norm(xs - ys, axis=1)
    keep = d > 1e-12
    fx = batch_call(g, xs[keep])
    fy = batch_call(g, ys[keep])
    return float(np.max(np.linalg.norm(fx - fy, axis=1) / d[keep])) if np.any(keep) else 1.0


# -- planar coverage check ---------------------------------------------------


def coverage_check(g, radius: float, target_radius: float, grid: float,
                   lip_hint: float = 3.0, seed: int = 0) -> MeasureReport:
    """Fraction of the target disc grid covered by the image sample cloud.

    Verifies (at resolution ``grid``) that g(B(0, radius)) covers
    B(0, target_radius): a target grid point counts as covered when an
    image sample lands within one grid cell of it.  1.0 means full
    coverage at this resolution.
    """
    if radius <= 0 or target_radius <= 0 or grid <= 0:
        raise PreconditionError("radii and grid must be positive")
    h = grid / (2.0 * max(lip_hint, 1e-6))
    count = int(math.ceil(2.0 * radius / h)) + 1
    if count ** 2 > _MAX_CLOUD_POINTS:
        raise NumericalFailure("coverage cloud guard")
    ax = np.linspace(-radius, radius, count)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    # include the exact boundary circle, which drives the degree argument
    theta = np.linspace(0.0, 2.0 * math.pi, 4 * count, endpoint=False)
    ring = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = np.concatenate([pts, ring], axis=0)
    img = batch_call(_as_batch(g, 2), pts)
    if img.shape[1] != 2:
        raise PreconditionError("coverage_check is planar: map must land in R^2")
    img_keys = _distinct(_box_keys(img, grid))

    t_ax = np.arange(-target_radius, target_radius + grid, grid)
    TX, TY = np.meshgrid(t_ax, t_ax, indexing="ij")
    targets = np.stack([TX.ravel(), TY.ravel()], axis=1)
    targets = targets[np.linalg.norm(targets, axis=1) <= target_radius]
    covered = np.zeros(targets.shape[0], dtype=bool)
    base_idx = np.floor(targets / grid).astype(np.int64)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            keys = _pack_keys(base_idx + np.array([dx, dy]))
            pos = np.minimum(np.searchsorted(img_keys, keys), img_keys.size - 1)
            covered |= img_keys[pos] == keys
    return MeasureReport(
        quantity="coverage_ratio",
        value=float(np.mean(covered)) if targets.size else 1.0,
        resolution={"grid": grid, "radius": radius, "target_radius": target_radius,
                    "targets": int(targets.shape[0])},
        seed=seed,
        error_bound=None,
    )


# -- experiment drivers ------------------------------------------------------


def map_from_descriptor(desc: dict, n: int, m: int) -> Callable:
    """Build a batch callable from a serializable map description."""
    kind = desc.get("kind")
    if kind == "zero":
        return lambda xs: np.zeros((xs.shape[0], m))
    if kind == "affine":
        M = np.asarray(desc["linear"], dtype=float)
        c = np.asarray(desc.get("offset", np.zeros(m)), dtype=float)
        if M.shape != (m, n):
            raise PreconditionError(f"affine descriptor must be {m} x {n}")
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
    domain_kind: str = "euclidean"
    codomain_kind: str = "euclidean"


def run_positive_experiment(config: PositiveConfig) -> dict:
    """Inflate toward the target for each eps; one record per eps."""
    box = as_box(config.box)
    n = box.shape[0]
    a = _norm_from_kind(config.domain_kind, n)
    b = _norm_from_kind(config.codomain_kind, config.m)
    fbatch = map_from_descriptor(config.f, n, config.m)
    records = []
    for eps in config.eps_schedule:
        glued, rep = inflate_on_set(fbatch, box, a, b, config.lam, float(eps),
                                    config.eta, config.seed)
        jac = jacobian_integral(glued, box)
        record = {
            "eps": float(eps),
            "sup_dist": rep.sup_distance,
            "lip_exact": rep.lip_cells_exact,
            "lip_glue_bound": rep.lip_glue_bound,
            "jac_integral": jac.value,
            "target": rep.target_integral,
            "boxcount": None,
            "superlevel_fraction": None,
            "seed": config.seed,
        }
        if config.run_boxcount and config.m > n:
            bc = boxcount_image_measure(glued, box, config.m, config.box_size,
                                        lip_hint=rep.lip_glue_bound)
            record["boxcount"] = bc.value
        records.append(record)
    return {"experiment": "positive", "config": _config_json(config), "records": records}


@dataclass(frozen=True)
class NegativeConfig:
    u: np.ndarray
    r: float
    eps_schedule: tuple
    seed: int
    domain_kind: str = "linf"      # norm on R^n (the cube [-1,1]^n domain)
    codomain_kind: str = "euclidean"
    n: int = 2
    m: int = 2
    grid: int = 6
    restarts: int = 16
    steps: int = 200
    control: bool = False          # run the inflating control pipeline instead
    threshold: Optional[float] = None  # defaults to mv(u) + r


def _norm_from_kind(kind: str, dim: int) -> ns.Norm:
    if kind == "euclidean":
        return ns.euclidean(dim)
    if kind == "linf":
        return ns.linf(dim)
    if kind == "l1":
        return ns.l1(dim)
    raise PreconditionError(f"unsupported norm kind {kind!r} (euclidean|linf|l1)")


def run_negative_experiment(config: NegativeConfig) -> dict:
    """Adversarial superlevel search along a shrinking eps schedule.

    For each eps the searcher looks for a piecewise-affine g with
    ||g - (u|0)||_inf <= eps and exact per-cell Lipschitz norm at most 1
    maximizing the fraction of the cube where vol g' clears the
    threshold mv(u) + r.  Achieved fractions are searcher lower bounds
    of the true maxima.  With ``control`` set, the map is produced by
    the inflation pipeline instead (the contrast case where the fraction
    stays high).
    """
    a = _norm_from_kind(config.domain_kind, config.n)
    b = _norm_from_kind(config.codomain_kind, config.m)
    if not config.control and config.n != 2:
        raise PreconditionError("the adversarial searcher is implemented for n = 2")
    u = np.asarray(config.u, dtype=float)
    if u.shape != (config.m,):
        raise PreconditionError("u must have the codomain dimension")
    base_norm = operator_norm(LinearMap(
        np.concatenate([u[:, None], np.zeros((config.m, config.n - 1))], axis=1), a, b))
    if base_norm > 1.0 + 1e-9:
        raise PreconditionError("||(u|0)|| must be at most 1")
    if config.threshold is not None:
        threshold = float(config.threshold)
    else:
        mv = max_volume(u, a, b, restarts=8, seed=config.seed)
        threshold = mv.value + config.r

    box = np.stack([-np.ones(config.n), np.ones(config.n)], axis=1)
    records = []
    for i, eps in enumerate(config.eps_schedule):
        if config.control:
            M = np.concatenate([u[:, None], np.zeros((config.m, config.n - 1))], axis=1)
            fbatch = lambda xs, M=M: xs @ M.T
            glued, rep = inflate_on_set(fbatch, box, a, b, 1.0, float(eps), 0.9,
                                        seed=config.seed + i, f_lip=1.0)
            frac = superlevel_fraction(glued, box, threshold).value
            records.append({
                "eps": float(eps),
                "superlevel_fraction": frac,
                "sup_dist": rep.sup_distance,
                "lip_exact": rep.lip_cells_exact,
                "jac_integral": jacobian_integral(glued, box).value,
                "boxcount": None,
                "seed": config.seed,
            })
        else:
            frac, best = _adversarial_search(a, b, u, float(eps), threshold,
                                             config.grid, config.restarts,
                                             config.steps, config.seed + 1000 * i)
            sup = _exact_sup_dist(best, u)
            records.append({
                "eps": float(eps),
                "superlevel_fraction": frac,
                "sup_dist": sup,
                "lip_exact": best.exact_lipschitz(),
                "jac_integral": jacobian_integral(best, box).value,
                "boxcount": None,
                "seed": config.seed,
            })
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


class _Separable:
    """Mutable separable PA candidate: per-axis per-segment slope vectors."""

    def __init__(self, u: np.ndarray, n: int, k: int):
        self.m = u.shape[0]
        self.n = n
        self.k = k
        self.breaks = np.linspace(-1.0, 1.0, k + 1)
        self.slopes = [np.zeros((k, self.m)) for _ in range(n)]
        self.slopes[0][:] = u[None, :]
        self.base = [s.copy() for s in self.slopes]
        self.u = u

    def copy(self) -> "_Separable":
        out = _Separable(self.u, self.n, self.k)
        out.slopes = [s.copy() for s in self.slopes]
        return out

    def anchors(self):
        # direction 1 tracks t * u from t = -1; others start at 0
        anchors = [np.zeros(self.m) for _ in range(self.n)]
        anchors[0] = -1.0 * self.u
        return anchors

    def node_values(self) -> list:
        return [_node_values(self.breaks, s, anchor)
                for s, anchor in zip(self.slopes, self.anchors())]

    def to_map(self, a: ns.Norm, b: ns.Norm) -> PiecewiseAffineMap:
        box = np.stack([-np.ones(self.n), np.ones(self.n)], axis=1)
        return pa_from_axis_slopes(box, [self.breaks] * self.n, self.slopes,
                                   self.anchors(), np.zeros(self.m), a, b)


def _cell_norms_linf_to_l2(slopes: list) -> float:
    """Exact worst cell norm for the cube domain and Euclidean codomain, n = 2."""
    s1, s2 = slopes
    plus = s1[:, None, :] + s2[None, :, :]
    minus = s1[:, None, :] - s2[None, :, :]
    return float(np.sqrt(max(np.max(np.sum(plus ** 2, axis=2)),
                             np.max(np.sum(minus ** 2, axis=2)))))


def _cell_vols(slopes: list) -> np.ndarray:
    s1, s2 = slopes
    if s1.shape[1] == 2:
        return np.abs(s1[:, None, 0] * s2[None, :, 1] - s1[:, None, 1] * s2[None, :, 0])
    g11 = np.sum(s1 ** 2, axis=1)
    g22 = np.sum(s2 ** 2, axis=1)
    g12 = s1 @ s2.T
    return np.sqrt(np.clip(np.multiply.outer(g11, g22) - g12 ** 2, 0.0, None))


def _sup_dist_nodes(cand: _Separable, b: ns.Norm) -> float:
    """Exact sup of ||g - (u|0)||_b over the cube (attained at cell corners)."""
    vals = cand.node_values()
    dev0 = vals[0] - cand.breaks[:, None] * cand.u[None, :]
    total = dev0[:, None, :] + vals[1][None, :, :]
    return float(np.max(ns._eval_many(b, total.reshape(-1, cand.m))))


def _exact_sup_dist(pam: PiecewiseAffineMap, u: np.ndarray) -> float:
    """Exact sup of ||pam - (u|0)|| in the map's codomain norm, over its cell corners."""
    corners = [c.breakpoints for c in pam.curves]
    mesh = np.meshgrid(*corners, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    target = pts[:, :1] * u[None, :]
    return float(np.max(ns._eval_many(pam.codomain_norm, pam.eval_many(pts) - target)))


def _adversarial_search(a: ns.Norm, b: ns.Norm, u: np.ndarray, eps: float,
                        threshold: float, k: int, restarts: int, steps: int,
                        seed: int):
    """Coordinate-perturbation ascent over per-segment slope vectors.

    Projection keeps the candidate admissible: a global slope rescale
    enforces the exact worst-cell operator norm <= 1, and a convex blend
    toward the baseline (u|0) enforces the exact sup-distance <= eps
    (both constraints are convex along the blend).
    """
    n, m = a.dim, b.dim
    fast_norms = (n == 2 and a.kind == "lp" and a.p == math.inf
                  and (b.kind == "euclidean" or (b.kind == "lp" and b.p == 2)))
    seg_len = 2.0 / k

    def worst_norm(cand: _Separable) -> float:
        if fast_norms:
            return _cell_norms_linf_to_l2(cand.slopes)
        cols = np.broadcast_arrays(cand.slopes[0][:, None, :], cand.slopes[1][None, :, :])
        cells = np.stack(cols, axis=-1).reshape(k * k, m, 2)
        return float(np.max(operator_norm_report(cells, a, b).values))

    def project(cand: _Separable) -> None:
        w = worst_norm(cand)
        if w > 1.0:
            for s in cand.slopes:
                s /= w
        sup = _sup_dist_nodes(cand, b)
        if sup > eps:
            psi = 0.999 * eps / sup
            for d in range(n):
                cand.slopes[d][:] = cand.base[d] + psi * (cand.slopes[d] - cand.base[d])

    def score(cand: _Separable):
        vols = _cell_vols(cand.slopes)
        frac = float(np.mean(vols >= threshold))
        guide = float(np.mean(np.minimum(vols / max(threshold, 1e-12), 1.0)))
        return frac + 1e-3 * guide, frac

    best_frac = 0.0
    best_cand = None
    for r in range(restarts):
        rng = rng_for(seed, 8088, r)
        cand = _Separable(u, n, k)
        if r > 0:
            for d in range(n):
                cand.slopes[d] += rng.standard_normal((k, m)) * (0.3 * eps / seg_len)
            project(cand)
        s_best, _ = score(cand)
        step = max(eps / seg_len, 0.05)
        for _ in range(steps):
            d = int(rng.integers(0, n))
            i = int(rng.integers(0, k))
            trial = cand.copy()
            trial.slopes[d][i] += rng.standard_normal(m) * step
            project(trial)
            s_new, _ = score(trial)
            if s_new > s_best:
                cand, s_best = trial, s_new
            else:
                step *= 0.985
                if step < 1e-6:
                    break
        _, frac = score(cand)
        if best_cand is None or frac > best_frac + 1e-15:
            best_frac, best_cand = frac, cand
    pam = best_cand.to_map(a, b)
    return best_frac, pam


# -- report output -------------------------------------------------------------


CSV_FIELDS = ["eps", "sup_dist", "lip_exact", "jac_integral", "boxcount",
              "superlevel_fraction"]


def records_to_csv(records: list, path: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow({key: rec.get(key) for key in CSV_FIELDS})
