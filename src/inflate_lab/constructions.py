"""Constructive approximators: zigzags, inflated affine maps, gluing.

The pieces assembled here:

* zigzag curves: piecewise-affine curves with derivative exactly +-u
  per segment that uniformly track a straight line of shorter velocity;
* inflate_affine: turn an affine map plus an inflation certificate into
  a piecewise-affine map whose every cell differential is a sign
  permutation of the inflated map, so the cell operator norms and cell
  volumes are known exactly;
* glue_patches: the bump-function extension that merges local patch
  maps into the base map at the cost of + 4 delta on the Lipschitz
  constant;
* inflate_on_set: the grid-scale pipeline (local affine fit, generic
  position nudge, per-cell certificate, per-cell inflation, glue) that
  pushes the Jacobian integral of a 1-Lipschitz map up to a target
  fraction of the domain measure while staying uniformly close to it;
* the two quantitative margins: the lower semi-continuity radius
  delta = (1 - eta^(1/n)) / (2 ||A^-1||) and the averaging threshold
  eps = delta / (K N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import normed_space as ns
from .errors import DimensionMismatch, NumericalFailure, PreconditionError
from .geometry import (GridSubset, as_box, as_domain, float_array, full_rank, grid_points,
                       sample_box, shrink_box)
from .linear_analysis import (LinearMap, InflationCertificate, is_full_rank,
                              operator_norm, operator_norm_report, verify_certificate,
                              vol_matrix, inflation_search)
from .seeding import rng_for

_MAX_SEGMENTS = 2_000_000
_NODE_STRIDE = 16       # C: a curve caches its running step sums at every C-th node
_NODE_CHUNK = 1 << 15   # segments a checkpoint pass takes at a time, a multiple of C
_QUERY_CHUNK = 1 << 12  # nodes a lookup, or queries eval_many, takes at a time: about 4 MB at m = 3
# all zigzags of one inflate_on_set: at 8 + 1 bytes a segment before evaluation and
# 8 m / _NODE_STRIDE more after it, about 0.17 GB for m = 3
_MAX_GRID_SEGMENTS = 8 * _MAX_SEGMENTS
_MAX_LINEAR_COMBOS = 65_536
_MAX_CSV_CELLS = 100_000
_CLAMP_KINDS = ("euclidean", "lp")  # domain norms whose distance to a box is a clamp away


# -- zigzag curves -----------------------------------------------------------


def zigzag_curve(a_vec, u, eps: float, interval,
                 vec_len: Callable[[np.ndarray], float] = None) -> CoordinateCurve:
    """Zigzag with derivative +-u tracking the line t -> t * a_vec within eps.

    The result is a CoordinateCurve whose every slope row is exactly u or
    -u; the nondifferentiability set is the finite interior breakpoint set.
    It stores the signs as one uint8 label a segment into the palette of
    +-u, so a segment holds 8 + 1 bytes, and 8 m / _NODE_STRIDE more once
    evaluated (see CoordinateCurve._checkpoints).

    Requires u parallel to a_vec with |u| >= |a_vec| (speed never below
    the target's), or a_vec = 0, in which case the curve is a triangle
    wave of amplitude below eps in span{u}.  ``vec_len`` measures the
    deviation (Euclidean by default; pass a norm evaluation to budget
    deviations in a different norm).
    """
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    a_vec = np.asarray(a_vec, dtype=float)
    u = np.asarray(u, dtype=float)
    if a_vec.shape != u.shape:
        raise DimensionMismatch("direction and line vector dims differ")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise PreconditionError("interval must be nondegenerate")
    length = vec_len if vec_len is not None else (lambda v: float(np.linalg.norm(v)))

    len_a = length(a_vec)
    len_u = length(u)
    span = hi - lo
    if len_u == 0.0:
        raise PreconditionError("direction not admissible: u = 0")

    if len_a == 0.0:
        # A = 0: triangle wave; each half-mesh climbs half * |u| <= 0.9 eps
        h = 0.9 * eps / len_u
        meshes = _guard_segments(span, 2.0 * h)
        half = span / (2.0 * meshes)
        breaks = lo + np.arange(2 * meshes + 1) * half
        breaks[-1] = hi
        return _sign_curve(breaks, u, np.zeros_like(u))

    if not (math.isfinite(len_a) and math.isfinite(len_u)):
        raise PreconditionError(f"lengths must be finite: |A(1)| = {len_a}, |u| = {len_u}")
    # scaled copies keep the dot product and norms from overflowing
    a_dir = a_vec / np.max(np.abs(a_vec))
    u_dir = u / np.max(np.abs(u))
    cos = float(a_dir @ u_dir) / (np.linalg.norm(a_dir) * np.linalg.norm(u_dir))
    if not abs(abs(cos) - 1.0) <= 1e-9:
        raise PreconditionError("direction not admissible: u is not parallel to A(1)")
    kappa = math.copysign(len_u / len_a, cos)
    if abs(kappa) < 1.0 - 1e-12:
        raise PreconditionError(f"direction not admissible: |kappa| = {abs(kappa)} < 1")

    anchor = lo * a_vec
    if abs(kappa) <= 1.0 + 1e-12 or span * (kappa * kappa - 1.0) * len_a / (2.0 * abs(kappa)) <= 0.9 * eps:
        # single affine segment already stays within budget
        return _sign_curve(np.array([lo, hi]), u, anchor, np.array([0]), kappa > 0)

    h = 1.8 * eps * abs(kappa) / ((kappa * kappa - 1.0) * len_a)
    meshes = _guard_segments(span, h)
    h = span / meshes
    alpha = h * (kappa + 1.0) / (2.0 * kappa)
    # mesh j climbs from its start to the turn with +u, then returns to its
    # end with -u; a turn within 1e-15 of either end drops the turn and the
    # mesh becomes one segment with the sign of its longer half
    breaks = np.empty(2 * meshes + 1)
    breaks[0] = lo
    turns, ends = breaks[1::2], breaks[2::2]
    starts = lo + np.arange(meshes) * h
    np.add(starts, h, out=ends)
    ends[-1] = hi
    np.add(starts, alpha, out=turns)
    inner = (turns > starts + 1e-15) & (turns < ends - 1e-15)
    drop = np.flatnonzero(~inner)
    if drop.size:
        breaks = np.delete(breaks, 2 * drop + 1)
    return _sign_curve(breaks, u, anchor, drop, alpha >= h / 2)


def _sign_curve(breaks: np.ndarray, u: np.ndarray, anchor: np.ndarray,
                drop: np.ndarray = np.empty(0, dtype=int), merged_up: bool = True,
                ) -> CoordinateCurve:
    """The curve on ``breaks`` whose every mesh climbs with slope u, then returns with -u,
    but for the meshes listed in ``drop``: each is one segment of slope u if
    ``merged_up``, else -u.

    Its palette is the one CoordinateCurve(breaks, slopes, anchor) factors
    from the (K, m) slope rows, which are never built: the rows of +-u
    that occur, in np.unique's order, and one uint8 label a segment,
    written by strided assignment.
    """
    meshes = (breaks.shape[0] - 1 + drop.size) // 2
    turns = drop.size < meshes
    present = [i for i, occurs in enumerate((turns or not merged_up, turns or merged_up))
               if occurs]
    rows, inverse = np.unique(np.stack([-u, u])[present], axis=0, return_inverse=True)
    lut = np.zeros(2, dtype=np.uint8)  # label of -u, label of +u
    lut[present] = inverse.ravel()
    labels = np.empty(2 * meshes, dtype=np.uint8)
    labels[0::2] = lut[1]
    labels[1::2] = lut[0]
    if drop.size:
        labels[2 * drop + 1] = lut[int(merged_up)]
        labels = np.delete(labels, 2 * drop)
    return CoordinateCurve._from_palette(breaks, rows, labels, anchor)


def _guard_segments(span: float, h: float) -> int:
    """Number of meshes of width about ``h`` that cover ``span``.

    Raises NumericalFailure, before anything is allocated, when the mesh
    width underflows or the zigzag would need more than _MAX_SEGMENTS
    segments (two per mesh).
    """
    if not h > 0.0 or not math.isfinite(span / h):
        raise NumericalFailure(f"zigzag resolution guard: mesh width {h} cannot cover span {span}")
    meshes = max(1, math.ceil(span / h))
    if 2 * meshes > _MAX_SEGMENTS:
        raise NumericalFailure(f"zigzag resolution guard: {2 * meshes} segments requested")
    return meshes


# -- piecewise-affine maps ---------------------------------------------------


def _node_values(breaks: np.ndarray, slopes: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Values of continuous piecewise-affine curves at their breakpoints, shape (..., K+1, m).

    ``slopes`` is (..., K, m) in any memory order and ``anchor`` (..., m);
    leading axes are a stack of curves on the same breakpoints.  The
    result takes the slopes' memory order.  It holds all K + 1 nodes, 8 m
    bytes a segment, for the adversary's stacks; CoordinateCurve keeps
    only every _NODE_STRIDE-th running sum and rebuilds any node from it
    to the same bits (_nodes).
    """
    k, m = slopes.shape[-2:]
    out = np.empty_like(slopes, dtype=float, shape=slopes.shape[:-2] + (k + 1, m))
    out[..., 0, :] = anchor
    steps = out[..., 1:, :]
    np.multiply(slopes, np.diff(breaks)[:, None], out=steps)
    np.cumsum(steps, axis=-2, out=steps)
    steps += anchor[..., None, :]
    return out


def _increasing(breakpoints) -> np.ndarray:
    b = np.asarray(breakpoints, dtype=float)
    # every comparison with NaN is False, so strictly increasing
    # breakpoints with finite ends are all finite
    if (b.ndim != 1 or b.shape[0] < 2 or not (math.isfinite(b[0]) and math.isfinite(b[-1]))
            or not np.all(b[1:] > b[:-1])):
        raise PreconditionError("breakpoints must be finite and strictly increasing")
    return b


class CoordinateCurve:
    """Continuous piecewise-affine curve R -> R^m with arbitrary per-segment slopes.

    The slopes are stored as a palette: ``rows`` (J, m), the distinct
    slope vectors in np.unique's order, and ``labels`` (K,), one row index
    per segment in the smallest unsigned dtype that holds J.  ``slopes``,
    the (K, m) rows, is rebuilt from them on each read, in the memory
    order the slopes came in (column-major for a zigzag); no output
    depends on that order.
    """

    def __init__(self, breakpoints, slopes, anchor):
        s = float_array(slopes, "slopes")
        a = float_array(anchor, "anchor")
        b = _increasing(breakpoints)
        if s.ndim != 2 or s.shape[0] != b.shape[0] - 1:
            raise PreconditionError("need one slope vector per segment")
        rows, inverse = np.unique(s, axis=0, return_inverse=True)
        order = "F" if s.flags.f_contiguous and not s.flags.c_contiguous else "C"
        self._hold(b, rows, inverse.ravel(), a, order)

    @classmethod
    def _from_palette(cls, breakpoints, rows, labels, anchor) -> CoordinateCurve:
        """The column-major curve whose segment k has slope rows[labels[k]], made
        without a (K, m) array."""
        curve = cls.__new__(cls)
        curve._hold(breakpoints, rows, labels, anchor, "F")
        return curve

    def _hold(self, breakpoints, rows, labels, anchor, order: str) -> None:
        rows = float_array(rows, "slopes")
        anchor = float_array(anchor, "anchor")
        self.breakpoints = _increasing(breakpoints)  # (K+1,) finite, strictly increasing
        if anchor.shape != rows.shape[1:]:
            raise DimensionMismatch(f"anchor shape {anchor.shape} does not match slope rows of "
                                    f"length {rows.shape[1]}")
        self.rows = rows          # (J, m) distinct slope vectors
        self.labels = labels.astype(np.min_scalar_type(rows.shape[0] - 1), copy=False)  # (K,)
        self.anchor = anchor      # (m,) value at breakpoints[0]
        self._order = order

    @property
    def slopes(self) -> np.ndarray:
        """The (K, m) slope rows, rows[labels]."""
        out = np.empty((self.segment_count, self.rows.shape[1]), order=self._order)
        return np.take(self.rows, self.labels, axis=0, out=out)

    @cached_property
    def _checkpoints(self) -> np.ndarray:
        """Running step sums at nodes 0, C, 2C, ... (C = _NODE_STRIDE), shape (K // C + 1, m).

        One pass over the segments, _NODE_CHUNK at a time and one column at a
        time, in np.cumsum's sequential order: each chunk's first step adds the
        sum carried from the last, and the empty sum is -0.0, which adds
        exactly.  So every checkpoint has the bits of the full cumsum that
        _node_values takes.  Labels are in range, so take's "clip" only skips
        its buffered bounds check.
        """
        k, m = self.segment_count, self.rows.shape[1]
        out = np.empty((k // _NODE_STRIDE + 1, m), order="F")
        out[0] = -0.0
        b = self.breakpoints
        widths = np.empty(min(k, _NODE_CHUNK))
        col = np.empty_like(widths)
        for s in range(0, k, _NODE_CHUNK):
            e = min(s + _NODE_CHUNK, k)
            w, steps = widths[:e - s], col[:e - s]
            np.subtract(b[s + 1:e + 1], b[s:e], out=w)
            first, last = s // _NODE_STRIDE, e // _NODE_STRIDE
            for j in range(m):
                np.take(self.rows[:, j], self.labels[s:e], out=steps, mode="clip")
                steps *= w
                steps[0] += out[first, j]
                np.cumsum(steps, out=steps)
                out[first + 1:last + 1, j] = steps[_NODE_STRIDE - 1::_NODE_STRIDE]
        return out

    def _nodes(self, idx: np.ndarray) -> np.ndarray:
        """Values at the nodes ``idx`` (Q,) in 0..K, shape (Q, m), with the bits of
        _node_values(breakpoints, slopes, anchor)[idx].

        From each node's checkpoint the steps up to it are summed down axis 0
        of a (C, q, m) block, every column in np.cumsum's sequential order,
        for q = _QUERY_CHUNK nodes at a time.
        """
        idx = np.asarray(idx)
        out = np.empty((idx.shape[0], self.rows.shape[1]))
        for a in range(0, idx.shape[0], _QUERY_CHUNK):
            c, r = np.divmod(idx[a:a + _QUERY_CHUNK], _NODE_STRIDE)
            # row 0 of the block is the checkpoint; row i the step into node cC + i
            seg = np.clip(c * _NODE_STRIDE + np.arange(-1, int(r.max()))[:, None],
                          0, self.segment_count - 1)
            block = self.rows[self.labels[seg]]
            block *= (self.breakpoints[seg + 1] - self.breakpoints[seg])[:, :, None]
            block[0] = self._checkpoints[c]
            np.cumsum(block, axis=0, out=block)
            np.add(block[r, np.arange(r.shape[0])], self.anchor, out=out[a:a + _QUERY_CHUNK])
        return out

    @property
    def segment_count(self) -> int:
        return self.labels.shape[0]

    def segment_index(self, ts: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.breakpoints, ts, side="right") - 1,
                       0, self.segment_count - 1)

    def eval_many(self, ts) -> np.ndarray:
        """Values at ``ts`` (Q,), shape (Q, m): the slope term is added into the
        node values in place, _QUERY_CHUNK queries at a time."""
        ts = np.asarray(ts, dtype=float)
        idx = self.segment_index(ts)
        out = self._nodes(idx)
        for a in range(0, idx.shape[0], _QUERY_CHUNK):
            i = idx[a:a + _QUERY_CHUNK]
            out[a:a + _QUERY_CHUNK] += (self.rows[self.labels[i]]
                                        * (ts[a:a + _QUERY_CHUNK] - self.breakpoints[i])[:, None])
        return out


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Continuous map g(x) = anchor + sum_d curve_d(t_d(x)) on a box.

    ``t`` are the coordinates of x in the construction basis (columns of
    ``basis``); the cell partition is the product of the per-direction
    segment grids, so the map is affine on every cell and continuous by
    construction.  The differential on the cell with segment indices
    (i_1..i_n) is the matrix with columns slope_d(i_d) composed with the
    coordinate map, hence there are only as many distinct differentials
    as distinct slope combinations.
    """

    curves: tuple
    basis: np.ndarray              # (n, n) invertible; t(x) = basis^-1 x
    anchor_value: np.ndarray       # constant offset in R^m
    domain: np.ndarray             # (n, 2) box
    domain_norm: ns.Norm
    codomain_norm: ns.Norm
    declared_lip: float = math.inf
    constant_cell_vol: Optional[float] = None
    affine_ref: Optional[tuple] = None  # (matrix, offset, sup deviation bound)

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        n = len(self.curves)
        basis = float_array(self.basis, "basis", (n, n))  # one curve per column
        if not full_rank(np.linalg.svd(basis, compute_uv=False)):
            raise PreconditionError("basis must be invertible")
        anchor = float_array(self.anchor_value, "anchor_value", (None,))
        if {c.rows.shape[1] for c in self.curves} != {len(anchor)}:
            raise DimensionMismatch("anchor_value must have the curves' slope width")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "anchor_value", anchor)
        object.__setattr__(self, "domain", as_box(self.domain))
        if len(self.domain) != n:
            raise DimensionMismatch("domain must have one row per curve")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def m(self) -> int:
        return self.anchor_value.shape[0]

    @cached_property
    def coord_map(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    @property
    def identity_basis(self) -> bool:
        return bool(np.array_equal(self.basis, np.eye(self.n)))

    def t_coords(self, xs: np.ndarray) -> np.ndarray:
        return xs @ self.coord_map.T

    def _segment_windows(self, window: np.ndarray) -> Optional[list]:
        """Per axis, every segment's t-interval clipped to the box ``window`` in x.

        The one window rule of cell-by-cell integrals and box counts: a
        (K_d, 2) array per axis, high <= low where a segment misses the
        window; None when some row of basis^-1 has two nonzeros, so that the
        window is no box in t.
        """
        T = self.coord_map
        if np.any(np.count_nonzero(T, axis=1) > 1):
            return None
        # the t-range of the window: exact, since T maps the window onto a box
        scaled = T[:, :, None] * window[None, :, :]
        lo, hi = scaled.min(axis=2).sum(axis=1), scaled.max(axis=2).sum(axis=1)
        return [np.stack([np.maximum(c.breakpoints[:-1], lo[d]),
                          np.minimum(c.breakpoints[1:], hi[d])], axis=1)
                for d, c in enumerate(self.curves)]

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise DimensionMismatch(f"expected (N, {self.n}) points")
        ts = self.t_coords(xs)
        out = np.tile(self.anchor_value, (xs.shape[0], 1))
        for d, curve in enumerate(self.curves):
            out += curve.eval_many(ts[:, d])
        return out

    def __call__(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float)[None, :])[0]

    def cell_shape(self) -> tuple:
        return tuple(c.segment_count for c in self.curves)

    def cell_linear(self, index) -> np.ndarray:
        cols = np.stack([c.rows[c.labels[i]] for c, i in zip(self.curves, index)], axis=1)
        return cols @ self.coord_map

    def distinct_linears(self) -> np.ndarray:
        """All distinct cell differentials, shape (k, m, n)."""
        palettes = [c.rows for c in self.curves]
        if math.prod(p.shape[0] for p in palettes) > _MAX_LINEAR_COMBOS:
            raise NumericalFailure("too many distinct cell differentials to enumerate")
        grids = np.meshgrid(*[np.arange(p.shape[0]) for p in palettes], indexing="ij")
        return np.stack([p[g.ravel()] for p, g in zip(palettes, grids)], axis=-1) @ self.coord_map

    def exact_lipschitz(self) -> float:
        """Largest cell operator norm: the exact Lipschitz constant of the map.

        On a smooth pair (no polytope on either side, not both Euclidean)
        it is the certified upper end of operator_norm_report's bracket.
        """
        report = operator_norm_report(self.distinct_linears(), self.domain_norm, self.codomain_norm)
        return float(np.max(report.values))

    def cell_vol_table(self) -> np.ndarray:
        """Volume of the differential on every cell, shape ``cell_shape()``."""
        if self.n > self.m:
            raise PreconditionError(f"vol requires n <= m, got {self.n} > {self.m}")
        vols = np.prod(np.linalg.svd(self.distinct_linears(), compute_uv=False), axis=-1)
        return vols.reshape([c.rows.shape[0] for c in self.curves])[
            np.ix_(*[c.labels for c in self.curves])]

    def continuity_defect(self) -> float:
        """Largest jump across interior facets, probed at paired points."""
        rng = rng_for(0, 404)
        worst = 0.0
        for d, curve in enumerate(self.curves):
            interior = curve.breakpoints[1:-1]
            if interior.size == 0:
                continue
            picks = rng.choice(interior, size=min(64, interior.size), replace=False)
            for t_star in picks:
                ts = rng.random(self.n)
                base = np.array([c.breakpoints[0] * (1 - s) + c.breakpoints[-1] * s
                                 for c, s in zip(self.curves, ts)])
                base[d] = t_star
                h = 1e-9 * max(1.0, abs(t_star))
                lo = base.copy()
                lo[d] = t_star - h
                hi = base.copy()
                hi[d] = t_star + h
                v_lo = self.eval_many((self.basis @ lo)[None, :])[0]
                v_hi = self.eval_many((self.basis @ hi)[None, :])[0]
                worst = max(worst, float(np.max(np.abs(v_hi - v_lo))) )
        return worst

    def to_json(self) -> dict:
        return {
            "basis": self.basis.tolist(),
            "anchor_value": self.anchor_value.tolist(),
            "domain": self.domain.tolist(),
            "domain_norm": ns.norm_to_json(self.domain_norm),
            "codomain_norm": ns.norm_to_json(self.codomain_norm),
            "declared_lip": self.declared_lip,
            "constant_cell_vol": self.constant_cell_vol,
            "affine_ref": None if self.affine_ref is None else {
                "matrix": self.affine_ref[0].tolist(),
                "offset": self.affine_ref[1].tolist(),
                "deviation": self.affine_ref[2],
            },
            "curves": [
                {
                    "breakpoints": c.breakpoints.tolist(),
                    "slopes": c.slopes.tolist(),
                    "anchor": c.anchor.tolist(),
                }
                for c in self.curves
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "PiecewiseAffineMap":
        curves = tuple(CoordinateCurve(c["breakpoints"], c["slopes"], c["anchor"])
                       for c in data["curves"])
        ref = data.get("affine_ref")
        return PiecewiseAffineMap(
            curves=curves,
            basis=data["basis"],
            anchor_value=data["anchor_value"],
            domain=data["domain"],
            domain_norm=ns.norm_from_json(data["domain_norm"]),
            codomain_norm=ns.norm_from_json(data["codomain_norm"]),
            declared_lip=float(data["declared_lip"]),
            constant_cell_vol=data.get("constant_cell_vol"),
            affine_ref=None if ref is None else (
                np.asarray(ref["matrix"], dtype=float),
                np.asarray(ref["offset"], dtype=float),
                float(ref["deviation"]),
            ),
        )

    def cell_records(self):
        """Iterator of (index, t_box, linear, offset) per cell, for CSV export.

        The cell-count guard runs on the call, before any record is made.
        """
        shape = self.cell_shape()
        if int(np.prod(shape)) > _MAX_CSV_CELLS:
            raise NumericalFailure(
                f"cell export guard: {int(np.prod(shape))} cells > {_MAX_CSV_CELLS}")
        return map(self._cell_record, np.ndindex(*shape))

    def _cell_record(self, index) -> tuple:
        t_box = np.array([[self.curves[d].breakpoints[index[d]],
                           self.curves[d].breakpoints[index[d] + 1]] for d in range(self.n)])
        linear = self.cell_linear(index)
        corner_x = self.basis @ t_box[:, 0]
        value = self.eval_many(corner_x[None, :])[0]
        return index, t_box, linear, value - linear @ corner_x


def pa_cells_to_csv(pam: PiecewiseAffineMap, path: str) -> None:
    """Flat CSV of cell records (one row per cell) for external plotting.

    The export guard runs before ``path`` is opened, so a refused export
    leaves an existing file as it was.
    """
    import csv

    n, m = pam.n, pam.m
    records = pam.cell_records()
    header = (["index"]
              + [f"t{d}_{end}" for d in range(n) for end in ("lo", "hi")]
              + [f"linear_{i}_{j}" for i in range(m) for j in range(n)]
              + [f"offset_{i}" for i in range(m)]
              + ["vol"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for index, t_box, linear, offset in records:
            row = ["x".join(str(i) for i in index)]
            row += [repr(float(v)) for v in t_box.ravel()]
            row += [repr(float(v)) for v in linear.ravel()]
            row += [repr(float(v)) for v in offset]
            row.append(repr(vol_matrix(linear)))
            writer.writerow(row)


def pa_from_axis_slopes(box, axis_breakpoints: Sequence, axis_slopes: Sequence,
                        anchors: Sequence, const, a: ns.Norm, b: ns.Norm,
                        basis=None) -> PiecewiseAffineMap:
    """Assemble a separable piecewise-affine map from per-axis slope data."""
    box = as_box(box)
    basis = np.eye(box.shape[0]) if basis is None else basis
    curves = tuple(CoordinateCurve(bp, sl, an)
                   for bp, sl, an in zip(axis_breakpoints, axis_slopes, anchors))
    pam = PiecewiseAffineMap(curves, basis, const, box, a, b)
    return replace(pam, declared_lip=pam.exact_lipschitz())


# -- inflate an affine map ---------------------------------------------------


def inflate_affine(map: LinearMap, cert: InflationCertificate, E, eps: float,
                   offset=None, lip_scale: float = 1.0) -> PiecewiseAffineMap:
    """Piecewise-affine inflation g of the affine map x -> A x + offset.

    ``cert`` must verify for A / lip_scale (lip_scale = 1 means the
    certificate is for A itself).  Every cell differential of g equals a
    sign permutation of the inflated map composed with A, so per cell
    the operator norm is at most lip_scale and the volume is exactly
    vol(A) * prod |eigenvalues|; the sup distance to the affine map
    stays below eps.
    """
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if not (0 < lip_scale <= 1.0 + 1e-12):
        raise PreconditionError("lip_scale must lie in (0, 1]")
    if not cert.verified:
        raise NumericalFailure("certificate is not verified")
    A = map.matrix
    n, m = map.n, map.m
    box = float_array(as_domain(E).box, "domain box", (n, 2))
    offset = np.zeros(m) if offset is None else float_array(offset, "offset", (m,))
    if not is_full_rank(A):
        raise PreconditionError("affine map must have a full-rank linear part")
    scaled = LinearMap(A / lip_scale, map.domain_norm, map.codomain_norm)
    report = verify_certificate(scaled, cert)
    if not report.verified:
        raise NumericalFailure(f"certificate does not verify for the given map: {report.message}")

    X = cert.preimages
    T = np.linalg.inv(X)
    U = A @ X                      # columns lip_scale * u_i with u_i = (A/lip_scale) x_i
    kappa = cert.eigenvalues

    blen = lambda v: ns.norm_eval(map.codomain_norm, v)
    budget = 0.9 * eps / n
    curves = []
    for i in range(n):
        row = T[i, :]
        t_lo = float(np.minimum(row * box[:, 0], row * box[:, 1]).sum())
        t_hi = float(np.maximum(row * box[:, 0], row * box[:, 1]).sum())
        if t_hi - t_lo < 1e-300:
            t_hi = t_lo + 1.0
        curves.append(zigzag_curve(U[:, i], kappa[i] * U[:, i], budget, (t_lo, t_hi), vec_len=blen))

    cell_vol = vol_matrix(A) * float(np.prod(np.abs(kappa)))
    pam = PiecewiseAffineMap(
        curves=tuple(curves),
        basis=X,
        anchor_value=offset,
        domain=box,
        domain_norm=map.domain_norm,
        codomain_norm=map.codomain_norm,
        declared_lip=lip_scale * max(report.worst_sign_norm, 1.0),
        constant_cell_vol=cell_vol,
        affine_ref=(A.copy(), offset.copy(), float(eps)),
    )
    return pam


# -- gluing ------------------------------------------------------------------


def _patch_set(value, n: int) -> np.ndarray:
    """A patch set as a read-only (k, n, 2) stack of boxes, the one reading of its shape:
    an (n, 2) array is a box of [low, high] rows, any other a (k, n) point cloud (or one
    (n,) point) of k boxes of width 0.  So in R^2 [[0, 0], [1, 1]] is the box {0} x {1},
    the point (0, 1); a cloud of two points lists one of them twice."""
    arr = float_array(value, "patch set")
    if arr.shape == (n, 2):
        if np.any(arr[:, 1] < arr[:, 0]):
            raise PreconditionError("patch set must be a box with low <= high in every row")
        stack = arr[None].copy()
    else:
        points = float_array(arr.reshape(1, n) if arr.shape == (n,) else arr, "patch set",
                             (None, n))
        stack = np.stack([points, points], axis=2)
    stack.flags.writeable = False
    return stack


def _dist_to_set(xs: np.ndarray, boxes: np.ndarray, norm: ns.Norm) -> np.ndarray:
    """Distance from each row of xs to a box stack: x's distance to its clamp into a box."""
    gaps = xs[:, None, :] - np.clip(xs[:, None, :], boxes[:, :, 0], boxes[:, :, 1])
    dists = ns._eval_many(norm, gaps.reshape(-1, norm.dim)).reshape(len(xs), len(boxes))
    return np.min(dists, axis=1)


def _set_to_set_distance(a: np.ndarray, b: np.ndarray, norm: ns.Norm) -> float:
    """Least norm of the signed gap a - b over box pairs of two stacks (for points, a - b)."""
    gaps = (np.maximum(a[:, None, :, 0] - b[None, :, :, 1], 0.0)
            + np.minimum(a[:, None, :, 1] - b[None, :, :, 0], 0.0))
    return float(np.min(ns._eval_many(norm, gaps.reshape(-1, norm.dim))))


@dataclass(frozen=True)
class PatchSpec:
    """Input bundle for glue_patches.

    ``patch_sets`` are boxes ((n, 2) arrays; in R^2 a (2, 2) array is a box)
    or point clouds ((k, n) arrays, or one (n,) point), stored as (k, n, 2)
    box stacks (see _patch_set); a box of positive width needs an lp-family
    domain norm, since distances to it are clamps, exact for points in any
    norm; ``radii`` their neighborhood radii in (0, 1]; ``patch_maps`` the
    maps defined on the neighborhoods; ``base_map`` the global map f;
    ``delta`` the patch closeness scale (||g_i - f|| <= delta * rho_i on
    each neighborhood).  Each map may be a batch callable, a single-point
    callable, or a piecewise-affine or glued map (see _as_batch).
    """

    patch_sets: tuple
    radii: tuple
    patch_maps: tuple
    base_map: Callable
    delta: float
    domain_norm: ns.Norm
    codomain_norm: ns.Norm

    def __post_init__(self):
        if not (len(self.patch_sets) == len(self.radii) == len(self.patch_maps)):
            raise PreconditionError("patch lists must have equal length")
        if self.delta <= 0:
            raise PreconditionError("delta must be positive")
        for rho in self.radii:
            if not (0 < rho <= 1):
                raise PreconditionError("radii must lie in (0, 1]")
        sets = tuple(_patch_set(s, self.domain_norm.dim) for s in self.patch_sets)
        if self.domain_norm.kind not in _CLAMP_KINDS and any(
                np.any(s[:, :, 1] > s[:, :, 0]) for s in sets):
            raise PreconditionError("box patch sets require an lp-family domain norm")
        object.__setattr__(self, "patch_sets", sets)


class GluedMap:
    """g = f + sum_i chi_i (g_i - f), with chi_i a clipped-distance bump.

    chi_i(x) = max(rho_i/2 - dist(x, S_i), 0) / (rho_i/2), so g agrees
    with g_i exactly on S_i, with f exactly outside the union of the
    rho_i-neighborhoods, and the Lipschitz constant grows by at most
    4 * delta over the common bound of f and the patches.
    """

    def __init__(self, spec: PatchSpec, lip_base: float):
        self.spec = spec
        self.lip_base = float(lip_base)
        self.lip_bound = float(lip_base) + 4.0 * spec.delta
        n = spec.domain_norm.dim
        self._base = _as_batch(spec.base_map, n)
        self._patches = tuple(_as_batch(g_i, n) for g_i in spec.patch_maps)
        # per patch, the bounding box of its coordinate hulls at rho / 2, where chi > 0;
        # a relative 1e-9 and 4 ulps outward keep the float test a superset
        self._hull_bounds = []
        for boxes, rho in zip(spec.patch_sets, spec.radii):
            hulls = _coordinate_hulls(boxes, 0.5 * rho * (1.0 + 1e-9), spec.domain_norm)
            lo, hi = hulls[:, :, 0].min(axis=0), hulls[:, :, 1].max(axis=0)
            self._hull_bounds.append((lo - 4.0 * np.spacing(np.abs(lo)),
                                hi + 4.0 * np.spacing(np.abs(hi))))

    def chi(self, xs: np.ndarray, i: int) -> np.ndarray:
        rho = self.spec.radii[i]
        d = _dist_to_set(xs, self.spec.patch_sets[i], self.spec.domain_norm)
        return np.maximum(0.5 * rho - d, 0.0) / (0.5 * rho)

    def eval_many(self, xs) -> np.ndarray:
        """f on every point, blended with each patch on the points where its chi > 0.

        chi_i is computed only on the points in patch i's coordinate hull,
        found from the points sorted by their first coordinate; the points
        a patch sees keep their order, so every patch map gets the batch it
        got when chi_i was taken on every point.
        """
        xs = np.asarray(xs, dtype=float)
        out = self._base(xs).copy()
        order = np.argsort(xs[:, 0], kind="stable")
        first = xs[order, 0]
        for i, g_i in enumerate(self._patches):
            lo, hi = self._hull_bounds[i]
            near = order[np.searchsorted(first, lo[0], "left"):
                         np.searchsorted(first, hi[0], "right")]
            near = np.sort(near[np.all((xs[near] >= lo) & (xs[near] <= hi), axis=1)])
            w = self.chi(xs[near], i)
            active = w > 0.0
            if np.any(active):
                pts = near[active]
                diff = g_i(xs[pts]) - out[pts]
                out[pts] += w[active, None] * diff
        return out

    def __call__(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float)[None, :])[0]

    def pieces(self):
        """(core set, patch map) pairs; on each core the glued map equals the patch."""
        return list(zip(self.spec.patch_sets, self.spec.patch_maps))


def glue_patches(spec: PatchSpec, L: float, seed: int = 0) -> GluedMap:
    """Merge patch maps into the base map; result is (L + 4 delta)-Lipschitz.

    Validates the hypotheses the bound depends on: the rho_i-neighborhoods of the
    patch sets are pairwise disjoint, and each patch stays delta*rho_i
    close to the base map on its neighborhood (checked on up to 160
    samples per patch).
    """
    k = len(spec.patch_sets)
    for i in range(k):
        for j in range(i + 1, k):
            gap = _set_to_set_distance(spec.patch_sets[i], spec.patch_sets[j], spec.domain_norm)
            if gap <= spec.radii[i] + spec.radii[j]:
                raise PreconditionError(
                    f"patch neighborhoods {i} and {j} overlap (gap {gap:.3g})")
    glued = GluedMap(spec, L)
    rng = rng_for(seed, 606)
    for i, (patch_set, rho, g_i) in enumerate(zip(spec.patch_sets, spec.radii, glued._patches)):
        pts = _sample_neighborhood(patch_set, rho, 160, rng, spec.domain_norm)
        if pts.shape[0] == 0:
            continue
        dev = ns._eval_many(spec.codomain_norm, g_i(pts) - glued._base(pts))
        if float(np.max(dev)) > spec.delta * rho * (1 + 1e-9) + 1e-12:
            raise PreconditionError(
                f"patch {i} deviates {float(np.max(dev)):.3g} > delta*rho = {spec.delta * rho:.3g}")
    return glued


def _coordinate_hulls(boxes, radius, norm: ns.Norm) -> np.ndarray:
    """A (k, n, 2) box stack with axis j grown by radius |e_j|_* on both sides.

    Hull i holds every point within ``radius`` of box i in ``norm``, since
    |v_j| <= |e_j|_* |v| for the dual norm |.|_*.  For lp norms |e_j|_* is
    1.0 exactly, so the hulls are the boxes grown by radius.
    """
    reach = radius * ns._eval_many(ns.dual(norm), np.eye(norm.dim))
    return np.stack([boxes[:, :, 0] - reach, boxes[:, :, 1] + reach], axis=2)


def _sample_neighborhood(boxes, rho, count, rng, norm) -> np.ndarray:
    """At most ``count`` of 4 count draws that lie within rho of a box stack; each
    draw is uniform in the coordinate hull (see _coordinate_hulls) of a box drawn
    from the stack."""
    hulls = _coordinate_hulls(boxes, rho, norm)
    if len(hulls) > 1:
        hulls = hulls[rng.integers(0, len(hulls), size=4 * count)]
    lo = hulls[:, :, 0]
    pts = lo + rng.random((4 * count, norm.dim)) * (hulls[:, :, 1] - lo)
    dist = _dist_to_set(pts, boxes, norm)
    return pts[dist <= rho][:count]


# -- cell-measure sums --------------------------------------------------------


def _affine_pieces(g, E: GridSubset, what: str) -> list:
    """(piecewise-affine map, (P, n, 2) box array) pairs that decompose g on E.

    A piecewise-affine map is one piece on its domain; a glued map has
    one piece per inflated core, a core being one box, and its blend
    bands, where the map is not piecewise affine, belong to no piece.
    E's cells are clipped to each piece's domain in one array expression;
    empty intersections are dropped.
    """
    boxes = E.cell_boxes
    if isinstance(g, PiecewiseAffineMap):
        domains = [(g.domain, g)]
    elif isinstance(g, GluedMap):
        domains = []
        for i, (core, piece) in enumerate(g.pieces()):
            if not isinstance(piece, PiecewiseAffineMap):
                raise PreconditionError("glued map pieces must be piecewise affine")
            if len(core) > 1:
                raise PreconditionError(
                    f"exact integrals and box counts need box cores; core {i} is a point cloud")
            domains.append((core[0], piece))
    else:
        raise PreconditionError(f"{what} needs a piecewise-affine or glued map")
    parts = []
    for dom, pam in domains:
        lo = np.maximum(boxes[:, :, 0], dom[:, 0])
        hi = np.minimum(boxes[:, :, 1], dom[:, 1])
        keep = np.all(hi > lo, axis=1)
        if keep.any():
            parts.append((pam, np.stack([lo[keep], hi[keep]], axis=2)))
    return parts


def _cell_measure_sum(g, E: GridSubset, weight: Callable, what: str) -> float:
    """Exact sum over cells of weight(cell vol) times the cell's measure inside E.

    For glued maps only the inflated cores are summed; the blend bands,
    where the map is not piecewise affine, contribute zero.  A piece
    without a constant cell volume is summed cell by cell over
    _segment_windows, a cell's measure in x being |det basis| times its t-measure.
    """
    total = 0.0
    for pam, pam_boxes in _affine_pieces(g, E, what):
        if pam.constant_cell_vol is not None:
            lo = np.maximum(pam_boxes[:, :, 0], pam.domain[:, 0])
            hi = np.minimum(pam_boxes[:, :, 1], pam.domain[:, 1])
            overlap = sum(np.prod(np.clip(hi - lo, 0.0, None), axis=1).tolist())
            total += weight(pam.constant_cell_vol) * overlap
            continue
        weights = weight(pam.cell_vol_table())
        for box in pam_boxes:
            segments = pam._segment_windows(box)
            if segments is None:
                raise PreconditionError(f"exact {what} needs a basis whose inverse has one "
                                        "nonzero per row, or a constant cell volume")
            measure = abs(np.linalg.det(pam.basis))
            for seg in segments:
                measure = np.multiply.outer(measure, np.clip(seg[:, 1] - seg[:, 0], 0.0, None))
            total += float(np.sum(weights * measure))
    return total


# -- quantitative margins ----------------------------------------------------


def lsc_margin(A, eta: float) -> float:
    """Stability radius delta = (1 - eta^(1/n)) / (2 ||A^-1||).

    Any continuous g within delta * r of a map differentiable at x with
    full-rank differential A covers, in measure, an eta fraction of the
    image of the r-ball around x (via the degree/coverage argument).
    Requires eta in (2^-n, 1).
    """
    A = float_array(A, "A", (None, None))
    m, n = A.shape
    if n > m:
        raise PreconditionError("A must map into dimension >= n")
    if not (2.0 ** (-n) < eta < 1.0):
        raise PreconditionError(f"eta must lie in (2^-{n}, 1)")
    s = np.linalg.svd(A, compute_uv=False)
    if not full_rank(s):
        raise PreconditionError("A must be full rank")
    inv_norm = 1.0 / float(s[-1])
    return (1.0 - eta ** (1.0 / n)) / (2.0 * inv_norm)


def balls_epsilon(K: float, delta: float, N: int) -> float:
    """Largest eps with (-K eps + delta)/delta >= 1 - 1/N, i.e. delta/(K N).

    If psi <= K a.e. and its mean is at least K(1 - eps), then the
    superlevel set {psi >= K - delta} fills at least a (1 - 1/N)
    fraction of the space.
    """
    if K <= 0 or delta <= 0 or N <= 0:
        raise PreconditionError("all arguments must be positive")
    return delta / (K * float(N))


# -- the grid-scale pipeline -------------------------------------------------


@dataclass(frozen=True)
class InflateReport:
    achieved_integral: float
    target_integral: float
    domain_measure: float
    sup_distance: float          # sampled ||g - f||_inf
    lip_cells_exact: float       # max exact cell operator norm over all patches
    lip_glue_bound: float        # L0 + 4 delta bound covering the blend bands
    cell_grid: tuple
    sigma: float
    lip_scale: float
    lam: float
    eta: float
    eps: float
    seed: int
    prescaled: bool
    patch_count: int


def inflate_on_set(f: Callable, E, a: ns.Norm, b: ns.Norm, lam: float, eps: float,
                   eta: float, seed: int, f_lip: Optional[float] = None):
    """Push the Jacobian integral of f over E up to eta * lam * H^n(E).

    Stages: fit an affine map to f on each grid cell in E (_inflate_on_grid);
    the grid is E's lattice (a box is one cell) with one-cell axes split in
    two, and every axis that stays within 64 cells doubles while some fit
    is too coarse, so the grid is fixed from the fits before any search.  Then nudge
    each fit to full rank and generic position, certify an inflation of
    the rescaled fit (16 restarts for a non-Euclidean pair), inflate it
    with per-cell exactness, and glue all patches into f once.  Cores keep
    at least 0.9 of their cell's width.  Returns (glued map, report); the
    achieved integral is jacobian_integral's sum on the glued map: the
    inflated cores exactly, the blend bands not at all, so it is a
    certified lower bound.  The domain norm a must be Euclidean or lp, the
    norms whose distance to a box the glue takes by clamping; any other is
    refused before anything is built.  A build whose zigzags
    exceed _MAX_GRID_SEGMENTS segments in all stops with a NumericalFailure.

    ``f_lip`` is Lip(f) from a_E to b when the caller knows it (the CLI
    passes the exact constant of its zero or affine maps); without it,
    Lip(f) is read by _sampled_lipschitz, a lower bound.
    """
    if not (0 <= eta < 1):
        raise PreconditionError("eta must lie in [0, 1)")
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if not lam >= 0:
        raise PreconditionError(f"lam must be nonnegative, got {lam}")
    if a.dim > b.dim:
        raise PreconditionError("requires n <= m")
    if a.kind not in _CLAMP_KINDS:
        raise PreconditionError(f"inflate_on_set needs a euclidean or lp domain norm, "
                                f"got {a.kind!r}: the glue measures distances to box cores")
    n = a.dim

    E = as_domain(E)
    box = E.box
    measure_E = E.measure()
    target = eta * lam * measure_E
    if measure_E == 0.0:
        report = InflateReport(0.0, target, 0.0, 0.0, 0.0, 0.0, (0,) * n, 0.9, 1.0,
                               lam, eta, eps, seed, False, 0)
        return None, report

    fbatch = fbatch_orig = _as_batch(f, n)
    est_lip = f_lip if f_lip is not None else _sampled_lipschitz(fbatch, E, a, b, seed)
    if not est_lip <= 1.0 + 1e-6:
        raise PreconditionError(f"Lip(f) ~ {est_lip} >= 1")

    L0, sigma_eff, delta_glue = _eps_scales(fbatch, box, b, eta, eps, est_lip, seed)
    work_scale = min(1.0, L0 / max(est_lip, 1e-12))
    prescaled = work_scale < 1.0
    if prescaled:
        inner = fbatch
        fbatch = lambda xs: work_scale * inner(xs)

    grid = tuple(max(int(c), 2) for c in E.shape)
    while (rows := _inflate_on_grid(fbatch, box, E, b, sigma_eff, delta_glue, grid)) is None:
        if 2 * min(grid) > 64:
            raise NumericalFailure(f"affine fits do not converge at {max(grid)} cells per axis")
        grid = tuple(2 * c if 2 * c <= 64 else c for c in grid)

    patch_maps = []
    lip_cells = 0.0
    segments = 0
    for lin_idx, idx, cell, _core, rho, M_fit, c_fit in rows:
        budget = delta_glue * rho
        M_i = _nudged(M_fit, 0.20 * budget, cell, a, b, L0, rng_for(seed, 4242, lin_idx))
        cert = inflation_search(LinearMap(M_i / L0, a, b), lam, restarts=16,
                                seed=seed + 101 * lin_idx)
        if cert is None:
            raise NumericalFailure(f"no inflation certificate for cell {idx}")
        g_i = inflate_affine(LinearMap(M_i, a, b), cert, cell, 0.45 * budget,
                             offset=c_fit, lip_scale=L0)
        segments += sum(curve.segment_count for curve in g_i.curves)
        if segments > _MAX_GRID_SEGMENTS:
            raise NumericalFailure(f"zigzag resolution guard: {segments} segments after "
                                   f"{len(patch_maps) + 1} of {len(rows)} cells, grid {grid}")
        patch_maps.append(g_i)
        lip_cells = max(lip_cells, g_i.declared_lip)

    spec = PatchSpec(tuple(row[3] for row in rows), tuple(row[4] for row in rows),
                     tuple(patch_maps), fbatch, delta_glue, a, b)
    glued = glue_patches(spec, L0, seed=seed)
    achieved = _cell_measure_sum(glued, E, lambda vol: vol, "jacobian_integral")

    probes = sample_box(box, 10_000, rng_for(seed, 9090))
    sup_dist = float(np.max(ns._eval_many(
        b, glued.eval_many(probes) - fbatch_orig(probes))))

    if achieved < target - 1e-9:
        raise NumericalFailure(f"achieved integral {achieved} below target {target}")
    return glued, InflateReport(
        achieved_integral=float(achieved),
        target_integral=float(target),
        domain_measure=float(measure_E),
        sup_distance=sup_dist,
        lip_cells_exact=float(lip_cells),
        lip_glue_bound=float(L0 + 4.0 * delta_glue),
        cell_grid=grid,
        sigma=float(sigma_eff),
        lip_scale=float(L0),
        lam=float(lam),
        eta=float(eta),
        eps=float(eps),
        seed=int(seed),
        prescaled=bool(prescaled),
        patch_count=len(rows),
    )


def _eps_scales(fbatch: Callable, box: np.ndarray, b: ns.Norm, eta: float, eps: float,
                est_lip: float, seed: int) -> tuple:
    """(L0, sigma, delta_glue) of inflate_on_set, the only values of its build that eps reaches.

    Two eps with equal scales build the same glued map.  The core-measure
    requirement is split between the Lipschitz headroom L0 < 1 of the
    rescaled fits and the shrink factor sigma of the cores: the counted
    integral is at least (L0 * sigma)^n * lam * H(E).  An f with
    est_lip > L0 is pre-scaled to Lipschitz constant L0, which charges
    (1 - scale) * sup|f| against the eps budget.
    """
    n = box.shape[0]
    target_core = min(eta + 0.35 * (1.0 - eta), 0.995)
    L0 = max(target_core ** (1.0 / (2.0 * n)), 0.3)
    if est_lip > L0:
        sup_f = float(np.max(ns._eval_many(b, fbatch(sample_box(box, 512, rng_for(seed, 31))))))
        if sup_f > 1e-12:
            L0 = max(L0, min(1.0 - 1e-4, 1.0 - 0.45 * eps / sup_f))
    sigma = max(0.9, target_core ** (1.0 / n) / L0)  # < 1: L0 >= target_core^(1/2n)
    return L0, sigma, min(0.45 * eps, 0.245 * (1.0 - L0))


def _as_batch(f: Callable, n: int) -> Callable:
    """The batch form of f, returning float arrays: the one adapter for map arguments.

    f may be a piecewise-affine or glued map, a batch callable, or a
    single-point callable.  f is taken as a batch callable when it maps a
    (2, n) probe of two distinct points with nonzero coordinates to two
    rows, unless f called on each point alone returns rows of that shape
    that differ from them.  A row count alone does not tell:
    x -> (x_0, 0.5 x_1) also returns two rows on a (2, 2) input.  The
    single-point form takes a lone point as a batch of one, so it is
    taken for a batch callable when adapted again.
    """
    if isinstance(f, (PiecewiseAffineMap, GluedMap)):
        return f.eval_many
    batch = lambda xs: np.asarray(f(xs), dtype=float)  # noqa: E731
    probe = np.stack([np.linspace(0.3, 0.7, n), np.linspace(0.6, 0.2, n)])
    try:
        out = batch(probe)
    except Exception:
        out = None
    if out is not None and out.ndim == 2 and out.shape[0] == 2:
        try:
            rows = [np.asarray(f(x), dtype=float) for x in probe]
        except (IndexError, TypeError, ValueError):
            return batch
        if any(row.shape != out.shape[1:] for row in rows) or \
                np.allclose(rows, out, rtol=1e-12, atol=1e-12):
            return batch
    return lambda xs: np.stack([np.asarray(f(x), dtype=float) for x in np.atleast_2d(xs)])


def _sample_pairs(E: GridSubset, count: int, rng: np.random.Generator):
    """``count`` point pairs (xs, ys) in E.

    On a lattice of several occupied cells both points of a pair lie in one
    cell, drawn uniformly among the cells; on one cell (a box) the pairs
    are independent draws over the whole cell.
    """
    cells = E.cell_boxes
    if len(cells) == 1:
        return sample_box(cells[0], count, rng), sample_box(cells[0], count, rng)
    pts = np.stack([sample_box(cells[int(rng.integers(0, len(cells)))], 2, rng)
                    for _ in range(count)])
    return pts[:, 0], pts[:, 1]


def _sampled_lipschitz(fbatch: Callable, E, a: ns.Norm, b: ns.Norm, seed: int,
                       pairs: int = 2000) -> float:
    """Largest quotient ||f(x) - f(y)||_b / ||x - y||_a over sampled pairs: a lower bound on Lip(f).

    The one Lipschitz sampler.  It draws ``pairs`` pairs in E from the
    stream rng_for(seed, 51) (see _sample_pairs), and with each pair (x, y)
    the near pair (x, x + 1e-4 diam (y - x) / ||y - x||_a), where diam is
    the a-diameter of E's bounding box.  fbatch is a batch callable.
    """
    E = as_domain(E)
    xs, ys = _sample_pairs(E, pairs, rng_for(seed, 51))
    diam = float(ns.norm_eval(a, E.box[:, 1] - E.box[:, 0]))
    near = xs + (ys - xs) * (1e-4 * diam / np.maximum(
        ns._eval_many(a, ys - xs), 1e-300))[:, None]
    xs = np.concatenate([xs, xs], axis=0)
    ys = np.concatenate([ys, near], axis=0)
    da = ns._eval_many(a, xs - ys)
    keep = da > 1e-14
    quot = ns._eval_many(b, fbatch(xs[keep]) - fbatch(ys[keep])) / da[keep]
    return float(np.max(quot)) if quot.size else 0.0


def _inflate_on_grid(fbatch, box, subset, b, sigma, delta_glue, grid):
    """Fit stage of inflate_on_set on the grid of ``grid`` cells per axis over ``box``.

    The grid refines E's lattice (a box is one cell); one row (lin_idx, idx, cell,
    core, rho, M_fit, c_fit) per grid cell whose cell of E is occupied, with lin_idx
    the cell's row-major index in the full grid, and (M_fit, c_fit) the least-squares
    fit to f on a 5^n stencil; None when some fit misses f by more than 0.30
    delta_glue rho, that is when the grid is too coarse.
    """
    refine = np.asarray(grid) // subset.shape
    lattice = GridSubset(box, grid, np.kron(subset.mask, np.ones(refine, dtype=bool)))
    rho = min(1.0, 0.9 * float(np.min((1.0 - sigma) * 0.5 * lattice.cell_widths)))
    if rho <= 0:
        raise NumericalFailure("cell too small for a positive glue radius")
    budget = delta_glue * rho
    rows = []
    for index, cell in zip(np.argwhere(lattice.mask), lattice.cell_boxes):
        idx = tuple(index.tolist())
        lin_idx = int(np.ravel_multi_index(idx, grid))
        stencil = grid_points(shrink_box(cell, 0.999), 5)
        values = fbatch(stencil)
        M_fit, c_fit = _affine_fit(stencil, values)
        fit_err = float(np.max(ns._eval_many(b, values - stencil @ M_fit.T - c_fit)))
        if fit_err > 0.30 * budget:
            return None
        rows.append((lin_idx, idx, cell, shrink_box(cell, sigma), rho, M_fit, c_fit))
    return rows


def _affine_fit(points: np.ndarray, values: np.ndarray):
    design = np.concatenate([points, np.ones((points.shape[0], 1))], axis=1)
    sol, *_ = np.linalg.lstsq(design, values, rcond=None)
    M = sol[:-1, :].T
    c = sol[-1, :]
    return M, c


def _nudged(M, budget, cell, a, b, L0, rng) -> np.ndarray:
    """Full-rank lift + small random image rotation, within the sup budget.

    The nudge changes values by (M' - M) x over the cell, so the budget
    is divided by the largest absolute coordinate norm over the cell,
    not by the cell half-width.
    """
    m = M.shape[0]
    rad = float(np.max(np.linalg.norm(grid_points(cell, 2), axis=1)))
    zeta_cap = 0.5 * budget / max(rad, 1e-12)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    zeta = min(max(zeta_cap, 1e-12), 0.05 * L0, 0.5 * L0)
    s_lift = np.maximum(s, zeta)
    M1 = (U * s_lift) @ Vt
    # generic position: rotate the image plane by a tiny seeded rotation
    angle = min(1e-3, 0.25 * budget / max(rad * max(np.max(s_lift), 1e-12), 1e-12))
    S = rng.standard_normal((m, m))
    S = 0.5 * (S - S.T)
    from scipy.linalg import expm

    R = expm(angle * S / max(np.linalg.norm(S, 2), 1e-12))
    M2 = R @ M1
    nrm = operator_norm(LinearMap(M2, a, b))
    if nrm > L0:
        M2 = M2 * (L0 / nrm)
    if not is_full_rank(M2):
        raise NumericalFailure("full-rank nudge failed")
    return M2
