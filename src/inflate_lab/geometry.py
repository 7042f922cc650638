"""Axis-aligned boxes and uniform grid subsets of R^n.

These are the only domain shapes the desk-scale operations work on: a
box is an (n, 2) array of [low, high] rows, and a :class:`GridSubset`
is a uniform grid over a box with a boolean occupancy mask.  All
measure computations on them are exact (products and clipped overlaps
of intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, PreconditionError

RANK_RTOL = 1e-10  # sigma_min > RANK_RTOL * sigma_max decides "full rank"


def full_rank(s):
    """The one full-rank rule, on singular values ``s`` (largest first, last
    axis; a stack gives one verdict per matrix): sigma_min > RANK_RTOL *
    sigma_max.  Relative, so rescaling a matrix never changes the verdict."""
    return s[..., -1] > RANK_RTOL * np.maximum(s[..., 0], 1e-300)


def float_array(value, what: str, shape: Optional[tuple] = None) -> np.ndarray:
    """``value`` (nested lists) as a float array: the one gate for arrays from
    outside the program.

    Ragged or non-numeric input and non-finite entries raise
    PreconditionError, and a shape other than ``shape`` (``None`` matches
    any length) raises DimensionMismatch; each message names ``what``.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{what} must be a rectangular array of numbers") from exc
    if shape is not None and (arr.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, arr.shape))):
        raise DimensionMismatch(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{what} must be finite")
    return arr


def as_box(box) -> np.ndarray:
    b = float_array(box, "box", (None, 2))
    if np.any(b[:, 1] < b[:, 0]):
        raise PreconditionError("box has high < low")
    return b


def box_measure(box) -> float:
    b = as_box(box)
    return float(np.prod(b[:, 1] - b[:, 0]))


def box_overlap(box_a, box_b) -> float:
    """Lebesgue measure of the intersection of two boxes."""
    a, b = as_box(box_a), as_box(box_b)
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    return float(np.prod(np.clip(hi - lo, 0.0, None)))


def box_center(box) -> np.ndarray:
    b = as_box(box)
    return 0.5 * (b[:, 0] + b[:, 1])


def shrink_box(box, factor: float) -> np.ndarray:
    """Concentric box scaled by ``factor`` in every axis."""
    b = as_box(box)
    c = box_center(b)
    half = 0.5 * factor * (b[:, 1] - b[:, 0])
    return np.stack([c - half, c + half], axis=1)


def sample_box(box, count: int, rng: np.random.Generator) -> np.ndarray:
    b = as_box(box)
    return b[:, 0] + rng.random((count, b.shape[0])) * (b[:, 1] - b[:, 0])


def grid_points(box, per_axis: int) -> np.ndarray:
    """Regular lattice of per_axis**n points including box corners."""
    b = as_box(box)
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in b]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class GridSubset:
    """A measurable union of cells of a uniform grid over ``box``.

    ``mask`` has one boolean entry per grid cell (shape ``shape``); the
    subset is the union of the cells where the mask is true.
    """

    box: np.ndarray
    shape: tuple
    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", as_box(self.box))
        shape = np.asarray(self.shape)
        if shape.shape != (self.dim,):
            raise DimensionMismatch(f"grid shape {self.shape} must have one count per box row")
        if shape.dtype.kind not in "iu" or np.any(shape <= 0):
            raise PreconditionError(f"grid shape {self.shape} must hold positive integers")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != tuple(self.shape):
            raise PreconditionError("mask shape does not match grid shape")
        object.__setattr__(self, "mask", mask)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def cell_widths(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / np.asarray(self.shape, dtype=float)

    def measure(self) -> float:
        return float(np.count_nonzero(self.mask) * np.prod(self.cell_widths))

    def cell_box(self, index) -> np.ndarray:
        idx = np.asarray(index, dtype=int)
        lo = self.box[:, 0] + idx * self.cell_widths
        return np.stack([lo, lo + self.cell_widths], axis=1)

    def cells(self):
        """Yield (index, box) for every occupied cell."""
        for idx in np.argwhere(self.mask):
            yield tuple(idx), self.cell_box(idx)

    def overlap(self, box) -> float:
        """Exact measure of the intersection of the subset with a box."""
        other = as_box(box)
        total = 0.0
        for _, cell in self.cells():
            total += box_overlap(cell, other)
        return total

    @staticmethod
    def full(box, shape) -> "GridSubset":
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        return GridSubset(as_box(box), shape, np.ones(shape, dtype=bool))

    @staticmethod
    def empty(box, shape) -> "GridSubset":
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        return GridSubset(as_box(box), shape, np.zeros(shape, dtype=bool))


def as_domain(domain) -> "GridSubset | np.ndarray":
    """Accept a box or a GridSubset; normalize boxes to arrays."""
    if isinstance(domain, GridSubset):
        return domain
    return as_box(domain)


def domain_measure(domain) -> float:
    d = as_domain(domain)
    return d.measure() if isinstance(d, GridSubset) else box_measure(d)


def domain_box(domain) -> np.ndarray:
    d = as_domain(domain)
    return d.box if isinstance(d, GridSubset) else d
