"""Axis-aligned boxes and uniform grid subsets of R^n.

A box is an (n, 2) array of [low, high] rows, and a :class:`GridSubset`
is a uniform grid over a box with a boolean occupancy mask.  Every set
E that the desk-scale operations measure is a GridSubset: as_domain
takes a box to its one-cell lattice, whose one cell is the box bit for
bit.  All measure computations on them are exact (products and clipped
overlaps of intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        mask = np.array(self.mask, dtype=bool)  # a read-only copy, so cell_boxes stays true to it
        if mask.shape != tuple(self.shape):
            raise PreconditionError("mask shape does not match grid shape")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def cell_widths(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / np.asarray(self.shape, dtype=float)

    def measure(self) -> float:
        return float(np.count_nonzero(self.mask) * np.prod(self.cell_widths))

    def _cells_at(self, idx: np.ndarray) -> np.ndarray:
        """The cells at indices idx (..., n) as (..., n, 2) boxes.  Cell i ends where
        cell i + 1 starts, at lo + (i + 1) w, bit for bit, and each axis's last cell
        on the box's high face, which lo + n w can miss by an ulp."""
        lo = self.box[:, 0] + idx * self.cell_widths
        hi = self.box[:, 0] + (idx + 1) * self.cell_widths
        last = idx == np.asarray(self.shape) - 1
        return np.stack([lo, np.where(last, self.box[:, 1], hi)], axis=-1)

    def cell_box(self, index) -> np.ndarray:
        return self._cells_at(np.asarray(index, dtype=int))

    @cached_property
    def cell_boxes(self) -> np.ndarray:
        """The occupied cells as one read-only (P, n, 2) array, in np.argwhere order."""
        boxes = self._cells_at(np.argwhere(self.mask))
        boxes.flags.writeable = False
        return boxes

    def cells(self):
        """Yield (index, box) for every occupied cell."""
        for idx, cell in zip(np.argwhere(self.mask), self.cell_boxes):
            yield tuple(idx), cell

    @staticmethod
    def full(box, shape) -> "GridSubset":
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        return GridSubset(as_box(box), shape, np.ones(shape, dtype=bool))

    @staticmethod
    def empty(box, shape) -> "GridSubset":
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        return GridSubset(as_box(box), shape, np.zeros(shape, dtype=bool))


def as_domain(domain) -> GridSubset:
    """E as a GridSubset: a GridSubset as it is, a box as its one-cell lattice."""
    if isinstance(domain, GridSubset):
        return domain
    box = as_box(domain)
    return GridSubset.full(box, (1,) * box.shape[0])
