"""Norms on R^n and their geometric queries.

A :class:`Norm` is a symmetric convex gauge described by one of four
kinds: ``euclidean``, ``lp`` (any p in [1, inf]), ``polytopal`` (the
gauge of the convex hull of a finite symmetric spanning vertex set) and
``transformed`` (a base norm pushed forward through an invertible
linear map W, so that |x|_{W(a)} = |W^-1 x|_a and W(B_a) = B_{W(a)}).

The queries answered here: evaluation, the dual norm, the vertices of
a polytopal ball, the Lebesgue volume of the unit ball (a closed form
for every kind, never sampled), the normalizing factor 2^n / H^n(B)
that converts the Euclidean-induced Hausdorff measure into the
norm-induced one, and extremal / strongly-extremal analysis of
boundary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, PreconditionError
from .geometry import float_array, full_rank

BOUNDARY_RTOL = 1e-9  # relative tolerance deciding "u lies on the unit sphere"

_POLYGON_VERTICES = 1024  # inscribed polygon of an operator-norm bracket, n = 2
_HULL_LATTICE = 12  # cube-surface lattice spacing 1/12 of the bracket, n = 3
_C_ROUNDING = 1e-12  # relative round-up of a bracket's c, far above the float error of its facets
_DUAL_CUBE_MAX_DIM = 12  # largest l1 ball whose dual cube (2^dim vertices) the duality paths list


@dataclass(frozen=True)
class Norm:
    """A norm on R^dim.  Instances are immutable; all queries are pure."""

    dim: int
    kind: str  # euclidean | lp | polytopal | transformed
    p: Optional[float] = None
    vertices: Optional[np.ndarray] = None
    base: Optional["Norm"] = None
    W: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("norm dimension must be >= 1")
        if self.kind == "euclidean":
            pass
        elif self.kind == "lp":
            if self.p is None or (self.p != math.inf and not self.p >= 1):
                raise PreconditionError("lp norm requires p in [1, inf]")
        elif self.kind == "polytopal":
            verts = float_array(self.vertices, "polytopal vertices", (None, self.dim))
            _check_symmetric_spanning(verts)
            object.__setattr__(self, "vertices", verts)
        elif self.kind == "transformed":
            if self.base is None or self.base.dim != self.dim:
                raise PreconditionError("transformed norm needs a base norm of the same dim")
            W = float_array(self.W, "transformed W", (self.dim, self.dim))
            if not full_rank(np.linalg.svd(W, compute_uv=False)):
                raise PreconditionError("W must be invertible")
            object.__setattr__(self, "W", W)
        else:
            raise PreconditionError(f"unknown norm kind {self.kind!r}")

    # -- internal cached geometry ------------------------------------

    @cached_property
    def _W_inv(self) -> np.ndarray:
        return np.linalg.inv(self.W)

    @cached_property
    def _hull(self):
        """The scipy.spatial.ConvexHull of a polytopal ball's vertex list, dim >= 2."""
        from scipy.spatial import ConvexHull

        return ConvexHull(self.vertices)

    @cached_property
    def _facets(self) -> tuple:
        """Facet description (A, c) of the polytopal unit ball: B = {x : A x <= c}."""
        verts = self.vertices
        if self.dim == 1:
            a = float(np.max(np.abs(verts)))
            return np.array([[1.0], [-1.0]]), np.array([a, a])
        eq = self._hull.equations  # rows [normal, offset] with normal.x + offset <= 0 inside
        A = eq[:, :-1]
        c = -eq[:, -1]
        if np.any(c <= 1e-12 * np.max(c)):
            raise PreconditionError("polytopal vertex hull does not contain 0 in its interior")
        return A, c

    @cached_property
    def _ball_vertices(self) -> Optional[np.ndarray]:
        if self.kind == "polytopal":
            verts = self._extreme_points
        elif self.kind == "lp" and self.p == 1:
            eye = np.eye(self.dim)
            verts = np.concatenate([eye, -eye], axis=0)
        elif self.kind == "lp" and self.p == math.inf:
            if self.dim > 20:
                raise PreconditionError("cube vertex enumeration guard: dim > 20")
            verts = np.array(list(product((-1.0, 1.0), repeat=self.dim)))
        elif self.kind == "transformed":
            base = ball_vertices(self.base)
            if base is None:
                return None
            verts = base @ self.W.T
        else:
            return None
        verts.setflags(write=False)
        return verts

    @cached_property
    def _dual(self) -> "Norm":
        if self.kind == "euclidean":
            return self
        if self.kind == "lp":
            if self.p == 1:
                return linf(self.dim)
            return lp(self.dim, 1.0 if self.p == math.inf else self.p / (self.p - 1.0))
        if self.kind == "polytopal":
            A, c = self._facets
            verts = A / c[:, None]
            return polytopal(np.concatenate([verts, -verts]))
        return transformed(dual(self.base), self._W_inv.T)

    @cached_property
    def _inscribed(self) -> tuple:
        """Vertices P of a polytope inside the unit ball B, and c >= 1 with B inside cP.

        B lies in cP exactly when every facet {x : N.x <= N.p} of P has
        |N|_* <= c N.p, the support of B in direction N being |N|_*.  For
        n = 2, P is the polygon of _POLYGON_VERTICES equal-angle directions
        scaled onto the unit sphere; for n = 3, the hull of the cube-surface
        lattice points of spacing 1 / _HULL_LATTICE scaled onto it
        (scipy.spatial is imported only there).  c is rounded up by
        _C_ROUNDING.  Larger n raises: the lattice hulls that fit in memory
        leave c - 1 between 2e-2 and 2e-1 for n = 4 to 6.
        """
        n = self.dim
        if n == 1:
            ends = np.array([[1.0], [-1.0]])
            return ends / _eval_many(self, ends)[:, None], 1.0
        if n == 2:
            theta = np.linspace(0.0, 2.0 * math.pi, _POLYGON_VERTICES, endpoint=False)
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            P = dirs / _eval_many(self, dirs)[:, None]
            edges = np.roll(P, -1, axis=0) - P
            normals = np.column_stack([edges[:, 1], -edges[:, 0]])  # outward: P runs counter-clockwise
            offsets = np.sum(normals * P, axis=1)
        elif n == 3:
            from scipy.spatial import ConvexHull

            axis = np.arange(-_HULL_LATTICE, _HULL_LATTICE + 1) / _HULL_LATTICE
            grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
            dirs = grid[np.max(np.abs(grid), axis=1) == 1.0]
            hull = ConvexHull(dirs / _eval_many(self, dirs)[:, None])
            P = hull.points[hull.vertices]
            normals, offsets = hull.equations[:, :-1], -hull.equations[:, -1]
        else:
            raise PreconditionError(f"operator-norm bracket guard: dim {n} > 3")
        c = float(np.max(_eval_many(dual(self), normals) / offsets)) * (1.0 + _C_ROUNDING)
        return P, c

    @cached_property
    def _extreme_points(self) -> np.ndarray:
        """True vertex set of the polytopal ball (redundant list entries dropped)."""
        verts = self.vertices
        if self.dim == 1:
            a = float(np.max(np.abs(verts)))
            return np.array([[a], [-a]])
        return verts[self._hull.vertices]


def _check_symmetric_spanning(verts: np.ndarray) -> None:
    n = verts.shape[1]
    if len(verts) < n or not full_rank(np.linalg.svd(verts, compute_uv=False)):
        raise PreconditionError("polytopal vertices do not span R^n")
    scale = float(np.max(np.abs(verts)))
    for v in verts:
        d = np.min(np.linalg.norm(verts + v, axis=1))
        if d > 1e-9 * scale:
            raise PreconditionError("polytopal vertex list is not symmetric (missing -v)")


# -- constructors ------------------------------------------------------


def euclidean(dim: int) -> Norm:
    return Norm(dim, "euclidean")


def lp(dim: int, p: float) -> Norm:
    return Norm(dim, "lp", p=float(p))


def linf(dim: int) -> Norm:
    return lp(dim, math.inf)


def l1(dim: int) -> Norm:
    return lp(dim, 1.0)


def polytopal(vertices) -> Norm:
    verts = float_array(vertices, "polytopal vertices", (None, None))
    return Norm(verts.shape[1], "polytopal", vertices=verts)


def transformed(base: Norm, W) -> Norm:
    return Norm(base.dim, "transformed", base=base, W=W)


# -- evaluation --------------------------------------------------------


def _is_euclidean(norm: Norm) -> bool:
    return norm.kind == "euclidean" or (norm.kind == "lp" and norm.p == 2)


def norm_eval(norm: Norm, x) -> float:
    """Evaluate |x| under the norm.  Exact for every supported kind."""
    x = np.asarray(x, dtype=float)
    if x.shape != (norm.dim,):
        raise DimensionMismatch(f"expected a vector of dim {norm.dim}, got shape {x.shape}")
    return float(_eval_many(norm, x[None, :])[0])


def _eval_many(norm: Norm, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (k, dim) array."""
    if norm.kind == "euclidean":
        return np.linalg.norm(xs, axis=1)
    if norm.kind == "lp":
        if norm.p == math.inf:
            return np.max(np.abs(xs), axis=1)
        if norm.p == 1:
            return np.sum(np.abs(xs), axis=1)
        if norm.p == 2:
            return np.linalg.norm(xs, axis=1)
        return np.sum(np.abs(xs) ** norm.p, axis=1) ** (1.0 / norm.p)
    if norm.kind == "polytopal":
        A, c = norm._facets
        return np.max((xs @ A.T) / c, axis=1).clip(min=0.0)
    if norm.kind == "transformed":
        return _eval_many(norm.base, xs @ norm._W_inv.T)
    raise PreconditionError(f"unknown norm kind {norm.kind!r}")


def eval_many(norm: Norm, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != norm.dim:
        raise DimensionMismatch(f"expected shape (k, {norm.dim}), got {xs.shape}")
    return _eval_many(norm, xs)


def ball_vertices(norm: Norm) -> Optional[np.ndarray]:
    """Extreme points of the unit ball when it is a polytope, else None.

    Used for exact operator norms: a convex function on the ball attains
    its maximum at an extreme point.  The array is cached on the norm and
    read-only.
    """
    return norm._ball_vertices


def dual(norm: Norm) -> Norm:
    """The dual norm |y|_* = max of <y, x> over the unit ball, cached on the norm.

    lp -> lq with 1/p + 1/q = 1 (1 <-> inf), Euclidean -> itself, a
    polytope with facets A x <= c -> the polytope with vertices +-A_i / c_i,
    and W(base) -> W^-T(dual(base)).
    """
    return norm._dual


def _dual_vertices(norm: Norm) -> Optional[np.ndarray]:
    """ball_vertices(dual(norm)) when that is a polytope with few vertices, else None.

    Only an l1 ball has a dual with exponentially many vertices, the
    2^dim cube; above _DUAL_CUBE_MAX_DIM the duality paths give way to
    the domain side.
    """
    base = norm
    while base.kind == "transformed":
        base = base.base
    if base.kind == "lp" and base.p == 1 and base.dim > _DUAL_CUBE_MAX_DIM:
        return None
    return ball_vertices(dual(norm))


# -- volumes -----------------------------------------------------------


@dataclass(frozen=True)
class VolumeReport:
    value: float
    error_bound: float  # always 0: every volume is a closed form
    method: str


def _euclidean_ball_volume(n: int) -> float:
    if n == 1:
        return 2.0  # the formula reads 1.9999999999999998: math.gamma(1.5) rounds
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _lp_ball_volume(n: int, p: float) -> float:
    """Dirichlet's formula (2 Gamma(1 + 1/p))^n / Gamma(1 + n/p); p = inf gives 2^n exactly."""
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** n / math.gamma(1.0 + n / p)


def _volume(norm: Norm) -> tuple:
    """(volume, method) of the unit ball; may overflow."""
    n = norm.dim
    if _is_euclidean(norm):
        return _euclidean_ball_volume(n), "closed-form"
    if norm.kind == "lp" and norm.p == 1:
        return 2.0 ** n / math.factorial(n), "closed-form"
    if norm.kind == "lp":
        return _lp_ball_volume(n, norm.p), "closed-form"
    if norm.kind == "polytopal":
        if n == 1:
            return 2.0 * float(np.max(np.abs(norm.vertices))), "triangulation"
        return float(norm._hull.volume), "triangulation"
    if norm.kind == "transformed":
        value, method = _volume(norm.base)
        return value * abs(float(np.linalg.det(norm.W))), method
    raise PreconditionError(f"unknown norm kind {norm.kind!r}")


def _finite_positive(value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise NumericalFailure(f"ball volume guard: {value!r} is not a finite positive float")
    return value


def ball_volume_report(norm: Norm) -> VolumeReport:
    """Lebesgue volume of the unit ball with a quality tag; exact on every path.

    Closed forms: pi^(n/2) / Gamma(n/2 + 1) for euclidean and lp with
    p = 2, 2^n / n! for p = 1, Dirichlet's formula for every other p
    (p = inf included), hull triangulation for polytopal, and |det W|
    scaling for transformed.  Nothing is sampled, so error_bound is 0.
    A volume outside the float range (an overflow on the way, a zero or
    an infinity) raises NumericalFailure ("ball volume guard").
    """
    try:
        value, method = _volume(norm)
    except OverflowError as exc:
        raise NumericalFailure(f"ball volume guard: {exc}") from exc
    return VolumeReport(_finite_positive(value), 0.0, method)


def ball_volume(norm: Norm) -> float:
    return ball_volume_report(norm).value


def vol_of_norm(norm: Norm) -> float:
    """2^n / H^n(B): converts H^n into the norm-induced Hausdorff measure; guarded like the volume."""
    volume = ball_volume(norm)
    try:
        ratio = 2.0 ** norm.dim / volume
    except OverflowError as exc:
        raise NumericalFailure(f"ball volume guard: {exc}") from exc
    return _finite_positive(ratio)


# -- extremal analysis -------------------------------------------------


@dataclass(frozen=True)
class ExtremalReport:
    point: np.ndarray
    is_boundary: bool
    is_extremal: bool
    is_strongly_extremal: bool
    witness_projection: Optional[np.ndarray] = field(default=None)


def analyze_extremal(norm: Norm, u) -> ExtremalReport:
    """Classify a unit-sphere point of the ball.

    A point is extremal when it is not the midpoint of a nondegenerate
    segment contained in the ball, and strongly extremal when some
    supporting functional touches the ball only there.  For the
    supported kinds both can be decided exactly; when the point is
    strongly extremal the returned witness is a rank-one projection P
    onto span{u} with the property that P(w) -> u over the ball forces
    w -> u.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (norm.dim,):
        raise DimensionMismatch(f"expected a vector of dim {norm.dim}, got {u.shape}")
    value = norm_eval(norm, u)
    if abs(value - 1.0) > BOUNDARY_RTOL:
        raise PreconditionError(f"|u| = {value} is not on the unit sphere (rtol {BOUNDARY_RTOL})")

    extremal, strongly, functional = _classify(norm, u)
    witness = None
    if strongly:
        witness = np.outer(u, functional)  # P w = <x*, w> u, with <x*, u> = 1
    return ExtremalReport(u, True, extremal, strongly, witness)


def _classify(norm: Norm, u: np.ndarray):
    """Return (is_extremal, is_strongly_extremal, supporting functional or None)."""
    n = norm.dim
    if _is_euclidean(norm):
        return True, True, u / float(u @ u)
    if norm.kind == "lp" and 1 < norm.p < math.inf:
        # smooth strictly convex ball: every boundary point is exposed
        x_star = np.sign(u) * np.abs(u) ** (norm.p - 1.0)
        return True, True, x_star / float(x_star @ u)
    if norm.kind == "lp" and norm.p == math.inf:
        at_one = np.abs(np.abs(u) - 1.0) <= 10 * BOUNDARY_RTOL
        if np.all(at_one):  # cube vertex
            x_star = np.sign(u) / n
            return True, True, x_star
        return False, False, None  # interior point of a face: a segment midpoint
    if norm.kind == "lp" and norm.p == 1:
        support = np.abs(u) > 10 * BOUNDARY_RTOL
        if np.count_nonzero(support) == 1:
            x_star = np.sign(u)  # e.g. e_k for u = e_k
            return True, True, x_star
        return False, False, None
    if norm.kind == "polytopal":
        ext = norm._extreme_points
        scale = float(np.max(np.linalg.norm(ext, axis=1)))
        if np.min(np.linalg.norm(ext - u, axis=1)) <= 1e-8 * scale:
            # every polytope vertex is exposed: average the active facet normals
            A, c = norm._facets
            active = np.abs(A @ u - c) <= 1e-9 * np.maximum(c, 1.0)
            x_star = np.sum(A[active] / c[active, None], axis=0)
            return True, True, x_star / float(x_star @ u)
        return False, False, None
    if norm.kind == "transformed":
        extremal, strongly, functional = _classify(norm.base, norm._W_inv @ u)
        if functional is None:
            return extremal, strongly, None
        return extremal, strongly, norm._W_inv.T @ functional
    raise PreconditionError(f"unknown norm kind {norm.kind!r}")


# -- serialization -----------------------------------------------------


def norm_to_json(norm: Norm) -> dict:
    if norm.kind == "euclidean":
        kind = "euclidean"
    elif norm.kind == "lp":
        kind = {"lp": "inf" if norm.p == math.inf else norm.p}
    elif norm.kind == "polytopal":
        kind = {"polytopal": norm.vertices.tolist()}
    elif norm.kind == "transformed":
        kind = {"transformed": {"base": norm_to_json(norm.base), "W": norm.W.tolist()}}
    else:
        raise PreconditionError(f"unknown norm kind {norm.kind!r}")
    return {"dim": norm.dim, "kind": kind}


_SHORTHAND = {"euclidean": euclidean, "linf": linf, "l1": l1}


def norm_from_json(data: dict) -> Norm:
    """Parse {"dim": n, "kind": k}; any malformed body raises PreconditionError.

    k is "euclidean", "linf", "l1", {"lp": p or "inf"}, {"polytopal": rows}
    or {"transformed": {"base": norm JSON, "W": rows}}.
    """
    try:
        dim = int(data["dim"])
        kind = data["kind"]
        if isinstance(kind, str) and kind in _SHORTHAND:
            return _SHORTHAND[kind](dim)
        if not isinstance(kind, dict):
            raise PreconditionError(f"invalid norm kind {kind!r}")
        if "lp" in kind:
            p = kind["lp"]
            return lp(dim, math.inf if p == "inf" else float(p))
        if "polytopal" in kind:
            return Norm(dim, "polytopal", vertices=kind["polytopal"])
        if "transformed" in kind:
            body = kind["transformed"]
            return transformed(norm_from_json(body["base"]), body["W"])
    except PreconditionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"invalid norm JSON: {exc!r}") from exc
    raise PreconditionError(f"invalid norm kind {kind!r}")
