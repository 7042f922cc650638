"""The maximal volume mv(u) and its upper semi-continuity probe.

mv_{a->b}(u) is the supremum of vol(u|V) over completions V of the
first column u that keep the operator norm of (u|V) at most 1.  It is
computed exactly (``MvResult.analytic``) in these cases:

* n = 2 and the codomain's dual ball is a listed polytope (l1, linf,
  polytopal), with an lp or polytopal domain: the feasible set is a
  polytope and mv(u) its best vertex (``_polytope_completion``);
* n = 2, a Euclidean codomain and a Euclidean or polytopal domain: a
  closed form, and a one-variable crossing problem
  (``_euclidean_completion``);
* any n, maximum-norm domain, Euclidean codomain, Euclidean-unit u:
  feasibility forces V = 0, so mv(u) = 0; and any pair at u = 0.

Everywhere else (smooth codomains other than l2, smooth domains into
non-Euclidean codomains, n >= 3, and vertex enumerations past
_MAX_EXACT_ENTRIES), and only there, a multi-start ascent gives a lower
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import normed_space as ns
from .errors import PreconditionError
from .geometry import float_array, full_rank
from .linear_analysis import LinearMap, _ray_exit, operator_norm_report, vol_matrix
from .seeding import rng_for

FEAS_TOL = 1e-9
# the exact n = 2 paths build one array of candidate maximizers against their
# constraint rows; past this many entries (l2(2) -> l1(5) and larger l1
# codomains, linf(15) and up, polytopal domains past about 80 vertex pairs)
# the ascent runs instead
_MAX_EXACT_ENTRIES = 1 << 18


def column_augment(u, V, domain_norm: Optional[ns.Norm] = None,
                   codomain_norm: Optional[ns.Norm] = None) -> LinearMap:
    """The map (u|V): e_1 -> u, e_j -> v_j, with Euclidean norms by default."""
    u = float_array(u, "u", (None,))
    V = float_array(V, "V", (len(u), None))
    m, n = V.shape[0], V.shape[1] + 1
    if n < 2:
        raise PreconditionError("column augmentation needs n >= 2")
    matrix = np.concatenate([u[:, None], V], axis=1)
    a = domain_norm if domain_norm is not None else ns.euclidean(n)
    b = codomain_norm if codomain_norm is not None else ns.euclidean(m)
    return LinearMap(matrix, a, b)


@dataclass(frozen=True)
class MvResult:
    value: float
    best_V: np.ndarray
    feasibility_gap: float  # operator norm excess of (u|best_V); <= 0 means feasible
    restarts_used: int
    analytic: bool = False  # True: value is exactly mv(u), not a lower bound


# -- feasibility scaling -----------------------------------------------------


def _norm_bracket(u: np.ndarray, V: np.ndarray, a: ns.Norm, b: ns.Norm) -> tuple:
    """(lower, upper) ends of ||(u|V)||_{a->b}; equal where the norm is exact."""
    report = operator_norm_report(np.concatenate([u[:, None], V], axis=1)[None], a, b)
    return float(report.lower[0]), float(report.values[0])


def checked_base_norm(u: np.ndarray, a: ns.Norm, b: ns.Norm) -> float:
    """The certified lower end of ||(u|0)||_{a->b}, refused above 1 + FEAS_TOL."""
    base_norm = _norm_bracket(u, np.zeros((len(u), a.dim - 1)), a, b)[0]
    if base_norm > 1.0 + FEAS_TOL:
        raise PreconditionError(f"||(u|0)|| = {base_norm} exceeds 1")
    return base_norm


def _max_feasible_scale(u: np.ndarray, V: np.ndarray, a: ns.Norm, b: ns.Norm) -> float:
    """Largest t >= 0 with ||(u|tV)|| <= 1, its certified upper end: the ray
    exit (``_ray_exit``) of (u|0) along (0|V), or 1 where V moves nothing."""
    B, W = np.zeros((2, 1, len(u), a.dim))
    B[0, :, 0], W[0, :, 1:] = u, V
    t = _ray_exit(B, W, a, b)
    return 1.0 if t == math.inf else t


def _rescaled_vol(u: np.ndarray, V: np.ndarray, a: ns.Norm, b: ns.Norm):
    t = _max_feasible_scale(u, V, a, b)
    Vt = t * V
    return vol_matrix(np.concatenate([u[:, None], Vt], axis=1)), Vt


# -- exact completions for n = 2 ---------------------------------------------
#
# vol(u|v) = |u|_2 |P v|_2 with P the projection onto u-perp, a convex
# function of v; its maximum over the convex feasible set is attained at an
# extreme point.


def _exact_completion(u: np.ndarray, a: ns.Norm, b: ns.Norm) -> Optional[np.ndarray]:
    """A maximizer v of vol(u|v) over the feasible set, or None where no exact form applies."""
    if a.dim != 2:
        return None
    if ns._is_euclidean(b):
        return _euclidean_completion(u, a)
    ys = ns._dual_vertices(b)
    if ys is None:
        return None
    return _polytope_completion(u, a, ys)


def _polytope_completion(u: np.ndarray, a: ns.Norm, ys: np.ndarray) -> Optional[np.ndarray]:
    """Best vertex of the feasible polytope when the codomain's dual ball has vertices ys.

    By duality ||(u|v)||_{a->b} = max over y of ||(y.u, y.v)||_{a*}, so v
    is feasible exactly when each y.v lies in the section of the dual
    ball of a at y.u: [lo_y, hi_y].  y and -y bound y.v to the same
    interval.  A vertex of the polytope makes m of these constraints
    active with independent y, so every vertex solves Y_S v = c for an
    m-subset S of the classes and one end of each interval; the feasible
    solutions are the vertices.
    """
    m = len(u)
    lead = ys[np.arange(len(ys)), np.argmax(ys != 0.0, axis=1)]
    Y = ys[lead > 0.0]
    k = len(Y)
    candidates = math.comb(k, m) << m
    if candidates * k > _MAX_EXACT_ENTRIES:
        return None
    ends = _dual_sections(a, Y @ u)
    if ends is None:
        return None
    lo, hi = ends
    subsets = np.array(list(combinations(range(k), m)))
    G = Y[subsets]
    regular = full_rank(np.linalg.svd(G, compute_uv=False))
    subsets, G = subsets[regular], G[regular]
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1            # (2^m, m)
    rhs = np.where(bits[None] == 1, hi[subsets][:, None], lo[subsets][:, None])
    vs = np.linalg.solve(G, rhs.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(-1, m)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(ends))))
    dots = vs @ Y.T
    feasible = np.all((dots >= lo - tol) & (dots <= hi + tol), axis=1)
    if not np.any(feasible):
        return None
    vs = vs[feasible]
    u_hat = u / np.linalg.norm(u)
    perp = vs - np.outer(vs @ u_hat, u_hat)
    return vs[int(np.argmax(np.linalg.norm(perp, axis=1)))]


def _dual_sections(a: ns.Norm, s: np.ndarray) -> Optional[tuple]:
    """(lo, hi): the beta with ||(s_i, beta)||_{a*} <= 1 form [lo_i, hi_i].

    The dual ball of a polytope with vertices x is {z : x.z <= 1}, so
    each vertex with x_2 != 0 bounds beta on one side; for lp with
    1 < p < inf the section is |beta| <= (1 - |s|^q)^(1/q).  Other
    domains (a smooth transformed norm) have no closed form here.
    """
    verts = ns.ball_vertices(a)
    if verts is not None:
        up, down = verts[verts[:, 1] > 0.0], verts[verts[:, 1] < 0.0]
        hi = np.min((1.0 - np.outer(s, up[:, 0])) / up[:, 1], axis=1)
        lo = np.max((1.0 - np.outer(s, down[:, 0])) / down[:, 1], axis=1)
        return lo, hi
    if a.kind not in ("euclidean", "lp"):
        return None
    q = 2.0 if ns._is_euclidean(a) else ns.dual(a).p
    half = np.maximum(1.0 - np.abs(s) ** q, 0.0) ** (1.0 / q)
    return -half, half


def _euclidean_completion(u: np.ndarray, a: ns.Norm) -> Optional[np.ndarray]:
    """A maximizer of vol(u|v) into a Euclidean codomain.

    Write v = alpha u/|u| + rho w with w a unit vector orthogonal to u,
    so vol(u|v) = |u| rho.  A Euclidean domain allows rho = 1 at
    alpha = 0 (the columns are orthogonal with lengths |u| <= 1 and 1).
    A polytopal domain with vertices x bounds
    |x_1 u + x_2 v|^2 = (x_1 |u| + x_2 alpha)^2 + x_2^2 rho^2 by 1, that
    is rho^2 <= F(alpha), the least of the parabolas
    1/x_2^2 - (alpha - c_x)^2 with c_x = -x_1 |u| / x_2.  F is concave,
    so its maximum sits at a parabola's peak c_x or where two parabolas
    cross, which is linear in alpha.  For the maximum-norm domain this
    gives alpha = 0 and rho = sqrt(1 - |u|^2).
    """
    u_len = float(np.linalg.norm(u))
    axis = np.zeros(len(u))
    axis[int(np.argmin(np.abs(u)))] = 1.0
    w = axis - (axis @ u) / u_len ** 2 * u
    w /= np.linalg.norm(w)
    if ns._is_euclidean(a):
        return w
    verts = ns.ball_vertices(a)
    if verts is None:
        return None
    verts = verts[verts[:, 1] > 0.0]  # x and -x give the same parabola
    peaks = -verts[:, 0] * u_len / verts[:, 1]
    heights = 1.0 / verts[:, 1] ** 2
    i, j = np.triu_indices(len(peaks), 1)
    apart = peaks[i] != peaks[j]
    i, j = i[apart], j[apart]
    crossings = (0.5 * (peaks[i] + peaks[j])
                 + (heights[i] - heights[j]) / (2.0 * (peaks[j] - peaks[i])))
    alphas = np.concatenate([peaks, crossings])
    if alphas.size * peaks.size > _MAX_EXACT_ENTRIES:
        return None
    F = np.min(heights - (alphas[:, None] - peaks) ** 2, axis=1)
    best = int(np.argmax(F))
    rho = math.sqrt(max(float(F[best]), 0.0))
    return alphas[best] / u_len * u + rho * w


# -- the optimizer -----------------------------------------------------------


def max_volume(u, a: ns.Norm, b: ns.Norm, restarts: int = 32, seed: int = 0,
               iters: int = 400) -> MvResult:
    """mv(u): exact where the module docstring lists an exact form, else a lower bound.

    u = 0 and the exact cases report ``analytic=True`` and
    ``restarts_used=0``; an exact maximizer passes through the ascent's
    feasibility projection, the ray exit of ``_max_feasible_scale``, so
    (u|V) sits on the certified boundary.
    Every other input runs ``_ascent`` and reports ``analytic=False``.
    """
    n, m = a.dim, b.dim
    u = float_array(u, "u", (m,))
    if n < 2:
        raise PreconditionError("maximal volume needs n >= 2")
    if n > m:
        raise PreconditionError("requires n <= m")
    base_norm = checked_base_norm(u, a, b)

    if not np.any(u) or (a.kind == "lp" and a.p == math.inf and ns._is_euclidean(b) and
                         abs(float(np.linalg.norm(u)) - 1.0) <= FEAS_TOL):
        # (u|V) has rank below n for u = 0, and on the unit sphere of the
        # maximum-norm-to-Euclidean pair feasibility forces V = 0: mv(u) = 0
        return MvResult(0.0, np.zeros((m, n - 1)), base_norm - 1.0, 0, analytic=True)
    exact_v = _exact_completion(u, a, b)
    if exact_v is not None:
        value, V = _rescaled_vol(u, exact_v[:, None], a, b)
        gap = _norm_bracket(u, V, a, b)[1] - 1.0
        return MvResult(float(value), V, float(gap), 0, analytic=True)
    return _ascent(u, a, b, restarts, seed, iters)


def _ascent(u: np.ndarray, a: ns.Norm, b: ns.Norm, restarts: int, seed: int,
            iters: int) -> MvResult:
    """A lower bound on mv(u): each iterate steps along the gradient of vol and
    is pulled back to the feasibility boundary by scaling V (u stays fixed)."""
    m, n = len(u), a.dim
    best_val = 0.0
    best_V = np.zeros((m, n - 1))
    for r in range(restarts):
        rng = rng_for(seed, 911, r)
        V = rng.standard_normal((m, n - 1))
        val, V = _rescaled_vol(u, V, a, b)
        step = 0.25
        for _ in range(iters):
            grad = _vol_gradient(u, V)
            gn = float(np.linalg.norm(grad))
            if gn < 1e-14 or step < 1e-9:
                break
            cand = V + step * grad / gn
            cand_val, cand_V = _rescaled_vol(u, cand, a, b)
            if cand_val > val + 1e-15:
                V, val = cand_V, cand_val
                step = min(step * 1.6, 1.0)
            else:
                step *= 0.5
        if val > best_val + 1e-15:
            best_val, best_V = val, V
    gap = _norm_bracket(u, best_V, a, b)[1] - 1.0
    value = vol_matrix(np.concatenate([u[:, None], best_V], axis=1))
    return MvResult(float(value), best_V, float(gap), restarts, analytic=False)


def _vol_gradient(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """d vol / dV = vol * [M (M^T M)^-1]_{:, 1:} for M = (u|V) = S diag(s) R^T, that is
    prod(s) * [S diag(1/s) R^T]_{:, 1:}; zero where M is rank-deficient, where
    vol's slopes along +-dV cancel by symmetry."""
    M = np.concatenate([u[:, None], V], axis=1)
    S, s, Rt = np.linalg.svd(M, full_matrices=False)
    if not full_rank(s):
        return np.zeros_like(V)
    return float(np.prod(s)) * ((S / s) @ Rt)[:, 1:]


# -- upper semi-continuity probe ---------------------------------------------


@dataclass(frozen=True)
class UscProbeReport:
    passing_eps: Optional[float]
    mv_value: float
    delta: float
    schedule: tuple
    violations: tuple  # (eps, trial index, achieved vol) triples
    under_converged: bool
    seed: int


def usc_probe(u, a: ns.Norm, b: ns.Norm, delta: float, trials: int = 12,
              seed: int = 0, schedule: Optional[list] = None,
              restarts: int = 4, iters: int = 150) -> UscProbeReport:
    """Find an eps ball around u on which feasible volumes stay below
    mv(u) + delta.

    Walks a decreasing eps schedule; for each eps it perturbs u inside
    the codomain-norm ball of radius eps and takes ``max_volume`` of the
    perturbed column, so the probe compares exact values wherever an
    exact form exists and ascent lower bounds elsewhere.  The largest eps with no
    violation is reported; a violation at every eps points at an
    under-converged reference value and is flagged as such.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    u = np.asarray(u, dtype=float)
    mv0 = max_volume(u, a, b, restarts=max(8, restarts), seed=seed).value
    sched = [0.5 * 2.0 ** (-k) for k in range(8)] if schedule is None else sorted(
        (float(e) for e in schedule), reverse=True)
    violations = []
    passing = None
    for eps in sched:
        ok = True
        for t in range(trials):
            rng = rng_for(seed, 1203, int(eps * 2 ** 30) & 0xFFFFFFFF, t)
            g = rng.standard_normal(b.dim)
            g_len = ns.norm_eval(b, g)
            if g_len == 0.0:
                continue
            radius = eps * rng.random() ** (1.0 / b.dim)
            u_tilde = u + radius * g / g_len
            if _norm_bracket(u_tilde, np.zeros((b.dim, a.dim - 1)), a, b)[0] > 1.0 + FEAS_TOL:
                continue  # no feasible completion is reachable by scaling: vacuous
            res = max_volume(u_tilde, a, b, restarts=restarts, seed=seed + 31 * t, iters=iters)
            if res.value > mv0 + delta + 1e-12:
                ok = False
                violations.append((eps, t, res.value))
        if ok:
            passing = eps
            break
    return UscProbeReport(
        passing_eps=passing,
        mv_value=mv0,
        delta=delta,
        schedule=tuple(sched),
        violations=tuple(violations),
        under_converged=passing is None,
        seed=seed,
    )
