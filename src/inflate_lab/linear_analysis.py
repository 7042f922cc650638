"""Linear maps between normed spaces: volume, operator norm, inflation.

The volume functional vol A = sqrt(det A^T A) measures how A scales
n-dimensional Hausdorff measure.  An inflation certificate for a full
rank A with ||A||_{a->b} <= 1 is a diagonalizable map I on the image of
A, given through preimages x_i (so the eigenbasis is u_i = A x_i) and
eigenvalues kappa_i with |kappa_i| >= 1, such that every sign-flipped
version I~ of I keeps ||I~ o A||_{a->b} <= 1 while vol(I~ o A) stays at
least lambda.  Such certificates are exactly what the piecewise-affine
constructions consume: each cell of the construction realizes one sign
pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from . import normed_space as ns
from .errors import DimensionMismatch, NumericalFailure, PreconditionError
from .geometry import float_array
from .normed_space import _is_euclidean
from .seeding import rng_for

RANK_RTOL = 1e-10        # sigma_min > RANK_RTOL * sigma_max decides "full rank"
VERIFY_TOL = 1e-9        # certificate verification tolerance (relative), the only one used
SEARCH_FEAS_TOL = 1e-7   # operator-norm slack accepted on a search's input map
_KAPPA_CAP = 1e9
_SECTIONS = 15           # points per norm evaluation of a bisected ray exit
# a bisected exit's norm slack: absorbs the rounding of a start on the unit
# sphere and stays, with the rays' own rounding, below 1e-12 in the report
_EXIT_SLACK = 1e-13
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LinearMap:
    """A linear map R^n -> R^m with its two ambient norms.

    ``matrix`` has shape (m, n): columns are the images of the standard
    basis vectors.
    """

    matrix: np.ndarray
    domain_norm: ns.Norm
    codomain_norm: ns.Norm

    def __post_init__(self):
        shape = (self.codomain_norm.dim, self.domain_norm.dim)
        object.__setattr__(self, "matrix", float_array(self.matrix, "matrix", shape))

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def linear_map(matrix, domain_norm: ns.Norm, codomain_norm: ns.Norm) -> LinearMap:
    return LinearMap(matrix, domain_norm, codomain_norm)


# -- vol ----------------------------------------------------------------


def vol_matrix(A) -> float:
    """sqrt(det A^T A) for an (m, n) matrix with n <= m; 0 iff rank-deficient."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if n > m:
        raise PreconditionError(f"vol requires n <= m, got {n} > {m}")
    return float(np.prod(np.linalg.svd(A, compute_uv=False)))


def vol(map: LinearMap) -> float:
    return vol_matrix(map.matrix)


def is_full_rank(A) -> bool:
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return bool(s[-1] > RANK_RTOL * max(s[0], 1e-300))


# -- operator norm -------------------------------------------------------


@dataclass(frozen=True)
class OperatorNormReport:
    values: np.ndarray  # one norm per matrix of the stack: exact, or a certified upper bound
    exact: bool
    lower: np.ndarray   # certified lower end, equal to values when exact


def _unwrap_transforms(A: np.ndarray, a: ns.Norm, b: ns.Norm):
    # ||A||_{W(a)->b} = ||A W||_{a->b} and ||A||_{a->W(b)} = ||W^-1 A||_{a->b}
    while a.kind == "transformed" or b.kind == "transformed":
        if a.kind == "transformed":
            A = A @ a.W
            a = a.base
        if b.kind == "transformed":
            A = b._W_inv @ A
            b = b.base
    return A, a, b


def _rays(As: np.ndarray, a: ns.Norm, b: ns.Norm):
    """The operator-norm path of a (k, m, n) stack, as operator_norm_report lists it.

    Returns (rays, c, scale, exact): ||A_k||_{a->b} is scale times the
    largest |ray|_c over rays[k], exactly when ``exact``, else its
    certified upper end.  A Euclidean pair has no rays: ``rays`` is the
    unwrapped stack and c is None.
    """
    As, a, b = _unwrap_transforms(As, a, b)
    verts, c, scale, exact = ns.ball_vertices(a), b, 1.0, True
    if verts is None:
        if _is_euclidean(a) and _is_euclidean(b):
            return As, None, 1.0, True
        verts = ns._dual_vertices(b)
        if verts is not None:
            # ||A||_{a->b} = ||A^T||_{b*->a*}
            As, c = As.transpose(0, 2, 1), ns.dual(a)
        else:
            (verts, scale), exact = a._inscribed, False
    return np.matmul(verts, As.transpose(0, 2, 1)), c, scale, exact


def operator_norm_report(matrices, a: ns.Norm, b: ns.Norm) -> OperatorNormReport:
    """sup over the unit ball of |A x|_b for every A of a (k, m, n) stack.

    Exact when the domain ball is a polytope (maximum over its finitely
    many vertices, since x -> |A x|_b is convex), when both norms are
    Euclidean (largest singular value), and when the codomain's dual
    ball is a polytope: ||A||_{a->b} = ||A^T||_{b*->a*} is then a
    maximum over the dual vertices (for an l1 codomain, the 2^m cube,
    listed up to ns._DUAL_CUBE_MAX_DIM).  Every other pair is smooth to
    smooth, where no finite formula exists, or smooth into a large l1
    ball, where the cube is not listed; with an inscribed polytope
    P inside the domain ball B and B inside cP (Norm._inscribed),
    the maximum over P's vertices is the certified ``lower`` end and c
    times it the certified upper bound ``values``.  The path is chosen in
    this order, after _unwrap_transforms, by _rays alone; _ray_exit reads
    the same rays.
    """
    As = np.asarray(matrices, dtype=float)
    if As.ndim != 3 or As.shape[1:] != (b.dim, a.dim):
        raise DimensionMismatch(f"expected a (k, {b.dim}, {a.dim}) stack, got {As.shape}")
    if not np.all(np.isfinite(As)):
        raise PreconditionError("matrix entries must be finite")
    rays, c, scale, exact = _rays(As, a, b)
    if c is None:
        values = np.linalg.svd(rays, compute_uv=False)[:, 0]
        return OperatorNormReport(values, True, values)
    lower = np.max(ns._eval_many(c, rays.reshape(-1, c.dim)).reshape(len(rays), -1), axis=1)
    return OperatorNormReport(lower if exact else scale * lower, exact, lower)


def operator_norm(map: LinearMap) -> float:
    """||A||_{a->b}: exact, or the certified upper end of its bracket."""
    return float(operator_norm_report(map.matrix[None], map.domain_norm, map.codomain_norm).values[0])


# -- ray exits -----------------------------------------------------------------


def _ray_exit(Bs: np.ndarray, Ws: np.ndarray, a: ns.Norm, b: ns.Norm) -> float:
    """Largest t >= 0 with ||B_k + t W_k||_{a->b} <= 1 for every k of two (K, m, n) stacks.

    ``math.inf`` when no W_k moves anything.  Each t -> ||B_k + t W_k|| is
    convex, so the feasible t form an interval.  The norm is the largest
    of |beta + t w|_c over the rays of _rays on both stacks (beta from
    B_k, w from W_k), each scaled by the path's scale, so a bracketed
    exit bounds the report's certified upper end.  The rays exit in
    closed form when c is Euclidean, a listed polytope, or lp with
    disjoint supports of each beta and w, and by bisection on the rays
    otherwise.  A Euclidean pair has no rays and bisects on its largest
    singular value.
    """
    if not np.any(Ws):
        return math.inf
    k = len(Bs)
    rays, c, scale, _ = _rays(np.concatenate([Bs, Ws]), a, b)
    if c is None:
        Bs, Ws = rays[:k], rays[k:]
        return _bisected_scale(lambda ts: np.max(np.linalg.svd(
            Bs + ts[:, None, None, None] * Ws, compute_uv=False)[..., 0], axis=1))
    beta = scale * rays[:k].reshape(-1, c.dim)
    w = scale * rays[k:].reshape(-1, c.dim)
    if _is_euclidean(c):
        return _quadratic_exit(beta, w)
    facets = ns._dual_vertices(c)
    if facets is not None:
        return _facet_exit(beta, w, facets)
    if c.kind == "lp" and not np.any((beta != 0.0) & (w != 0.0)):
        return _lp_exit(beta, w, c.p)
    return _bisected_scale(lambda ts: np.max(ns._eval_many(
        c, (beta + ts[:, None, None] * w).reshape(-1, c.dim)).reshape(len(ts), -1), axis=1))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # a stack of vector products: bit-equal to x_v @ y_v row by row, which a
    # row sum or einsum is not
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _quadratic_exit(beta: np.ndarray, w: np.ndarray) -> float:
    """Largest t >= 0 with |beta_v + t w_v|_2 <= 1 for every row: one quadratic per row.

    Rows with w_v = 0 do not move and are skipped (``math.inf`` when no
    row moves); a moving row that already starts outside the ball leaves
    t = 0.
    """
    aa = _row_dots(w, w)
    moving = aa >= 1e-300
    if not np.any(moving):
        return math.inf
    aa, cc = aa[moving], _row_dots(beta[moving], beta[moving])
    if np.any(cc > 1.0 + 1e-15):
        return 0.0
    bb = 2.0 * _row_dots(beta[moving], w[moving])
    disc = bb * bb - 4.0 * aa * (cc - 1.0)
    t = (-bb + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * aa)
    return float(np.min(np.maximum(t, 0.0)))


def _facet_exit(beta: np.ndarray, w: np.ndarray, facets: np.ndarray) -> float:
    """Largest t >= 0 with f.(beta_v + t w_v) <= 1 for every row v and facet row f.

    A row whose f.w_v is within the rounding of the product (m eps times
    the sum of |f_i w_v,i|) runs along the facet and does not cross it, so
    a start on that facet keeps its room along it.
    """
    along = w @ facets.T
    crossing = along > w.shape[1] * _EPS * (np.abs(w) @ np.abs(facets).T)
    if not np.any(crossing):
        return math.inf
    slack = 1.0 - beta @ facets.T
    return max(float(np.min(slack[crossing] / along[crossing])), 0.0)


def _lp_exit(beta: np.ndarray, w: np.ndarray, p: float) -> float:
    """Largest t >= 0 with |beta_v + t w_v|_p <= 1 for every row, where no row's
    beta and w share a nonzero entry: |beta + t w|_p^p = |beta|_p^p + t^p |w|_p^p."""
    ww = np.sum(np.abs(w) ** p, axis=1)
    moving = ww > 0.0
    if not np.any(moving):
        return math.inf
    room = np.maximum(1.0 - np.sum(np.abs(beta[moving]) ** p, axis=1), 0.0)
    return float(np.min((room / ww[moving]) ** (1.0 / p)))


def _bisected_scale(norms) -> float:
    """Largest t >= 0 with norms(t) <= 1 + _EXIT_SLACK, for a convex norms
    that maps an array of t to one norm each; 0 when t = 0 fails.  The
    powers 1, 2, ..., 2^20 bracket t (t stays below 2^21), then each call
    splits the bracket at _SECTIONS interior points, down to adjacent
    floats."""
    lo, hi = 0.0, 2.0 ** 21
    ts = np.concatenate([[0.0], 2.0 ** np.arange(21)])
    while ts.size:
        run = int(np.cumprod(norms(ts) <= 1.0 + _EXIT_SLACK).sum())
        lo = float(ts[run - 1]) if run else lo
        hi = float(ts[run]) if run < ts.size else hi
        ts = np.unique(lo + (hi - lo) * np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1))
        ts = ts[(ts > lo) & (ts < hi)]
    return lo


# -- sign permutations and certificates ----------------------------------


def sign_permutations(eigenvalues) -> np.ndarray:
    """All 2^n sign-flipped eigenvalue vectors, in a fixed deterministic order."""
    kappa = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    n = kappa.shape[0]
    if n > 20:
        raise PreconditionError("sign permutation enumeration guard: n > 20")
    signs = np.array(list(product((1.0, -1.0), repeat=n)))
    return signs * kappa[None, :]


@dataclass(frozen=True)
class InflationCertificate:
    """Witness that a map admits a lambda-inflation.

    ``preimages`` is the n x n matrix X whose columns x_i map to the
    eigenbasis u_i = A x_i of the inflation; ``eigenvalues`` are the
    corresponding kappa_i.  ``lam`` is the certified volume lower bound
    over all sign patterns and ``worst_sign_norm`` the largest operator
    norm among them.  The non-shrinking condition applies to the
    eigenvalues of the inflation itself (|kappa_i| >= 1): flipping signs
    never changes |det|, only the norm constraint is at stake.
    """

    preimages: np.ndarray
    eigenvalues: np.ndarray
    lam: float
    verified: bool
    worst_sign_norm: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def certificate_to_json(cert: InflationCertificate) -> dict:
    return {
        "preimages": cert.preimages.tolist(),
        "eigenvalues": cert.eigenvalues.tolist(),
        "lambda": cert.lam,
        "verified": cert.verified,
        "worst_sign_norm": cert.worst_sign_norm,
    }


def certificate_from_json(data: dict) -> InflationCertificate:
    """Parse certificate_to_json's output; a missing or malformed field raises PreconditionError."""
    try:
        return InflationCertificate(
            preimages=np.asarray(data["preimages"], dtype=float),
            eigenvalues=np.asarray(data["eigenvalues"], dtype=float),
            lam=float(data["lambda"]),
            verified=bool(data["verified"]),
            worst_sign_norm=float(data["worst_sign_norm"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"invalid certificate JSON: {exc!r}") from exc


def sign_matrices(map: LinearMap, X: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """All composed matrices I~ o A, one per sign pattern, shape (2^n, m, n),
    for the inflation with n x n preimages X and (n,) eigenvalues kappa."""
    U = map.matrix @ X
    X_inv = np.linalg.inv(X)
    signed = sign_permutations(kappa)  # (2^n, n)
    return np.einsum("mi,si,ij->smj", U, signed, X_inv)


@dataclass(frozen=True)
class VerificationReport:
    verified: bool
    worst_sign_norm: float
    min_vol: float
    eigenvalues_ok: bool
    failing_sign: Optional[tuple]
    message: str


def verify_certificate(map: LinearMap, cert: InflationCertificate) -> VerificationReport:
    """Independently recompute the two certificate conditions.

    Checks |kappa_i| >= 1, enumerates all sign patterns, recomputes the
    operator norm and vol of each composition, and reports the first
    failing pattern if any.  Preimages that are not a finite n x n array,
    or eigenvalues not a finite (n,) array, are refused first.
    """
    n = map.n
    X = float_array(cert.preimages, "certificate preimages", (n, n))
    kappa = float_array(cert.eigenvalues, "certificate eigenvalues", (n,))
    U = map.matrix @ X
    s = np.linalg.svd(U, compute_uv=False)
    if s[-1] <= RANK_RTOL * max(s[0], 1e-300):
        raise PreconditionError("eigenbasis is not linearly independent")
    if map.n > map.m:
        raise PreconditionError(f"vol requires n <= m, got {map.n} > {map.m}")

    eigen_ok = bool(np.all(np.abs(kappa) >= 1.0 - 1e-12))
    matrices = sign_matrices(map, X, kappa)
    norms = operator_norm_report(matrices, map.domain_norm, map.codomain_norm).values
    vols = np.prod(np.linalg.svd(matrices, compute_uv=False), axis=-1)
    lam_floor = cert.lam - VERIFY_TOL * max(1.0, abs(cert.lam))
    worst = float(np.max(norms))
    min_vol = float(np.min(vols))
    bad = np.flatnonzero((norms > 1.0 + VERIFY_TOL) | (vols < lam_floor))
    failing = None
    if bad.size:
        failing = tuple(int(x) for x in sign_permutations(np.ones(n))[bad[0]])
    ok = eigen_ok and worst <= 1.0 + VERIFY_TOL and min_vol >= lam_floor
    message = "ok" if ok else (
        "non-shrinking violated" if not eigen_ok else f"sign pattern {failing} fails"
    )
    return VerificationReport(ok, worst, min_vol, eigen_ok, failing, message)


def _certificate_for(map: LinearMap, X: np.ndarray, kappa: np.ndarray) -> InflationCertificate:
    # at lam = 0 the volume condition always holds, so verified means the
    # eigenvalues are non-shrinking and every sign pattern has norm <= 1
    report = verify_certificate(map, InflationCertificate(X, kappa, 0.0, False, math.inf))
    return InflationCertificate(X, kappa, report.min_vol, report.verified, report.worst_sign_norm)


# -- Euclidean inflation ---------------------------------------------------


def euclidean_inflation(map: LinearMap) -> InflationCertificate:
    """The closed-form 1-inflation for Euclidean domain and codomain.

    Writing A = S D R with orthogonal S, R and singular values sigma_i
    <= 1, the inflation has eigenbasis the left singular directions and
    eigenvalues 1/sigma_i: every sign pattern composes to an isometric
    embedding, so the operator norm is exactly 1 and the volume exactly
    1 for every pattern.
    """
    if not (_is_euclidean(map.domain_norm) and _is_euclidean(map.codomain_norm)):
        raise PreconditionError("euclidean_inflation requires euclidean domain and codomain")
    if map.n > map.m:
        raise PreconditionError("requires n <= m")
    A = map.matrix
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= RANK_RTOL * max(s[0], 1e-300):
        raise NumericalFailure("no inflation for degenerate map")
    if s[0] > 1.0 + VERIFY_TOL:
        raise PreconditionError(f"operator norm {s[0]} exceeds 1")
    # preimages x_i = v_i / sigma_i give A x_i = u_i (unit left singular vectors)
    X = Vt.T / s[None, :]
    kappa = np.maximum(1.0, 1.0 / s)
    return _certificate_for(map, X, kappa)


# -- generic search --------------------------------------------------------


def _max_sign_norm(map: LinearMap, X: np.ndarray, kappa: np.ndarray) -> float:
    matrices = sign_matrices(map, X, kappa)
    return float(np.max(operator_norm_report(matrices, map.domain_norm, map.codomain_norm).values))


def inflation_search(map: LinearMap, lam: float, restarts: int = 64,
                     seed: int = 0) -> Optional[InflationCertificate]:
    """Search for a verified lambda-inflation; None when no restart certifies.

    Multi-start over eigenbases (SVD-informed plus random).  Each restart
    maximizes the sign-invariant volume vol(A) * prod kappa_i in one
    sweep: kappa_i grows by the exact ray exit (``_ray_exit``) of all
    2^n sign patterns along s_i u_i x~_i (x~_i the rows of X^-1), up to
    _KAPPA_CAP.  The exits keep the max-over-signs operator norm (its
    certified upper end) at 1 up to rounding, inside verification's
    1 + VERIFY_TOL.  One sweep is the fixed point: the feasible kappa form
    a convex set that no sign flip of a kappa_j changes, so its section in
    kappa_i only shrinks as another |kappa_j| grows.  Only the starting
    point kappa = 1 is screened, at 1 + VERIFY_TOL.  ``None`` is
    evidence, not a proof of nonexistence, except for a Euclidean pair,
    which gets no search: ``euclidean_inflation`` reaches volume 1, the
    most any contraction has.
    """
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    if map.n > map.m:
        raise PreconditionError("requires n <= m")
    A = map.matrix
    if not is_full_rank(A):
        raise PreconditionError("map must be full rank")
    # reject only a map that is certainly not a contraction: the lower end
    base_norm = float(operator_norm_report(A[None], map.domain_norm, map.codomain_norm).lower[0])
    if base_norm > 1.0 + SEARCH_FEAS_TOL:
        raise PreconditionError(f"operator norm {base_norm} exceeds 1")
    vol_A = vol_matrix(A)

    if _is_euclidean(map.domain_norm) and _is_euclidean(map.codomain_norm):
        cert = euclidean_inflation(map)
        return cert if cert.verified and cert.lam >= lam - VERIFY_TOL else None

    U_svd, s, Vt = np.linalg.svd(A, full_matrices=False)
    X_svd = Vt.T / np.maximum(s[None, :], 1e-300)
    n = map.n
    signs = sign_permutations(np.ones(n))

    for r in range(restarts):
        rng = rng_for(seed, 3001, r)
        if r == 0:
            X = X_svd
        elif r % 2 == 1:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            X = Q
        else:
            X = X_svd @ _random_rotation(n, rng, scale=0.2 * (1 + r / restarts))
        if not is_full_rank(A @ X):
            continue
        # kappa = 1 is the candidate itself when nothing grows: screen it as
        # verification would, since its all-plus pattern is A up to rounding
        if _max_sign_norm(map, X, np.ones(n)) > 1.0 + VERIFY_TOL:
            continue
        U, X_inv = A @ X, np.linalg.inv(X)
        kappa = np.ones(n)
        for i in range(n):
            Bs = sign_matrices(map, X, kappa)
            Ws = signs[:, i, None, None] * np.outer(U[:, i], X_inv[i])
            kappa[i] = min(kappa[i] + _ray_exit(Bs, Ws, map.domain_norm, map.codomain_norm),
                           _KAPPA_CAP)
        if vol_A * float(np.prod(kappa)) >= lam - VERIFY_TOL:
            cert = _certificate_for(map, X, kappa)
            if cert.verified and cert.lam >= lam - VERIFY_TOL:
                return cert
    return None


def _random_rotation(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Rotation close to the identity for small scale (exp of a skew matrix)."""
    from scipy.linalg import expm

    S = rng.standard_normal((n, n)) * scale
    return expm(0.5 * (S - S.T))


# -- pair probing -----------------------------------------------------------


@dataclass(frozen=True)
class PairProbeReport:
    lam: float
    normalized_lam: float
    samples: int
    seed: int
    fraction_certified: float
    fraction_certified_normalized: float
    failures: list          # matrices (as nested lists) that failed at lam
    failures_normalized: list


def inflating_pair_probe(a: ns.Norm, b: ns.Norm, lam: float, samples: int,
                         seed: int, restarts: int = 16,
                         include: Optional[list] = None) -> PairProbeReport:
    """Sample maps of operator norm 1 and try to certify each at lambda.

    Each sample runs two ``inflation_search`` calls of ``restarts``
    restarts, one exit sweep each.  The failure list is evidence, not
    proof, of non-inflation.  The
    probe also tests each sample against the normalized target
    vol(|.|_a) * lambda used by the equivalence-class membership
    question; that target is exact, since ``ns.vol_of_norm`` takes the
    domain ball's volume in closed form.  ``include`` prepends
    caller-chosen matrices (rescaled like the random ones) to the sample
    list, e.g. near-degenerate maps.
    Samples run one after another, in sample order: each is small-array
    work that holds the GIL, so threads would not speed them up.
    """
    if a.dim > b.dim:
        raise PreconditionError("requires n <= m")
    norm_vol = ns.vol_of_norm(a)
    lam_normalized = norm_vol * lam
    matrices = [float_array(M, "include matrix", (b.dim, a.dim)) for M in (include or [])]
    if any(not np.any(M) for M in matrices):
        raise PreconditionError("include holds a zero matrix, which no rescaling brings to norm 1")
    rng = rng_for(seed, 5001)
    while len(matrices) < samples + len(include or []):
        G = rng.standard_normal((b.dim, a.dim))
        if is_full_rank(G):
            matrices.append(G)

    ok_plain = 0
    ok_norm = 0
    failures: list = []
    failures_norm: list = []
    for idx, G in enumerate(matrices):
        A = G / operator_norm(LinearMap(G, a, b))
        map_ = LinearMap(A, a, b)
        cert = inflation_search(map_, lam, restarts=restarts, seed=seed + 13 * idx)
        cert_n = inflation_search(map_, lam_normalized, restarts=restarts,
                                  seed=seed + 13 * idx + 7)
        ok_plain += int(cert is not None)
        ok_norm += int(cert_n is not None)
        if cert is None:
            failures.append(A.tolist())
        if cert_n is None:
            failures_norm.append(A.tolist())
    total = len(matrices)
    return PairProbeReport(
        lam=lam,
        normalized_lam=lam_normalized,
        samples=total,
        seed=seed,
        fraction_certified=ok_plain / total if total else 1.0,
        fraction_certified_normalized=ok_norm / total if total else 1.0,
        failures=failures,
        failures_normalized=failures_norm,
    )


# -- serialization -----------------------------------------------------------


def map_to_json(map: LinearMap) -> dict:
    return {
        "entries": map.matrix.tolist(),
        "domain_norm": ns.norm_to_json(map.domain_norm),
        "codomain_norm": ns.norm_to_json(map.codomain_norm),
    }


def map_from_json(data: dict) -> LinearMap:
    a = ns.norm_from_json(data["domain_norm"])
    b = ns.norm_from_json(data["codomain_norm"])
    return LinearMap(float_array(data["entries"], "map entries", (b.dim, a.dim)), a, b)
