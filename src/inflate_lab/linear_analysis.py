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
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np

from . import normed_space as ns
from .errors import DimensionMismatch, NumericalFailure, PreconditionError
from .seeding import rng_for

RANK_RTOL = 1e-10        # sigma_min > RANK_RTOL * sigma_max decides "full rank"
VERIFY_TOL = 1e-9        # default certificate verification tolerance (relative)
SEARCH_FEAS_TOL = 1e-7   # operator-norm slack accepted by the searches
_KAPPA_CAP = 1e9


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
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2:
            raise PreconditionError("matrix must be 2-dimensional")
        if not np.all(np.isfinite(A)):
            raise PreconditionError("matrix entries must be finite")
        m, n = A.shape
        if n != self.domain_norm.dim or m != self.codomain_norm.dim:
            raise DimensionMismatch(
                f"matrix {A.shape} inconsistent with norms "
                f"({self.domain_norm.dim} -> {self.codomain_norm.dim})"
            )
        object.__setattr__(self, "matrix", A)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def linear_map(matrix, domain_norm: ns.Norm, codomain_norm: ns.Norm) -> LinearMap:
    return LinearMap(np.asarray(matrix, dtype=float), domain_norm, codomain_norm)


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


def is_full_rank(A, rtol: float = RANK_RTOL) -> bool:
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return bool(s[-1] > rtol * max(s[0], 1e-300))


# -- operator norm -------------------------------------------------------


@dataclass(frozen=True)
class OperatorNormReport:
    values: np.ndarray  # one norm per matrix of the stack
    exact: bool


def _is_euclidean(norm: ns.Norm) -> bool:
    return norm.kind == "euclidean" or (norm.kind == "lp" and norm.p == 2)


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


def operator_norm_report(matrices, a: ns.Norm, b: ns.Norm) -> OperatorNormReport:
    """sup over the unit ball of |A x|_b for every A of a (k, m, n) stack.

    Exact when the domain ball is a polytope (maximum over its finitely
    many vertices, since x -> |A x|_b is convex) and when both norms are
    Euclidean (largest singular value).  Otherwise a multi-start
    maximization over the unit sphere returns a lower bound per matrix.
    """
    As = np.asarray(matrices, dtype=float)
    if As.ndim != 3 or As.shape[1:] != (b.dim, a.dim):
        raise DimensionMismatch(f"expected a (k, {b.dim}, {a.dim}) stack, got {As.shape}")
    if not np.all(np.isfinite(As)):
        raise PreconditionError("matrix entries must be finite")
    As, a, b = _unwrap_transforms(As, a, b)
    verts = ns.ball_vertices(a)
    if verts is not None:
        images = np.matmul(verts, As.transpose(0, 2, 1))
        values = ns._eval_many(b, images.reshape(-1, b.dim)).reshape(len(As), -1)
        return OperatorNormReport(np.max(values, axis=1), True)
    if _is_euclidean(a) and _is_euclidean(b):
        return OperatorNormReport(np.linalg.svd(As, compute_uv=False)[:, 0], True)
    return OperatorNormReport(np.array([_sampled_operator_norm(A, a, b) for A in As]), False)


def operator_norm(map: LinearMap) -> float:
    return float(operator_norm_report(map.matrix[None], map.domain_norm, map.codomain_norm).values[0])


def _sampled_operator_norm(A, a, b) -> float:
    n = A.shape[1]
    rng = rng_for(0, 7001)
    dirs = rng.standard_normal((256, n))
    dirs = np.concatenate([dirs, np.eye(n), -np.eye(n)], axis=0)
    lens = ns._eval_many(a, dirs)
    dirs = dirs[lens > 0] / lens[lens > 0, None]
    best_idx = int(np.argmax(ns._eval_many(b, dirs @ A.T)))
    x = dirs[best_idx]
    best = float(ns._eval_many(b, x[None, :] @ A.T)[0])
    step = 0.3
    h = 1e-6
    for _ in range(200):
        g = np.zeros(n)
        fx = best
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            xp = (x + e) / ns._eval_many(a, (x + e)[None, :])[0]
            xm = (x - e) / ns._eval_many(a, (x - e)[None, :])[0]
            g[i] = (ns._eval_many(b, xp[None, :] @ A.T)[0] - ns._eval_many(b, xm[None, :] @ A.T)[0]) / (2 * h)
        if np.linalg.norm(g) < 1e-14:
            break
        cand = x + step * g
        cand = cand / ns._eval_many(a, cand[None, :])[0]
        val = float(ns._eval_many(b, cand[None, :] @ A.T)[0])
        if val > fx:
            x, best = cand, val
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return best


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
    return InflationCertificate(
        preimages=np.asarray(data["preimages"], dtype=float),
        eigenvalues=np.asarray(data["eigenvalues"], dtype=float),
        lam=float(data["lambda"]),
        verified=bool(data["verified"]),
        worst_sign_norm=float(data["worst_sign_norm"]),
    )


def sign_matrices(map: LinearMap, cert: InflationCertificate) -> np.ndarray:
    """All composed matrices I~ o A, one per sign pattern, shape (2^n, m, n)."""
    A = map.matrix
    X = cert.preimages
    if X.shape != (map.n, map.n):
        raise DimensionMismatch("certificate preimages must be n x n")
    U = A @ X
    X_inv = np.linalg.inv(X)
    signed = sign_permutations(cert.eigenvalues)  # (2^n, n)
    return np.einsum("mi,si,ij->smj", U, signed, X_inv)


@dataclass(frozen=True)
class VerificationReport:
    verified: bool
    worst_sign_norm: float
    min_vol: float
    eigenvalues_ok: bool
    failing_sign: Optional[tuple]
    message: str


def verify_certificate(map: LinearMap, cert: InflationCertificate,
                       tol: float = VERIFY_TOL) -> VerificationReport:
    """Independently recompute the two certificate conditions.

    Checks |kappa_i| >= 1, enumerates all sign patterns, recomputes the
    operator norm and vol of each composition, and reports the first
    failing pattern if any.
    """
    X = cert.preimages
    if X.shape != (map.n, map.n):
        raise DimensionMismatch("certificate preimages must be n x n")
    U = map.matrix @ X
    s = np.linalg.svd(U, compute_uv=False)
    if s[-1] <= RANK_RTOL * max(s[0], 1e-300):
        raise PreconditionError("eigenbasis is not linearly independent")
    if map.n > map.m:
        raise PreconditionError(f"vol requires n <= m, got {map.n} > {map.m}")

    eigen_ok = bool(np.all(np.abs(cert.eigenvalues) >= 1.0 - 1e-12))
    matrices = sign_matrices(map, cert)
    norms = operator_norm_report(matrices, map.domain_norm, map.codomain_norm).values
    vols = np.prod(np.linalg.svd(matrices, compute_uv=False), axis=-1)
    lam_floor = cert.lam - tol * max(1.0, abs(cert.lam))
    worst = float(np.max(norms))
    min_vol = float(np.min(vols))
    bad = np.flatnonzero((norms > 1.0 + tol) | (vols < lam_floor))
    failing = None
    if bad.size:
        failing = tuple(int(x) for x in sign_permutations(np.ones(cert.n))[bad[0]])
    ok = eigen_ok and worst <= 1.0 + tol and min_vol >= lam_floor
    message = "ok" if ok else (
        "non-shrinking violated" if not eigen_ok else f"sign pattern {failing} fails"
    )
    return VerificationReport(ok, worst, min_vol, eigen_ok, failing, message)


def _certificate_for(map: LinearMap, X: np.ndarray, kappa: np.ndarray,
                     tol: float = VERIFY_TOL) -> InflationCertificate:
    draft = InflationCertificate(X, kappa, 0.0, False, math.inf)
    report = verify_certificate(map, replace(draft, lam=0.0), tol)
    lam = report.min_vol
    verified = report.verified and report.eigenvalues_ok and report.worst_sign_norm <= 1.0 + tol
    return InflationCertificate(X, kappa, lam, verified, report.worst_sign_norm)


# -- Euclidean inflation ---------------------------------------------------


def euclidean_inflation(map: LinearMap, tol: float = VERIFY_TOL) -> InflationCertificate:
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
    if s[0] > 1.0 + tol:
        raise PreconditionError(f"operator norm {s[0]} exceeds 1")
    # preimages x_i = v_i / sigma_i give A x_i = u_i (unit left singular vectors)
    X = Vt.T / s[None, :]
    kappa = np.maximum(1.0, 1.0 / s)
    return _certificate_for(map, X, kappa, tol)


# -- generic search --------------------------------------------------------


def _max_sign_norm(map: LinearMap, X: np.ndarray, kappa: np.ndarray) -> float:
    draft = InflationCertificate(X, kappa, 0.0, False, math.inf)
    matrices = sign_matrices(map, draft)
    return float(np.max(operator_norm_report(matrices, map.domain_norm, map.codomain_norm).values))


def inflation_search(map: LinearMap, lam: float, restarts: int = 64,
                     steps: int = 200, seed: int = 0) -> Optional[InflationCertificate]:
    """Search for a verified lambda-inflation; None on budget exhaustion.

    Multi-start over eigenbases (SVD-informed plus random), maximizing
    the sign-invariant volume vol(A) * prod kappa_i by monotone
    coordinate ascent on the eigenvalues, subject to the max-over-signs
    operator norm staying at most 1.  ``None`` is evidence, not a proof
    of nonexistence.
    """
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    if map.n > map.m:
        raise PreconditionError("requires n <= m")
    A = map.matrix
    if not is_full_rank(A):
        raise PreconditionError("map must be full rank")
    base_norm = operator_norm(map)
    if base_norm > 1.0 + SEARCH_FEAS_TOL:
        raise PreconditionError(f"operator norm {base_norm} exceeds 1")
    vol_A = vol_matrix(A)

    if _is_euclidean(map.domain_norm) and _is_euclidean(map.codomain_norm):
        cert = euclidean_inflation(map)
        if cert.verified and cert.lam >= lam - VERIFY_TOL:
            return cert

    U_svd, s, Vt = np.linalg.svd(A, full_matrices=False)
    X_svd = Vt.T / np.maximum(s[None, :], 1e-300)
    n = map.n

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
        if _max_sign_norm(map, X, np.ones(n)) > 1.0 + SEARCH_FEAS_TOL:
            continue
        kappa = np.ones(n)
        budget = steps
        improved = True
        while improved and budget > 0:
            improved = False
            for i in range(n):
                lo, hi = kappa[i], _KAPPA_CAP
                trial = kappa.copy()
                trial[i] = min(hi, max(2.0 * lo, 1.0))
                # exponential reach, then bisect back to the boundary
                while budget > 0 and _max_sign_norm(map, X, trial) <= 1.0 + SEARCH_FEAS_TOL:
                    lo = trial[i]
                    trial[i] = min(hi, trial[i] * 2.0)
                    budget -= 1
                    if trial[i] >= hi:
                        break
                hi_local = trial[i]
                for _ in range(40):
                    if budget <= 0:
                        break
                    mid = 0.5 * (lo + hi_local)
                    trial[i] = mid
                    if _max_sign_norm(map, X, trial) <= 1.0 + SEARCH_FEAS_TOL:
                        lo = mid
                    else:
                        hi_local = mid
                    budget -= 1
                if lo > kappa[i] * (1 + 1e-12):
                    improved = True
                kappa[i] = lo
        if vol_A * float(np.prod(kappa)) >= lam - VERIFY_TOL:
            cert = _certificate_for(map, X, kappa)
            if cert.verified and cert.lam >= lam - VERIFY_TOL:
                return cert
    return None


def _random_rotation(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
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
                         seed: int, restarts: int = 16, steps: int = 120,
                         include: Optional[list] = None,
                         threads: int = 1) -> PairProbeReport:
    """Sample maps of operator norm 1 and try to certify each at lambda.

    The failure list is evidence, not proof, of non-inflation.  The
    probe also tests each sample against the normalized target
    vol(|.|_a) * lambda used by the equivalence-class membership
    question.  ``include`` prepends caller-chosen matrices (rescaled
    like the random ones) to the sample list, e.g. near-degenerate maps.
    Samples are independent; with threads > 1 they run concurrently and
    results merge in sample order, so the report does not depend on
    scheduling.
    """
    if a.dim > b.dim:
        raise PreconditionError("requires n <= m")
    norm_vol = ns.vol_of_norm(a)
    lam_normalized = norm_vol * lam
    matrices = [np.asarray(M, dtype=float) for M in (include or [])]
    rng = rng_for(seed, 5001)
    while len(matrices) < samples + len(include or []):
        G = rng.standard_normal((b.dim, a.dim))
        if is_full_rank(G):
            matrices.append(G)

    def probe_one(idx_G):
        idx, G = idx_G
        nrm = operator_norm(LinearMap(G, a, b))
        A = G / nrm
        map_ = LinearMap(A, a, b)
        cert = inflation_search(map_, lam, restarts=restarts, steps=steps,
                                seed=seed + 13 * idx)
        cert_n = inflation_search(map_, lam_normalized, restarts=restarts, steps=steps,
                                  seed=seed + 13 * idx + 7)
        return A, cert is not None, cert_n is not None

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(probe_one, enumerate(matrices)))
    else:
        results = [probe_one(item) for item in enumerate(matrices)]

    ok_plain = 0
    ok_norm = 0
    failures: list = []
    failures_norm: list = []
    for A, ok1, ok2 in results:
        ok_plain += int(ok1)
        ok_norm += int(ok2)
        if not ok1:
            failures.append(A.tolist())
        if not ok2:
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
    return LinearMap(
        np.asarray(data["entries"], dtype=float),
        ns.norm_from_json(data["domain_norm"]),
        ns.norm_from_json(data["codomain_norm"]),
    )
