"""Output checks written independently of the code under test.

Nothing here calls inflate_lab: operator norms use closed-form reference
formulas (cube-vertex enumeration for a max-norm domain, column norms for an
l1 domain, row 2-norms for a Euclidean domain into the max norm), volumes use
the Gram determinant, and image areas of separable piecewise-affine maps are
summed cell by cell.  Each check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NORM_TOL = 1e-9      # certificate verification tolerance the README documents
VOL_TOL = 1e-9
KAPPA_TOL = 1e-12


def vec_norms(ys: np.ndarray, kind: str) -> np.ndarray:
    """Row-wise norm of an (k, d) array; kind is "l1", "l2" or "linf"."""
    if kind == "l1":
        return np.sum(np.abs(ys), axis=1)
    if kind == "l2":
        return np.sqrt(np.sum(ys * ys, axis=1))
    if kind == "linf":
        return np.max(np.abs(ys), axis=1)
    raise ValueError(f"no reference norm for {kind!r}")


def reference_operator_norm(M: np.ndarray, a: str, b: str) -> float:
    """Exact ||M||_{a->b} for the pairs that have a closed form."""
    M = np.asarray(M, dtype=float)
    if a == "linf":
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=M.shape[1])))
        return float(np.max(vec_norms(cube @ M.T, b)))
    if a == "l1":
        return float(np.max(vec_norms(M.T, b)))
    if a == "l2" and b == "linf":
        return float(np.max(vec_norms(M, "l2")))
    if a == "l2" and b == "l2":
        return float(np.linalg.norm(M, 2))
    raise ValueError(f"no reference operator norm for {a} -> {b}")


def gram_vol(M: np.ndarray) -> float:
    """sqrt(det M^T M)."""
    M = np.asarray(M, dtype=float)
    return math.sqrt(max(float(np.linalg.det(M.T @ M)), 0.0))


def certificate_problems(A, X, kappa, lam: float, a: str, b: str) -> list:
    """Check an inflation certificate (X, kappa) for A at volume lam.

    Every sign-flipped composition (A X) diag(s * kappa) X^-1 must have
    reference operator norm at most 1 and volume at least lam, and every
    |kappa_i| must be at least 1.
    """
    A, X, kappa = (np.asarray(v, dtype=float) for v in (A, X, kappa))
    problems = []
    if np.any(np.abs(kappa) < 1.0 - KAPPA_TOL):
        problems.append(f"eigenvalue below 1 in absolute value: {kappa.tolist()}")
    U = A @ X
    X_inv = np.linalg.inv(X)
    for signs in itertools.product((1.0, -1.0), repeat=len(kappa)):
        M = U @ np.diag(np.asarray(signs) * kappa) @ X_inv
        nrm = reference_operator_norm(M, a, b)
        vol = gram_vol(M)
        if nrm > 1.0 + NORM_TOL:
            problems.append(f"sign pattern {signs}: operator norm {nrm!r} > 1")
        if vol < lam - VOL_TOL * max(1.0, abs(lam)):
            problems.append(f"sign pattern {signs}: volume {vol!r} < lambda {lam!r}")
    return problems


def experiment_record_problems(record: dict) -> list:
    """Records of experiment-positive / -negative reports."""
    problems = []
    eps = record["eps"]
    if not record["lip_exact"] <= 1.0 + 1e-9:
        problems.append(f"eps {eps}: lip_exact {record['lip_exact']!r} > 1 + 1e-9")
    if not record["sup_dist"] <= eps:
        problems.append(f"eps {eps}: sup_dist {record['sup_dist']!r} > eps")
    if "target" in record:
        if not record["jac_integral"] >= record["target"]:
            problems.append(f"eps {eps}: jac_integral {record['jac_integral']!r} "
                            f"< target {record['target']!r}")
    elif not record["jac_integral"] > 0.0:
        problems.append(f"eps {eps}: jac_integral {record['jac_integral']!r} not positive")
    frac = record.get("superlevel_fraction")
    if frac is not None and not 0.0 <= frac <= 1.0:
        problems.append(f"eps {eps}: superlevel_fraction {frac!r} outside [0, 1]")
    return problems


def separable_area(breaks: list, slopes: list) -> float:
    """H^2 of the image of a separable PA map R^2 -> R^m with identity basis.

    Cell (i, j) has differential (s1_i | s2_j) and area len_i * len_j; the
    fixtures are injective, so the image area is the sum of cell areas.
    """
    lens = [np.diff(np.asarray(b, dtype=float)) for b in breaks]
    total = 0.0
    for i, s1 in enumerate(np.asarray(slopes[0], dtype=float)):
        for j, s2 in enumerate(np.asarray(slopes[1], dtype=float)):
            total += lens[0][i] * lens[1][j] * gram_vol(np.stack([s1, s2], axis=1))
    return float(total)
