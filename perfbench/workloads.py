"""Workload job lists, generated from the benchmark seed.

A job is one unit of user work: a CLI invocation through
``inflate_lab.cli.main(argv)`` (the console script's entry point, called with
``src`` on ``sys.path`` because the package is not installed) or, where the
CLI exposes no knob for the needed budget, one library call.  The seed only
shapes the generated inputs; sizes, schedules and budgets are fixed so that
every seed asks for the same amount of work.  Why each workload exists:

* ``positive``: experiment-positive jobs; zigzag construction in
  ``constructions`` is the bulk, and the Euclidean pair keeps operator norms
  on the SVD path.
* ``negative``: experiment-negative jobs; the adversary in ``measure_lab``
  on general ``CoordinateCurve``s is the bulk, a second user of the curve
  code that zigzag changes must not slow.
* ``certify``: inflation searches, certificate verification and
  ``max_volume`` on non-Euclidean pairs; operator-norm calls dominate, on
  the vertex, bisection and sampled paths.
* ``raster``: box counting of injective piecewise-affine surfaces (scanline
  raster, calibration included) and planar coverage of perturbed identities
  (point-cloud raster).
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

UNIT = [[0.0, 1.0], [0.0, 1.0]]
BOXCOUNT_TOL = 0.03   # relative error allowed between box count and area
NORM_JSON = {
    "l1": lambda d: {"dim": d, "kind": {"lp": 1}},
    "l2": lambda d: {"dim": d, "kind": "euclidean"},
    "linf": lambda d: {"dim": d, "kind": {"lp": "inf"}},
}
WORKLOAD_TAGS = {"positive": 1, "negative": 2, "certify": 3, "raster": 4}
WORKLOADS = tuple(WORKLOAD_TAGS)


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    name: str
    run: Callable[[], object]              # the timed work
    check: Callable[[object], list]        # problems with its output; [] if correct
    reference: Optional[str] = None        # stored stdout this job must reproduce
    certified: Optional[Callable[[object], bool]] = None  # certify searches only
    cert_known: bool = False               # a certificate provably exists


def cli_call(argv: list) -> Callable[[], CliOutput]:
    def run() -> CliOutput:
        from inflate_lab import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return CliOutput(code, out.getvalue(), err.getvalue())
    return run


def _params(argv_params: dict) -> str:
    return json.dumps(argv_params, sort_keys=True)


# Jobs exactly as the README shows them (stdout instead of --out files).  Their
# outputs at the seed commit are stored under reference/ so numeric drift shows.
README_POSITIVE = {"box": [[-1, 1], [-1, 1]], "m": 3, "f": {"kind": "zero"},
                   "eta": 0.9, "eps_schedule": [0.2, 0.1]}
README_NEGATIVE = {"u": [1, 0], "r": 0.3, "eps_schedule": [0.5, 0.25, 0.125]}
README_JOBS = {
    "readme-mv": ["mv", "--params", _params({
        "u": [1, 0], "a": NORM_JSON["linf"](2), "b": NORM_JSON["l2"](2)})],
    "readme-check-inflation": ["check-inflation", "--params", _params({
        "map": {"entries": [[0.5, 0], [0, 0.25], [0, 0]],
                "domain_norm": NORM_JSON["l2"](2), "codomain_norm": NORM_JSON["l2"](3)},
        "lambda": 1.0}), "--seed", "7"],
    "readme-positive": ["experiment-positive", "--params", _params(README_POSITIVE),
                        "--seed", "0", "--format", "csv"],
    "readme-positive-boxcount": ["experiment-positive", "--params",
                                 _params(dict(README_POSITIVE, boxcount=True)), "--seed", "0"],
    "readme-negative": ["experiment-negative", "--params", _params(README_NEGATIVE)],
    "readme-calibrate": ["calibrate", "--params", _params({"n": 2, "m": 3, "box_size": 0.001})],
}


def _report(out: CliOutput) -> dict:
    if out.code != 0:
        raise ValueError(f"exit code {out.code}: {out.stderr.strip()}")
    return json.loads(out.stdout)["report"]


def _records_check() -> Callable[[CliOutput], list]:
    def check(out: CliOutput) -> list:
        try:
            records = _report(out)["records"]
        except (ValueError, KeyError) as exc:
            return [str(exc)]
        problems = []
        for record in records:
            problems += checks.experiment_record_problems(record)
        return problems
    return check


def _orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))[None, :]


def _signed_permutation(rng: np.random.Generator, k: int) -> np.ndarray:
    """A symmetry of the cube [-1, 1]^k and of the integer box grid."""
    return np.eye(k)[rng.permutation(k)] * rng.choice((-1.0, 1.0), k)[:, None]


# fixed generic orientation of raster surfaces; seeds only compose it with grid
# symmetries, so every seed rasterizes the same number of boxes
TILT = _orthogonal(np.random.default_rng(20230614), 3)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# -- positive ---------------------------------------------------------------------


def positive_jobs(rng: np.random.Generator) -> list:
    # affine f with fixed singular values (0.5, 0.4) and, in the domain, right
    # singular vectors along a box symmetry: the seed turns the image, and
    # every seed builds zigzags of the same lengths
    linear = _orthogonal(rng, 3)[:, :2] @ np.diag([0.5, 0.4]) @ _signed_permutation(rng, 2)
    affine = {"box": [[-1, 1], [-1, 1]], "m": 3,
              "f": {"kind": "affine", "linear": linear.tolist()},
              "eta": 0.9, "eps_schedule": [0.1, 0.005]}
    cube = {"box": [[-1, 1]] * 3, "m": 3, "f": {"kind": "zero"},
            "eta": 0.8, "eps_schedule": [0.4]}
    return [
        Job("readme-positive-boxcount", cli_call(README_JOBS["readme-positive-boxcount"]),
            _records_check(), reference="readme-positive-boxcount"),
        Job("positive-affine", cli_call(["experiment-positive", "--params", _params(affine),
                                         "--seed", str(_seed(rng))]), _records_check()),
        Job("positive-n3-m3", cli_call(["experiment-positive", "--params", _params(cube),
                                        "--seed", str(_seed(rng))]), _records_check()),
    ]


# -- negative ---------------------------------------------------------------------


def negative_jobs(rng: np.random.Generator) -> list:
    # the criterion-5 schedule at half its restarts; a unit u keeps mv(u) = 0
    # exact, the seed turns u
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    collapse = {"u": [math.cos(theta), math.sin(theta)], "r": 0.01,
                "eps_schedule": [2.0 ** -i for i in range(1, 9)], "restarts": 8}
    return [
        Job("readme-negative", cli_call(README_JOBS["readme-negative"]),
            _records_check(), reference="readme-negative"),
        Job("negative-collapse", cli_call(["experiment-negative", "--params", _params(collapse),
                                           "--seed", str(_seed(rng))]), _records_check()),
    ]


# -- certify ----------------------------------------------------------------------

# (domain, n, codomain, m, extra search params).  Base maps and search seeds
# are fixed and the seed perturbs the maps by 1%, so every seed's searches
# take the same path at the same cost.  Vertex searches run half the default
# restarts; the sampled one a small budget.
SEARCH_PAIRS = (
    ("linf", 2, "l2", 3, {"restarts": 32}),
    ("l1", 2, "linf", 3, {"restarts": 32}),
    ("linf", 3, "l2", 3, {"restarts": 32}),
    ("l2", 2, "linf", 3, {"restarts": 2, "steps": 20}),
)
BASE_SEED = 20230613


def _search_job(rng, index, a, n, b, m, extra) -> Job:
    base = np.random.default_rng([BASE_SEED, index]).standard_normal((m, n))
    A = base + 0.01 * rng.standard_normal((m, n))
    A = A / checks.reference_operator_norm(A, a, b)
    # lambda = vol(A)/2: with a sign-symmetric domain ball, X = I, kappa = 1
    # certifies, since every sign pattern composes to A diag(s)
    lam = checks.gram_vol(A) / 2.0
    known = not checks.certificate_problems(A, np.eye(n), np.ones(n), lam, a, b)
    params = {"map": {"entries": A.tolist(), "domain_norm": NORM_JSON[a](n),
                      "codomain_norm": NORM_JSON[b](m)},
              "lambda": lam, **extra}

    def outcome(out: CliOutput):
        """(certified, problems)"""
        if out.code == 3 and '"numerical"' in out.stderr:
            return False, []
        try:
            report = _report(out)
        except ValueError as exc:
            return False, [str(exc)]
        cert = report["certificate"]
        problems = checks.certificate_problems(A, cert["preimages"], cert["eigenvalues"],
                                               lam, a, b)
        if not report["verification"]["verified"]:
            problems.append("search returned a certificate its verification rejects")
        return not problems, problems

    return Job(f"search-{a}{n}-{b}{m}",
               cli_call(["check-inflation", "--params", _params(params), "--seed", "0"]),
               lambda out: outcome(out)[1], certified=lambda out: outcome(out)[0],
               cert_known=known)


def _mv_check(u, a, b, sampled_only: bool = False):
    """max_volume output: value is vol(u|V) and (u|V) stays in the unit ball."""
    def check(result) -> list:
        if isinstance(result, CliOutput):
            try:
                report = _report(result)
            except ValueError as exc:
                return [str(exc)]
            value, V = report["value"], np.asarray(report["best_V"], dtype=float)
        else:
            value, V = result.value, np.asarray(result.best_V, dtype=float)
        M = np.concatenate([np.asarray(u)[:, None], V.reshape(len(u), -1)], axis=1)
        problems = []
        vol = checks.gram_vol(M)
        if not (value > 0.0 and abs(value - vol) <= 1e-9 * max(1.0, vol)):
            problems.append(f"mv value {value!r} is not vol(u|V) = {vol!r}")
        if sampled_only:
            # no closed form for lp -> lq: a sampled lower bound must not exceed 1
            xs = np.random.default_rng(BASE_SEED).standard_normal((4096, M.shape[1]))
            quot = (np.sum(np.abs(xs @ M.T) ** b, axis=1) ** (1.0 / b)
                    / np.sum(np.abs(xs) ** a, axis=1) ** (1.0 / a))
            nrm = float(np.max(quot))
        else:
            nrm = checks.reference_operator_norm(M, a, b)
        if nrm > 1.0 + 1e-9:
            problems.append(f"(u|V) has operator norm {nrm!r} > 1")
        return problems
    return check


def _mv_lp_call(u: np.ndarray, seed: int) -> Callable:
    def run():
        from inflate_lab import maximal_volume, normed_space

        # the CLI has no iteration knob; the sampled path costs ~7 ms per norm
        return maximal_volume.max_volume(u, normed_space.lp(2, 3.0), normed_space.lp(2, 4.0),
                                         restarts=1, seed=seed, iters=1)
    return run


def certify_jobs(rng: np.random.Generator) -> list:
    jobs = [_search_job(rng, i, *pair) for i, pair in enumerate(SEARCH_PAIRS)]
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    u_vertex = [0.6 * math.cos(theta), 0.6 * math.sin(theta)]
    u_bisect = (0.5 * rng.uniform(-1.0, 1.0, 3)).tolist()
    u_bisect[int(rng.integers(0, 3))] = 0.5
    w = rng.uniform(0.2, 1.0, 2)
    u_sampled = 0.5 * w / np.sum(w ** 4) ** 0.25
    jobs += [
        Job("mv-linf2-l2", cli_call(["mv", "--params", _params({
            "u": u_vertex, "a": NORM_JSON["linf"](2), "b": NORM_JSON["l2"](2)}),
            "--seed", str(_seed(rng))]), _mv_check(u_vertex, "linf", "l2")),
        Job("mv-l1-linf3", cli_call(["mv", "--params", _params({
            "u": u_bisect, "a": NORM_JSON["l1"](2), "b": NORM_JSON["linf"](3), "restarts": 4}),
            "--seed", str(_seed(rng))]), _mv_check(u_bisect, "l1", "linf")),
        Job("mv-lp3-lp4", _mv_lp_call(u_sampled, _seed(rng)),
            _mv_check(u_sampled, 3.0, 4.0, sampled_only=True)),
    ]
    return jobs


# -- raster -----------------------------------------------------------------------


def _surfaces_job(name: str, surfaces: list) -> Job:
    """Box count and Jacobian integral of each (box, breaks, slopes) surface in R^3.

    One job, like one CLI process, pays for one raster calibration.
    """
    areas = [checks.separable_area(breaks, slopes) for _, breaks, slopes in surfaces]

    def run():
        from inflate_lab import constructions, measure_lab, normed_space

        values = []
        for box, breaks, slopes in surfaces:
            pam = constructions.pa_from_axis_slopes(
                box, breaks, slopes, [np.zeros(3), np.zeros(3)], np.zeros(3),
                normed_space.euclidean(2), normed_space.euclidean(3))
            values.append((measure_lab.jacobian_integral(pam, box).value,
                           measure_lab.boxcount_image_measure(pam, box, 3, 1e-3).value))
        return values

    def check(values) -> list:
        problems = []
        for (jac, box), area in zip(values, areas):
            if abs(jac - area) > 1e-9 * area:
                problems.append(f"jacobian_integral {jac!r} != cell-sum area {area!r}")
            if abs(box - area) > BOXCOUNT_TOL * area:
                problems.append(f"box count {box!r} off the area {area!r} "
                                f"by more than {BOXCOUNT_TOL:.0%}")
        return problems

    return Job(name, run, check)


def _coverage_job(name: str, rng: np.random.Generator) -> Job:
    # criterion 7: identity + smooth perturbation of sup norm just below the
    # lower semi-continuity margin for eta = 0.5 must cover B(0, sqrt(eta))
    eta = 0.5
    delta = (1.0 - math.sqrt(eta)) / 2.0
    amp = rng.uniform(0.5, 1.0, 3)
    freq = rng.uniform(1.0, 2.5, (3, 2))
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    dirs = rng.standard_normal((3, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def pert(xs):
        w = np.zeros_like(xs)
        for j in range(3):
            w += amp[j] * np.sin(xs @ freq[j] + phase[j])[:, None] * dirs[j]
        return xs + 0.999 * delta / max(np.max(np.linalg.norm(w, axis=1)), 1e-12) * w

    def run():
        from inflate_lab import measure_lab

        return measure_lab.coverage_check(pert, 1.0, math.sqrt(eta), 1.0 / 200,
                                          lip_hint=2.0).value

    return Job(name, run, lambda value: [] if value == 1.0 else [f"coverage {value!r} < 1"])


def raster_jobs(rng: np.random.Generator) -> list:
    # a criterion-4 graph surface (x, y, c(x) + c'(y)) on a quarter of the unit
    # square, with fixed slope magnitudes in random signs and order (the area
    # does not depend on them), tilted; and a tilted flat unit square
    pieces = 3
    quarter = [[0.0, 0.5], [0.0, 0.5]]
    breaks = np.linspace(0.0, 0.5, pieces + 1)
    mags = np.array([0.3, 0.5, 0.7])
    c1 = rng.permutation(mags) * rng.choice((-1.0, 1.0), pieces)
    c2 = rng.permutation(mags) * rng.choice((-1.0, 1.0), pieces)
    s1 = np.column_stack([np.ones(pieces), np.zeros(pieces), c1])
    s2 = np.column_stack([np.zeros(pieces), np.ones(pieces), c2])
    Q = _signed_permutation(rng, 3) @ TILT
    square = (_signed_permutation(rng, 3) @ TILT)[:, :2]
    flat = np.array([0.0, 1.0])
    return [
        _surfaces_job("boxcount", [(quarter, [breaks, breaks], [s1 @ Q.T, s2 @ Q.T]),
                                   (UNIT, [flat, flat], [square.T[0:1, :], square.T[1:2, :]])]),
        _coverage_job("coverage", rng),
    ]


BUILDERS = {"positive": positive_jobs, "negative": negative_jobs,
            "certify": certify_jobs, "raster": raster_jobs}


def jobs_for(workload: str, seed: int) -> list:
    """The fixed job list of a workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, WORKLOAD_TAGS[workload]])
    return BUILDERS[workload](rng)
