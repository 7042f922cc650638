"""Command-line surface: parse experiment configs, dispatch, emit reports.

``run`` is every job's lifecycle: check the whole request, run its
handler, write its report, all inside one ``try`` that maps every
failure to an exit code: 0 success, 2 precondition or schema violation
(an ``--out`` that cannot be written too), 3 numerical failure (no
certificate found, unverifiable certificate, failed local search).
Errors are emitted as a JSON object on stderr.  Reports are
deterministic: identical config + seed reproduce byte-identical files
(no timestamps in any report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constructions as co
from . import linear_analysis as la
from . import maximal_volume as mv_mod
from . import measure_lab as ml
from . import normed_space as ns
from .errors import InflateLabError, NumericalFailure, PreconditionError
from .geometry import float_array, sample_box

_KIND_SCHEMA = {"type": ["string", "object"]}  # a norm_from_json "kind"

_NORM_SCHEMA = {
    "type": "object",
    "required": ["dim", "kind"],
    "properties": {"dim": {"type": "integer", "minimum": 1}, "kind": _KIND_SCHEMA},
}

_MAP_SCHEMA = {
    "type": "object",
    "required": ["entries", "domain_norm", "codomain_norm"],
    "properties": {
        "entries": {"type": "array"},
        "domain_norm": _NORM_SCHEMA,
        "codomain_norm": _NORM_SCHEMA,
    },
}

_SCHEMAS = {
    "check-inflation": {
        "type": "object",
        "required": ["map", "lambda"],
        "properties": {
            "map": _MAP_SCHEMA,
            "lambda": {"type": "number", "minimum": 0},
            "restarts": {"type": "integer", "minimum": 1},
        },
    },
    "probe-pair": {
        "type": "object",
        "required": ["a", "b", "lambda", "samples"],
        "properties": {
            "a": _NORM_SCHEMA,
            "b": _NORM_SCHEMA,
            "lambda": {"type": "number", "minimum": 0},
            "samples": {"type": "integer", "minimum": 1},
            "restarts": {"type": "integer", "minimum": 1},
            "include": {"type": "array"},
        },
    },
    "mv": {
        "type": "object",
        "required": ["u", "a", "b"],
        "properties": {
            "u": {"type": "array", "items": {"type": "number"}},
            "a": _NORM_SCHEMA,
            "b": _NORM_SCHEMA,
            "restarts": {"type": "integer", "minimum": 1},
        },
    },
    "inflate": {
        "type": "object",
        "required": ["map", "box", "eps"],
        "properties": {
            "map": _MAP_SCHEMA,
            "offset": {"type": "array", "items": {"type": "number"}},
            "box": {"type": "array"},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "lambda": {"type": "number", "minimum": 0},
            "certificate": {"type": "object"},
        },
    },
    "glue": {
        "type": "object",
        "required": ["base", "patches", "delta", "L", "domain_norm", "codomain_norm"],
        "properties": {
            "base": {"type": "object"},
            "patches": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["set", "rho", "map"],
                    "properties": {
                        "set": {"type": "array"},
                        "rho": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                        "map": {"type": "object"},
                    },
                },
            },
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "L": {"type": "number", "minimum": 0},
            "domain_norm": _NORM_SCHEMA,
            "codomain_norm": _NORM_SCHEMA,
            "domain_box": {"type": "array"},
            "probes": {"type": "integer", "minimum": 1},
        },
    },
    "experiment-positive": {
        "type": "object",
        "required": ["box", "m", "f", "eta", "eps_schedule"],
        "properties": {
            "box": {"type": "array"},
            "m": {"type": "integer", "minimum": 1},
            "f": {"type": "object"},
            "eta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "lambda": {"type": "number", "exclusiveMinimum": 0},
            "eps_schedule": {"type": "array", "items": {"type": "number"}},
            "boxcount": {"type": "boolean"},
            "box_size": {"type": "number", "exclusiveMinimum": 0},
            "domain_kind": _KIND_SCHEMA,
            "codomain_kind": _KIND_SCHEMA,
        },
    },
    "experiment-negative": {
        "type": "object",
        "required": ["u", "r", "eps_schedule"],
        "properties": {
            "u": {"type": "array", "items": {"type": "number"}},
            "r": {"type": "number", "exclusiveMinimum": 0},
            "eps_schedule": {"type": "array", "items": {"type": "number"}},
            "n": {"type": "integer", "minimum": 2},
            "m": {"type": "integer", "minimum": 2},
            "domain_kind": _KIND_SCHEMA,
            "codomain_kind": _KIND_SCHEMA,
            "grid": {"type": "integer", "minimum": 2},
            "restarts": {"type": "integer", "minimum": 1},
            "steps": {"type": "integer", "minimum": 1},
            "control": {"type": "boolean"},
            "threshold": {"type": "number"},
        },
    },
    "calibrate": {
        "type": "object",
        "required": ["n", "m", "box_size"],
        "properties": {
            "n": {"type": "integer", "minimum": 1, "maximum": 2},
            "m": {"type": "integer", "minimum": 1, "maximum": 4},
            "box_size": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}

COMMANDS = tuple(_SCHEMAS)
_CSV_COMMANDS = ("inflate", "experiment-positive", "experiment-negative")
_MAX_ECHO = 200  # characters of an offending value that a schema error repeats


def _config_int(data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"config {key} must be an integer, got {value!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI job.

    ``threads`` is accepted and ignored: every command runs in one
    thread, and old configs that set it still load.
    """

    command: str
    params: dict
    seed: int = 0
    out: Optional[str] = None
    format: str = "json"
    threads: int = 1

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
            "threads": self.threads,
        }

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            command=data["command"],
            params=data.get("params", {}),
            seed=_config_int(data, "seed", 0),
            out=data.get("out"),
            format=data.get("format", "json"),
            threads=_config_int(data, "threads", 1),
        )


def _validate(config: ExperimentConfig) -> None:
    # jsonschema.validate minus its metaschema check: the schemas are constants,
    # checked once in the tests.  Imported here, it stays out of `import inflate_lab`.
    from jsonschema.exceptions import best_match
    from jsonschema.validators import validator_for

    if config.command not in _SCHEMAS:
        raise PreconditionError(f"unknown command {config.command!r}")
    if config.format not in ("json", "csv"):
        raise PreconditionError(f"format must be json or csv, got {config.format!r}")
    if config.format == "csv" and config.command not in _CSV_COMMANDS:
        raise PreconditionError("csv format requires an experiment command")
    if config.format == "csv" and config.command == "inflate" and not config.out:
        raise PreconditionError("inflate csv needs --out")
    if config.out is not None and not isinstance(config.out, str):
        raise PreconditionError(f"out must be a path string, got {config.out!r}")
    if config.out and not os.path.isdir(folder := os.path.dirname(config.out) or "."):
        raise PreconditionError(f"out directory {folder!r} does not exist")
    schema = _SCHEMAS[config.command]
    try:
        error = best_match(validator_for(schema)(schema).iter_errors(config.params))
    except RecursionError as exc:  # the check and its messages recurse once a nesting level
        raise PreconditionError(f"config params nest too deeply to check: {exc}") from exc
    if error is not None:
        pointer = "/".join(str(p) for p in error.absolute_path) or "(root)"
        message = error.message
        if len(value := repr(error.instance)) > _MAX_ECHO:  # echo a long value's head only
            message = message.replace(value, value[:_MAX_ECHO] + "...")
        raise PreconditionError(f"config params.{pointer}: {message}") from error


# -- command implementations ---------------------------------------------------


_KEYWORDS = {"boxcount": "run_boxcount"}  # params whose library keyword differs


def _given(params: dict, *raw: str, **casts) -> dict:
    """Keywords for the optional params the user set, raw or cast; defaults stay in the library."""
    given = {key: params[key] for key in raw if key in params}
    given.update((key, cast(params[key])) for key, cast in casts.items() if key in params)
    return {_KEYWORDS.get(key, key): value for key, value in given.items()}


def _cmd_check_inflation(params: dict, seed: int) -> dict:
    map_ = la.map_from_json(params["map"])
    lam = float(params["lambda"])
    cert = la.inflation_search(map_, lam, seed=seed, **_given(params, restarts=int))
    if cert is None:
        raise NumericalFailure(f"no verified {lam}-inflation found within budget")
    report = la.verify_certificate(map_, cert)
    return {
        "certificate": la.certificate_to_json(cert),
        "verification": {
            "verified": report.verified,
            "worst_sign_norm": report.worst_sign_norm,
            "min_vol": report.min_vol,
            "message": report.message,
        },
    }


def _cmd_probe_pair(params: dict, seed: int) -> dict:
    a = ns.norm_from_json(params["a"])
    b = ns.norm_from_json(params["b"])
    report = la.inflating_pair_probe(
        a, b, float(params["lambda"]), int(params["samples"]), seed,
        **_given(params, "include", restarts=int))
    return {
        "lambda": report.lam,
        "normalized_lambda": report.normalized_lam,
        "samples": report.samples,
        "seed": report.seed,
        "fraction_certified": report.fraction_certified,
        "fraction_certified_normalized": report.fraction_certified_normalized,
        "failures": report.failures,
        "failures_normalized": report.failures_normalized,
    }


def _cmd_mv(params: dict, seed: int) -> dict:
    a = ns.norm_from_json(params["a"])
    b = ns.norm_from_json(params["b"])
    result = mv_mod.max_volume(params["u"], a, b, seed=seed,
                               **_given(params, restarts=int))
    return {
        "value": result.value,
        "best_V": result.best_V.tolist(),
        "feasibility_gap": result.feasibility_gap,
        "restarts_used": result.restarts_used,
        "analytic": result.analytic,
    }


def _cmd_inflate(params: dict, seed: int) -> dict:
    map_ = la.map_from_json(params["map"])
    eps = float(params["eps"])
    if "certificate" in params:
        cert = la.certificate_from_json(params["certificate"])
    else:
        lam = float(params.get("lambda", 0.0))
        cert = la.inflation_search(map_, lam, seed=seed)
        if cert is None:
            raise NumericalFailure("no certificate found for the requested lambda")
    pam = co.inflate_affine(map_, cert, params["box"], eps, **_given(params, "offset"))
    return {
        "map": pam,  # turned into JSON only when JSON is written
        "summary": {
            "cells": [int(c.segment_count) for c in pam.curves],
            "declared_lip": pam.declared_lip,
            "cell_vol": pam.constant_cell_vol,
            "certificate": la.certificate_to_json(cert),
        },
    }


def _cmd_glue(params: dict, seed: int) -> dict:
    patches = params["patches"]
    if not patches and "domain_box" not in params:
        raise PreconditionError("glue with no patches needs a domain_box to sample")
    a = ns.norm_from_json(params["domain_norm"])
    b = ns.norm_from_json(params["codomain_norm"])
    n, m = a.dim, b.dim
    base = ml.map_from_descriptor(params["base"], n, m)
    spec = co.PatchSpec(tuple(patch["set"] for patch in patches),
                        tuple(float(patch["rho"]) for patch in patches),
                        tuple(ml.map_from_descriptor(patch["map"], n, m) for patch in patches),
                        base, float(params["delta"]), a, b)
    L = float(params["L"])
    glued = co.glue_patches(spec, L, seed=seed)
    if "domain_box" in params:
        box = float_array(params["domain_box"], "domain_box", (n, 2))
    else:
        boxes = np.concatenate(spec.patch_sets)
        box = np.stack([boxes[:, :, 0].min(axis=0) - 2.0, boxes[:, :, 1].max(axis=0) + 2.0],
                       axis=1)
    probes = int(params.get("probes", 4000))
    lip = ml.estimate_lipschitz(glued, box, a, b, pairs=probes, seed=seed)
    from .seeding import rng_for

    pts = sample_box(box, probes, rng_for(seed, 17))
    sup = float(np.max(ns._eval_many(b, glued.eval_many(pts) - base(pts))))
    return {
        "lip_bound": glued.lip_bound,
        "sampled_lip": lip.value,
        "sampled_sup_dist": sup,
        "delta": spec.delta,
        "patches": len(patches),
    }


def _cmd_experiment_positive(params: dict, seed: int) -> dict:
    return ml.run_positive_experiment(ml.PositiveConfig(
        box=float_array(params["box"], "box"),
        m=int(params["m"]),
        f=params["f"],
        eta=float(params["eta"]),
        lam=float(params.get("lambda", 1.0)),
        eps_schedule=tuple(float(e) for e in params["eps_schedule"]),
        seed=seed,
        **_given(params, "domain_kind", "codomain_kind", boxcount=bool, box_size=float)))


def _cmd_experiment_negative(params: dict, seed: int) -> dict:
    return ml.run_negative_experiment(ml.NegativeConfig(
        u=float_array(params["u"], "u"),
        r=float(params["r"]),
        eps_schedule=tuple(float(e) for e in params["eps_schedule"]),
        seed=seed,
        **_given(params, "domain_kind", "codomain_kind", "threshold", n=int, m=int,
                 grid=int, restarts=int, steps=int, control=bool)))


def _cmd_calibrate(params: dict, seed: int) -> dict:
    n, m = int(params["n"]), int(params["m"])
    box_size = float(params["box_size"])
    value = ml._calibration(n, m, box_size)
    return {"n": n, "m": m, "box_size": box_size, "calibration": value}


_HANDLERS = {
    "check-inflation": _cmd_check_inflation,
    "probe-pair": _cmd_probe_pair,
    "mv": _cmd_mv,
    "inflate": _cmd_inflate,
    "glue": _cmd_glue,
    "experiment-positive": _cmd_experiment_positive,
    "experiment-negative": _cmd_experiment_negative,
    "calibrate": _cmd_calibrate,
}


def run(config: ExperimentConfig) -> int:
    """Check the whole request, run its handler, write its report; returns the exit code."""
    try:
        _validate(config)
        _write(config, _HANDLERS[config.command](config.params, config.seed))
    except (PreconditionError, OSError) as exc:
        _emit_error("precondition", exc)
        return 2
    except NumericalFailure as exc:
        _emit_error("numerical", exc)
        return 3
    except InflateLabError as exc:
        _emit_error("error", exc)
        return 2
    return 0


def _write(config: ExperimentConfig, report: dict) -> None:
    """Write a report as JSON, an experiment's records as CSV, or an inflated map's cells."""
    if config.format == "csv" and config.command == "inflate":
        co.pa_cells_to_csv(report["map"], config.out)  # guards its cell count before opening
        return
    if config.format == "json":
        text = json.dumps({"command": config.command, "seed": config.seed, "report": report},
                          sort_keys=True, indent=2, allow_nan=True,
                          default=co.PiecewiseAffineMap.to_json) + "\n"
    with open(config.out, "w", newline="") if config.out else nullcontext(sys.stdout) as fh:
        if config.format == "csv":
            ml._write_records_csv(report["records"], fh)
        else:
            fh.write(text)


def _nan_path(value, path: tuple = ()):
    """Keys that lead to the first NaN in parsed JSON, or None; Infinity stays a number."""
    if isinstance(value, float) and value != value:
        return path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if (found := _nan_path(item, path + (str(key),))) is not None:
                return found
    return None


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": str(exc)}}, sort_keys=True) + "\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="inflate-lab", usage="%(prog)s <command> [flags]",
        description="Norm geometry, inflation certificates and measure experiments.",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of: " + ", ".join(COMMANDS))
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with {params: ...} or the params object itself")
    parser.add_argument("--params", type=str, default=None,
                        help="inline JSON params (overrides --config)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", type=str, choices=("json", "csv"), default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; every command runs in one thread")
    args = parser.parse_args(argv)

    try:
        data: dict = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise PreconditionError("config file must hold a JSON object")
        if "params" not in data:
            data = {"params": data}
        if args.params is not None:
            data["params"] = json.loads(args.params)
        if (path := _nan_path(data)) is not None:
            field = path[0] + "." + "/".join(path[1:]) if len(path) > 1 else path[0]
            raise PreconditionError(f"config {field}: NaN is not a number")
        flags = {"seed": args.seed, "out": args.out, "format": args.format,
                 "threads": args.threads}
        data.update({key: value for key, value in flags.items() if value is not None})
        data["command"] = args.command
        config = ExperimentConfig.from_json(data)
    except (OSError, ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, PreconditionError; RecursionError: nested too deep
        _emit_error("precondition", exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
