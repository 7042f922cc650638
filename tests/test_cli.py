import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import inflate_lab
from inflate_lab import cli
from inflate_lab import constructions as co
from inflate_lab import linear_analysis as la
from inflate_lab import maximal_volume as mv
from inflate_lab import measure_lab as ml
from inflate_lab import normed_space as ns
from inflate_lab.cli import ExperimentConfig, main, run
from inflate_lab.errors import PreconditionError

# a RuntimeWarning means a NaN or an overflow got past the input checks
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LINF2 = {"dim": 2, "kind": {"lp": "inf"}}
EUCL2 = {"dim": 2, "kind": "euclidean"}
HEXAGON = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
# x -> x / 2 on the unit square, and its inflation by 2 along the standard basis
INFLATE_HALF = {"map": {"entries": [[0.5, 0], [0, 0.5]], "domain_norm": EUCL2,
                        "codomain_norm": EUCL2}, "box": [[0, 1], [0, 1]], "eps": 0.1}
HALF_CERT = {"preimages": [[1, 0], [0, 1]], "eigenvalues": [2, 2], "lambda": 1.0,
             "verified": True, "worst_sign_norm": 1.0}

CONFIGS = {"experiment-positive": ml.PositiveConfig, "experiment-negative": ml.NegativeConfig}
PARAM_FIELDS = {"lambda": "lam", "boxcount": "run_boxcount"}  # where a param and its field differ
# between them these set every config field but seed, each away from its default
FORWARDED = [
    ("experiment-positive", {
        "box": [[0, 1], [0, 1]], "m": 3, "f": {"kind": "zero"}, "eta": 0.5, "lambda": 0.5,
        "eps_schedule": [0.5], "boxcount": True, "box_size": 0.01,
        "domain_kind": {"lp": 2}, "codomain_kind": {"lp": 2}}),
    ("experiment-negative", {
        "u": [1, 0, 0], "r": 0.2, "eps_schedule": [0.5], "m": 3, "domain_kind": "l1",
        "codomain_kind": "linf", "grid": 3, "restarts": 2, "steps": 5, "threshold": 0.5}),
    ("experiment-negative", {
        "u": [1, 0, 0], "r": 0.2, "eps_schedule": [0.5], "n": 3, "m": 3,
        "domain_kind": "euclidean", "control": True, "threshold": 0.01}),
]


# the child interpreter imports the same package source as this one
SRC = os.path.dirname(os.path.dirname(inflate_lab.__file__))


def child_env() -> dict:
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "inflate_lab", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())
    if proc.returncode == 0:
        assert proc.stderr == ""  # no warning, no error object
    return proc


def test_import_binds_the_cli_module():
    # the benchmark tracer wraps cli._validate and cli.run in every job, also
    # in jobs that never import the CLI themselves
    code = "import sys, inflate_lab; print('inflate_lab.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env())
    assert out.stdout.strip() == "True", out.stderr


class TestRun:
    def test_mv_collapse_value_zero(self, capsys):
        config = ExperimentConfig("mv", {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2}, seed=1)
        assert run(config) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["value"] == 0.0

    def test_check_inflation_identity(self, capsys):
        params = {
            "map": {"entries": [[1.0, 0.0], [0.0, 1.0]],
                    "domain_norm": EUCL2, "codomain_norm": EUCL2},
            "lambda": 1.0,
        }
        assert run(ExperimentConfig("check-inflation", params, seed=0)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verification"]["verified"] is True

    def test_euclidean_pair_above_volume_one_exits_3_without_a_search(self, monkeypatch):
        # no contraction between Euclidean spaces has vol > 1: the closed form decides
        calls = []
        sign_norm = la._max_sign_norm
        monkeypatch.setattr(la, "_max_sign_norm", lambda *args: calls.append(1) or sign_norm(*args))
        params = {
            "map": {"entries": [[0.8, 0.1], [0.0, 0.6]],
                    "domain_norm": EUCL2, "codomain_norm": EUCL2},
            "lambda": 1.5,
        }
        assert run(ExperimentConfig("check-inflation", params, seed=0)) == 3
        assert calls == []

    def test_infeasible_inflation_exits_3(self, capsys):
        params = {
            "map": {"entries": [[1.0, 0.0001], [0.0, 0.0001]],
                    "domain_norm": LINF2, "codomain_norm": EUCL2},
            "lambda": 0.5,
            "restarts": 4,
        }
        # rescale is on the caller here: this map has norm slightly above 1
        params["map"]["entries"] = [[0.99, 0.0001], [0.0, 0.0001]]
        assert run(ExperimentConfig("check-inflation", params, seed=0)) == 3

    def test_mv_of_zero_is_exact(self, capsys):
        params = {"u": [0.0, 0.0, 0.0], "a": EUCL2, "b": {"dim": 3, "kind": "euclidean"}}
        assert main(["mv", "--params", json.dumps(params)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["value"] == 0.0
        assert report["analytic"] is True and report["restarts_used"] == 0

    def test_mv_ignores_the_retired_analytic_key(self, capsys):
        # "analytic": false once forced the ascent; the key is now unknown and ignored
        u = [0.5, 0.2, 0.1]
        params = {"u": u, "a": {"dim": 2, "kind": "l1"}, "b": {"dim": 3, "kind": "linf"},
                  "analytic": False}
        assert main(["mv", "--params", json.dumps(params)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["analytic"] is True
        assert report["value"] == mv.max_volume(np.array(u), ns.l1(2), ns.linf(3)).value

    def test_schema_violation_exits_2(self, capsys):
        config = ExperimentConfig("mv", {"u": "nonsense", "a": LINF2, "b": EUCL2})
        assert run(config) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": {"type": "precondition",
                                 "message": "config params.u: 'nonsense' is not of type 'array'"}}

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_schema_is_valid_against_its_metaschema(self, command):
        from jsonschema.validators import validator_for

        schema = cli._SCHEMAS[command]
        validator_for(schema).check_schema(schema)

    def test_params_are_validated_without_a_metaschema_check(self, monkeypatch, capsys):
        from jsonschema.validators import validator_for

        def refuse(*args):
            raise AssertionError("metaschema check on a CLI call")

        for schema in cli._SCHEMAS.values():
            monkeypatch.setattr(validator_for(schema), "check_schema", refuse)
        config = ExperimentConfig("mv", {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2}, seed=1)
        assert run(config) == 0
        assert run(ExperimentConfig("mv", {"u": "nonsense", "a": LINF2, "b": EUCL2})) == 2

    @pytest.mark.parametrize("command, params", [
        ("check-inflation", {"map": {"entries": [[1, 0], [0]], "domain_norm": EUCL2,
                                     "codomain_norm": EUCL2}, "lambda": 1}),
        ("check-inflation", {"map": {"entries": [[1, "x"], [0, 1]], "domain_norm": EUCL2,
                                     "codomain_norm": EUCL2}, "lambda": 1}),
        ("experiment-positive", {"box": [[0, 1], [0]], "m": 2, "f": {"kind": "zero"},
                                 "eta": 0.5, "eps_schedule": [0.5]}),
        ("experiment-positive", {"box": [[0, 1], [0, 1]], "m": 2, "f": {"kind": "affine"},
                                 "eta": 0.5, "eps_schedule": [0.5]}),
        ("probe-pair", {"a": EUCL2, "b": EUCL2, "lambda": 1, "samples": 1, "include": ["x"]}),
        ("inflate", {"map": {"entries": [[1, 0], [0, 1]], "domain_norm": EUCL2,
                             "codomain_norm": EUCL2},
                     "box": [[0, 1], [0, 1]], "eps": 0.1, "certificate": {}}),
    ], ids=["ragged-entries", "text-entries", "ragged-box", "affine-without-linear",
            "text-include", "empty-certificate"])
    def test_malformed_params_are_precondition_errors(self, capsys, command, params):
        assert main([command, "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

    def test_negative_experiment_refuses_a_nonpositive_eps(self, capsys):
        params = {"u": [1, 0], "r": 0.3, "eps_schedule": [-0.5, 0.0]}
        assert main(["experiment-negative", "--params", json.dumps(params)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

    @pytest.mark.parametrize("command, params, pointer, field", [
        ("experiment-negative", {"u": [1, 0], "r": math.nan, "eps_schedule": [0.5]}, "r", "r"),
        ("experiment-negative", {"u": [1, 0], "r": 0.3, "threshold": math.nan,
                                 "eps_schedule": [0.5]}, "threshold", "threshold"),
        ("inflate", {"map": {"entries": [[0.5, 0], [0, 0.5]], "domain_norm": EUCL2,
                             "codomain_norm": EUCL2},
                     "box": [[0, 1], [0, 1]], "eps": math.nan, "lambda": 0.5}, "eps", "eps"),
        ("experiment-positive", {"box": [[0, 1], [0, 1]], "m": 2, "f": {"kind": "zero"},
                                 "eta": 0.5, "eps_schedule": [math.nan]}, "eps_schedule/0", "eps"),
        ("experiment-positive", {"box": [[0, 1], [0, 1]], "m": 2, "f": {"kind": "zero"},
                                 "eta": 0.5, "lambda": math.nan, "eps_schedule": [0.5]},
         "lambda", "lam"),
    ], ids=["negative-r", "negative-threshold", "inflate-eps", "positive-eps", "positive-lambda"])
    def test_nan_is_refused_where_it_enters(self, capsys, command, params, pointer, field):
        # the CLI refuses NaN while it parses the JSON, naming the param ...
        assert main([command, "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "precondition"
        assert err["message"] == f"config params.{pointer}: NaN is not a number"
        # ... and the library refuses it where the number is first used
        assert run(ExperimentConfig(command, params)) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "precondition"
        assert err["message"].startswith(field + " must be")

    def test_nan_in_a_config_file_is_named(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"params": {"u": [1, 0], "r": 0.3, "eps_schedule": [0.5, NaN]}}')
        assert main(["experiment-negative", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "precondition",
                       "message": "config params.eps_schedule/1: NaN is not a number"}

    def test_infinity_stays_a_number(self, capsys):
        params = '{"u": [1, 0], "r": 0.3, "threshold": Infinity, "eps_schedule": [0.5], ' \
                 '"grid": 2, "restarts": 1, "steps": 1}'
        assert main(["experiment-negative", "--params", params]) == 0
        records = json.loads(capsys.readouterr().out)["report"]["records"]
        assert records[0]["superlevel_fraction"] == 0.0

    @pytest.mark.parametrize("command, params, field", [
        ("inflate", INFLATE_HALF | {"certificate": HALF_CERT | {"eigenvalues": [1]}},
         "eigenvalues"),
        ("inflate", INFLATE_HALF | {"certificate": HALF_CERT | {"eigenvalues": [1, 1, 1]}},
         "eigenvalues"),
        ("inflate", INFLATE_HALF | {"certificate": HALF_CERT | {"eigenvalues": [[1, 1]]}},
         "eigenvalues"),
        ("inflate", INFLATE_HALF | {"certificate": HALF_CERT | {
            "preimages": [[math.inf, 0], [0, 1]]}}, "preimages"),
        ("inflate", INFLATE_HALF | {"offset": [1]}, "offset"),
        ("inflate", INFLATE_HALF | {"offset": [1, 2, 3]}, "offset"),
        ("inflate", INFLATE_HALF | {"offset": [math.inf, 0]}, "offset"),
        ("experiment-positive", {"box": [[-1, 1], [-1, math.inf]], "m": 3,
                                 "f": {"kind": "zero"}, "eta": 0.5, "eps_schedule": [0.5]},
         "box"),
        ("experiment-positive", {"box": [[-1, 1], [-1, 1]], "m": 3, "eta": 0.5,
                                 "f": {"kind": "affine", "linear": [[0.1, 0], [0, 0.1], [0, 0]],
                                       "offset": [math.inf, 0, 0]},
                                 "eps_schedule": [0.5]}, "offset"),
        ("glue", {"base": {"kind": "zero"}, "delta": 0.1, "L": 0.0,
                  "patches": [{"set": [[0, math.inf], [0, 0.2]], "rho": 1.0,
                               "map": {"kind": "zero"}}],
                  "domain_norm": EUCL2, "codomain_norm": EUCL2}, "patch set"),
        ("glue", {"base": {"kind": "zero"}, "delta": 0.1, "L": 0.0,
                  "patches": [{"set": [[0.5, 0.1], [0, 1]], "rho": 1.0,
                               "map": {"kind": "zero"}}],
                  "domain_norm": EUCL2, "codomain_norm": EUCL2}, "patch set"),
        ("mv", {"u": [1, 0], "b": EUCL2, "a": {"dim": 2, "kind": {"transformed": {
            "base": EUCL2, "W": [[math.inf, 0], [0, 1]]}}}}, "W"),
        ("mv", {"u": [math.inf, 0], "a": LINF2, "b": EUCL2}, "u"),
        ("probe-pair", {"a": EUCL2, "b": EUCL2, "lambda": 1, "samples": 1,
                        "include": [[[math.inf, 0], [0, 1]]]}, "include matrix"),
        ("experiment-negative", {"u": [math.inf, 0], "r": 0.3, "eps_schedule": [0.5],
                                 "grid": 2, "restarts": 1, "steps": 1}, "u"),
        ("mv", {"u": [1, 0], "b": EUCL2, "a": {"dim": 2, "kind": {"polytopal": [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]}}}, "polytopal vertices"),
    ], ids=["eigenvalues-short", "eigenvalues-long", "eigenvalues-2d", "preimages-infinite",
            "offset-short", "offset-long", "offset-infinite", "positive-box-infinite",
            "positive-offset-infinite", "glue-set-infinite", "glue-set-reversed",
            "mv-W-infinite", "mv-u-infinite",
            "probe-include-infinite", "negative-u-infinite", "polytopal-width-3"])
    def test_malformed_arrays_exit_2_naming_the_field(self, capsys, command, params, field):
        # shape and finiteness are checked before any SVD, einsum or sampling,
        # and the refusal reads "<field> must ..."
        assert main([command, "--params", json.dumps(params)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] == "precondition" and f"{field} must" in err["message"]

    @pytest.mark.parametrize("command, params, field", [
        ("experiment-negative", {"u": [1, 0], "r": 0.3, "eps_schedule": [math.inf],
                                 "grid": 2, "restarts": 1, "steps": 1}, "eps_schedule"),
        ("calibrate", {"n": 1, "m": 2, "box_size": math.inf}, "box_size"),
        ("experiment-positive", {"box": [[0, 1], [0, 1]], "m": 3, "f": {"kind": "zero"},
                                 "eta": 0.5, "eps_schedule": [0.5], "boxcount": True,
                                 "box_size": math.inf}, "box_size"),
    ], ids=["negative-eps", "calibrate", "positive-boxcount"])
    def test_infinite_scale_exits_2_naming_the_field(self, capsys, command, params, field):
        assert main([command, "--params", json.dumps(params)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])["error"]
        assert err["type"] == "precondition" and f"{field} must" in err["message"]

    def test_the_malformed_array_cases_start_from_a_valid_job(self, capsys):
        params = INFLATE_HALF | {"certificate": HALF_CERT, "offset": [1, 2]}
        assert main(["inflate", "--params", json.dumps(params)]) == 0
        summary = json.loads(capsys.readouterr().out)["report"]["summary"]
        assert summary["cell_vol"] == 1.0

    def test_zero_include_matrix_is_refused_before_any_division(self, capsys):
        params = {"a": EUCL2, "b": EUCL2, "lambda": 1, "samples": 1,
                  "include": [[[0, 0], [0, 0]]]}
        assert main(["probe-pair", "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "precondition" and "include" in err["message"]

    def test_segment_guard_stops_the_build_with_a_typed_error(self, capsys, monkeypatch):
        # the README positive job builds 4 cells of two 176,284-segment zigzags per eps
        monkeypatch.setattr(co, "_MAX_GRID_SEGMENTS", 1_000_000)
        params = {"box": [[-1, 1], [-1, 1]], "m": 3, "f": {"kind": "zero"}, "eta": 0.9,
                  "eps_schedule": [0.2, 0.1]}
        assert main(["experiment-positive", "--params", json.dumps(params), "--seed", "0"]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "numerical"
        assert err["message"].startswith("zigzag resolution guard: 1057704 segments after 3 of 4")

    def test_unknown_command(self):
        assert run(ExperimentConfig("frobnicate", {})) == 2

    def test_precondition_violation_exits_2(self):
        config = ExperimentConfig("mv", {"u": [5.0, 0.0], "a": LINF2, "b": EUCL2})
        assert run(config) == 2

    def test_csv_requires_experiment(self):
        config = ExperimentConfig("mv", {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
                                  format="csv")
        assert run(config) == 2

    @pytest.mark.parametrize("kind", [
        {"transformed": {}}, {"lp": "abc"}, {"lp": None}, {"polytopal": "x"}],
        ids=["transformed-empty", "lp-text", "lp-null", "polytopal-text"])
    def test_malformed_norm_exits_2(self, capsys, kind):
        params = {"u": [1.0, 0.0], "a": {"dim": 2, "kind": kind}, "b": EUCL2}
        assert main(["mv", "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

    def test_calibrate(self, capsys):
        assert run(ExperimentConfig("calibrate", {"n": 1, "m": 2, "box_size": 1e-2})) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["calibration"] > 0.9

    @pytest.mark.parametrize("params, code, kind", [
        ({"n": 2, "m": 1, "box_size": 1e-2}, 2, "precondition"),
        ({"n": 2, "m": 3, "box_size": 1e-320}, 3, "numerical"),
        ({"n": 1, "m": 2, "box_size": 1e-13}, 3, "numerical"),
    ], ids=["m-below-n", "subnormal-box", "huge-raster"])
    def test_calibrate_errors_are_typed(self, capsys, params, code, kind):
        assert run(ExperimentConfig("calibrate", params)) == code
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == kind

    def test_probe_pair(self, capsys):
        params = {"a": EUCL2, "b": EUCL2, "lambda": 0.9, "samples": 3, "restarts": 3}
        assert run(ExperimentConfig("probe-pair", params, seed=4, threads=2)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["fraction_certified"] == 1.0

    def test_threads_do_not_change_probe_pair(self, capsys):
        params = json.dumps({"a": LINF2, "b": EUCL2, "lambda": 0.3, "samples": 2,
                             "restarts": 2})
        outputs = []
        for threads in ("1", "4"):
            assert main(["probe-pair", "--params", params, "--seed", "7",
                         "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, params", [
        ("check-inflation", {"map": {"entries": [[0.5, 0.1], [0.2, 0.4]], "domain_norm": LINF2,
                                     "codomain_norm": EUCL2}, "lambda": 0.1, "restarts": 2}),
        ("probe-pair", {"a": LINF2, "b": EUCL2, "lambda": 0.3, "samples": 2, "restarts": 2}),
    ])
    def test_retired_search_steps_key_is_ignored(self, capsys, command, params):
        # the search's "steps" budget is gone; old configs that set it still run
        outputs = []
        for given in (params, {**params, "steps": 20}):
            assert main([command, "--params", json.dumps(given), "--seed", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_inflate_cell_csv(self, tmp_path):
        params = {
            "map": {"entries": [[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]],
                    "domain_norm": EUCL2,
                    "codomain_norm": {"dim": 3, "kind": "euclidean"}},
            "box": [[-1.0, 1.0], [-1.0, 1.0]], "eps": 0.5, "lambda": 1.0,
        }
        out = tmp_path / "cells.csv"
        assert run(ExperimentConfig("inflate", params, seed=0, out=str(out),
                                    format="csv")) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("index,t0_lo")
        assert len(lines) > 1

    def test_refused_cell_csv_leaves_the_out_file_alone(self, capsys, tmp_path):
        # 615,860 cells: over the export guard, which must trip before --out is opened
        params = {
            "map": {"entries": [[0.5, 0.0], [0.0, 0.4], [0.0, 0.0]],
                    "domain_norm": EUCL2,
                    "codomain_norm": {"dim": 3, "kind": "euclidean"}},
            "box": [[-1.0, 1.0], [-1.0, 1.0]], "eps": 0.005, "lambda": 1.0,
        }
        out = tmp_path / "cells.csv"
        out.write_text("an earlier export\n")
        assert main(["inflate", "--params", json.dumps(params), "--format", "csv",
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["message"] == "cell export guard: 615860 cells > 100000"
        assert out.read_text() == "an earlier export\n"

    def test_positive_refuses_a_box_count_past_desk_scale_before_building(
            self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("built a construction")

        monkeypatch.setattr(ml, "inflate_on_set", no_build)
        params = {"box": [[-1, 1], [-1, 1]], "m": 5, "f": {"kind": "zero"}, "eta": 0.9,
                  "eps_schedule": [0.2, 0.1], "boxcount": True}
        assert main(["experiment-positive", "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "precondition",
                       "message": "box-counting is desk-scale only: n <= 2, m <= 4"}

    @pytest.mark.parametrize("boxcount", [False, True])
    def test_positive_refuses_a_null_box(self, capsys, boxcount):
        # its records used to integrate a glued map that a null box never builds
        params = {"box": [[0, 0], [0, 1]], "m": 3, "f": {"kind": "zero"}, "eta": 0.9,
                  "eps_schedule": [0.2], "boxcount": boxcount}
        assert main(["experiment-positive", "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "precondition",
                       "message": "the positive experiment needs a box of positive measure"}


class TestExperimentNorms:
    @pytest.mark.parametrize("command, params", FORWARDED,
                             ids=["positive", "negative-search", "negative-control"])
    def test_set_fields_are_echoed(self, capsys, command, params):
        assert main([command, "--params", json.dumps(params)]) == 0
        echoed = json.loads(capsys.readouterr().out)["report"]["config"]
        defaults = {f.name: f.default for f in dataclasses.fields(CONFIGS[command])}
        for key, value in params.items():
            name = PARAM_FIELDS.get(key, key)
            assert defaults[name] != value
            assert echoed[name] == value

    def test_the_cases_cover_every_field(self):
        for command, config in CONFIGS.items():
            covered = {PARAM_FIELDS.get(key, key)
                       for cmd, params in FORWARDED if cmd == command for key in params}
            assert covered == {f.name for f in dataclasses.fields(config)} - {"seed"}

    @pytest.mark.parametrize("params, message", [
        ({}, "needs a Euclidean domain and codomain"),
        ({"domain_kind": "euclidean", "codomain_kind": "linf"},
         "needs a Euclidean domain and codomain"),
        ({"domain_kind": "euclidean"}, "the control threshold must be below 1"),
    ], ids=["default-domain", "linf-codomain", "default-threshold"])
    def test_a_control_that_cannot_run_is_refused_before_the_build(self, capsys, monkeypatch,
                                                                   params, message):
        def not_called(*args, **kwargs):
            raise AssertionError("the control went past its checks")

        monkeypatch.setattr(ml, "inflate_on_set", not_called)
        if "Euclidean" in message:  # refused before the threshold's max_volume too
            monkeypatch.setattr(ml, "max_volume", not_called)
        params = {"u": [1, 0], "r": 0.3, "eps_schedule": [0.5], "control": True, **params}
        assert main(["experiment-negative", "--params", json.dumps(params)]) == 2
        err = one_error(capsys)
        assert err["type"] == "precondition" and message in err["message"]

    def test_negative_on_a_hexagon_codomain(self, capsys):
        params = {"u": [1, 0], "r": 0.3, "eps_schedule": [0.5, 0.25],
                  "codomain_kind": {"polytopal": HEXAGON}, "restarts": 4, "steps": 60}
        assert main(["experiment-negative", "--params", json.dumps(params)]) == 0
        for rec in json.loads(capsys.readouterr().out)["report"]["records"]:
            assert rec["sup_dist"] <= rec["eps"]
            assert rec["lip_exact"] <= 1.0 + 1e-9

    def test_negative_threshold_takes_the_exact_mv(self, capsys):
        u, r = [0.1, 0.2], 0.2
        params = {"u": u, "r": r, "eps_schedule": [0.5], "codomain_kind": "l1",
                  "grid": 3, "restarts": 2, "steps": 5}
        assert main(["experiment-negative", "--params", json.dumps(params)]) == 0
        threshold = json.loads(capsys.readouterr().out)["report"]["threshold"]
        a, b = ns.linf(2), ns.l1(2)
        exact = mv.max_volume(np.array(u), a, b)
        assert exact.analytic
        assert threshold == exact.value + r
        # an 8-restart ascent stops about 9% lower at this u
        ascent = mv._ascent(np.array(u), a, b, restarts=8, seed=0, iters=400)
        assert ascent.value <= exact.value + 1e-12

    def test_positive_on_an_lp3_domain(self, capsys):
        params = {"box": [[-1, 1], [-1, 1]], "m": 3, "domain_kind": {"lp": 3},
                  "f": {"kind": "affine", "linear": [[0.5, 0], [0, 0.4], [0, 0]]},
                  "lambda": 0.3, "eta": 0.9, "eps_schedule": [0.2]}
        assert main(["experiment-positive", "--params", json.dumps(params), "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["config"]["domain_kind"] == {"lp": 3}
        for rec in report["records"]:
            assert rec["sup_dist"] <= rec["eps"]
            assert rec["lip_exact"] <= 1.0 + 1e-9

    def test_positive_refuses_a_transformed_domain_before_building(self, capsys):
        params = {"box": [[-1, 1], [-1, 1]], "m": 3, "f": {"kind": "zero"}, "eta": 0.9,
                  "eps_schedule": [0.2], "domain_kind": {"transformed": {
                      "base": EUCL2, "W": [[2, 0], [0, 1]]}}}
        assert main(["experiment-positive", "--params", json.dumps(params)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "precondition"
        assert "needs a euclidean or lp domain norm" in err["message"]


class TestDeterminism:
    def test_mv_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        params = {"u": [0.7, 0.1], "a": LINF2, "b": EUCL2, "restarts": 4}
        assert run(ExperimentConfig("mv", params, seed=5, out=str(out1))) == 0
        assert run(ExperimentConfig("mv", params, seed=5, out=str(out2))) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_negative_experiment_byte_identical(self, tmp_path):
        params = {"u": [1.0, 0.0], "r": 0.3, "eps_schedule": [0.5, 0.25],
                  "grid": 4, "restarts": 3, "steps": 40}
        outs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            assert run(ExperimentConfig("experiment-negative", params, seed=9,
                                        out=str(out))) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_output_deterministic(self, tmp_path):
        params = {"box": [[-1.0, 1.0], [-1.0, 1.0]], "m": 3, "f": {"kind": "zero"},
                  "eta": 0.3, "eps_schedule": [0.25]}
        contents = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert run(ExperimentConfig("experiment-positive", params, seed=2,
                                        out=str(out), format="csv")) == 0
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]


class TestConfigRoundTrip:
    def test_round_trip_unchanged(self):
        config = ExperimentConfig("mv", {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
                                  seed=5, out="report.json", format="json", threads=2)
        data = config.to_json()
        back = ExperimentConfig.from_json(json.loads(json.dumps(data)))
        assert back == config
        assert back.to_json() == data


class TestEntryPoint:
    def test_every_command_has_one_handler(self):
        assert cli._HANDLERS.keys() == cli._SCHEMAS.keys()

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(["mv", "--config", str(bad)])
        assert proc.returncode == 2
        # last stderr line is the machine-readable error object
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

    @pytest.mark.parametrize("field", ["seed", "threads"])
    def test_malformed_config_field(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "mv",
            "params": {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
            field: "abc",
        }))
        assert main(["mv", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"
        assert field in err["error"]["message"]
        with pytest.raises(PreconditionError):
            ExperimentConfig.from_json(json.loads(cfg.read_text()))

    def test_config_file_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main(["mv", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

    def test_threads_environment_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("INFLATE_LAB_THREADS", "four")
        params = json.dumps({"u": [1.0, 0.0], "a": LINF2, "b": EUCL2})
        assert main(["mv", "--params", params]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["value"] == 0.0

    def test_inline_params(self):
        params = json.dumps({"u": [1.0, 0.0], "a": LINF2, "b": EUCL2})
        proc = run_cli(["mv", "--params", params, "--seed", "3"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["report"]["value"] == 0.0

    def test_flag_precedence_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "mv",
            "params": {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
            "seed": 1,
        }))
        proc = run_cli(["mv", "--config", str(cfg), "--seed", "2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seed"] == 2

    def test_glue_command(self):
        params = json.dumps({
            "base": {"kind": "zero"},
            "patches": [{"set": [[0.0, 0.0], [0.0, 0.0]], "rho": 1.0,
                         "map": {"kind": "affine", "linear": [[0.0, 0.0], [0.0, 0.0]],
                                 "offset": [0.05, 0.0]}}],
            "delta": 0.1, "L": 0.0,
            "domain_norm": EUCL2, "codomain_norm": EUCL2,
        })
        proc = run_cli(["glue", "--params", params])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["report"]["lip_bound"] == pytest.approx(0.4)
        assert payload["report"]["sampled_lip"] <= 0.4 + 1e-9


    def test_one_call_builds_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        params = json.dumps({"u": [1.0, 0.0], "a": LINF2, "b": EUCL2})
        assert main(["mv", "--params", params]) == 0
        assert len(built) == 1

    def test_flags_may_come_before_the_command(self, capsys):
        params = json.dumps({"u": [1.0, 0.0], "a": LINF2, "b": EUCL2})
        assert main(["--seed", "4", "--params", params, "mv"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    def test_a_command_help_is_the_one_help_page(self, capsys):
        pages = []
        for argv in (["--help"], ["mv", "--help"], ["calibrate", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1] == pages[2]
        assert pages[0].startswith("usage: inflate-lab <command> [flags]")
        assert all(command in pages[0] for command in cli.COMMANDS)

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--seed", "1"]],
                             ids=["missing", "unknown", "flags-only"])
    def test_a_missing_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument" in err


# small valid params for every command, each a job that would run to its end

# small valid params for every command, each a job that would run to its end
MINIMAL = {
    "check-inflation": {"map": INFLATE_HALF["map"], "lambda": 0.5},
    "probe-pair": {"a": EUCL2, "b": EUCL2, "lambda": 0.5, "samples": 1, "restarts": 1},
    "mv": {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
    "inflate": {**INFLATE_HALF, "certificate": HALF_CERT},
    "glue": {"base": {"kind": "zero"},
             "patches": [{"set": [[0.0, 0.0], [0.0, 0.0]], "rho": 1.0,
                          "map": {"kind": "affine", "linear": [[0.0, 0.0], [0.0, 0.0]],
                                  "offset": [0.05, 0.0]}}],
             "delta": 0.1, "L": 0.0, "domain_norm": EUCL2, "codomain_norm": EUCL2,
             "probes": 10},
    "experiment-positive": {"box": [[0, 1], [0, 1]], "m": 2, "f": {"kind": "zero"},
                            "eta": 0.5, "eps_schedule": [0.5]},
    "experiment-negative": {"u": [1, 0], "r": 0.3, "eps_schedule": [0.5], "grid": 2,
                            "restarts": 1, "steps": 1},
    "calibrate": {"n": 1, "m": 2, "box_size": 0.01},
}
# the sha256 of test_inflate_cell_csv's cells, written through PiecewiseAffineMap.from_json
CELL_CSV_SHA256 = "589c99424a3ffeb8bf1fae7787b3753fc0bace70262d7d57305210408abfac82"


def no_handler(monkeypatch, command):
    def refused(*args):
        raise AssertionError(f"the {command} handler ran")

    monkeypatch.setitem(cli._HANDLERS, command, refused)


def one_error(capsys) -> dict:
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    return json.loads(err)["error"]


class TestLifecycle:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_every_command_refuses_an_out_in_a_missing_directory(self, capsys, tmp_path,
                                                                 command):
        cli._validate(ExperimentConfig(command, MINIMAL[command]))  # a valid request
        out = tmp_path / "missing" / "report.json"
        assert main([command, "--params", json.dumps(MINIMAL[command]),
                     "--out", str(out)]) == 2
        assert one_error(capsys) == {
            "type": "precondition",
            "message": f"out directory {str(out.parent)!r} does not exist"}
        assert not out.parent.exists()

    @pytest.mark.parametrize("command, fmt", [
        ("mv", "json"), ("experiment-negative", "csv"), ("inflate", "csv")],
        ids=["json", "records-csv", "cells-csv"])
    def test_a_missing_out_directory_is_refused_before_the_handler(
            self, capsys, monkeypatch, tmp_path, command, fmt):
        no_handler(monkeypatch, command)
        out = tmp_path / "missing" / "report"
        assert main([command, "--params", json.dumps(MINIMAL[command]), "--format", fmt,
                     "--out", str(out)]) == 2
        assert one_error(capsys)["type"] == "precondition"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        ("probe-pair", "csv format requires an experiment command"),
        ("inflate", "inflate csv needs --out"),
    ], ids=["no-records", "cells-without-out"])
    def test_csv_misuse_is_refused_before_the_handler(self, capsys, monkeypatch, command,
                                                      message):
        no_handler(monkeypatch, command)
        assert main([command, "--params", json.dumps(MINIMAL[command]), "--format", "csv"]) == 2
        assert one_error(capsys) == {"type": "precondition", "message": message}

    def test_an_out_that_cannot_be_opened_is_a_precondition_violation(self, capsys,
                                                                       tmp_path):
        # the directory exists, but --out names the directory itself
        assert main(["mv", "--params", json.dumps(MINIMAL["mv"]),
                     "--out", str(tmp_path)]) == 2
        err = one_error(capsys)
        assert err["type"] == "precondition" and str(tmp_path) in err["message"]

    def test_inflate_csv_writes_the_built_map_without_a_json_round_trip(
            self, monkeypatch, tmp_path):
        def no_parse(data):
            raise AssertionError("the map was parsed back from JSON")

        monkeypatch.setattr(co.PiecewiseAffineMap, "from_json", staticmethod(no_parse))
        params = {
            "map": {"entries": [[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]],
                    "domain_norm": EUCL2,
                    "codomain_norm": {"dim": 3, "kind": "euclidean"}},
            "box": [[-1.0, 1.0], [-1.0, 1.0]], "eps": 0.5, "lambda": 1.0,
        }
        out = tmp_path / "cells.csv"
        assert run(ExperimentConfig("inflate", params, seed=0, out=str(out),
                                    format="csv")) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CELL_CSV_SHA256

    def test_inflate_json_serializes_the_map_it_built(self, capsys):
        assert main(["inflate", "--params", json.dumps(MINIMAL["inflate"])]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        pam = co.PiecewiseAffineMap.from_json(report["map"])
        assert pam.to_json() == report["map"]
        assert report["summary"]["cells"] == [c.segment_count for c in pam.curves]


def malformed_config(tmp_path, case: str) -> str:
    """The path of a config file for the mv job that is broken in one way."""
    if case == "directory":
        return str(tmp_path)
    path = tmp_path / "config.json"
    contents = {
        "not-utf8": b'{"params": {}, "out": "r\xe9sum\xe9.json"}',  # latin-1
        "out-number": {"params": MINIMAL["mv"], "out": 5},
        "out-list": {"params": MINIMAL["mv"], "out": ["a"]},
        "top-level-list": [MINIMAL["mv"]],
        "params-number": {"params": 5},
        "seed-text": {"params": MINIMAL["mv"], "seed": "abc"},
    }[case]
    path.write_bytes(contents if isinstance(contents, bytes) else json.dumps(contents).encode())
    return str(path)


class TestConfigFiles:
    @pytest.mark.parametrize("case", ["not-utf8", "out-number", "out-list", "top-level-list",
                                      "params-number", "seed-text", "directory"])
    def test_a_malformed_config_file_exits_2_with_one_error_line(self, capsys, tmp_path,
                                                                 case):
        assert main(["mv", "--config", malformed_config(tmp_path, case)]) == 2
        assert one_error(capsys)["type"] == "precondition"

    @pytest.mark.parametrize("flag", ["--config", "--params"])
    def test_params_nested_past_the_recursion_limit_exit_2(self, capsys, tmp_path, flag):
        # decoding used to end in a RecursionError traceback with exit 1
        depth = 100_000
        params = '{"u": ' + "[" * depth + "1" + "]" * depth + ', "a": {}, "b": {}}'
        if flag == "--config":
            path = tmp_path / "config.json"
            path.write_text('{"params": ' + params + "}")
            params = str(path)
        assert main(["mv", flag, params]) == 2
        assert one_error(capsys)["type"] == "precondition"

    def test_the_schema_check_refuses_params_nested_past_the_recursion_limit(self, capsys):
        # a value deep enough to decode could still overflow the schema check
        deep = 1.0
        for _ in range(100_000):
            deep = [deep]
        assert run(ExperimentConfig("mv", {**MINIMAL["mv"], "u": deep})) == 2
        err = one_error(capsys)
        assert err["type"] == "precondition"
        assert err["message"].startswith("config params nest too deeply to check")

    def test_a_schema_error_echoes_only_the_head_of_a_long_value(self, capsys, tmp_path):
        # the message used to repeat all 100,000 entries, a 500 KB stderr line
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {**MINIMAL["mv"],
                                               "u": [list(range(100_000)), 0.0]}}))
        assert main(["mv", "--config", str(path)]) == 2
        err = one_error(capsys)
        assert len(err["message"]) < 1000
        assert err["message"].startswith("config params.u/0: [0, 1, 2, ")
        assert err["message"].endswith("... is not of type 'number'")

    @pytest.mark.parametrize("out", [5, ["a"]], ids=["number", "list"])
    def test_run_refuses_an_out_that_is_not_a_string(self, capsys, out):
        assert run(ExperimentConfig("mv", MINIMAL["mv"], out=out)) == 2
        assert one_error(capsys) == {"type": "precondition",
                                     "message": f"out must be a path string, got {out!r}"}


# a box patch and a three-point cloud, far apart, each a shift of the base x -> x / 2
HALF = [[0.5, 0.0], [0.0, 0.5]]
GLUE = {"base": {"kind": "affine", "linear": HALF},
        "patches": [{"set": [[0, 1], [0, 1]], "rho": 0.5,
                     "map": {"kind": "affine", "linear": HALF, "offset": [0.05, 0.0]}},
                    {"set": [[4, 4], [5, 4], [4, 5]], "rho": 1.0,
                     "map": {"kind": "affine", "linear": HALF, "offset": [0.0, -0.1]}}],
        "delta": 0.2, "L": 0.5, "domain_norm": EUCL2, "codomain_norm": EUCL2, "probes": 500}


def glue_with(patch: int, **changes) -> dict:
    patches = [dict(p) for p in GLUE["patches"]]
    patches[patch].update(changes)
    return {**GLUE, "patches": patches}


class TestGlue:
    @pytest.mark.parametrize("domain_box", [None, [[-1, 6], [-1, 6]]],
                             ids=["default-box", "explicit-box"])
    def test_a_box_and_a_point_cloud_patch(self, capsys, domain_box):
        params = GLUE if domain_box is None else {**GLUE, "domain_box": domain_box}
        assert main(["glue", "--params", json.dumps(params), "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["lip_bound"] == GLUE["L"] + 4 * GLUE["delta"]
        assert report["patches"] == 2
        assert report["sampled_lip"] <= report["lip_bound"]
        assert report["sampled_sup_dist"] <= GLUE["delta"] * max(
            p["rho"] for p in GLUE["patches"])

    def test_no_patches_need_a_domain_box(self, capsys):
        # the default box used to concatenate no patch sets: a traceback and exit 1
        params = {**GLUE, "patches": []}
        assert main(["glue", "--params", json.dumps(params)]) == 2
        assert one_error(capsys) == {"type": "precondition", "message":
                                     "glue with no patches needs a domain_box to sample"}
        params["domain_box"] = [[-1, 1], [-1, 1]]
        assert main(["glue", "--params", json.dumps(params)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["patches"] == 0

    def test_a_two_by_two_set_in_the_plane_is_a_box(self, capsys):
        # [[0, 0], [1, 1]] is the box {0} x {1}, the point (0, 1); listing a
        # point twice makes a cloud of the two points (0, 0) and (1, 1)
        for rows in ([[0, 0], [1, 1]], [[0, 0], [1, 1], [1, 1]]):
            params = glue_with(1, set=rows, rho=0.5)
            params["patches"][0]["set"] = [[-4, -3], [-4, -3]]
            assert main(["glue", "--params", json.dumps(params)]) == 0
            assert json.loads(capsys.readouterr().out)["report"]["patches"] == 2

    @pytest.mark.parametrize("params, word", [
        (glue_with(1, set=[[1.5, 0.5], [2, 0.5], [2, 1]], rho=0.5), "overlap"),
        (glue_with(1, map={"kind": "affine", "linear": HALF, "offset": [0.0, -0.5]}),
         "deviates"),
    ], ids=["overlap", "deviates"])
    def test_a_broken_patch_hypothesis_exits_2(self, capsys, params, word):
        assert main(["glue", "--params", json.dumps(params)]) == 2
        err = one_error(capsys)
        assert err["type"] == "precondition" and word in err["message"]
