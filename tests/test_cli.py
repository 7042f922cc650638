import json
import subprocess
import sys

import pytest

from inflate_lab.cli import ExperimentConfig, run

LINF2 = {"dim": 2, "kind": {"lp": "inf"}}
EUCL2 = {"dim": 2, "kind": "euclidean"}


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "inflate_lab.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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

    def test_infeasible_inflation_exits_3(self, capsys):
        params = {
            "map": {"entries": [[1.0, 0.0001], [0.0, 0.0001]],
                    "domain_norm": LINF2, "codomain_norm": EUCL2},
            "lambda": 0.5,
            "restarts": 4, "steps": 30,
        }
        # rescale is on the caller here: this map has norm slightly above 1
        params["map"]["entries"] = [[0.99, 0.0001], [0.0, 0.0001]]
        assert run(ExperimentConfig("check-inflation", params, seed=0)) == 3

    def test_schema_violation_exits_2(self, capsys):
        config = ExperimentConfig("mv", {"u": "nonsense", "a": LINF2, "b": EUCL2})
        assert run(config) == 2

    def test_unknown_command(self):
        assert run(ExperimentConfig("frobnicate", {})) == 2

    def test_precondition_violation_exits_2(self):
        config = ExperimentConfig("mv", {"u": [5.0, 0.0], "a": LINF2, "b": EUCL2})
        assert run(config) == 2

    def test_csv_requires_experiment(self):
        config = ExperimentConfig("mv", {"u": [1.0, 0.0], "a": LINF2, "b": EUCL2},
                                  format="csv")
        assert run(config) == 2

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
        params = {"a": EUCL2, "b": EUCL2, "lambda": 0.9, "samples": 3,
                  "restarts": 3, "steps": 30}
        assert run(ExperimentConfig("probe-pair", params, seed=4, threads=2)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["fraction_certified"] == 1.0

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
    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(["mv", "--config", str(bad)])
        assert proc.returncode == 2
        # last stderr line is the machine-readable error object
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "precondition"

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
