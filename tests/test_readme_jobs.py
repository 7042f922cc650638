"""Every README CLI job prints exactly its stored output.

The outputs under perfbench/reference/ are the stdout bytes of the jobs in
perfbench/workloads.py's README_JOBS; reports are deterministic, so any
difference is a change in the numbers.  This only reads those files; to
store new outputs after an intended change, run

    python3 perfbench/reference.py --write
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

from inflate_lab import constructions as co  # noqa: E402


def assert_prints_its_stored_output(name):
    out = workloads.cli_call(workloads.README_JOBS[name])()
    assert out.code == 0, out.stderr
    with open(os.path.join(BENCH, "reference", name + ".out"), newline="") as fh:
        assert out.stdout == fh.read()


@pytest.mark.parametrize("name", sorted(workloads.README_JOBS))
def test_readme_job_prints_its_stored_output(name):
    assert_prints_its_stored_output(name)


def test_positive_pipeline_reads_no_slope_array(monkeypatch):
    # the pipeline reads each curve's palette; a (K, m) slopes read is a full copy
    def refuse(curve):
        raise AssertionError("CoordinateCurve.slopes was read")

    monkeypatch.setattr(co.CoordinateCurve, "slopes", property(refuse))
    assert_prints_its_stored_output("readme-positive-boxcount")
