"""Stored outputs of the README CLI jobs, so numeric drift can be seen.

    python3 perfbench/reference.py           # compare; exit 1 on any difference
    python3 perfbench/reference.py --write   # store the current outputs

Outputs are the exact stdout bytes of ``inflate_lab.cli.main(argv)`` for the
jobs in ``workloads.README_JOBS``; reports are deterministic, so any
difference is a change in the numbers.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="store the current outputs")
    args = parser.parse_args(argv)
    drift = 0
    for name, argv_job in workloads.README_JOBS.items():
        out = workloads.cli_call(argv_job)()
        if out.code != 0:
            print(f"{name}: exit code {out.code}: {out.stderr.strip()}")
            drift += 1
            continue
        path = os.path.join(REFERENCE_DIR, name + ".out")
        if args.write:
            os.makedirs(REFERENCE_DIR, exist_ok=True)
            with open(path, "w", newline="") as fh:
                fh.write(out.stdout)
            print(f"{name}: written")
            continue
        try:
            with open(path, newline="") as fh:
                same = fh.read() == out.stdout
        except FileNotFoundError:
            same = False
        drift += int(not same)
        print(f"{name}: {'identical' if same else 'DIFFERS'}")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
