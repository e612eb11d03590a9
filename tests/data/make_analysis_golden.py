"""Write the golden analyze/sweep outputs that test_analysis_golden.py checks.

Run from the repository root against the checkout whose output is the
reference:

    PYTHONPATH=src python tests/data/make_analysis_golden.py > tests/data/analysis_golden.json

Hybrid rows pass ``--block min(4, n)`` explicitly, the block that ``sweep``
uses, so the script runs the same on checkouts with and without a width-aware
``--block`` default.
"""

import contextlib
import io
import json
import sys

from quadder.cli import main

KINDS = ("ripple", "single_stage", "tree", "sparse", "hybrid")
WIDTHS = (*range(1, 9), 15, 16, 17, 31, 32, 33, 64)
MASKS = ("excluded", "included")
SWEEP_ARGV = ["sweep", "--kinds", "ripple,single,tree,sparse,hybrid", "--widths", "1..12",
              "--mask", "included"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def analyze_argv(kind, n, mask):
    argv = ["analyze", "--kind", kind, "--width", str(n), "--mask", mask]
    if kind == "hybrid":
        argv += ["--block", str(min(4, n))]
    return argv


def write_reference() -> None:
    doc = {
        "analyze": {f"{kind} {n} {mask}": run(analyze_argv(kind, n, mask))
                    for kind in KINDS for n in WIDTHS for mask in MASKS},
        "sweep_argv": SWEEP_ARGV,
        "sweep": run(SWEEP_ARGV),
    }
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    write_reference()
