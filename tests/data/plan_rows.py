"""Print the size of each kind's compiled plan and the peak of a random check.

Run from the repository root against the checkout to measure:

    PYTHONPATH=src python tests/data/plan_rows.py 16 64 256

For each kind built at each width given (16, 64 and 256 unless given;
single_stage stops at 64, the widest it is verified at), the script prints
the plan's steps, its plane rows (``slots``), the input reads of its steps,
and the peak that ``tracemalloc`` traces over ``check_random(nl, 20000, 5)``
with the plan compiled beforehand, outside the trace.
"""

import sys
import tracemalloc

import numpy.random  # noqa: F401  (imported here, not inside the first trace)

from quadder import builders, verify

TRIALS, SEED = 20000, 5
WIDEST = {"single_stage": 64}


def traced_peak(nl) -> int:
    """Bytes ``check_random(nl, TRIALS, SEED)`` peaks at, the plan compiled."""
    nl._plan   # compiled outside the trace
    tracemalloc.start()
    try:
        passed = verify.check_random(nl, TRIALS, SEED).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not passed:
        raise SystemExit(f"{nl.meta['kind']} n={nl.width} fails its random check")
    return peak


def main(argv: list[str]) -> None:
    widths = [int(arg) for arg in argv] or [16, 64, 256]
    for kind in builders.KINDS:
        for width in widths:
            if width > WIDEST.get(kind, width):
                continue
            nl = builders.build(builders.AdderSpec(kind, width))
            plan = nl._plan
            reads = sum(len(ins) for _, ins, _, _ in plan.steps)
            print(f"{kind} n={width}: {len(plan.steps)} steps, {plan.slots} rows, "
                  f"{reads} input reads, check_random({TRIALS}, {SEED}) peaks at "
                  f"{traced_peak(nl) / 2**20:.2f} MiB")


if __name__ == "__main__":
    main(sys.argv[1:])
