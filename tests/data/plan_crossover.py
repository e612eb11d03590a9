"""Print, per kind and width, what a batch plan costs and what it saves.

Run from the repository root against the checkout to measure:

    PYTHONPATH=src python tests/data/plan_crossover.py 16 64 256

For each kind built at each width given (16, 64 and 256 unless given;
single_stage stops at 64, the widest it is verified at), the script prints
the plan's compile time, then for each lane count from 1,024 to 32,768 the
kernel time of one ``_run_plan`` over the compiled plan (as ``add_cases``
runs a large check) and over the nodes' own plan (as it runs a check of at
most ``RUN_LANES // 8`` lanes).
The input planes are random.  Each time is the median of REPEATS calls in
process time, the collector paused.  A plan pays for itself at a lane count
where the node run's time exceeds the planned run's by more than the
compile, which re-derives ``add_cases``' lane bound on another host.
"""

import gc
import random
import statistics
import sys
import time

from quadder import builders, netlist

REPEATS = 7
LANES = (1024, 2048, 4096, 8192, 16384, 32768)
WIDEST = {"single_stage": 64}


def median_ms(fn) -> float:
    """The median process time of ``fn()`` in ms over REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            fn()
            times.append(time.process_time() - start)
        finally:
            gc.enable()
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> None:
    widths = [int(arg) for arg in argv] or [16, 64, 256]
    rng = random.Random(1)
    for kind in builders.KINDS:
        for width in widths:
            if width > WIDEST.get(kind, width):
                continue
            nl = builders.build(builders.AdderSpec(kind, width))
            compile_ms = median_ms(lambda: netlist._Plan.compile(nl._node_plan))
            plan = nl._plan
            print(f"{kind} n={width}: {len(nl.nodes)} nodes, {plan.slots} slots, "
                  f"compile {compile_ms:.2f} ms")
            for lanes in LANES:
                ins = [rng.getrandbits(lanes) for _ in range(2 * (2 * width + 1))]
                ones = (1 << lanes) - 1
                lo, hi = ins[:2 * width + 1], ins[2 * width + 1:]
                plan_ms = median_ms(lambda: netlist._run_plan(plan, lo, hi, ones))
                nodes_ms = median_ms(lambda: netlist._run_plan(nl._node_plan, lo, hi, ones))
                print(f"  {lanes:6d} lanes: planned {plan_ms:.2f} ms, nodes {nodes_ms:.2f} ms")


if __name__ == "__main__":
    main(sys.argv[1:])
