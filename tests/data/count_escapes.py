"""Count the single And<->Or flips that a random check lets through.

Run from the repository root against the checkout to measure:

    PYTHONPATH=src python tests/data/count_escapes.py 32

For each kind built at the given width, every And gate is turned into an Or
and every Or into an And, one gate at a time, and each faulty netlist gets
``check_random(nl, TRIALS, SEED)`` (20000 trials, seed 1 unless given as
the second and third arguments).  A flip whose report passes escapes; the
script prints, per kind, how many flips escape out of how many were made,
and the ids of the escaping gates.  Some flips may give an adder that is
still correct, so an escape is a lower bound on what the check misses, not
a proof that it misses it.
"""

import dataclasses
import sys

from quadder import builders, verify

FLIP = {"and": "or", "or": "and"}


def escapes(nl, trials: int, seed: int) -> tuple[list[int], int]:
    """The ids of the flipped gates whose check passes, and the flip count."""
    flips = [nid for nid, node in enumerate(nl.nodes) if node.kind in FLIP]
    missed = []
    for nid in flips:
        nodes = list(nl.nodes)
        nodes[nid] = nodes[nid]._replace(kind=FLIP[nodes[nid].kind])
        if verify.check_random(dataclasses.replace(nl, nodes=tuple(nodes)), trials, seed).passed:
            missed.append(nid)
    return missed, len(flips)


def main(argv: list[str]) -> None:
    width = int(argv[0])
    trials, seed = (int(argv[1]), int(argv[2])) if len(argv) > 1 else (20000, 1)
    for kind in builders.KINDS:
        missed, flips = escapes(builders.build(builders.AdderSpec(kind, width)), trials, seed)
        print(f"{kind} n={width} trials={trials} seed={seed}: {len(missed)} of {flips} "
              f"And<->Or flips escape {missed}")


if __name__ == "__main__":
    main(sys.argv[1:])
