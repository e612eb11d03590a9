"""Write the golden document hashes that test_document_golden.py checks.

Run from the repository root against the checkout whose output is the
reference:

    PYTHONPATH=src python tests/data/make_document_golden.py > tests/data/document_golden.json

For five kinds at widths 1-8, 16 and 17 (hybrid with its default block,
min(4, n)), and at widths 1-12 for sparse at sparsity 2 and 3 and hybrid
at blocks 1, 2, 3 and n (blocks up to n only), each entry holds the
SHA-256 of the built netlist's JSON document, of its Graphviz DOT text and
of the JSON document of its ``lower_fanin2`` rewrite.  These pin node
order, ids, groups, signals and intern hits, and the rewrite's order as
well.
"""

import hashlib
import json
import sys

from quadder import builders, netlist

KINDS = builders.KINDS
WIDTHS = (*range(1, 9), 16, 17)
PARAM_WIDTHS = range(1, 13)


def cases():
    """(key, spec) for every pinned case, keyed as in the reference file."""
    for kind in KINDS:
        for n in WIDTHS:
            yield f"{kind} {n}", builders.AdderSpec(kind, n)
    for n in PARAM_WIDTHS:
        for sparsity in (2, 3):
            yield f"sparse {n} sparsity={sparsity}", builders.AdderSpec("sparse", n, sparsity)
        for block in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            yield f"hybrid {n} block={block}", builders.AdderSpec("hybrid", n, block=block)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def documents(spec: builders.AdderSpec) -> dict:
    """The three texts of one case, by name."""
    nl = builders.build(spec)
    return {"json": netlist.to_json(nl), "dot": netlist.to_dot(nl),
            "lowered": netlist.to_json(netlist.lower_fanin2(nl))}


def write_reference() -> None:
    doc = {key: {name: sha(text) for name, text in documents(spec).items()}
           for key, spec in cases()}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    write_reference()
