"""Write the golden document hashes that test_document_golden.py checks.

Run from the repository root against the checkout whose output is the
reference:

    PYTHONPATH=src python tests/data/make_document_golden.py > tests/data/document_golden.json

For five kinds at widths 1-8, 16 and 17 (hybrid with its default block,
min(4, n)), each entry holds the SHA-256 of the built netlist's JSON
document, of its Graphviz DOT text and of the JSON document of its
``lower_fanin2`` rewrite.  These pin node order, ids, groups, signals and
intern hits, and the rewrite's order as well.
"""

import hashlib
import json
import sys

from quadder import builders, netlist

KINDS = builders.KINDS
WIDTHS = (*range(1, 9), 16, 17)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def documents(kind: str, n: int) -> dict:
    """The three texts of one (kind, width) case, by name."""
    nl = builders.build(builders.spec_for(kind, n))
    return {"json": netlist.to_json(nl), "dot": netlist.to_dot(nl),
            "lowered": netlist.to_json(netlist.lower_fanin2(nl))}


def write_reference() -> None:
    doc = {f"{kind} {n}": {name: sha(text) for name, text in documents(kind, n).items()}
           for kind in KINDS for n in WIDTHS}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    write_reference()
