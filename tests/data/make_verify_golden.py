"""Write the golden verify reports that test_verify_golden.py checks.

Run from the repository root against the checkout whose output is the
reference:

    PYTHONPATH=src python tests/data/make_verify_golden.py > tests/data/verify_golden.json

The reports cover five kinds exhaustively at widths 1-4, ``--random 500``
at widths 5, 16 and 64 with fixed seeds, and two faulty documents per kind
(the S[j] XOR turned into an OR, the carry-out mask And(x, 1) turned into
Or(x, 1)), exhaustively at width 2 and with random trials at width 8.
Two more width-12 documents, with random trials, each turn one OR of the
carry tree into an AND: ``carry[1]`` of the tree adder and ``carry[8]`` of
the sparse one.  A wrong carry there reaches several sum digits at once, so
one case mismatches at several signals, and the report's signal order
(``S[10]`` before ``S[2]`` and ``S[9]``) is checked.
Three longer random runs reach past one chunk of the streamed check
(2^15 trials): a correct tree at width 16 over three chunks, a sparse
width-16 document with one AND of its product tree turned into an OR,
whose records come from all three, and the same fault in a width-7 tree
with 33333 trials.
Each report is stored as its exit code, byte count and SHA-256; the faulty
reports run to 34-142 kB each, too much to keep as text.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from quadder import builders, netlist
from quadder.cli import main

KINDS = ("ripple", "single_stage", "tree", "sparse", "hybrid")
EXHAUSTIVE_WIDTHS = (1, 2, 3, 4)
RANDOM_WIDTHS = (5, 16, 64)
RANDOM_TRIALS = 500
FAULTY_WIDTHS = (2, 8)   # exhaustive, random
FAULTS = ("S", "cout")
CARRY_FAULT_WIDTH = 12   # random
CARRY_FAULTS = (("tree", "carry[1]"), ("sparse", "carry[8]"))
LONG_RUNS = (("tree", 16, None, 70000), ("sparse", 16, "product_tree[1]", 70000),
             ("tree", 7, "product_tree[3]", 33333))   # (kind, width, fault, trials)


def run(argv):
    """The CLI's stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def seed_for(kind: str, n: int) -> int:
    return 1000 * (1 + KINDS.index(kind)) + n


def faulty_doc(kind: str, n: int, fault: str) -> dict:
    """The built document with one gate's kind changed: S[j]'s XOR (j = n//2 + 1)
    or the carry-out mask's AND becomes an OR; a named carry signal's OR
    becomes an AND; the k-th AND of the product tree becomes an OR."""
    doc = json.loads(netlist.to_json(builders.build(builders.AdderSpec(kind, n))))
    if fault == "S":
        nid, want, new = doc["ports"]["S"][n // 2], "xor", "or"
    elif fault == "cout":
        nid, want, new = doc["ports"]["cout"], "and", "or"
    elif fault.startswith("product_tree["):
        nid, want, new = doc["meta"]["groups"]["product_tree"][int(fault[13:-1])], "and", "or"
    else:
        nid, want, new = doc["signals"][fault], "or", "and"
    if doc["nodes"][nid]["kind"] != want:
        raise SystemExit(f"{kind} {n}: {fault} is not a {want} gate")
    doc["nodes"][nid]["kind"] = new
    return doc


def random_argv(kind: str, n: int, trials: int = RANDOM_TRIALS) -> list:
    return ["verify", "--random", str(trials), "--seed", str(seed_for(kind, n))]


def cases():
    """(key, argv, document or None) for every report in the reference; a
    document's argv lacks its ``--netlist PATH``."""
    for kind in KINDS:
        for n in EXHAUSTIVE_WIDTHS:
            yield f"{kind} {n} exhaustive", ["verify", "--kind", kind, "--width", str(n),
                                             "--exhaustive"], None
        for n in RANDOM_WIDTHS:
            yield f"{kind} {n} random", [*random_argv(kind, n), "--kind", kind,
                                         "--width", str(n)], None
        for fault in FAULTS:
            for n in FAULTY_WIDTHS:
                argv = ["verify", "--exhaustive"] if n == FAULTY_WIDTHS[0] else random_argv(kind, n)
                yield f"{kind} {n} {fault}-fault", argv, faulty_doc(kind, n, fault)
    for kind, signal in CARRY_FAULTS:
        n = CARRY_FAULT_WIDTH
        yield f"{kind} {n} {signal}-fault", random_argv(kind, n), faulty_doc(kind, n, signal)
    for kind, n, fault, trials in LONG_RUNS:
        argv = random_argv(kind, n, trials)
        if fault is None:
            yield f"{kind} {n} random {trials}", [*argv, "--kind", kind, "--width", str(n)], None
        else:
            yield f"{kind} {n} {fault}-fault {trials}", argv, faulty_doc(kind, n, fault)


def report(argv, doc, workdir: Path, key: str):
    """(exit code, stdout) for one case; a document is written to workdir first."""
    if doc is not None:
        path = workdir / (key.replace(" ", "-") + ".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--netlist", str(path)]
    return run(argv)


def fingerprint(code: int, text: str) -> dict:
    data = text.encode("utf-8")
    return {"code": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def write_reference() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {}
        for key, argv, nl_doc in cases():
            code, text = report(argv, nl_doc, Path(tmp), key)
            doc[key] = fingerprint(code, text)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    write_reference()
