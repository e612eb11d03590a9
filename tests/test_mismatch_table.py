"""verify's mismatch records and report text against their definition.

The reference evaluates every case as one lane of a single scalar-evaluator
node walk (``netlist._run`` over the nodes, no plan) and with the integer
oracle, makes one dict per wrong output signal, sorts the dicts in Python
by (a, b, cin, signal) and writes the report with
``json.dumps(doc, indent=2)``.  The netlists are built adders with up to
three gates of their carry network (at least one where it has any)
changed to another kind of the same fan-in.  The writer is also checked
alone, on tables drawn with no netlist.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from quadder import builders, netlist, verify

CARRY_GROUPS = ("cells", "carry_network", "product_tree", "carry_tree", "block_network",
                "block_level")
SWAP = {"and": "or", "or": "xor", "xor": "and",
        "not": "bitswap", "bitswap": "inward", "inward": "outward", "outward": "not"}


def faulted(nl, ids):
    nodes = list(nl.nodes)
    for nid in ids:
        nodes[nid] = nodes[nid]._replace(kind=SWAP[nodes[nid].kind])
    return dataclasses.replace(nl, nodes=tuple(nodes))


def cases(n, mode, trials, seed):
    """(a, b, cin) of every case the check runs, as tuples of ints; a random
    check's rebuilt from its PCG64 stream by ``reference.random_cases``."""
    if mode == "exhaustive":
        words = list(itertools.product(range(4), repeat=n))
        return [(a, b, c) for a in words for b in words for c in (0, 1)]
    structured = len(reference.corner_vectors(n)) + 6 * len(reference.carry_run_blocks(n))
    return reference.random_cases(n, structured + trials, seed)


def node_walk(nl, runs):
    """Each case's S[1..n] and cout digits, from one ``netlist._run`` over
    ``nl.nodes`` with case k as lane k: every port's lo and hi plane packed
    from its digits, the output planes read back with numpy."""
    lanes = len(runs)
    digits = np.array([(*a, *b, cin) for a, b, cin in runs], dtype=np.uint8).reshape(lanes, -1)
    lo, hi = [0] * len(nl.nodes), [0] * len(nl.nodes)

    def plane(bits):
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    for pid, column in zip((*nl.a_ports, *nl.b_ports, nl.cin_port), digits.T):
        lo[pid], hi[pid] = plane(column & 1), plane(column >> 1)
    netlist._run(nl.nodes, range(len(lo)), lo, hi, (1 << lanes) - 1)
    outputs = (*nl.s_ports, nl.cout_port)
    size = -(-lanes // 8)
    out = [*(lo[i] for i in outputs), *(hi[i] for i in outputs)]
    bits = np.unpackbits(np.frombuffer(b"".join(plane.to_bytes(size, "little") for plane in out),
                                       np.uint8).reshape(2, len(outputs), size), axis=2,
                         bitorder="little")[..., :lanes]
    return (bits[1] << 1 | bits[0]).T.tolist()


def reference_records(nl, runs):
    names = [*(f"S[{j + 1}]" for j in range(nl.width)), "cout"]
    records = []
    for (a, b, cin), outputs in zip(runs, node_walk(nl, runs)):
        want_s, want_c = reference.oracle_add(a, b, cin)
        for signal, want, got in zip(names, (*want_s, want_c), outputs):
            if want != got:
                records.append({"a": list(a), "b": list(b), "cin": cin, "signal": signal,
                                "expected": want, "actual": got})
    records.sort(key=lambda r: (r["a"], r["b"], r["cin"], r["signal"]))
    return records


def check_against_reference(nl, mode, trials=0, seed=0):
    """Run the check and compare it with the reference; the reference records."""
    if mode == "exhaustive":
        report = verify.check_exhaustive(nl)
    else:
        report = verify.check_random(nl, trials, seed)
    runs = cases(nl.width, mode, trials, seed)
    records = reference_records(nl, runs)
    doc = {"mode": mode, "kind": nl.meta["kind"], "width": nl.width, "cases_run": len(runs),
           "seed": None if mode == "exhaustive" else seed, "passed": not records,
           "mismatches": records, "divergences": []}
    assert len(report.records) == len(records)
    assert report.passed is (not records)
    assert report.to_json() == json.dumps(doc, indent=2) + "\n"
    return records


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(builders.KINDS), width=st.integers(1, 12), data=st.data())
def test_reports_match_reference(kind, width, data):
    nl = reference.built(builders.AdderSpec(kind, width))
    gates = sorted({nid for group in CARRY_GROUPS for nid in nl.meta["groups"].get(group, ())})
    faults = data.draw(st.lists(st.sampled_from(gates), min_size=1, max_size=3, unique=True)
                       if gates else st.just([]))
    mode = data.draw(st.sampled_from(["random", "exhaustive"] if width <= 2 else ["random"]))
    check_against_reference(faulted(nl, faults), mode, data.draw(st.integers(1, 40)),
                            data.draw(st.integers(0, 2**32 - 1)))


def test_one_case_mismatches_at_many_signals():
    """A wrong carry out of digit 1 runs through the corner case 33..3 + 00..0,
    so that case mismatches at every signal, S[1], S[10] and cout among
    them, and the records follow the name order S[10] < S[1] < S[2]."""
    nl = reference.built(builders.AdderSpec("ripple", 12))
    assert check_against_reference(nl, "random", 20, 5) == []
    a1, b1 = nl.a_ports[0], nl.b_ports[0]
    ab = nl.nodes.index(netlist.Node("and", (a1, b1)))
    records = check_against_reference(faulted(nl, [ab]), "random", 20, 5)
    corner = [r["signal"] for r in records if r["a"] == [3] * 12 and r["b"] == [0] * 12
              and r["cin"] == 0]
    assert corner == sorted([*(f"S[{j}]" for j in range(1, 13)), "cout"])
    assert corner[:4] == ["S[10]", "S[11]", "S[12]", "S[1]"]


def test_duplicate_cases_keep_their_records():
    """At width 1 the random cases repeat, and so do their records."""
    nl = reference.built(builders.AdderSpec("ripple", 1))
    records = check_against_reference(faulted(nl, nl.meta["groups"]["cells"][:1]), "random", 60, 3)
    keys = [(tuple(r["a"]), tuple(r["b"]), r["cin"], r["signal"]) for r in records]
    assert len(set(keys)) < len(keys)


def test_signal_order_past_255_signals():
    """At width 256 there are 257 signal names, more ranks than a byte holds;
    the corner case 33..3 + 00..0 still lists S[100] first and cout last."""
    nl = builders.build(builders.AdderSpec("ripple", 256))
    a1, b1 = nl.a_ports[0], nl.b_ports[0]
    ab = nl.nodes.index(netlist.Node("and", (a1, b1)))
    records = check_against_reference(faulted(nl, [ab]), "random", 2, 5)
    corner = [r["signal"] for r in records if r["a"] == [3] * 256 and r["b"] == [0] * 256
              and r["cin"] == 0]
    assert len(corner) == 257
    assert corner[0] == "S[100]" and corner[-1] == "cout"


def test_equal_checks_give_equal_reports():
    nl = reference.built(builders.AdderSpec("ripple", 4))
    bad = faulted(nl, nl.meta["groups"]["cells"][:1])
    assert verify.check_random(bad, 30, 4).to_json() == verify.check_random(bad, 30, 4).to_json()
    assert verify.check_exhaustive(bad).to_json() == verify.check_exhaustive(bad).to_json()
    assert verify.check_random(bad, 30, 4).to_json() != verify.check_random(bad, 30, 5).to_json()
    assert verify.check_random(nl, 30, 4).to_json() == verify.check_random(nl, 30, 4).to_json()


def reference_text(table):
    """The table's records as dicts, written as a report writes a list of
    records: ``json.dumps`` with indent 2, nested one level."""
    names = [*(f"S[{j + 1}]" for j in range(table.a.shape[1])), "cout"]
    columns = (table.a, table.b, table.cin, table.signal, table.expected, table.actual)
    records = [{"a": a, "b": b, "cin": cin, "signal": names[signal], "expected": want,
                "actual": got}
               for a, b, cin, signal, want, got in zip(*(c.tolist() for c in columns))]
    return json.dumps(records, indent=2).replace("\n", "\n  ")


@st.composite
def tables(draw):
    """MismatchTables drawn directly, with no netlist: any digits and signals
    in any order, at widths whose names take 4, 5 and 6 characters, the
    signals all one name or any mix of names."""
    n, count = draw(st.integers(1, 300)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))   # shrinks fast, unlike arrays

    def digits(shape, top):
        return rng.integers(0, top + 1, shape, dtype=np.uint8)

    signal = st.integers(0, n)
    signals = ([draw(signal)] * count if draw(st.booleans())
               else draw(st.lists(signal, min_size=count, max_size=count)))
    return verify.MismatchTable(a=digits((count, n), 3), b=digits((count, n), 3),
                                cin=digits(count, 1), signal=np.array(signals, dtype=np.intp),
                                expected=digits(count, 3), actual=digits(count, 3))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(table=tables())
def test_table_text_matches_json_dumps(table):
    assert table.to_json() == reference_text(table)


def test_empty_and_one_record_tables():
    empty = np.zeros((0, 3), dtype=np.uint8)
    none = np.zeros(0, dtype=np.uint8)
    table = verify.MismatchTable(a=empty, b=empty, cin=none, signal=none.astype(np.intp),
                                 expected=none, actual=none)
    assert table.to_json() == reference_text(table) == "[]"
    one = verify.MismatchTable(a=np.uint8([[1, 2]]), b=np.uint8([[3, 0]]), cin=np.uint8([1]),
                               signal=np.intp([2]), expected=np.uint8([2]), actual=np.uint8([0]))
    assert one.to_json() == reference_text(one) == (
        '[\n    {\n      "a": [\n        1,\n        2\n      ],\n'
        '      "b": [\n        3,\n        0\n      ],\n      "cin": 1,\n'
        '      "signal": "cout",\n      "expected": 2,\n      "actual": 0\n    }\n  ]')


def test_report_text_peak_memory():
    """A failing report of about 20,000 records at width 16 is written with
    at most three times its text allocated at the peak."""
    nl = builders.build(builders.AdderSpec("ripple", 16))
    ab = nl.nodes.index(netlist.Node("and", (nl.a_ports[0], nl.b_ports[0])))
    report = verify.check_random(faulted(nl, [ab]), 33500, 1)
    assert 19_000 < len(report.records) < 21_000
    peak, text = reference.traced_peak(report.to_json)
    assert peak <= 3 * len(text)
