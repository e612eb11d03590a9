"""Netlist IR: construction rules, evaluation, timing, serialization."""

import itertools

import numpy as np
import pytest

from quadder import netlist, qudit
from quadder.builders import build_ripple, build_tree
from quadder.netlist import (
    AND,
    BITSWAP,
    CONST,
    INWARD,
    NOT,
    OR,
    OUTWARD,
    XOR,
    DocumentError,
    NetlistBuilder,
)


def _two_input_fixture():
    nb = NetlistBuilder(1)
    cin = nb.add_input("cin")
    a = nb.add_input("A[1]")
    b = nb.add_input("B[1]")
    return nb, cin, a, b


def _finish_single_output(nb, cin, a, b, out):
    return nb.finish([a], [b], cin, [out], out)


def test_arity_rules():
    """Builder misuse is rejected at finish, by the checks document import
    runs, with the same message.  Each case gets its own builder, because
    interning would merge repeated gates."""
    cases = [
        (lambda nb, cin, a, b: nb.add(AND, a), "malformed", "and node 3 needs fan-in >= 2"),
        (lambda nb, cin, a, b: nb.add(NOT, a, b), "malformed", "not node 3 needs fan-in 1"),
        (lambda nb, cin, a, b: nb.add(CONST, a), "malformed", "const node 3 needs fan-in 0"),
        (lambda nb, cin, a, b: nb.add("nandish", a, b), "malformed", "unknown kind"),
        (lambda nb, cin, a, b: nb.add(AND, a, 999), "acyclicity", "reads id 999"),
        (lambda nb, cin, a, b: nb.add(AND, a, -1), "dangling", "reads id -1"),
        (lambda nb, cin, a, b: nb.add(AND, a, True), "malformed", "non-integer id True"),
        (lambda nb, cin, a, b: nb.add_const(4), "malformed", "has value 4"),
        (lambda nb, cin, a, b: nb.add_input("A[2]"), "malformed", "are not ports"),
    ]
    for build, reason, words in cases:
        nb, cin, a, b = _two_input_fixture()
        out = build(nb, cin, a, b)
        with pytest.raises(DocumentError, match=words) as built:
            _finish_single_output(nb, cin, a, b, out)
        assert built.value.reason == reason
        raw = netlist.Netlist(1, tuple(nb.nodes), (a,), (b,), cin, (out,), out)
        with pytest.raises(DocumentError) as imported:
            netlist.from_json(netlist.to_json(raw))
        assert str(imported.value) == str(built.value)
    nb, cin, a, b = _two_input_fixture()
    wide = nb.add(AND, a, b, cin)  # unbounded fan-in above 2
    assert _finish_single_output(nb, cin, a, b, wide).nodes[wide].inputs == (a, b, cin)


def test_deduplication_returns_same_id():
    nb, cin, a, b = _two_input_fixture()
    g1 = nb.add(AND, a, b)
    g2 = nb.add(AND, a, b)
    assert g1 == g2
    assert nb.add(AND, b, a) != g1  # structural, not commutative, hashing
    nodup = NetlistBuilder(1, dedupe=False)
    x = nodup.add_input("cin")
    a2 = nodup.add_input("A[1]")
    b2 = nodup.add_input("B[1]")
    assert nodup.add(AND, a2, b2) != nodup.add(AND, a2, b2)


@pytest.mark.parametrize("kind", sorted(netlist.MULTI_KINDS))
def test_multi_gate_semantics(kind):
    fn = {"and": qudit.qand, "or": qudit.qor, "xor": qudit.qxor}[kind]
    nb, cin, a, b = _two_input_fixture()
    out = nb.add(kind, a, b)
    nl = _finish_single_output(nb, cin, a, b, out)
    for x, y in itertools.product(range(4), range(4)):
        assert netlist.evaluate_words(nl, (x,), (y,)) == ((fn(x, y),), fn(x, y))


@pytest.mark.parametrize("kind", sorted(netlist.UNARY_KINDS))
def test_unary_gate_semantics(kind):
    fn = {
        "not": qudit.qnot,
        "inward": qudit.inward,
        "outward": qudit.outward,
        "bitswap": qudit.bitswap,
    }[kind]
    nb, cin, a, b = _two_input_fixture()
    out = nb.add(kind, a)
    nl = _finish_single_output(nb, cin, a, b, out)
    for x in range(4):
        assert netlist.evaluate_words(nl, (x,), (0,)) == ((fn(x),), fn(x))


def test_evaluate_table_i_example_and_missing_port():
    nb, cin, a, b = _two_input_fixture()
    out = nb.add(AND, a, b)
    nl = _finish_single_output(nb, cin, a, b, out)
    assert netlist.evaluate_words(nl, (1,), (2,)) == ((0,), 0)
    with pytest.raises(ValueError, match="expected width 1"):
        netlist.evaluate_words(nl, (1,), (2, 0))
    with pytest.raises(ValueError, match="empty word"):
        netlist.evaluate_words(nl, (1,), ())
    with pytest.raises(ValueError, match="not a qudit"):
        netlist.evaluate_words(nl, (9,), (2,))
    with pytest.raises(ValueError, match="not a qudit"):
        netlist.evaluate_words(nl, (1,), (2,), 4)


def test_pass_through_identity():
    nb, cin, a, b = _two_input_fixture()
    nl = _finish_single_output(nb, cin, a, b, a)
    for x in range(4):
        assert netlist.evaluate_words(nl, (x,), (3,)) == ((x,), x)


def test_full_adder_netlist_matches_cell():
    nl = build_ripple(1)
    s, c = netlist.evaluate_words(nl, (1,), (2,), 1)
    assert (s, c) == ((0,), 1)


def test_evaluation_is_pure_and_deterministic():
    nl = build_tree(3)
    before = nl.nodes
    got1 = netlist.evaluate_words(nl, (1, 2, 3), (3, 0, 1), 1)
    got2 = netlist.evaluate_words(nl, (1, 2, 3), (3, 0, 1), 1)
    assert got1 == got2
    assert nl.nodes == before


def test_batch_matches_scalar():
    nl = build_tree(2)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4, size=(50, 2), dtype=np.uint8)
    b = rng.integers(0, 4, size=(50, 2), dtype=np.uint8)
    cin = rng.integers(0, 2, size=50, dtype=np.uint8)
    s, c = netlist.add_batch(nl, a, b, cin)
    for k in range(50):
        ws, wc = netlist.evaluate_words(nl, a[k], b[k], int(cin[k]))
        assert tuple(s[k]) == ws and c[k] == wc


def test_unary_chain_depth():
    nb, cin, a, b = _two_input_fixture()
    node = a
    for _ in range(6):
        node = nb.add(NOT, node)
    nl = _finish_single_output(nb, cin, a, b, node)
    rep = netlist.measure(nl, {"out": node})
    assert rep.depth == 6
    assert rep.per_signal_depth["out"] == 6


def test_mask_conventions_in_measure():
    nb, cin, a, b = _two_input_fixture()
    one = nb.add_const(1)
    g = nb.add(AND, a, b)
    masked = nb.add(AND, g, one)
    nl = _finish_single_output(nb, cin, a, b, masked)
    inc = netlist.measure(nl, {"out": masked}, "included")
    exc = netlist.measure(nl, {"out": masked}, "excluded")
    assert (inc.gate_count, inc.depth) == (2, 2)
    assert (exc.gate_count, exc.depth) == (1, 1)
    assert inc.input_count == 4 and exc.input_count == 2


def test_ripple_carry_cone_measurements():
    nl = build_ripple(1)
    inc = netlist.measure(nl, ["cout"], "included")
    exc = netlist.measure(nl, ["cout"], "excluded")
    assert inc.depth == 5
    assert exc.gate_count == 9
    assert inc.input_count == 19
    with pytest.raises(ValueError, match="unknown signal"):
        netlist.measure(nl, ["nonesuch"])


def test_depth_monotone_under_construction():
    nb, cin, a, b = _two_input_fixture()
    g1 = nb.add(AND, a, b)
    nl1 = _finish_single_output(nb, cin, a, b, g1)
    d1 = netlist.node_depths(nl1)
    g2 = nb.add(OR, g1, a)
    g3 = nb.add(XOR, g2, b)
    nl2 = _finish_single_output(nb, cin, a, b, g3)
    d2 = netlist.node_depths(nl2)
    assert d2[: len(d1)] == d1  # existing signals keep their depth


def test_json_round_trip_structural_identity():
    nl = build_ripple(4)
    doc = netlist.to_json(nl)
    back = netlist.from_json(doc)
    assert back == nl
    assert netlist.to_json(back) == doc


def test_import_rejects_bad_documents():
    nl = build_ripple(2)
    doc = netlist.to_json(nl)

    with pytest.raises(DocumentError) as err:
        netlist.from_json("{not json")
    assert err.value.reason == "malformed"

    with pytest.raises(DocumentError) as err:
        netlist.from_json(doc.replace('"version": 1', '"version": 99'))
    assert err.value.reason == "version"

    import json

    broken = json.loads(doc)
    gate = next(n for n in broken["nodes"] if n["kind"] == "and")
    gate["inputs"][0] = gate["id"]  # self-reference: input id >= own id
    with pytest.raises(DocumentError) as err:
        netlist.from_json(json.dumps(broken))
    assert err.value.reason == "acyclicity"

    broken = json.loads(doc)
    broken["ports"]["cout"] = 10_000
    with pytest.raises(DocumentError) as err:
        netlist.from_json(json.dumps(broken))
    assert err.value.reason == "dangling"


def test_dot_export_has_one_edge_per_fanin():
    nb, cin, a, b = _two_input_fixture()
    g = nb.add(AND, a, b, cin)
    nl = _finish_single_output(nb, cin, a, b, g)
    dot = netlist.to_dot(nl)
    assert dot.startswith("digraph")
    gate_edges = [ln for ln in dot.splitlines() if f"-> n{g};" in ln]
    assert len(gate_edges) == 3


def test_lower_fanin2_equivalence_and_bound():
    nl = build_tree(4)
    low = netlist.lower_fanin2(nl)
    assert max(len(n.inputs) for n in low.gate_nodes()) == 2
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, size=(400, 4), dtype=np.uint8)
    b = rng.integers(0, 4, size=(400, 4), dtype=np.uint8)
    cin = rng.integers(0, 2, size=400, dtype=np.uint8)
    s1, c1 = netlist.add_batch(nl, a, b, cin)
    s2, c2 = netlist.add_batch(low, a, b, cin)
    assert (s1 == s2).all() and (c1 == c2).all()
    # groups survive the rewrite and still reference valid ids
    for ids in low.meta["groups"].values():
        assert all(0 <= i < low.node_count() for i in ids)
