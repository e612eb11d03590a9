"""Netlist IR: construction rules, evaluation, timing, serialization."""

import gc
import inspect
import itertools
import json
import re
import types

import numpy as np
import pytest
import reference
from strategies import RepeatingBuilder

from quadder import netlist
from quadder.builders import KINDS, AdderSpec, build
from quadder.cli import main
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
    """A netlist that breaks a rule cannot be made: ``Netlist(...)``, ``finish``
    and document import reject it with the same reason and message.  Each case
    gets its own builder, because interning would merge repeated gates."""
    cases = [
        (lambda nb, cin, a, b: nb.add(AND, a), "malformed", "and node 3 needs fan-in >= 2"),
        (lambda nb, cin, a, b: nb.add(NOT, a, b), "malformed", "not node 3 needs fan-in 1"),
        (lambda nb, cin, a, b: nb.add(CONST, a), "malformed", "const node 3 needs fan-in 0"),
        (lambda nb, cin, a, b: nb.add("nandish", a, b), "malformed", "unknown kind"),
        (lambda nb, cin, a, b: nb.add(["and"], a, b), "malformed", r"unknown kind \['and'\]"),
        (lambda nb, cin, a, b: nb.add(AND, a, 999), "dangling", "node 3 reads id 999$"),
        (lambda nb, cin, a, b: nb.add(AND, a, 4), "dangling", "node 3 reads id 4$"),
        (lambda nb, cin, a, b: nb.add(AND, a, 3), "acyclicity", "node 3 reads id 3 >= its own"),
        (lambda nb, cin, a, b: (nb.add(AND, a, 4), nb.add(NOT, a))[0], "acyclicity",
         "node 3 reads id 4 >= its own"),
        (lambda nb, cin, a, b: nb.add(AND, a, -1), "dangling", "reads id -1"),
        (lambda nb, cin, a, b: nb.add(AND, a, True), "malformed", "non-integer id True"),
        (lambda nb, cin, a, b: nb.add_const(4), "malformed", "has value 4"),
        (lambda nb, cin, a, b: nb.add_input("A[2]"), "malformed", "are not ports"),
    ]
    for build, reason, words in cases:
        nb, cin, a, b = _two_input_fixture()
        out = build(nb, cin, a, b)
        fields = dict(width=1, nodes=tuple(nb.nodes), a_ports=(a,), b_ports=(b,), cin_port=cin,
                      s_ports=(out,), cout_port=out, signals={}, meta={})
        with pytest.raises(DocumentError, match=words) as made:
            netlist.Netlist(**fields)
        assert made.value.reason == reason
        with pytest.raises(DocumentError) as built:
            _finish_single_output(nb, cin, a, b, out)
        # the reference writer reads attributes only, so it writes the raw fields
        with pytest.raises(DocumentError) as imported:
            netlist.from_json(reference.to_json(types.SimpleNamespace(**fields)))
        assert str(built.value) == str(imported.value) == str(made.value)
    nb, cin, a, b = _two_input_fixture()
    wide = nb.add(AND, a, b, cin)  # unbounded fan-in above 2
    assert _finish_single_output(nb, cin, a, b, wide).nodes[wide].inputs == (a, b, cin)


def test_deduplication_returns_same_id():
    nb, cin, a, b = _two_input_fixture()
    g1 = nb.add(AND, a, b)
    g2 = nb.add(AND, a, b)
    assert g1 == g2
    assert nb.add(AND, b, a) != g1  # structural, not commutative, hashing
    nodup = RepeatingBuilder(1)
    x = nodup.add_input("cin")
    a2 = nodup.add_input("A[1]")
    b2 = nodup.add_input("B[1]")
    assert nodup.add(AND, a2, b2) != nodup.add(AND, a2, b2)
    # every repeat is a new node, so the strategies built on it cannot start interning
    ones = [nodup.add_const(1), nodup.add_const(1)]
    masks = [nodup.add(AND, a2, ones[0], group="masks") for _ in range(2)]
    assert len(set(ones + masks)) == 4 and len(nodup.nodes) == 9
    assert nodup.groups == {"masks": masks}


def test_add_groups_only_new_nodes():
    """A new node joins its group, made on first use; a node that interns to
    an earlier one keeps the earlier one's group, or none; no group lists a
    node added without one."""
    nb, cin, a, b = _two_input_fixture()
    x = nb.add(AND, a, b)
    y = nb.add(XOR, a, b, group="pg")
    assert nb.add(XOR, a, b, group="sum") == y   # a hit keeps its first group
    assert nb.add(AND, a, b, group="pg") == x    # and a node made without one stays out
    one = nb.add_const(1)
    m = nb.add(AND, x, one, group="masks")
    z = nb.add(OR, y, m, group="pg")
    assert nb.groups == {"pg": [y, z], "masks": [m]}
    assert list(nb.groups) == ["pg", "masks"]   # in order of first use


@pytest.mark.parametrize("kind", sorted(netlist.MULTI_KINDS))
def test_multi_gate_semantics(kind):
    """Fan-ins 2 to 4 over every qudit combination; the operands are the
    ports A[1], B[1], A[2] and B[2], in that order."""
    fn = reference.GATES[kind]
    for fan_in in (2, 3, 4):
        nb = NetlistBuilder(2)
        cin = nb.add_input("cin")
        a1, b1, a2, b2 = (nb.add_input(name) for name in ("A[1]", "B[1]", "A[2]", "B[2]"))
        out = nb.add(kind, *(a1, b1, a2, b2)[:fan_in])
        nl = nb.finish([a1, a2], [b1, b2], cin, [out, out], out)
        for digits in itertools.product(range(4), repeat=fan_in):
            x1, y1, x2, y2 = (*digits, 0, 0)[:4]
            want = fn(*digits)
            assert netlist.evaluate_words(nl, (x1, x2), (y1, y2)) == ((want, want), want)


@pytest.mark.parametrize("kind", sorted(netlist.UNARY_KINDS))
def test_unary_gate_semantics(kind):
    fn = reference.GATES[kind]
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


@pytest.mark.parametrize("bad", [1.0, "1", None, True, False, np.array([1, 2]), np.array([1])])
def test_a_digit_that_is_not_an_integer_is_a_value_error(bad):
    """A bool is an int to ``operator.index``, but not a digit."""
    nl = build(AdderSpec("ripple", 2))
    for a, b, cin in [((bad, 0), (0, 0), 0), ((0, 0), (0, bad), 0), ((0, 0), (0, 0), bad)]:
        with pytest.raises(ValueError, match=f"^not a qudit: {re.escape(repr(bad))}$"):
            netlist.evaluate_words(nl, a, b, cin)


@pytest.mark.parametrize("bad", [5, None])
def test_a_word_that_is_not_iterable_is_a_value_error(bad):
    nl = build(AdderSpec("ripple", 1))
    for a, b in [(bad, (0,)), ((0,), bad)]:
        with pytest.raises(ValueError, match=f"^not a word: {bad!r}$"):
            netlist.evaluate_words(nl, a, b)


def test_every_gate_kind_has_a_reference():
    """A kind added to the package's table without a reference function fails."""
    assert reference.GATES.keys() == netlist._KINDS.keys() - netlist.LEAF_KINDS


def test_pass_through_identity():
    nb, cin, a, b = _two_input_fixture()
    nl = _finish_single_output(nb, cin, a, b, a)
    for x in range(4):
        assert netlist.evaluate_words(nl, (x,), (3,)) == ((x,), x)


def test_full_adder_netlist_matches_cell():
    nl = build(AdderSpec("ripple", 1))
    s, c = netlist.evaluate_words(nl, (1,), (2,), 1)
    assert (s, c) == ((0,), 1)


def test_evaluation_is_pure_and_deterministic():
    nl = build(AdderSpec("tree", 3))
    before = nl.nodes
    got1 = netlist.evaluate_words(nl, (1, 2, 3), (3, 0, 1), 1)
    got2 = netlist.evaluate_words(nl, (1, 2, 3), (3, 0, 1), 1)
    assert got1 == got2
    assert nl.nodes == before


def test_batch_matches_scalar():
    nl = build(AdderSpec("tree", 2))
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4, size=(50, 2), dtype=np.uint8)
    b = rng.integers(0, 4, size=(50, 2), dtype=np.uint8)
    cin = rng.integers(0, 2, size=50, dtype=np.uint8)
    s, c = reference.sums(nl, a, b, cin)
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
    nl = build(AdderSpec("ripple", 1))
    inc = netlist.measure(nl, ["cout"], "included")
    exc = netlist.measure(nl, ["cout"], "excluded")
    assert inc.depth == 5
    assert exc.gate_count == 9
    assert inc.input_count == 19
    with pytest.raises(ValueError, match="unknown signal"):
        netlist.measure(nl, ["nonesuch"])
    with pytest.raises(ValueError, match="^netlist has no group 'nonesuch'$"):
        netlist.count_group(nl, "nonesuch")


@pytest.mark.parametrize("query", [
    lambda nl: netlist.measure(nl, ["cout"], "bogus"),
    lambda nl: netlist.node_depths(nl, "bogus"),
    lambda nl: netlist.count_group(nl, "pg", "exclude"),
    lambda nl: netlist.signal_depths(nl, ["cout"], "bogus"),
], ids=["measure", "node_depths", "count_group", "signal_depths"])
def test_unknown_mask_convention_is_rejected(query):
    with pytest.raises(ValueError, match="bad mask_counting"):
        query(build(AdderSpec("tree", 4)))


@pytest.mark.parametrize("query, bad", [
    (lambda nl: netlist.cone(nl, [-1]), "-1"),
    (lambda nl: netlist.cone(nl, [len(nl.nodes)]), "17"),
    (lambda nl: netlist.cone(nl, [3, True]), "True"),
    (lambda nl: netlist.measure(nl, {"x": -1}), "-1"),
    (lambda nl: netlist.measure(nl, {"x": True}), "True"),
    (lambda nl: netlist.measure(nl, {"x": 3, "y": 2.0}), "2.0"),
    (lambda nl: netlist.measure(nl, "cout"), "'cout'"),
    (lambda nl: netlist.signal_depths(nl, {"x": len(nl.nodes)}, "included"), "17"),
    (lambda nl: netlist.signal_depths(nl, "cout", "included"), "'cout'"),
], ids=["cone-negative", "cone-past-end", "cone-bool", "measure-negative", "measure-bool",
        "measure-float", "measure-string", "signal_depths-past-end", "signal_depths-string"])
def test_queries_reject_bad_ids(query, bad):
    """A bad id or a bare string is a ValueError that names it, never a
    wrapped-around index, a bool read as 1 or a string read letter by letter."""
    nl = build(AdderSpec("ripple", 1))
    assert len(nl.nodes) == 17
    with pytest.raises(ValueError, match=f"(id|string) {re.escape(bad)}[ ,]"):
        query(nl)


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
    nl = build(AdderSpec("ripple", 4))
    doc = netlist.to_json(nl)
    back = netlist.from_json(doc)
    assert back == nl
    assert netlist.to_json(back) == doc


def test_import_rejects_bad_documents():
    nl = build(AdderSpec("ripple", 2))
    doc = netlist.to_json(nl)

    huge = doc.replace('"width": 2,', '"width": ' + "9" * 5000 + ",", 1)   # past int's digit limit
    for text in ("{not json", huge, b"\xff{}"):
        with pytest.raises(DocumentError, match=r"^malformed: invalid JSON \(") as err:
            netlist.from_json(text)
        assert err.value.reason == "malformed"

    with pytest.raises(DocumentError) as err:
        netlist.from_json(doc.replace('"version": 1', '"version": 99'))
    assert err.value.reason == "version"

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


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_it_found_it(enabled):
    """Import pauses the cyclic collector and turns it back on only if it was
    on, after a document and after a rejection of each reason."""
    doc = json.loads(netlist.to_json(build(AdderSpec("ripple", 2))))
    cyclic, dangling = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    gate = next(n for n in cyclic["nodes"] if n["kind"] == "and")
    gate["inputs"][0] = gate["id"]
    dangling["ports"]["cout"] = 10_000
    cases = [(json.dumps(doc), None), ("{not json", "malformed"),
             (json.dumps({**doc, "version": 99}), "version"),
             (json.dumps(cyclic), "acyclicity"), (json.dumps(dangling), "dangling")]
    was_enabled = gc.isenabled()
    try:
        for text, reason in cases:
            gc.enable() if enabled else gc.disable()
            if reason is None:
                assert netlist.to_json(netlist.from_json(text)) == json.dumps(doc, indent=2) + "\n"
            else:
                with pytest.raises(DocumentError) as err:
                    netlist.from_json(text)
                assert err.value.reason == reason
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert str(inspect.signature(netlist.from_json)) == "(text: 'str | bytes') -> 'Netlist'"


def test_import_leaves_no_cyclic_garbage():
    """The pause's premise: a built netlist, its document, its import and its
    lowering, with their analysis and plan, are all freed by refcounting, so
    a collection after import finds nothing."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()   # so no automatic pass collects a cycle before the check
    try:
        for kind in KINDS:
            built = build(AdderSpec(kind, 16))
            imported = netlist.from_json(netlist.to_json(built))
            lowered = netlist.lower_fanin2(imported)
            for nl in (built, imported, lowered):
                nl._analysis, nl._plan
        del built, imported, lowered, nl
        assert gc.collect() == 0
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_commands_leave_the_same_cyclic_garbage_at_any_width(tmp_path, capsys):
    """The command pause's premise: what a command leaves for the collector
    does not grow with the width, so a pause for the whole command postpones
    a fixed amount.  Each command's ``gc.collect()`` count after it runs is the
    same at widths 2 and 16 (3 for an exhaustive check), after one warm-up
    run of every command at width 1 makes the lazy set-up."""
    def argvs(n):
        doc = str(tmp_path / f"t{n}.json")
        return [["build", "--kind", "tree", "--width", str(n), "--out", doc],
                ["build", "--kind", "tree", "--width", str(n), "--out", doc + ".dot",
                 "--format", "dot"],
                ["eval", "--netlist", doc, "--a", "1" * n, "--b", "2" * n],
                ["verify", "--netlist", doc, "--random", "100"],
                ["verify", "--kind", "sparse", "--width", str(n), "--random", "100"],
                ["verify", "--kind", "single", "--width", str(min(n, 3)), "--exhaustive"],
                ["analyze", "--kind", "hybrid", "--width", str(n), "--block", "1"],
                ["sweep", "--kinds", "tree,sparse", "--widths", f"1..{n}"]]

    def counts(n):
        found = []
        for argv in argvs(n):
            gc.collect()
            assert main(argv) == 0
            found.append(gc.collect())
        capsys.readouterr()
        return found

    was_enabled = gc.isenabled()
    gc.disable()   # so no automatic pass collects a cycle before a count
    try:
        counts(1)
        assert counts(2) == counts(16)
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_dot_export_has_one_edge_per_fanin():
    nb, cin, a, b = _two_input_fixture()
    g = nb.add(AND, a, b, cin)
    nl = _finish_single_output(nb, cin, a, b, g)
    dot = netlist.to_dot(nl)
    assert dot.startswith("digraph")
    gate_edges = [ln for ln in dot.splitlines() if f"-> n{g};" in ln]
    assert len(gate_edges) == 3


def test_lower_fanin2_equivalence_and_bound():
    nl = build(AdderSpec("tree", 4))
    low = netlist.lower_fanin2(nl)
    assert max(len(n.inputs) for n in low.gate_nodes()) == 2
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, size=(400, 4), dtype=np.uint8)
    b = rng.integers(0, 4, size=(400, 4), dtype=np.uint8)
    cin = rng.integers(0, 2, size=400, dtype=np.uint8)
    s1, c1 = reference.sums(nl, a, b, cin)
    s2, c2 = reference.sums(low, a, b, cin)
    assert (s1 == s2).all() and (c1 == c2).all()
    # groups survive the rewrite and still reference valid ids
    for ids in low.meta["groups"].values():
        assert all(0 <= i < len(low.nodes) for i in ids)
