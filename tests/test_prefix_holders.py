"""The prefix-holder table every netlist keeps, ``Netlist._holders``.

``_validate`` applies the prefix rule in the walk that checks each node,
once the node has passed every check, and the batch plan and the analysis
both read its table.  The table must equal ``reference.prefix_holders`` on
built adders, on random netlists, on their imported documents and on
``dataclasses.replace`` copies.  Import must still type- and range-check
every input id of a reader, its prefix ids too, and reject with the
message it gave before the rule ran there.  One-lane evaluation reads
through the holders too, and must give every node the value of a walk
over the nodes themselves.
"""

import copy
import dataclasses
import json
import random

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import netlists

from quadder import builders, netlist
from quadder.builders import AdderSpec, build
from quadder.netlist import AND, NetlistBuilder

WIDTHS = (*range(1, 17), 64)


def _same_table(nl):
    want = reference.prefix_holders(nl.nodes)
    assert nl._holders == want
    assert list(nl._holders) == sorted(want)   # in reader id order
    return want


@pytest.mark.parametrize("kind", builders.KINDS)
def test_table_matches_the_reference_on_built_adders(kind):
    """Every kind at widths 1-16 and 64; only single_stage's nested
    propagate products and sparse's hold prefixes."""
    found = [len(_same_table(reference.built(AdderSpec(kind, n)))) for n in WIDTHS]
    if kind == "single_stage":
        assert found[-1] == 1953 and found[:5] == [0, 0, 1, 3, 6]
    elif kind == "sparse":
        assert found[-1] == 16 and found[:3] == [0, 0, 1]
    else:
        assert not any(found)


def test_table_matches_the_reference_at_every_sparsity_and_block():
    for n in (16, 64):
        for s in range(2, 9):
            _same_table(reference.built(AdderSpec("sparse", n, sparsity=s)))
    for b in range(1, 17):
        _same_table(reference.built(AdderSpec("hybrid", 16, block=b)))
    assert len(reference.built(AdderSpec("sparse", 64, sparsity=8))._holders) == 120


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(netlists), st.data())
def test_table_matches_the_reference_on_random_netlists_and_their_copies(nl, data):
    """A random netlist, its imported document, a ``replace`` copy and a
    copy with one gate's inputs drawn again each hold the reference table."""
    want = _same_table(nl)
    imported = netlist.from_json(netlist.to_json(nl))
    assert _same_table(imported) == want
    assert _same_table(dataclasses.replace(nl)) == want
    gates = [nid for nid, node in enumerate(nl.nodes) if len(node.inputs) > 2]
    if gates:
        nid = data.draw(st.sampled_from(gates))
        ins = data.draw(st.lists(st.integers(0, nid - 1), min_size=3, max_size=7))
        nodes = list(nl.nodes)
        nodes[nid] = nodes[nid]._replace(inputs=tuple(ins))
        _same_table(dataclasses.replace(nl, nodes=tuple(nodes)))


def _raw_nodes(nl, a, b, cin):
    """Every node's value from one lane of ``_run`` over the nodes themselves,
    every input of every gate read, with no holder."""
    return reference.run_nodes(nl, a, b, cin, nl.nodes)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(netlists), st.data())
def test_evaluate_nodes_through_holders_equals_the_raw_nodes_on_random_netlists(nl, data):
    """Prefix readers and near misses, with the reader inside or outside
    the cone: every node's value read through the holders is the one its
    own inputs give."""
    digits = st.lists(st.integers(0, 3), min_size=nl.width, max_size=nl.width)
    a, b, cin = data.draw(digits), data.draw(digits), data.draw(st.integers(0, 1))
    assert reference.run_nodes(nl, a, b, cin) == _raw_nodes(nl, a, b, cin)


def test_evaluate_nodes_through_holders_equals_the_raw_nodes_on_single_stage():
    rng = random.Random(36)
    for n in range(1, 17):
        nl = reference.built(AdderSpec("single_stage", n))
        for _ in range(8):
            a, b = [rng.randrange(4) for _ in range(n)], [rng.randrange(4) for _ in range(n)]
            cin = rng.randrange(2)
            assert reference.run_nodes(nl, a, b, cin) == _raw_nodes(nl, a, b, cin)


def _chain():
    """Width 1: holder And(A[1], B[1], cin) = node 3, and reader node 4,
    And(A[1], B[1], cin, 3), which reads it as its prefix."""
    nb = NetlistBuilder(1)
    a, b, cin = nb.add_input("A[1]"), nb.add_input("B[1]"), nb.add_input("cin")
    holder = nb.add(AND, a, b, cin)
    reader = nb.add(AND, a, b, cin, holder)
    return nb.finish([a], [b], cin, [reader], holder)


def _documents():
    """(document, reader, its prefix length) for the chain and for a
    single_stage adder's last reader."""
    chain = _chain()
    assert chain._holders == {4: 3}
    adder = build(AdderSpec("single_stage", 5))
    reader, holder = max(adder._holders.items())
    return [(json.loads(netlist.to_json(chain)), 4, 3),
            (json.loads(netlist.to_json(adder)), reader, len(adder.nodes[holder].inputs))]


def _rejected(doc) -> str:
    with pytest.raises(netlist.DocumentError) as err:
        netlist.from_json(json.dumps(doc))
    return str(err.value)


def test_a_prefix_id_equal_to_its_holders_is_still_an_id_error():
    """Each prefix id of a reader written as a float (14.0 for 14) or, in
    the chain, as the bool equal to it (false for 0, true for 1) is rejected
    as a non-integer id, though the reader's prefix still equals its
    holder's inputs: (13, 14.0) == (13, 14)."""
    for doc, reader, k in _documents():
        inputs = doc["nodes"][reader]["inputs"]
        for pos in range(k):
            bad = [float(inputs[pos])]
            if inputs[pos] in (0, 1):
                bad.append(bool(inputs[pos]))
            for value in bad:
                mutant = copy.deepcopy(doc)
                mutant["nodes"][reader]["inputs"][pos] = value
                assert tuple(mutant["nodes"][reader]["inputs"]) == tuple(inputs)
                assert _rejected(mutant) == (
                    f"malformed: node {reader} reads non-integer id {value!r}")


def test_a_dangling_id_past_a_readers_prefix_keeps_its_message():
    """A reader's remaining input made dangling, negative or a forward
    reference gives the message import gave before it found holders."""
    for doc, reader, k in _documents():
        n = len(doc["nodes"])
        for pos in range(k, len(doc["nodes"][reader]["inputs"])):
            for value, reason in ((n, "dangling"), (n + 7, "dangling"), (-1, "dangling"),
                                  (reader, "acyclicity")):
                mutant = copy.deepcopy(doc)
                mutant["nodes"][reader]["inputs"][pos] = value
                if reason == "dangling":
                    want = f"dangling: node {reader} reads id {value}"
                else:
                    want = f"acyclicity: node {reader} reads id {value} >= its own id"
                assert _rejected(mutant) == want
