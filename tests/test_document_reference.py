"""The template document writer and the memoized fan-in lowering against the
plain reference forms in reference.py, byte for byte."""

import copy
import dataclasses
import functools
import json

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from quadder import builders, netlist

BASE = json.loads(netlist.to_json(builders.build(builders.AdderSpec("ripple", 2))))

TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "é€😀", " ",
                                               "\ud800", "</script>", ""])
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=10)


@functools.cache
def _built(kind: str, n: int) -> netlist.Netlist:
    return builders.build(builders.AdderSpec(kind, n))


@pytest.mark.parametrize("kind", builders.KINDS)
def test_writer_matches_json_dumps(kind):
    for n in (*range(1, 9), 17, 64):
        nl = _built(kind, n)
        for doc in (nl, netlist.lower_fanin2(nl)):
            assert netlist.to_json(doc) == reference.to_json(doc), (kind, n)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(kind=VALUES, params=VALUES, meta=st.dictionaries(TEXT, VALUES, max_size=4),
       signals=st.dictionaries(TEXT, st.integers(0, len(BASE["nodes"]) - 1), max_size=4),
       keyed=st.dictionaries(st.none() | st.booleans() | st.integers() | st.floats(), VALUES,
                             max_size=3))
def test_writer_matches_json_dumps_on_imported_odd_values(kind, params, meta, signals, keyed):
    """Non-ASCII text, escapes, floats (nan and infinities too), bools, null and
    nested or empty containers in the free-form fields of an imported document;
    then, in code, an object with keys that JSON writes as strings."""
    doc = copy.deepcopy(BASE)
    doc.update(kind=kind, params=params, signals=signals)
    doc["meta"].update((key, value) for key, value in meta.items()
                       if key not in ("groups", "kind", "params"))
    nl = netlist.from_json(json.dumps(doc))
    assert netlist.to_json(nl) == reference.to_json(nl)
    nl = dataclasses.replace(nl, meta={**nl.meta, "keyed": keyed})
    assert netlist.to_json(nl) == reference.to_json(nl)


@pytest.mark.parametrize("kind", builders.KINDS)
def test_memoized_lowering_matches_recursive_split(kind):
    """Widths 32 and 64 reach the wide shared products that the document
    golden (up to width 17) does not."""
    for n in (32, 64):
        nl = _built(kind, n)
        assert netlist.to_json(netlist.lower_fanin2(nl)) == \
            netlist.to_json(reference.lower_fanin2(nl)), (kind, n)


def test_nodes_that_break_rules_cannot_be_added():
    """A netlist checks itself when it is made, also by ``dataclasses.replace``:
    list kinds, bool ids, stray or missing values and names, inputs on a const."""
    nl = builders.build(builders.AdderSpec("ripple", 1))
    odd = [
        netlist.Node(["and"], (0, 1), None, None),
        netlist.Node("and", (0, True), 3, "é"),
        netlist.Node("const", (2,), None, None),
        netlist.Node("input", (), 1.5, None),
        netlist.Node("not", ("x", None), False, ["A[1]"]),
    ]
    for node in odd:
        with pytest.raises(netlist.DocumentError):
            dataclasses.replace(nl, nodes=(*nl.nodes, node))
