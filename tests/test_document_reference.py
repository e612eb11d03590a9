"""The document writer (orjson, with ``json.dumps`` wherever the two could
differ) and the memoized fan-in lowering against the plain reference forms in
reference.py, byte for byte."""

import collections
import copy
import dataclasses
import datetime
import enum
import json
import types

import numpy as np
import orjson
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from quadder import builders, netlist

BASE = json.loads(netlist.to_json(builders.build(builders.AdderSpec("ripple", 2))))

TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "é€😀", " ",
                                               "\ud800", "</script>", "", "\x7f"])
# Floats on both sides of the bounds where json.dumps turns to an exponent (1e-4, 1e16).
EDGES = st.sampled_from([1e-4, 9.999999999999999e-05, -1e-4, 1e-05,
                         1e16, 9999999999999998.0, -1e16, 1.0000000000000002e16])
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | EDGES | TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=10)


def _built(kind: str, n: int) -> netlist.Netlist:
    return reference.built(builders.AdderSpec(kind, n))


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


@pytest.fixture
def writes(monkeypatch):
    """How many times ``to_json`` called ``orjson.dumps`` and ``json.dumps``."""
    seen = {"orjson": 0, "json": 0}

    def counted(name, dumps):
        def call(*args, **kwargs):
            seen[name] += 1
            return dumps(*args, **kwargs)
        return call

    monkeypatch.setattr(netlist, "orjson", types.SimpleNamespace(
        loads=orjson.loads, dumps=counted("orjson", orjson.dumps),
        OPT_INDENT_2=orjson.OPT_INDENT_2))
    monkeypatch.setattr(netlist, "json", types.SimpleNamespace(
        loads=json.loads, dumps=counted("json", json.dumps)))
    return seen


def _nested(depth: int):
    value = 0
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


class _Colour(enum.Enum):
    RED = 1


@dataclasses.dataclass
class _Pair:
    x: int = 1


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 30 else f"depth-{text.count('[') + text.count('{')}"


def _outcome(write, nl):
    """The text written, or the message of the TypeError raised."""
    try:
        return write(nl)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", builders.KINDS)
def test_built_documents_are_written_by_orjson_alone(writes, kind):
    for nl in (_built(kind, 16), netlist.lower_fanin2(_built(kind, 5))):
        writes.update(orjson=0, json=0)
        assert netlist.to_json(nl) == reference.to_json(nl), kind
        assert writes == {"orjson": 1, "json": 0}, kind


@pytest.mark.parametrize("value", [
    1.5, -0.0, 1e16, 1e-05, float("nan"), float("inf"), 2**64, -2**63 - 1, "é", "\x7f",
    "\ud800", {1: 0}, (1.5,), collections.namedtuple("Point", "x y")(1, 2), _nested(101),
    _nested(300), _Colour.RED, _Pair(), datetime.date(2020, 1, 1), np.float64(0.5),
    [np.int64(3)],
], ids=_short)
def test_values_orjson_may_write_otherwise_go_to_json_dumps(writes, value):
    """Floats, ints outside 64 bits, text json.dumps escapes and orjson does not,
    keys that are not str, a namedtuple, nesting past ``_FREE_DEPTH`` and types
    orjson writes where json.dumps raises (an enum, a dataclass, a date) or
    json.dumps writes where orjson raises (numpy scalars), in each free-form field."""
    nl = _built("ripple", 2)
    for field in ("kind", "params", "odd"):
        odd = dataclasses.replace(nl, meta={**nl.meta, field: value})
        writes.update(orjson=0, json=0)
        assert _outcome(netlist.to_json, odd) == _outcome(reference.to_json, odd), field
        assert writes["json"] == 1, field


@pytest.mark.parametrize("value", [
    "\x00\x1f", '"\\/', "", 2**64 - 1, -2**63, True, None, (), {}, _nested(netlist._FREE_DEPTH),
], ids=_short)
def test_values_both_write_alike_are_written_by_orjson(writes, value):
    """Control characters (escaped alike), the 64-bit int bounds, empty
    containers and nesting at ``_FREE_DEPTH``, in each free-form field."""
    nl = _built("ripple", 2)
    for field in ("kind", "params", "odd"):
        odd = dataclasses.replace(nl, meta={**nl.meta, field: value})
        writes.update(orjson=0, json=0)
        assert netlist.to_json(odd) == reference.to_json(odd), field
        assert writes == {"orjson": 1, "json": 0}, field


def test_odd_keys_and_names_outside_the_free_form_go_to_json_dumps(writes):
    """Signal and group names are not walked: orjson writes non-ASCII text and
    DEL unescaped, and refuses a lone surrogate.  A name that is not a str is
    refused when the netlist is made, as a document gives back only str keys
    (1 would read back as "1", and True collide with it)."""
    nl = _built("ripple", 2)
    for key in (1, True, "é", "\x7f", "\ud800"):
        for field, value in (("signals", {**nl.signals, key: 0}),
                             ("meta", {**nl.meta, "groups": {key: [0]}})):
            if type(key) is not str:
                with pytest.raises(netlist.DocumentError, match="^malformed: .* is not a string"):
                    dataclasses.replace(nl, **{field: value})
                continue
            odd = dataclasses.replace(nl, **{field: value})
            writes.update(orjson=0, json=0)
            assert netlist.to_json(odd) == reference.to_json(odd), key
            assert writes["json"] == 1, key


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
