"""Document import through orjson against the ``json.loads`` reference.

``netlist.from_json`` parses with orjson where that is safe and exact, and
with ``json.loads`` otherwise.  Every document here must give the outcome of
``reference.from_json``, which parses with ``json.loads`` alone: the same
netlist, field by field (floats compared bit for bit, nan equal to nan,
dict order included), or the same exception and message.  The cases are the
mutated documents of ``test_document_fuzz.py`` and the odd free-form values
of ``test_document_reference.py``, each as compact, indented and UTF-8
text, plus pinned values on which orjson reads otherwise or refuses.  A
document that would crash orjson never reaches it: the CLI, in a
subprocess, exits 2 on it.
"""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from test_document_fuzz import mutated_documents
from test_document_reference import TEXT, VALUES

from quadder import builders, netlist

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = json.loads(netlist.to_json(builders.build(builders.AdderSpec("ripple", 2))))


def _same(x, y) -> bool:
    """Equal values of equal types all the way down, without recursion: a float
    by its bits (so nan equals nan and 0.0 is not -0.0), a dict with its keys in
    the same order."""
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if type(x) is float:
            if not (x == y and math.copysign(1, x) == math.copysign(1, y)
                    or x != x and y != y):
                return False
        elif type(x) is dict:
            if list(x) != list(y):
                return False
            stack += zip(x.values(), y.values())
        elif isinstance(x, (list, tuple)):
            if len(x) != len(y):
                return False
            stack += zip(x, y)
        elif x != y:
            return False
    return True


def _outcome(load, text):
    try:
        nl = load(text)
    except Exception as exc:   # DocumentError, or whatever json.loads raised before orjson
        return type(exc), str(exc)
    return tuple(getattr(nl, f.name) for f in dataclasses.fields(nl) if f.compare)


def _assert_same_outcome(text):
    got, want = _outcome(netlist.from_json, text), _outcome(reference.from_json, text)
    assert _same(got, want), (got, want)
    return got


def _forms(doc: dict):
    """A document as compact and indented text, and as UTF-8 bytes."""
    compact = json.dumps(doc)
    return compact, json.dumps(doc, indent=2), compact.encode("utf-8", "surrogatepass")


def _with(field: str, value, doc=BASE) -> dict:
    doc = copy.deepcopy(doc)
    if field == "meta":
        doc["meta"]["odd"] = value
    else:
        doc[field] = value
    return doc


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_import_as_with_json_loads(text):
    doc = json.loads(text)
    for form in _forms(doc):
        _assert_same_outcome(form)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(kind=VALUES, params=VALUES, meta=st.dictionaries(TEXT, VALUES, max_size=4))
def test_odd_free_form_values_import_as_with_json_loads(kind, params, meta):
    """Nan, infinities, ints past 64 bits, lone surrogates, escapes and nested
    containers in the fields that an imported netlist keeps as they are."""
    doc = copy.deepcopy(BASE)
    doc.update(kind=kind, params=params)
    doc["meta"].update(meta)
    for form in _forms(doc):
        _assert_same_outcome(form)


PINNED = [float("nan"), float("inf"), -float("inf"), "1e400", 1e19, "\ud800",
          2**64, -2**63 - 1, 2**70, 2**64 - 1, -2**63, 2**63 - 1, -0.0, 1.5, [[["x"]]]]


@pytest.mark.parametrize("field", ["kind", "params", "meta", "width"])
@pytest.mark.parametrize("value", PINNED, ids=repr)
def test_pinned_values_import_as_with_json_loads(field, value):
    """Each value in a free-form field and in the width, where a value orjson
    reads otherwise must not change the reason a document is rejected."""
    doc = _with(field, value)
    forms = _forms(doc)
    if value == "1e400":   # the literal, which json.dumps cannot write
        forms = [text.replace('"1e400"', "1e400") for text in forms[:2]]
    for text in forms:
        _assert_same_outcome(text)


@pytest.mark.parametrize("value", [2**64, -2**63 - 1, 2**70, 1e19])
def test_numbers_orjson_reads_otherwise_keep_their_json_loads_value(value):
    nl = netlist.from_json(json.dumps(_with("params", {"x": value})))
    assert type(nl.meta["params"]["x"]) is type(value) and nl.meta["params"]["x"] == value


def test_pinned_texts_import_as_with_json_loads():
    compact = json.dumps(BASE)
    texts = [
        compact.replace('"width": 2', '"width": 1' + "0" * 4999),   # past the int digit limit
        compact.replace('"width": 2', f'"width": {2**64 + 2}'),
        compact.replace('"id": 0', f'"id": {-2**63 - 1}'),
        # too deep for json.loads, and for repr in orjson's rejection message
        compact.replace('"width": 2', '"width": ' + "[" * 30_000 + "]" * 30_000, 1),
        "\ufeff" + compact,             # a BOM in a str: rejected
        b"\xef\xbb\xbf" + compact.encode(),  # a BOM in UTF-8 bytes: read
        compact.encode("utf-16"),
        compact.encode("utf-16-le"),
        compact.encode("utf-32"),
        bytearray(compact.encode()),
        compact.replace('"ripple"', '"\\ud83d\\ude00"'),
        compact.replace('"ripple"', '"\\ud800"'),
        compact.replace('"ripple"', '"\t"'),
        compact.replace('"ripple"', "NaN"),
        compact[:-1] + ', "kind": "again"}',   # a repeated key: the last one counts
        compact + " \n",
        compact + " x",
        "", "[]", "1", "null", b"\xff",
        memoryview(compact.encode()),        # not str, bytes or bytearray: a TypeError
    ]
    outcomes = [_assert_same_outcome(text) for text in texts]
    assert type(outcomes[0][1]) is str and "4300" in outcomes[0][1]
    assert "invalid JSON" in outcomes[3][1]
    assert outcomes[5][0] == 2 and outcomes[6][0] == 2


@pytest.mark.parametrize("depth", [900, 2000])
def test_deep_meta_values_import_as_with_json_loads(depth):
    doc = _with("meta", [])
    for text in _forms(doc):
        if isinstance(text, bytes):
            deep = text.replace(b'"odd": []', b'"odd": ' + b"[" * depth + b"]" * depth)
        else:
            deep = text.replace('"odd": []', '"odd": ' + "[" * depth + "]" * depth)
        assert deep != text
        got = _assert_same_outcome(deep)
        if depth == 900:   # under json.loads's limit, past _FREE_DEPTH: imported by json.loads
            assert got[0] == 2
        else:
            assert got[0] is netlist.DocumentError and "invalid JSON" in got[1]


@pytest.fixture
def parses(monkeypatch):
    """The texts ``from_json`` handed to orjson, and those it parsed with ``json.loads``."""
    seen = {"orjson": [], "json": []}
    loads, parse = netlist.orjson.loads, netlist._parse

    def orjson_loads(text):
        seen["orjson"].append(text)
        return loads(text)

    def json_parse(text):
        seen["json"].append(text)
        return parse(text)

    monkeypatch.setattr(netlist, "orjson", types.SimpleNamespace(
        loads=orjson_loads, dumps=netlist.orjson.dumps, OPT_INDENT_2=netlist.orjson.OPT_INDENT_2))
    monkeypatch.setattr(netlist, "_parse", json_parse)
    return seen


def test_no_text_past_the_bracket_bound_reaches_orjson(parses):
    text = json.dumps(_with("params", ""))
    brackets = text.count("[") + text.count("{")
    for extra, to_orjson in ((netlist._ORJSON_BRACKETS - brackets, True),
                             (netlist._ORJSON_BRACKETS - brackets + 1, False)):
        for opening in "[{":
            text = json.dumps(_with("params", opening * extra))
            for form in (text, text.encode(), bytearray(text.encode())):
                parses["orjson"].clear(), parses["json"].clear()
                _assert_same_outcome(form)
                assert bool(parses["orjson"]) is to_orjson
                assert bool(parses["json"]) is not to_orjson


@pytest.mark.parametrize("value, exact", [
    (2**63 - 1, True), (2**64 - 1, True), (-2**63, True), (1.5, False), (-0.0, False),
    (2.0**63 - 1024, False), ("x" * 100, True),
    (2**64, False), (-2**63 - 1, False), (2.0**63, False), (1e19, False), (-1e300, False),
])
def test_values_orjson_may_read_otherwise_go_to_json_loads(parses, value, exact):
    for field in ("kind", "params", "meta"):
        parses["json"].clear()
        _assert_same_outcome(json.dumps(_with(field, {"v": [value]})))
        assert (not parses["json"]) is exact, field


@pytest.mark.parametrize("field", ["kind", "params", "meta"])
def test_free_form_nesting_past_the_bound_goes_to_json_loads(parses, field):
    for depth, exact in ((netlist._FREE_DEPTH, True), (netlist._FREE_DEPTH + 1, False)):
        value = 0
        for level in range(depth):
            value = [value] if level % 2 else {"k": value}
        parses["json"].clear()
        _assert_same_outcome(json.dumps(_with(field, value)))
        assert (not parses["json"]) is exact


@pytest.mark.parametrize("kind", builders.KINDS)
def test_built_documents_are_parsed_by_orjson_alone(parses, kind):
    for nl in (builders.build(builders.AdderSpec(kind, 16)),
               netlist.lower_fanin2(builders.build(builders.AdderSpec(kind, 5)))):
        text = netlist.to_json(nl)
        parses["orjson"].clear()
        assert netlist.to_json(netlist.from_json(text)) == text
        assert parses["orjson"] == [text] and not parses["json"]


def _eval_in_subprocess(path: Path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "quadder.cli", "eval", "--netlist", str(path),
                           "--a", "12", "--b", "31"],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_exits_2_on_documents_too_deep_for_the_recursion_limit(tmp_path):
    """A million-deep array has too many brackets for orjson; a valid document
    with a 30,000-deep list in meta has few enough, so orjson parses it and
    the walk sends it to ``json.loads``.  Each exits 2 with no traceback and
    no signal, in a subprocess so that a crash cannot take pytest down."""
    deep_array = "[" * 1_000_000 + "]" * 1_000_000
    deep_meta = json.dumps(_with("meta", [])).replace('"odd": []', '"odd": ' + "[" * 30_000
                                                      + "]" * 30_000)
    assert not netlist._few_brackets(deep_array) and netlist._few_brackets(deep_meta)
    for name, text in (("array", deep_array), ("meta", deep_meta)):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        child = _eval_in_subprocess(path)
        assert child.returncode == 2, (name, child.returncode, child.stderr[-500:])
        assert child.stderr.startswith("error: malformed: invalid JSON"), child.stderr[:300]
        assert "Traceback" not in child.stderr and child.stdout == ""
