"""Mutated netlist documents at the import boundary.

Each mutation of a stored width-2 ripple or tree document is either rejected
by ``from_json`` with a DocumentError, or imports as a netlist on which the
scalar and the batch evaluator agree on every input.  ``quadder eval`` on
the same file exits 0 or 2 and never raises.
"""

import contextlib
import copy
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadder import netlist
from quadder.builders import build_ripple, build_tree
from quadder.cli import main

DOCS = [json.loads(netlist.to_json(build(2))) for build in (build_ripple, build_tree)]
KINDS = [*sorted(netlist.MULTI_KINDS | netlist.UNARY_KINDS | netlist.LEAF_KINDS), "nand"]
ODD = st.sampled_from([True, False, 1.0, 2.5, "1", "and", None, [], {}, [1, 2]])


def _slots(value):
    """Every (container, key) pair in a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _nodes(doc):
    nodes = doc.get("nodes")
    return [n for n in nodes if isinstance(n, dict)] if isinstance(nodes, list) else []


def _pick(draw, options):
    return draw(st.sampled_from(options)) if options else None


def _drop_field(draw, doc):
    slot = _pick(draw, [(c, k) for c, k in _slots(doc) if isinstance(c, dict)])
    if slot:
        del slot[0][slot[1]]


def _swap_type(draw, doc):
    slot = _pick(draw, list(_slots(doc)))
    if slot:
        slot[0][slot[1]] = draw(ODD)


def _shift_id(draw, doc):
    slot = _pick(draw, [(c, k) for c, k in _slots(doc) if type(c[k]) is int])
    if slot:
        slot[0][slot[1]] += draw(st.sampled_from([-2, -1, 1, 2]))


def _change_fan_in(draw, doc):
    node = _pick(draw, [n for n in _nodes(doc) if isinstance(n.get("inputs"), list)])
    if node is None:
        return
    if node["inputs"] and draw(st.booleans()):
        node["inputs"].pop(draw(st.integers(0, len(node["inputs"]) - 1)))
    else:
        node["inputs"].append(draw(st.integers(-1, len(doc["nodes"]))))


def _swap_kind(draw, doc):
    node = _pick(draw, _nodes(doc))
    if node is not None:
        node["kind"] = draw(st.sampled_from(KINDS))


def _set_const(draw, doc):
    node = _pick(draw, [n for n in _nodes(doc) if n.get("kind") == "const"])
    if node is not None:
        node["value"] = draw(st.integers(-1, 5) | ODD)


# Every width-2 input, as words and as batch matrices.  An imported
# document keeps width 2: changing it means changing the width and three
# port lists, more mutations than one document gets.
WORDS = list(itertools.product(range(4), repeat=2))
CASES = [(a, b, c) for a in WORDS for b in WORDS for c in (0, 1)]
A, B, CIN = (np.array([case[k] for case in CASES], dtype=np.uint8) for k in range(3))

MUTATIONS = [_drop_field, _swap_type, _shift_id, _change_fan_in, _swap_kind, _set_const]


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(draw, doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(mutated_documents())
def test_mutated_document_is_rejected_or_evaluates_consistently(doc_path, text):
    try:
        nl = netlist.from_json(text)
    except netlist.DocumentError as exc:
        nl, reason = None, exc.reason
    else:
        s, cout = netlist.add_batch(nl, A, B, CIN)
        for k, (a, b, c) in enumerate(CASES):
            assert netlist.evaluate_words(nl, a, b, c) == (tuple(s[k].tolist()), int(cout[k]))

    doc_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--netlist", str(doc_path), "--a", "12", "--b", "31", "--cin", "1"])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if nl is None:
        assert code == 2 and err.getvalue().startswith(f"error: {reason}:")
    else:
        s, cout = netlist.evaluate_words(nl, (2, 1), (1, 3), 1)
        assert code == 0 and out.getvalue() == f"S={s[1]}{s[0]} C={cout}\n"
