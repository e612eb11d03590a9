"""Built, exported and lowered documents against a stored reference.

The reference in data/document_golden.json was written by
``PYTHONPATH=src python tests/data/make_document_golden.py``: the default
cases at commit e9d6d7a, before a node's id became its position in
``Netlist.nodes``, and the sparse and hybrid parameter cases at 9cdb8b1,
before the builders shared one sum stage and ripple became the hybrid with
one block.
"""

import importlib.util
import json
from pathlib import Path

from quadder import netlist

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "document_golden.json").read_text())

_spec = importlib.util.spec_from_file_location("make_document_golden",
                                               DATA / "make_document_golden.py")
maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(maker)


def test_documents_match_reference():
    assert len(GOLDEN) == 5 * 10 + 2 * 12 + 42  # defaults, sparsity 2 and 3, hybrid blocks
    for key, spec in maker.cases():
        texts = maker.documents(spec)
        assert {name: maker.sha(text) for name, text in texts.items()} == GOLDEN[key], key
        for name in ("json", "lowered"):
            assert netlist.to_json(netlist.from_json(texts[name])) == texts[name], key
