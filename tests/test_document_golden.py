"""Built, exported and lowered documents against a stored reference.

The reference in data/document_golden.json was written by
``PYTHONPATH=src python tests/data/make_document_golden.py`` at commit
e9d6d7a, before a node's id became its position in ``Netlist.nodes``.
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
    assert len(GOLDEN) == 5 * 10
    for kind in maker.KINDS:
        for n in maker.WIDTHS:
            texts = maker.documents(kind, n)
            assert {name: maker.sha(text) for name, text in texts.items()} == GOLDEN[f"{kind} {n}"]
            for name in ("json", "lowered"):
                assert netlist.to_json(netlist.from_json(texts[name])) == texts[name], (kind, n)
