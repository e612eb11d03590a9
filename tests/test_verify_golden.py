"""verify reports against a stored reference.

The reference in data/verify_golden.json was written by
``PYTHONPATH=src python tests/data/make_verify_golden.py`` at commit
7e72865, before batch evaluation moved onto bit planes; the two width-12
carry-fault cases were added at e1b7640, before the mismatch table, and
the three runs longer than one chunk (70000 and 33333 trials) at 14e5585,
before random checks were streamed, each time with the other fingerprints
unchanged.  The 30 random entries were regenerated once when random checks
began drawing their input planes straight from the PCG64 stream and running
the carry-run vectors; the 30 exhaustive entries did not change.  The cases
and the fingerprint (exit code, byte count, SHA-256 of stdout) come from
that script.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "verify_golden.json").read_text())

_spec = importlib.util.spec_from_file_location("make_verify_golden",
                                               DATA / "make_verify_golden.py")
maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(maker)


def test_verify_reports_match_reference(tmp_path):
    got = {key: maker.fingerprint(*maker.report(argv, doc, tmp_path, key))
           for key, argv, doc in maker.cases()}
    assert sorted(got) == sorted(GOLDEN)
    assert len(got) == 5 * (4 + 3 + 2 * 2) + 2 + 3
    for key, want in GOLDEN.items():
        assert got[key] == want, key
