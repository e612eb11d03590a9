"""Oracle, exhaustive/random harnesses, truth tables, mutation sensitivity."""

import numpy as np
import pytest
import reference

from quadder import cli, netlist, verify
from quadder.builders import AdderSpec, build
from quadder.netlist import Netlist


def test_oracle_examples():
    assert reference.oracle_add((3, 3), (1, 0), 0) == ((0, 0), 1)
    assert reference.oracle_add((2, 1), (1, 2), 1) == ((0, 0), 1)
    assert reference.oracle_add((0, 0, 0), (0, 0, 0), 0) == ((0, 0, 0), 0)
    with pytest.raises(ValueError):
        reference.oracle_add((1,), (1, 2), 0)
    with pytest.raises(ValueError):
        reference.oracle_add((1,), (1,), 2)


def test_oracle_round_trip():
    for width in (1, 2, 3):
        for value in range(4**width):
            w = reference.int_to_word(value, width)
            assert reference.word_to_int(w) == value
    rng = np.random.default_rng(1)
    for width in (4, 5, 6):
        for _ in range(200):
            value = int(rng.integers(0, 4**width))
            assert reference.word_to_int(reference.int_to_word(value, width)) == value


def test_oracle_agrees_with_cells_ripple():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = tuple(int(x) for x in rng.integers(0, 4, n))
        b = tuple(int(x) for x in rng.integers(0, 4, n))
        cin = int(rng.integers(0, 2))
        assert reference.oracle_add(a, b, cin) == reference.ripple_add(a, b, cin)


def test_exhaustive_counts_and_bound():
    report = verify.check_exhaustive(build(AdderSpec("ripple", 2)))
    assert report.passed and report.cases_run == 512
    report = verify.check_exhaustive(build(AdderSpec("tree", 3)))
    assert report.passed and report.cases_run == 8192
    bound = "^width 9 exceeds the exhaustive bound 4; check it with random trials instead$"
    with pytest.raises(ValueError, match=bound):
        verify.check_exhaustive(build(AdderSpec("ripple", 9)))


def test_random_corners_and_determinism():
    nl = build(AdderSpec("sparse", 16, sparsity=4))
    r1 = verify.check_random(nl, 1000, seed=42)
    r2 = verify.check_random(nl, 1000, seed=42)
    assert r1.passed
    assert r1.to_json() == r2.to_json()
    r3 = verify.check_random(nl, 1000, seed=43)
    assert r3.seed != r1.seed
    with pytest.raises(ValueError):
        verify.check_random(nl, 0, seed=1)


@pytest.mark.parametrize("wrong, trials, seed", [
    ("seed", 10, None), ("seed", 10, True), ("seed", 10, np.int64(1)), ("seed", 10, -1),
    ("trials", True, 1), ("trials", 2.5, 1), ("trials", 0, 1)])
def test_random_check_takes_exact_ints(wrong, trials, seed):
    """An unseeded check could not be reproduced, and a bool would be
    recorded as true."""
    with pytest.raises(ValueError, match=f"{wrong} must be an int"):
        verify.check_random(build(AdderSpec("ripple", 2)), trials, seed)


def test_random_cap_counts_every_case_the_check_runs(monkeypatch, capsys):
    """At width 4 a check runs 18 corner vectors, 6 x 7 carry-run vectors
    (7 aligned blocks) and its trials, and the cap bounds all of them times
    the width: a check at the cap runs, and one case more is refused before
    anything is drawn, by the library and by ``quadder verify`` with exit 2
    and no traceback."""
    nl = build(AdderSpec("ripple", 4))
    monkeypatch.setattr(verify, "RANDOM_DIGITS_CAP", (18 + 42 + 10) * 4)
    assert verify.check_random(nl, 10, 1).cases_run == 70
    draws = []
    monkeypatch.setattr(np.random, "PCG64", lambda *args: draws.append(args))
    refusal = ("71 cases (18 corner vectors, 42 carry-run vectors and 11 trials) x width 4 "
               "exceed the random-check cap RANDOM_DIGITS_CAP = 280 digits")
    with pytest.raises(ValueError) as caught:
        verify.check_random(nl, 11, 1)
    assert str(caught.value) == refusal
    code = cli.main(["verify", "--kind", "ripple", "--width", "4", "--random", "11"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {refusal}\n")
    assert not draws


def test_carry_run_vectors_catch_a_product_tree_fault():
    """Tree n=64 with node 720, an And of its product tree, turned into an
    Or: 20000 trials of random digits alone miss it at most seeds, and the
    aligned carry-run vectors, the same at every seed, expose it.  Every
    record expects the digit of the integer sum."""
    nl = build(AdderSpec("tree", 64))
    assert nl.nodes[720].kind == "and" and 720 in nl.meta["groups"]["product_tree"]
    bad = _mutate(nl, 720, "or")
    for seed in (1, 3):
        report = verify.check_random(bad, 20000, seed)
        records = reference.mismatches(report)
        assert not report.passed and records
        for r in records:
            total = reference.word_to_int(r["a"]) + reference.word_to_int(r["b"]) + r["cin"]
            place = 64 if r["signal"] == "cout" else int(r["signal"][2:-1]) - 1
            assert r["expected"] == total >> 2 * place & 3, r


def test_checks_reach_the_layers_by_module_lookup(monkeypatch):
    """The kernel's run loop, the oracle and the mismatch collector are
    looked up on their modules at call time, so a wrapper put in their place
    sees every check's calls: every check runs ``add_cases`` against the
    oracle, a random check with its draws and an exhaustive check with its
    digits, which ``add_batch`` packs."""
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((netlist, "add_batch"), (netlist, "add_cases"),
                         (verify, "_oracle_batch"), (verify, "_collect_mismatches")):
        counting(module, name)
    nl = build(AdderSpec("tree", 2))
    for check, batches in ((lambda: verify.check_random(nl, 100, 1), {}),
                           (lambda: verify.check_exhaustive(nl), {"add_batch": 1})):
        calls.clear()
        check()
        assert calls == {**batches, "add_cases": 1, "_oracle_batch": 1, "_collect_mismatches": 1}


def test_all_threes_plus_carry_corner():
    nl = build(AdderSpec("tree", 32))
    s, c = netlist.evaluate_words(nl, (3,) * 32, (0,) * 32, 1)
    assert s == (0,) * 32 and c == 1


def _mutate(nl: Netlist, nid: int, new_kind: str) -> Netlist:
    nodes = list(nl.nodes)
    nodes[nid] = nodes[nid]._replace(kind=new_kind)
    return Netlist(
        width=nl.width,
        nodes=tuple(nodes),
        a_ports=nl.a_ports,
        b_ports=nl.b_ports,
        cin_port=nl.cin_port,
        s_ports=nl.s_ports,
        cout_port=nl.cout_port,
        signals=nl.signals,
        meta=nl.meta,
    )


_KIND_SWAP = {
    "and": "or",
    "or": "and",
    "xor": "and",
    "not": "bitswap",
    "bitswap": "not",
    "inward": "outward",
    "outward": "inward",
}


def mutation_catalogue(nl: Netlist, count: int = 20, seed: int = 2024):
    """Deterministic single-gate kind swaps on a verified netlist."""
    rng = np.random.default_rng(seed)
    candidates = [nid for nid, n in enumerate(nl.nodes) if n.kind in _KIND_SWAP]
    order = list(rng.permutation(len(candidates)))
    picks = [candidates[i] for i in order[:count]]
    return [(nid, _KIND_SWAP[nl.nodes[nid].kind]) for nid in picks]


def test_corrupted_netlist_is_reported_with_replay_inputs():
    nl = build(AdderSpec("ripple", 2))
    and_id = next(nid for nid, n in enumerate(nl.nodes) if n.kind == "and")
    bad = _mutate(nl, and_id, "or")
    report = verify.check_exhaustive(bad)
    assert not report.passed
    m = reference.mismatches(report)[0]
    assert set(m) == {"a", "b", "cin", "signal", "expected", "actual"}
    # the recorded inputs replay to the recorded wrong value
    s, c = netlist.evaluate_words(bad, m["a"], m["b"], m["cin"])
    got = {f"S[{i + 1}]": s[i] for i in range(2)}
    got["cout"] = c
    assert got[m["signal"]] == m["actual"]


def test_mutation_catalogue_all_caught():
    nl = build(AdderSpec("ripple", 2))
    catalogue = mutation_catalogue(nl, count=20, seed=2024)
    assert len(catalogue) == 20
    assert catalogue == mutation_catalogue(nl, count=20, seed=2024)
    for nid, new_kind in catalogue:
        report = verify.check_exhaustive(_mutate(nl, nid, new_kind))
        assert not report.passed, (nid, new_kind)


def test_truth_tables_report():
    mismatches, divergences = reference.check_truth_tables()
    assert not mismatches
    assert len(divergences) == 1
    assert divergences[0]["row"] == [0, 3, 1]
    assert divergences[0]["oracle_s"] == 0


def test_report_serialization_round_trip():
    import json

    report = verify.check_random(build(AdderSpec("tree", 4)), 50, seed=9)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["seed"] == 9
    assert doc["kind"] == "tree"
    assert doc["cases_run"] == report.cases_run
