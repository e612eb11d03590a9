"""Which of its two paths ``add_cases`` takes, and that both give one answer.

A check of at most ``netlist.NODE_RUN_LANES`` cases whose nodes' plane pairs
fit in ``PLANE_BUDGET // 8`` bytes runs once over the nodes themselves and
compiles no plan; every other check compiles the plan and runs over it.
Each side is forced here by patching ``NODE_RUN_LANES``: 0 sends every
check to the plan, and a bound past every check here, with the byte bound
lifted, sends every check to the nodes.
"""

import json

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import netlists

from quadder import builders, netlist, verify

KINDS = builders.KINDS


def _force(monkeypatch, side: str) -> None:
    if side == "plan":
        monkeypatch.setattr(netlist, "NODE_RUN_LANES", 0)
    else:
        monkeypatch.setattr(netlist, "NODE_RUN_LANES", 2**20)
        monkeypatch.setattr(netlist, "PLANE_BUDGET", 2**40)


def _on(monkeypatch, side: str, check, nl):
    """``check(nl)`` with ``add_cases`` forced to one side."""
    with monkeypatch.context() as m:
        _force(m, side)
        return check(nl)


def _fault(nl, nid: int, kind: str):
    """A document of ``nl`` with node ``nid`` turned into a ``kind`` gate, imported."""
    doc = json.loads(netlist.to_json(nl))
    doc["nodes"][nid]["kind"] = kind
    return netlist.from_json(json.dumps(doc))


def _documents(kind: str, n: int) -> list:
    """The correct adder and its S[1 + n // 2]->Or and cout-mask->Or faults
    (the ``verify_faulty`` faults), each also lowered to fan-in 2."""
    nl = builders.build(builders.AdderSpec(kind, n))
    cout = nl.nodes[nl.cout_port]
    assert cout.kind == netlist.AND and len(cout.inputs) == 2
    docs = [nl, _fault(nl, nl.s_ports[n // 2], netlist.OR), _fault(nl, nl.cout_port, netlist.OR)]
    return docs + [netlist.lower_fanin2(doc) for doc in docs]


def _same_reports(monkeypatch, nl, check) -> bool:
    nodes = _on(monkeypatch, "nodes", check, nl)
    assert "_plan" not in vars(nl)
    plan = _on(monkeypatch, "plan", check, nl)
    assert "_plan" in vars(nl)
    return nodes.to_json() == plan.to_json()   # apart: pytest diffs long texts slowly


@pytest.mark.parametrize("kind", KINDS)
def test_both_sides_give_the_same_exhaustive_reports(monkeypatch, kind):
    for n in range(1, verify.EXHAUSTIVE_WIDTH_BOUND + 1):
        for nl in _documents(kind, n):
            assert _same_reports(monkeypatch, nl, verify.check_exhaustive), n


@pytest.mark.parametrize("kind", KINDS)
def test_both_sides_give_the_same_random_reports_at_64_digits(monkeypatch, kind):
    for nl in _documents(kind, 64):
        assert _same_reports(monkeypatch, nl, lambda nl: verify.check_random(nl, 2000, 5))


def _no_sums(ins: list) -> list:
    """An oracle that wants every S and cout digit 0: every case with a
    nonzero output digit fails, and its digits are read back."""
    return [0] * (len(ins) // 4 * 2 + 2)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(netlists),
       st.sampled_from([1, 63, 64, 65, 130, 4097]), st.integers(0, 2**32 - 1))
def test_both_sides_give_the_same_add_cases_arrays(nl, cases, seed):
    n = nl.width
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    cin = rng.integers(0, 2, size=cases, dtype=np.uint8)
    sides = {}
    for side in ("nodes", "plan"):
        with pytest.MonkeyPatch.context() as m:
            _force(m, side)
            sides[side] = netlist.add_batch(nl, a, b, cin, _no_sums)
    for x, y in zip(sides["nodes"], sides["plan"], strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    s, cout = reference.sums(nl, a, b, cin)
    want = np.column_stack((s, cout))
    fails = want.any(axis=1)
    got_a, got_b, got_cin, expected, actual = sides["nodes"]
    assert np.array_equal(got_a, a[fails]) and np.array_equal(got_b, b[fails])
    assert np.array_equal(got_cin, cin[fails])
    assert not expected.any() and np.array_equal(actual, want[fails])


def _compiles(nl, check) -> bool:
    check(nl)
    return "_plan" in vars(nl)


def _random_10(nl):
    return verify.check_random(nl, 10, 1)


def test_a_check_of_at_most_4096_cases_compiles_no_plan():
    """The 2780 cases of a 2000-trial check at n=64, the 3094 of a 10-trial
    check at n=256, the 512 of a width-2 exhaustive check and a 1-case batch
    each run once over the nodes."""
    assert netlist.NODE_RUN_LANES == 4096
    for kind in KINDS:
        nl = builders.build(builders.AdderSpec(kind, 64))
        assert not _compiles(nl, lambda nl: verify.check_random(nl, 2000, 1)), kind
        for n in (1, 2):
            assert not _compiles(builders.build(builders.AdderSpec(kind, n)),
                                 verify.check_exhaustive), (kind, n)
    for kind in ("ripple", "hybrid"):
        assert not _compiles(builders.build(builders.AdderSpec(kind, 256)), _random_10), kind
    nl = builders.build(builders.AdderSpec("tree", 64))
    one = np.zeros((1, 64), dtype=np.uint8)
    assert not _compiles(nl, lambda nl: netlist.add_batch(nl, one, one, one[:, 0],
                                                          verify._oracle_batch))


def test_larger_checks_compile_the_plan():
    """Past 4096 cases, or past PLANE_BUDGET // 8 bytes of node planes (tree
    n=256 has 9248 nodes: 49 words of them take 7.3 MB), a check compiles
    the plan."""
    for kind in KINDS:
        nl = builders.build(builders.AdderSpec(kind, 16))
        assert _compiles(nl, lambda nl: verify.check_random(nl, 20000, 5)), kind
        nl = builders.build(builders.AdderSpec(kind, 3))
        assert _compiles(nl, verify.check_exhaustive), kind   # 8192 cases
        nl = builders.build(builders.AdderSpec(kind, 4))
        assert _compiles(nl, verify.check_exhaustive), kind
    nl = builders.build(builders.AdderSpec("tree", 256))
    assert _compiles(nl, _random_10)


def test_a_budget_below_a_slot_per_node_compiles_the_plan(monkeypatch):
    nl = builders.build(builders.AdderSpec("tree", 16))
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 16 * len(nl.nodes) - 1)
    assert _random_10(nl).passed
    assert "_plan" in vars(nl) and 16 * nl._plan.slots <= netlist.PLANE_BUDGET


def _traced_2000(nl):
    """(peak bytes, report) of a 2000-trial check under ``tracemalloc``."""
    return reference.traced_peak(verify.check_random, nl, 2000, 1)


def test_single_stage_64_checks_peak_near_the_planned_check(monkeypatch):
    """single_stage n=64 has the most nodes of any adder checked over them.
    A failing 2000-trial check (its cout mask turned into an Or, as the
    benchmark's faulty documents have it) peaks within 1.1x of the same check
    over a plan compiled inside the trace; a passing one within that check's
    peak and its 2 x 44 planes of 2816 lanes per node."""
    nl = builders.build(builders.AdderSpec("single_stage", 64))
    _random_10(nl)   # the first random check imports numpy.random
    for make, failing in ((lambda: _fault(nl, nl.cout_port, netlist.OR), True),
                          (lambda: builders.build(builders.AdderSpec("single_stage", 64)), False)):
        planned, report = _on(monkeypatch, "plan", _traced_2000, make())
        assert report.passed is not failing
        fresh = make()
        peak, report = _traced_2000(fresh)
        assert "_plan" not in vars(fresh) and report.passed is not failing
        bound = 1.1 * planned if failing else planned + 16 * 44 * len(fresh.nodes)
        assert peak <= bound, f"{peak / 2**20:.2f} MiB, planned {planned / 2**20:.2f} MiB"
