"""The cached per-netlist analysis against a naive reading of the definitions.

Random small netlists carry And(x, Const 1) masks (with the constant on
either side), wide gates and unary gates.  Every query is asked several
times, in a drawn order, and must equal what the definitions give.  The
depth-only query also agrees with ``measure`` on the built adders, and
``compare`` measures the carry cone once under each convention.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import netlists

from quadder import analysis, netlist
from quadder.builders import KINDS, AdderSpec, build
from quadder.netlist import AND, CONST, INPUT

MODES = ("included", "excluded")


def _is_mask(nl, node):
    if node.kind != AND or len(node.inputs) != 2:
        return False
    return any(nl.nodes[i].kind == CONST and nl.nodes[i].value == 1 for i in node.inputs)


def _depth(nl, nid, mode, memo):
    if nid not in memo:
        node = nl.nodes[nid]
        if node.kind in (INPUT, CONST):
            memo[nid] = 0
        elif mode == "excluded" and _is_mask(nl, node):
            one = nl.nodes[node.inputs[0]]
            data = node.inputs[1] if one.kind == CONST and one.value == 1 else node.inputs[0]
            memo[nid] = _depth(nl, data, mode, memo)
        else:
            memo[nid] = 1 + max(_depth(nl, i, mode, memo) for i in node.inputs)
    return memo[nid]


def ref_depths(nl, mode):
    memo = {}
    return [_depth(nl, nid, mode, memo) for nid in range(len(nl.nodes))]


def ref_cone(nl, ids):
    cone = set(ids)
    while True:
        grown = cone | {i for nid in cone for i in nl.nodes[nid].inputs}
        if grown == cone:
            return cone
        cone = grown


def _counts(nl, ids, mode):
    """Fan-ins of the gates among ids that count under the convention."""
    gates = [nl.nodes[nid] for nid in ids if nl.nodes[nid].kind not in (INPUT, CONST)]
    return [len(g.inputs) for g in gates if not (mode == "excluded" and _is_mask(nl, g))]


def ref_measure(nl, resolved, mode):
    fans = _counts(nl, ref_cone(nl, resolved.values()), mode)
    depths = ref_depths(nl, mode)
    per_signal = {name: depths[nid] for name, nid in resolved.items()}
    return (len(fans), sum(fans), max(per_signal.values(), default=0), max(fans, default=0),
            per_signal)


def _report(rep):
    return (rep.gate_count, rep.input_count, rep.depth, rep.max_fan_in, rep.per_signal_depth)


queries = st.lists(
    st.tuples(st.sampled_from(["depths", "cone", "measure", "group"]), st.sampled_from(MODES),
              st.integers(0, 2**16)),
    min_size=4, max_size=14,
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(netlists(), queries)
def test_cached_analysis_matches_definitions(nl, plan):
    names = sorted({**nl.output_map(), **nl.signals})
    space = {**nl.output_map(), **nl.signals}
    for query, mode, salt in plan:
        chosen = [name for k, name in enumerate(names) if salt >> k & 1]
        if query == "depths":
            got = netlist.node_depths(nl, mode)
            assert got == ref_depths(nl, mode)
            got[:] = [-1] * len(got)    # the caller's copy, not the cache
        elif query == "cone":
            ids = [space[name] for name in chosen]
            got = netlist.cone(nl, ids)
            assert got == ref_cone(nl, ids)
            got.add(-1)
        elif query == "measure":
            signals = None if salt % 3 == 0 else (
                {name: space[name] for name in chosen} if salt % 3 == 1 else chosen)
            resolved = nl.output_map() if signals is None else {n: space[n] for n in chosen}
            assert _report(netlist.measure(nl, signals, mode)) == ref_measure(nl, resolved, mode)
            depths = ref_depths(nl, mode)
            got = netlist.signal_depths(nl, signals, mode)
            assert got == {name: depths[nid] for name, nid in resolved.items()}
        else:
            group = "g" if salt % 2 else "h"
            fans = _counts(nl, nl.meta["groups"][group], mode)
            assert netlist.count_group(nl, group, mode) == (len(fans), sum(fans))


@pytest.mark.parametrize("kind", KINDS)
def test_signal_depths_agree_with_measure(kind):
    """Over the delay scope, the masked carries cin[2..n] with cout, and cout
    alone, under both conventions, widths 1-16."""
    for n in range(1, 17):
        nl = build(AdderSpec(kind, n))
        masked = [f"cin[{i}]" for i in range(2, n + 1)] + ["cout"]
        for scope in (nl.meta["delay_scope"], masked, ["cout"]):
            for mode in MODES:
                rep = netlist.measure(nl, scope, mode)
                got = netlist.signal_depths(nl, scope, mode)
                assert got == rep.per_signal_depth
                assert max(got.values()) == rep.depth


@pytest.mark.parametrize("mode", MODES)
def test_compare_measures_the_carry_cone_once_per_convention(monkeypatch, mode):
    seen = []
    real = netlist.measure
    monkeypatch.setattr(netlist, "measure",
                        lambda nl, scope, how: seen.append(how) or real(nl, scope, how))
    analysis.compare(AdderSpec("single_stage", 8), mask_counting=mode)
    assert sorted(seen) == ["excluded", "included"]
