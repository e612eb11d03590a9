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
from quadder.netlist import AND, CONST, INPUT, NOT, OR, NetlistBuilder

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
            memo[nid] = 1 + max(memo[i] if i in memo else _depth(nl, i, mode, memo)
                                for i in node.inputs)
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


@pytest.mark.parametrize("kind", KINDS)
def test_adders_match_definitions(kind):
    """Depths under both conventions and the carry cone, read through the
    holders, equal the definitions' at widths 1-64, and for sparse and
    hybrid at every sparsity and block up to 8 at width 32."""
    specs = [AdderSpec(kind, n) for n in range(1, 65)]
    if kind == "sparse":
        specs += [AdderSpec(kind, 32, sparsity=sparsity) for sparsity in range(2, 9)]
    if kind == "hybrid":
        specs += [AdderSpec(kind, 32, block=block) for block in range(1, 9)]
    for spec in specs:
        nl = build(spec)
        for mode in MODES:
            assert netlist.node_depths(nl, mode) == ref_depths(nl, mode), (spec, mode)
        carries = [nid for name, nid in nl.signals.items() if name.startswith("carry[")]
        assert netlist.cone(nl, carries) == ref_cone(nl, carries), spec


def test_holders_outside_the_cone():
    """A chain of wide Ands, each holding the next one's prefix, outside the
    cone of the last: the cone holds every input of the chain and no holder
    until a gate reads one.  The chain's first input is a mask of a deep
    signal, so each gate's depth is its holder's, under both conventions."""
    nb = NetlistBuilder(2)
    a1, b1, a2, b2, cin = (nb.add_input(name) for name in ("A[1]", "B[1]", "A[2]", "B[2]", "cin"))
    deep = nb.add(NOT, nb.add(NOT, nb.add(NOT, a1)))
    mask = nb.add(AND, deep, nb.add_const(1))
    inner = nb.add(AND, mask, b1, a2)
    holder = nb.add(AND, mask, b1, a2, b2)
    top = nb.add(AND, mask, b1, a2, b2, cin)
    reader = nb.add(OR, holder, a1, b2)
    nl = nb.finish([a1, a2], [b1, b2], cin, [top, reader], top)
    for ids in ([top], [reader], [top, reader], [holder], [inner, top]):
        assert netlist.cone(nl, ids) == ref_cone(nl, ids), ids
    assert inner not in netlist.cone(nl, [top]) and holder not in netlist.cone(nl, [top])
    for mode in MODES:
        assert netlist.node_depths(nl, mode) == ref_depths(nl, mode)
        signals = {"top": top}
        assert _report(netlist.measure(nl, signals, mode)) == ref_measure(nl, signals, mode)
    assert [netlist.node_depths(nl, mode)[top] for mode in MODES] == [5, 4]
    n = len(nl.nodes)   # the chain is read through its holders
    assert nl._analysis.reads[holder] == (b2, n + inner)
    assert nl._analysis.reads[top] == (cin, n + holder)


@pytest.mark.parametrize("kind, n, most", [("single_stage", 64, 15_000),
                                           ("single_stage", 32, 4_100), ("tree", 256, 17_468)])
def test_analysis_input_reads(kind, n, most):
    """The analysis reads each propagate product of single_stage through the
    product over one fewer position, as the plan does (14,335 ids at n=64 and
    4,095 at n=32, not 99,616 and 14,480).  Tree has no wide gate holding
    another's prefix: 17,468 is one read per gate input."""
    nl = build(AdderSpec(kind, n))
    reads = sum(map(len, nl._analysis.reads[:len(nl.nodes)]))
    assert reads <= most
    if kind == "tree":
        assert reads == most == sum(len(node.inputs) for node in nl.nodes)
