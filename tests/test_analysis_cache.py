"""The cached per-netlist analysis against a naive reading of the definitions.

Random small netlists carry And(x, Const 1) masks (with the constant on
either side), wide gates and unary gates.  Every query is asked several
times, in a drawn order, and must equal what the definitions give.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quadder import netlist
from quadder.netlist import AND, CONST, INPUT, MULTI_KINDS, UNARY_KINDS, NetlistBuilder

MODES = ("included", "excluded")


@st.composite
def netlists(draw):
    nb = NetlistBuilder(1, dedupe=False)
    ids = [nb.add_input("cin"), nb.add_input("A[1]"), nb.add_input("B[1]")]
    ids += [nb.add_const(v) for v in draw(st.lists(st.sampled_from([0, 1, 1, 2, 3]),
                                                   min_size=1, max_size=3))]
    ones = [i for i in ids if nb.nodes[i].value == 1] or [nb.add_const(1)]
    for _ in range(draw(st.integers(1, 25))):
        pick = st.integers(0, nb.size - 1)
        shape = draw(st.sampled_from(["mask", "mask", "multi", "unary"]))
        if shape == "mask":
            x, one = draw(pick), draw(st.sampled_from(ones))
            nb.add(AND, *((one, x) if draw(st.booleans()) else (x, one)))
        elif shape == "multi":
            kind = draw(st.sampled_from(sorted(MULTI_KINDS)))
            nb.add(kind, *draw(st.lists(pick, min_size=2, max_size=6)))
        else:
            nb.add(draw(st.sampled_from(sorted(UNARY_KINDS))), draw(pick))
    top = nb.size - 1
    node = st.integers(0, top)
    signals = {f"x{k}": nid for k, nid in enumerate(draw(st.lists(node, max_size=5)))}
    groups = {"g": draw(st.lists(node, max_size=12)), "h": []}
    return nb.finish([ids[1]], [ids[2]], ids[0], [draw(node)], top,
                     signals=signals, meta={"groups": groups})


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
        else:
            group = "g" if salt % 2 else "h"
            fans = _counts(nl, nl.meta["groups"][group], mode)
            assert netlist.count_group(nl, group, mode) == (len(fans), sum(fans))
