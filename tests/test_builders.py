"""Architecture builders: functional equivalence and structural shape."""

import itertools

import numpy as np
import pytest
import reference

from quadder import netlist
from quadder.builders import (
    KINDS,
    AdderSpec,
    build,
    ceil_log2,
    floor_log2,
)
from quadder.verify import check_exhaustive, check_random


def all_specs(n):
    yield AdderSpec("ripple", n)
    yield AdderSpec("single_stage", n)
    yield AdderSpec("tree", n)
    yield AdderSpec("sparse", n, sparsity=4)
    if n >= 2:
        yield AdderSpec("sparse", n, sparsity=2)
    yield AdderSpec("hybrid", n, block=max(1, n // 2))
    yield AdderSpec("hybrid", n, block=n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_architecture_exhaustively_correct(n):
    for spec in all_specs(n):
        report = check_exhaustive(reference.built(spec))
        assert report.passed, (spec, reference.mismatches(report)[:3])
        assert report.cases_run == 4**n * 4**n * 2


def test_spec_validation():
    with pytest.raises(ValueError):
        AdderSpec("ripple", 0)
    with pytest.raises(ValueError):
        AdderSpec("sparse", 4, sparsity=1)
    with pytest.raises(ValueError):
        AdderSpec("hybrid", 4, block=5)
    assert AdderSpec("hybrid", 4).block == 4   # a missing block is min(4, width)
    with pytest.raises(ValueError):
        AdderSpec("carry_skip", 4)
    # width, sparsity and a given block must be exact ints (a bool is not)
    for kind, width, extra, name in (
        ("tree", 2.0, {}, "width"),
        ("tree", True, {}, "width"),
        ("tree", "3", {}, "width"),
        ("sparse", 8, {"sparsity": 2.5}, "sparsity"),
        ("sparse", 8, {"sparsity": True}, "sparsity"),
        ("hybrid", 8, {"block": True}, "block"),
        ("hybrid", 8, {"block": 2.0}, "block"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            AdderSpec(kind, width, **extra)


def test_log2_needs_a_positive_integer():
    for fn in (floor_log2, ceil_log2):
        with pytest.raises(ValueError, match=f"^{fn.__name__} needs a positive integer$"):
            fn(0)


def test_spec_rejects_a_parameter_its_kind_does_not_take():
    for kind, name in (("ripple", "sparsity"), ("single_stage", "block"), ("tree", "block"),
                       ("sparse", "block"), ("hybrid", "sparsity")):
        with pytest.raises(ValueError, match=f"^a {kind} adder takes no {name}$"):
            AdderSpec(kind, 4, **{name: 2})


def test_spec_defaults():
    """A sparse adder without a sparsity gets 4, a hybrid without a block
    min(4, width); every other kind's parameters stay None."""
    assert AdderSpec("hybrid", 2) == AdderSpec("hybrid", 2, block=2)
    assert AdderSpec("hybrid", 9).block == 4
    assert AdderSpec("sparse", 8).sparsity == 4
    assert AdderSpec("sparse", 8) == AdderSpec("sparse", 8, sparsity=4)
    assert AdderSpec("tree", 4).sparsity is None
    assert AdderSpec("tree", 4).block is None
    assert AdderSpec("hybrid", 8).sparsity is None


def test_kinds_order():
    # hypothesis draws and test ids depend on this order
    assert KINDS == ("ripple", "single_stage", "tree", "sparse", "hybrid")


def test_ripple_width1_equals_full_add_on_contract_inputs():
    nl = reference.built(AdderSpec("ripple", 1))
    for a, b in itertools.product(range(4), range(4)):
        for cin in (0, 1):
            s, c = netlist.evaluate_words(nl, (a,), (b,), cin)
            assert (s[0], c) == reference.full_add(a, b, cin)


def test_ripple_saturation_example():
    nl = reference.built(AdderSpec("ripple", 4))
    s, c = netlist.evaluate_words(nl, (3, 3, 3, 3), (1, 0, 0, 0), 0)
    assert s == (0, 0, 0, 0) and c == 1


def test_ripple_carry_depth_is_5n():
    for n in (1, 2, 4, 9):
        nl = reference.built(AdderSpec("ripple", n))
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        assert rep.depth == 5 * n
        assert rep.per_signal_depth[f"carry[{n}]"] == 5 * n


def test_single_stage_depth_and_fan_in():
    for n in (1, 2, 3, 8, 17, 64):
        nl = reference.built(AdderSpec("single_stage", n))
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        assert rep.depth == 6
        # the last carry's Or joins n+1 terms
        or_node = nl.nodes[nl.signals[f"carry[{n}]"]]
        if n >= 1:
            assert or_node.kind == "or"
            assert len(or_node.inputs) == n + 1


def test_single_stage_max_fan_in_monotone():
    last = 0
    for n in range(2, 33):
        nl = reference.built(AdderSpec("single_stage", n))
        rep = netlist.measure(
            nl, [f"carry[{i}]" for i in range(1, n + 1)], "excluded"
        )
        assert rep.max_fan_in >= last
        last = rep.max_fan_in


def test_parallel_signal_depths():
    for kind in ("single_stage", "tree"):
        nl = reference.built(AdderSpec(kind, 6))
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        for i in range(1, 7):
            assert rep.per_signal_depth[f"P[{i}]"] == 3
            assert rep.per_signal_depth[f"G[{i}]"] == 4


def test_tree_depth_formula():
    for n in range(2, 65):
        nl = reference.built(AdderSpec("tree", n))
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        assert rep.depth == 4 + 2 * ceil_log2(n), n


def test_tree_q31_expands_to_three_terms():
    # q(3,1) must equal g2 + g1*p2 + c0*p1*p2 once masked
    nl = reference.built(AdderSpec("tree", 3))
    qid = {(i, j): nid for i, j, nid in nl.meta["q_nodes"]}[(3, 1)]
    n = 3
    for av in range(4**n):
        a = reference.int_to_word(av, n)
        for bv in range(0, 4**n, 7):  # sampled b lanes keep this quick
            b = reference.int_to_word(bv, n)
            for cin in (0, 1):
                values = reference.run_nodes(nl, a, b, cin)
                p1, g1 = reference.pg(a[0], b[0])
                p2, g2 = reference.pg(a[1], b[1])
                want = reference.qor(g2, reference.qand(g1, p2), reference.qand(cin, p1, p2))
                assert reference.qand(values[qid], 1) == want


def test_tree_lemma1_levels():
    # every internal q node reaches its leaves within floor(log2(i-j)) + 1
    # combine steps; total logic depth stays within 2*(floor(log2 n) + 1)
    for n in range(2, 129):
        nl = reference.built(AdderSpec("tree", n))
        keys = {(i, j) for i, j, _ in nl.meta["q_nodes"]}
        levels = {}

        def level(i, j):
            if i == j:
                return 0
            if (i, j) not in levels:
                m = 1 << floor_log2(i - j)
                levels[(i, j)] = 1 + max(level(i, i - m + 1), level(i - m, j))
            return levels[(i, j)]

        for i, j in keys:
            assert level(i, j) <= floor_log2(i - j) + 1
        assert 2 * max(level(i, j) for i, j in keys) <= 2 * (floor_log2(n) + 1)


def test_tree_internal_gates_are_two_input():
    nl = reference.built(AdderSpec("tree", 9))
    for group in ("product_tree", "carry_tree"):
        for nid in nl.meta["groups"][group]:
            assert len(nl.nodes[nid].inputs) == 2


def test_tree_memoization_subquadratic():
    counts = {}
    for n in (4, 8, 16, 32, 64, 128):
        counts[n] = len(reference.built(AdderSpec("tree", n)).nodes)
        assert counts[n] <= 12 * n * (floor_log2(n) + 1), n
    for n in (16, 32, 64):
        assert counts[2 * n] <= 3 * counts[n]  # quadratic growth would be ~4x


def _q_value(i, j, p, g, c0):
    # direct, non-memoized expansion of the carry recursion on values
    if i == j:
        return c0 if i == 1 else g[i - 1]
    m = 1 << floor_log2(i - j)
    return reference.qor(
        _q_value(i, i - m + 1, p, g, c0),
        reference.qand(_q_value(i - m, j, p, g, c0), _p_value(i - m, i - 1, p)),
    )


def _p_value(i, j, p):
    if i == j:
        return p[i]
    m = 1 << floor_log2(j - i)
    return reference.qand(_p_value(i, j - m, p), _p_value(j - m + 1, j, p))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_tree_matches_nonmemoized_expansion(n):
    nl = reference.built(AdderSpec("tree", n))
    qid = {(i, j): nid for i, j, nid in nl.meta["q_nodes"]}
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = [int(x) for x in rng.integers(0, 4, n)]
        b = [int(x) for x in rng.integers(0, 4, n)]
        cin = int(rng.integers(0, 2))
        values = reference.run_nodes(nl, a, b, cin)
        p = {i + 1: reference.pg(a[i], b[i]).propagate for i in range(n)}
        g = {i + 1: reference.pg(a[i], b[i]).generate for i in range(n)}
        for i in range(2, n + 2):
            want = _q_value(i, 1, p, g, cin)
            assert reference.qand(values[qid[(i, 1)]], 1) == want


def test_unmasked_carry_low_bit_soundness():
    # raw network carries may float their high bit, but the low bit must be
    # the oracle carry at that position
    n = 3
    for kind in ("single_stage", "tree"):
        nl = reference.built(AdderSpec(kind, n))
        for av in range(4**n):
            a = reference.int_to_word(av, n)
            for bv in range(0, 4**n, 5):
                b = reference.int_to_word(bv, n)
                for cin in (0, 1):
                    values = reference.run_nodes(nl, a, b, cin)
                    chain = cin
                    for i in range(1, n + 1):
                        chain = reference.full_add(a[i - 1], b[i - 1], chain).carry
                        raw = values[nl.signals[f"carry[{i}]"]]
                        assert reference.qand(raw, 1) == chain


def test_sparse_boundary_materialization():
    nl = reference.built(AdderSpec("sparse", 8, sparsity=4))
    assert nl.meta["boundaries"] == [5, 9]
    targets = {(i, j) for i, j, _ in nl.meta["q_nodes"] if j == 1}
    assert {(5, 1), (9, 1)} <= targets


def test_sparse_single_block_degenerates():
    nl = reference.built(AdderSpec("sparse", 4, sparsity=4))
    assert nl.meta["boundaries"] == [5]  # only the carry-out comes from the tree
    report = check_exhaustive(nl)
    assert report.passed


def test_sparse_random_equivalence():
    report = check_random(reference.built(AdderSpec("sparse", 16, sparsity=4)), 10_000, seed=42)
    assert report.passed and report.seed == 42


def test_hybrid_block_equals_width_acts_like_ripple():
    """One block is the ripple adder: the same nodes, ports, signals and
    groups; only the kind and params in meta differ."""
    for n in range(1, 9):
        nl_h = reference.built(AdderSpec("hybrid", n, block=n))
        nl_r = reference.built(AdderSpec("ripple", n))
        assert nl_h.nodes == nl_r.nodes
        assert (nl_h.a_ports, nl_h.b_ports, nl_h.cin_port, nl_h.s_ports, nl_h.cout_port) == (
            nl_r.a_ports, nl_r.b_ports, nl_r.cin_port, nl_r.s_ports, nl_r.cout_port)
        assert nl_h.signals == nl_r.signals
        assert nl_h.meta["groups"] == nl_r.meta["groups"]
        assert (nl_h.meta["kind"], nl_h.meta["params"]) == ("hybrid", {"width": n, "block": n})
        assert (nl_r.meta["kind"], nl_r.meta["params"]) == ("ripple", {"width": n})
        rest = ("kind", "params")
        assert ({k: v for k, v in nl_h.meta.items() if k not in rest}
                == {k: v for k, v in nl_r.meta.items() if k not in rest})
    rng = np.random.default_rng(9)
    a = rng.integers(0, 4, size=(500, 6), dtype=np.uint8)
    b = rng.integers(0, 4, size=(500, 6), dtype=np.uint8)
    cin = rng.integers(0, 2, size=500, dtype=np.uint8)
    sh, ch = reference.sums(build(AdderSpec("hybrid", 6, block=6)), a, b, cin)
    sr, cr = reference.sums(build(AdderSpec("ripple", 6)), a, b, cin)
    assert (sh == sr).all() and (ch == cr).all()


def test_hybrid_random_equivalence():
    report = check_random(reference.built(AdderSpec("hybrid", 8, block=2)), 10_000, seed=7)
    assert report.passed


def test_hybrid_depth_beats_ripple():
    nl = reference.built(AdderSpec("hybrid", 16, block=4))
    depth = netlist.measure(nl, nl.meta["delay_scope"], "included").depth
    assert depth < 80


def test_builders_are_deterministic():
    for spec in all_specs(5):
        one = netlist.to_json(build(spec))
        two = netlist.to_json(build(spec))
        assert one == two


def _group_specs():
    for kind in KINDS:
        for n in range(1, 17):
            yield AdderSpec(kind, n)
    for s in range(2, 6):
        for n in range(1, 17):
            yield AdderSpec("sparse", n, sparsity=s)
    for n in range(1, 9):
        for block in range(1, n + 1):
            yield AdderSpec("hybrid", n, block=block)


def test_groups_partition_the_gates():
    """Every gate of a built netlist is in exactly one group, and each group
    lists its ids in ascending order."""
    for spec in _group_specs():
        nl = reference.built(spec)
        groups = nl.meta["groups"].values()
        gates = [nid for nid, node in enumerate(nl.nodes) if node.kind not in netlist.LEAF_KINDS]
        assert sorted(nid for ids in groups for nid in ids) == gates, spec
        assert all(ids == sorted(set(ids)) for ids in groups), spec


def test_every_gate_goes_through_add(monkeypatch):
    """The benchmark counts builder calls with a ``*args, **kwargs`` wrapper
    on ``NetlistBuilder.add``; under it every build writes the same document,
    and every gate id is the result of some ``add`` call."""
    plain = {spec: netlist.to_json(build(spec)) for spec in all_specs(6)}
    returned = []
    add = netlist.NetlistBuilder.add

    def counted(*args, **kwargs):
        returned.append(add(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(netlist.NetlistBuilder, "add", counted)
    for spec, doc in plain.items():
        returned.clear()
        nl = build(spec)
        assert netlist.to_json(nl) == doc, spec
        gates = {nid for nid, node in enumerate(nl.nodes) if node.kind not in netlist.LEAF_KINDS}
        assert set(returned) == gates, spec
