"""Architecture builders: functional equivalence and structural shape."""

import itertools

import numpy as np
import pytest

from quadder import cells, netlist, qudit
from quadder.builders import (
    AdderSpec,
    build,
    build_hybrid,
    build_ripple,
    build_single_stage,
    build_sparse,
    build_tree,
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
        report = check_exhaustive(build(spec))
        assert report.passed, (spec, report.mismatches[:3])
        assert report.cases_run == 4**n * 4**n * 2


def test_spec_validation():
    with pytest.raises(ValueError):
        AdderSpec("ripple", 0)
    with pytest.raises(ValueError):
        AdderSpec("sparse", 4, sparsity=1)
    with pytest.raises(ValueError):
        AdderSpec("hybrid", 4, block=5)
    with pytest.raises(ValueError):
        AdderSpec("hybrid", 4)
    with pytest.raises(ValueError):
        AdderSpec("carry_skip", 4)


def test_ripple_width1_equals_full_add_on_contract_inputs():
    nl = build_ripple(1)
    for a, b in itertools.product(range(4), range(4)):
        for cin in (0, 1):
            s, c = netlist.evaluate_words(nl, (a,), (b,), cin)
            assert (s[0], c) == cells.full_add(a, b, cin)


def test_ripple_saturation_example():
    nl = build_ripple(4)
    s, c = netlist.evaluate_words(nl, (3, 3, 3, 3), (1, 0, 0, 0), 0)
    assert s == (0, 0, 0, 0) and c == 1


def test_ripple_carry_depth_is_5n():
    for n in (1, 2, 4, 9):
        nl = build_ripple(n)
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        assert rep.depth == 5 * n
        assert rep.per_signal_depth[f"carry[{n}]"] == 5 * n


def test_single_stage_depth_and_fan_in():
    for n in (1, 2, 3, 8, 17, 64):
        nl = build_single_stage(n)
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
        nl = build_single_stage(n)
        rep = netlist.measure(
            nl, [f"carry[{i}]" for i in range(1, n + 1)], "excluded"
        )
        assert rep.max_fan_in >= last
        last = rep.max_fan_in


def test_parallel_signal_depths():
    for builder in (build_single_stage, build_tree):
        nl = builder(6)
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        for i in range(1, 7):
            assert rep.per_signal_depth[f"P[{i}]"] == 3
            assert rep.per_signal_depth[f"G[{i}]"] == 4


def test_tree_depth_formula():
    for n in range(2, 65):
        nl = build_tree(n)
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        assert rep.depth == 4 + 2 * ceil_log2(n), n


def test_tree_q31_expands_to_three_terms():
    # q(3,1) must equal g2 + g1*p2 + c0*p1*p2 once masked
    nl = build_tree(3)
    qid = {(i, j): nid for i, j, nid in nl.meta["q_nodes"]}[(3, 1)]
    n = 3
    for av in range(4**n):
        a = qudit.int_to_word(av, n)
        for bv in range(0, 4**n, 7):  # sampled b lanes keep this quick
            b = qudit.int_to_word(bv, n)
            for cin in (0, 1):
                values = netlist.evaluate_nodes(nl, a, b, cin)
                p1, g1 = cells.pg(a[0], b[0])
                p2, g2 = cells.pg(a[1], b[1])
                want = qudit.qor(g2, qudit.qand(g1, p2), qudit.qand(cin, p1, p2))
                assert qudit.qand(values[qid], 1) == want


def test_tree_lemma1_levels():
    # every internal q node reaches its leaves within floor(log2(i-j)) + 1
    # combine steps; total logic depth stays within 2*(floor(log2 n) + 1)
    for n in range(2, 129):
        nl = build_tree(n)
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
    nl = build_tree(9)
    for group in ("product_tree", "carry_tree"):
        for nid in nl.meta["groups"][group]:
            assert len(nl.nodes[nid].inputs) == 2


def test_tree_memoization_subquadratic():
    counts = {}
    for n in (4, 8, 16, 32, 64, 128):
        counts[n] = build_tree(n).node_count()
        assert counts[n] <= 12 * n * (floor_log2(n) + 1), n
    for n in (16, 32, 64):
        assert counts[2 * n] <= 3 * counts[n]  # quadratic growth would be ~4x


def _q_value(i, j, p, g, c0):
    # direct, non-memoized expansion of the carry recursion on values
    if i == j:
        return c0 if i == 1 else g[i - 1]
    m = 1 << floor_log2(i - j)
    return qudit.qor(
        _q_value(i, i - m + 1, p, g, c0),
        qudit.qand(_q_value(i - m, j, p, g, c0), _p_value(i - m, i - 1, p)),
    )


def _p_value(i, j, p):
    if i == j:
        return p[i]
    m = 1 << floor_log2(j - i)
    return qudit.qand(_p_value(i, j - m, p), _p_value(j - m + 1, j, p))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_tree_matches_nonmemoized_expansion(n):
    nl = build_tree(n)
    qid = {(i, j): nid for i, j, nid in nl.meta["q_nodes"]}
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = [int(x) for x in rng.integers(0, 4, n)]
        b = [int(x) for x in rng.integers(0, 4, n)]
        cin = int(rng.integers(0, 2))
        values = netlist.evaluate_nodes(nl, a, b, cin)
        p = {i + 1: cells.pg(a[i], b[i]).propagate for i in range(n)}
        g = {i + 1: cells.pg(a[i], b[i]).generate for i in range(n)}
        for i in range(2, n + 2):
            want = _q_value(i, 1, p, g, cin)
            assert qudit.qand(values[qid[(i, 1)]], 1) == want


def test_unmasked_carry_low_bit_soundness():
    # raw network carries may float their high bit, but the low bit must be
    # the oracle carry at that position
    n = 3
    for builder in (build_single_stage, build_tree):
        nl = builder(n)
        for av in range(4**n):
            a = qudit.int_to_word(av, n)
            for bv in range(0, 4**n, 5):
                b = qudit.int_to_word(bv, n)
                for cin in (0, 1):
                    values = netlist.evaluate_nodes(nl, a, b, cin)
                    chain = cin
                    for i in range(1, n + 1):
                        chain = cells.full_add(a[i - 1], b[i - 1], chain).carry
                        raw = values[nl.signals[f"carry[{i}]"]]
                        assert qudit.qand(raw, 1) == chain


def test_sparse_boundary_materialization():
    nl = build_sparse(8, 4)
    assert nl.meta["boundaries"] == [5, 9]
    targets = {(i, j) for i, j, _ in nl.meta["q_nodes"] if j == 1}
    assert {(5, 1), (9, 1)} <= targets


def test_sparse_single_block_degenerates():
    nl = build_sparse(4, 4)
    assert nl.meta["boundaries"] == [5]  # only the carry-out comes from the tree
    report = check_exhaustive(nl)
    assert report.passed


def test_sparse_random_equivalence():
    report = check_random(build_sparse(16, 4), 10_000, seed=42)
    assert report.passed and report.seed == 42


def test_hybrid_block_equals_width_acts_like_ripple():
    nl_h = build_hybrid(6, 6)
    nl_r = build_ripple(6)
    rng = np.random.default_rng(9)
    a = rng.integers(0, 4, size=(500, 6), dtype=np.uint8)
    b = rng.integers(0, 4, size=(500, 6), dtype=np.uint8)
    cin = rng.integers(0, 2, size=500, dtype=np.uint8)
    sh, ch = netlist.add_batch(nl_h, a, b, cin)
    sr, cr = netlist.add_batch(nl_r, a, b, cin)
    assert (sh == sr).all() and (ch == cr).all()


def test_hybrid_random_equivalence():
    report = check_random(build_hybrid(8, 2), 10_000, seed=7)
    assert report.passed


def test_hybrid_depth_beats_ripple():
    nl = build_hybrid(16, 4)
    depth = netlist.measure(nl, nl.meta["delay_scope"], "included").depth
    assert depth < 80


def test_builders_are_deterministic():
    for spec in all_specs(5):
        one = netlist.to_json(build(spec))
        two = netlist.to_json(build(spec))
        assert one == two
