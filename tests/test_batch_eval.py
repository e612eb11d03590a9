"""The bit-plane batch evaluator behind add_batch.

Gate kernels are checked against the qudit functions themselves, random
netlists against the scalar evaluator case by case, and one large batch
against a memory bound.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import RepeatingBuilder, netlists

from quadder import netlist, qudit
from quadder.builders import AdderSpec, build
from quadder.netlist import AND, BITSWAP, INWARD, NOT, OR, OUTWARD, XOR, NetlistBuilder

GATES = {AND: qudit.qand, OR: qudit.qor, XOR: qudit.qxor}
UNARY = {NOT: qudit.qnot, INWARD: qudit.inward, OUTWARD: qudit.outward,
         BITSWAP: qudit.bitswap}


def _one_gate(kind, fan_in):
    """Width 1: the gate reads A[1], B[1] and cin (the first fan_in of them)
    and drives both S[1] and cout."""
    nb = NetlistBuilder(1)
    a, b, cin = nb.add_input("A[1]"), nb.add_input("B[1]"), nb.add_input("cin")
    out = nb.add(kind, *(a, b, cin)[:fan_in])
    return nb.finish([a], [b], cin, [out], out)


def _through_gate(kind, fan_in, rows):
    cols = np.array(rows, dtype=np.uint8).reshape(len(rows), -1)
    cols = np.pad(cols, ((0, 0), (0, 3 - cols.shape[1])))
    s, cout = netlist.add_batch(_one_gate(kind, fan_in), cols[:, :1], cols[:, 1:2], cols[:, 2])
    assert s.shape == (len(rows), 1) and (s[:, 0] == cout).all()
    return [int(x) for x in cout]


@pytest.mark.parametrize("kind", sorted(GATES))
def test_binary_gate_kernels_match_the_algebra(kind):
    rows = list(itertools.product(range(4), repeat=2))
    assert _through_gate(kind, 2, rows) == [GATES[kind](a, b) for a, b in rows]
    wide = list(itertools.product(range(4), repeat=3))
    assert _through_gate(kind, 3, wide) == [GATES[kind](a, b, c) for a, b, c in wide]


@pytest.mark.parametrize("kind", sorted(UNARY))
def test_unary_gate_kernels_match_the_algebra(kind):
    assert _through_gate(kind, 1, [[x] for x in range(4)]) == [UNARY[kind](x) for x in range(4)]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(netlists),
       st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_on_random_netlists(nl, cases, seed):
    n = nl.width
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    cin = rng.integers(0, 4, size=cases, dtype=np.uint8)
    s, cout = netlist.add_batch(nl, a, b, cin)
    assert s.shape == (cases, n) and cout.shape == (cases,)
    for k in range(cases):
        values = netlist.evaluate_nodes(nl, a[k], b[k], cin[k])
        assert [int(x) for x in s[k]] == [values[p] for p in nl.s_ports]
        assert int(cout[k]) == values[nl.cout_port]


def test_gate_reading_one_node_twice_frees_its_slot_once():
    nb = RepeatingBuilder(1)
    a, b, cin = nb.add_input("A[1]"), nb.add_input("B[1]"), nb.add_input("cin")
    x = nb.add(XOR, a, b)
    y = nb.add(AND, x, x)              # the last read of x, twice
    p, q = nb.add(NOT, cin), nb.add(BITSWAP, b)   # both take a freed slot
    nl = nb.finish([a], [b], cin, [nb.add(XOR, y, p)], nb.add(OR, q, cin))
    rows = list(itertools.product(range(4), repeat=2))
    av, bv = (np.array([r[k] for r in rows], dtype=np.uint8) for k in (0, 1))
    s, cout = netlist.add_batch(nl, av[:, None], bv[:, None], np.ones(16))
    assert [int(v) for v in s[:, 0]] == [qudit.qxor(u ^ v, qudit.qnot(1)) for u, v in rows]
    assert [int(v) for v in cout] == [qudit.qor(qudit.bitswap(v), 1) for _, v in rows]


def test_digit_major_inputs_give_the_same_sums():
    nl = build(AdderSpec("tree", 5))
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, size=(1000, 5), dtype=np.uint8)
    b = rng.integers(0, 4, size=(1000, 5), dtype=np.uint8)
    cin = rng.integers(0, 2, size=1000, dtype=np.uint8)
    s, cout = netlist.add_batch(nl, a, b, cin)
    a_f, b_f = np.asfortranarray(a), np.asfortranarray(b)
    assert a_f.T.flags.c_contiguous and (a_f == a).all()
    s_f, cout_f = netlist.add_batch(nl, a_f, b_f, cin)
    assert (s_f == s).all() and (cout_f == cout).all()


@pytest.mark.parametrize("n, cases", [(8, 1), (9, 63), (17, 130), (64, 65)])
def test_wide_batches_match_scalar_in_either_layout(n, cases):
    """Eight rows and more take the bit-transpose path: rows and cases that
    are not multiples of 8, and column-major inputs."""
    nl = build(AdderSpec("tree", n))
    rng = np.random.default_rng(n)
    a = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    cin = rng.integers(0, 4, size=cases, dtype=np.uint8)
    s, cout = netlist.add_batch(nl, a, b, cin)
    assert s.flags.c_contiguous
    s_f, cout_f = netlist.add_batch(nl, np.asfortranarray(a), np.asfortranarray(b), cin)
    assert (s_f == s).all() and (cout_f == cout).all()
    for k in range(cases):
        values = netlist.evaluate_nodes(nl, a[k], b[k], cin[k])
        assert s[k].tolist() == [values[p] for p in nl.s_ports]
        assert int(cout[k]) == values[nl.cout_port]


def test_bad_batches_are_rejected():
    nl = build(AdderSpec("tree", 2))
    ok = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="non-qudit"):
        netlist.add_batch(nl, ok + 4, ok, np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        netlist.add_batch(nl, ok[:, :1], ok[:, :1], np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        netlist.add_batch(nl, ok, ok, np.zeros(5))


@pytest.mark.parametrize("bad", [256, -1, 2.5, np.nan])
@pytest.mark.parametrize("place", [0, 1, 2])
def test_digits_are_checked_before_they_are_cast(bad, place):
    """256 would wrap to 0, -1 to 255 and 2.5 truncate to 2; a NaN raises no
    cast warning first."""
    nl = build(AdderSpec("tree", 2))
    args = [np.ones((4, 2)), np.ones((4, 2), dtype=np.int64), np.ones(4)]
    s, cout = netlist.add_batch(nl, *args)   # integral values of any dtype are digits
    assert s.tolist() == [[3, 2]] * 4 and cout.tolist() == [0] * 4
    args[place] = np.full(args[place].shape, bad)
    with pytest.raises(ValueError, match="non-qudit"):
        netlist.add_batch(nl, *args)


def test_tree_256_batch_of_20000_stays_under_48_mib():
    nl = build(AdderSpec("tree", 256))
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=(20000, 256), dtype=np.uint8)
    b = rng.integers(0, 4, size=(20000, 256), dtype=np.uint8)
    cin = rng.integers(0, 2, size=20000, dtype=np.uint8)
    tracemalloc.start()
    try:
        netlist.add_batch(nl, a, b, cin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
