"""The bit-plane batch evaluator: ``netlist._run`` over a compiled plan.

The sums are read through ``reference.sums``, which runs the plan in the
runs ``add_cases`` makes.  Gate kernels are checked against the reference
digit algebra, and random netlists against the reference node walk case by
case.  One large exhaustive-style batch, ``add_batch`` against the oracle,
is checked against memory bounds in either layout.
"""

import itertools

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import RepeatingBuilder, netlists

from quadder import netlist, verify
from quadder.builders import AdderSpec, build
from quadder.netlist import AND, BITSWAP, NOT, OR, XOR, NetlistBuilder


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
    s, cout = reference.sums(_one_gate(kind, fan_in), cols[:, :1], cols[:, 1:2], cols[:, 2])
    assert s.shape == (len(rows), 1) and (s[:, 0] == cout).all()
    return [int(x) for x in cout]


def _wide_gate(kind, picks):
    """Width 2: the gate reads the ports (A[1], B[1], A[2], B[2], cin) at
    the indices in picks, repeats allowed, and drives S[1], S[2] and cout."""
    nb = NetlistBuilder(2)
    ports = [nb.add_input(name) for name in ("A[1]", "B[1]", "A[2]", "B[2]", "cin")]
    out = nb.add(kind, *(ports[k] for k in picks))
    return nb.finish(ports[0:4:2], ports[1:4:2], ports[4], [out, out], out)


@pytest.mark.parametrize("kind", sorted(netlist.MULTI_KINDS))
def test_binary_gate_kernels_match_the_algebra(kind):
    rows = list(itertools.product(range(4), repeat=2))
    assert _through_gate(kind, 2, rows) == [reference.GATES[kind](a, b) for a, b in rows]
    wide = list(itertools.product(range(4), repeat=3))
    assert _through_gate(kind, 3, wide) == [reference.GATES[kind](a, b, c) for a, b, c in wide]
    cases = np.array(list(itertools.product(range(4), repeat=5)), dtype=np.uint8)
    for picks in [(0, 1, 2, 3), (2, 2, 4, 0), (0, 1, 2, 3, 4), (4, 1, 4, 1, 3),
                  (0, 1, 2, 3, 4, 1), (3, 0, 3, 3, 4, 2)]:
        s, cout = reference.sums(_wide_gate(kind, picks), cases[:, 0:4:2], cases[:, 1:4:2],
                                 cases[:, 4])
        want = [reference.GATES[kind](*(row[k] for k in picks)) for row in cases.tolist()]
        assert cout.tolist() == want and (s == cout[:, None]).all(), picks


@pytest.mark.parametrize("kind", sorted(netlist.UNARY_KINDS))
def test_unary_gate_kernels_match_the_algebra(kind):
    want = [reference.GATES[kind](x) for x in range(4)]
    assert _through_gate(kind, 1, [[x] for x in range(4)]) == want


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(netlists),
       st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_on_random_netlists(nl, cases, seed):
    n = nl.width
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    cin = rng.integers(0, 4, size=cases, dtype=np.uint8)
    s, cout = reference.sums(nl, a, b, cin)
    assert s.shape == (cases, n) and cout.shape == (cases,)
    for k in range(cases):
        values = reference.evaluate_nodes(nl, a[k], b[k], cin[k])
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
    s, cout = reference.sums(nl, av[:, None], bv[:, None], np.ones(16))
    assert [int(v) for v in s[:, 0]] == [reference.qxor(u ^ v, reference.qnot(1)) for u, v in rows]
    assert [int(v) for v in cout] == [reference.qor(reference.bitswap(v), 1) for _, v in rows]


def _reads(nl):
    """The plan's input rows per step, in step order."""
    return [len(ins) for _, ins, _, _ in nl._plan.steps]


def test_a_gate_reads_the_earlier_gate_holding_its_prefix():
    """A wide gate that starts with all the inputs of the latest earlier wide
    gate of its kind with the same first input reads that gate, which gets a
    step although no output reads it.  A gate of another kind, or one whose
    latest such gate is not its prefix, reads all its inputs."""
    nb = NetlistBuilder(2)
    a1, b1, a2, b2, cin = (nb.add_input(name) for name in ("A[1]", "B[1]", "A[2]", "B[2]", "cin"))
    nb.add(AND, a1, b1, a2)                 # the prefix, outside the cone
    full = nb.add(AND, a1, b1, a2, b2, cin)
    other = nb.add(OR, a1, b1, a2, b2)
    nb.add(AND, b1, a2, cin)                # not the next gate's prefix, and dead: no step
    shadowed = nb.add(AND, b1, a2, b2, a1)
    nl = nb.finish([a1, a2], [b1, b2], cin, [full, other], shadowed)
    assert _reads(nl) == [3, 3, 4, 4]
    cases = np.array(list(itertools.product(range(4), repeat=5)), dtype=np.uint8)
    s, cout = reference.sums(nl, cases[:, [0, 2]], cases[:, [1, 3]], cases[:, 4])
    for k, (x1, y1, x2, y2, c) in enumerate(cases.tolist()):
        values = reference.evaluate_nodes(nl, (x1, x2), (y1, y2), c)
        assert s[k].tolist() == [values[full], values[other]] and cout[k] == values[shadowed]


@pytest.mark.parametrize("kind, n, most", [("single_stage", 64, 15_000),
                                           ("single_stage", 32, 4_100), ("tree", 256, 17_468)])
def test_plan_input_reads(kind, n, most):
    """single_stage builds each propagate product over k+1..t from the
    literals of k+1..t, about n^3 / 3 gate inputs in all (99,616 at n=64,
    14,480 at n=32), and reads the product over k+1..t-1 in their place.
    Tree has no wide gate holding another's prefix: 17,468 is one read
    per gate input."""
    assert sum(_reads(reference.built(AdderSpec(kind, n)))) <= most


@pytest.mark.parametrize("kind, n, most", [("tree", 256, 1100), ("sparse", 256, 850),
                                           ("hybrid", 256, 820), ("single_stage", 64, 400),
                                           ("ripple", 256, 775)])
def test_plan_rows(kind, n, most):
    """Each step runs with the first output that needs it, so the P and G of
    a position, made in the pg stage and read in the carry network, hold no
    row while the sums before that read are made: 1666, 1764, 1965 and 514
    rows in id order.  Ripple reads them at once and keeps its 775."""
    assert reference.built(AdderSpec(kind, n))._plan.slots <= most


def _ports(nb):
    return [nb.add_input(name) for name in ("A[1]", "B[1]", "A[2]", "B[2]", "cin")]


def _sums_out_of_order():
    """S[2]'s gates come before S[1]'s by id and cout's before both; cout's
    gate is read by S[1]'s and S[2]'s, and early nodes, one of them a dead
    prefix of S[1]'s wide gate, are read only by the last output."""
    nb = NetlistBuilder(2)
    a1, b1, a2, b2, cin = _ports(nb)
    p = nb.add(XOR, a1, b1)                 # in every output's cone
    late = nb.add(AND, a2, b2)              # read by S[1] only
    nb.add(OR, p, a2, cin)                  # S[1]'s prefix, outside every cone
    carry = nb.add(XOR, p, cin)             # cout
    s2 = nb.add(XOR, carry, nb.add(NOT, a1))
    s1 = nb.add(OR, p, a2, cin, late, nb.add(BITSWAP, carry))
    return nb.finish([a1, a2], [b1, b2], cin, [s1, s2], carry)


def _ports_and_consts_out():
    """S[1] is the port B[2], which cout's gate reads, and S[2] a const."""
    nb = NetlistBuilder(2)
    a1, b1, a2, b2, cin = _ports(nb)
    three = nb.add_const(3)
    x = nb.add(XOR, a1, b2)
    nb.add(OR, a2, b1)                      # dead: no step
    cout = nb.add(BITSWAP, nb.add(AND, x, three, cin))
    return nb.finish([a1, a2], [b1, b2], cin, [b2, three], cout)


def _one_gate_twice():
    """S[2] and cout are one gate, which reads S[1]'s; S[1] reads a node in
    every output's cone."""
    nb = NetlistBuilder(2)
    a1, b1, a2, b2, cin = _ports(nb)
    shared = nb.add(OR, a2, cin)
    s1 = nb.add(XOR, shared, a1, b1)
    top = nb.add(AND, s1, shared, b2)
    return nb.finish([a1, a2], [b1, b2], cin, [s1, top], top)


@pytest.mark.parametrize("make", [_sums_out_of_order, _ports_and_consts_out, _one_gate_twice])
def test_outputs_in_any_id_order_give_the_node_walk_sums(make):
    """Every one of the 1024 inputs of a width-2 netlist whose outputs' cones
    overlap, read one another or hold no gate at all."""
    nl = make()
    cases = np.array(list(itertools.product(range(4), repeat=5)), dtype=np.uint8)
    s, cout = reference.sums(nl, cases[:, [0, 2]], cases[:, [1, 3]], cases[:, 4])
    for k, (x1, y1, x2, y2, c) in enumerate(cases.tolist()):
        values = reference.evaluate_nodes(nl, (x1, x2), (y1, y2), c)
        assert s[k].tolist() == [values[p] for p in nl.s_ports]
        assert cout[k] == values[nl.cout_port]


def test_digit_major_inputs_give_the_same_sums():
    nl = build(AdderSpec("tree", 5))
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, size=(1000, 5), dtype=np.uint8)
    b = rng.integers(0, 4, size=(1000, 5), dtype=np.uint8)
    cin = rng.integers(0, 2, size=1000, dtype=np.uint8)
    s, cout = reference.sums(nl, a, b, cin)
    a_f, b_f = np.asfortranarray(a), np.asfortranarray(b)
    assert a_f.T.flags.c_contiguous and (a_f == a).all()
    s_f, cout_f = reference.sums(nl, a_f, b_f, cin)
    assert (s_f == s).all() and (cout_f == cout).all()


@pytest.mark.parametrize("n, cases", [(8, 1), (9, 63), (17, 130), (64, 65)])
def test_wide_batches_match_scalar_in_either_layout(n, cases):
    """Batches of eight digits and more give the node walk's sums: widths and
    case counts that are not multiples of 8, and column-major inputs."""
    nl = build(AdderSpec("tree", n))
    rng = np.random.default_rng(n)
    a = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(cases, n), dtype=np.uint8)
    cin = rng.integers(0, 4, size=cases, dtype=np.uint8)
    s, cout = reference.sums(nl, a, b, cin)
    assert s.flags.c_contiguous
    s_f, cout_f = reference.sums(nl, np.asfortranarray(a), np.asfortranarray(b), cin)
    assert (s_f == s).all() and (cout_f == cout).all()
    for k in range(cases):
        values = reference.evaluate_nodes(nl, a[k], b[k], cin[k])
        assert s[k].tolist() == [values[p] for p in nl.s_ports]
        assert int(cout[k]) == values[nl.cout_port]


def test_a_batch_of_no_cases_gives_empty_sums():
    nl = build(AdderSpec("tree", 3))
    s, cout = reference.sums(nl, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    assert s.shape == (0, 3) and cout.shape == (0,) and s.dtype == cout.dtype == np.uint8


def _batch_of_20000(n):
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=(20000, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(20000, n), dtype=np.uint8)
    cin = rng.integers(0, 2, size=20000, dtype=np.uint8)
    return a, b, cin


def _peak(nl, a, b, cin, order) -> int:
    """The traced peak of a passing ``add_batch`` against the oracle, the
    digit matrices in C or F order."""
    peak, failing = reference.traced_peak(
        netlist.add_batch, nl, np.asarray(a, order=order), np.asarray(b, order=order), cin,
        verify._oracle_batch)
    assert not failing[2].size
    return peak


def test_tree_256_batch_of_20000_stays_under_48_mib():
    a, b, cin = _batch_of_20000(256)
    for order in "CF":   # a fresh build each, so the plan is compiled inside the trace
        peak = _peak(build(AdderSpec("tree", 256)), a, b, cin, order)
        assert peak <= 48 * 2**20, f"{order}: peak {peak / 2**20:.1f} MiB"


def test_tree_256_batch_of_20000_takes_under_14_mib_beyond_its_plan():
    """With the plan compiled, the batch holds the plane buffer and one
    run's packing temporaries, then the plan's planes and the oracle's:
    never the buffer beside the plan's planes."""
    nl = build(AdderSpec("tree", 256))
    a, b, cin = _batch_of_20000(256)
    nl._plan   # compiles the plan outside the trace
    for order in "CF":
        peak = _peak(nl, a, b, cin, order)
        assert peak <= 14 * 2**20, f"{order}: peak {peak / 2**20:.1f} MiB"
