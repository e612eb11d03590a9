"""The evaluator and the oracle touch a plane only through &, | and ^.

``netlist._run`` and ``verify._oracle_batch`` run on bit planes with three
operators and one all-ones plane, so any plane type that has them can run
through both unchanged (a BDD plane, for a proof over every input).
``Plane`` defines only ``__and__``, ``__or__`` and ``__xor__``: any other
operator, a shift, a negation, a compare, a truth test or a mix with an
int, raises.  Each operation is recorded, and folding the recorded planes
back to ints must give what the same run gives on int planes.
"""

from collections import Counter
from operator import and_, or_, xor

import numpy as np
import pytest
import reference

from quadder import builders, netlist, verify
from quadder.netlist import AND, BITSWAP, INWARD, NOT, OR, OUTWARD, XOR, NetlistBuilder

_FOLD = {"and": and_, "or": or_, "xor": xor}


class Plane:
    """A leaf int, or an operation on two planes, each one counted in ``ops``."""

    __slots__ = ("ops", "op", "args", "leaf")

    def __init__(self, ops: Counter, op=None, args=(), leaf=None):
        self.ops, self.op, self.args, self.leaf = ops, op, args, leaf

    def _record(self, other, op: str):
        if type(other) is not Plane:
            raise TypeError(f"{op} of a plane and a {type(other).__name__}")
        self.ops[op] += 1
        return Plane(self.ops, op, (self, other))

    def __and__(self, other):
        return self._record(other, "and")

    def __or__(self, other):
        return self._record(other, "or")

    def __xor__(self, other):
        return self._record(other, "xor")

    def __eq__(self, other):
        raise TypeError("a plane is not compared")

    def __bool__(self):
        raise TypeError("a plane has no truth value")


def fold(planes) -> list:
    """The ints the recorded planes stand for, by an explicit walk, each
    plane folded once."""
    memo: dict = {}   # id -> int; every plane stays alive through the ones given
    for top in planes:
        stack = [top]
        while stack:
            plane = stack[-1]
            if id(plane) in memo:
                stack.pop()
            elif plane.op is None:
                memo[id(plane)] = plane.leaf
            elif pending := [x for x in plane.args if id(x) not in memo]:
                stack += pending
            else:
                memo[id(plane)] = _FOLD[plane.op](*(memo[id(x)] for x in plane.args))
    return [memo[id(plane)] for plane in planes]


def _inputs(n: int, cases: int = 200):
    """Random input planes of ``cases`` lanes, as ``add_cases``' source gives
    them (the lo planes of A[1..n], B[1..n] and cin, then their hi planes),
    and the all-ones plane."""
    digits = np.random.default_rng(n).integers(0, 4, size=(2 * n + 1, cases), dtype=np.uint8)
    digits[-1] &= 1   # cin
    packed = np.packbits(np.stack((digits & 1, digits >> 1)), axis=2, bitorder="little")
    return [int.from_bytes(p, "little") for p in packed.reshape(2 * (2 * n + 1), -1)], \
        (1 << cases) - 1


def _run(nl, ins: list, ones, fill) -> list:
    """The S and cout planes, lo then hi, of ``_run`` over the plan, the
    slots past the inputs holding ``fill`` until a step writes them."""
    n, plan = nl.width, nl._plan
    pad = [fill] * (plan.slots - 2 * n - 1)
    lo, hi = ins[:2 * n + 1] + pad, ins[2 * n + 1:] + pad
    netlist._run(plan.steps, plan.outs, lo, hi, ones)
    return [*(lo[i] for i in plan.outputs), *(hi[i] for i in plan.outputs)]


def _check(nl) -> tuple[Counter, list, list]:
    """Runs the plan on ints and on recorded planes: the operations recorded,
    and the int run's outputs, which the recorded ones fold back to."""
    ins, ones = _inputs(nl.width)
    ops = Counter()
    planes = [Plane(ops, leaf=x) for x in ins]
    want = _run(nl, ins, ones, 0)
    got = _run(nl, planes, Plane(ops, leaf=ones), None)   # None: no step may read an unset slot
    assert all(type(plane) is Plane for plane in got)
    assert fold(got) == want
    return ops, ins, want


@pytest.mark.parametrize("lowered", [False, True], ids=["as-built", "fanin2"])
@pytest.mark.parametrize("kind", builders.KINDS)
def test_run_and_oracle_use_only_and_or_xor_on_planes(kind, lowered):
    nl = reference.built(builders.AdderSpec(kind, 4))
    nl = netlist.lower_fanin2(nl) if lowered else nl
    ops, ins, want = _check(nl)
    assert set(ops) == {"and", "or", "xor"}
    oracle_ops = Counter()
    expected = verify._oracle_batch([Plane(oracle_ops, leaf=x) for x in ins])
    assert set(oracle_ops) == {"and", "or", "xor"}
    assert fold(expected) == verify._oracle_batch(ins) == want   # a correct adder


def _every_step():
    """Width 1: a gate of each unary kind, a const of each value, and And,
    Or and Xor gates of fan-in 2, 3 and 8."""
    nb = NetlistBuilder(1)
    a, b, cin = nb.add_input("A[1]"), nb.add_input("B[1]"), nb.add_input("cin")
    unary = [nb.add(kind, x) for kind, x in zip((NOT, INWARD, OUTWARD, BITSWAP), (a, b, cin, a))]
    consts = [nb.add_const(value) for value in range(4)]
    s = nb.add(XOR, *unary, *consts)
    cout = nb.add(OR, nb.add(AND, consts[3], consts[1], a), nb.add(XOR, b, cin))
    return nb.finish([a], [b], cin, [s], cout)


def test_every_step_kind_runs_on_planes():
    nl = _every_step()
    assert {kind for kind, *_ in nl._plan.steps} == {*netlist.UNARY_KINDS, *netlist.MULTI_KINDS,
                                                       "const"}
    ops, _, _ = _check(nl)
    assert set(ops) == {"and", "or", "xor"}


def test_a_plane_refuses_every_other_operation():
    ops = Counter()
    x, y = Plane(ops, leaf=1), Plane(ops, leaf=2)
    for operation in (lambda: x << 1, lambda: x >> 1, lambda: -x, lambda: ~x, lambda: x + y,
                      lambda: x & 1, lambda: 1 ^ x, lambda: x == y, lambda: bool(x)):
        with pytest.raises(TypeError):
            operation()
    assert not ops
