"""Gate-level netlists of unbounded-fan-in quaternary gates.

A netlist is an acyclic DAG with dense node ids; every edge points from a
smaller id to a larger one, so the id order is a topological order and
acyclicity holds by construction.  Evaluation is a single forward pass,
timing uses a unit-delay model (every gate costs 1, wires cost 0).
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import and_, index, itemgetter, or_, xor
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import orjson

# gate kind tags (serialized verbatim)
AND = "and"
OR = "or"
XOR = "xor"
NOT = "not"
INWARD = "inward"
OUTWARD = "outward"
BITSWAP = "bitswap"
CONST = "const"
INPUT = "input"

# Every gate kind once: its (least, most) inputs, then for And/Or/Xor the bitwise
# operator on ints, and for a unary kind how its output's hi and lo plane are each
# made from one input plane, as (source plane, inverted), for one case and a batch.
_LO, _HI = 0, 1   # a qudit's bit planes, value = 2 * hi + lo, in the order a source gives them
_KINDS = {
    AND: ((2, sys.maxsize), and_),
    OR: ((2, sys.maxsize), or_),
    XOR: ((2, sys.maxsize), xor),
    NOT: ((1, 1), ((_HI, True), (_LO, True))),         # 3 - a
    INWARD: ((1, 1), ((_HI, True), (_HI, False))),     # 0, 1 -> 2 and 2, 3 -> 1
    OUTWARD: ((1, 1), ((_HI, True), (_HI, True))),     # 0, 1 -> 3 and 2, 3 -> 0
    BITSWAP: ((1, 1), ((_LO, False), (_HI, False))),   # 1 <-> 2
    CONST: ((0, 0), ()),
    INPUT: ((0, 0), ()),
}
_FAN_IN = {kind: fan_in for kind, (fan_in, _) in _KINDS.items()}
_OPS = {kind: op for kind, ((_, most), op) in _KINDS.items() if most > 1}
_RULES = {kind: rule for kind, ((_, most), rule) in _KINDS.items() if most == 1}
MULTI_KINDS, UNARY_KINDS = frozenset(_OPS), frozenset(_RULES)
LEAF_KINDS = frozenset(_KINDS.keys() - MULTI_KINDS - UNARY_KINDS)

DOC_VERSION = 1
_DOC_FIELDS = frozenset({"version", "kind", "width", "params", "nodes", "ports", "signals", "meta"})
_PORT_FIELDS = frozenset({"A", "B", "cin", "S", "cout"})
_RECORD_FIELDS = frozenset({"id", "kind", "inputs", "value", "name"})

PLANE_BUDGET = 2**25   # bytes of plane slots per add_cases run, 16 a slot per 64 cases
RUN_LANES = 2**15      # cases per add_cases run at most, a whole number of 64-lane words
NODE_RUN_LANES = RUN_LANES // 8   # cases of a check run on the nodes' own plan, at most


@contextmanager
def collector_paused():
    """Run a block with the cyclic garbage collector paused, and turn it back
    on afterwards, on every exit, only if it was on.  For work whose objects
    are in no reference cycle: refcounting frees them, and a collector pass
    would only walk them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DocumentError(ValueError):
    """Raised when a netlist document cannot be imported.

    ``reason`` is one of: malformed, version, acyclicity, dangling.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(f"{reason}: {message}")


class Node(NamedTuple):
    """One node; its id is its position in ``Netlist.nodes``."""

    kind: str
    inputs: tuple[int, ...] = ()
    value: int | None = None  # const nodes
    name: str | None = None   # input nodes


@dataclass(frozen=True)
class Netlist:
    width: int
    nodes: tuple[Node, ...]
    a_ports: tuple[int, ...]
    b_ports: tuple[int, ...]
    cin_port: int
    s_ports: tuple[int, ...]
    cout_port: int
    signals: dict = field(default_factory=dict)   # name -> node id
    meta: dict = field(default_factory=dict)      # kind, params, groups, ...
    _holders: dict = field(init=False, repr=False, compare=False)   # reader id -> holder id
    _steps: Sequence = field(init=False, repr=False, compare=False)   # _run steps by node id

    def __post_init__(self):
        holders, steps = _validate(self)
        object.__setattr__(self, "_holders", holders)
        object.__setattr__(self, "_steps", steps)

    def output_map(self) -> dict:
        out = {f"S[{i + 1}]": nid for i, nid in enumerate(self.s_ports)}
        out["cout"] = self.cout_port
        return out

    def gate_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind not in LEAF_KINDS]

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(self.nodes, self._steps, self._holders)

    @cached_property
    def _node_plan(self) -> _Plan:
        n = len(self.nodes)
        return _Plan(self._steps, range(n), n, (*self.a_ports, *self.b_ports, self.cin_port),
                     (*self.s_ports, self.cout_port))

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan.compile(self._node_plan)


class NetlistBuilder:
    """Append-only constructor with structural hashing: a node equal to an
    earlier one (kind, inputs, value and name) gets the earlier node's id, and
    ``add(..., group=g)`` lists only a new node's id in ``groups[g]``.  It does
    not check nodes: every netlist checks itself when it is made, so misuse is
    a DocumentError at ``finish``, as at document import.
    """

    def __init__(self, width: int):
        self.width = width
        self.nodes: list[Node] = []
        self.groups: dict[str, list[int]] = {}
        self._memo: dict = {}   # node -> id

    def _intern(self, node: Node, group: str | None = None) -> int:
        new = len(self.nodes)
        try:
            nid = self._memo.setdefault(node, new)
        except TypeError:   # an unhashable field: not interned, and finish rejects it
            nid = new
        if nid == new:
            self.nodes.append(node)
            if group is not None:
                try:
                    self.groups[group].append(nid)
                except KeyError:   # the group's first gate
                    self.groups[group] = [nid]
        return nid

    def add_input(self, name: str) -> int:
        return self._intern(Node(INPUT, (), None, name))

    def add_const(self, value: int) -> int:
        return self._intern(Node(CONST, (), value, None))

    def add(self, kind: str, *inputs: int, group: str | None = None) -> int:
        return self._intern(tuple.__new__(Node, (kind, inputs, None, None)), group)

    def finish(
        self,
        a_ports: Sequence[int],
        b_ports: Sequence[int],
        cin_port: int,
        s_ports: Sequence[int],
        cout_port: int,
        signals: Mapping[str, int] | None = None,
        meta: Mapping | None = None,
    ) -> Netlist:
        return Netlist(
            width=self.width,
            nodes=tuple(self.nodes),
            a_ports=tuple(a_ports),
            b_ports=tuple(b_ports),
            cin_port=cin_port,
            s_ports=tuple(s_ports),
            cout_port=cout_port,
            signals=dict(signals or {}),
            meta=dict(meta or {}),
        )


def _validate(nl: Netlist) -> tuple[dict, Sequence]:
    """One pass over the nodes plus the port, signal and group references.

    The only structural check, run once for every netlist, when it is made
    (by ``finish``, import, ``dataclasses.replace`` or directly).  Each
    kind's fan-in is within its ``_FAN_IN`` range, ids are exact ints (a bool
    is not an id), const values are qudits, and the input nodes are exactly
    the A, B and cin ports, which evaluation binds by id.  Only const
    nodes carry a ``value`` and only input nodes a ``name``.  Signal and
    group names are strs, the only keys a document can give back.

    The walk also applies the prefix rule to each wide gate (fan-in 3 or more)
    that has passed every check: a gate's holder is the latest earlier wide
    gate of its kind with the same first input, if that gate's inputs are a
    strict prefix of its own.  Returns the table {reader id: holder id} and
    the nodes as ``_run`` steps, each reader's reading ``(holder, *rest)``
    (the ``nodes`` tuple itself when there is no reader).
    """
    if type(nl.width) is not int or nl.width < 1:
        raise DocumentError("malformed", f"width {nl.width!r} is not a positive integer")
    n = len(nl.nodes)
    n_inputs = 0
    holders, steps = {}, list(nl.nodes)
    latest = {kind: {} for kind in MULTI_KINDS}   # kind -> first input -> latest wide gate
    for nid, (kind, ins, value, name) in enumerate(nl.nodes):
        fan_in = _FAN_IN.get(kind) if type(kind) is str else None
        if fan_in is None:
            raise DocumentError("malformed", f"unknown kind {kind!r}")
        k = len(ins)
        if not fan_in[0] <= k <= fan_in[1]:
            _reject_fan_in(nid, kind, k)
        for i in ins:
            if type(i) is not int or not 0 <= i < nid:
                _reject_input(nid, i, n)
        if kind == CONST:
            if type(value) is not int or not 0 <= value <= 3:
                raise DocumentError("malformed", f"const node {nid} has value {value!r}")
        elif value is not None:
            raise DocumentError("malformed", f"{kind} node {nid} has a value")
        if kind == INPUT:
            n_inputs += 1
        elif name is not None:
            raise DocumentError("malformed", f"{kind} node {nid} has a name")
        if k > 2:   # the prefix rule; a gate with no earlier one is its own, not strict, prefix
            head, latest[kind][ins[0]] = latest[kind].get(ins[0], nid), nid
            if k > 3:   # a reader has more inputs than its wide holder
                prefix = nl.nodes[head][1]
                if len(prefix) < k and ins[:len(prefix)] == prefix:
                    holders[nid] = head
                    steps[nid] = (kind, (head, *ins[len(prefix):]), value, name)
    if len(nl.a_ports) != nl.width or len(nl.b_ports) != nl.width or len(nl.s_ports) != nl.width:
        raise DocumentError("malformed", "port vector width mismatch")
    port_names = [*(f"A[{i}]" for i in range(1, nl.width + 1)),
                  *(f"B[{i}]" for i in range(1, nl.width + 1)), "cin"]
    ports = [*nl.a_ports, *nl.b_ports, nl.cin_port]
    _check_ids(ports, n, "input port")
    for pid, name in zip(ports, port_names):
        node = nl.nodes[pid]
        if node.kind != INPUT:
            raise DocumentError("malformed", f"input port id {pid} is not an input node")
        if node.name != name:
            raise DocumentError("malformed", f"port {name} is input node {pid} named {node.name!r}")
    # The port names are distinct, so the ports are distinct input nodes.
    if n_inputs != len(ports):
        extra = sorted({i for i, node in enumerate(nl.nodes) if node.kind == INPUT} - set(ports))
        raise DocumentError("malformed", f"input nodes {extra} are not ports")
    _check_ids([*nl.s_ports, nl.cout_port, *nl.signals.values()], n, "referenced")
    groups = nl.meta.get("groups", {})
    if not isinstance(groups, dict):
        raise DocumentError("malformed", "meta.groups is not an object")
    for name in chain(nl.signals, groups):
        if type(name) is not str:
            raise DocumentError("malformed", f"signal or group name {name!r} is not a string")
    for group, ids in groups.items():
        if not isinstance(ids, (list, tuple)):
            raise DocumentError("malformed", f"group {group!r} is not a list of ids")
        _check_ids(ids, n, f"group {group!r}")
    return holders, steps if holders else nl.nodes


def _reject_fan_in(nid: int, kind: str, got: int) -> None:
    least, most = _FAN_IN[kind]
    want = str(least) if least == most else f">= {least}"
    raise DocumentError("malformed", f"{kind} node {nid} needs fan-in {want}, got {got}")


def _reject_input(nid: int, i, n: int) -> None:
    if type(i) is not int:
        raise DocumentError("malformed", f"node {nid} reads non-integer id {i!r}")
    if nid <= i < n:
        raise DocumentError("acyclicity", f"node {nid} reads id {i} >= its own id")
    raise DocumentError("dangling", f"node {nid} reads id {i}")


def _check_ids(ids, n: int, what: str) -> None:
    for pid in ids:
        if type(pid) is not int:
            raise DocumentError("malformed", f"{what} id {pid!r} is not an integer")
        if not 0 <= pid < n:
            raise DocumentError("dangling", f"{what} id {pid} out of range")


# --- evaluation ---


def _check_qudit(digit) -> int:
    try:
        value = -1 if type(digit) is bool else index(digit)   # index(True) would be 1
    except TypeError:   # no __index__, or an array that is not one integer
        value = -1
    if not 0 <= value <= 3:
        raise ValueError(f"not a qudit: {digit!r}")
    return value


def _check_word(word, width: int) -> tuple[int, ...]:
    if not isinstance(word, Iterable):
        raise ValueError(f"not a word: {word!r}")
    digits = tuple(map(_check_qudit, word))
    if not digits:
        raise ValueError("empty word")
    if len(digits) != width:
        raise ValueError(f"expected width {width}, got {len(digits)}")
    return digits


# Evaluation runs on bit planes held as Python ints: a slot holds its qudits,
# 2 * hi + lo, as two planes ``lo[slot]`` and ``hi[slot]``, bit j of each being lane
# (case) j.  ``ones`` is the plane of every lane, so at one lane a plane is a bit.


def _run(steps, outs, lo: list, hi: list, ones) -> None:
    """The one step loop over the planes ``lo`` and ``hi``, by &, | and ^
    alone: each step (kind, input slots, const value, _), a Node's shape,
    computes its two planes into its slot of ``outs``.  And, Or and Xor apply
    per plane, a unary kind XORs ``ones`` into the ``_RULES`` source planes
    it inverts, and a const is ``ones`` or ``ones ^ ones`` per plane.  A step
    with no inputs and no value (an input) leaves its planes."""
    planes = (lo, hi)   # by _LO and _HI
    for (kind, ins, value, _), out in zip(steps, outs):
        fan_in = len(ins)
        if fan_in == 2:
            x, y = ins
            op = _OPS[kind]
            lo[out], hi[out] = op(lo[x], lo[y]), op(hi[x], hi[y])
        elif fan_in == 1:
            (h_src, h_inv), (l_src, l_inv) = _RULES[kind]
            h, l = planes[h_src][ins[0]], planes[l_src][ins[0]]
            hi[out], lo[out] = h ^ ones if h_inv else h, l ^ ones if l_inv else l
        elif fan_in == 3:   # most wide steps; cheaper than a reduce
            x, y, z = ins
            op = _OPS[kind]
            lo[out], hi[out] = op(op(lo[x], lo[y]), lo[z]), op(op(hi[x], hi[y]), hi[z])
        elif fan_in:
            lo[out] = reduce(_OPS[kind], map(lo.__getitem__, ins))
            hi[out] = reduce(_OPS[kind], map(hi.__getitem__, ins))
        elif value is not None:   # const
            zero = ones ^ ones
            hi[out], lo[out] = ones if value >> 1 else zero, ones if value & 1 else zero


def evaluate_words(nl: Netlist, a, b, cin: int = 0) -> tuple[tuple[int, ...], int]:
    """Evaluate with digit words (index 0 = least significant): one lane of
    ``_run_plan`` over the nodes' own plan, as a small ``add_cases`` check
    runs it, compiling nothing.  Only a, b and cin, bound to the A, B and
    cin ports by port id, are checked: const values are checked when a
    netlist is made, and every gate maps qudits to qudits."""
    digits = (*_check_word(a, nl.width), *_check_word(b, nl.width), _check_qudit(cin))
    planes = _run_plan(nl._node_plan, [d & 1 for d in digits], [d >> 1 for d in digits], 1)
    out = [2 * h + l for l, h in zip(planes, planes[nl.width + 1:])]   # S[1..n], cout
    return tuple(out[:-1]), out[-1]


def _run_plan(plan: _Plan, lo_ins, hi_ins, ones) -> list:
    """One ``_run`` of a plan, the lo and hi planes of A[1..n], B[1..n] and
    cin bound to its port slots: the S[1..n] and cout planes, lo then hi."""
    lo, hi = [0] * plan.slots, [0] * plan.slots
    for slot, l, h in zip(plan.ports, lo_ins, hi_ins):
        lo[slot], hi[slot] = l, h
    _run(plan.steps, plan.outs, lo, hi, ones)
    return [*map(lo.__getitem__, plan.outputs), *map(hi.__getitem__, plan.outputs)]


class _Plan(NamedTuple):
    """Steps for ``_run`` over a batch, each (kind, input slots, const
    value, _), a Node's shape, with the slot each computes its node into,
    and the slots ``_run_plan`` binds A[1..n], B[1..n] and cin to and reads
    S[1..n] and cout from.  A reader of a prefix holder (``_validate``)
    reads the holder's slot in place of the holder's inputs.

    A netlist has two.  Its nodes' own plan (``Netlist._node_plan``) is its
    ``_steps`` with each node id its own slot.  The compiled plan
    (``Netlist._plan``), made from it by the first ``add_cases`` check too
    large for it, binds the ports to slots 0..2n and gives a step only to
    the cone of S and cout and the holders its steps read.  Its steps run in
    the order of the first output (S[j] or cout, taken by node id) whose
    cone, through those reads, holds their node, then by node id: each node
    runs just before the first output that needs it, so a value made early
    for a late output (a P or G read only by the carry network) does not
    hold a slot while the outputs before it are made.  A slot is reused once
    the last step reading it has run, but for the input and output slots.
    """

    steps: Sequence
    outs: Sequence
    slots: int
    ports: Sequence    # the slots of A[1..n], B[1..n] and cin
    outputs: Sequence  # the slots of S[1..n], then cout

    @classmethod
    def compile(cls, nodes: _Plan) -> _Plan:
        n, ports, outputs = nodes.slots, nodes.ports, nodes.outputs
        reads = [step[1] for step in nodes.steps]   # the ids each node's step reads
        first = [n] * n          # id of the first output whose cone holds each node; n: none
        for nid in outputs:
            first[nid] = nid
        for nid, ins in zip(range(n - 1, -1, -1), reversed(reads)):
            key = first[nid]
            if key < n:
                for i in ins:
                    if key < first[i]:
                        first[i] = key
        slot = [-1] * n
        get = slot.__getitem__
        for k, pid in enumerate(ports):
            slot[pid] = k
            first[pid] = n       # bound to a slot, not computed
        order = sorted(range(n), key=first.__getitem__)[:n - first.count(n)]   # then by id: stable
        size = len(ports)
        for nid in outputs:      # held from its step to the end of a run
            if slot[nid] < 0:
                slot[nid] = size
                size += 1
        free = []
        steps, outs = [], []
        for nid in reversed(order):   # slots are handed out backward, each at its node's last read
            kind, _, value, _ = nodes.steps[nid]
            ins = reads[nid]
            for i in ins:
                if slot[i] < 0:   # taken while this step's slot is held: it aliases no input
                    slot[i] = free.pop() if free else size
                    if slot[i] == size:
                        size += 1
            outs.append(slot[nid])
            free.append(slot[nid])   # free before this step runs
            if len(ins) == 2:   # most steps; a tuple display is cheaper than a map
                x, y = ins
                steps.append((kind, (slot[x], slot[y]), value, None))
            elif len(ins) == 1:
                steps.append((kind, (slot[ins[0]],), value, None))
            else:
                steps.append((kind, tuple(map(get, ins)), value, None))
        return cls(tuple(reversed(steps)), tuple(reversed(outs)), size, range(len(ports)),
                   tuple(map(get, outputs)))


def add_batch(nl: Netlist, a_digits: np.ndarray, b_digits: np.ndarray, cin: np.ndarray, oracle):
    """``add_cases`` of a batch given as digits: ``check_exhaustive``'s packer.
    The caller makes the digits, ``uint8`` qudits: matrices (cases, width) in
    either memory layout, digit-major being the fast one, and cin (cases,).
    Each run's lo and then hi bits of them are packed along the case axis, 8
    cases to a byte, into its input planes.  Returns ``add_cases``' failing
    cases."""
    n = nl.width
    parts = ((0, a_digits), (n, b_digits), (2 * n, cin[:, None]))   # (first slot, digits)

    def planes(start: int, stop: int) -> list:
        size = stop - start
        buf = np.empty((2, 2 * n + 1, -(-size // 64)), dtype=np.uint64)   # lo, hi
        buf[..., -1:] = 0   # the only word with lanes that no case fills
        for slot, digits in parts:
            digits = digits[start:stop]
            packed = buf[:, slot:slot + digits.shape[1]].view(np.uint8)[..., :-(-size // 8)]
            packed[0] = np.packbits(digits & 1, axis=0, bitorder="little").T
            packed[1] = np.packbits(digits & 2, axis=0, bitorder="little").T
        return [int.from_bytes(plane, "little") for plane in buf.reshape(2 * (2 * n + 1), -1)]
    return add_cases(nl, len(cin), planes, oracle)


def add_cases(nl: Netlist, cases: int, source, oracle):
    """Batch addition of ``cases`` cases checked against an oracle, by
    ``_run_plan`` in runs of whole 64-lane words, at most RUN_LANES cases
    and 16 bytes a slot per 64 cases within PLANE_BUDGET each.  At most
    NODE_RUN_LANES cases whose nodes' plane pairs fit in PLANE_BUDGET // 8
    bytes are one run of the nodes' own plan, compiling nothing: to 4096
    lanes slot reuse saves less than the compile costs, and past it the
    nodes' plan falls ever further behind (``tests/data/plan_crossover.py``).
    Other checks run over the compiled plan.  ``source(start, stop)`` gives
    cases start..stop-1, start a multiple of 64, as the lo planes of
    A[1..n], B[1..n] and cin, then their hi planes: ints over the run's
    lanes (stop - start rounded up to a multiple of 64), bit j being case
    start + j.  The lanes past the last case may hold any digits (a cin 0
    or 1).

    ``oracle(ins)`` gets each run's input planes and returns the planes
    S[1..n] and cout should hold, lo then hi; only the lanes where they
    differ are read back.  Returns the failing cases' a, b, cin, expected
    and actual digits, in case order; an S or cout digit that no case of its
    run gets wrong is not read and reads 0 in both.
    """
    n = nl.width
    plan = nl._node_plan
    if cases > NODE_RUN_LANES or 16 * -(-cases // 64) * len(nl.nodes) > PLANE_BUDGET // 8:
        plan = nl._plan
    step = min(RUN_LANES, 64 * (PLANE_BUDGET // (16 * plan.slots)))
    if not step:
        raise ValueError(f"the plan's {plan.slots} plane slots take {16 * plan.slots} bytes per "
                         f"64 cases, over the plane budget PLANE_BUDGET = {PLANE_BUDGET} bytes")
    runs = [np.empty((0, 4 * n + 3), dtype=np.uint8)]   # the failing cases' digits, a run each
    for start in range(0, max(cases, 1), step):
        stop = min(start + step, cases)
        lanes = (stop - start + 63) // 64 * 64
        ins = source(start, stop)
        got = _run_plan(plan, ins[:2 * n + 1], ins[2 * n + 1:], (1 << lanes) - 1)
        want = oracle(ins)
        if want != got:   # equal planes: every lane passes, the ones past the last case too
            wrong = reduce(or_, map(xor, want, got)).to_bytes(lanes // 8, "little")
            bits = np.unpackbits(np.frombuffer(wrong, np.uint8), bitorder="little")
            bad = np.flatnonzero(bits[:stop - start])
            # each digit as its (lo, hi) plane pair
            ins, want, got = ([*zip(x[:len(x) // 2], x[len(x) // 2:])] for x in (ins, want, got))
            differ = [j for j, (w, g) in enumerate(zip(want, got)) if w != g]   # S[j + 1], cout
            read = [*ins, *(want[j] for j in differ), *(got[j] for j in differ)]
            taken = np.empty((bad.size, len(read)), dtype=np.uint8)
            used, where = np.unique(bad >> 3, return_inverse=True)   # the bytes that hold them
            _digits(read, lanes, taken, used, 8 * where + (bad & 7))
            runs.append(np.zeros((bad.size, 4 * n + 3), dtype=np.uint8))
            runs[-1][:, [*range(2 * n + 1), *(2 * n + 1 + j for j in differ),
                         *(3 * n + 2 + j for j in differ)]] = taken
    a, b, cin, want, got = np.split(np.concatenate(runs), (n, 2 * n, 2 * n + 1, 3 * n + 2), axis=1)
    return a, b, cin[:, 0], want, got


def _digits(pairs: list, lanes: int, out: np.ndarray, used: np.ndarray, take: np.ndarray) -> None:
    """The digits 2 * hi + lo of (lo, hi) plane pairs into ``out`` (lanes
    taken, len(pairs)), 32 pairs at a time: ``to_bytes``, then
    ``np.unpackbits`` of their bytes ``used`` and a take of the lanes
    ``take`` of those bits."""
    for r in range(0, len(pairs), 32):
        part = [p for pair in pairs[r:r + 32] for p in pair]
        data = np.frombuffer(b"".join(p.to_bytes(lanes // 8, "little") for p in part), np.uint8)
        planes = data.reshape(-1, 2, lanes // 8)[..., used]
        bits = np.unpackbits(planes, axis=2, bitorder="little")[..., take]
        out[:, r:r + 32] = (bits[:, _HI] << 1 | bits[:, _LO]).T


# --- timing and cost ---


@dataclass(frozen=True)
class CostReport:
    gate_count: int
    input_count: int
    depth: int
    max_fan_in: int
    per_signal_depth: dict
    mask_counting: str   # "included" | "excluded"
    signal_scope: str    # "carry-network" | "full-adder"


class _Analysis:
    """Everything measurement needs from one netlist, from one forward pass.

    Per node: the fan-in it contributes to the input count under each mask
    convention (0 for inputs and constants, and for And(x, Const 1) mask
    gates when masks are excluded), and its unit-delay depth under each
    convention (an excluded mask sits at its data input's depth).  Both are
    (included, excluded) pairs, indexed by ``mask_counting == "excluded"``.
    A wide gate with a holder in ``holders`` (``Netlist._holders``) is read
    through it, as its step in ``steps`` (``Netlist._steps``) reads it: its
    depth is the larger of the holder's and one more than its remaining
    inputs', and its cone step reads its remaining inputs and ``n + holder``
    (n nodes), which stands for the holder's own reads and is never in a
    cone.  Cones are memoized per signal-id set.  Netlists are
    immutable, so each one computes its analysis on first use and keeps it.
    """

    __slots__ = ("reads", "_hidden", "fan_in", "depths", "_cones")

    def __init__(self, nodes: tuple[Node, ...], steps: Sequence, holders: Mapping[int, int]):
        n = len(nodes)
        inc, exc = [0] * n, [0] * n
        reads = [node[1] for node in nodes]
        fan_inc = list(map(len, reads))   # before a holder rewrites its reader's reads
        fan_exc = fan_inc.copy()
        hidden = []   # n + holder, for each holder
        ones = set()   # ids of Const 1 nodes
        for i, (kind, ins, value, _) in enumerate(nodes):
            k = len(ins)
            if k == 2:
                x, y = ins
                dx, dy = inc[x], inc[y]
                inc[i] = 1 + (dx if dx > dy else dy)
                if kind == AND and (x in ones or y in ones):
                    exc[i] = exc[y if x in ones else x]
                    fan_exc[i] = 0
                else:
                    dx, dy = exc[x], exc[y]
                    exc[i] = 1 + (dx if dx > dy else dy)
            elif k == 1:
                inc[i] = inc[ins[0]] + 1
                exc[i] = exc[ins[0]] + 1
            elif k == 3:   # a holder is a wide strict prefix, so none here
                x, y, z = ins
                inc[i] = 1 + max(inc[x], inc[y], inc[z])
                exc[i] = 1 + max(exc[x], exc[y], exc[z])
            elif k:
                h = holders.get(i, -1)
                if h < 0:
                    get = itemgetter(*ins)
                    inc[i] = 1 + max(get(inc))
                    exc[i] = 1 + max(get(exc))
                else:   # a mask is never wide, so the holder's depth is 1 + its inputs'
                    rest = steps[i][1][1:]
                    reads[i] = (*rest, n + h)
                    hidden.append(n + h)
                    di, de = inc[h] - 1, exc[h] - 1   # the deepest input, each convention
                    for r in rest:
                        if inc[r] > di:
                            di = inc[r]
                        if exc[r] > de:
                            de = exc[r]
                    inc[i], exc[i] = 1 + di, 1 + de
            elif kind == CONST and value == 1:
                ones.add(i)
        self.reads = reads + reads if hidden else reads   # reads[n + h] is reads[h]
        self._hidden = frozenset(hidden)
        self.fan_in = (fan_inc, fan_exc)
        self.depths = (inc, exc)
        self._cones: dict = {}

    def cone(self, node_ids: Iterable[int]) -> frozenset:
        """Memoized per id set; a level-by-level walk towards the inputs."""
        key = frozenset(node_ids)
        hit = self._cones.get(key)
        if hit is None:
            seen = set(key)
            frontier = seen
            while frontier:
                frontier = set(chain.from_iterable(map(self.reads.__getitem__, frontier)))
                frontier -= seen
                seen |= frontier
            seen -= self._hidden
            hit = self._cones[key] = frozenset(seen)
        return hit


def _excluded(mask_counting: str) -> bool:
    """Whether a mask convention leaves the masks out; rejects an unknown one."""
    if mask_counting not in ("included", "excluded"):
        raise ValueError(f"bad mask_counting: {mask_counting!r}")
    return mask_counting == "excluded"


def _counted(fan_in: list, ids: Iterable[int]) -> list:
    """Fan-ins of the ids that count as gates (repeats count again)."""
    return [f for f in map(fan_in.__getitem__, ids) if f]


def node_depths(nl: Netlist, mask_counting: str = "included") -> list[int]:
    """Unit-delay depth per node; inputs and constants sit at depth 0.

    With mask_counting="excluded", And(x, Const 1) gates are transparent:
    their depth equals x's depth.
    """
    return list(nl._analysis.depths[_excluded(mask_counting)])


def _node_id(nl: Netlist, nid, what: str) -> int:
    if type(nid) is not int or not 0 <= nid < len(nl.nodes):
        raise ValueError(f"{what} {nid!r} is not a node id of this netlist")
    return nid


def _resolve_signals(nl: Netlist, signals) -> dict:
    if signals is None:
        return nl.output_map()
    if isinstance(signals, Mapping):
        return {name: _node_id(nl, nid, f"signal {name!r}: id") for name, nid in signals.items()}
    if isinstance(signals, str):
        raise ValueError(f"signals is the string {signals!r}, not a list of names")
    space = {**nl.output_map(), **nl.signals}
    resolved = {}
    for name in signals:
        if name not in space:
            raise ValueError(f"unknown signal name: {name!r}")
        resolved[name] = space[name]
    return resolved


def cone(nl: Netlist, node_ids: Iterable[int]) -> set:
    """Set of node ids that can influence any of the given nodes."""
    return set(nl._analysis.cone([_node_id(nl, nid, "id") for nid in node_ids]))


def signal_depths(nl: Netlist, signals, mask_counting: str) -> dict:
    """Unit-delay depth per signal, read from the cached depth table; no cone
    is walked.  ``signals`` and ``mask_counting`` are read as by ``measure``,
    whose ``per_signal_depth`` this is."""
    depths = nl._analysis.depths[_excluded(mask_counting)]
    return {name: depths[nid] for name, nid in _resolve_signals(nl, signals).items()}


def measure(
    nl: Netlist,
    signals=None,
    mask_counting: str = "included",
) -> CostReport:
    """Unit-delay cost report over the cone of influence of the signals.

    ``signals`` is a mapping name -> node id, an iterable of signal/port
    names, or None for all output ports.  With mask_counting="excluded",
    And(x, Const 1) gates are skipped in the gate and input counts and are
    transparent for depth.
    """
    resolved = _resolve_signals(nl, signals)
    per_signal = signal_depths(nl, resolved, mask_counting)
    facts = nl._analysis
    fans = _counted(facts.fan_in[_excluded(mask_counting)], facts.cone(resolved.values()))
    return CostReport(
        gate_count=len(fans),
        input_count=sum(fans),
        depth=max(per_signal.values(), default=0),
        max_fan_in=max(fans, default=0),
        per_signal_depth=per_signal,
        mask_counting=mask_counting,
        signal_scope="full-adder" if signals is None else "carry-network",
    )


def count_group(nl: Netlist, group: str, mask_counting: str = "included") -> tuple[int, int]:
    """(gate count, input count) over one of the builder-recorded groups."""
    ids = nl.meta.get("groups", {}).get(group)
    if ids is None:
        raise ValueError(f"netlist has no group {group!r}")
    fans = _counted(nl._analysis.fan_in[_excluded(mask_counting)], ids)
    return len(fans), sum(fans)


# --- serialization ---


def to_json(nl: Netlist) -> str:
    """The netlist as a version-1 document: exactly ``json.dumps(doc, indent=2) + "\\n"``.

    orjson writes the document when that gives the same bytes: when its free-form values are
    plain (``_plain``), orjson raises no ``TypeError`` (an int outside 64 bits, a key that is
    not a str, a lone surrogate) and its output is ASCII without DEL, which ``json.dumps``
    escapes.  Otherwise ``json.dumps`` writes it.  Node inputs and port vectors are written
    as the tuples or lists they are.
    """
    nodes = []
    for nid, (kind, ins, value, name) in enumerate(nl.nodes):
        record = {"id": nid, "kind": kind, "inputs": ins}
        if value is not None:
            record["value"] = value
        if name is not None:
            record["name"] = name
        nodes.append(record)
    doc = {
        "version": DOC_VERSION,
        "kind": nl.meta.get("kind", "custom"),
        "width": nl.width,
        "params": nl.meta.get("params", {}),
        "nodes": nodes,
        "ports": dict(A=nl.a_ports, B=nl.b_ports, cin=nl.cin_port, S=nl.s_ports, cout=nl.cout_port),
        "signals": dict(nl.signals),
        "meta": {k: v for k, v in nl.meta.items() if k not in ("kind", "params")},
    }
    if _plain(nl.meta):
        with suppress(TypeError):   # orjson refuses the document: json.dumps writes it
            out = orjson.dumps(doc, option=orjson.OPT_INDENT_2)
            if out.isascii() and b"\x7f" not in out:
                return out.decode() + "\n"
    return json.dumps(doc, indent=2) + "\n"


def _reject_unknown(obj: dict, known: frozenset, where: str) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise DocumentError("malformed", f"unknown field {min(unknown)!r} in {where}")


# orjson recurses once per nesting level, about 60 B of C stack each, with no depth limit.
# A text's count of "[" plus "{" bounds its nesting, so at most this many need about 2 MiB
# of stack (a 3 MiB thread reads them, the main thread has 8); a text with more goes to
# json.loads, which stops at the recursion limit.
_ORJSON_BRACKETS = 2**15
# Free-form values nested deeper go to json.loads, and are written by json.dumps: their
# limit is the recursion limit less the caller's frames (about 995 levels from a shallow
# caller), so the two codecs agree for any caller with this many frames of the limit to spare.
_FREE_DEPTH = 100


def from_json(text: str | bytes) -> Netlist:
    """The netlist of a version-1 document, or ``DocumentError(reason)`` if it cannot be imported.

    ``text`` is a str, or bytes in any encoding ``json.loads`` detects.  The outcome is
    always the one a ``json.loads`` parse gives: the same netlist, or the same DocumentError
    and message.  orjson parses a str, bytes or bytearray with at most ``_ORJSON_BRACKETS``
    brackets first; ``json.loads`` parses the text again when orjson refuses it, when the
    netlist made from orjson's parse is rejected, and when a free-form value may have been
    read otherwise (``_plain``).  Anything else goes to ``json.loads`` alone.
    """
    with collector_paused():   # the parse tree is acyclic and dies here: a pass would only walk it
        if _few_brackets(text):
            try:
                nl = _from_doc(orjson.loads(text))
            except (ValueError, RecursionError):   # refused or rejected: json.loads says why
                pass
            else:
                if _plain(nl.meta):
                    return nl
        return _parse(text)


def _few_brackets(text) -> bool:
    """Whether text is a str, bytes or bytearray with at most ``_ORJSON_BRACKETS`` of "[" and
    "{", counted in place: a copy would cost as much memory as the text."""
    if type(text) is str:
        return text.count("[") + text.count("{") <= _ORJSON_BRACKETS
    if type(text) is bytes or type(text) is bytearray:
        return text.count(b"[") + text.count(b"{") <= _ORJSON_BRACKETS
    return False


def _plain(meta: Mapping) -> bool:
    """Whether orjson and ``json`` read and write the free-form values alike: the values of
    ``meta`` but for ``groups`` (``kind`` and ``params`` are among them) hold only str, int,
    bool and None, in lists, tuples and dicts (exact types) nested at most ``_FREE_DEPTH``
    levels.  No float: orjson writes ``1e16`` where ``json.dumps`` writes ``1e+16``, and reads
    an int outside [-2**63, 2**64) as a float.  No other type: orjson writes an enum, a
    dataclass or a date where ``json.dumps`` raises.  The other fields need no walk: validation
    rejects a float or a container in any of them, and ``groups`` holds only lists or tuples
    of ints."""
    stack = [(value, 0) for key, value in meta.items() if key != "groups"]
    while stack:
        value, depth = stack.pop()
        kind = type(value)
        if kind is list or kind is tuple or kind is dict:
            if depth == _FREE_DEPTH:
                return False
            stack += ((v, depth + 1) for v in (value.values() if kind is dict else value))
        elif kind is not str and kind is not int and kind is not bool and value is not None:
            return False
    return True


def _parse(text: str | bytes) -> Netlist:
    """``from_json`` with ``json.loads`` as its only parser."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8, a 4301-digit int; too deep
        raise DocumentError("malformed", f"invalid JSON ({exc})") from exc
    return _from_doc(doc)


def _from_doc(doc) -> Netlist:
    """The netlist of a parsed document, or the DocumentError that rejects it."""
    if not isinstance(doc, dict):
        raise DocumentError("malformed", "document is not an object")
    version = doc.get("version")
    if type(version) is not int or version != DOC_VERSION:
        raise DocumentError("version", f"expected version {DOC_VERSION}, got {version!r}")
    _reject_unknown(doc, _DOC_FIELDS, "the document")
    try:
        width = doc["width"]
        raw_nodes = doc["nodes"]
        ports = doc["ports"]
    except KeyError as exc:
        raise DocumentError("malformed", f"missing field {exc}") from exc
    signals = doc.get("signals", {})
    meta = doc.get("meta", {})
    for field_name, value in (("ports", ports), ("signals", signals), ("meta", meta)):
        if type(value) is not dict:
            raise DocumentError("malformed", f"{field_name} is not an object")
    _reject_unknown(ports, _PORT_FIELDS, "ports")
    if "kind" in meta or "params" in meta:
        raise DocumentError("malformed", "meta holds kind or params, which are top-level fields")

    if not isinstance(raw_nodes, list):
        raise DocumentError("malformed", "nodes is not a list")
    nodes = []
    for i, entry in enumerate(raw_nodes):
        try:
            nid = entry["id"]
            kind = entry["kind"]
            inputs = tuple(entry.get("inputs", ()))
        except (KeyError, TypeError) as exc:
            raise DocumentError("malformed", f"bad node record at position {i}") from exc
        if type(nid) is not int or nid != i:
            raise DocumentError("malformed", f"node ids must be dense, got {nid} at {i}")
        if len(entry) > 3:   # id, kind and a stray field: no inputs, value or name, so invalid
            _reject_unknown(entry, _RECORD_FIELDS, f"node {i}")
        nodes.append(tuple.__new__(Node, (kind, inputs, entry.get("value"), entry.get("name"))))

    try:
        vectors = ports["A"], ports["B"], ports["S"]
        cin_port, cout_port = ports["cin"], ports["cout"]
    except KeyError as exc:
        raise DocumentError("malformed", f"missing port field {exc}") from exc
    for name, ids in zip("ABS", vectors):
        if type(ids) is not list:
            raise DocumentError("malformed", f"port {name} is not a list of ids")
    a_ports, b_ports, s_ports = map(tuple, vectors)
    return Netlist(width, tuple(nodes), a_ports, b_ports, cin_port, s_ports, cout_port, signals,
                   {**meta, "kind": doc.get("kind", "custom"), "params": doc.get("params", {})})


def to_dot(nl: Netlist) -> str:
    """Graphviz digraph: one node per gate, one edge per fan-in."""
    lines = ["digraph netlist {", "  rankdir=LR;"]
    for nid, node in enumerate(nl.nodes):
        if node.kind == INPUT:
            lines.append(f'  n{nid} [label="{node.name}" shape=box];')
        elif node.kind == CONST:
            lines.append(f'  n{nid} [label="{node.value}" shape=diamond];')
        else:
            lines.append(f'  n{nid} [label="{node.kind}"];')
    for nid, node in enumerate(nl.nodes):
        for src in node.inputs:
            lines.append(f"  n{src} -> n{nid};")
    for name, nid in nl.output_map().items():
        out = "out_" + name.replace("[", "_").replace("]", "")
        lines.append(f'  {out} [label="{name}" shape=box]; n{nid} -> {out};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- rewrites ---


def _split(nb: NetlistBuilder, memo: dict, kind: str, ids: tuple) -> tuple:
    """(root id, gate ids) of a balanced 2-input tree over ids, made once per (kind, ids).
    Not a closure: a recursive closure is a reference cycle, kept until a collection."""
    if len(ids) == 1:
        return ids[0], ()
    if len(ids) == 2:
        nid = nb.add(kind, *ids)
        return nid, (nid,)
    hit = memo.get((kind, ids))
    if hit is None:
        mid = len(ids) // 2
        left, made_left = _split(nb, memo, kind, ids[:mid])
        right, made_right = _split(nb, memo, kind, ids[mid:])
        nid = nb.add(kind, left, right)
        hit = memo[kind, ids] = nid, (*made_left, *made_right, nid)
    return hit


def lower_fanin2(nl: Netlist) -> Netlist:
    """Split every wide And/Or/Xor into a balanced tree of 2-input gates.

    Evaluation-equivalent; ports, signals and groups are carried over
    (grouped wide gates map to all gates of their replacement tree).
    """
    nb = NetlistBuilder(nl.width)
    remap: list = []     # old id -> new id
    produced: list = []  # old id -> new ids of the gates made for it
    memo: dict = {}      # (kind, new input ids) -> (new id, new ids of its gates)
    for kind, inputs, value, name in nl.nodes:
        ins = tuple(map(remap.__getitem__, inputs))
        if kind in MULTI_KINDS:
            new, made = _split(nb, memo, kind, ins)
        else:
            new = nb._intern(tuple.__new__(Node, (kind, ins, value, name)))
            made = (new,)
        remap.append(new)
        produced.append(made)

    signals = {name: remap[nid] for name, nid in nl.signals.items()}
    meta = dict(nl.meta)
    if "groups" in meta:
        meta["groups"] = {
            g: sorted({new for old in ids for new in produced[old]})
            for g, ids in meta["groups"].items()
        }
    meta["lowered"] = "fanin2"
    return nb.finish(
        [remap[i] for i in nl.a_ports],
        [remap[i] for i in nl.b_ports],
        remap[nl.cin_port],
        [remap[i] for i in nl.s_ports],
        remap[nl.cout_port],
        signals=signals,
        meta=meta,
    )
