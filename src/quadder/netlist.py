"""Gate-level netlists of unbounded-fan-in quaternary gates.

A netlist is an acyclic DAG with dense node ids; every edge points from a
smaller id to a larger one, so the id order is a topological order and
acyclicity holds by construction.  Evaluation is a single forward pass,
timing uses a unit-delay model (every gate costs 1, wires cost 0).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import and_, itemgetter, or_, xor
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import qudit

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

MULTI_KINDS = frozenset({AND, OR, XOR})
UNARY_KINDS = frozenset({NOT, INWARD, OUTWARD, BITSWAP})
LEAF_KINDS = frozenset({CONST, INPUT})
_FAN_IN = {**dict.fromkeys(MULTI_KINDS, (2, sys.maxsize)), **dict.fromkeys(UNARY_KINDS, (1, 1)),
           **dict.fromkeys(LEAF_KINDS, (0, 0))}   # (least, most) inputs per kind

DOC_VERSION = 1
_DOC_FIELDS = frozenset({"version", "kind", "width", "params", "nodes", "ports", "signals", "meta"})
_PORT_FIELDS = frozenset({"A", "B", "cin", "S", "cout"})
_RECORD_FIELDS = frozenset({"id", "kind", "inputs", "value", "name"})

_SCALAR_WIDE = {AND: and_, OR: or_, XOR: xor}
_SCALAR_UNARY = {kind: tuple(map(fn, range(4))) for kind, fn in (   # value -> value tables
    (NOT, qudit.qnot), (INWARD, qudit.inward), (OUTWARD, qudit.outward), (BITSWAP, qudit.bitswap))}

_PLANE_GATE = {AND: np.bitwise_and, OR: np.bitwise_or, XOR: np.bitwise_xor}
_ONES = np.uint64(2**64 - 1)
_BIT_SWAPS = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (   # 8 x 8 transpose
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


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

    def __post_init__(self):
        _validate(self)

    def output_map(self) -> dict:
        out = {f"S[{i + 1}]": nid for i, nid in enumerate(self.s_ports)}
        out["cout"] = self.cout_port
        return out

    def gate_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind not in LEAF_KINDS]

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(self.nodes)

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan.compile(self)


class NetlistBuilder:
    """Append-only constructor with structural hashing: a node equal to an
    earlier one (kind, inputs, value and name) gets the earlier node's id.

    The builder only interns nodes; every netlist checks itself when it is
    made, so misuse is a DocumentError at ``finish``, as at document import.
    """

    def __init__(self, width: int):
        self.width = width
        self.nodes: list[Node] = []
        self._memo: dict = {}   # node -> id

    def _intern(self, node: Node) -> int:
        new = len(self.nodes)
        try:
            nid = self._memo.setdefault(node, new)
        except TypeError:   # an unhashable field: not interned, and finish rejects it
            nid = new
        if nid == new:
            self.nodes.append(node)
        return nid

    def add_input(self, name: str) -> int:
        return self._intern(Node(INPUT, (), None, name))

    def add_const(self, value: int) -> int:
        return self._intern(Node(CONST, (), value, None))

    def add(self, kind: str, *inputs: int) -> int:
        return self._intern(tuple.__new__(Node, (kind, inputs, None, None)))   # skips Node.__new__

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


def _validate(nl: Netlist) -> None:
    """One pass over the nodes plus the port, signal and group references.

    The only structural check, run once for every netlist, when it is made
    (by ``finish``, import, ``dataclasses.replace`` or directly).  Each
    kind's fan-in is within its ``_FAN_IN`` range, ids are exact ints (a bool
    is not an id), const values are qudits, and the input nodes are exactly
    the A, B and cin ports, which both evaluators bind by id.  Only const
    nodes carry a ``value`` and only input nodes a ``name``.
    """
    if type(nl.width) is not int or nl.width < 1:
        raise DocumentError("malformed", f"width {nl.width!r} is not a positive integer")
    n = len(nl.nodes)
    n_inputs = 0
    for nid, (kind, ins, value, name) in enumerate(nl.nodes):
        fan_in = _FAN_IN.get(kind) if type(kind) is str else None
        if fan_in is None:
            raise DocumentError("malformed", f"unknown kind {kind!r}")
        if not fan_in[0] <= len(ins) <= fan_in[1]:
            _reject_fan_in(nid, kind, len(ins))
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
    for group, ids in groups.items():
        if not isinstance(ids, (list, tuple)):
            raise DocumentError("malformed", f"group {group!r} is not a list of ids")
        _check_ids(ids, n, f"group {group!r}")


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


def evaluate_nodes(nl: Netlist, a, b, cin: int) -> list:
    """Single forward pass; returns the value of every node by id.

    The digit words a and b (index 0 = least significant) and cin bind to
    the A, B and cin ports by port id.  They are the only values checked:
    every netlist's const values are checked when it is made, and every gate
    maps qudits to qudits.
    """
    n = nl.width
    values: list = [0] * len(nl.nodes)
    ports = (*nl.a_ports, *nl.b_ports, nl.cin_port)
    digits = (*qudit.check_word(a, width=n), *qudit.check_word(b, width=n), qudit.check_qudit(cin))
    for pid, digit in zip(ports, digits):
        values[pid] = digit
    for nid, (kind, ins, value, _) in enumerate(nl.nodes):
        fan_in = len(ins)
        if fan_in == 2:
            values[nid] = _SCALAR_WIDE[kind](values[ins[0]], values[ins[1]])
        elif fan_in == 1:
            values[nid] = _SCALAR_UNARY[kind][values[ins[0]]]
        elif fan_in:
            values[nid] = reduce(_SCALAR_WIDE[kind], map(values.__getitem__, ins))
        elif kind == CONST:
            values[nid] = value
    return values


def evaluate_words(nl: Netlist, a, b, cin: int = 0) -> tuple[tuple[int, ...], int]:
    """Evaluate with digit words (index 0 = least significant)."""
    values = evaluate_nodes(nl, a, b, cin)
    return tuple(values[i] for i in nl.s_ports), values[nl.cout_port]


# Batch evaluation works on bit planes.  A batch of qudits is two packed bit
# vectors, hi and lo (value = 2 * hi + lo), one bit per case; a node's value
# over the batch is one row of uint64 words, its hi plane followed by its lo
# plane.  AND, OR and XOR act on both planes at once; NOT inverts both;
# bitswap swaps them; inward is (not hi, hi) and outward (not hi, not hi).


class _Plan(NamedTuple):
    """A netlist compiled for the bit-plane kernel.

    Rows (slots) 0..2n of the plane buffer hold the ports A[1..n], B[1..n]
    and cin, bound by port id.  Each step computes one live node into its
    own slot: (kind, out slot, input slots, const value).  A wide gate whose
    inputs begin with all the inputs of the latest earlier wide gate of its
    kind with the same first input reads that gate's slot in place of them
    (wide: fan-in 3 or more).  A slot is reused once the last step reading
    it has run; nodes outside the cone of S and cout get no step unless a
    step reads them as its prefix, and the output slots are never reused.
    """

    steps: tuple
    slots: int
    s_slots: tuple
    cout_slot: int

    @classmethod
    def compile(cls, nl: Netlist) -> _Plan:
        nodes = nl.nodes
        n = len(nodes)
        reads = [node[1] for node in nodes]   # the ids each node's step reads
        latest = {}   # (kind, first input) -> the latest wide gate of that kind reading it first
        for nid in [nid for nid, ins in enumerate(reads) if len(ins) > 2]:
            ins = reads[nid]
            key = (nodes[nid][0], ins[0])
            head = latest.get(key)
            if head is not None:
                prefix = nodes[head][1]
                if len(prefix) < len(ins) and ins[:len(prefix)] == prefix:
                    reads[nid] = (head, *ins[len(prefix):])
            latest[key] = nid
        last = [-1] * n          # id of the last live node reading each node
        for nid in (*nl.s_ports, nl.cout_port):
            last[nid] = n
        for nid, ins in zip(range(n - 1, -1, -1), reversed(reads)):
            if last[nid] >= 0:
                for i in ins:
                    if last[i] < 0:
                        last[i] = nid
        ports = [*nl.a_ports, *nl.b_ports, nl.cin_port]
        slot = [0] * n
        get = slot.__getitem__
        for k, pid in enumerate(ports):
            slot[pid] = k
        free = [slot[pid] for pid in reversed(ports) if last[pid] < 0]
        size = len(ports)
        steps = []
        for nid, (kind, _, value, _), ins in zip(range(n), nodes, reads):
            if kind == INPUT or last[nid] < 0:
                continue
            if free:
                out = free.pop()
            else:
                out = size
                size += 1
            slot[nid] = out   # taken before any input's slot is freed: it aliases no input
            if len(ins) == 2:   # most steps; a tuple display is cheaper than a map
                x, y = ins
                steps.append((kind, out, (slot[x], slot[y]), value))
            elif len(ins) == 1:
                steps.append((kind, out, (slot[ins[0]],), value))
            else:
                steps.append((kind, out, tuple(map(get, ins)), value))
            for i in ins:
                if last[i] == nid:
                    last[i] = n   # freed once, also when this node reads it twice
                    free.append(slot[i])
        return cls(tuple(steps), size, tuple(slot[i] for i in nl.s_ports), slot[nl.cout_port])


def _qudits(values, what: str) -> np.ndarray:
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):   # a copy must equal its input (256, -1, 2.5, NaN do not)
        digits = values.astype(np.uint8, copy=False)
    if digits.size and (digits.max() > 3 or digits is not values and (digits != values).any()):
        raise ValueError(f"{what} holds non-qudit values")
    return digits


def _transpose_bits(words: np.ndarray) -> None:
    """Each uint64, read as an 8 x 8 bit matrix (bit j of byte k), transposed
    in place by three delta swaps."""
    t = np.empty_like(words)
    for shift, mask in _BIT_SWAPS:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t


def _pack(planes: np.ndarray, digits: np.ndarray) -> None:
    """Case-major qudits (cases, rows) into the hi and lo planes of rows.

    Each case's bits are packed 8 rows to a byte; 8 cases' bytes then make
    one uint64 whose bit matrix is transposed into 8 rows' bytes of 8 cases.
    Cases past the last in a byte are left as they come: lanes never mix.
    Fewer than 8 rows are cheaper to transpose whole than to pad to 8.
    """
    cases, rows = digits.shape
    groups, blocks = -(-rows // 8), -(-cases // 8)
    if rows < 8:
        t = np.ascontiguousarray(digits.T)
        planes[:, 0, :blocks] = np.packbits(t >> 1, axis=1, bitorder="little")
        planes[:, 1, :blocks] = np.packbits(t & 1, axis=1, bitorder="little")
        return
    if rows % 8 or not digits.flags.c_contiguous:
        padded = np.zeros((cases, 8 * groups), dtype=np.uint8)
        padded[:, :rows] = digits
        digits = padded
    packed = np.empty((2, 8 * blocks, groups), dtype=np.uint8)
    packed[0, :cases] = np.packbits(digits >> 1, bitorder="little").reshape(cases, groups)
    packed[1, :cases] = np.packbits(digits & 1, bitorder="little").reshape(cases, groups)
    words = np.ascontiguousarray(packed.reshape(2, blocks, 8, groups).transpose(0, 3, 1, 2))
    _transpose_bits(words.view(np.uint64))
    planes[:, :, :blocks] = words.transpose(1, 3, 0, 2).reshape(8 * groups, 2, blocks)[:rows]


def _unpack(buf: np.ndarray, slots: list, cases: int) -> np.ndarray:
    """The qudits of the given plane rows as a C-contiguous (cases, rows)
    matrix: the steps of ``_pack`` in reverse."""
    rows, words = len(slots), buf.shape[2]
    groups, blocks = -(-rows // 8), -(-cases // 8)
    planes = np.empty((8 * groups, 2, words), dtype=np.uint64)
    np.take(buf, slots, axis=0, out=planes[:rows])
    if rows < 8:
        bits = np.unpackbits(planes[:rows].view(np.uint8), axis=2, count=cases, bitorder="little")
        digits = np.empty((cases, rows), dtype=np.uint8)
        np.bitwise_or(bits[:, 0] + bits[:, 0], bits[:, 1], out=digits.T)
        return digits
    by_case = np.ascontiguousarray(
        planes.view(np.uint8).reshape(groups, 8, 2, 8 * words)[..., :blocks].transpose(2, 0, 3, 1))
    _transpose_bits(by_case.view(np.uint64))
    packed = np.ascontiguousarray(
        by_case.reshape(2, groups, 8 * blocks)[..., :cases].transpose(0, 2, 1))
    digits = np.unpackbits(packed[0], bitorder="little").reshape(cases, 8 * groups)
    digits += digits   # a left shift of uint8 is several times slower
    digits |= np.unpackbits(packed[1], bitorder="little").reshape(cases, 8 * groups)
    return digits if rows == 8 * groups else np.ascontiguousarray(digits[:, :rows])


def _run(plan: _Plan, buf: np.ndarray) -> None:
    rows = list(buf.reshape(plan.slots, -1))
    his = list(buf[:, 0])
    los = list(buf[:, 1])
    for kind, out, ins, value in plan.steps:
        gate = _PLANE_GATE.get(kind)
        if gate is not None:
            row = rows[out]
            gate(rows[ins[0]], rows[ins[1]], out=row)
            for i in ins[2:]:
                gate(row, rows[i], out=row)
        elif kind == NOT:
            np.invert(rows[ins[0]], out=rows[out])
        elif kind == BITSWAP:
            np.copyto(his[out], los[ins[0]])
            np.copyto(los[out], his[ins[0]])
        elif kind == INWARD:
            np.invert(his[ins[0]], out=his[out])
            np.copyto(los[out], his[ins[0]])
        elif kind == OUTWARD:
            np.invert(his[ins[0]], out=his[out])
            np.copyto(los[out], his[out])
        else:  # CONST
            his[out].fill(_ONES if value >> 1 else 0)
            los[out].fill(_ONES if value & 1 else 0)


def add_batch(nl: Netlist, a_digits: np.ndarray, b_digits: np.ndarray, cin: np.ndarray):
    """Batch addition: digit matrices of shape (cases, width), cin (cases,).

    Returns (sum digit matrix, carry-out vector), the sums C-contiguous of
    shape (cases, width).
    """
    n = nl.width
    a_digits = _qudits(a_digits, "a_digits")
    b_digits = _qudits(b_digits, "b_digits")
    cin = _qudits(cin, "cin")
    cases = len(cin) if cin.ndim == 1 else -1
    if a_digits.shape != (cases, n) or b_digits.shape != (cases, n):
        raise ValueError(f"expected digit matrices of shape (cases, {n}) and cin of shape "
                         f"(cases,), got {a_digits.shape}, {b_digits.shape}, {cin.shape}")
    plan = nl._plan
    buf = np.empty((plan.slots, 2, (cases + 63) // 64), dtype=np.uint64)
    as_bytes = buf.view(np.uint8)
    _pack(as_bytes[:n], a_digits)
    _pack(as_bytes[n:2 * n], b_digits)
    _pack(as_bytes[2 * n:2 * n + 1], cin[:, None])
    _run(plan, buf)
    return _unpack(buf, list(plan.s_slots), cases), _unpack(buf, [plan.cout_slot], cases)[:, 0]


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
    Cones are memoized per signal-id set.  Netlists are immutable, so each
    one computes its analysis on first use and keeps it.
    """

    __slots__ = ("inputs", "fan_in", "depths", "_cones")

    def __init__(self, nodes: tuple[Node, ...]):
        n = len(nodes)
        fan_inc = [0] * n
        fan_exc = [0] * n
        inc = [0] * n
        exc = [0] * n
        ones = set()   # ids of Const 1 nodes
        for i, (kind, ins, value, _) in enumerate(nodes):
            k = len(ins)
            if k == 2:
                x, y = ins
                fan_inc[i] = 2
                dx, dy = inc[x], inc[y]
                inc[i] = 1 + (dx if dx > dy else dy)
                if kind == AND and (x in ones or y in ones):
                    exc[i] = exc[y if x in ones else x]
                else:
                    dx, dy = exc[x], exc[y]
                    exc[i] = 1 + (dx if dx > dy else dy)
                    fan_exc[i] = 2
            elif k == 1:
                inc[i] = inc[ins[0]] + 1
                exc[i] = exc[ins[0]] + 1
                fan_inc[i] = fan_exc[i] = 1
            elif k:
                get = itemgetter(*ins)
                inc[i] = 1 + max(get(inc))
                exc[i] = 1 + max(get(exc))
                fan_inc[i] = fan_exc[i] = k
            elif kind == CONST and value == 1:
                ones.add(i)
        self.inputs = [node.inputs for node in nodes]
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
                frontier = set(chain.from_iterable(map(self.inputs.__getitem__, frontier)))
                frontier -= seen
                seen |= frontier
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


def _dump(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent ``pad``: strings, ints,
    lists and string-keyed objects here, the rest by ``json.dumps`` with ``pad`` added."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    inner = pad + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        items, brackets = (f"{encode_basestring_ascii(k)}: {_dump(v, inner)}"
                           for k, v in value.items()), "{}"
    elif type(value) in (list, tuple) and value:
        ints = all(type(x) is int for x in value)
        items, brackets = map(str, value) if ints else (_dump(x, inner) for x in value), "[]"
    else:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def to_json(nl: Netlist) -> str:
    """The netlist as a version-1 document, laid out as ``json.dumps(doc, indent=2)``.

    A valid node needs no escaping: its kind is an ASCII tag, its ids and
    value are ints, and its name is a port name.
    """
    records = []
    sep = ",\n        "   # between a record's input ids
    for nid, (kind, ins, value, name) in enumerate(nl.nodes):
        ins = f"[\n        {sep.join(map(str, ins))}\n      ]" if ins else "[]"
        record = f'    {{\n      "id": {nid},\n      "kind": "{kind}",\n      "inputs": {ins}'
        if value is not None:
            record += f',\n      "value": {value}'
        if name is not None:
            record += f',\n      "name": "{name}"'
        records.append(record + "\n    }")
    meta = {k: v for k, v in nl.meta.items() if k not in ("kind", "params")}
    ports = dict(A=nl.a_ports, B=nl.b_ports, cin=nl.cin_port, S=nl.s_ports, cout=nl.cout_port)
    fields = (
        f'"version": {DOC_VERSION}',
        f'"kind": {_dump(nl.meta.get("kind", "custom"), "  ")}',
        f'"width": {nl.width}',
        f'"params": {_dump(nl.meta.get("params", {}), "  ")}',
        '"nodes": [\n' + ",\n".join(records) + "\n  ]",
        f'"ports": {_dump(ports, "  ")}',
        f'"signals": {_dump(nl.signals, "  ")}',
        f'"meta": {_dump(meta, "  ")}',
    )
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _reject_unknown(obj: dict, known: frozenset, where: str) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise DocumentError("malformed", f"unknown field {min(unknown)!r} in {where}")


def from_json(text: str | bytes) -> Netlist:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deeply
        raise DocumentError("malformed", f"invalid JSON ({exc})") from exc
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
        nodes.append(Node(kind, inputs, entry.get("value"), entry.get("name")))

    try:
        a_ports, b_ports, s_ports = tuple(ports["A"]), tuple(ports["B"]), tuple(ports["S"])
        cin_port, cout_port = ports["cin"], ports["cout"]
    except KeyError as exc:
        raise DocumentError("malformed", f"missing port field {exc}") from exc
    except TypeError as exc:
        raise DocumentError("malformed", str(exc)) from exc
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


def lower_fanin2(nl: Netlist) -> Netlist:
    """Split every wide And/Or/Xor into a balanced tree of 2-input gates.

    Evaluation-equivalent; ports, signals and groups are carried over
    (grouped wide gates map to all gates of their replacement tree).
    """
    nb = NetlistBuilder(nl.width)
    remap: list = []     # old id -> new id
    produced: list = []  # old id -> new ids of the gates made for it
    memo: dict = {}      # (kind, new input ids) -> (new id, new ids of its gates)

    def split(kind: str, ids: tuple) -> tuple:
        if len(ids) == 1:
            return ids[0], ()
        if len(ids) == 2:
            nid = nb.add(kind, *ids)
            return nid, (nid,)
        hit = memo.get((kind, ids))
        if hit is None:
            mid = len(ids) // 2
            (left, made_left), (right, made_right) = split(kind, ids[:mid]), split(kind, ids[mid:])
            nid = nb.add(kind, left, right)
            hit = memo[kind, ids] = nid, (*made_left, *made_right, nid)
        return hit

    for node in nl.nodes:
        ins = tuple(map(remap.__getitem__, node.inputs))
        if node.kind in MULTI_KINDS:
            new, made = split(node.kind, ins)
        else:
            new = nb._intern(node._replace(inputs=ins))
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
