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
from functools import cached_property
from itertools import chain
from operator import itemgetter
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

_SCALAR_OP = {
    AND: qudit.qand,
    OR: qudit.qor,
    XOR: qudit.qxor,
    NOT: qudit.qnot,
    INWARD: qudit.inward,
    OUTWARD: qudit.outward,
    BITSWAP: qudit.bitswap,
}

_PLANE_GATE = {AND: np.bitwise_and, OR: np.bitwise_or, XOR: np.bitwise_xor}
_ONES = np.uint64(2**64 - 1)
_TRANSPOSE_CHUNK = 512   # cases per block of the (cases, width) -> (width, cases) copy


class DocumentError(ValueError):
    """Raised when a netlist document cannot be imported.

    ``reason`` is one of: malformed, version, acyclicity, dangling.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(f"{reason}: {message}")


class Node(NamedTuple):
    id: int
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

    def output_map(self) -> dict:
        out = {f"S[{i + 1}]": nid for i, nid in enumerate(self.s_ports)}
        out["cout"] = self.cout_port
        return out

    def node_count(self) -> int:
        return len(self.nodes)

    def gate_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind not in LEAF_KINDS]

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(self.nodes)

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan.compile(self)


class NetlistBuilder:
    """Append-only constructor with optional structural deduplication.

    The builder only interns nodes; ``finish`` checks the result with the
    same rules as document import, so misuse is a DocumentError there.
    """

    def __init__(self, width: int, dedupe: bool = True):
        self.width = width
        self.nodes: list[Node] = []
        self._memo: dict | None = {} if dedupe else None

    @property
    def size(self) -> int:
        return len(self.nodes)

    def _intern(self, node: Node) -> int:
        if self._memo is not None:
            key = (node.kind, node.inputs, node.value, node.name)
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            self._memo[key] = node.id
        self.nodes.append(node)
        return node.id

    def add_input(self, name: str) -> int:
        return self._intern(Node(len(self.nodes), INPUT, (), None, name))

    def add_const(self, value: int) -> int:
        return self._intern(Node(len(self.nodes), CONST, (), value, None))

    def add(self, kind: str, *inputs: int) -> int:
        return self._intern(Node(len(self.nodes), kind, inputs, None, None))

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
        nl = Netlist(
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
        _validate(nl)
        return nl


def _validate(nl: Netlist) -> None:
    """One pass over the nodes plus the port, signal and group references.

    The only structural check, for built and imported netlists alike.  Each
    kind's fan-in is within its ``_FAN_IN`` range, ids are exact ints (a bool
    is not an id), const values are qudits, and the input nodes are exactly
    the A, B and cin ports, which both evaluators bind by id.
    """
    if type(nl.width) is not int or nl.width < 1:
        raise DocumentError("malformed", f"width {nl.width!r} is not a positive integer")
    n = len(nl.nodes)
    n_inputs = 0
    for nid, kind, ins, value, _ in nl.nodes:
        fan_in = _FAN_IN.get(kind) if type(kind) is str else None
        if fan_in is None:
            raise DocumentError("malformed", f"unknown kind {kind!r}")
        if not fan_in[0] <= len(ins) <= fan_in[1]:
            _reject_fan_in(nid, kind, len(ins))
        for i in ins:
            if type(i) is not int or not 0 <= i < nid:
                _reject_input(nid, i)
        if kind == INPUT:
            n_inputs += 1
        elif kind == CONST and (type(value) is not int or not 0 <= value <= 3):
            raise DocumentError("malformed", f"const node {nid} has value {value!r}")
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
        extra = sorted({node.id for node in nl.nodes if node.kind == INPUT} - set(ports))
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


def _reject_input(nid: int, i) -> None:
    if type(i) is not int:
        raise DocumentError("malformed", f"node {nid} reads non-integer id {i!r}")
    if i >= nid:
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
    the A, B and cin ports by port id.
    """
    n = nl.width
    values: list = [0] * len(nl.nodes)
    ports = (*nl.a_ports, *nl.b_ports, nl.cin_port)
    digits = (*qudit.check_word(a, width=n), *qudit.check_word(b, width=n), qudit.check_qudit(cin))
    for pid, digit in zip(ports, digits):
        values[pid] = digit
    for nid, kind, ins, value, _ in nl.nodes:
        if kind == CONST:
            values[nid] = value
        elif kind != INPUT:
            values[nid] = _SCALAR_OP[kind](*[values[i] for i in ins])
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
    own slot: (kind, out slot, input slots, const value).  A slot is reused
    once the last step reading it has run; nodes outside the cone of S and
    cout get no step, and the output slots are never reused.
    """

    steps: tuple
    slots: int
    s_slots: tuple
    cout_slot: int

    @classmethod
    def compile(cls, nl: Netlist) -> _Plan:
        n = len(nl.nodes)
        last = [-1] * n          # id of the last live node reading each node
        for nid in (*nl.s_ports, nl.cout_port):
            last[nid] = n
        for node in reversed(nl.nodes):
            if last[node.id] >= 0:
                for i in node.inputs:
                    if last[i] < 0:
                        last[i] = node.id
        ports = [*nl.a_ports, *nl.b_ports, nl.cin_port]
        slot = [0] * n
        for k, pid in enumerate(ports):
            slot[pid] = k
        free = [slot[pid] for pid in reversed(ports) if last[pid] < 0]
        size = len(ports)
        steps = []
        for nid, kind, ins, value, _ in nl.nodes:
            if kind == INPUT or last[nid] < 0:
                continue
            if free:
                out = free.pop()
            else:
                out = size
                size += 1
            slot[nid] = out
            steps.append((kind, out, tuple(map(slot.__getitem__, ins)), value))
            for i in ins:
                if last[i] == nid:
                    last[i] = n   # freed once, also when this node reads it twice
                    free.append(slot[i])
        return cls(tuple(steps), size, tuple(slot[i] for i in nl.s_ports), slot[nl.cout_port])


def digit_major(digits: np.ndarray) -> np.ndarray:
    """A (cases, width) matrix as a C-contiguous (width, cases) one.

    A column-major input (such as ``m.T`` of a digit-major ``m``) is returned
    as a view; otherwise the copy goes in blocks of cases that stay in cache.
    """
    t = digits.T
    if t.flags.c_contiguous:
        return t
    out = np.empty(t.shape, dtype=digits.dtype)
    for lo in range(0, digits.shape[0], _TRANSPOSE_CHUNK):
        out[:, lo:lo + _TRANSPOSE_CHUNK] = digits[lo:lo + _TRANSPOSE_CHUNK].T
    return out


def _qudits(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.uint8)
    if values.size and values.max() > 3:
        raise ValueError(f"{what} holds non-qudit values")
    return values


def _pack(planes: np.ndarray, digits: np.ndarray) -> None:
    """Digit-major qudits (rows, cases) into the hi and lo planes of rows."""
    count = digits.shape[-1]
    planes[..., 0, : (count + 7) // 8] = np.packbits(digits >> 1, axis=-1, bitorder="little")
    planes[..., 1, : (count + 7) // 8] = np.packbits(digits & 1, axis=-1, bitorder="little")


def _unpack(planes: np.ndarray, count: int) -> np.ndarray:
    bits = np.unpackbits(planes, axis=-1, count=count, bitorder="little")
    return (bits[..., 0, :] << 1) | bits[..., 1, :]


def _run(plan: _Plan, buf: np.ndarray) -> None:
    rows = list(buf.reshape(plan.slots, -1))
    his = list(buf[:, 0])
    los = list(buf[:, 1])
    for kind, out, ins, value in plan.steps:
        gate = _PLANE_GATE.get(kind)
        if gate is not None:
            if len(ins) == 2:
                gate(rows[ins[0]], rows[ins[1]], out=rows[out])
            else:
                gate.reduce(buf[list(ins)], axis=0, out=buf[out])
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

    Returns (sum digit matrix, carry-out vector).  The sum matrix is a
    column-major view of shape (cases, width); a column-major input (a
    transposed digit-major array) is read without a copy.
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
    words = (cases + 63) // 64
    buf = np.empty((plan.slots, 2, words), dtype=np.uint64)
    as_bytes = buf.view(np.uint8)
    _pack(as_bytes[:n], digit_major(a_digits))
    _pack(as_bytes[n:2 * n], digit_major(b_digits))
    _pack(as_bytes[2 * n], cin)
    _run(plan, buf)
    s = _unpack(buf[list(plan.s_slots)].view(np.uint8), cases)
    cout = _unpack(buf[plan.cout_slot].view(np.uint8), cases)
    return s.T, cout


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

    def to_dict(self) -> dict:
        return {
            "gate_count": self.gate_count,
            "input_count": self.input_count,
            "depth": self.depth,
            "max_fan_in": self.max_fan_in,
            "per_signal_depth": dict(self.per_signal_depth),
            "mask_counting": self.mask_counting,
            "signal_scope": self.signal_scope,
        }


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
        ones = {i for i, node in enumerate(nodes) if node.kind == CONST and node.value == 1}
        for i, node in enumerate(nodes):
            ins = node.inputs
            k = len(ins)
            if k == 1:
                inc[i] = inc[ins[0]] + 1
                exc[i] = exc[ins[0]] + 1
                fan_inc[i] = fan_exc[i] = 1
            elif k:
                fan_inc[i] = k
                get = itemgetter(*ins)
                inc[i] = 1 + max(get(inc))
                if k == 2 and node.kind == AND and (ins[0] in ones or ins[1] in ones):
                    exc[i] = exc[ins[1] if ins[0] in ones else ins[0]]
                else:
                    exc[i] = 1 + max(get(exc))
                    fan_exc[i] = k
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


def _counted(fan_in: list, ids: Iterable[int]) -> list:
    """Fan-ins of the ids that count as gates (repeats count again)."""
    return [f for f in map(fan_in.__getitem__, ids) if f]


def node_depths(nl: Netlist, mask_counting: str = "included") -> list[int]:
    """Unit-delay depth per node; inputs and constants sit at depth 0.

    With mask_counting="excluded", And(x, Const 1) gates are transparent:
    their depth equals x's depth.
    """
    return list(nl._analysis.depths[mask_counting == "excluded"])


def _resolve_signals(nl: Netlist, signals) -> dict:
    if signals is None:
        return nl.output_map()
    if isinstance(signals, Mapping):
        resolved = dict(signals)
    else:
        space = {**nl.output_map(), **nl.signals}
        resolved = {}
        for name in signals:
            if name not in space:
                raise ValueError(f"unknown signal name: {name!r}")
            resolved[name] = space[name]
    return resolved


def cone(nl: Netlist, node_ids: Iterable[int]) -> set:
    """Set of node ids that can influence any of the given nodes."""
    return set(nl._analysis.cone(node_ids))


def measure(
    nl: Netlist,
    signals=None,
    mask_counting: str = "included",
    scope_label: str | None = None,
) -> CostReport:
    """Unit-delay cost report over the cone of influence of the signals.

    ``signals`` is a mapping name -> node id, an iterable of signal/port
    names, or None for all output ports.  With mask_counting="excluded",
    And(x, Const 1) gates are skipped in the gate and input counts and are
    transparent for depth.
    """
    if mask_counting not in ("included", "excluded"):
        raise ValueError(f"bad mask_counting: {mask_counting!r}")
    resolved = _resolve_signals(nl, signals)
    facts = nl._analysis
    excluded = mask_counting == "excluded"
    depths = facts.depths[excluded]
    fans = _counted(facts.fan_in[excluded], facts.cone(resolved.values()))
    per_signal = {name: depths[nid] for name, nid in resolved.items()}
    return CostReport(
        gate_count=len(fans),
        input_count=sum(fans),
        depth=max(per_signal.values(), default=0),
        max_fan_in=max(fans, default=0),
        per_signal_depth=per_signal,
        mask_counting=mask_counting,
        signal_scope=scope_label or ("full-adder" if signals is None else "carry-network"),
    )


def count_group(nl: Netlist, group: str, mask_counting: str = "included") -> tuple[int, int]:
    """(gate count, input count) over one of the builder-recorded groups."""
    ids = nl.meta.get("groups", {}).get(group)
    if ids is None:
        raise ValueError(f"netlist has no group {group!r}")
    fans = _counted(nl._analysis.fan_in[mask_counting == "excluded"], ids)
    return len(fans), sum(fans)


# --- serialization ---


def to_json(nl: Netlist) -> str:
    nodes = []
    for node in nl.nodes:
        entry: dict = {"id": node.id, "kind": node.kind, "inputs": list(node.inputs)}
        if node.value is not None:
            entry["value"] = node.value
        if node.name is not None:
            entry["name"] = node.name
        nodes.append(entry)
    meta = {k: v for k, v in nl.meta.items() if k not in ("kind", "params")}
    doc = {
        "version": DOC_VERSION,
        "kind": nl.meta.get("kind", "custom"),
        "width": nl.width,
        "params": nl.meta.get("params", {}),
        "nodes": nodes,
        "ports": {
            "A": list(nl.a_ports),
            "B": list(nl.b_ports),
            "cin": nl.cin_port,
            "S": list(nl.s_ports),
            "cout": nl.cout_port,
        },
        "signals": dict(nl.signals),
        "meta": meta,
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str | bytes) -> Netlist:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("malformed", f"invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DocumentError("malformed", "document is not an object")
    version = doc.get("version")
    if version != DOC_VERSION:
        raise DocumentError("version", f"expected version {DOC_VERSION}, got {version}")
    try:
        width = doc["width"]
        raw_nodes = doc["nodes"]
        ports = doc["ports"]
    except KeyError as exc:
        raise DocumentError("malformed", f"missing field {exc}") from exc

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
        nodes.append(Node(nid, kind, inputs, entry.get("value"), entry.get("name")))

    try:
        meta = dict(doc.get("meta", {}))
        meta["kind"] = doc.get("kind", "custom")
        meta["params"] = doc.get("params", {})
        nl = Netlist(
            width=width,
            nodes=tuple(nodes),
            a_ports=tuple(ports["A"]),
            b_ports=tuple(ports["B"]),
            cin_port=ports["cin"],
            s_ports=tuple(ports["S"]),
            cout_port=ports["cout"],
            signals=dict(doc.get("signals", {})),
            meta=meta,
        )
    except KeyError as exc:
        raise DocumentError("malformed", f"missing port field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError("malformed", str(exc)) from exc
    _validate(nl)
    return nl


def to_dot(nl: Netlist, name: str = "netlist") -> str:
    """Graphviz digraph: one node per gate, one edge per fan-in."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node in nl.nodes:
        if node.kind == INPUT:
            lines.append(f'  n{node.id} [label="{node.name}" shape=box];')
        elif node.kind == CONST:
            lines.append(f'  n{node.id} [label="{node.value}" shape=diamond];')
        else:
            lines.append(f'  n{node.id} [label="{node.kind}"];')
    for node in nl.nodes:
        for src in node.inputs:
            lines.append(f"  n{src} -> n{node.id};")
    for name_, nid in nl.output_map().items():
        lines.append(f'  out_{name_.replace("[", "_").replace("]", "")} '
                     f'[label="{name_}" shape=box]; '
                     f'n{nid} -> out_{name_.replace("[", "_").replace("]", "")};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- rewrites ---


def lower_fanin2(nl: Netlist) -> Netlist:
    """Split every wide And/Or/Xor into a balanced tree of 2-input gates.

    Evaluation-equivalent; ports, signals and groups are carried over
    (grouped wide gates map to all gates of their replacement tree).
    """
    nb = NetlistBuilder(nl.width)
    remap: dict = {}
    produced: dict = {}  # old id -> list of new ids created for it

    def reduce_tree(kind: str, ids: list, created: list) -> int:
        if len(ids) == 1:
            return ids[0]
        if len(ids) == 2:
            nid = nb.add(kind, ids[0], ids[1])
            created.append(nid)
            return nid
        mid = len(ids) // 2
        lo = reduce_tree(kind, ids[:mid], created)
        hi = reduce_tree(kind, ids[mid:], created)
        return reduce_tree(kind, [lo, hi], created)

    for node in nl.nodes:
        created: list = []
        if node.kind == INPUT:
            new = nb.add_input(node.name)
        elif node.kind == CONST:
            new = nb.add_const(node.value)
        elif node.kind in UNARY_KINDS:
            new = nb.add(node.kind, remap[node.inputs[0]])
            created.append(new)
        else:
            new = reduce_tree(node.kind, [remap[i] for i in node.inputs], created)
        remap[node.id] = new
        produced[node.id] = created or [new]

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
