"""Plain reference versions the package is checked against.

* The quaternary digit algebra: what each gate kind computes on a digit,
  one function per kind (``GATES``), and ``evaluate_nodes``, a plain node
  walk over it.  The netlist's table of gate kinds and its evaluator, on one
  case and on a batch, are checked against them.
* The document writer and the fan-in lowering: ``netlist.to_json`` writes
  its text with orjson where the two agree and ``netlist.lower_fanin2``
  splits each distinct wide gate once; these are the direct forms they must
  match byte for byte.
  The document reader: ``netlist.from_json`` parses with orjson where it
  can, and ``from_json`` here with ``json.loads`` alone; every document must
  give both the same outcome.
* The prefix rule: ``prefix_holders``, the table of wide gates read
  through an earlier gate holding their prefix, as README words it; every
  netlist's ``_holders`` must equal it.
* The paper's value-level model: the derived operators, the half/full
  adders, propagate/generate and the carry recurrences, the printed Tables I
  and II with their check, and a scalar integer oracle.  The builders are
  checked against the cells, and the batch oracle against ``oracle_add``.

It also holds ``built``, the adders tests share, ``sums``, the sums of a
batch for the tests that read them (every check in the package reads only
the failing cases), ``run_nodes``, every node's value from the one-lane
run ``evaluate_words`` makes (which reads back only S and cout),
``random_cases``, the cases of a random check rebuilt from the PCG64
stream, ``mismatches``, a verify report's records as dicts, and
``traced_peak``, the memory probe of the tests that bound a call's
allocations.
"""

import functools
import json
import operator
import tracemalloc
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from quadder import builders, netlist
from quadder.netlist import (
    AND,
    BITSWAP,
    CONST,
    DOC_VERSION,
    INPUT,
    INWARD,
    MULTI_KINDS,
    NOT,
    OR,
    OUTWARD,
    XOR,
    DocumentError,
    Netlist,
    NetlistBuilder,
)

# --- the digit algebra ---
#
# A qudit is an integer in {0, 1, 2, 3}, read as the 2-bit pair
# (high, low) = (value // 2, value % 2).  The binary operators work bitwise
# on those pairs.  The unary "special" operators reshape a digit with
# respect to bit-exchange symmetry: 0 and 3 are symmetrical (unchanged when
# their two bits swap), 1 and 2 are asymmetrical.


def check_qudit(a: int) -> int:
    """Validate and return a quaternary digit in 0..3."""
    a = operator.index(a)
    if not 0 <= a <= 3:
        raise ValueError(f"not a qudit: {a}")
    return a


def qand(a: int, b: int, *more: int) -> int:
    """Bitwise AND, variadic over two or more qudits."""
    out = check_qudit(a) & check_qudit(b)
    for x in more:
        out &= check_qudit(x)
    return out


def qor(a: int, b: int, *more: int) -> int:
    """Bitwise OR, variadic over two or more qudits."""
    out = check_qudit(a) | check_qudit(b)
    for x in more:
        out |= check_qudit(x)
    return out


def qxor(a: int, b: int, *more: int) -> int:
    """Bitwise XOR, variadic over two or more qudits."""
    out = check_qudit(a) ^ check_qudit(b)
    for x in more:
        out ^= check_qudit(x)
    return out


def qnot(a: int) -> int:
    """Basic inverter: bitwise complement, 3 - a."""
    return check_qudit(a) ^ 3


def inward(a: int) -> int:
    """Inward (half) inverter: invert, then pull symmetrical values to the
    nearest asymmetrical ones.  Maps 0,1 -> 2 and 2,3 -> 1."""
    a = check_qudit(a)
    if a < 2:
        return qand(qnot(a), 2)
    return qor(qnot(a), 1)


def outward(a: int) -> int:
    """Outward (full) inverter: invert, then push asymmetrical values to
    the nearest symmetrical ones.  Maps 0,1 -> 3 and 2,3 -> 0."""
    a = check_qudit(a)
    if a < 2:
        return qor(qnot(a), 3)
    return qand(qnot(a), 0)


def bitswap(a: int) -> int:
    """Exchange the two bits of the pair: 0->0, 1->2, 2->1, 3->3."""
    a = check_qudit(a)
    return ((a << 1) & 2) | (a >> 1)


# --- fixed-width digit words (index 0 holds the least significant digit) ---


def check_word(word: Sequence[int], width: int | None = None) -> tuple[int, ...]:
    """Validate a digit word; optionally enforce its width."""
    digits = tuple(check_qudit(d) for d in word)
    if not digits:
        raise ValueError("empty word")
    if width is not None and len(digits) != width:
        raise ValueError(f"expected width {width}, got {len(digits)}")
    return digits


# Each gate kind's semantics: variadic for And/Or/Xor, one digit for the rest.
GATES = {AND: qand, OR: qor, XOR: qxor, NOT: qnot, INWARD: inward, OUTWARD: outward,
         BITSWAP: bitswap}


def evaluate_nodes(nl: Netlist, a, b, cin) -> list:
    """Every node's value by id, from a plain walk over the nodes in id
    order: the digits bind to the A, B and cin ports, a const node is its
    value, and a gate is ``GATES`` of its kind on every one of its inputs
    (no prefix read).  It shares no code with ``netlist``'s evaluator, so
    the batch tests check the plan and the gate step together against it."""
    values = [None] * len(nl.nodes)
    for pid, digit in zip((*nl.a_ports, *nl.b_ports, nl.cin_port), (*a, *b, cin)):
        values[pid] = check_qudit(digit)
    for nid, node in enumerate(nl.nodes):
        if node.kind == CONST:
            values[nid] = node.value
        elif node.kind != INPUT:
            values[nid] = GATES[node.kind](*(values[i] for i in node.inputs))
    return values


# --- built adders ---


@functools.lru_cache(maxsize=16)
def built(spec: builders.AdderSpec) -> Netlist:
    """``builders.build(spec)``, shared while it is one of the 16 specs last
    asked for: the repeats are runs of the same few specs.  Unbounded, the
    cache holds every adder of the run, and each full collection walks them.
    A netlist is frozen and checked when it is made, but its ``signals`` and
    ``meta`` are dicts: a test that changes them, and one that times, traces
    or counts builds or analysis passes, or bounds the memory a first use
    takes, builds its own."""
    return builders.build(spec)


# --- the document writer and the fan-in lowering ---


def to_json(nl: Netlist) -> str:
    """The document as a dict, written by ``json.dumps(doc, indent=2)``."""
    nodes = []
    for nid, node in enumerate(nl.nodes):
        entry: dict = {"id": nid, "kind": node.kind, "inputs": list(node.inputs)}
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


def from_json(text) -> Netlist:
    """The import with ``json.loads`` as its only parser, as it was before orjson:
    ``netlist.from_json`` must give the same netlist or the same DocumentError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError("malformed", f"invalid JSON ({exc})") from exc
    return netlist._from_doc(doc)


def lower_fanin2(nl: Netlist) -> Netlist:
    """Every wide gate split recursively, shared sub-trees found again by
    interning each time."""
    nb = NetlistBuilder(nl.width)
    remap: list = []     # old id -> new id
    produced: list = []  # old id -> list of new ids created for it

    def split(kind: str, ids: list, created: list) -> int:
        if len(ids) == 1:
            return ids[0]
        mid = len(ids) // 2
        nid = nb.add(kind, split(kind, ids[:mid], created), split(kind, ids[mid:], created))
        created.append(nid)
        return nid

    for node in nl.nodes:
        if node.kind in MULTI_KINDS:
            created: list = []
            new = split(node.kind, [remap[i] for i in node.inputs], created)
        else:
            new = nb._intern(node._replace(inputs=tuple(remap[i] for i in node.inputs)))
            created = [new]
        remap.append(new)
        produced.append(created)

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


def prefix_holders(nodes) -> dict:
    """{reader id: holder id}: a wide gate (fan-in 3 or more) whose inputs
    begin with all the inputs of an earlier wide gate of its kind, that
    gate being the latest wide gate of the kind with the same first input.
    The wide gates are listed by (kind, first input) in id order, so each
    one's candidate is the one listed before it."""
    lists: dict = {}
    for nid, node in enumerate(nodes):
        if len(node.inputs) >= 3:
            lists.setdefault((node.kind, node.inputs[0]), []).append(nid)
    holders = {}
    for ids in lists.values():
        for earlier, reader in zip(ids, ids[1:]):
            prefix, inputs = list(nodes[earlier].inputs), list(nodes[reader].inputs)
            if len(prefix) < len(inputs) and inputs[:len(prefix)] == prefix:
                holders[reader] = earlier
    return holders


# --- derived operators and digit words ---


def qnand(a: int, b: int, *more: int) -> int:
    return qnot(qand(a, b, *more))


def qnor(a: int, b: int, *more: int) -> int:
    return qnot(qor(a, b, *more))


def qxnor(a: int, b: int, *more: int) -> int:
    return qnot(qxor(a, b, *more))


def saturate3(a: int) -> int:
    """qand(a, bitswap(a)): 3 when a = 3, otherwise 0."""
    return qand(a, bitswap(a))


def equality(a: int, b: int) -> int:
    """3 when a = b, otherwise 0; realized as saturate3 of the XNOR."""
    return saturate3(qxnor(a, b))


def is_symmetrical(a: int) -> bool:
    """True for 0 and 3, whose bit pairs are invariant under bitswap."""
    return check_qudit(a) in (0, 3)


def word_to_int(word) -> int:
    value = 0
    for i, d in enumerate(word):
        value += check_qudit(d) << (2 * i)
    return value


def int_to_word(value: int, width: int) -> tuple[int, ...]:
    if value < 0 or value >= 1 << (2 * width):
        raise ValueError(f"{value} does not fit in {width} quaternary digits")
    return tuple((value >> (2 * i)) & 3 for i in range(width))


# --- value-level adder cells ---
#
# Carries are kept in {0, 1}: the low bit of a digit pair holds the
# arithmetic carry, and every carry expression ends in a mask (AND with 1)
# that clears the high bit.


class SumCarry(NamedTuple):
    sum: int
    carry: int


class PropGen(NamedTuple):
    propagate: int  # 3 when the digit pair passes a carry, else 0
    generate: int   # 1 when the digit pair creates a carry, else 0


def half_add(a: int, b: int) -> SumCarry:
    """Add two digits; satisfies 4*carry + sum = a + b."""
    s = qxor(a, b, bitswap(qand(a, b, 1)))
    c = qand(qor(inward(qand(a, b)), qand(a, b, bitswap(qxor(a, b)))), 1)
    return SumCarry(s, c)


def full_add(a: int, b: int, cin: int) -> SumCarry:
    """Add two digits and a carry.

    Total as a logic function for any cin in 0..3; the arithmetic contract
    4*carry + sum = a + b + cin is guaranteed for cin in {0, 1}, the only
    values a carry chain can produce.
    """
    t = qor(qand(a, b), qand(b, cin), qand(cin, a))
    s = qxor(a, b, cin, bitswap(qand(t, 1)))
    c = qand(qor(inward(qand(a, b)), qand(t, bitswap(qxor(a, b)))), 1)
    return SumCarry(s, c)


def pg(a: int, b: int) -> PropGen:
    """Propagate/generate pair for one digit position.

    propagate = 3 iff a + b = 3 (an incoming carry ripples through);
    generate = 1 iff a + b >= 4 (a carry leaves regardless of carry-in).
    """
    pstar = qxor(a, b)
    p = saturate3(pstar)
    g = qand(qor(inward(qand(a, b)), qand(a, b, bitswap(pstar))), 1)
    return PropGen(p, g)


def carry_step(g: int, p: int, c_prev: int) -> int:
    """One lookahead step: carry-out = g + p * c_prev.

    Intended domain: g in {0,1}, p in {0,3}, c_prev in {0,1}; the result
    then stays in {0,1}.
    """
    return qor(check_qudit(g), qand(p, c_prev))


def ripple_add(a, b, cin: int = 0) -> tuple[tuple[int, ...], int]:
    """Chain full adders from the least significant digit upward."""
    a = check_word(a)
    b = check_word(b, width=len(a))
    carry = check_qudit(cin)
    out = []
    for da, db in zip(a, b):
        s, carry = full_add(da, db, carry)
        out.append(s)
    return tuple(out), carry


def single_stage_carries(a, b, cin: int = 0) -> tuple[int, ...]:
    """All carries of the flat lookahead expansion.

    Position i's carry-out is g_i plus every g_k (k < i) gated by the
    propagate product over k+1..i, plus the carry-in gated by the full
    product.  Matches the carries produced by ripple_add.
    """
    a = check_word(a)
    b = check_word(b, width=len(a))
    c0 = check_qudit(cin)
    pgs = [pg(da, db) for da, db in zip(a, b)]

    def prod(lo: int, hi: int) -> int:  # 0-based, inclusive
        out = 3
        for j in range(lo, hi + 1):
            out = qand(out, pgs[j].propagate)
        return out

    carries = []
    for i in range(len(a)):
        c = pgs[i].generate
        for k in range(i):
            c = qor(c, qand(pgs[k].generate, prod(k + 1, i)))
        c = qor(c, qand(prod(0, i), c0))
        carries.append(c)
    return tuple(carries)


# --- the printed tables and the scalar oracle ---

# Printed operator table: (a, b, and, or, xor, nand, nor, xnor, eq).
# The eq column follows the equality operator's contract (3 iff a = b).
TABLE_I = (
    (0, 0, 0, 0, 0, 3, 3, 3, 3),
    (0, 1, 0, 1, 1, 3, 2, 2, 0),
    (0, 2, 0, 2, 2, 3, 1, 1, 0),
    (0, 3, 0, 3, 3, 3, 0, 0, 0),
    (1, 1, 1, 1, 0, 2, 2, 3, 3),
    (1, 2, 0, 3, 3, 3, 0, 0, 0),
    (1, 3, 1, 3, 2, 2, 0, 1, 0),
    (2, 2, 2, 2, 0, 1, 1, 3, 3),
    (2, 3, 2, 3, 1, 1, 0, 2, 0),
    (3, 3, 3, 3, 0, 0, 0, 3, 3),
)

# Printed full-adder table: (a, b, cin, s, c).  The (0, 3, 1) row prints
# s = 1, which contradicts integer arithmetic (0 + 3 + 1 = 4 -> s = 0); it
# is asserted against the oracle and reported as a divergence.
TABLE_II = (
    (0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0),
    (0, 2, 0, 2, 0),
    (0, 3, 0, 3, 0),
    (1, 1, 0, 2, 0),
    (1, 2, 0, 3, 0),
    (1, 3, 0, 0, 1),
    (2, 2, 0, 0, 1),
    (2, 3, 0, 1, 1),
    (3, 3, 0, 2, 1),
    (0, 0, 1, 1, 0),
    (0, 1, 1, 2, 0),
    (0, 2, 1, 3, 0),
    (0, 3, 1, 1, 1),
    (1, 1, 1, 3, 0),
    (1, 2, 1, 0, 1),
    (1, 3, 1, 1, 1),
    (2, 2, 1, 1, 1),
    (2, 3, 1, 2, 1),
    (3, 3, 1, 3, 1),
)
TABLE_II_DIVERGENT_ROW = (0, 3, 1)


def oracle_add(a, b, cin: int = 0) -> tuple[tuple[int, ...], int]:
    """Ground-truth base-4 addition through unbounded integers."""
    a = check_word(a)
    b = check_word(b, width=len(a))
    if cin not in (0, 1):
        raise ValueError(f"cin must be 0 or 1, got {cin}")
    n = len(a)
    total = sum(d << (2 * i) for i, d in enumerate(a))
    total += sum(d << (2 * i) for i, d in enumerate(b))
    total += cin
    digits = tuple((total >> (2 * i)) & 3 for i in range(n))
    return digits, total >> (2 * n)


def check_truth_tables() -> tuple[list, list]:
    """Re-derive both printed tables from the algebra and the adder cells;
    the mismatch records and the divergences.

    Table I: 10 rows x 7 operator columns (and, or, xor, nand, nor, xnor,
    equality), 70 entries.  Table II: 20 rows; 19 must match the printed
    values, the (0, 3, cin=1) row must match the integer oracle (s = 0)
    and is recorded as a documented divergence from the printed s = 1.
    """
    mismatches = []
    divergences = []

    def check(a, b, cin, signal, want, got):
        if want != got:
            mismatches.append({"a": [a], "b": [b], "cin": cin, "signal": signal,
                               "expected": want, "actual": got})

    ops = (("and", qand), ("or", qor), ("xor", qxor), ("nand", qnand), ("nor", qnor),
           ("xnor", qxnor), ("eq", equality))
    for a, b, *wants in TABLE_I:
        for (name, fn), want in zip(ops, wants):
            check(a, b, 0, name, want, fn(a, b))
    for a, b, cin, s_printed, c_printed in TABLE_II:
        got = full_add(a, b, cin)
        (s_oracle,), c_oracle = oracle_add([a], [b], cin)
        if (a, b, cin) == TABLE_II_DIVERGENT_ROW:
            want_s, want_c = s_oracle, c_oracle
            divergences.append({"row": [a, b, cin], "printed_s": s_printed, "oracle_s": s_oracle,
                                "note": "printed sum contradicts integer arithmetic; "
                                        "oracle value asserted"})
        else:
            want_s, want_c = s_printed, c_printed
            check(a, b, cin, "table-vs-oracle", [s_oracle, c_oracle], [want_s, want_c])
        check(a, b, cin, "S", want_s, got.sum)
        check(a, b, cin, "C", want_c, got.carry)
    return mismatches, divergences


def corner_vectors(n: int) -> list:
    """The nine fixed (a, b) pairs of a random check, each with cin 0 and then 1."""
    zeros, threes = [0] * n, [3] * n
    alt12, alt21 = [1 + i % 2 for i in range(n)], [2 - i % 2 for i in range(n)]
    lo3, hi3 = [3] + [0] * (n - 1), [0] * (n - 1) + [3]
    pairs = [(zeros, zeros), (threes, threes), (threes, zeros), (zeros, threes), (alt12, alt21),
             (alt12, alt12), (lo3, lo3), (hi3, hi3), (hi3, zeros)]
    return [(list(a), list(b), cin) for a, b in pairs for cin in (0, 1)]


def carry_run_blocks(n: int) -> list:
    """The aligned blocks (start, size) of the carry-run vectors, sizes 2^k <= n
    ascending, then starts."""
    sizes = [1 << k for k in range(n.bit_length())]
    return [(start, size) for size in sizes for start in range(0, n - size + 1, size)]


def random_cases(n: int, count: int, seed: int) -> list:
    """(a, b, cin) of the first ``count`` cases of ``check_random(nl, trials,
    seed)`` at width n, rebuilt one bit at a time from the PCG64 stream.

    Case c is lane c % 64 of word c // 64, and the word's 4n + 1 stream
    outputs (``random_raw``, from output w(4n + 1) on) are the lo planes of
    A[1..n], B[1..n] and cin, then the hi planes of A[1..n] and B[1..n].
    The 18 corner vectors come first.  Then, for each of the six (g, t) in
    order and each aligned block (s, z), one case: the block's digits
    propagate (b = 3 - a), the digit below kills or generates (a's hi bit g,
    b = a; cin = g when s = 0) and the digit above kills, propagates or
    generates (t = 0, 1, 2; a's hi bit 1 for a generate, b = a but for a
    propagate).  Every digit not named keeps its drawn value.
    """
    corners, blocks = corner_vectors(n), carry_run_blocks(n)
    total = max(count, len(corners) + 6 * len(blocks))
    k = 4 * n + 1
    raw = np.random.PCG64(seed).random_raw(-(-total // 64) * k).tolist()

    def bit(case, output):
        return raw[case // 64 * k + output] >> case % 64 & 1

    cases = corners + [([2 * bit(c, 2 * n + 1 + i) + bit(c, i) for i in range(n)],
                        [2 * bit(c, 3 * n + 1 + i) + bit(c, n + i) for i in range(n)],
                        bit(c, 2 * n)) for c in range(len(corners), total)]
    case = len(corners)
    for g, t in [(g, t) for g in range(2) for t in range(3)]:
        for s, z in blocks:
            a, b, cin = cases[case]
            for d in range(s, s + z):
                b[d] = 3 - a[d]
            if s:
                a[s - 1] = 2 * g + a[s - 1] % 2
                b[s - 1] = a[s - 1]
            if s + z < n:
                a[s + z] = 2 * (t == 2) + a[s + z] % 2 if t != 1 else a[s + z]
                b[s + z] = 3 - a[s + z] if t == 1 else a[s + z]
            cases[case] = a, b, g if s == 0 else cin
            case += 1
    return [(tuple(a), tuple(b), cin) for a, b, cin in cases[:count]]


def sums(nl: Netlist, a, b, cin) -> tuple[np.ndarray, np.ndarray]:
    """The sums of a batch: digit matrices a and b (cases, width) and cin
    (cases,), integral qudits of any dtype, run by ``netlist._run`` over
    ``nl._plan`` in the runs ``add_cases`` makes, each run's digits packed
    into its input planes and its S and cout planes read back.  Returns the
    sum digits, C-contiguous (cases, width), and the carry-outs (cases,),
    uint8."""
    n, plan = nl.width, nl._plan
    digits = np.column_stack((a, b, cin)).astype(np.uint8)
    step = min(netlist.RUN_LANES, 64 * (netlist.PLANE_BUDGET // (16 * plan.slots)))
    out = np.empty((len(digits), n + 1), dtype=np.uint8)
    for start in range(0, len(digits), step):
        part = digits[start:start + step]
        lanes = -(-len(part) // 64) * 64
        bits = np.zeros((2, 2 * n + 1, lanes), dtype=np.uint8)   # the lo planes, then the hi
        bits[0, :, :len(part)], bits[1, :, :len(part)] = part.T & 1, part.T >> 1
        packed = np.packbits(bits, axis=2, bitorder="little").reshape(2 * (2 * n + 1), -1)
        planes = [int.from_bytes(plane, "little") for plane in packed]
        pad = [0] * (plan.slots - 2 * n - 1)
        lo, hi = planes[:2 * n + 1] + pad, planes[2 * n + 1:] + pad
        netlist._run(plan.steps, plan.outs, lo, hi, (1 << lanes) - 1)
        outputs = [*(lo[i] for i in plan.outputs), *(hi[i] for i in plan.outputs)]
        out[start:start + step] = lane_digits(outputs, len(part))
    return np.ascontiguousarray(out[:, :n]), out[:, n].copy()


def lane_digits(planes, cases: int) -> np.ndarray:
    """The first ``cases`` lanes of int planes, k lo planes and then the k hi
    planes of the same digits, each within ``cases`` rounded up to 64 lanes,
    as case-major qudits (cases, k)."""
    size = -(-cases // 64) * 8
    data = b"".join(plane.to_bytes(size, "little") for plane in planes)
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    bits = bits.reshape(2, len(planes) // 2, 8 * size)[..., :cases]
    return (bits[1] << 1 | bits[0]).T


def run_nodes(nl: Netlist, a, b, cin, steps=None) -> list:
    """Every node's value by id, from one lane of ``netlist._run`` over
    ``steps`` by node id, by default the nodes read through their holders
    (``netlist._through_holders``), as ``evaluate_words`` runs them: the
    digits bind to the A, B and cin ports, and each node's lo and hi plane,
    one bit each, are read back as its digit."""
    lo, hi = [0] * len(nl.nodes), [0] * len(nl.nodes)
    for pid, digit in zip((*nl.a_ports, *nl.b_ports, nl.cin_port), (*a, *b, cin)):
        lo[pid], hi[pid] = digit & 1, digit >> 1
    steps = netlist._through_holders(nl) if steps is None else steps
    netlist._run(steps, range(len(lo)), lo, hi, 1)
    return [2 * h + l for l, h in zip(lo, hi)]


def mismatches(report) -> list:
    """A ``VerifyReport``'s mismatch records as dicts, read back from its
    text, so they cannot differ from what the report writes."""
    return json.loads(report.to_json())["mismatches"]


def deviation(row, metric: str) -> tuple[int, float] | None:
    """A comparison row's (absolute, relative) deviation from its closed
    form in ``metric``, or None when it has no closed form."""
    cf = getattr(row, f"cf_{metric}")
    meas = getattr(row, f"meas_{metric}")
    if cf is None:
        return None
    return meas - cf, (meas - cf) / cf if cf else 0.0


# --- memory ---


def traced_peak(fn, *args):
    """``fn(*args)`` under ``tracemalloc``: (peak bytes allocated during the
    call, its result).  What was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
