"""Netlist builders for the five adder architectures.

Shared conventions:

* Qudit positions are 1-based; position 1 is the least significant digit.
* ``carry[i]`` names the carry out of qudit i (equivalently the carry into
  qudit i+1); ``cin[i]`` names the {0,1}-clean carry consumed by qudit i's
  sum cell.
* Parallel carry networks keep generate signals unmasked internally (the
  low bit of a digit pair carries the arithmetic value, the high bit may
  float); a single And-with-1 mask cleans each carry where it is consumed.
  Ripple cells mask their carry inside the cell.
* Builders record node-id groups in ``meta["groups"]`` so cost reports can
  attribute gates to the propagate/generate stage, the carry network, the
  trees, masks and the sum stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import AND, BITSWAP, INWARD, OR, XOR, Netlist, NetlistBuilder

KINDS = ("ripple", "single_stage", "tree", "sparse", "hybrid")

__all__ = [
    "KINDS",
    "AdderSpec",
    "spec_for",
    "build",
    "build_ripple",
    "build_single_stage",
    "build_tree",
    "build_sparse",
    "build_hybrid",
    "floor_log2",
    "ceil_log2",
]


def floor_log2(x: int) -> int:
    if x < 1:
        raise ValueError("floor_log2 needs a positive integer")
    return x.bit_length() - 1


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class AdderSpec:
    """Architecture selector plus width and block parameters."""

    kind: str
    width: int
    sparsity: int = 4      # sparse only
    block: int | None = None  # hybrid only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adder kind: {self.kind!r}")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.kind == "sparse" and self.sparsity < 2:
            raise ValueError("sparsity must be >= 2")
        if self.kind == "hybrid":
            if self.block is None:
                raise ValueError("hybrid adder needs a block size")
            if not 1 <= self.block <= self.width:
                raise ValueError("block must satisfy 1 <= block <= width")


def spec_for(kind: str, width: int, sparsity: int = 4, block: int | None = None) -> AdderSpec:
    """The spec for a kind, keeping only the parameters that kind takes.

    A hybrid without an explicit block gets min(4, width); an explicit
    block is validated as given.
    """
    if kind == "hybrid":
        return AdderSpec(kind, width, block=min(4, width) if block is None else block)
    if kind == "sparse":
        return AdderSpec(kind, width, sparsity=sparsity)
    return AdderSpec(kind, width)


def build(spec: AdderSpec) -> Netlist:
    if spec.kind == "ripple":
        return build_ripple(spec.width)
    if spec.kind == "single_stage":
        return build_single_stage(spec.width)
    if spec.kind == "tree":
        return build_tree(spec.width)
    if spec.kind == "sparse":
        return build_sparse(spec.width, spec.sparsity)
    return build_hybrid(spec.width, spec.block)


# --- shared construction machinery ---


class _Scaffold:
    """Builder plus input ports, group tracking and common sub-stages."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("width must be >= 1")
        self.n = n
        self.nb = NetlistBuilder(n)
        self.cin = self.nb.add_input("cin")
        self.a = [None] + [self.nb.add_input(f"A[{i}]") for i in range(1, n + 1)]
        self.b = [None] + [self.nb.add_input(f"B[{i}]") for i in range(1, n + 1)]
        self.groups: dict[str, list[int]] = {}
        self.signals: dict[str, int] = {}
        # pg handles, keyed by position: dicts with pstar/pbsw/p/g ids
        self.pg: dict[int, dict] = {}
        self._gmask: dict[int, int] = {}
        self._prod: dict[tuple[int, int], int] = {}

    def emit(self, group: str, kind: str, *inputs: int) -> int:
        """Add a gate; attribute it to ``group`` only if it is new (shared
        subexpressions stay with the group that first built them)."""
        before = self.nb.size
        nid = self.nb.add(kind, *inputs)
        if self.nb.size > before:
            self.groups.setdefault(group, []).append(nid)
        return nid

    def mask(self, x: int) -> int:
        one = self.nb.add_const(1)
        return self.emit("masks", AND, x, one)

    def build_pg(self, positions) -> None:
        """Propagate/generate stage (7 gates per position, generate raw)."""
        for i in positions:
            a, b = self.a[i], self.b[i]
            pstar = self.emit("pg", XOR, a, b)
            pbsw = self.emit("pg", BITSWAP, pstar)
            p = self.emit("pg", AND, pstar, pbsw)
            ab = self.emit("pg", AND, a, b)
            inw = self.emit("pg", INWARD, ab)
            g3 = self.emit("pg", AND, a, b, pbsw)
            g = self.emit("pg", OR, inw, g3)
            self.pg[i] = {"pstar": pstar, "pbsw": pbsw, "p": p, "g": g}
            self.signals[f"P[{i}]"] = p
            self.signals[f"G[{i}]"] = g

    def gmask(self, i: int) -> int:
        if i not in self._gmask:
            self._gmask[i] = self.mask(self.pg[i]["g"])
        return self._gmask[i]

    def prod(self, lo: int, hi: int, group: str) -> int:
        """Propagate product over positions lo..hi as one wide And.

        Multi-position products take the P*/bitswapped-P* literals directly
        (flattening the nested Ands of each P term); a single position is
        the P gate itself.
        """
        if lo == hi:
            return self.pg[lo]["p"]
        key = (lo, hi)
        if key not in self._prod:
            literals = []
            for j in range(lo, hi + 1):
                literals.append(self.pg[j]["pstar"])
                literals.append(self.pg[j]["pbsw"])
            self._prod[key] = self.emit(group, AND, *literals)
        return self._prod[key]

    def lookahead_carries(self, lo: int, hi: int, seed, emit_at, group: str) -> dict:
        """Flat lookahead over the span lo..hi.

        For each position t in ``emit_at`` builds the raw carry out of t:
        an Or over the masked standalone generate of t, one And per earlier
        generate joined with its propagate product, and (when ``seed`` is
        given) the span's carry-in joined with the full product.  Raw
        outputs are low-bit correct; the standalone generate enters through
        its mask so the Or sits at depth 6 for every t.
        """
        out = {}
        for t in emit_at:
            terms = [self.gmask(t)]
            for k in range(lo, t):
                terms.append(self.emit(group, AND, self.pg[k]["g"], self.prod(k + 1, t, group)))
            if seed is not None:
                terms.append(self.emit(group, AND, seed, self.prod(lo, t, group)))
            out[t] = self.emit(group, OR, *terms) if len(terms) > 1 else terms[0]
        return out

    def sum_cell(self, i: int, cin_i: int) -> int:
        """Sum digit for position i (reuses Xor(A,B) and And(A,B) when the
        pg stage already built them)."""
        a, b = self.a[i], self.b[i]
        xorab = self.emit("sum", XOR, a, b)
        ab = self.emit("sum", AND, a, b)
        bc = self.emit("sum", AND, b, cin_i)
        ca = self.emit("sum", AND, cin_i, a)
        t = self.emit("sum", OR, ab, bc, ca)
        tm = self.mask(t)
        tb = self.emit("sum", BITSWAP, tm)
        return self.emit("sum", XOR, xorab, cin_i, tb)

    def full_cell(self, i: int, cin_i: int, group: str, want_cout: bool = True):
        """One ripple full-adder cell; returns (sum id, masked cout id)."""
        a, b = self.a[i], self.b[i]
        ab = self.emit(group, AND, a, b)
        bc = self.emit(group, AND, b, cin_i)
        ca = self.emit(group, AND, cin_i, a)
        t = self.emit(group, OR, ab, bc, ca)
        xorab = self.emit(group, XOR, a, b)
        cout = None
        if want_cout:
            bswab = self.emit(group, BITSWAP, xorab)
            inw = self.emit(group, INWARD, ab)
            tb = self.emit(group, AND, t, bswab)
            craw = self.emit(group, OR, inw, tb)
            cout = self.mask(craw)
        tm = self.mask(t)
        tbs = self.emit(group, BITSWAP, tm)
        s = self.emit(group, XOR, xorab, cin_i, tbs)
        return s, cout

    def finish(self, s_ids, cout_id, kind: str, params: dict, delay_scope, extra_meta=None) -> Netlist:
        meta = {
            "kind": kind,
            "params": params,
            "groups": {g: sorted(ids) for g, ids in self.groups.items()},
            "delay_scope": list(delay_scope),
        }
        meta.update(extra_meta or {})
        return self.nb.finish(
            self.a[1:],
            self.b[1:],
            self.cin,
            s_ids,
            cout_id,
            signals=self.signals,
            meta=meta,
        )


def _tree_nodes(sc: _Scaffold):
    """Memoized carry/product tree recursion.

    q(i, j) is the carry into qudit i accumulated from positions j..i-1
    (plus the external carry-in when j = 1); each internal node costs one
    And and one Or.  p(i, j) is the propagate product over i..j; each
    internal node is one 2-input And.  Leaves are the pg-stage signals and
    the carry-in.
    """
    sc.groups.setdefault("product_tree", [])
    sc.groups.setdefault("carry_tree", [])
    pmemo: dict = {}
    qmemo: dict = {}
    q_keys: list = []

    def pnode(i: int, j: int) -> int:
        if i == j:
            return sc.pg[i]["p"]
        key = (i, j)
        if key not in pmemo:
            m = 1 << floor_log2(j - i)
            left = pnode(i, j - m)
            right = pnode(j - m + 1, j)
            pmemo[key] = sc.emit("product_tree", AND, left, right)
        return pmemo[key]

    def qnode(i: int, j: int) -> int:
        if i == j:
            return sc.cin if i == 1 else sc.pg[i - 1]["g"]
        key = (i, j)
        if key not in qmemo:
            m = 1 << floor_log2(i - j)
            upper = qnode(i, i - m + 1)
            lower = qnode(i - m, j)
            pr = pnode(i - m, i - 1)
            t = sc.emit("carry_tree", AND, lower, pr)
            nid = sc.emit("carry_tree", OR, upper, t)
            qmemo[key] = nid
            q_keys.append([i, j, nid])
        return qmemo[key]

    return pnode, qnode, q_keys


# --- architectures ---


def build_ripple(n: int) -> Netlist:
    """Chain of full-adder cells; carry out of cell i feeds cell i+1."""
    sc = _Scaffold(n)
    s_ids = []
    carry = sc.cin
    for i in range(1, n + 1):
        s, carry = sc.full_cell(i, carry, "cells")
        s_ids.append(s)
        sc.signals[f"carry[{i}]"] = carry
        if i < n:
            sc.signals[f"cin[{i + 1}]"] = carry
    scope = [f"carry[{i}]" for i in range(1, n + 1)]
    return sc.finish(s_ids, carry, "ripple", {"width": n}, scope)


def build_single_stage(n: int) -> Netlist:
    """Flat carry-lookahead: every carry is one Or over generate terms and
    propagate products, all available two gate levels after the pg stage."""
    sc = _Scaffold(n)
    sc.build_pg(range(1, n + 1))
    carries = sc.lookahead_carries(1, n, sc.cin, range(1, n + 1), "carry_network")
    for i in range(1, n + 1):
        sc.signals[f"carry[{i}]"] = carries[i]
    s_ids = []
    for i in range(1, n + 1):
        cin_i = sc.cin if i == 1 else sc.mask(carries[i - 1])
        if i > 1:
            sc.signals[f"cin[{i}]"] = cin_i
        s_ids.append(sc.sum_cell(i, cin_i))
    cout = sc.mask(carries[n])
    scope = (
        [f"P[{i}]" for i in range(1, n + 1)]
        + [f"G[{i}]" for i in range(1, n + 1)]
        + [f"carry[{i}]" for i in range(1, n + 1)]
    )
    return sc.finish(s_ids, cout, "single_stage", {"width": n}, scope)


def build_tree(n: int) -> Netlist:
    """Logarithmic carry tree (Kogge-Stone style recursion) with a product
    tree evaluated in parallel; the carry into qudit i is q(i, 1)."""
    sc = _Scaffold(n)
    sc.build_pg(range(1, n + 1))
    pnode, qnode, q_keys = _tree_nodes(sc)
    for i in range(2, n + 2):
        qnode(i, 1)
    for i in range(1, n + 1):
        sc.signals[f"carry[{i}]"] = qnode(i + 1, 1)
    s_ids = []
    for i in range(1, n + 1):
        cin_i = sc.cin if i == 1 else sc.mask(qnode(i, 1))
        if i > 1:
            sc.signals[f"cin[{i}]"] = cin_i
        s_ids.append(sc.sum_cell(i, cin_i))
    cout = sc.mask(qnode(n + 1, 1))
    scope = (
        [f"P[{i}]" for i in range(1, n + 1)]
        + [f"G[{i}]" for i in range(1, n + 1)]
        + [f"cin[{i}]" for i in range(2, n + 1)]
    )
    return sc.finish(
        s_ids, cout, "tree", {"width": n}, scope, extra_meta={"q_nodes": q_keys}
    )


def build_sparse(n: int, sparsity: int = 4) -> Netlist:
    """Sparse carry tree: the tree materializes only every ``sparsity``-th
    carry (the block boundaries); a flat lookahead network fills each block,
    seeded by the masked boundary carry."""
    if sparsity < 2:
        raise ValueError("sparsity must be >= 2")
    sc = _Scaffold(n)
    sc.build_pg(range(1, n + 1))
    pnode, qnode, q_keys = _tree_nodes(sc)
    boundaries = list(range(1 + sparsity, n + 2, sparsity))
    for p in boundaries:
        qnode(p, 1)

    carry_raw: dict[int, int] = {p - 1: qnode(p, 1) for p in boundaries}
    cin_sum: dict[int, int] = {}
    for lo in range(1, n + 1, sparsity):
        hi = min(lo + sparsity - 1, n)
        seed = sc.cin if lo == 1 else sc.mask(qnode(lo, 1))
        cin_sum[lo] = seed
        emit_at = list(range(lo, hi))
        if hi == n and (n + 1) not in boundaries:
            emit_at.append(hi)  # ragged final block supplies the carry-out
        local = sc.lookahead_carries(lo, hi, seed, emit_at, "block_network")
        carry_raw.update(local)
        for q in range(lo + 1, hi + 1):
            cin_sum[q] = sc.mask(local[q - 1])
    for i in range(1, n + 1):
        sc.signals[f"carry[{i}]"] = carry_raw[i]
    for i in range(2, n + 1):
        sc.signals[f"cin[{i}]"] = cin_sum[i]

    s_ids = [sc.sum_cell(i, cin_sum[i]) for i in range(1, n + 1)]
    cout = sc.mask(carry_raw[n])
    scope = (
        [f"P[{i}]" for i in range(1, n + 1)]
        + [f"G[{i}]" for i in range(1, n + 1)]
        + [f"cin[{i}]" for i in range(2, n + 1)]
        + ["cout"]
    )
    return sc.finish(
        s_ids,
        cout,
        "sparse",
        {"width": n, "sparsity": sparsity},
        scope,
        extra_meta={"q_nodes": q_keys, "boundaries": boundaries},
    )


def build_hybrid(n: int, block: int) -> Netlist:
    """Serial/parallel hybrid: ripple cells inside each block, lookahead
    steps across blocks (block propagate = And of the block's P terms,
    block generate = flat lookahead with no carry-in term)."""
    if not 1 <= block <= n:
        raise ValueError("block must satisfy 1 <= block <= width")
    sc = _Scaffold(n)
    starts = list(range(1, n + 1, block))
    blocks = [(lo, min(lo + block - 1, n)) for lo in starts]
    for lo, hi in blocks[:-1]:
        sc.build_pg(range(lo, hi + 1))

    s_ids: list[int] = []
    bc_prev = sc.cin  # raw block-boundary carry chain
    cout = None
    for bi, (lo, hi) in enumerate(blocks):
        last_block = bi == len(blocks) - 1
        seed = sc.cin if bi == 0 else sc.mask(bc_prev)
        if lo > 1:
            sc.signals[f"cin[{lo}]"] = seed
        carry = seed
        for q in range(lo, hi + 1):
            want = q < hi or last_block
            s, c = sc.full_cell(q, carry, "cells", want_cout=want)
            s_ids.append(s)
            if want:
                carry = c
                sc.signals[f"carry[{q}]"] = c
                if q < hi:
                    sc.signals[f"cin[{q + 1}]"] = c
        if last_block:
            cout = carry
        else:
            if lo == hi:
                bp = sc.pg[lo]["p"]
            else:
                bp = sc.emit("block_level", AND, *[sc.pg[i]["p"] for i in range(lo, hi + 1)])
            bg = sc.lookahead_carries(lo, hi, None, [hi], "block_level")[hi]
            step = sc.emit("block_level", AND, bp, bc_prev)
            bc_prev = sc.emit("block_level", OR, bg, step)
            sc.signals[f"carry[{hi}]"] = bc_prev
    scope = [f"carry[{i}]" for i in range(1, n + 1)]
    return sc.finish(
        s_ids, cout, "hybrid", {"width": n, "block": block}, scope
    )
