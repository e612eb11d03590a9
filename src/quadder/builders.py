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
* There are two constructions: ``_block_chain``, a chain of ripple cells
  in blocks (ripple is the hybrid with one block), and ``_lookahead``, the
  pg stage, a carry network and one shared sum stage (single_stage, tree
  and sparse are its carry networks).
* Builders record node-id groups in ``meta["groups"]`` so cost reports can
  attribute gates to the propagate/generate stage, the carry network, the
  trees, masks and the sum stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import AND, BITSWAP, INWARD, OR, XOR, Netlist, NetlistBuilder

__all__ = [
    "KINDS",
    "AdderSpec",
    "build",
    "floor_log2",
    "ceil_log2",
]

TAKES = {"sparse": ("sparsity",), "hybrid": ("block",)}   # each kind's parameters beside width


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
    """Architecture selector plus its width, sparsity and block: the one
    place a spec is made and checked, so a construction takes it as given.

    A kind takes only its own parameters beside width (``TAKES``); another
    is a ValueError.  A sparse adder without a sparsity gets 4 and a hybrid
    without a block gets min(4, width).
    """

    kind: str
    width: int
    sparsity: int | None = None   # sparse only
    block: int | None = None      # hybrid only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adder kind: {self.kind!r}")
        takes = TAKES.get(self.kind, ())
        for name in ("sparsity", "block"):
            if getattr(self, name) is not None and name not in takes:
                raise ValueError(f"a {self.kind} adder takes no {name}")
        if type(self.width) is not int:
            raise ValueError(f"width must be an int, got {self.width!r}")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        defaults = {"sparsity": 4, "block": min(4, self.width)}
        for name in takes:
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults[name])   # frozen: set once, here
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.kind == "sparse" and self.sparsity < 2:
            raise ValueError("sparsity must be >= 2")
        if self.kind == "hybrid" and not 1 <= self.block <= self.width:
            raise ValueError("block must satisfy 1 <= block <= width")

    @property
    def params(self) -> dict:
        """The parameters its kind takes, as a built netlist's meta records them."""
        return {name: getattr(self, name) for name in ("width", *TAKES.get(self.kind, ()))}


def build(spec: AdderSpec) -> Netlist:
    """The netlist of a spec, from its kind's construction in ``_CONSTRUCTIONS``."""
    return _CONSTRUCTIONS[spec.kind](spec)


# --- shared construction machinery ---


class _Scaffold:
    """Builder plus input ports, the shared Const 1 and common sub-stages."""

    def __init__(self, spec: AdderSpec):
        self.spec = spec
        self.n = n = spec.width
        self.nb = NetlistBuilder(n)
        self.cin = self.nb.add_input("cin")
        self.a = [None] + [self.nb.add_input(f"A[{i}]") for i in range(1, n + 1)]
        self.b = [None] + [self.nb.add_input(f"B[{i}]") for i in range(1, n + 1)]
        self.one = None   # the Const 1 every mask reads, made by the first mask
        self.signals: dict[str, int] = {}
        # the propagate and generate ids of each position, built by build_pg
        self.p: list = [None] * (n + 1)
        self.g: list = [None] * (n + 1)
        # P*[i] and bitswapped P*[i] at 2i and 2i + 1, so a product's literals are one slice
        self.literals: list = [None] * (2 * n + 2)
        self.pmemo: dict = {}   # (i, j) -> the id of p(i, j), for tree_carries
        self.qmemo: dict = {}   # (i, j) -> the id of q(i, j)
        self.q_keys: list = []  # [i, j, id] of each q node, in the order made

    def mask(self, x: int) -> int:
        if self.one is None:
            self.one = self.nb.add_const(1)
        return self.nb.add(AND, x, self.one, group="masks")

    def build_pg(self, positions) -> None:
        """Propagate/generate stage (7 gates per position, generate raw)."""
        add = self.nb.add
        for i in positions:
            a, b = self.a[i], self.b[i]
            pstar = add(XOR, a, b, group="pg")
            pbsw = add(BITSWAP, pstar, group="pg")
            p = add(AND, pstar, pbsw, group="pg")
            ab = add(AND, a, b, group="pg")
            inw = add(INWARD, ab, group="pg")
            g3 = add(AND, a, b, pbsw, group="pg")
            g = add(OR, inw, g3, group="pg")
            self.p[i], self.g[i] = p, g
            self.literals[2 * i:2 * i + 2] = pstar, pbsw
            self.signals[f"P[{i}]"] = p
            self.signals[f"G[{i}]"] = g

    def prod(self, lo: int, hi: int, group: str) -> int:
        """Propagate product over positions lo..hi as one wide And.

        Multi-position products take the P*/bitswapped-P* literals directly
        (flattening the nested Ands of each P term); a single position is
        the P gate itself.
        """
        if lo == hi:
            return self.p[lo]
        return self.nb.add(AND, *self.literals[2 * lo:2 * hi + 2], group=group)

    def lookahead_carries(self, lo: int, hi: int, seed, emit_at, group: str) -> dict:
        """Flat lookahead over the span lo..hi.

        For each position t in ``emit_at`` builds the raw carry out of t:
        an Or over the masked standalone generate of t, one And per earlier
        generate joined with its propagate product, and (when ``seed`` is
        given) the span's carry-in joined with the full product.  Raw
        outputs are low-bit correct; the standalone generate enters through
        its mask so the Or sits at depth 6 for every t.
        """
        add, out = self.nb.add, {}
        for t in emit_at:
            terms = [self.mask(self.g[t])]
            for k in range(lo, t):
                terms.append(add(AND, self.g[k], self.prod(k + 1, t, group), group=group))
            if seed is not None:
                terms.append(add(AND, seed, self.prod(lo, t, group), group=group))
            out[t] = add(OR, *terms, group=group) if len(terms) > 1 else terms[0]
        return out

    def tree_carries(self, positions) -> dict:
        """The raw carry out of each position i, q(i + 1, 1), from the memoized tree.

        q(i, j) is the carry into qudit i accumulated from positions j..i-1
        (plus the external carry-in when j = 1); each internal node costs one
        And and one Or.  p(i, j) is the propagate product over i..j; each
        internal node is one 2-input And.  Leaves are the pg-stage signals and
        the carry-in.  Methods, not closures: a recursive closure is a cycle.
        """
        self.nb.groups.update(product_tree=[], carry_tree=[])   # listed even when empty, in order
        return {i: self.qnode(i + 1, 1) for i in positions}

    def pnode(self, i: int, j: int) -> int:
        if i == j:
            return self.p[i]
        nid = self.pmemo.get((i, j))
        if nid is None:
            m = 1 << floor_log2(j - i)
            left = self.pnode(i, j - m)
            right = self.pnode(j - m + 1, j)
            nid = self.pmemo[i, j] = self.nb.add(AND, left, right, group="product_tree")
        return nid

    def qnode(self, i: int, j: int) -> int:
        if i == j:
            return self.cin if i == 1 else self.g[i - 1]
        nid = self.qmemo.get((i, j))
        if nid is None:
            m = 1 << floor_log2(i - j)
            upper = self.qnode(i, i - m + 1)
            lower = self.qnode(i - m, j)
            pr = self.pnode(i - m, i - 1)
            t = self.nb.add(AND, lower, pr, group="carry_tree")
            nid = self.qmemo[i, j] = self.nb.add(OR, upper, t, group="carry_tree")
            self.q_keys.append([i, j, nid])
        return nid

    def full_cell(self, i: int, cin_i: int, group: str, want_cout: bool):
        """One ripple full-adder cell; returns (sum id, masked cout id)."""
        add, a, b = self.nb.add, self.a[i], self.b[i]
        ab = add(AND, a, b, group=group)
        bc = add(AND, b, cin_i, group=group)
        ca = add(AND, cin_i, a, group=group)
        t = add(OR, ab, bc, ca, group=group)
        xorab = add(XOR, a, b, group=group)
        cout = None
        if want_cout:
            bswab = add(BITSWAP, xorab, group=group)
            inw = add(INWARD, ab, group=group)
            tb = add(AND, t, bswab, group=group)
            craw = add(OR, inw, tb, group=group)
            cout = self.mask(craw)
        tm = self.mask(t)
        tbs = add(BITSWAP, tm, group=group)
        s = add(XOR, xorab, cin_i, tbs, group=group)
        return s, cout

    def sum_stage(self, carry: dict) -> tuple[list[int], int]:
        """Sum stage of the lookahead adders, given ``carry[i]``, the raw
        carry out of qudit i for i = 1..n.

        Qudit i's cell is the ripple cell without its carry-out, fed the
        masked carry out of qudit i-1 (the carry-in for i = 1); its Xor(A,B)
        and And(A,B) are the pg stage's.  Records the carry and cin signals
        and returns the sum ids and the masked carry-out.
        """
        n = self.n
        for i in range(1, n + 1):
            self.signals[f"carry[{i}]"] = carry[i]
        s_ids = []
        for i in range(1, n + 1):
            cin_i = self.cin if i == 1 else self.mask(carry[i - 1])
            if i > 1:
                self.signals[f"cin[{i}]"] = cin_i
            s_ids.append(self.full_cell(i, cin_i, "sum", want_cout=False)[0])
        return s_ids, self.mask(carry[n])

    def finish(self, s_ids, cout_id, delay_scope, extra_meta=None) -> Netlist:
        meta = {
            "kind": self.spec.kind,
            "params": self.spec.params,
            "groups": self.nb.groups,
            "delay_scope": list(delay_scope),
            **(extra_meta or {}),
        }
        return self.nb.finish(
            self.a[1:],
            self.b[1:],
            self.cin,
            s_ids,
            cout_id,
            signals=self.signals,
            meta=meta,
        )


# --- architectures ---


def _lookahead(spec: AdderSpec, network) -> Netlist:
    """The pg stage for positions 1..n, a carry network and the shared sum
    stage.  ``network(sc)`` returns the raw carry out of every qudit, the
    delay-scope signals that follow P[1..n] and G[1..n], and extra meta."""
    sc = _Scaffold(spec)
    n = sc.n
    sc.build_pg(range(1, n + 1))
    carry, scope, extra_meta = network(sc)
    s_ids, cout = sc.sum_stage(carry)
    head = [f"P[{i}]" for i in range(1, n + 1)] + [f"G[{i}]" for i in range(1, n + 1)]
    return sc.finish(s_ids, cout, head + scope, extra_meta)


def _single_stage(sc: _Scaffold):
    """Flat carry-lookahead: every carry is one Or over generate terms and
    propagate products, all available two gate levels after the pg stage."""
    n = sc.n
    carry = sc.lookahead_carries(1, n, sc.cin, range(1, n + 1), "carry_network")
    return carry, [f"carry[{i}]" for i in range(1, n + 1)], None


def _tree(sc: _Scaffold):
    """Logarithmic carry tree (Kogge-Stone style recursion) with a product
    tree evaluated in parallel; the carry into qudit i is q(i, 1)."""
    n = sc.n
    carry = sc.tree_carries(range(1, n + 1))
    return carry, [f"cin[{i}]" for i in range(2, n + 1)], {"q_nodes": sc.q_keys}


def _sparse(sc: _Scaffold):
    """Sparse carry tree: the tree materializes only every ``sparsity``-th
    carry (the block boundaries); a flat lookahead network fills each block,
    seeded by the masked boundary carry."""
    n, sparsity = sc.n, sc.spec.sparsity
    boundaries = list(range(1 + sparsity, n + 2, sparsity))
    carry = sc.tree_carries([p - 1 for p in boundaries])
    for lo in range(1, n + 1, sparsity):
        hi = min(lo + sparsity - 1, n)
        seed = sc.cin if lo == 1 else sc.mask(carry[lo - 1])
        emit_at = list(range(lo, hi))
        if hi == n and (n + 1) not in boundaries:
            emit_at.append(hi)  # ragged final block supplies the carry-out
        local = sc.lookahead_carries(lo, hi, seed, emit_at, "block_network")
        carry.update(local)
        for q in range(lo + 1, hi + 1):
            sc.mask(local[q - 1])  # the sum stage's cin[q], emitted in block order
    scope = [f"cin[{i}]" for i in range(2, n + 1)] + ["cout"]
    return carry, scope, {"q_nodes": sc.q_keys, "boundaries": boundaries}


def _block_chain(spec: AdderSpec, block: int) -> Netlist:
    """Ripple cells in blocks of ``block`` qudits; the carry out of cell i
    feeds cell i+1.  Lookahead steps join the blocks (block propagate = And
    of the block's P terms, block generate = flat lookahead with no carry-in
    term): the serial/parallel hybrid.  One block is the ripple adder."""
    sc = _Scaffold(spec)
    n = sc.n
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
                bp = sc.p[lo]
            else:
                bp = sc.nb.add(AND, *sc.p[lo:hi + 1], group="block_level")
            bg = sc.lookahead_carries(lo, hi, None, [hi], "block_level")[hi]
            step = sc.nb.add(AND, bp, bc_prev, group="block_level")
            bc_prev = sc.nb.add(OR, bg, step, group="block_level")
            sc.signals[f"carry[{hi}]"] = bc_prev
    scope = [f"carry[{i}]" for i in range(1, n + 1)]
    return sc.finish(s_ids, cout, scope)


# The one table of kinds: each kind's construction, in the order KINDS lists them.
_CONSTRUCTIONS = {
    "ripple": lambda spec: _block_chain(spec, spec.width),
    "single_stage": lambda spec: _lookahead(spec, _single_stage),
    "tree": lambda spec: _lookahead(spec, _tree),
    "sparse": lambda spec: _lookahead(spec, _sparse),
    "hybrid": lambda spec: _block_chain(spec, spec.block),
}
KINDS = tuple(_CONSTRUCTIONS)
