"""Value-level adder cells: half/full adders, propagate/generate and the
carry recurrences.

These are the paper's value-level equations.  Generated netlists are
verified against the integer oracle in ``verify``, not against these cells;
the tests check the width-1 ripple netlist and the raw lookahead carries
against ``full_add``, and the tree's carry nodes against ``pg``.  Carries
are kept in {0, 1}: the low bit of a digit pair holds the arithmetic carry,
and every carry expression ends in a mask (AND with 1) that clears the
high bit.
"""

from __future__ import annotations

from typing import NamedTuple

from .qudit import (
    bitswap,
    check_qudit,
    check_word,
    inward,
    qand,
    qor,
    qxor,
    saturate3,
)

__all__ = [
    "SumCarry",
    "PropGen",
    "half_add",
    "full_add",
    "pg",
    "carry_step",
    "ripple_add",
    "single_stage_carries",
]


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
