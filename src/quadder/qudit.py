"""Quaternary digit algebra: what each netlist gate computes on a digit.

A qudit is an integer in {0, 1, 2, 3}, read as the 2-bit pair
(high, low) = (value // 2, value % 2).  The binary operators work bitwise
on those pairs.  The unary "special" operators reshape a digit with
respect to bit-exchange symmetry: 0 and 3 are symmetrical (unchanged when
their two bits swap), 1 and 2 are asymmetrical.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

__all__ = [
    "check_qudit",
    "qand",
    "qor",
    "qxor",
    "qnot",
    "inward",
    "outward",
    "bitswap",
    "check_word",
]


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
