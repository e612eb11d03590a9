"""Independent arithmetic oracle and equivalence harness.

The oracle, ``_oracle_batch``, is a bit-sliced binary ripple adder on the
bit planes ``add_batch`` packs; it never touches the quaternary operators,
so a defect in the algebra cannot hide a matching defect in a netlist.
Exhaustive checks cover every assignment at small widths; randomized checks
use a seeded PCG64 generator plus a fixed set of corner vectors.  Both run
over chunks of at most ``CHUNK_CASES`` cases, each made from its case
indices, so a check's memory does not grow with its case count.  Each chunk
is one ``add_batch`` call, which bounds its plane buffer, compares in plane
space and unpacks only the failing cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import netlist
from .netlist import Netlist

EXHAUSTIVE_WIDTH_BOUND = 4
CHUNK_CASES = 2**15            # cases per add_batch call of a check; a multiple of 4
RANDOM_DIGITS_CAP = 2**34      # trials x width; at ~65M digit-adds/s, about 4.5 minutes


@dataclass(frozen=True, eq=False)
class MismatchTable:
    """Mismatch records as arrays, one row per record, in canonical order:
    by the a digits, then the b digits, then cin, then the signal name as a
    string (so ``S[10]`` < ``S[1]`` < ``S[2]`` < ``cout``)."""

    a: np.ndarray          # (records, width) digits, index 0 least significant
    b: np.ndarray
    cin: np.ndarray        # (records,)
    signal: np.ndarray     # (records,): j for S[j + 1], width for cout
    expected: np.ndarray   # (records,)
    actual: np.ndarray     # (records,)

    def __len__(self) -> int:
        return self.cin.size

    def to_json(self) -> str:
        """The records as the ``mismatches`` value of a report: the text
        ``json.dumps`` writes with indent 2 for the list one level deep.

        Every value but the signal name is one decimal digit, so all records
        share one fixed-width template, its name slot as wide as the longest
        name in the report.  The template is tiled into one buffer, each value column is
        written there by one strided copy and the buffer is decoded once; a
        shorter name is padded with NUL bytes, which one pass removes.
        """
        count, n = self.a.shape
        if not count:
            return "[]"
        names = [name.encode() for name in _signal_names(n)]
        lengths = np.array([len(name) for name in names])[self.signal]
        longest = lengths.max()
        names = np.array(names, dtype=f"S{longest}")   # NUL-padded; names cut short are unused
        digits = ",\n".join(["        #"] * n)   # a digit line every 11 bytes
        template = np.frombuffer(
            f',\n    {{\n      "a": [\n{digits}\n      ],\n      "b": [\n{digits}\n      ],\n'
            f'      "cin": #,\n      "signal": "{"@" * names.itemsize}",\n      "expected": #,\n'
            f'      "actual": #\n    }}'.encode(), dtype=np.uint8)
        buf = np.empty(count * template.size + 4, dtype=np.uint8)
        rows = buf[:-4].reshape(count, template.size)
        rows[:] = template
        buf[0], buf[-4:] = ord("["), list(b"\n  ]")
        marks = np.flatnonzero(template == ord("#"))   # a digits, b digits, cin, expected, actual
        columns = (self.a, self.b, *(v[:, None] for v in (self.cin, self.expected, self.actual)))
        for start, values in zip(marks[[0, n, -3, -2, -1]], columns):
            np.add(values, ord("0"), out=rows[:, start:start + 11 * values.shape[1]:11],
                   casting="unsafe")
        slot = np.flatnonzero(template == ord("@"))
        rows[:, slot] = names.view(np.uint8).reshape(n + 1, -1)[self.signal]
        text = str(buf, "ascii")
        del buf, rows   # before the copy without the padding
        return text if lengths.min() == longest else text.replace("\0", "")


@dataclass(eq=False)
class VerifyReport:
    """A check's outcome, written by ``to_json()``: the records as dicts are that
    text's ``mismatches``; reports are equal when their texts are (``==`` is identity)."""

    mode: str                 # "exhaustive" | "random"
    cases_run: int
    records: MismatchTable
    seed: int | None = None
    kind: str | None = None
    width: int | None = None

    @property
    def passed(self) -> bool:
        return len(self.records) == 0

    def to_json(self) -> str:
        """The report as JSON with indent 2, byte for byte what ``json.dumps``
        writes for the same document.  Only the mismatch records are written
        without it."""
        head = json.dumps({
            "mode": self.mode,
            "kind": self.kind,
            "width": self.width,
            "cases_run": self.cases_run,
            "seed": self.seed,
            "passed": self.passed,
        }, indent=2)
        return f'{head[:-2]},\n  "mismatches": {self.records.to_json()},\n  "divergences": []\n}}\n'


def _oracle_batch(ins: np.ndarray) -> np.ndarray:
    """Bit-sliced (Biham) oracle on ``add_batch``'s packed input planes: the
    planes of S[1..n] and cout by a binary ripple over the bits, per bit
    c = (a & b) | (c & (a ^ b)) and s = a ^ b ^ c, 8 digits at a time."""
    n, words = len(ins) // 2, ins.shape[2]
    out = np.zeros((n + 1, 2, words), dtype=np.uint64)
    c = list(out.reshape(2 * n + 2, -1))   # row 2i is digit i's hi plane, 2i + 1 its lo plane
    c[1][:] = ins[2 * n, 1]   # the carry into digit 0's lo bit: cin, 0 or 1, is its lo plane
    pg, t = np.empty((2, 8, 2, words), dtype=np.uint64), np.empty(words, dtype=np.uint64)
    p, g = (list(x.reshape(16, -1)) for x in pg)   # a ^ b and a & b of 8 digits
    for lo, hi in zip(range(0, n, 8), [*range(8, n, 8), n]):
        np.bitwise_xor(ins[lo:hi], ins[n + lo:n + hi], out=pg[0, :hi - lo])
        np.bitwise_and(ins[lo:hi], ins[n + lo:n + hi], out=pg[1, :hi - lo])
        for j in range(2 * lo, 2 * hi):   # bit j is row j ^ 1 (lo first); the last carries to cout
            np.bitwise_and(c[j ^ 1], p[(j ^ 1) - 2 * lo], out=t)
            np.bitwise_or(g[(j ^ 1) - 2 * lo], t, out=c[j + 1 ^ 1])
        out[lo:hi] ^= pg[0, :hi - lo]
    return out


def _signal_names(n: int) -> list[str]:
    return [*(f"S[{j + 1}]" for j in range(n)), "cout"]


def _collect_mismatches(a, b, cin, want, got) -> MismatchTable:
    """The per-signal mismatch records of the given cases, canonically ordered.

    Case-major digits: a and b are (cases, width); want and got are (cases,
    width + 1), S[1..n] then cout.  Each wrong signal of a case is a record.
    """
    n = a.shape[1]
    case, signal = np.nonzero(want != got)
    rank = np.empty(n + 1, dtype=np.intp)   # each signal's place in name order
    names = _signal_names(n)
    rank[sorted(range(n + 1), key=names.__getitem__)] = np.arange(n + 1)
    # lexsort's last key is the primary one: a[0], ..., a[n-1], b[0], ..., cin, name.
    # Separate keys keep their own dtypes; stacked, each would be widened to intp.
    order = np.lexsort((rank[signal], cin[case], *b[case, ::-1].T, *a[case, ::-1].T))
    case, signal = case[order], signal[order]
    return MismatchTable(a=a[case], b=b[case], cin=cin[case], signal=signal,
                         expected=want[case, signal], actual=got[case, signal])


def _check(nl: Netlist, chunk, count: int) -> MismatchTable:
    """The mismatch records of ``count`` cases, a chunk of cases at a time:
    ``chunk(lo, hi)`` gives the (a, b, cin) of cases lo..hi-1.  ``add_batch``
    gives back the cases failing the oracle; their records get one sort."""
    kept = []
    for lo in range(0, count, CHUNK_CASES):
        a, b, cin = chunk(lo, min(lo + CHUNK_CASES, count))
        bad, want, got = netlist.add_batch(nl, a, b, cin, _oracle_batch)
        kept.append((a[bad], b[bad], cin[bad], want, got))
        del a, b   # before the next chunk is made
    return _collect_mismatches(*map(np.concatenate, zip(*kept)))


def check_exhaustive(nl: Netlist) -> VerifyReport:
    """Run all 4^n * 4^n * 2 assignments against the oracle, case k with the
    a word k >> (2n + 1), the b word (k >> 1) mod 4^n and cin k & 1."""
    n = nl.width
    if n > EXHAUSTIVE_WIDTH_BOUND:
        raise ValueError(f"width {n} exceeds the exhaustive bound {EXHAUSTIVE_WIDTH_BOUND}; "
                         "check it with random trials instead")
    words = (np.arange(4**n)[:, None] >> 2 * np.arange(n) & 3).astype(np.uint8)
    # a is fixed over each period of 2 * 4^n cases, which runs (b, cin) through every value once
    period, count = 2 * 4**n, 2 * 16**n
    k = np.arange(min(CHUNK_CASES + period, count))   # a chunk's (b, cin) start at lo mod period
    b, cin = np.take(words, (k >> 1) & (4**n - 1), axis=0), (k & 1).astype(np.uint8)

    def chunk(lo: int, hi: int):
        rows = slice(lo % period, lo % period + hi - lo)
        return words[lo // period:-(-hi // period)].repeat(period, axis=0)[rows], b[rows], cin[rows]

    records = _check(nl, chunk, count)
    return VerifyReport("exhaustive", count, records, kind=nl.meta.get("kind"), width=n)


def _corner_vectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nine fixed (a, b) pairs, each with cin 0 and then 1."""
    zeros, threes = [0] * n, [3] * n
    alt12, alt21 = [1 + i % 2 for i in range(n)], [2 - i % 2 for i in range(n)]
    lo3, hi3 = [3] + [0] * (n - 1), [0] * (n - 1) + [3]
    pairs = [(zeros, zeros), (threes, threes), (threes, zeros), (zeros, threes), (alt12, alt21),
             (alt12, alt12), (lo3, lo3), (hi3, hi3), (hi3, zeros)]
    a, b = (np.repeat(np.uint8([pair[k] for pair in pairs]), 2, axis=0) for k in (0, 1))
    return a, b, np.tile(np.uint8([0, 1]), len(pairs))


def _draw(seed: int, word: int, out: np.ndarray, shift: int) -> None:
    """Fill ``out`` from 32-bit word ``word`` on of the PCG64 stream of
    ``seed`` (a 64-bit output is two words, low half first), keeping the top
    8 - shift bits of each little-endian byte.  With shift 6 (7) this is what
    ``default_rng(seed).integers(0, 4 (2), dtype=uint8)`` draws from that
    word on, as Lemire's method on a byte rejects nothing for those ranges."""
    skip = 4 * (word % 2)
    raw = np.random.PCG64(seed).advance(word // 2).random_raw(-(-(skip + out.size) // 8))
    np.right_shift(raw.view(np.uint8)[skip:skip + out.size], shift, out=out.reshape(-1))


def _random_cases(n: int, trials: int, seed: int, lo: int, hi: int) -> tuple:
    """Trials lo..hi-1 of check_random as (a, b, cin), after the corner
    vectors when lo is 0.  ``default_rng(seed)`` draws all a digits, then all
    b digits, then all cin bits, each draw from a fresh 32-bit word, so lo
    must be a multiple of 4 for every part to start on a word."""
    words = -(-trials * n // 4)   # 32-bit words behind the a digits
    parts = []
    for start, corner, shift in zip((0, words, 2 * words), _corner_vectors(n), (6, 6, 7)):
        head = corner.reshape(len(corner), -1)[:len(corner) * (lo == 0)]
        part = np.empty((len(head) + hi - lo, head.shape[1]), dtype=np.uint8)
        part[:len(head)] = head
        _draw(seed, start + lo * head.shape[1] // 4, part[len(head):], shift)
        parts.append(part)
    return parts[0], parts[1], parts[2][:, 0]


def check_random(nl: Netlist, trials: int, seed: int) -> VerifyReport:
    """Seeded random assignments plus the fixed corner vectors.

    The generator is numpy's default PCG64; the report records the seed,
    so identical seeds reproduce identical reports byte for byte.  Each
    chunk's draws jump ahead to their place in the stream.
    """
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    n = nl.width
    if trials * n > RANDOM_DIGITS_CAP:
        raise ValueError(f"{trials} trials x width {n} exceeds the random-check cap "
                         f"RANDOM_DIGITS_CAP = {RANDOM_DIGITS_CAP} digits")
    records = _check(nl, lambda lo, hi: _random_cases(n, trials, seed, lo, hi), trials)
    return VerifyReport("random", len(_corner_vectors(n)[2]) + trials, records, seed,
                        nl.meta.get("kind"), n)
