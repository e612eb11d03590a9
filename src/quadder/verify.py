"""Independent arithmetic oracle and equivalence harness.

The oracle, ``_oracle_batch``, is a bit-sliced binary ripple adder on the
int rows of bit planes that ``add_cases`` evaluates; it never touches the
quaternary operators, so a defect in the algebra cannot hide a matching
defect in a netlist.  Exhaustive checks cover every assignment at small
widths, a chunk of digits made from its case indices at a time
(``add_batch``); randomized checks pack a chunk's bytes of a seeded PCG64
stream and a fixed set of corner vectors straight into the input rows
(``add_cases``).  A chunk has at most ``CHUNK_CASES`` cases, so memory does
not grow with the case count; its rows are compared as ints, and only the
failing lanes are read back, inputs too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import netlist
from .netlist import Netlist

EXHAUSTIVE_WIDTH_BOUND = 4
CHUNK_CASES = 2**15            # cases per add_batch/add_cases call of a check; bounds its buffer
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


def _oracle_batch(ins: list, lanes: int) -> list:
    """Bit-sliced (Biham) oracle on ``add_cases``' input rows, ints ``hi <<
    lanes | lo``: the rows S[1..n] and cout should hold, by a binary ripple,
    per bit c = (a & b) | (c & (a ^ b)) and s = a ^ b ^ c, lo bit first."""
    n, ones = len(ins) // 2, (1 << lanes) - 1
    c, out = ins[2 * n] & ones, []   # the carry into digit 0's lo bit: cin, 0 or 1, is its lo plane
    for a, b in zip(ins[:n], ins[n:2 * n]):
        p, g = a ^ b, a & b
        carries = (g & ones | c & p) << lanes | c   # into the hi bit, and into the lo bit
        out.append(p ^ carries)
        c = (g | carries & p) >> lanes
    return [*out, c]


def _signal_names(n: int) -> list[str]:
    return [*(f"S[{j + 1}]" for j in range(n)), "cout"]


def _collect_mismatches(a, b, cin, want, got) -> MismatchTable:
    """The per-signal mismatch records of the given cases, canonically ordered.

    Case-major digits: a and b are (cases, width); want and got are (cases,
    width + 1), S[1..n] then cout.  Each wrong signal of a case is a record.
    """
    n = a.shape[1]
    case, signal = np.divmod(np.flatnonzero(want != got), n + 1)   # 2-D nonzero is slower
    rank = np.empty(n + 1, dtype=np.intp)   # each signal's place in name order
    names = _signal_names(n)
    rank[sorted(range(n + 1), key=names.__getitem__)] = np.arange(n + 1)
    # lexsort's last key is the primary one: a[0], ..., a[n-1], b[0], ..., cin, name.
    # Separate keys keep their own dtypes; stacked, each would be widened to intp.
    order = np.lexsort((rank[signal], cin[case], *b[case, ::-1].T, *a[case, ::-1].T))
    case, signal = case[order], signal[order]
    return MismatchTable(a=a[case], b=b[case], cin=cin[case], signal=signal,
                         expected=want[case, signal], actual=got[case, signal])


def _records(count: int, run) -> MismatchTable:
    """The mismatch records of ``count`` cases, a chunk of cases at a time:
    ``run(lo, hi)`` checks cases lo..hi-1 and gives back the failing ones as
    ``add_cases`` does; their records get one sort."""
    kept = [run(lo, min(lo + CHUNK_CASES, count))[1:] for lo in range(0, count, CHUNK_CASES)]
    return _collect_mismatches(*map(np.concatenate, zip(*kept)))


def _check(nl: Netlist, chunk, count: int) -> MismatchTable:
    """``_records`` of the (a, b, cin) digits ``chunk(lo, hi)``, each one ``add_batch`` call."""
    return _records(count, lambda lo, hi: netlist.add_batch(nl, *chunk(lo, hi), _oracle_batch))


def check_exhaustive(nl: Netlist) -> VerifyReport:
    """Run all 4^n * 4^n * 2 assignments against the oracle, case k with the
    a word k >> (2n + 1), the b word (k >> 1) mod 4^n and cin k & 1."""
    n = nl.width
    if n > EXHAUSTIVE_WIDTH_BOUND:
        raise ValueError(f"width {n} exceeds the exhaustive bound {EXHAUSTIVE_WIDTH_BOUND}; "
                         "check it with random trials instead")
    words = (np.arange(4**n) >> 2 * np.arange(n)[:, None] & 3).astype(np.uint8)   # digit-major
    # a is fixed over each period of 2 * 4^n cases, which runs (b, cin) through every value once
    period, count = 2 * 4**n, 2 * 16**n
    k = np.arange(min(CHUNK_CASES + period, count))   # a chunk's (b, cin) start at lo mod period
    b, cin = np.take(words, (k >> 1) & (4**n - 1), axis=1), (k & 1).astype(np.uint8)

    def chunk(lo: int, hi: int):
        rows = slice(lo % period, lo % period + hi - lo)
        a = words[:, lo // period:-(-hi // period)].repeat(period, axis=1)
        return a[:, rows].T, b[:, rows].T, cin[rows]

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


def _draw(seed: int, byte: int, count: int) -> np.ndarray:
    """Bytes byte..byte + count - 1 of the PCG64 stream of ``seed``, read
    little-endian.  default_rng's uint8 ``integers(0, 4 (2))`` draws a byte's
    top 2 (1) bits: Lemire's method on a byte rejects nothing there."""
    skip = byte % 8
    raw = np.random.PCG64(seed).advance(byte // 8).random_raw(-(-(skip + count) // 8))
    return raw.view(np.uint8)[skip:skip + count]


def _random_source(n: int, trials: int, seed: int, first: int):
    """``add_cases``' source of check_random's cases from case ``first``: the
    corner vectors, then trial t as case 18 + t.  default_rng draws all a
    digits, all b digits, then all cin bits, each part from a fresh 32-bit
    word; a slice of cases reads its bytes of each part at their offset."""
    a, b, cin = _corner_vectors(n)
    skip, words = len(cin), -(-trials * n // 4)   # 32-bit words behind the a digits
    parts = ((0, 0, a, 0x40, 0x80), (n, 4 * words, b, 0x40, 0x80),
             (2 * n, 8 * words, cin[:, None], 0x80, 0))   # (row, byte, corners, masks)
    step = netlist.slice_cases(n)

    def source(lo: int, hi: int):
        for case in range(lo, hi, step):
            start, stop = first + case, first + min(case + step, hi)   # cases of the check
            trial, end = max(start - skip, 0), max(stop - skip, 0)
            for row, byte, corner, lo_mask, hi_mask in parts:
                width = corner.shape[1]
                data = _draw(seed, byte + trial * width, (end - trial) * width).reshape(-1, width)
                if start < skip:   # the corner vectors' digits, put in the same bits
                    data = np.concatenate((corner[start:stop] * lo_mask, data))
                yield row, case, data, lo_mask, hi_mask

    return source


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
    count = len(_corner_vectors(n)[2]) + trials
    records = _records(count, lambda lo, hi: netlist.add_cases(
        nl, hi - lo, _random_source(n, trials, seed, lo), _oracle_batch))
    return VerifyReport("random", count, records, seed, nl.meta.get("kind"), n)
