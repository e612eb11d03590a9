"""Independent arithmetic oracle and equivalence harness.

The oracle, ``_oracle_batch``, is a bit-sliced binary ripple adder on the
lo and hi bit planes, ints, that ``add_cases`` evaluates; it never touches
the quaternary operators, so a defect in the algebra cannot hide a
matching defect in a netlist.  Every check runs its cases through
``add_cases`` against that oracle.  Exhaustive checks cover every
assignment at small widths, their digits made whole once and packed by
``add_batch``.
Randomized checks run fixed corner vectors, aligned carry-run vectors
(every aligned block of 2^k digits propagating between a kill or generate
below and a kill, propagate or generate above) and then seeded trials;
each run draws its input planes' words straight from the PCG64 stream and
sets the vectors' lanes by bit mask.  Runs are the only chunks:
``add_cases`` gives each at most ``netlist.RUN_LANES`` cases, so memory
does not grow with the case count; a run's planes are compared as ints, and
only the failing lanes are read back, inputs too.  A check of at most
``netlist.NODE_RUN_LANES`` (4096) cases is one run over the nodes and
compiles no plan, which would cost more there than its slot reuse saves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import netlist
from .netlist import Netlist

EXHAUSTIVE_WIDTH_BOUND = 4
RANDOM_DIGITS_CAP = 2**34      # cases run x width; at ~65M digit-adds/s, about 4.5 minutes


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

    def to_json(self, head: str = "", tail: str = "") -> str:
        """The records as the ``mismatches`` value of a report, the text
        ``json.dumps`` writes with indent 2 for the list one level deep,
        between ``head`` and ``tail``.

        Every value but the signal name is one decimal digit, so all records
        share one fixed-width template, its name slot as wide as the longest
        name in the report.  The template is tiled into one buffer after the
        head, each value column is written there by one strided copy, a
        shorter name's NUL padding is dropped by a boolean mask, and the
        buffer is decoded once.
        """
        count, n = self.a.shape
        if not count:
            return f"{head}[]{tail}"
        names = [name.encode() for name in _signal_names(n)]
        lengths = np.array([len(name) for name in names])[self.signal]
        longest = lengths.max()
        names = np.array(names, dtype=f"S{longest}")   # NUL-padded; names cut short are unused
        digits = ",\n".join(["        #"] * n)   # a digit line every 11 bytes
        template = np.frombuffer(
            f',\n    {{\n      "a": [\n{digits}\n      ],\n      "b": [\n{digits}\n      ],\n'
            f'      "cin": #,\n      "signal": "{"@" * names.itemsize}",\n      "expected": #,\n'
            f'      "actual": #\n    }}'.encode(), dtype=np.uint8)
        head, tail = head.encode(), f"\n  ]{tail}".encode()
        buf = np.empty(len(head) + count * template.size + len(tail), dtype=np.uint8)
        rows = buf[len(head):buf.size - len(tail)].reshape(count, template.size)
        rows[:] = template
        buf[:len(head) + 1], buf[buf.size - len(tail):] = list(head + b"["), list(tail)
        marks = np.flatnonzero(template == ord("#"))   # a digits, b digits, cin, expected, actual
        columns = (self.a, self.b, *(v[:, None] for v in (self.cin, self.expected, self.actual)))
        for start, values in zip(marks[[0, n, -3, -2, -1]], columns):
            np.add(values, ord("0"), out=rows[:, start:start + 11 * values.shape[1]:11],
                   casting="unsafe")
        slot = np.flatnonzero(template == ord("@"))
        rows[:, slot] = names.view(np.uint8).reshape(n + 1, -1)[self.signal]
        if lengths.min() < longest:
            kept = 0
            for start in range(0, buf.size, 2**20):   # the kept bytes never pass those read
                part = buf[start:start + 2**20]
                part = part[part != 0]
                buf[kept:kept + part.size] = part
                kept += part.size
            buf = buf[:kept]
        return str(buf, "ascii")


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
        return self.records.to_json(f'{head[:-2]},\n  "mismatches": ',
                                    ',\n  "divergences": []\n}\n')


def _oracle_batch(ins: list) -> list:
    """Bit-sliced (Biham) oracle on ``add_cases``' input planes: the planes
    S[1..n] and cout should hold, lo then hi, by a binary ripple from cin's lo
    plane through each digit's lo bit and then its hi bit, per bit p = a ^ b,
    s = p ^ c and c = a & b | c & p."""
    n = len(ins) // 4
    c, lo, hi = ins[2 * n], [], []
    for a0, b0, a1, b1 in zip(ins[:n], ins[n:2 * n], ins[2 * n + 1:3 * n + 1], ins[3 * n + 1:]):
        for a, b, s in ((a0, b0, lo), (a1, b1, hi)):
            p = a ^ b
            s.append(p ^ c)
            c = a & b | c & p
    return [*lo, c, *hi, c ^ c]


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
    # lexsort's last key is the primary one: a's digits, then b's, cin and name, 4 digits
    # to a byte, the first highest.  Separate keys keep their dtypes; stacked, they widen.
    four = np.zeros((2, len(a), -(-n // 4), 4), dtype=np.uint8)
    four.reshape(2, len(a), 4 * -(-n // 4))[..., :n] = a, b
    key = four[..., 0] << 6 | four[..., 1] << 4 | four[..., 2] << 2 | four[..., 3]
    order = np.lexsort((rank[signal], cin[case], *key[1, case, ::-1].T, *key[0, case, ::-1].T))
    case, signal = case[order], signal[order]
    return MismatchTable(a=a[case], b=b[case], cin=cin[case], signal=signal,
                         expected=want[case, signal], actual=got[case, signal])


def check_exhaustive(nl: Netlist) -> VerifyReport:
    """Run all 4^n * 4^n * 2 assignments against the oracle, case k with the
    a word k >> (2n + 1), the b word (k >> 1) mod 4^n and cin k & 1."""
    n = nl.width
    if n > EXHAUSTIVE_WIDTH_BOUND:
        raise ValueError(f"width {n} exceeds the exhaustive bound {EXHAUSTIVE_WIDTH_BOUND}; "
                         "check it with random trials instead")
    words = (np.arange(4**n) >> 2 * np.arange(n)[:, None] & 3).astype(np.uint8)   # digit-major
    a, b = words.repeat(2 * 4**n, axis=1), np.tile(words.repeat(2, axis=1), 4**n)
    cin = np.tile(np.uint8([0, 1]), 16**n)
    records = _collect_mismatches(*netlist.add_batch(nl, a.T, b.T, cin, _oracle_batch))
    return VerifyReport("exhaustive", cin.size, records, kind=nl.meta.get("kind"), width=n)


def _corner_vectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nine fixed (a, b) pairs, each with cin 0 and then 1."""
    zeros, threes = [0] * n, [3] * n
    alt12, alt21 = [1 + i % 2 for i in range(n)], [2 - i % 2 for i in range(n)]
    lo3, hi3 = [3] + [0] * (n - 1), [0] * (n - 1) + [3]
    pairs = [(zeros, zeros), (threes, threes), (threes, zeros), (zeros, threes), (alt12, alt21),
             (alt12, alt12), (lo3, lo3), (hi3, hi3), (hi3, zeros)]
    a, b = (np.repeat(np.uint8([pair[k] for pair in pairs]), 2, axis=0) for k in (0, 1))
    return a, b, np.tile(np.uint8([0, 1]), len(pairs))


def _fixed_lanes(n: int) -> np.ndarray:
    """A random check's first cases as bit masks (clear, put) x 64-lane
    words x a word's stream outputs (``check_random``): a run clears its
    drawn bits where ``clear`` is set and ORs in ``put``, then XORs each b
    plane's cleared lanes with its a plane's, so b = a there, or b = a ^ 3
    (a propagate) where ``put`` set them.

    Cases 0-17 are the corner vectors.  Case 18 + (3g + t)B + j, for B
    blocks, runs aligned block j (sizes 2^k <= n ascending, then starts):
    its digits propagate, the digit below kills (g = 0) or generates (g =
    1), or cin is g if the block starts at digit 0, and the digit above
    kills, propagates or generates (t = 0, 1, 2).  A kill is b = a < 2, a
    generate b = a >= 2, a's lo bit drawn; every other digit is drawn.
    """
    ca, cb, cc = _corner_vectors(n)
    k = np.arange(n.bit_length())
    count = n >> k   # blocks of 2^k digits, the first of them block first[k]
    first = np.cumsum(count) - count
    size, blocks = np.repeat(1 << k, count), int(count.sum())
    start = (np.arange(blocks) - np.repeat(first, count)) * size
    i = np.arange(n)[:, None]
    # Each block's digits, the digit below it and the one above, as bits of rows 0 for cin,
    # d + 1 for digit d, and row n + 1 and column -1 for none.
    roles = np.zeros((3, n + 2, blocks + 1), dtype=bool)
    roles[0, np.where(i >> k < count, i + 1, -1), first + (i >> k)] = True
    roles[1, start, np.arange(blocks)] = roles[2, start + size + 1, np.arange(blocks)] = True
    m = -(-blocks // 64)
    packed = np.zeros((3, n + 2, 8 * m), dtype=np.uint8)
    packed[..., :-(-blocks // 8)] = np.packbits(roles[..., :-1], axis=-1, bitorder="little")
    inside, below, above = np.ascontiguousarray(packed.view(np.uint64).transpose(0, 2, 1)[..., :-1])
    t, g = np.arange(6)[:, None, None] % 3, np.arange(6)[:, None, None] >= 3
    x = np.empty((6, 2, m, 3 * n + 1), dtype=np.uint64)   # b's lo planes, cin's, a's hi, b's hi
    x[:, 0, :, n:2 * n + 1] = below | above * (t != 1)
    x[:, 1, :, n:2 * n + 1] = below * g | above * (t == 2)
    x[:, 0, :, :n] = x[:, 0, :, 2 * n + 1:] = (inside | below | above)[:, 1:]
    x[:, 1, :, :n] = x[:, 1, :, 2 * n + 1:] = (inside | above * (t == 1))[..., 1:]
    fixed = np.zeros((2, -(-(len(cc) + 6 * blocks) // 64) + 1, 4 * n + 1), dtype=np.uint64)
    for v in range(6):
        w, s = divmod(len(cc) + v * blocks, 64)
        fixed[:, w:w + m, n:] |= x[v] << s
        fixed[:, w + 1:w + m + 1, n:] |= x[v] >> 64 - s
    w = np.uint64(1) << np.arange(len(cc), dtype=np.uint64)   # the corner vectors' lanes
    inv = (ca != cb).T @ w   # each corner digit has b = a or b = a ^ 3
    fixed[0, 0] |= w.sum()
    fixed[1, 0] |= np.concatenate([(ca & 1).T @ w, inv, [cc @ w], (ca >> 1).T @ w, inv])
    return fixed[:, :-1]


def check_random(nl: Netlist, trials: int, seed: int) -> VerifyReport:
    """Seeded random assignments after the fixed corner and carry-run vectors.

    Case c of the check is lane c % 64 of word w = c // 64.  Of input r
    (A[1..n], B[1..n], then cin), the lo plane's word is PCG64(seed) output
    w(4n + 1) + r, by ``random_raw``, and the hi plane's output w(4n + 1) +
    2n + 1 + r (cin's is 0); ``_fixed_lanes`` then sets the vectors' digits.
    A run jumps ahead to its first word (``advance``), so reports do not
    depend on the run size, and the report records the seed: equal seeds
    give equal reports.
    """
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    n = nl.width
    vectors = 6 * (2 * n - n.bit_count())   # 6 a block; there are sum(n // 2^k) blocks
    count = 18 + vectors + trials   # the corner vectors, the carry-run vectors, the trials
    if count * n > RANDOM_DIGITS_CAP:
        raise ValueError(f"{count} cases (18 corner vectors, {vectors} carry-run vectors and "
                         f"{trials} trials) x width {n} exceed the random-check cap "
                         f"RANDOM_DIGITS_CAP = {RANDOM_DIGITS_CAP} digits")
    fixed, k = _fixed_lanes(n), 4 * n + 1   # k: the outputs a word takes

    def planes(start: int, stop: int) -> list:   # add_cases' input planes of cases start..stop-1
        word, words = start // 64, -(-(stop - start) // 64)   # start is a word's first case
        raw = np.random.PCG64(seed).advance(word * k).random_raw(words * k).reshape(words, k)
        clear, put = fixed[:, word:word + words]
        part = raw[:len(clear)]
        part[:] = part & ~clear | put
        part[:, n:2 * n] ^= part[:, :n] & clear[:, n:2 * n]
        part[:, 3 * n + 1:] ^= part[:, 2 * n + 1:3 * n + 1] & clear[:, 3 * n + 1:]
        buf = np.empty((k + 1, words), dtype=np.uint64)   # the lo planes, then the hi planes
        buf[:k], buf[k] = raw.T, 0   # the last is cin's hi plane
        del raw, part   # before the planes' ints are made
        return [int.from_bytes(plane, "little") for plane in buf]

    records = _collect_mismatches(*netlist.add_cases(nl, count, planes, _oracle_batch))
    return VerifyReport("random", count, records, seed, nl.meta.get("kind"), n)
