"""Independent arithmetic oracle and equivalence harness.

The oracle works in plain integer arithmetic and never touches the
quaternary operators, so a defect in the algebra cannot hide a matching
defect in a netlist.  Exhaustive checks cover every assignment at small
widths; randomized checks use a seeded PCG64 generator plus a fixed set of
corner vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import cells, netlist, qudit
from .netlist import Netlist

EXHAUSTIVE_WIDTH_BOUND = 4
_RNG_ALGORITHM = "numpy PCG64 (np.random.default_rng)"

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, MismatchTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def as_dicts(self) -> list[dict]:
        names = _signal_names(self.a.shape[1])
        return [{"a": a, "b": b, "cin": c, "signal": names[s], "expected": e, "actual": g}
                for a, b, c, s, e, g in zip(self.a.tolist(), self.b.tolist(), self.cin.tolist(),
                                            self.signal.tolist(), self.expected.tolist(),
                                            self.actual.tolist())]

    def to_json(self) -> str:
        """The records as the ``mismatches`` value of a report: the text
        ``json.dumps`` writes with indent 2 for the list one level deep.

        Every value is one decimal digit, so the head of a record (its a and
        b digit lines and cin) has a fixed layout per width: one template
        row per record is filled and decoded at once.  The tail (signal,
        expected, actual) takes one of a few texts, each formatted once.
        """
        count, n = self.a.shape
        if not count:
            return "[]"
        digits = ",\n".join(["        #"] * n)
        template = np.frombuffer(
            f',\n    {{\n      "a": [\n{digits}\n      ],\n      "b": [\n{digits}\n'
            f'      ],\n      "cin": #,\n'.encode(), dtype=np.uint8)
        rows = np.tile(template, (count, 1))
        rows[:, template == ord("#")] = np.hstack([self.a, self.b, self.cin[:, None]]) + ord("0")
        heads = rows.tobytes().decode()
        size = template.size
        names = _signal_names(n)
        tails = {}
        parts = []
        for i, key in enumerate(zip(self.signal.tolist(), self.expected.tolist(),
                                    self.actual.tolist())):
            tail = tails.get(key)
            if tail is None:
                s, e, g = key
                tail = tails[key] = (f'      "signal": "{names[s]}",\n      "expected": {e},\n'
                                     f'      "actual": {g}\n    }}')
            parts += (heads[i * size:(i + 1) * size], tail)
        parts[0] = parts[0][1:]   # the first record has no separating comma
        return "[" + "".join(parts) + "\n  ]"


@dataclass
class VerifyReport:
    """A check's outcome.  ``records`` is a MismatchTable for the batch
    checks and a list of dicts for the truth tables; ``mismatches`` reads
    either as a list of dicts."""

    mode: str                 # "exhaustive" | "random" | "truth-tables"
    cases_run: int
    records: MismatchTable | list = field(default_factory=list)
    seed: int | None = None
    kind: str | None = None
    width: int | None = None
    divergences: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return len(self.records) == 0

    @cached_property
    def mismatches(self) -> list:
        if isinstance(self.records, MismatchTable):
            return self.records.as_dicts()
        return self.records

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
        if isinstance(self.records, MismatchTable):
            body = self.records.to_json()
        else:
            body = json.dumps(self.records, indent=2).replace("\n", "\n  ")
        tail = json.dumps({"divergences": self.divergences}, indent=2)
        return f'{head[:-2]},\n  "mismatches": {body},{tail[1:]}\n'


def oracle_add(a, b, cin: int = 0) -> tuple[tuple[int, ...], int]:
    """Ground-truth base-4 addition through unbounded integers."""
    a = qudit.check_word(a)
    b = qudit.check_word(b, width=len(a))
    if cin not in (0, 1):
        raise ValueError(f"cin must be 0 or 1, got {cin}")
    n = len(a)
    total = sum(d << (2 * i) for i, d in enumerate(a))
    total += sum(d << (2 * i) for i, d in enumerate(b))
    total += cin
    digits = tuple((total >> (2 * i)) & 3 for i in range(n))
    return digits, total >> (2 * n)


def _oracle_batch(a_t: np.ndarray, b_t: np.ndarray, cin: np.ndarray):
    """Vectorized oracle on digit-major (width, cases) uint8 digits:
    schoolbook digit addition with integer carries (a digit sum is at most
    3 + 3 + 1, so uint8 holds it)."""
    s = np.empty_like(a_t)
    carry = cin.astype(np.uint8)
    tot = np.empty_like(carry)
    for i in range(a_t.shape[0]):
        np.add(a_t[i], b_t[i], out=tot)
        tot += carry
        np.bitwise_and(tot, 3, out=s[i])
        np.right_shift(tot, 2, out=carry)
    return s, carry


def _signal_names(n: int) -> list[str]:
    return [*(f"S[{j + 1}]" for j in range(n)), "cout"]


def _collect_mismatches(a_t, b_t, cin, want_s, want_c, got_s, got_c) -> MismatchTable:
    """The per-signal mismatch records, canonically ordered.

    Digits are digit-major: (width, cases).  Only the cases with a wrong
    output are expanded, into one record per wrong signal.
    """
    bad = np.nonzero((want_s != got_s).any(axis=0) | (want_c != got_c))[0]
    n = a_t.shape[0]
    if not bad.size:
        digits, values = np.empty((0, n), dtype=np.uint8), np.empty(0, dtype=np.uint8)
        return MismatchTable(digits, digits, values, values, values, values)
    want = np.vstack([want_s[:, bad], want_c[bad]])   # (signals, bad cases)
    got = np.vstack([got_s[:, bad], got_c[bad]])
    signal, case = np.nonzero(want != got)
    col = bad[case]
    rank = np.empty(n + 1, dtype=np.intp)   # each signal's place in name order
    names = _signal_names(n)
    rank[sorted(range(n + 1), key=names.__getitem__)] = np.arange(n + 1)
    # lexsort's last key is the primary one: a[0], ..., a[n-1], b[0], ..., cin, name.
    order = np.lexsort(np.vstack([rank[signal], cin[col], b_t[::-1, col], a_t[::-1, col]]))
    signal, case, col = signal[order], case[order], col[order]
    return MismatchTable(a=a_t[:, col].T, b=b_t[:, col].T, cin=cin[col], signal=signal,
                         expected=want[signal, case], actual=got[signal, case])


def _mismatches(nl: Netlist, a_t: np.ndarray, b_t: np.ndarray, cin: np.ndarray) -> MismatchTable:
    """Digit-major inputs through the netlist and the oracle; the netlist reads
    them as column-major (cases, width) views, so nothing is transposed again."""
    got_s, got_c = netlist.add_batch(nl, a_t.T, b_t.T, cin)
    want_s, want_c = _oracle_batch(a_t, b_t, cin)
    return _collect_mismatches(a_t, b_t, cin, want_s, want_c, got_s.T, got_c)


def _report_for(nl: Netlist, mode: str, **kw) -> VerifyReport:
    return VerifyReport(
        mode=mode, kind=nl.meta.get("kind"), width=nl.width, **kw
    )


def check_exhaustive(nl: Netlist) -> VerifyReport:
    """Run all 4^n * 4^n * 2 assignments against the oracle."""
    n = nl.width
    if n > EXHAUSTIVE_WIDTH_BOUND:
        raise ValueError(
            f"width {n} exceeds the exhaustive bound {EXHAUSTIVE_WIDTH_BOUND}; use check_random"
        )
    words = 4**n
    pair = np.arange(words * words, dtype=np.int64)
    a_val = np.repeat(pair // words, 2)
    b_val = np.repeat(pair % words, 2)
    cin = np.tile(np.array([0, 1], dtype=np.uint8), words * words)
    a_t = np.empty((n, a_val.size), dtype=np.uint8)
    b_t = np.empty((n, a_val.size), dtype=np.uint8)
    for i in range(n):
        a_t[i] = (a_val >> (2 * i)) & 3
        b_t[i] = (b_val >> (2 * i)) & 3
    records = _mismatches(nl, a_t, b_t, cin)
    return _report_for(nl, "exhaustive", cases_run=a_val.size, records=records)


def _corner_vectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    zeros = [0] * n
    threes = [3] * n
    alt12 = [1 if i % 2 == 0 else 2 for i in range(n)]
    alt21 = [2 if i % 2 == 0 else 1 for i in range(n)]
    lo3 = [3] + [0] * (n - 1)
    hi3 = [0] * (n - 1) + [3]
    a_rows, b_rows, cins = [], [], []
    for a, b in [
        (zeros, zeros),
        (threes, threes),
        (threes, zeros),
        (zeros, threes),
        (alt12, alt21),
        (alt12, alt12),
        (lo3, lo3),
        (hi3, hi3),
        (hi3, zeros),
    ]:
        for c in (0, 1):
            a_rows.append(a)
            b_rows.append(b)
            cins.append(c)
    return (
        np.array(a_rows, dtype=np.uint8),
        np.array(b_rows, dtype=np.uint8),
        np.array(cins, dtype=np.uint8),
    )


def check_random(nl: Netlist, trials: int, seed: int) -> VerifyReport:
    """Seeded random assignments plus the fixed corner vectors.

    The generator is numpy's default PCG64; the report records the seed,
    so identical seeds reproduce identical reports byte for byte.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = nl.width
    ca, cb, cc = _corner_vectors(n)
    rng = np.random.default_rng(seed)
    ra = rng.integers(0, 4, size=(trials, n), dtype=np.uint8)
    rb = rng.integers(0, 4, size=(trials, n), dtype=np.uint8)
    rc = rng.integers(0, 2, size=trials, dtype=np.uint8)
    cin = np.concatenate([cc, rc])
    records = _mismatches(nl, netlist.digit_major(np.concatenate([ca, ra])),
                          netlist.digit_major(np.concatenate([cb, rb])), cin)
    return _report_for(nl, "random", cases_run=int(cin.shape[0]), records=records, seed=seed)


def check_truth_tables() -> VerifyReport:
    """Re-derive both printed tables from the algebra and the adder cells.

    Table I: 10 rows x 7 operator columns (and, or, xor, nand, nor, xnor,
    equality), 70 entries.  Table II: 20 rows; 19 must match the printed
    values, the (0, 3, cin=1) row must match the integer oracle (s = 0)
    and is recorded as a documented divergence from the printed s = 1.
    """
    mismatches = []
    divergences = []
    cases = 0
    ops = (
        ("and", qudit.qand),
        ("or", qudit.qor),
        ("xor", qudit.qxor),
        ("nand", qudit.qnand),
        ("nor", qudit.qnor),
        ("xnor", qudit.qxnor),
        ("eq", qudit.equality),
    )
    for row in TABLE_I:
        a, b = row[0], row[1]
        for (name, fn), want in zip(ops, row[2:]):
            cases += 1
            got = fn(a, b)
            if got != want:
                mismatches.append(
                    {"a": [a], "b": [b], "cin": 0, "signal": name,
                     "expected": want, "actual": got}
                )
    for a, b, cin, s_printed, c_printed in TABLE_II:
        cases += 2
        got = cells.full_add(a, b, cin)
        (s_oracle,), c_oracle = oracle_add([a], [b], cin)
        if (a, b, cin) == TABLE_II_DIVERGENT_ROW:
            want_s, want_c = s_oracle, c_oracle
            divergences.append(
                {
                    "row": [a, b, cin],
                    "printed_s": s_printed,
                    "oracle_s": s_oracle,
                    "note": "printed sum contradicts integer arithmetic; oracle value asserted",
                }
            )
        else:
            want_s, want_c = s_printed, c_printed
            if (s_oracle, c_oracle) != (want_s, want_c):
                mismatches.append(
                    {"a": [a], "b": [b], "cin": cin, "signal": "table-vs-oracle",
                     "expected": [s_oracle, c_oracle], "actual": [want_s, want_c]}
                )
        if got.sum != want_s:
            mismatches.append(
                {"a": [a], "b": [b], "cin": cin, "signal": "S",
                 "expected": want_s, "actual": got.sum}
            )
        if got.carry != want_c:
            mismatches.append(
                {"a": [a], "b": [b], "cin": cin, "signal": "C",
                 "expected": want_c, "actual": got.carry}
            )
    return VerifyReport(
        mode="truth-tables",
        cases_run=cases,
        records=mismatches,
        divergences=divergences,
    )
