"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines alongside the pytest output.
"""

import itertools
import time

import reference

from quadder import analysis, netlist, verify
from quadder.analysis import closed_form, compare, rows_to_csv, sweep
from quadder.builders import (
    AdderSpec,
    build,
    ceil_log2,
    floor_log2,
)


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _specs_for(n: int):
    return [
        AdderSpec("ripple", n),
        AdderSpec("single_stage", n),
        AdderSpec("tree", n),
        AdderSpec("sparse", n, sparsity=4),
        AdderSpec("hybrid", n, block=min(2, n)),
    ]


def test_criterion_1_truth_table_reproduction():
    start = time.monotonic()
    mismatches, divergences = reference.check_truth_tables()
    elapsed = time.monotonic() - start
    ok = (
        not mismatches
        and len(divergences) == 1
        and divergences[0]["row"] == [0, 3, 1]
        and divergences[0]["oracle_s"] == 0
        and elapsed < 1.0
    )
    _report(1, ok, f"70 operator entries + 20 adder rows, 1 logged divergence, "
                   f"{elapsed:.3f}s")


def test_criterion_2_exhaustive_functional_correctness():
    start = time.monotonic()
    cases = 0
    failures = []
    for n in (1, 2, 3):
        for spec in _specs_for(n):
            rep = verify.check_exhaustive(reference.built(spec))
            cases += rep.cases_run
            if not rep.passed:
                failures.append((spec, reference.mismatches(rep)[:2]))
    for kind in ("ripple", "tree"):
        rep = verify.check_exhaustive(reference.built(AdderSpec(kind, 4)))
        cases += rep.cases_run
        if not rep.passed:
            failures.append((kind, reference.mismatches(rep)[:2]))
        if rep.cases_run != 131072:
            failures.append((kind, "case count", rep.cases_run))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(2, ok, f"{cases} assignments across 5 architectures, "
                   f"0 mismatches, {elapsed:.2f}s" if ok else str(failures[:3]))


def test_criterion_3_randomized_correctness():
    start = time.monotonic()
    failures = []
    for n in (8, 16, 31, 64):
        specs = [
            AdderSpec("ripple", n),
            AdderSpec("single_stage", n),
            AdderSpec("tree", n),
            AdderSpec("sparse", n, sparsity=4),
            AdderSpec("hybrid", n, block=4),
        ]
        for spec in specs:
            rep = verify.check_random(reference.built(spec), 10_000, seed=20_240_000 + n)
            if not rep.passed:
                failures.append((spec, reference.mismatches(rep)[:2]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"20 configurations x (10^4 random + corner vectors), "
                   f"0 mismatches, {elapsed:.2f}s" if ok else str(failures[:3]))


def test_criterion_4_delay_formulas_exact():
    bad = []
    for n in range(1, 65):
        nl = reference.built(AdderSpec("ripple", n))
        d = netlist.measure(nl, nl.meta["delay_scope"], "included").depth
        if d != 5 * n:
            bad.append(("ripple", n, d))
    for n in range(1, 65):
        nl = reference.built(AdderSpec("single_stage", n))
        d = netlist.measure(nl, nl.meta["delay_scope"], "included").depth
        if d != 6:
            bad.append(("single_stage", n, d))
    for n in range(2, 65):
        nl = reference.built(AdderSpec("tree", n))
        d = netlist.measure(nl, nl.meta["delay_scope"], "included").depth
        if d != 4 + 2 * ceil_log2(n):
            bad.append(("tree", n, d))
    for kind in ("single_stage", "tree"):
        nl = reference.built(AdderSpec(kind, 12))
        rep = netlist.measure(nl, nl.meta["delay_scope"], "included")
        for i in range(1, 13):
            if rep.per_signal_depth[f"P[{i}]"] != 3:
                bad.append((kind, f"P[{i}]", rep.per_signal_depth[f"P[{i}]"]))
            if rep.per_signal_depth[f"G[{i}]"] != 4:
                bad.append((kind, f"G[{i}]", rep.per_signal_depth[f"G[{i}]"]))
    _report(4, not bad, "ripple 5n (n<=64), single-stage 6 (n<=64), "
                        "tree 4+2*ceil(log2 n) (2..64), P@3, unmasked G@4"
                        if not bad else f"deviations: {bad[:5]}")


def test_criterion_5_closed_forms_exact():
    bad = []
    ss3 = closed_form(AdderSpec("single_stage", 3))
    if (ss3.gates, ss3.inputs) != (33, 77):
        bad.append(("single_stage n=3", ss3.gates, ss3.inputs))
    for n in range(1, 257):
        gates = sum(analysis.single_stage_gates_per_qudit(i) for i in range(1, n + 1))
        inputs = sum(analysis.single_stage_inputs_per_qudit(i) for i in range(1, n + 1))
        cf = closed_form(AdderSpec("single_stage", n))
        if gates != cf.gates or inputs != cf.inputs:
            bad.append(("per-qudit sum identity", n))
            break
    t7 = closed_form(AdderSpec("tree", 7)).detail
    if (t7["product_tree_gates"], t7["product_tree_inputs"]) != (10, 20):
        bad.append(("tree n=7 product", t7))
    if (t7["carry_tree_gates"], t7["carry_tree_inputs"]) != (34, 68):
        bad.append(("tree n=7 carry", t7))
    for n in (1, 5, 40):
        cf = closed_form(AdderSpec("ripple", n))
        if cf.gates != 9 * n or cf.inputs != 19 * n:
            bad.append(("ripple per-carry", n))
    _report(5, not bad, "single-stage 33/77 at n=3 (+sums to n=256), "
                        "tree n=7 10/20 + 34/68, ripple 9/19 per carry"
                        if not bad else str(bad))


def test_criterion_6_measured_counts_within_25_percent():
    bad = []
    itemized = True
    for kind in ("single_stage", "tree"):
        for n in (4, 8, 16, 32):
            row = compare(AdderSpec(kind, n), mask_counting="excluded")
            dg = reference.deviation(row, "gates")[1]
            di = reference.deviation(row, "inputs")[1]
            if abs(dg) > 0.25 or abs(di) > 0.25:
                bad.append((kind, n, f"gates {dg:+.1%}", f"inputs {di:+.1%}"))
            if not row.notes:
                itemized = False
    _report(6, not bad and itemized,
            "single-stage and tree counts within 25% of closed forms at "
            "n in {4,8,16,32} (mask excluded scope), deviations itemized"
            if not bad else str(bad))


def test_criterion_7_curve_properties():
    bad = []
    for n in range(2, 65):
        ss = closed_form(AdderSpec("single_stage", n)).delay
        tr = closed_form(AdderSpec("tree", n)).delay
        ri = closed_form(AdderSpec("ripple", n)).delay
        if not (ss <= tr < ri):
            bad.append(("ordering", n, ss, tr, ri))
        if (ss == tr) != (n == 2):
            bad.append(("equality-only-at-2", n))
    # tree gate totals grow as n log n
    for n in range(2, 65):
        gates = closed_form(AdderSpec("tree", n)).gates
        ref = n * floor_log2(n)
        if not (0.5 * ref <= gates <= 4 * ref):
            bad.append(("tree theta(n log n)", n, gates, ref))
    # single-stage input cost grows as the cubic closed form; the measured
    # netlists must track it (the bare n^3/3 term alone is not a usable
    # denominator at small n, where 3n^2 still dominates - see the ledger)
    rows = sweep(["single_stage"], range(8, 65), mask_counting="excluded")
    for row in rows:
        ratio = row.meas_inputs / row.cf_inputs
        if not (0.8 <= ratio <= 1.3):
            bad.append(("single-stage theta(n^3)", row.n, round(ratio, 3)))
    _report(7, not bad, "delay ordering (equality only at n=2), tree gates "
                        "within [0.5,4]x of n*floor(log2 n), single-stage "
                        "inputs within [0.8,1.3]x of the cubic closed form "
                        "for n in 8..64" if not bad else str(bad[:5]))


def test_criterion_8_lemma_1_reach_bound():
    bad = []
    for n in range(2, 129):
        nl = reference.built(AdderSpec("tree", n))
        levels = {}

        def level(i, j):
            if i == j:
                return 0
            if (i, j) not in levels:
                m = 1 << floor_log2(i - j)
                levels[(i, j)] = 1 + max(level(i, i - m + 1), level(i - m, j))
            return levels[(i, j)]

        keys = [(i, j) for i, j, _ in nl.meta["q_nodes"]]
        for i, j in keys:
            if level(i, j) > floor_log2(i - j) + 1:
                bad.append((n, i, j, level(i, j)))
        deepest = max(level(i, j) for i, j in keys)
        if 2 * deepest > 2 * (floor_log2(n) + 1):
            bad.append((n, "depth", deepest))
    _report(8, not bad, "every q-node reaches leaves within floor(log2(i-j))+1 "
                        "levels for n in 2..128; logic depth <= 2(floor(log2 n)+1)"
                        if not bad else str(bad[:5]))


def test_criterion_9_algebra_law_suite():
    start = time.monotonic()
    bad = []
    pairs = list(itertools.product(range(4), range(4)))
    for a, b in pairs:  # De Morgan, basic and outward inverters
        if reference.qnot(reference.qor(a, b)) != reference.qand(reference.qnot(a),
                                                                 reference.qnot(b)):
            bad.append(("basic de morgan", a, b))
        if reference.outward(reference.qor(a, b)) != reference.qand(reference.outward(a),
                                                                    reference.outward(b)):
            bad.append(("outward de morgan or", a, b))
        if reference.outward(reference.qand(a, b)) != reference.qor(reference.outward(a),
                                                                    reference.outward(b)):
            bad.append(("outward de morgan and", a, b))
    for a in range(4):  # basic inversion commutes with every special operator
        for fn in (reference.inward, reference.outward, reference.bitswap):
            if reference.qnot(fn(a)) != fn(reference.qnot(a)):
                bad.append(("interchange", fn.__name__, a))
    for a, b in pairs:  # bitswap distributes over the basic operators
        for op in (reference.qxor, reference.qor, reference.qand):
            if reference.bitswap(op(a, b)) != op(reference.bitswap(a), reference.bitswap(b)):
                bad.append(("bitswap distribution", op.__name__, a, b))

    # collect one witness per claimed non-law by exhaustive search
    inward_counterexamples = []
    shapes = {
        "inward(a+b) != a'*b'": lambda a, b: reference.inward(reference.qor(a, b))
        != reference.qand(reference.inward(a), reference.inward(b)),
        "inward(a*b) != a'+b'": lambda a, b: reference.inward(reference.qand(a, b))
        != reference.qor(reference.inward(a), reference.inward(b)),
        "inward(a+b) != a'+b'": lambda a, b: reference.inward(reference.qor(a, b))
        != reference.qor(reference.inward(a), reference.inward(b)),
        "inward(a*b) != a'*b'": lambda a, b: reference.inward(reference.qand(a, b))
        != reference.qand(reference.inward(a), reference.inward(b)),
    }
    for name, differs in shapes.items():
        witnesses = [(a, b) for a, b in pairs if differs(a, b)]
        if not witnesses:
            bad.append(("no counterexample", name))
        else:
            inward_counterexamples.append((name, *witnesses[0]))
    order_counterexamples = []
    for f, g in (
        (reference.bitswap, reference.outward),
        (reference.bitswap, reference.inward),
        (reference.inward, reference.outward),
    ):
        witnesses = [a for a in range(4) if f(g(a)) != g(f(a))]
        if not witnesses:
            bad.append(("no order counterexample", f.__name__, g.__name__))
        else:
            order_counterexamples.append((f.__name__, g.__name__, witnesses[0]))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    _report(9, ok, f"laws exhaustive; inward non-law witnesses "
                   f"{inward_counterexamples}; order witnesses "
                   f"{order_counterexamples}; {elapsed:.3f}s" if ok else str(bad[:5]))


def test_criterion_10_determinism():
    bad = []
    for spec in (
        AdderSpec("tree", 9),
        AdderSpec("sparse", 13, sparsity=4),
        AdderSpec("hybrid", 10, block=3),
    ):
        if netlist.to_json(build(spec)) != netlist.to_json(build(spec)):
            bad.append(("build", spec))
    s1 = rows_to_csv(sweep(["ripple", "single_stage", "tree"], range(2, 17)))
    s2 = rows_to_csv(sweep(["ripple", "single_stage", "tree"], range(2, 17)))
    if s1 != s2:
        bad.append(("sweep",))
    nl = reference.built(AdderSpec("sparse", 16, sparsity=4))
    r1 = verify.check_random(nl, 3000, seed=42).to_json()
    r2 = verify.check_random(nl, 3000, seed=42).to_json()
    if r1 != r2:
        bad.append(("verify report",))
    _report(10, not bad, "builds, sweeps and verification reports are "
                         "byte-identical across repeated runs"
                         if not bad else str(bad))
