"""Closed forms, formula identities, measured comparisons and sweeps."""

import pytest
import reference

from quadder import analysis
from quadder.analysis import (
    closed_form,
    compare,
    rows_to_csv,
    single_stage_gates_per_qudit,
    single_stage_inputs_per_qudit,
    sweep,
)
from quadder.builders import AdderSpec, ceil_log2


def test_closed_form_spot_values():
    assert closed_form(AdderSpec("ripple", 4)).delay == 20
    assert closed_form(AdderSpec("ripple", 4)).gates == 36
    assert closed_form(AdderSpec("ripple", 4)).inputs == 76

    ss = closed_form(AdderSpec("single_stage", 3))
    assert ss.delay == 6 and ss.gates == 33 and ss.inputs == 77

    tr = closed_form(AdderSpec("tree", 7))
    assert tr.delay == 10
    assert tr.detail["product_tree_gates"] == 10
    assert tr.detail["product_tree_inputs"] == 20
    assert tr.detail["carry_tree_gates"] == 34
    assert tr.detail["carry_tree_inputs"] == 68

    assert closed_form(AdderSpec("sparse", 8)) is None
    assert closed_form(AdderSpec("hybrid", 8)) is None
    with pytest.raises(ValueError):
        closed_form(AdderSpec("nonesuch", 4))
    with pytest.raises(ValueError):
        closed_form(AdderSpec("ripple", 0))


def test_single_stage_sum_identities_up_to_256():
    for n in range(1, 257):
        gates = sum(single_stage_gates_per_qudit(i) for i in range(1, n + 1))
        inputs = sum(single_stage_inputs_per_qudit(i) for i in range(1, n + 1))
        cf = closed_form(AdderSpec("single_stage", n))
        assert gates == n * n + 8 * n == cf.gates
        assert (n**3 + 9 * n**2 + 41 * n) % 3 == 0
        assert inputs == (n**3 + 9 * n**2 + 41 * n) // 3 == cf.inputs


def test_delay_dominance():
    for n in range(2, 129):
        tree = 4 + 2 * ceil_log2(n)
        assert 6 <= tree <= 5 * n
        assert tree < 5 * n


def test_tree_inputs_double_gates():
    for n in range(1, 129):
        cf = closed_form(AdderSpec("tree", n))
        assert cf.inputs == 2 * cf.gates
        assert cf.detail["product_tree_inputs"] == 2 * cf.detail["product_tree_gates"]
        assert cf.detail["carry_tree_inputs"] == 2 * cf.detail["carry_tree_gates"]


def test_measured_delay_equals_closed_form():
    for n in range(1, 65):
        assert compare(AdderSpec("ripple", n)).meas_delay == 5 * n
        assert compare(AdderSpec("single_stage", n)).meas_delay == 6
    for n in range(1, 65):
        row = compare(AdderSpec("tree", n))
        assert row.meas_delay == row.cf_delay, n


def test_compare_examples():
    row = compare(AdderSpec("ripple", 4))
    assert row.meas_delay == 20 and reference.deviation(row, "delay") == (0, 0.0)

    row = compare(AdderSpec("tree", 8))
    assert row.meas_delay == 4 + 2 * 3 == row.cf_delay
    assert reference.deviation(row, "gates") == (0, 0.0)

    row = compare(AdderSpec("single_stage", 8))
    dev = reference.deviation(row, "inputs")
    assert abs(dev[1]) <= 0.25
    assert row.notes  # every deviation source itemized


def test_compare_has_no_closed_form_for_sparse_hybrid():
    row = compare(AdderSpec("sparse", 8))
    assert row.cf_delay is None and reference.deviation(row, "gates") is None
    assert row.meas_gates > 0


def test_sweep_shape_and_order():
    rows = sweep(["single_stage", "tree", "ripple"], range(2, 11))
    assert len(rows) == 27
    kinds = [r.kind for r in rows]
    assert kinds == ["single_stage"] * 9 + ["tree"] * 9 + ["ripple"] * 9
    ns = [r.n for r in rows if r.kind == "tree"]
    assert ns == list(range(2, 11))
    for r in rows:
        if r.kind == "single_stage":
            assert r.meas_delay == 6
        if r.kind == "tree":
            assert r.cf_delay == 4 + 2 * ceil_log2(r.n)
    with pytest.raises(ValueError):
        sweep([], [2])
    with pytest.raises(ValueError):
        sweep(["nonesuch"], [2])


def test_sweep_checks_every_spec_before_the_first_build(monkeypatch):
    built = []
    monkeypatch.setattr(analysis, "build", lambda spec: built.append(spec))
    with pytest.raises(ValueError, match="unknown adder kind: 'bogus'"):
        analysis.sweep(["tree", "bogus"], range(1, 65))
    assert built == []


def test_delay_ordering_over_sweep():
    for n in range(2, 65):
        ss = closed_form(AdderSpec("single_stage", n)).delay
        tr = closed_form(AdderSpec("tree", n)).delay
        ri = closed_form(AdderSpec("ripple", n)).delay
        assert ss <= tr < ri
        assert (ss == tr) == (n == 2)


def test_csv_deterministic_and_fixed_header():
    rows = sweep(["ripple", "tree"], [2, 3, 4])
    text1 = rows_to_csv(rows)
    text2 = rows_to_csv(sweep(["ripple", "tree"], [2, 3, 4]))
    assert text1 == text2
    header = text1.splitlines()[0]
    assert header == analysis.CSV_HEADER
    assert len(text1.splitlines()) == 7
    # sparse rows leave closed-form cells empty
    text = rows_to_csv(sweep(["sparse"], [8]))
    fields = text.splitlines()[1].split(",")
    assert fields[0] == "sparse" and fields[2] == "" and fields[4] == ""


def test_tree_depth_monotone_over_sweep():
    depths = [compare(AdderSpec("tree", n)).meas_delay for n in range(2, 33)]
    assert all(b >= a for a, b in zip(depths, depths[1:]))
