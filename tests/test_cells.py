"""Value-level cells against the printed truth table and integer arithmetic."""

import itertools

import pytest
import reference
from reference import TABLE_II, TABLE_II_DIVERGENT_ROW, oracle_add

ALL = range(4)


def test_half_add_matches_table_rows():
    for a, b, cin, s, c in TABLE_II:
        if cin != 0:
            continue
        assert reference.half_add(a, b) == (s, c)
        assert reference.half_add(b, a) == (s, c)


def test_half_add_arithmetic():
    for a, b in itertools.product(ALL, ALL):
        s, c = reference.half_add(a, b)
        assert 4 * c + s == a + b
        assert c in (0, 1)


def test_full_add_matches_table_except_divergent_row():
    for a, b, cin, s, c in TABLE_II:
        got = reference.full_add(a, b, cin)
        if (a, b, cin) == TABLE_II_DIVERGENT_ROW:
            # printed S=1 contradicts 0+3+1 = 4; the oracle value holds
            assert got == (0, 1)
            assert got.sum != s
        else:
            assert got == (s, c)


def test_full_add_arithmetic_all_80_cases():
    for a, b in itertools.product(ALL, ALL):
        for cin in (0, 1):
            s, c = reference.full_add(a, b, cin)
            assert 4 * c + s == a + b + cin
    # total as a logic function beyond the arithmetic contract
    for a, b, cin in itertools.product(ALL, ALL, (2, 3)):
        s, c = reference.full_add(a, b, cin)
        assert s in ALL and c in ALL


def test_two_cascaded_half_adders_equal_full_add():
    for a, b in itertools.product(ALL, ALL):
        for cin in (0, 1):
            first = reference.half_add(a, b)
            second = reference.half_add(first.sum, cin)
            s = second.sum
            c = reference.qor(first.carry, second.carry)
            assert (s, c) == reference.full_add(a, b, cin)


def test_pg_contract():
    for a, b in itertools.product(ALL, ALL):
        p, g = reference.pg(a, b)
        assert p == (3 if a + b == 3 else 0)
        assert g == (1 if a + b >= 4 else 0)
        assert not (p == 3 and g == 1)
        # generate coincides with the half adder's carry
        assert g == reference.half_add(a, b).carry


@pytest.mark.parametrize(
    "g,p,c_prev,want",
    [(0, 3, 1, 1), (1, 0, 0, 1), (0, 0, 1, 0), (0, 3, 0, 0), (1, 3, 1, 1)],
)
def test_carry_step_cases(g, p, c_prev, want):
    assert reference.carry_step(g, p, c_prev) == want


def test_carry_step_closure_on_contract_domain():
    for g in (0, 1):
        for p in (0, 3):
            for c in (0, 1):
                assert reference.carry_step(g, p, c) in (0, 1)


def test_ripple_add_examples():
    assert reference.ripple_add((3, 3), (1, 0), 0) == ((0, 0), 1)
    assert reference.ripple_add((0, 0, 0), (0, 0, 0), 1) == ((1, 0, 0), 0)
    # 9 + 6 + 1 = 16
    assert reference.ripple_add((1, 2), (2, 1), 1) == ((0, 0), 1)
    with pytest.raises(ValueError):
        reference.ripple_add((1, 2), (1,), 0)


def test_ripple_add_exhaustive_small():
    for n in (1, 2):
        for av in range(4**n):
            a = reference.int_to_word(av, n)
            for bv in range(4**n):
                b = reference.int_to_word(bv, n)
                for cin in (0, 1):
                    s, c = reference.ripple_add(a, b, cin)
                    want_s, want_c = oracle_add(a, b, cin)
                    assert (s, c) == (want_s, want_c)


def test_single_stage_carries_examples():
    assert reference.single_stage_carries((0, 0, 0), (3, 3, 3), 1) == (1, 1, 1)
    assert reference.single_stage_carries((0, 0, 0, 0), (0, 0, 0, 0), 0) == (0, 0, 0, 0)


def test_single_stage_carries_equal_ripple_carries_exhaustive_n3():
    n = 3
    for av in range(4**n):
        a = reference.int_to_word(av, n)
        for bv in range(4**n):
            b = reference.int_to_word(bv, n)
            for cin in (0, 1):
                flat = reference.single_stage_carries(a, b, cin)
                chain = []
                c = cin
                for da, db in zip(a, b):
                    c = reference.full_add(da, db, c).carry
                    chain.append(c)
                assert flat == tuple(chain)
                assert all(x in (0, 1) for x in flat)
