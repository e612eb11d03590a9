"""Algebra layer: operator tables, special-operator maps, algebraic laws."""

import itertools

import pytest
import reference
from reference import (
    TABLE_I,
    bitswap,
    check_qudit,
    check_word,
    inward,
    outward,
    qand,
    qnot,
    qor,
    qxor,
)

ALL = range(4)
PAIRS = list(itertools.product(ALL, ALL))


def test_operator_table_rows():
    for a, b, and_, or_, xor_, nand_, nor_, xnor_, eq_ in TABLE_I:
        assert qand(a, b) == and_
        assert qor(a, b) == or_
        assert qxor(a, b) == xor_
        assert reference.qnand(a, b) == nand_
        assert reference.qnor(a, b) == nor_
        assert reference.qxnor(a, b) == xnor_
        assert reference.equality(a, b) == eq_


def test_derived_columns_are_complements():
    for a, b in PAIRS:
        assert reference.qnand(a, b) == qnot(qand(a, b))
        assert reference.qnor(a, b) == qnot(qor(a, b))
        assert reference.qxnor(a, b) == qnot(qxor(a, b))


@pytest.mark.parametrize(
    "fn,table",
    [
        (qnot, {0: 3, 1: 2, 2: 1, 3: 0}),
        (inward, {0: 2, 1: 2, 2: 1, 3: 1}),
        (outward, {0: 3, 1: 3, 2: 0, 3: 0}),
        (bitswap, {0: 0, 1: 2, 2: 1, 3: 3}),
        (reference.saturate3, {0: 0, 1: 0, 2: 0, 3: 3}),
    ],
)
def test_unary_maps(fn, table):
    for a, want in table.items():
        assert fn(a) == want


def test_identity_elements_and_involutions():
    for x in ALL:
        assert qand(3, x) == x
        assert qor(0, x) == x
        assert qxor(x, x) == 0
        assert qnot(qnot(x)) == x
        assert bitswap(bitswap(x)) == x
        # complement identities the equality operator's definition leans on
        assert qand(qnot(x), x) == 0
        assert qor(qnot(x), x) == 3


def test_equality_contract():
    for a, b in PAIRS:
        assert reference.equality(a, b) == (3 if a == b else 0)
        assert reference.equality(a, b) == reference.equality(b, a)


def test_variadic_folds_match_pairwise():
    for a, b, c in itertools.product(ALL, repeat=3):
        assert qand(a, b, c) == qand(qand(a, b), c)
        assert qor(a, b, c) == qor(qor(a, b), c)
        assert qxor(a, b, c) == qxor(qxor(a, b), c)


def test_commutative_associative():
    for a, b in PAIRS:
        for op in (qand, qor, qxor):
            assert op(a, b) == op(b, a)
    for a, b, c in itertools.product(ALL, repeat=3):
        for op in (qand, qor, qxor):
            assert op(op(a, b), c) == op(a, op(b, c))


def test_de_morgan_basic_and_outward():
    for a, b in PAIRS:
        assert qnot(qor(a, b)) == qand(qnot(a), qnot(b))
        assert qnot(qand(a, b)) == qor(qnot(a), qnot(b))
        assert outward(qor(a, b)) == qand(outward(a), outward(b))
        assert outward(qand(a, b)) == qor(outward(a), outward(b))


def test_inward_defeats_every_de_morgan_shape():
    # the inward inverter admits no simple distribution law: each of the
    # four candidate identities has a counterexample among the 16 pairs
    shapes = [
        lambda a, b: (inward(qor(a, b)), qand(inward(a), inward(b))),
        lambda a, b: (inward(qand(a, b)), qor(inward(a), inward(b))),
        lambda a, b: (inward(qor(a, b)), qor(inward(a), inward(b))),
        lambda a, b: (inward(qand(a, b)), qand(inward(a), inward(b))),
    ]
    for shape in shapes:
        witnesses = [(a, b) for a, b in PAIRS if shape(a, b)[0] != shape(a, b)[1]]
        assert witnesses, "claimed non-law held on all 16 pairs"
    # the specific witness: inward(0|3) = 1 but inward(0)&inward(3) = 0
    assert inward(qor(0, 3)) == 1
    assert qand(inward(0), inward(3)) == 0


def test_basic_inversion_commutes_with_special_operators():
    for a in ALL:
        for fn in (inward, outward, bitswap):
            assert qnot(fn(a)) == fn(qnot(a))


def test_special_operator_pairs_do_not_commute():
    pairs = [
        (bitswap, outward),
        (bitswap, inward),
        (inward, outward),
    ]
    for f, g in pairs:
        witnesses = [a for a in ALL if f(g(a)) != g(f(a))]
        assert witnesses, (f.__name__, g.__name__)
    assert bitswap(outward(1)) == 3
    assert outward(bitswap(1)) == 0


def test_bitswap_distributes_over_basic_operators():
    for a, b in PAIRS:
        for op in (qxor, qor, qand):
            assert bitswap(op(a, b)) == op(bitswap(a), bitswap(b))


def test_closure_and_domain_rejection():
    unary = (qnot, inward, outward, bitswap, reference.saturate3)
    for a in ALL:
        for fn in unary:
            assert fn(a) in ALL
    for a, b in PAIRS:
        for op in (qand, qor, qxor, reference.equality):
            assert op(a, b) in ALL
    for bad in (-1, 4, 17):
        with pytest.raises(ValueError):
            check_qudit(bad)
        with pytest.raises(ValueError):
            qand(bad, 1)
    with pytest.raises(TypeError):
        check_qudit(1.5)


def test_symmetry_predicate():
    assert [reference.is_symmetrical(a) for a in ALL] == [True, False, False, True]


def test_word_round_trip():
    for width in (1, 2, 3):
        for value in range(4**width):
            w = reference.int_to_word(value, width)
            assert reference.word_to_int(w) == value
    with pytest.raises(ValueError):
        reference.int_to_word(16, 1)
    with pytest.raises(ValueError):
        check_word([0, 4])
    with pytest.raises(ValueError):
        check_word([], None)
