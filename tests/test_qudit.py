"""Algebra layer: operator tables, special-operator maps, algebraic laws."""

import itertools

import pytest
import reference
from reference import TABLE_I

from quadder import qudit

ALL = range(4)
PAIRS = list(itertools.product(ALL, ALL))


def test_operator_table_rows():
    for a, b, and_, or_, xor_, nand_, nor_, xnor_, eq_ in TABLE_I:
        assert qudit.qand(a, b) == and_
        assert qudit.qor(a, b) == or_
        assert qudit.qxor(a, b) == xor_
        assert reference.qnand(a, b) == nand_
        assert reference.qnor(a, b) == nor_
        assert reference.qxnor(a, b) == xnor_
        assert reference.equality(a, b) == eq_


def test_derived_columns_are_complements():
    for a, b in PAIRS:
        assert reference.qnand(a, b) == qudit.qnot(qudit.qand(a, b))
        assert reference.qnor(a, b) == qudit.qnot(qudit.qor(a, b))
        assert reference.qxnor(a, b) == qudit.qnot(qudit.qxor(a, b))


@pytest.mark.parametrize(
    "fn,table",
    [
        (qudit.qnot, {0: 3, 1: 2, 2: 1, 3: 0}),
        (qudit.inward, {0: 2, 1: 2, 2: 1, 3: 1}),
        (qudit.outward, {0: 3, 1: 3, 2: 0, 3: 0}),
        (qudit.bitswap, {0: 0, 1: 2, 2: 1, 3: 3}),
        (reference.saturate3, {0: 0, 1: 0, 2: 0, 3: 3}),
    ],
)
def test_unary_maps(fn, table):
    for a, want in table.items():
        assert fn(a) == want


def test_identity_elements_and_involutions():
    for x in ALL:
        assert qudit.qand(3, x) == x
        assert qudit.qor(0, x) == x
        assert qudit.qxor(x, x) == 0
        assert qudit.qnot(qudit.qnot(x)) == x
        assert qudit.bitswap(qudit.bitswap(x)) == x
        # complement identities the equality operator's definition leans on
        assert qudit.qand(qudit.qnot(x), x) == 0
        assert qudit.qor(qudit.qnot(x), x) == 3


def test_equality_contract():
    for a, b in PAIRS:
        assert reference.equality(a, b) == (3 if a == b else 0)
        assert reference.equality(a, b) == reference.equality(b, a)


def test_variadic_folds_match_pairwise():
    for a, b, c in itertools.product(ALL, repeat=3):
        assert qudit.qand(a, b, c) == qudit.qand(qudit.qand(a, b), c)
        assert qudit.qor(a, b, c) == qudit.qor(qudit.qor(a, b), c)
        assert qudit.qxor(a, b, c) == qudit.qxor(qudit.qxor(a, b), c)


def test_commutative_associative():
    for a, b in PAIRS:
        for op in (qudit.qand, qudit.qor, qudit.qxor):
            assert op(a, b) == op(b, a)
    for a, b, c in itertools.product(ALL, repeat=3):
        for op in (qudit.qand, qudit.qor, qudit.qxor):
            assert op(op(a, b), c) == op(a, op(b, c))


def test_de_morgan_basic_and_outward():
    for a, b in PAIRS:
        assert qudit.qnot(qudit.qor(a, b)) == qudit.qand(qudit.qnot(a), qudit.qnot(b))
        assert qudit.qnot(qudit.qand(a, b)) == qudit.qor(qudit.qnot(a), qudit.qnot(b))
        assert qudit.outward(qudit.qor(a, b)) == qudit.qand(qudit.outward(a), qudit.outward(b))
        assert qudit.outward(qudit.qand(a, b)) == qudit.qor(qudit.outward(a), qudit.outward(b))


def test_inward_defeats_every_de_morgan_shape():
    # the inward inverter admits no simple distribution law: each of the
    # four candidate identities has a counterexample among the 16 pairs
    shapes = [
        lambda a, b: (qudit.inward(qudit.qor(a, b)), qudit.qand(qudit.inward(a), qudit.inward(b))),
        lambda a, b: (qudit.inward(qudit.qand(a, b)), qudit.qor(qudit.inward(a), qudit.inward(b))),
        lambda a, b: (qudit.inward(qudit.qor(a, b)), qudit.qor(qudit.inward(a), qudit.inward(b))),
        lambda a, b: (qudit.inward(qudit.qand(a, b)), qudit.qand(qudit.inward(a), qudit.inward(b))),
    ]
    for shape in shapes:
        witnesses = [(a, b) for a, b in PAIRS if shape(a, b)[0] != shape(a, b)[1]]
        assert witnesses, "claimed non-law held on all 16 pairs"
    # the specific witness: inward(0|3) = 1 but inward(0)&inward(3) = 0
    assert qudit.inward(qudit.qor(0, 3)) == 1
    assert qudit.qand(qudit.inward(0), qudit.inward(3)) == 0


def test_basic_inversion_commutes_with_special_operators():
    for a in ALL:
        for fn in (qudit.inward, qudit.outward, qudit.bitswap):
            assert qudit.qnot(fn(a)) == fn(qudit.qnot(a))


def test_special_operator_pairs_do_not_commute():
    pairs = [
        (qudit.bitswap, qudit.outward),
        (qudit.bitswap, qudit.inward),
        (qudit.inward, qudit.outward),
    ]
    for f, g in pairs:
        witnesses = [a for a in ALL if f(g(a)) != g(f(a))]
        assert witnesses, (f.__name__, g.__name__)
    assert qudit.bitswap(qudit.outward(1)) == 3
    assert qudit.outward(qudit.bitswap(1)) == 0


def test_bitswap_distributes_over_basic_operators():
    for a, b in PAIRS:
        for op in (qudit.qxor, qudit.qor, qudit.qand):
            assert qudit.bitswap(op(a, b)) == op(qudit.bitswap(a), qudit.bitswap(b))


def test_closure_and_domain_rejection():
    unary = (qudit.qnot, qudit.inward, qudit.outward, qudit.bitswap, reference.saturate3)
    for a in ALL:
        for fn in unary:
            assert fn(a) in ALL
    for a, b in PAIRS:
        for op in (qudit.qand, qudit.qor, qudit.qxor, reference.equality):
            assert op(a, b) in ALL
    for bad in (-1, 4, 17):
        with pytest.raises(ValueError):
            qudit.check_qudit(bad)
        with pytest.raises(ValueError):
            qudit.qand(bad, 1)
    with pytest.raises(TypeError):
        qudit.check_qudit(1.5)


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
        qudit.check_word([0, 4])
    with pytest.raises(ValueError):
        qudit.check_word([], None)
