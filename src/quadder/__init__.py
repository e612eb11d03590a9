"""Quaternary-logic adder laboratory.

Value-level quaternary algebra and adder cells, gate-level netlist
generation for five adder architectures, simulation, exhaustive and
randomized verification against an integer oracle, and delay/cost
analysis with closed-form comparisons.
"""

from .qudit import (
    bitswap,
    check_qudit,
    check_word,
    equality,
    int_to_word,
    inward,
    is_symmetrical,
    outward,
    qand,
    qnand,
    qnor,
    qnot,
    qor,
    qxnor,
    qxor,
    saturate3,
    word_to_int,
)
from .cells import (
    PropGen,
    SumCarry,
    carry_step,
    full_add,
    half_add,
    pg,
    ripple_add,
    single_stage_carries,
)
from .netlist import (
    CostReport,
    DocumentError,
    Netlist,
    NetlistBuilder,
    Node,
    add_batch,
    count_group,
    evaluate_words,
    from_json,
    lower_fanin2,
    measure,
    to_dot,
    to_json,
)
from .builders import (
    KINDS,
    AdderSpec,
    build,
    spec_for,
)
from .analysis import ClosedForm, ComparisonRow, closed_form, compare, rows_to_csv, sweep
from .verify import (
    VerifyReport,
    check_exhaustive,
    check_random,
    check_truth_tables,
    oracle_add,
)

__version__ = "0.1.0"
