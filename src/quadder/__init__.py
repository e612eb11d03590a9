"""Quaternary-logic adder laboratory.

Gate-level netlists of quaternary gates, whose semantics are one table of
gate kinds in ``netlist``; netlist generation for five adder
architectures, simulation, exhaustive and randomized verification against
an integer oracle, and delay/cost analysis with closed-form comparisons.
"""

from .netlist import (
    CostReport,
    DocumentError,
    Netlist,
    NetlistBuilder,
    Node,
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
)
from .analysis import ClosedForm, ComparisonRow, closed_form, compare, rows_to_csv, sweep
from .verify import (
    VerifyReport,
    check_exhaustive,
    check_random,
)

__version__ = "0.1.0"
