"""Exact truncated series arithmetic for one-dimensional autonomous flows."""

from .autonomous import (
    AutonomousSequence,
    autonomous_sequence,
    autonomous_sequence_bell,
    box_dot,
    box_plus,
    scalar_action,
    sum_interaction_terms,
)
from .bell import bell_polynomial, partial_bell, partition_weight, partitions
from .errors import (
    ClosedFormDomainError,
    DigitLimitError,
    DomainMismatchError,
    DomainRequiredError,
    FlowringError,
    NotAUnitError,
    NumericBlowupError,
    OrderExhaustedError,
    OrderMismatchError,
    OutOfRangeError,
    ParseError,
    UnsupportedArgumentError,
)
from .expr import (
    elaborate,
    format_expr,
    parse,
    polynomial_coefficients,
    series_from_text,
)
from .flow import (
    CheckReport,
    ClosedFormFlow,
    DecompositionResult,
    FlowKind,
    FlowSeries,
    OrbitPoint,
    PointKind,
    classify_point,
    closed_form_eval,
    decompose_flow,
    derivation_identity_check,
    flow_boxdot,
    flow_boxplus,
    flow_combination_check,
    flow_series,
    match_closed_form,
    semigroup_check,
    time_scale,
)
from .hurwitz import (
    HurwitzSeries,
    add_truncating,
    mul_truncating,
    power_truncating,
)
from .oracle import eval_field, fd_flow_derivative_check, rk4_solve
from .scalars import (
    Domain,
    GaussianRational,
    format_scalar,
    parse_scalar,
)

__version__ = "0.1.0"
