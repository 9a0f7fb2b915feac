"""Command line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 parse error, 2 domain error, 3 invalid flags, 4 verification failure.
A command's output is written only when it returns, so a command that
fails writes nothing to stdout.  This module alone knows the JSON
payloads and their key names.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
import json
import sys

from .errors import (
    DomainMismatchError,
    FlowringError,
    NumericBlowupError,
    OutOfRangeError,
    ParseError,
)
from .autonomous import autonomous_sequence
from .bell import bell_polynomial
from .expr import elaborate, parse
from .flow import closed_form_eval, decompose_flow, match_closed_form
from .oracle import rk4_solve
from .scalars import Domain, format_scalar, parse_scalar
from .verify import run_suite

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls.

    Sharing is safe: parse_args leaves the parser unchanged (an appended
    --part list is a fresh list in each namespace), and help text reads
    COLUMNS when it is formatted, not when the parser is built.
    """
    parser = _Parser(
        prog="flowring",
        description="Exact truncated series arithmetic for one-dimensional "
        "autonomous flows. Results go to stdout, diagnostics to stderr. "
        "Exit codes: 0 success, 1 parse error, 2 domain error, "
        "3 invalid flags, 4 verification failure.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{series,flow,eval,decompose,verify,bell-debug}",
    )

    def common(p, with_field=True):
        if with_field:
            p.add_argument("--field", required=True,
                           help="vector field expression; write --field=-x when it starts with '-'")
        p.add_argument("--order-x", type=int, default=16, dest="order_x")
        p.add_argument("--order-t", type=int, default=12, dest="order_t")
        p.add_argument("--domain", choices=["rational", "gaussian"], default="rational")
        p.add_argument("--format", choices=["text", "json"], default="text")

    common(sub.add_parser("series", help="print the coefficient sequence of a field"))
    common(sub.add_parser("flow", help="print the truncated flow of a field"))

    p_eval = sub.add_parser("eval", help="evaluate the flow at a point")
    common(p_eval)
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument("--x", type=float, required=True)

    p_dec = sub.add_parser("decompose", help="combine the flows of several parts")
    p_dec.add_argument("--mode", choices=["sum", "product"], required=True)
    p_dec.add_argument("--part", action="append", required=True, dest="parts",
                       help="one part of the field; write --part=-x when it starts with '-'")
    common(p_dec, with_field=False)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")

    p_bell = sub.add_parser("bell-debug", help="evaluate a Bell polynomial")
    p_bell.add_argument("--n", type=int, required=True)
    p_bell.add_argument("--b", required=True, help="comma separated scalars b_1..b_n")
    p_bell.add_argument("--a", required=True, help="comma separated scalars a_1..a_n")
    p_bell.add_argument("--domain", choices=["rational", "gaussian"], default="rational")

    return parser


def _check_orders(args):
    if not 1 <= args.order_x <= 64:
        raise _UsageError("--order-x must lie in 1..64")
    if not 1 <= args.order_t <= args.order_x:
        raise _UsageError("--order-t must lie in 1..order-x")


def _coeff_texts(series):
    """The text of each coefficient of ``series``, read from its integer parts."""
    den = series.den
    if len(series.parts) == 1:
        return [format_scalar(m, den) for m in series.parts[0]]
    return [format_scalar(re, den, im) for re, im in zip(*series.parts)]


def _series_rows(label, terms, out):
    for n, term in enumerate(terms):
        out.write(f"{label.format(n=n)} {' '.join(_coeff_texts(term))}\n")


def _series_json(series):
    return {
        "domain": series.domain.value,
        "orderX": series.order,
        "coeffs": _coeff_texts(series),
    }


def _sequence_json(seq, key):
    """JSON of a sequence, its terms under ``key``: "terms" for series, "tcoeffs" for flows."""
    return {
        "field": _series_json(seq.field),
        "orderT": seq.order_t,
        key: [_series_json(t) for t in seq.terms],
    }


def _json_text(value, indent=""):
    """The text of ``json.dumps(value, indent=2)`` for string-keyed payloads, from scalar dumps.

    The library's indenting encoder is pure Python and leaves a reference
    cycle of closures behind on every call, garbage that only the cyclic
    collector frees; this one leaves none.
    """
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'  # json.dumps escapes nothing in such a string
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_text(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _cmd_series(args, out):
    """The series and flow commands: one sequence, printed under two names."""
    is_flow = args.command == "flow"
    domain = Domain(args.domain)
    field = elaborate(parse(args.field), args.order_x, domain)
    seq = autonomous_sequence(field, args.order_t)
    if args.format == "json":
        out.write(_json_text(_sequence_json(seq, "tcoeffs" if is_flow else "terms")) + "\n")
    else:
        out.write(f"field: {' '.join(_coeff_texts(field))}\n")
        _series_rows("t[{n}]:" if is_flow else "A[{n}]:", seq.terms, out)
    return EXIT_OK


def _cmd_eval(args, out):
    domain = Domain(args.domain)
    ast = parse(args.field)
    field = elaborate(ast, args.order_x, domain)
    series_value = autonomous_sequence(field, args.order_t).eval_at(args.t, args.x)
    is_real = not isinstance(series_value, complex) or series_value.imag == 0.0
    if isinstance(series_value, complex) and series_value.imag == 0.0:
        series_value = series_value.real

    closed = match_closed_form(ast) if is_real else None
    closed_value = closed_form_eval(closed, args.t, args.x) if closed else None
    rk4_value = None
    if is_real:
        try:
            rk4_value = rk4_solve(ast, args.x, args.t, 512)[-1]
        except DomainMismatchError:
            rk4_value = None  # complex-valued field with a real flow
    if not cmath.isfinite(series_value):
        raise NumericBlowupError(f"the series value {series_value!r} is not finite")

    if args.format == "json":
        payload = {
            "series": series_value if is_real else [series_value.real, series_value.imag],
            "closed_form": closed_value,
            "closed_form_kind": {
                "kind": closed.kind.value,
                "params": [format_scalar(p) for p in closed.params],
            } if closed else None,
            "rk4": rk4_value,
        }
        out.write(_json_text(payload) + "\n")
        return EXIT_OK
    out.write(f"series = {series_value!r}\n")
    if closed_value is not None:
        out.write(
            f"closed_form = {closed_value!r} ({closed.kind.value}: {closed.field_text()})\n"
        )
        out.write(f"delta_closed_form = {abs(series_value - closed_value):.3e}\n")
    if rk4_value is not None:
        out.write(f"rk4 = {rk4_value!r}\n")
        out.write(f"delta_rk4 = {abs(series_value - rk4_value):.3e}\n")
    return EXIT_OK


def _cmd_decompose(args, out):
    domain = Domain(args.domain)
    parts = [elaborate(parse(text), args.order_x, domain) for text in args.parts]
    result = decompose_flow(parts, args.mode, args.order_t)
    if args.format == "json":
        payload = {
            "mode": args.mode,
            "combined": _sequence_json(result.combined, "tcoeffs"),
            "components": [_sequence_json(c, "tcoeffs") for c in result.components],
            "matches_direct": result.matches_direct,
        }
        out.write(_json_text(payload) + "\n")
    else:
        out.write(f"mode: {args.mode} with {len(parts)} part(s)\n")
        verdict = "PASS" if result.matches_direct else "FAIL"
        out.write(f"combined equals the direct flow: {verdict}\n")
        _series_rows("t[{n}]:", result.combined.terms, out)
        for idx, component in enumerate(result.components):
            out.write(f"component[{idx}]:\n")
            _series_rows("  t[{n}]:", component.terms, out)
    return EXIT_OK if result.matches_direct else EXIT_VERIFY


def _cmd_verify(args, out):
    outcomes = run_suite(args.seed)
    if args.format == "json":
        payload = [
            {"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes
        ]
        out.write(_json_text(payload) + "\n")
    else:
        for o in outcomes:
            mark = "PASS" if o.passed else "FAIL"
            detail = f": {o.detail}" if o.detail else ""
            out.write(f"{mark} {o.name}{detail}\n")
        passed = sum(1 for o in outcomes if o.passed)
        out.write(f"RESULT: {passed}/{len(outcomes)} checks passed (seed {args.seed})\n")
    return EXIT_OK if all(outcomes) else EXIT_VERIFY


def _cmd_bell_debug(args, out):
    domain = Domain(args.domain)
    b = [parse_scalar(text, domain) for text in args.b.split(",")]
    a = [parse_scalar(text, domain) for text in args.a.split(",")]
    value = bell_polynomial(args.n, b, a)
    out.write(f"Y_{args.n} = {format_scalar(value)}\n")
    return EXIT_OK


_COMMANDS = {
    "series": _cmd_series,
    "flow": _cmd_series,
    "eval": _cmd_eval,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "bell-debug": _cmd_bell_debug,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    buffer = io.StringIO()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "order_x"):
            _check_orders(args)
        code = _COMMANDS[args.command](args, buffer)
    except (_UsageError, OutOfRangeError, ValueError) as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (FlowringError, ZeroDivisionError) as exc:
        err.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    out.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
