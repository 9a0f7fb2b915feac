"""Output checks for benchmark jobs, run outside the timed region.

Sequences and flows are checked against their defining recursion

    A_0 = x,  A_1 = f,  A_{n+1} = f * d(A_n)

in the prime field F_P, where f is rebuilt from the job's structural
description rather than from the program's parser or elaborator.  The
map Q(i) -> F_P sends i to a square root of -1, so Gaussian jobs are
checked the same way.  A coefficient that differs from the true one
survives this map only if P divides the difference of numerators, so a
corrupted output is caught with overwhelming probability while the check
costs a few machine-integer convolutions.  Sequences with M <= 8 are also
compared exactly with the partition (Bell) path, which shares no code
with the product recursion that produced them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from flowring import autonomous
from flowring.hurwitz import HurwitzSeries
from flowring.scalars import Domain, parse_scalar

P = 998244353  # prime, P = 1 (mod 4), so -1 has a square root mod P
SQRT_M1 = pow(3, (P - 1) // 4, P)  # 3 generates the multiplicative group

BELL_MAX_ORDER_T = 8
EVAL_TOLERANCE = 1e-5

_BINOM = [[math.comb(n, k) % P for k in range(n + 1)] for n in range(66)]
_FACT = [math.factorial(n) % P for n in range(66)]


class CheckFailure(Exception):
    """An output that does not match what the job requires."""


def _rat_mod(value):
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, P) % P


def scalar_mod(value):
    """Image in F_P of a Fraction or an (re, im) pair."""
    if isinstance(value, tuple):
        return (_rat_mod(value[0]) + _rat_mod(value[1]) * SQRT_M1) % P
    return _rat_mod(value)


def text_mod(text):
    """Image in F_P of a scalar printed by the program ("p/q", "p/q-r/si", "i")."""
    if not text.endswith("i"):
        return _rat_mod(Fraction(text))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re, im = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im in ("", "+", "-"):
        im += "1"
    return (_rat_mod(Fraction(re)) + _rat_mod(Fraction(im)) * SQRT_M1) % P


def _hmul(a, b):
    """Binomial convolution mod P of equal-length coefficient lists."""
    out = []
    for n in range(len(a)):
        row = _BINOM[n]
        acc = 0
        for k in range(n + 1):
            acc += row[k] * a[k] * b[n - k]
        out.append(acc % P)
    return out


def _poly_hurwitz(coeffs, order):
    """Hurwitz coefficients n! c_n mod P of an ordinary polynomial."""
    return [_FACT[n] * scalar_mod(coeffs.get(n, 0)) % P for n in range(order + 1)]


def _poly_pow(coeffs, exponent, order):
    base = [scalar_mod(coeffs.get(n, 0)) for n in range(order + 1)]
    acc = [1] + [0] * order
    for _ in range(exponent):
        acc = [sum(acc[k] * base[n - k] for k in range(n + 1)) % P for n in range(order + 1)]
    return [_FACT[n] * acc[n] % P for n in range(order + 1)]


def _geometric(a, order, pattern):
    """a^n times pattern[n % 4] mod P: exp is (1,1,1,1), sin (0,1,0,-1), cos (1,0,-1,0)."""
    a = scalar_mod(a)
    return [pattern[n % 4] * pow(a, n, P) % P for n in range(order + 1)]


_PATTERNS = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}


def field_mod(spec, order):
    """Hurwitz coefficients mod P of a structurally described field."""
    total = [0] * (order + 1)
    for comp in spec:
        if comp[0] == "poly":
            coeffs = _poly_hurwitz(comp[1], order)
        elif comp[0] == "pow":
            coeffs = _poly_pow(comp[1], comp[2], order)
        else:
            coeffs = _geometric(comp[1], order, _PATTERNS[comp[0]])
        total = [(s + c) % P for s, c in zip(total, coeffs)]
    return total


def check_terms(field, rows, order_x, order_t):
    """Raise CheckFailure unless rows (mod P) are A_0..A_M of the field."""
    if len(rows) != order_t + 1:
        raise CheckFailure(f"{len(rows)} terms, expected {order_t + 1}")
    if rows[0] != [0, 1] + [0] * (order_x - 1):
        raise CheckFailure("A_0 is not x")
    if rows[1] != field:
        raise CheckFailure("A_1 is not the field")
    for n in range(1, order_t):
        deriv = rows[n][1:]
        expected = _hmul(field[: len(deriv)], deriv)
        if rows[n + 1] != expected:
            raise CheckFailure(f"A_{n + 1} != f * d(A_{n})")


def check_bell(rows_text, order_t, domain):
    """Exact comparison of printed terms with the partition path (M <= 8)."""
    terms = [[parse_scalar(c, domain) for c in row] for row in rows_text]
    f = HurwitzSeries(terms[1], domain)
    reference = autonomous.autonomous_sequence_bell(f, order_t)
    if [list(t.coeffs) for t in reference.terms] != terms:
        raise CheckFailure("terms differ from the Bell path")


def _text_rows(lines, prefix):
    rows = []
    for line in lines:
        label, _, rest = line.strip().partition(" ")
        if label.startswith(prefix) and label.endswith("]:"):
            rows.append(rest.split())
    return rows


def _check_sequence_rows(rows_text, field, order_x, order_t, domain, bell=True):
    rows = [[text_mod(c) for c in row] for row in rows_text]
    check_terms(field, rows, order_x, order_t)
    if bell and order_t <= BELL_MAX_ORDER_T:
        check_bell(rows_text, order_t, domain)


def _check_sequence(job, stdout):
    e = job.expect
    order_x, order_t = e["order_x"], e["order_t"]
    field = field_mod(e["field"], order_x)
    domain = _domain(job.argv)
    if e["format"] == "json":
        payload = json.loads(stdout)
        key = "terms" if e["command"] == "series" else "tcoeffs"
        if payload["orderT"] != order_t or payload["field"]["orderX"] != order_x:
            raise CheckFailure("orders in the JSON header are wrong")
        if [text_mod(c) for c in payload["field"]["coeffs"]] != field:
            raise CheckFailure("field coefficients are wrong")
        rows_text = [t["coeffs"] for t in payload[key]]
    else:
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("field: "):
            raise CheckFailure("missing field line")
        if [text_mod(c) for c in lines[0].split()[1:]] != field:
            raise CheckFailure("field coefficients are wrong")
        rows_text = _text_rows(lines[1:], "A[" if e["command"] == "series" else "t[")
    _check_sequence_rows(rows_text, field, order_x, order_t, domain)


def _check_decompose(job, stdout):
    e = job.expect
    order_x, order_t = e["order_x"], e["order_t"]
    fields = [field_mod(p, order_x) for p in e["parts"]]
    folded = fields[0]
    for f in fields[1:]:
        if e["mode"] == "sum":
            folded = [(a + b) % P for a, b in zip(folded, f)]
        else:
            folded = _hmul(folded, f)
    if e["format"] == "json":
        payload = json.loads(stdout)
        if payload["matches_direct"] is not True or payload["mode"] != e["mode"]:
            raise CheckFailure("decompose verdict is not PASS")
        combined = [t["coeffs"] for t in payload["combined"]["tcoeffs"]]
        components = [[t["coeffs"] for t in c["tcoeffs"]] for c in payload["components"]]
    else:
        lines = stdout.splitlines()
        if len(lines) < 2 or lines[1] != "combined equals the direct flow: PASS":
            raise CheckFailure("decompose verdict is not PASS")
        starts = [i for i, line in enumerate(lines) if line.startswith("component[")]
        combined = _text_rows(lines[2:starts[0] if starts else None], "t[")
        components = [
            _text_rows(lines[s + 1: end], "t[")
            for s, end in zip(starts, starts[1:] + [len(lines)])
        ]
    if len(components) != len(fields):
        raise CheckFailure(f"{len(components)} components, expected {len(fields)}")
    _check_sequence_rows(combined, folded, order_x, order_t, _domain(job.argv))
    for rows_text, f in zip(components, fields):
        _check_sequence_rows(rows_text, f, order_x, order_t, _domain(job.argv), bell=False)


def _close(value, reference):
    return abs(value - reference) <= EVAL_TOLERANCE * max(1.0, abs(reference))


def _check_eval(job, stdout):
    payload = json.loads(stdout)
    series, rk4 = payload["series"], payload["rk4"]
    if not isinstance(series, float) or not isinstance(rk4, float):
        raise CheckFailure("series or rk4 value missing")
    if not _close(series, rk4):
        raise CheckFailure(f"|series - rk4| = {abs(series - rk4):.3e} exceeds the tolerance")
    closed = job.expect["closed"]
    kind = payload["closed_form_kind"]
    if closed is None:
        if kind is not None:
            raise CheckFailure(f"unexpected catalog match {kind}")
        return
    name, params = closed
    if kind is None or kind["kind"] != name or [Fraction(p) for p in kind["params"]] != list(params):
        raise CheckFailure(f"catalog entry {kind} is not {name}{params}")
    if not _close(series, payload["closed_form"]):
        raise CheckFailure("series value differs from the closed form")


_REJECT_PREFIX = {1: "parse error: ", 2: "domain error: ", 3: "usage error: "}


def _domain(argv):
    for arg in argv:
        if arg.startswith("--domain="):
            return Domain(arg.split("=", 1)[1])
    return Domain.RATIONAL


def check(job, outcome):
    """Raise CheckFailure unless the job's outcome is correct.

    ``outcome`` is (exit code, stdout, stderr) for CLI jobs and the
    returned value for library jobs.
    """
    kind = job.expect["kind"]
    if kind == "report":
        if not outcome.passed:
            raise CheckFailure(f"identity check failed: {outcome}")
        return
    if kind == "equal":
        if outcome is not True:
            raise CheckFailure("the two computations differ")
        return
    code, stdout, stderr = outcome
    if kind == "reject":
        expected = job.expect["code"]
        if code != expected or stdout or not stderr.startswith(_REJECT_PREFIX[expected]):
            raise CheckFailure(f"exit code {code}, expected {expected}: {stderr.strip()}")
        return
    if code != 0:
        raise CheckFailure(f"exit code {code}: {stderr.strip()}")
    {"sequence": _check_sequence, "decompose": _check_decompose, "eval": _check_eval}[kind](
        job, stdout)
