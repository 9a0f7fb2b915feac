"""Seeded job generators for the benchmark workloads.

Each workload is an endless stream of blocks.  A block holds a fixed
multiset of job classes in a seeded order, so every run sees the same
class shares no matter how many blocks it completes; only the inputs
inside each class (coefficients, points, exponents) come from the seed.
Choices that move a job's cost by a large factor (the order M, the
output format, the kind of field) cycle through fixed lists per class
instead of being drawn, which keeps the median and tail steady across
seeds.

Fields are described structurally (see ``field_text``) so the checker
can rebuild the exact field without going through the parser or the
elaborator that produced the output.  Every expression reaches the CLI
as ``--field=<text>`` or ``--part=<text>``: a field that starts with a
minus sign would otherwise be read as a flag.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from flowring import autonomous, flow
from flowring.hurwitz import HurwitzSeries


@dataclass
class Job:
    """One unit of work.  ``argv`` for CLI jobs, ``call`` for library jobs."""

    cls: str
    label: str
    argv: list = None
    call: tuple = None
    expect: dict = field(default_factory=dict)


# -- field descriptions ------------------------------------------------
#
# A field is a list of components, summed:
#   ("poly", {power: coeff})         coeff a Fraction, or (re, im) for Q(i)
#   ("exp" | "sin" | "cos", a)       e.g. exp(a x), a a nonzero Fraction
#   ("pow", {power: coeff}, e)       (polynomial)^e


def _scalar_text(c):
    if isinstance(c, tuple):
        re, im = c
        imag = "i" if abs(im) == 1 else f"{abs(im)}i"
        if re == 0:
            return f"({'-' if im < 0 else ''}{imag})"
        return f"({re}{'-' if im < 0 else '+'}{imag})"
    return str(c)


def _monomial_text(power, c):
    var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
    if isinstance(c, tuple):
        return f"+{_scalar_text(c)}*{var}" if var else f"+{_scalar_text(c)}"
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if not var:
        return f"{sign}{mag}"
    return f"{sign}{var}" if mag == 1 else f"{sign}{mag}*{var}"


def _poly_text(coeffs):
    text = "".join(_monomial_text(p, coeffs[p]) for p in sorted(coeffs, reverse=True))
    return text[1:] if text.startswith("+") else text


def field_text(spec):
    """Expression text for a field description."""
    parts = []
    for comp in spec:
        if comp[0] == "poly":
            parts.append(_poly_text(comp[1]))
        elif comp[0] == "pow":
            parts.append(f"({_poly_text(comp[1])})^{comp[2]}")
        else:
            parts.append(f"{comp[0]}({comp[1]}*x)")
    text = parts[0]
    for part in parts[1:]:
        text += part if part.startswith("-") else "+" + part
    return text


def _frac(rng, num=4, den=3, nonzero=False):
    while True:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if value or not nonzero:
            return value


def _poly(rng, degree, num=4, den=3):
    """Dense polynomial of the given degree, as {power: coeff}.

    Numerators and signs are drawn; the denominator of x^p is fixed at
    1 + p % den.  Coefficient growth, and with it the cost of a job, is
    set mostly by the denominators, so fixing them keeps the cost of a
    class close across seeds.
    """
    return {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, num), 1 + p % den)
            for p in range(degree + 1)}


def _gaussian_poly(rng, degree):
    coeffs = {}
    for p in range(degree + 1):
        re, im = _frac(rng, 3, 2), _frac(rng, 3, 2)
        coeffs[p] = (re, im) if im else re
    coeffs[degree] = (_frac(rng, 3, 2), _frac(rng, 3, 2, nonzero=True))
    return {p: c for p, c in coeffs.items() if c}


def _scale(rng, num=3, den=2):
    return _frac(rng, num, den, nonzero=True)


# -- workloads -----------------------------------------------------------


class Workload:
    """Block schedule plus one generator method per job class."""

    name = ""
    block = ()  # (class, count) pairs

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.made = Counter()

    def blocks(self):
        classes = [cls for cls, count in self.block for _ in range(count)]
        while True:
            order = list(classes)
            self.rng.shuffle(order)
            yield [self._make(cls) for cls in order]

    def _make(self, cls):
        k = self.made[cls]
        self.made[cls] += 1
        return getattr(self, "_" + cls)(k)


def _cli_sequence(cls, label, command, fmt, spec, order_x, order_t, domain="rational"):
    argv = [command, f"--field={field_text(spec)}", f"--order-x={order_x}",
            f"--order-t={order_t}", f"--domain={domain}", f"--format={fmt}"]
    expect = {"kind": "sequence", "command": command, "format": fmt, "field": spec,
              "order_x": order_x, "order_t": order_t}
    return Job(cls, label, argv=argv, expect=expect)


class CliSeries(Workload):
    """The exact commands a user types, run in-process through ``cli.main``."""

    name = "cli-series"
    block = (("small", 10), ("gaussian", 3), ("decompose", 2), ("power", 1),
             ("n64", 3), ("reject", 1))

    # (field kind, command, format).  The median job of the workload is the
    # 90th percentile of this class, so the two slowest variants are the
    # same job shape and the median lands inside them, not between shapes.
    _SMALL = (("exp", "series", "text"), ("sin", "flow", "json"), ("cos", "series", "json"),
              ("poly1", "flow", "text"), ("poly2", "series", "json"), ("poly3", "flow", "text"),
              ("poly4", "series", "text"), ("poly4", "flow", "json"),
              ("poly5", "series", "json"), ("poly5", "flow", "json"))

    def _small(self, k):
        kind, command, fmt = self._SMALL[k % len(self._SMALL)]
        if kind.startswith("poly"):
            spec = [("poly", _poly(self.rng, int(kind[-1])))]
        else:
            spec = [(kind, _scale(self.rng))]
        return _cli_sequence("small", f"small/{kind}", command, fmt, spec, 16, 12)

    def _gaussian(self, k):
        spec = [("poly", _gaussian_poly(self.rng, 1 + k % 3))]
        return _cli_sequence("gaussian", "gaussian", ("series", "flow")[k % 2],
                             ("text", "json")[(k // 2) % 2], spec, 24, 12, "gaussian")

    _DECOMPOSE_ORDERS = ((16, 8), (20, 12), (24, 16), (16, 12), (24, 8), (20, 16))

    def _decompose(self, k):
        mode = ("sum", "product")[k % 2]
        count = 2 + (k // 2) % 3
        order_x, order_t = self._DECOMPOSE_ORDERS[(k // 2) % len(self._DECOMPOSE_ORDERS)]
        fmt = ("text", "json")[(k // 6) % 2]
        parts = []
        for _ in range(count):
            if self.rng.random() < 0.25:
                parts.append([("exp", _scale(self.rng, 2, 2))])
            else:
                parts.append([("poly", _poly(self.rng, self.rng.randint(1, 2), 3, 2))])
        argv = ["decompose", f"--mode={mode}"]
        argv += [f"--part={field_text(p)}" for p in parts]
        argv += [f"--order-x={order_x}", f"--order-t={order_t}", f"--format={fmt}"]
        expect = {"kind": "decompose", "format": fmt, "mode": mode, "parts": parts,
                  "order_x": order_x, "order_t": order_t}
        return Job("decompose", f"decompose/{mode}", argv=argv, expect=expect)

    def _power(self, k):
        base = {0: Fraction(1), 1: _frac(self.rng, 2, 2, nonzero=True)}
        if k % 2:
            base[2] = _frac(self.rng, 2, 2, nonzero=True)
        spec = [("pow", base, self.rng.randint(16, 128))]
        return _cli_sequence("power", "power", "series", ("text", "json")[k % 2], spec, 16, 12)

    def _n64(self, k):
        spec = [("poly", _poly(self.rng, 4, 3, 3))]
        return _cli_sequence("n64", "n64", "series", "json", spec, 64, 64)

    def _reject(self, k):
        a = self.rng.randint(2, 9)
        cases = (
            (["series", f"--field={a}*x^2+"], 1),
            (["flow", f"--field=({a}*x+1"], 1),
            (["series", f"--field=x^{3 * a + 1}/3"], 1),
            (["series", f"--field={a}i*x+1"], 2),
            (["flow", f"--field=exp({a}*x^2)"], 2),
            (["series", f"--field=x^{a}", f"--order-x={64 + a}"], 3),
            (["series", f"--field=x^{a}", "--order-x=16", f"--order-t={16 + a}"], 3),
            (["flow", f"--field={a}*x", "--format=xml"], 3),
        )
        argv, code = cases[k % len(cases)]
        return Job("reject", f"reject/exit{code}", argv=argv,
                   expect={"kind": "reject", "code": code})


def _rational_field(rng, degree, order=16):
    """Seeded rational polynomial field of the given degree, as a series."""
    coeffs = _poly(rng, degree)
    return HurwitzSeries.from_polynomial([coeffs[p] for p in range(degree + 1)], order)


def _semigroup_job(f, m):
    return flow.semigroup_check(f, m)


def _derivation_job(f, m):
    return flow.derivation_identity_check(f, m)


def _combination_job(f, g, m, mode):
    return flow.flow_combination_check(f, g, m, mode)


def _bell_path_job(f, m):
    return autonomous.autonomous_sequence_bell(f, m) == autonomous.autonomous_sequence(f, m)


def _inverse_job(u, unit_flow):
    return flow.flow_series(u * u.inverse(), unit_flow.order_t) == unit_flow


class IdentityChecks(Workload):
    """The heavy half of ``verify``: identity checks called as library functions.

    The M = 5 semigroup check is the slowest job, and it is given a fifth of
    the jobs so the 90th percentile lies inside that class, not on its edge.
    """

    name = "identity-checks"
    block = (("semigroup", 8), ("derivation", 4), ("combination", 3), ("bell", 4),
             ("inverse", 1))
    order = 16

    def _semigroup(self, k):
        m = (3, 4, 5, 5)[k % 4]
        f = _rational_field(self.rng, 1 + (k // 4) % 3, self.order)
        return Job("semigroup", f"semigroup/M={m}", call=(_semigroup_job, f, m),
                   expect={"kind": "report"})

    def _derivation(self, k):
        m = (6, 7, 8)[k % 3]
        f = _rational_field(self.rng, 1 + (k // 3) % 3, self.order)
        return Job("derivation", f"derivation/M={m}", call=(_derivation_job, f, m),
                   expect={"kind": "report"})

    def _combination(self, k):
        m = (2, 3, 4)[k % 3]
        mode = ("sum", "product")[(k // 3) % 2]
        f = _rational_field(self.rng, 1 + (k // 6) % 3, self.order)
        g = _rational_field(self.rng, 1 + (k // 6) % 3, self.order)
        return Job("combination", f"combination/M={m}",
                   call=(_combination_job, f, g, m, mode), expect={"kind": "report"})

    def _bell(self, k):
        m = (10, 11, 12)[k % 3]
        f = _rational_field(self.rng, 1 + (k // 3) % 3, self.order)
        return Job("bell", f"bell/M={m}", call=(_bell_path_job, f, m),
                   expect={"kind": "equal"})

    def _inverse(self, k):
        coeffs = [_frac(self.rng, 6, 4) for _ in range(self.order + 1)]
        coeffs[0] = Fraction(self.rng.randint(1, 6))
        u = HurwitzSeries.make(coeffs)
        unit_flow = flow.flow_series(HurwitzSeries.constant(1, self.order), 8)
        return Job("inverse", "inverse", call=(_inverse_job, u, unit_flow),
                   expect={"kind": "equal"})


class EvalOracle(Workload):
    """``eval --format json``: the series value against RK4 and the catalog."""

    name = "eval-oracle"
    block = (("catalog", 9), ("noncatalog", 8), ("high", 3))

    _CATALOG = ("constant", "affine", "monomial", "exp", "quadratic")
    _NONCATALOG = ("poly3", "poly4", "poly5", "expsin")

    def _job(self, cls, label, spec, closed):
        x = round(self.rng.uniform(-0.2, 0.2), 4)
        t = round(self.rng.uniform(0.02, 0.15), 4)
        argv = ["eval", f"--field={field_text(spec)}", f"--x={x}", f"--t={t}",
                "--order-x=16", "--order-t=12", "--format=json"]
        return Job(cls, label, argv=argv, expect={"kind": "eval", "closed": closed})

    def _catalog(self, k):
        kind = self._CATALOG[k % len(self._CATALOG)]
        rng = self.rng
        if kind == "constant":
            c = _frac(rng, 3, 2, nonzero=True)
            return self._job("catalog", "catalog/constant", [("poly", {0: c})], ("affine", (c,)))
        if kind == "affine":
            a, b = _scale(rng, 2, 2), _frac(rng, 2, 2)
            return self._job("catalog", "catalog/affine", [("poly", {1: a, 0: b} if b else {1: a})],
                             ("exponential", (a, -b / a)))
        if kind == "monomial":
            a, power = _scale(rng, 2, 2), rng.randint(2, 6)
            return self._job("catalog", "catalog/monomial", [("poly", {power: a})],
                             ("power", (a, power)))
        if kind == "exp":
            a = _scale(rng, 1, 1) * Fraction(rng.randint(1, 4), 4)
            return self._job("catalog", "catalog/exp", [("exp", a)], ("expfield", (a,)))
        b = _frac(rng, 2, 1)
        c = b * b / 4 + Fraction(rng.randint(1, 6), 2)
        poly = {2: Fraction(1), 0: c}
        if b:
            poly[1] = -b
        return self._job("catalog", "catalog/quadratic", [("poly", poly)],
                         ("irreducible_quadratic", (b, c)))

    def _noncatalog(self, k):
        kind = self._NONCATALOG[k % len(self._NONCATALOG)]
        if kind == "expsin":
            spec = [("exp", _scale(self.rng, 1, 2)), ("sin", _scale(self.rng, 1, 2))]
        else:
            spec = [("poly", _poly(self.rng, int(kind[-1]), 2, 2))]
        return self._job("noncatalog", f"noncatalog/{kind}", spec, None)

    def _high(self, k):
        a, power = _scale(self.rng, 2, 2), self.rng.randint(20, 60)
        return self._job("high", "high-degree", [("poly", {power: a})], ("power", (a, power)))


WORKLOADS = {w.name: w for w in (CliSeries, IdentityChecks, EvalOracle)}
