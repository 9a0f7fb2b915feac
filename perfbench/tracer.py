"""Outside-in layer tracing: spans recorded around flowring's public functions.

``Tracer.install`` replaces every public function and method named in
``SPANS`` with a wrapper that records a span (name, start, end, parent
span, job id).  Many functions are imported by value into other modules
(``cli.elaborate``, ``flow.mul_truncating``, ``autonomous.iter_partitions``
...), so the wrapper is bound at every module attribute that holds the
original, and ``install`` fails if any binding is left over.  Spans are
kept in flat arrays while the workload runs; per-layer metrics are
derived from them afterwards.  A span's self time is its duration minus
the durations of its child spans; one thread runs every job, so child
spans never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import time
from array import array
from collections import Counter

import flowring
from flowring.scalars import Domain, GaussianRational

# (module, attribute or Class.method, span name, how)
#   how: "call"       one span per call
#        "outermost"  one span per outermost call of a recursive function
#        "generator"  one span per item produced
SPANS = (
    ("cli", "main", "cli.main", "call"),
    ("scalars", "format_scalar", "scalars.format", "call"),
    ("hurwitz", "HurwitzSeries.__mul__", "hurwitz.mul", "call"),
    ("hurwitz", "HurwitzSeries.__add__", "hurwitz.add", "call"),
    ("hurwitz", "HurwitzSeries.__sub__", "hurwitz.add", "call"),
    ("hurwitz", "HurwitzSeries.scale", "hurwitz.scale", "call"),
    ("hurwitz", "HurwitzSeries.inverse", "hurwitz.inverse", "call"),
    ("hurwitz", "HurwitzSeries.eval_at", "hurwitz.eval_at", "call"),
    ("hurwitz", "mul_truncating", "hurwitz.mul_truncating", "call"),
    ("hurwitz", "add_truncating", "hurwitz.add_truncating", "call"),
    ("hurwitz", "power_truncating", "hurwitz.power_truncating", "call"),
    ("bell", "iter_partitions", "bell.iter_partitions", "generator"),
    ("bell", "partition_weight", "bell.partition_weight", "call"),
    ("bell", "partial_bell", "bell.partial_bell", "call"),
    ("bell", "bell_polynomial", "bell.bell_polynomial", "call"),
    ("autonomous", "autonomous_sequence", "autonomous.sequence", "call"),
    ("autonomous", "autonomous_sequence_bell", "autonomous.bell_path", "call"),
    ("autonomous", "box_plus", "autonomous.box", "call"),
    ("autonomous", "box_dot", "autonomous.box", "call"),
    ("autonomous", "scalar_action", "autonomous.scalar_action", "call"),
    ("autonomous", "sum_interaction_terms", "autonomous.interaction", "call"),
    ("flow", "semigroup_check", "flow.semigroup", "call"),
    ("flow", "derivation_identity_check", "flow.derivation", "call"),
    ("flow", "flow_combination_check", "flow.combination", "call"),
    ("flow", "decompose_flow", "flow.decompose", "call"),
    ("flow", "FlowSeries.eval_at", "flow.eval_at", "call"),
    ("flow", "match_closed_form", "flow.match_closed_form", "call"),
    ("flow", "closed_form_eval", "flow.closed_form_eval", "call"),
    ("flow", "classify_point", "flow.classify_point", "call"),
    ("flow", "flow_series", "flow.flow_series", "call"),
    ("flow", "flow_boxplus", "flow.boxplus", "call"),
    ("flow", "flow_boxdot", "flow.boxdot", "call"),
    ("flow", "time_scale", "flow.time_scale", "call"),
    ("expr", "parse", "expr.parse", "call"),
    ("expr", "elaborate", "expr.elaborate", "outermost"),
    ("expr", "polynomial_coefficients", "expr.polynomial_coefficients", "call"),
    ("expr", "format_expr", "expr.format_expr", "call"),
    ("expr", "series_from_text", "expr.series_from_text", "call"),
    ("oracle", "rk4_solve", "oracle.rk4", "call"),
    ("oracle", "eval_field", "oracle.eval_field", "outermost"),
    ("oracle", "fd_flow_derivative_check", "oracle.fd_check", "call"),
)

LAYERS = ("cli", "scalars", "hurwitz", "bell", "autonomous", "flow", "expr", "oracle")


def _flowring_modules():
    names = ["flowring"] + [f"flowring.{m.name}" for m in pkgutil.iter_modules(flowring.__path__)]
    return [importlib.import_module(name) for name in names]


def _count_mul(counters, args):
    size = len(args[0].coeffs)
    key = "coeff_products_gaussian" if args[0].domain is Domain.GAUSSIAN else "coeff_products"
    counters[key] += size * (size + 1) // 2


def _count_rk4(counters, args):
    counters["rk4_steps"] += args[3] if len(args) > 3 else 256


def _bits(counters, args):
    value = args[0]
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    for part in parts:
        counters["num_bits_max"] = max(counters["num_bits_max"], abs(part.numerator).bit_length())
        counters["den_bits_max"] = max(counters["den_bits_max"], part.denominator.bit_length())


_NOTES = {"hurwitz.mul": _count_mul, "oracle.rk4": _count_rk4, "scalars.format": _bits}


class Tracer:
    """Span recorder; ``install`` wraps flowring, ``uninstall`` restores it."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = [-1]
        self.job_id = -1
        self.counters = Counter()
        self._undo = []

    # -- recording --------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name):
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        names, parents, jobs, t0, t1 = self.name, self.parent, self.job, self.t0, self.t1
        stack, clock, tracer = self.stack, time.perf_counter_ns, self
        note, counters = _NOTES.get(name), self.counters

        def span(*args, **kwargs):
            if tracer.job_id < 0:  # outside a job, e.g. in the output checks
                return fn(*args, **kwargs)
            sid = len(t0)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            t1.append(0)
            stack.append(sid)
            if note is not None:
                note(counters, args)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()

        return span

    def _wrap(self, fn, name, how):
        if how == "outermost":
            span, depth = self._span(fn, name), [0]

            def wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                try:
                    return span(*args, **kwargs)
                finally:
                    depth[0] = 0
        elif how == "generator":
            step, counters, tracer = self._span(next, name), self.counters, self

            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = step(items)
                    except StopIteration:
                        return
                    if tracer.job_id >= 0:
                        counters["partitions_visited"] += 1
                    yield item
        else:
            wrapper = self._span(fn, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ---------------------------------------------------

    def install(self):
        modules = _flowring_modules()
        wrapped = {}
        for mod_name, attr, name, how in SPANS:
            module = importlib.import_module(f"flowring.{mod_name}")
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, how)
            wrapped[id(original)] = (original, wrapper)
            self._set(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrapped.get(id(value), (object(), None))
                if value is original:
                    self._set(module, attr, wrapper)
        missed = unwrapped_bindings([original for original, _ in wrapped.values()])
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped binding sites: {', '.join(missed)}")

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics ----------------------------------------------------

    def self_times(self):
        """Self time in ns of every span: its duration minus its children's."""
        count = len(self.t0)
        child = [0] * count
        durations = [self.t1[i] - self.t0[i] for i in range(count)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[i]
        return [durations[i] - child[i] for i in range(count)]

    def summary(self):
        """Calls and self seconds per span name, and the products made inside elaborate."""
        calls, self_ns = Counter(), Counter()
        selfs = self.self_times()
        for i, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += selfs[i]
        elaborate = self.names.index("expr.elaborate") if "expr.elaborate" in self.names else -1
        mul = self.names.index("hurwitz.mul") if "hurwitz.mul" in self.names else -1
        elaborate_muls = sum(
            1 for i, nid in enumerate(self.name)
            if nid == mul and self.parent[i] >= 0 and self.name[self.parent[i]] == elaborate
        )
        return calls, {k: v / 1e9 for k, v in self_ns.items()}, elaborate_muls

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.t0)):
                out.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t{self.names[self.name[i]]}"
                          f"\t{self.t0[i]}\t{self.t1[i]}\n")


def unwrapped_bindings(originals):
    """Module attributes and class members that still hold one of ``originals``."""
    ids = {id(fn) for fn in originals}
    missed = []
    for module in _flowring_modules():
        for attr, value in vars(module).items():
            if id(value) in ids:
                missed.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                missed += [f"{module.__name__}.{attr}.{m}" for m, v in vars(value).items()
                           if id(v) in ids]
    return missed


def layer_metrics(tracer, untraced_rate, traced_rate, traced_wall_s):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, selfs, elaborate_muls = tracer.summary()
    c = tracer.counters
    layer_self = Counter()
    for name, seconds in selfs.items():
        layer_self[name.split(".")[0]] += seconds
    products = c["coeff_products"] + c["coeff_products_gaussian"]
    m = {
        "cli.main_calls": (calls["cli.main"], "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "scalars.format_calls": (calls["scalars.format"], "count"),
        "scalars.format_s": (selfs.get("scalars.format", 0.0), "s"),
        "scalars.num_bits_max": (c["num_bits_max"], "bits"),
        "scalars.den_bits_max": (c["den_bits_max"], "bits"),
        "hurwitz.mul_calls": (calls["hurwitz.mul"], "count"),
        "hurwitz.mul_s": (selfs.get("hurwitz.mul", 0.0), "s"),
        "hurwitz.coeff_products": (c["coeff_products"], "count"),
        "hurwitz.coeff_products_gaussian": (c["coeff_products_gaussian"], "count"),
        "hurwitz.ns_per_coeff_product": (
            selfs.get("hurwitz.mul", 0.0) * 1e9 / products if products else 0.0, "ns"),
        "hurwitz.add_calls": (calls["hurwitz.add"], "count"),
        "hurwitz.add_s": (selfs.get("hurwitz.add", 0.0), "s"),
        "hurwitz.scale_s": (selfs.get("hurwitz.scale", 0.0), "s"),
        "hurwitz.inverse_calls": (calls["hurwitz.inverse"], "count"),
        "hurwitz.inverse_s": (selfs.get("hurwitz.inverse", 0.0), "s"),
        "hurwitz.eval_at_calls": (calls["hurwitz.eval_at"], "count"),
        "hurwitz.eval_at_s": (selfs.get("hurwitz.eval_at", 0.0), "s"),
        "hurwitz.self_s": (layer_self["hurwitz"], "s"),
        "bell.partitions_visited": (c["partitions_visited"], "count"),
        "bell.partition_weight_calls": (calls["bell.partition_weight"], "count"),
        "bell.self_s": (layer_self["bell"], "s"),
        "autonomous.sequence_calls": (calls["autonomous.sequence"], "count"),
        "autonomous.sequence_s": (selfs.get("autonomous.sequence", 0.0), "s"),
        "autonomous.bell_path_calls": (calls["autonomous.bell_path"], "count"),
        "autonomous.bell_path_s": (selfs.get("autonomous.bell_path", 0.0), "s"),
        "autonomous.box_calls": (calls["autonomous.box"], "count"),
        "autonomous.box_s": (selfs.get("autonomous.box", 0.0), "s"),
        "autonomous.self_s": (layer_self["autonomous"], "s"),
        "flow.semigroup_s": (selfs.get("flow.semigroup", 0.0), "s"),
        "flow.derivation_s": (selfs.get("flow.derivation", 0.0), "s"),
        "flow.combination_s": (selfs.get("flow.combination", 0.0), "s"),
        "flow.decompose_s": (selfs.get("flow.decompose", 0.0), "s"),
        "flow.eval_at_s": (selfs.get("flow.eval_at", 0.0), "s"),
        "flow.match_closed_form_s": (selfs.get("flow.match_closed_form", 0.0), "s"),
        "flow.self_s": (layer_self["flow"], "s"),
        "expr.parse_s": (selfs.get("expr.parse", 0.0), "s"),
        "expr.elaborate_s": (selfs.get("expr.elaborate", 0.0), "s"),
        "expr.elaborate_mul_calls": (elaborate_muls, "count"),
        "expr.polynomial_coefficients_s": (selfs.get("expr.polynomial_coefficients", 0.0), "s"),
        "expr.self_s": (layer_self["expr"], "s"),
        "oracle.rk4_calls": (calls["oracle.rk4"], "count"),
        "oracle.rk4_steps": (c["rk4_steps"], "count"),
        "oracle.eval_field_calls": (calls["oracle.eval_field"], "count"),
        "oracle.rk4_s": (selfs.get("oracle.rk4", 0.0), "s"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
        "trace.covered_ratio": (sum(layer_self.values()) / traced_wall_s, "ratio"),
    }
    return m
