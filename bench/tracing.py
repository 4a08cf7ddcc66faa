"""Per-layer tracing from outside the program.

The tracer wraps public functions of each layer in a span that records its
duration, the time its child spans cover, and a few counts taken from the
arguments and results.  ``rates``, ``sweep`` and ``oracle`` import
``bessel_j``, ``allowed_sidebands`` and ``composite_gl`` by name, so
wrapping only the defining module would lose their calls: ``install``
scans every ``accelrad.*`` namespace for the original function objects and
replaces each binding, and ``coverage_problems`` reports any binding that
still points at an original.
"""

import functools
import math
import sys
import time
from dataclasses import dataclass

# Spans, as "module.function".  ``cli.main`` is the request's root span.
SPANS = (
    "cli.main", "cli.parse_config", "cli.sidebands_text", "cli.sweep_text",
    "rates.allowed_sidebands",
    "specfun.bessel_j", "specfun.bessel_j_orders",
    "specfun.rational_period_integral",
    "sweep.fig2_surface", "sweep.fig3_surface", "sweep.rate_surface",
    "_quadrature.composite_gl",
    "oracle.one_period_amplitude", "oracle.verify_selection_rule",
    "oracle.equivalence_cases", "oracle.equivalence_report",
    "oracle.selection_rule_report",
)

MILLER_CUTOFF = 12.0   # bessel_j switches from the series to Miller above
GL_ORDER = 8           # nodes per composite Gauss-Legendre panel


@dataclass
class _Stats:
    calls: int = 0
    self_s: float = 0.0


def _selection_rule_samples(p, q, x):
    # Node count of the dense trapezoid route, as verify_selection_rule sets it.
    return max(4096, 64 * math.ceil(abs(x) * q + p))


class Tracer:
    """Span recorder with per-name aggregates and layer counters."""

    def __init__(self):
        """Capture the traced functions; accelrad.cli must be imported."""
        self.stats = {name: _Stats() for name in SPANS}
        self.counts = {}
        self._stack = []          # open spans: [name, child_seconds, extra]
        self._bindings = []       # (namespace, attribute, original)
        self.originals = {}
        for name in SPANS:
            module, attr = name.rsplit(".", 1)
            self.originals[name] = getattr(sys.modules[f"accelrad.{module}"],
                                           attr)
        self._wrappers = {id(fn): self._wrap(name, fn)
                          for name, fn in self.originals.items()}

    # -- counters ---------------------------------------------------------
    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name, args, result, extra):
        if name == "specfun.bessel_j":
            if abs(args[1]) > MILLER_CUTOFF:
                self.add("specfun.bessel_j.miller")
        elif name == "specfun.bessel_j_orders":
            self.add("specfun.bessel_j_orders.orders", int(args[0]) + 1)
        elif name == "rates.allowed_sidebands":
            self.add("rates.allowed_sidebands.lines", len(result))
            self.add("rates.allowed_sidebands.zero_lines",
                     sum(1 for line in result if line.rate == 0.0))
        elif name == "_quadrature.composite_gl":
            nodes = int(args[3]) * GL_ORDER
            self.add("_quadrature.composite_gl.nodes", nodes)
            for span in reversed(self._stack):
                if span[0] == "oracle.one_period_amplitude":
                    span[2]["nodes"] = span[2].get("nodes", 0) + nodes
                    break
        elif name == "oracle.one_period_amplitude":
            self.add("oracle.one_period_amplitude.panels_used",
                     result.panels_used)
            self.add("oracle.nodes_useful", result.panels_used * GL_ORDER)
            self.add("oracle.nodes_evaluated", extra.get("nodes", 0))
            key = "oracle.one_period_amplitude.max_error_estimate"
            self.counts[key] = max(self.counts.get(key, 0.0),
                                   result.error_estimate)
        elif name == "oracle.verify_selection_rule":
            self.add("oracle.verify_selection_rule.samples",
                     _selection_rule_samples(*args[:3]))
        elif name in ("cli.sidebands_text", "cli.sweep_text"):
            self.add(f"{name}.bytes", len(result.encode()))
        elif name.startswith("sweep."):
            self.add("sweep.cells", result.values.size)

    # -- spans ------------------------------------------------------------
    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            self._observe(name, args, result, frame[2])
            return result

        return traced

    def install(self):
        """Wrap every binding of every traced function in accelrad.*."""
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(namespace, attr, wrapper)
                    self._bindings.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        self._bindings.clear()

    def coverage_problems(self):
        """Bindings left unwrapped, and traced functions with no binding."""
        problems = []
        originals = {id(fn): name for name, fn in self.originals.items()}
        for namespace in _namespaces():
            for attr, value in vars(namespace).items():
                if id(value) in originals:
                    problems.append(f"{namespace.__name__}.{attr} is unwrapped")
        bound = {orig for _, _, orig in self._bindings}
        for name, fn in self.originals.items():
            if fn not in bound:
                problems.append(f"{name} has no binding to wrap")
        return problems

    @property
    def binding_count(self):
        return len(self._bindings)


def _namespaces():
    return [module for name, module in sorted(sys.modules.items())
            if (name == "accelrad" or name.startswith("accelrad."))
            and module is not None]


def layer_metrics(tracer, requests):
    """Per-layer metrics, per traced request, keyed as BENCHMARK.json names."""
    per = 1.0 / max(requests, 1)
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name].calls * per

    def self_s(name):
        return stats[name].self_s * per

    def count(key):
        return counts.get(key, 0) * per

    def ratio(num, den):
        return num / den if den else 0.0

    bessel_calls = stats["specfun.bessel_j"].calls
    lines = counts.get("rates.allowed_sidebands.lines", 0)
    out = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.parse_config.calls": (calls("cli.parse_config"), "count"),
        "cli.parse_config.self_s": (self_s("cli.parse_config"), "s"),
        "cli.sidebands_text.self_s": (self_s("cli.sidebands_text"), "s"),
        "cli.sidebands_text.bytes": (count("cli.sidebands_text.bytes"), "B"),
        "cli.sweep_text.self_s": (self_s("cli.sweep_text"), "s"),
        "cli.sweep_text.bytes": (count("cli.sweep_text.bytes"), "B"),
        "rates.allowed_sidebands.calls": (calls("rates.allowed_sidebands"),
                                          "count"),
        "rates.allowed_sidebands.self_s": (self_s("rates.allowed_sidebands"),
                                           "s"),
        "rates.allowed_sidebands.lines": (lines * per, "count"),
        "rates.allowed_sidebands.zero_rate_ratio": (
            ratio(counts.get("rates.allowed_sidebands.zero_lines", 0), lines),
            "ratio"),
        "specfun.bessel_j.calls": (calls("specfun.bessel_j"), "count"),
        "specfun.bessel_j.self_s": (self_s("specfun.bessel_j"), "s"),
        "specfun.bessel_j.miller_share": (
            ratio(counts.get("specfun.bessel_j.miller", 0), bessel_calls),
            "ratio"),
        "specfun.bessel_j_orders.calls": (calls("specfun.bessel_j_orders"),
                                          "count"),
        "specfun.bessel_j_orders.self_s": (self_s("specfun.bessel_j_orders"),
                                           "s"),
        "specfun.bessel_j_orders.orders": (
            count("specfun.bessel_j_orders.orders"), "count"),
        "sweep.fig2_surface.self_s": (self_s("sweep.fig2_surface"), "s"),
        "sweep.fig3_surface.self_s": (self_s("sweep.fig3_surface"), "s"),
        "sweep.rate_surface.self_s": (self_s("sweep.rate_surface"), "s"),
        "sweep.cells": (count("sweep.cells"), "count"),
        "quadrature.composite_gl.calls": (calls("_quadrature.composite_gl"),
                                          "count"),
        "quadrature.composite_gl.self_s": (self_s("_quadrature.composite_gl"),
                                           "s"),
        "quadrature.composite_gl.nodes": (
            count("_quadrature.composite_gl.nodes"), "count"),
        "quadrature.composite_gl.useful_nodes_ratio": (
            ratio(counts.get("oracle.nodes_useful", 0),
                  counts.get("oracle.nodes_evaluated", 0)), "ratio"),
        "oracle.one_period_amplitude.calls": (
            calls("oracle.one_period_amplitude"), "count"),
        "oracle.one_period_amplitude.self_s": (
            self_s("oracle.one_period_amplitude"), "s"),
        "oracle.one_period_amplitude.panels_used": (
            count("oracle.one_period_amplitude.panels_used"), "count"),
        "oracle.one_period_amplitude.max_error_estimate": (
            counts.get("oracle.one_period_amplitude.max_error_estimate", 0.0),
            "1"),
        "oracle.verify_selection_rule.calls": (
            calls("oracle.verify_selection_rule"), "count"),
        "oracle.verify_selection_rule.self_s": (
            self_s("oracle.verify_selection_rule"), "s"),
        "oracle.verify_selection_rule.samples": (
            count("oracle.verify_selection_rule.samples"), "count"),
        "specfun.rational_period_integral.calls": (
            calls("specfun.rational_period_integral"), "count"),
        "specfun.rational_period_integral.self_s": (
            self_s("specfun.rational_period_integral"), "s"),
        "oracle.equivalence_cases.self_s": (
            self_s("oracle.equivalence_cases"), "s"),
        "oracle.equivalence_report.self_s": (
            self_s("oracle.equivalence_report"), "s"),
        "oracle.selection_rule_report.self_s": (
            self_s("oracle.selection_rule_report"), "s"),
    }
    return out


def _median_time(fn, budget_s, max_reps=25):
    times = []
    spent = 0.0
    while len(times) < max_reps and (spent < budget_s or len(times) < 1):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    times.sort()
    return times[len(times) // 2]


def _growth(sizes, seconds):
    """Log-log slope between the two largest sizes: the asymptotic exponent."""
    return (math.log(seconds[-1] / seconds[-2])
            / math.log(sizes[-1] / sizes[-2]))


def scaling_rows(tracer):
    """Time allowed_sidebands over n_max and bessel_j over x, untraced.

    Free space, A = 1 cm, 10 GHz drive, 5 GHz atom: k*A passes 12 at
    n = 1 and grows linearly with n, so the rows show the quadratic cost.
    """
    from accelrad.rates import AtomParams, FreeSpace, ShoMotion

    allowed = tracer.originals["rates.allowed_sidebands"]
    bessel = tracer.originals["specfun.bessel_j"]
    atom = AtomParams(omega0=2.0 * math.pi * 5e9, alpha=0.2)
    motion = ShoMotion(amplitude=1e-2, Omega=2.0 * math.pi * 1e10)
    out = {}
    n_sizes, n_times = (10, 100, 1000, 3000), []
    for n_max in n_sizes:
        t = _median_time(lambda: allowed(atom, motion, FreeSpace(), n_max),
                         0.3)
        n_times.append(t)
        out[f"rates.allowed_sidebands.n_max-{n_max}.s"] = (t, "s")
    out["rates.allowed_sidebands.growth_exponent"] = (
        _growth(n_sizes, n_times), "1")
    x_sizes, x_times = (10.0, 1e3, 1e5), []
    for x, label in zip(x_sizes, ("10", "1e3", "1e5")):
        t = _median_time(lambda: bessel(3, x), 0.2, max_reps=2000)
        x_times.append(t)
        out[f"specfun.bessel_j.x-{label}.s"] = (t, "s")
    out["specfun.bessel_j.growth_exponent"] = (_growth(x_sizes, x_times), "1")
    return out
