"""Spans and counts at the extspec module boundaries, for the traced run.

Each public function that one package module looks up by name is replaced,
in the namespace where it is looked up, by a wrapper that records a span.
Spans are aggregated in memory per (parent span, span) edge as a call count,
inclusive seconds and self seconds (inclusive minus the part covered by child
spans), and handed out once, when the command ends.

A name that no longer exists is reported as absent and a name that is never
called reports zero, so a refactor that removes a boundary does not break
the traced run.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from time import perf_counter


class Tracer:
    """Aggregated spans and counters of one command."""

    def __init__(self):
        self.stack: list[list] = []  # [span, seconds covered by child spans]
        self.active: set[str] = set()
        self.edges: dict[tuple, list] = {}  # (parent, span) -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in span ``name``; ``after(tracer, args, kwargs, result)`` returns the result.

        A call made while span ``name`` is already open (a wrapped function
        calling another one of the same span) is passed through unrecorded.
        """

        def wrapper(*args, **kwargs):
            if name in self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            self.active.add(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.active.discard(name)
                if self.stack:
                    self.stack[-1][1] += dt
                edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            return after(self, args, kwargs, result) if after else result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls only; cheaper than a span for hot leaf calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Wrap ``module_name.attr`` in span ``name``; ``after`` COUNT_ONLY counts calls only."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapped = self.counter(name, fn) if after is COUNT_ONLY else self.span(name, fn, after)
        setattr(module, attr, wrapped)

    def report(self) -> dict:
        return {
            "edges": [[p, s, *v] for (p, s), v in self.edges.items()],
            "counts": self.counts,
            "absent": self.absent,
        }


def _file_bytes(counter: str, path_of):
    def after(tracer: Tracer, args, kwargs, result):
        path = path_of(args) if args else None
        if path is not None and os.path.exists(path):
            tracer.add(counter, os.path.getsize(path))
        return result

    return after


def _replicates(tracer: Tracer, args, kwargs, result):
    tracer.add("inference.replicates", kwargs.get("replicates", args[5] if len(args) > 5 else 0))
    return result


def _density(name: str, points_counter: str | None):
    """Trace evaluations of the density closure held by a returned oracle."""

    def count_points(tracer: Tracer, args, kwargs, result):
        if points_counter:
            tracer.add(points_counter, len(args[0]))
        return result

    def after(tracer: Tracer, args, kwargs, oracle):
        fn = getattr(oracle, "fn", None)
        if not (dataclasses.is_dataclass(oracle) and callable(fn)):
            tracer.absent.append(f"{name} density closure")
            return oracle
        return dataclasses.replace(oracle, fn=tracer.span(name, fn, count_points))

    return after


COUNT_ONLY = object()
_write_bytes = _file_bytes("cli.write_bytes", lambda args: args[0])

# (module whose namespace is patched, name looked up there, span, after hook)
SPANS = [
    ("extspec.cli", "read_series_csv", "cli.read", _file_bytes("cli.read_bytes", lambda a: a[0])),
    ("extspec.cli", "_write_table", "cli.write", _write_bytes),
    ("extspec.cli", "_write_records_json", "cli.write", _write_bytes),
    ("extspec.cli", "_write_manifest", "cli.write", _write_bytes),
    (
        "extspec.cli",
        "cmd_simulate",
        "cli.simulate",
        _file_bytes("cli.simulate_write_bytes", lambda a: getattr(a[0], "out", None)),
    ),
    ("extspec.cli", "run_analysis", "cli.analyze", None),
    ("extspec.cli", "threshold_from_quantile", "core.threshold", None),
    ("extspec.cli", "exceedance_indicators", "core.indicators", None),
    ("extspec.inference", "threshold_from_quantile", "core.threshold", None),
    ("extspec.inference", "exceedance_indicators", "core.indicators", None),
    ("extspec.estimators", "smoothing_grid", "core.smoothing_grid", None),
    ("extspec.estimators", "sample_extremogram", "estimators.extremogram", None),
    ("extspec.estimators", "standardized_periodogram", "estimators.periodogram", None),
    ("extspec.estimators", "periodogram", "estimators.periodogram", None),
    ("extspec.estimators", "smoothed_curve", "estimators.smoothing", None),
    ("extspec.inference", "smoothed_at_frequencies", "estimators.smoothing", None),
    ("extspec.inference", "surrogate_band", "inference.band", None),
    ("extspec.inference", "permutation_band", "inference.band", _replicates),
    ("extspec.simulate", "simulate_arma11", "simulate.draw", None),
    (
        "extspec.oracles",
        "arma11_spectral_oracle",
        "oracles.closed",
        _density("oracles.closed", "oracles.points"),
    ),
    ("extspec.oracles", "arma11_extremogram_curve", "oracles.extremogram_closed", None),
    ("extspec.oracles", "extremogram_linear", "oracles.series", None),
    ("extspec.oracles", "spectral_from_extremogram", "oracles.series", _density("oracles.series", None)),
    # hot per-point kernels: a span per call would double the oracle's time
    ("extspec.oracles", "cos_arith_sum", "trigsums.calls", COUNT_ONLY),
    ("extspec.oracles", "geometric_trig_sum", "trigsums.calls", COUNT_ONLY),
]


def install() -> Tracer:
    """Patch every boundary in SPANS; call after ``import extspec.cli``."""
    tracer = Tracer()
    for module_name, attr, name, after in SPANS:
        tracer.patch(module_name, attr, name, after)
    return tracer
