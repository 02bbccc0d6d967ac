"""Span tracing at qbm's module boundaries, for the benchmark's traced run.

The library's modules import each other's names directly
(``from .measures import draw_transition_batch``), so a call from one module
into another goes through a name in the calling module's namespace.  The
tracer replaces those names, and the entry points the benchmark itself
calls, with thin wrappers.  A wrapper passes its arguments through unchanged,
so ``lru_cache`` keys stay the same, and records one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory until
the benchmark writes them out at exit.

Nothing under ``src/`` changes: the wrappers live only for the traced phase
and ``installed()`` puts the original names back.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from types import SimpleNamespace

from qbm import cli, measures, process, qhermite, qito, stochint, verify

#: entry points the benchmark calls: attribute -> (layer, defining module, name)
ENTRY = {
    "simulate_batch": ("process", process, "simulate_batch"),
    "simulate_path": ("process", process, "simulate_path"),
    "integrate": ("measures", measures, "integrate"),
    "transition_density": ("measures", measures, "transition_density"),
    "integrate_def_batch": ("stochint", stochint, "integrate_def_batch"),
    "integrate_def": ("stochint", stochint, "integrate_def"),
    "integrate_byparts": ("stochint", stochint, "integrate_byparts"),
    "isometry_second_moment": ("stochint", stochint, "isometry_second_moment"),
    "sde_residual": ("stochint", stochint, "sde_residual"),
    "nabla_numeric": ("qito", qito, "nabla_numeric"),
    "delta_numeric": ("qito", qito, "delta_numeric"),
    "nabla_exact": ("qito", qito, "nabla_exact"),
    "delta_exact": ("qito", qito, "delta_exact"),
    "ito_decompose": ("qito", qito, "ito_decompose"),
    "ito_tail_bound": ("qito", qito, "ito_tail_bound"),
    "oracle_EZ2": ("verify", verify, "oracle_EZ2"),
    "oracle_EZ4": ("verify", verify, "oracle_EZ4"),
    "run_identity_suite": ("verify", verify, "run_identity_suite"),
    "cli_main": ("cli", cli, "main"),
}

#: calls between library modules: (calling module, imported name, callee layer).
#: q_int is left out on purpose: it sits in the innermost loops, so it stays
#: in its callers' self time.
INNER = (
    (process, "scaled_marginal_table", "measures"),
    (process, "scaled_transition_table", "measures"),
    (process, "draw_from_table", "measures"),
    (process, "draw_transition_batch", "measures"),
    (stochint, "to_hermite_basis", "qhermite"),
    (stochint, "growth_constant", "qhermite"),
    (stochint, "q_factorial", "qcore"),
    (qito, "integrate", "measures"),
    (qito, "integrate_def", "stochint"),
    (qito, "to_hermite_basis", "qhermite"),
    (qito, "from_hermite_basis", "qhermite"),
    (qito, "growth_constant", "qhermite"),
    (qito, "q_factorial", "qcore"),
    (qhermite, "q_factorial", "qcore"),
    (qhermite, "q_binomial", "qcore"),
    (cli, "simulate_batch", "process"),
)


class Tracer:
    """In-memory span recorder; one span list per process, single-threaded."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # each span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Route the library's cross-module calls through traced wrappers."""
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in INNER]
        for (mod, name, layer), (_, _, fn) in zip(INNER, saved):
            setattr(mod, name, self.wrap(fn, layer, name))
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (label, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{label},{start - self.origin!r},{end - self.origin!r}\n")


def library(tracer: Tracer | None = None, overrides: dict | None = None) -> SimpleNamespace:
    """The entry points the workloads call, traced when a tracer is given.

    overrides replaces entries by attribute name; the smoke test uses it to
    inject a wrong oracle.
    """
    overrides = overrides or {}
    lib = {}
    for attr, (layer, module, name) in ENTRY.items():
        fn = overrides.get(attr, getattr(module, name))
        lib[attr] = tracer.wrap(fn, layer, name) if tracer is not None else fn
    return SimpleNamespace(**lib)


@contextmanager
def routed(wl, tracer: Tracer | None, overrides: dict | None = None):
    """Run the workload's calls through traced wrappers; untraced without a tracer."""
    if tracer is None:
        yield
        return
    raw = wl.lib
    wl.lib = library(tracer, overrides)
    try:
        with tracer.installed():
            yield
    finally:
        wl.lib = raw


def summarize(spans: list[list], first: int = 0) -> tuple[dict, dict]:
    """Calls and inclusive seconds per span name, and self seconds per layer,
    over spans[first:].

    A span's self time is its duration minus the durations of its direct
    children, so summing self times over a layer counts no interval twice.
    """
    by_name: dict[str, list] = {}
    child = [0.0] * (len(spans) - first)
    for label, start, end, parent in spans[first:]:
        entry = by_name.setdefault(label, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        if parent >= first:
            child[parent - first] += end - start
    self_by_layer: dict[str, float] = {}
    for (label, start, end, _), inner in zip(spans[first:], child):
        layer = label.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start) - inner
    return by_name, self_by_layer
