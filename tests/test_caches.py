"""The cache rule: every module-level cache of qbm is a functools.lru_cache
with a finite bound, and no module-level container grows with the contexts
a program uses."""

import gc
import importlib
import pkgutil
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qbm
from qbm import measures, qcore
from qbm.measures import QuadratureError, integrate, marginal_spec
from qbm.qcore import QContext, q_factorial
from qbm.qhermite import QPolynomial, growth_constant, to_hermite_basis
from qbm.qito import delta_exact

#: every module of the package (__main__ runs the command line when imported)
MODULES = [importlib.import_module(f"qbm.{m.name}") for m in pkgutil.iter_modules(qbm.__path__) if m.name != "__main__"]

#: what the sweep may leave allocated: the full record bound of contexts at
#: under 16 KiB each (a record measured about 9 KB; every distinct q kept
#: would leave about 4 MB after this sweep)
SWEEP_BYTES = 128 * 16 * 1024

#: what the quadrature levels' memo may keep: its bound of entries at
#: LEVEL_BYTES of arrays each, and 4 KiB of objects (with every level kept
#: whole, the sweep near q = 0.99 would leave about 46 MB)
LEVEL_MEMO_BYTES = measures._angle_level.cache_info().maxsize * (measures.LEVEL_BYTES + 4096)


def _module_caches() -> dict:
    """Every lru_cache defined at module level in qbm, by qualified name."""
    return {
        f"{value.__module__}.{value.__qualname__}": value
        for module in MODULES
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__.startswith("qbm.")
    }


def _containers() -> dict:
    """The size of every dict, list and set at module level in qbm."""
    return {
        (module.__name__, name): len(value)
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }


def _touch(ctx: QContext) -> None:
    """The per-context tables' callers, on a fresh polynomial (whose own memo
    goes with it)."""
    kind = float if ctx.mode == "float" else Fraction
    f = QPolynomial.from_xt_terms({(n, n % 3): kind(1) / (n + 1) for n in range(4)})
    delta_exact(f, ctx)
    to_hermite_basis(f, ctx)
    growth_constant(30, ctx)
    q_factorial(30, ctx)


def test_every_module_cache_is_a_bounded_lru_cache():
    caches = _module_caches()
    assert {
        "qbm.qcore._record",
        "qbm.qito._inner_moments",
        "qbm.measures._angle_level",
        "qbm.measures.scaled_transition_table",
    } <= set(caches)
    for name, cache in caches.items():
        # maxsize None would be unbounded
        assert isinstance(cache.cache_info().maxsize, int) and cache.cache_info().maxsize > 0, name


def test_a_sweep_of_distinct_q_keeps_every_cache_within_its_bound():
    # four times the record bound of float q, and exact q: the records stay
    # at their bound, no module-level container grows, and the memory left
    # behind is bounded by the records, not by the number of q
    bound = qcore._record.cache_info().maxsize
    _touch(QContext.numeric(0.3))
    sizes = _containers()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(4 * bound):
            _touch(QContext.numeric(0.05 + 0.9 * k / (4 * bound)))
        for k in range(1, 9):
            _touch(QContext.exact(Fraction(k, 11)))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for name, cache in _module_caches().items():
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, name
    assert qcore._record.cache_info().currsize == bound
    assert _containers() == sizes
    assert grown < SWEEP_BYTES, grown

    # the quadrature levels' memo: integrate to 8192 intervals at five q near
    # 0.99, 40 levels where 32 are kept, leaves at most LEVEL_MEMO_BYTES
    # beyond the kernel's plans (each under 32 KiB); every deep level keeps
    # its nodes and weights only
    measures._angle_level.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(5):
            spec = marginal_spec(QContext.numeric(0.985 + 0.0025 * k), 1.0)
            with pytest.raises(QuadratureError):
                integrate(lambda y: np.cos(200.0 * y), spec, rel_tol=0.0)
        del spec
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = measures._angle_level.cache_info()
    assert info.misses == 40 and info.currsize == info.maxsize == 32
    assert grown < LEVEL_MEMO_BYTES + 5 * 32 * 1024, grown
    assert measures._angle_level(0.995, 8192)[2] is None
