"""Layer-boundary tracing for the traced run of a workload.

A layer is one module of the package.  Every module-level function of a
layer, and every method of a layer's classes that another layer imports,
is wrapped in every layer namespace that binds it, so a name bound by
``from .x import y`` is traced wherever it is looked up.  ``lru_cache``
objects are wrapped from outside, so their caches stay in place.

* Counts: every call of a wrapped name is counted.
* Spans: a call that crosses from one layer into another is kept as a
  span ``(name, start, end, parent)`` in memory and written out at the
  end; a call made from inside its own layer passes straight through.
* Self time per layer: a sampling profiler (``Sampler``) charges each
  CPU-time tick to the innermost frame that belongs to a layer.  Calls
  into ``ratfunc`` and ``cartan`` run millions of times per round, so they
  are counted but get no span, and per-call timing of them would cost more
  than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import signal
import time
from collections import Counter

import hostclock

LAYERS = (
    "ratfunc", "cartan", "freealg", "falgebra", "linalg",
    "ualgebra", "symmetries", "double", "hall", "verify",
)
HOT_LAYERS = frozenset({"ratfunc", "cartan"})
# dunder methods worth tracing; the rest (hash, repr, init) are plumbing
TRACED_DUNDERS = frozenset(
    {"__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__", "__eq__"}
)
# functions whose inclusive time is reported even when called from their
# own layer (outermost call only)
INCLUSIVE = frozenset(
    {
        "falgebra.weight_basis", "symmetries.t_tilde_apply",
        "hall.iso_classes", "hall.hall_number",
    }
)
# lru_cache'd functions whose misses count evaluations
EVAL_COUNTERS = {
    "freealg.form_evals": ("freealg", "_form_words"),
    "falgebra.normal_form_evals": ("falgebra", "_normal_form_word"),
    "ualgebra.straighten_evals": ("ualgebra", "_straighten"),
}
# spans past this many are not kept (the calls are still counted)
MAX_SPANS = 500_000
SAMPLE_INTERVAL_S = 0.001


class Sampler:
    """Self time per layer by sampling: on each ``ITIMER_PROF`` tick the
    innermost frame whose file is a layer module gets the tick.  Frames of
    the standard library are skipped over, so ``fractions`` arithmetic is
    charged to the layer that called it; a tick that lands in this file's
    wrappers is charged to ``trace``, and one in a ``hostclock`` probe to
    ``probe``."""

    def __init__(self, files: dict):
        self.files = files  # code filename -> layer name
        self.ticks: Counter = Counter()
        self._previous = None

    def _tick(self, _signum, frame):
        files = self.files
        while frame is not None:
            layer = files.get(frame.f_code.co_filename)
            if layer is not None:
                self.ticks[layer] += 1
                return
            frame = frame.f_back
        self.ticks["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def self_seconds(self, wall_s: float) -> dict:
        """Ticks per layer scaled so that all ticks add up to wall_s."""
        total = sum(self.ticks.values())
        return {k: wall_s * n / total for k, n in self.ticks.items()} if total else {}


def _is_plain_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Install with ``install()``, run the work, then ``uninstall()``."""

    def __init__(self, package: str = "qhall"):
        self.package = package
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                pass
        self.stack = [("bench", -1)]  # (layer, span index) of open spans
        self.spans: list = []
        self.calls: Counter = Counter()  # every call, per traced name
        self.inclusive_s: Counter = Counter()
        self.orbit_points = 0
        self.wrapped: set = set()
        self._patches: list = []
        self._depth: Counter = Counter()
        self._caches = self._find_caches()
        self._misses_at_start: dict = {}
        files = {mod.__file__: layer for layer, mod in self.modules.items()}
        files[__file__] = "trace"
        files[hostclock.__file__] = "probe"
        self.sampler = Sampler(files)
        self.wall_s = 0.0

    # -- discovery ---------------------------------------------------------

    def _find_caches(self) -> dict:
        """Every lru_cache'd callable defined in a module of the package."""
        pkg = importlib.import_module(self.package)
        out = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{self.package}.{info.name}")
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == mod.__name__:
                    out[f"{info.name}.{attr}"] = obj
        return out

    def cache_stats(self) -> dict:
        entries = hits = misses = 0
        for fn in self._caches.values():
            info = fn.cache_info()
            entries += info.currsize
            hits += info.hits
            misses += info.misses
        return {"entries": entries, "hits": hits, "misses": misses}

    def eval_counts(self) -> dict:
        """Cache misses since install, by metric name; None when absent."""
        out = {}
        for metric, (layer, attr) in EVAL_COUNTERS.items():
            key = f"{layer}.{attr}"
            if key not in self._caches:
                out[metric] = None
                continue
            out[metric] = self._caches[key].cache_info().misses - self._misses_at_start[key]
        return out

    # -- wrapping ----------------------------------------------------------

    def _make_wrapper(self, fn, layer: str, name: str):
        stack = self.stack
        spans = self.spans
        calls = self.calls
        clock = time.perf_counter
        inclusive = name in INCLUSIVE
        count_points = name == "hall.orbit_of"
        tracer = self

        if layer in HOT_LAYERS or inspect.isgeneratorfunction(fn):
            # hot calls, and generators whose work happens while the
            # caller iterates: count only
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def wrapper(*args, **kwargs):
            calls[name] += 1
            top = stack[-1]
            outer = inclusive and tracer._depth[name] == 0
            if outer:
                tracer._depth[name] += 1
                t_in = clock()
            try:
                if top[0] == layer or len(spans) >= MAX_SPANS:
                    result = fn(*args, **kwargs)
                else:
                    idx = len(spans)
                    spans.append(None)
                    stack.append((layer, idx))
                    t0 = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        spans[idx] = (name, t0, clock(), top[1])
                        stack.pop()
            finally:
                if outer:
                    tracer.inclusive_s[name] += clock() - t_in
                    tracer._depth[name] -= 1
            if count_points:
                tracer.orbit_points += len(result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _bind_everywhere(self, original, replacement):
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for key, fn in self._caches.items():
            self._misses_at_start[key] = fn.cache_info().misses
        imported_classes = set()
        for layer, mod in self.modules.items():
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__ != mod.__name__:
                    imported_classes.add(obj)
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_plain_function(obj):
                    name = f"{layer}.{attr}"
                    self.wrapped.add(name)
                    self._bind_everywhere(obj, self._make_wrapper(obj, layer, name))
                elif inspect.isclass(obj) and obj in imported_classes:
                    self._wrap_methods(obj, layer, mod.__file__)
        self._t_install = time.perf_counter()
        self.sampler.start()

    def _wrap_methods(self, cls, layer: str, filename: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in TRACED_DUNDERS:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or fn.__code__.co_filename != filename:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self.wrapped.add(name)
            wrapper = self._make_wrapper(fn, layer, name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        self.sampler.stop()
        self.wall_s = time.perf_counter() - self._t_install
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Self time per layer over the traced interval, in seconds."""
        return self.sampler.self_seconds(self.wall_s)

    def span_summary(self) -> dict:
        """Per span name: number of spans and their total seconds."""
        total: Counter = Counter()
        count: Counter = Counter()
        for rec in self.spans:
            if rec is not None:
                total[rec[0]] += rec[2] - rec[1]
                count[rec[0]] += 1
        return {
            name: {"count": count[name], "total_s": total[name]}
            for name in sorted(total)
        }
