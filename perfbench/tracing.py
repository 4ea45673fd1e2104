"""Call tracing for one worker process, installed from outside the package.

``install`` replaces, in every unicolor module namespace, each function that
one module imports from another, plus the named kernels and entry points,
with a wrapper that records calls, busy time and self time.  Self time is
busy time minus the part covered by nested wrapped calls.  A named function
that no longer exists is listed in ``absent`` instead of failing the run, and
the hooks that read arguments or results count nothing when those change
shape.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("census", "graphs", "colouring", "constructions", "cli")

# The kernels ROADMAP names, the functions the per-layer metrics read, and
# the entry points the workloads call.  Cross-module imports are found
# automatically on top of these.
NAMED = (
    "graphs._canonical",
    "graphs._refine_colours",
    "graphs._max_vertex_flow",
    "graphs.vertex_connectivity_at_least",
    "graphs.clique_number",
    "census._extend_parent",
    "census._battery",
    "census.generate",
    "colouring._enumerate_partitions",
    "colouring.chromatic_number",
    "colouring.count_colour_partitions",
    "colouring.chi_cr",
    "colouring.verify",
    "constructions.nu",
    "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._child = [0.0]  # time covered by finished child spans, per open span

    def _record(self, name: str, busy: float, child: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + busy
        self.self_time[name] = self.self_time.get(name, 0.0) + busy - child

    def count(self, key: str, by: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name: str, fn, hook=None):
        stack = self._child
        clock = time.perf_counter
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = hook.before(args, kwargs) if hook is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                child = stack.pop()
                stack[-1] += busy
                record(name, busy, child)
            if hook is not None:
                hook.after(self, state, result)
            return result

        return traced


class _ExtendHook:
    """Counts tried, rejected and accepted extensions of one parent from the
    change in its ``stats`` argument and the length of its result."""

    KEYS = ("extensions_tried", "rejected_not_canonical")

    def before(self, args, kwargs):
        stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
        if not isinstance(stats, dict):
            return None
        return stats, [stats.get(key, 0) for key in self.KEYS]

    def after(self, tracer, state, result):
        if state is None:
            return
        stats, before = state
        for key, old in zip(self.KEYS, before):
            tracer.count(f"census.{key}", stats.get(key, 0) - old)
        if isinstance(result, list):
            tracer.count("census.accepted", len(result))


class _LeavesHook:
    """Sums the partitions (leaves) that each enumeration returns."""

    def before(self, args, kwargs):
        return None

    def after(self, tracer, state, result):
        if isinstance(result, tuple) and result and isinstance(result[0], int):
            tracer.count("colouring.leaves", result[0])


HOOKS = {"census._extend_parent": _ExtendHook(), "colouring._enumerate_partitions": _LeavesHook()}


def _modules():
    out = [importlib.import_module("unicolor")]
    for layer in LAYERS + ("budget",):
        try:
            out.append(importlib.import_module(f"unicolor.{layer}"))
        except ImportError:
            pass
    return out


def _qualname(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    modules = _modules()
    by_layer = {m.__name__.rpartition(".")[2]: m for m in modules}
    wrappers = {}
    for name in NAMED:
        layer, _, attr = name.partition(".")
        fn = getattr(by_layer.get(layer), attr, None)
        if inspect.isfunction(fn):
            wrappers[fn] = tracer.wrap(name, fn, HOOKS.get(name))
        else:
            tracer.absent.append(name)
    for m in modules[1:]:
        for value in vars(m).values():
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("unicolor.")
                and value.__module__ != m.__name__
                and value not in wrappers
            ):
                wrappers[value] = tracer.wrap(_qualname(value), value)
    for m in modules:
        for attr, value in list(vars(m).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(m, attr, wrappers[value])


def summary(tracer: Tracer) -> dict:
    return {
        "calls": tracer.calls,
        "busy": tracer.busy,
        "self": tracer.self_time,
        "counters": tracer.counters,
        "absent": tracer.absent,
    }
