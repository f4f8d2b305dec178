"""Per-layer tracing from outside the package.

The tracer replaces every public function and method of the package's
modules with a wrapper, in every module that holds a reference to it
(``stages`` keeps its own ``enumerate_jump``, ``wadge`` and ``game``
their own ``eval_at``), and methods on their class.  Each call through
a wrapper is a span: name, start, end, parent span and job.  Self time
is a span's duration minus the time its child spans cover.

Functions of the bottom layers (``ordinals``, ``universe`` and
``jump.cantor_pair``) are called hundreds of thousands of times per job;
they are counted and timed but record no span, and calls they make are
counted only.  Spans are kept in memory up to a cap and written out when
the run ends; counts and times cover every call.
"""

from __future__ import annotations

import array
import functools
import inspect
import time
from typing import Callable, Optional

LAYERS = ("ordinals", "jump", "universe", "stages", "hierarchy", "wadge", "game", "cli")
LEAF_LAYERS = ("ordinals", "universe")
LEAF_NAMES = ("jump.cantor_pair",)
SPAN_CAP = 250_000  # spans kept in memory and written out; later ones are only counted
# Method spans are named layer.method; these classes get another prefix.
CLASS_PREFIX = {
    "TrueStageSystem": "", "DefaultOperator": "", "Universe": "", "CorrectnessChecker": "checker.",
}


class Stat:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0  # outermost activations only, so recursion counts once
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans_seen = 0
        self._names: list[str] = []
        self._ids = array.array("q")  # span, parent, job, name index: 4 per span
        self._times = array.array("d")  # start, end: 2 per span
        self._stack: list[list] = []  # [start, child time, span id]
        self._leaf_depth = 0
        self._job = -1
        self._seen: dict[str, set] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- jobs and counters --------------------------------------------

    def start_job(self, job: int) -> None:
        self._job = job
        self._seen = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def repeat(self, name: str, key) -> None:
        """Count a call as a repeat when its key was seen earlier in the job."""
        seen = self._seen.setdefault(name, set())
        self.count(name + ".calls")
        if key in seen:
            self.count(name + ".repeats")
        else:
            seen.add(key)

    # -- wrapping -----------------------------------------------------

    def wrap(self, name: str, fn: Callable, pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        if name.split(".")[0] in LEAF_LAYERS or name in LEAF_NAMES:
            return self._leaf(stat, fn)
        self._names.append(name)
        return self._span(stat, len(self._names) - 1, fn, pre, post)

    def _leaf(self, stat: Stat, fn: Callable) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            stat.calls += 1
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                tracer._leaf_depth = 0
                stat.incl += took
                stat.self_s += took
                if stack:
                    stack[-1][1] += took

        return leaf

    def _span(self, stat: Stat, name_index: int, fn: Callable,
              pre: Optional[Callable], post: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat.calls += 1
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            span_id = tracer.spans_seen
            tracer.spans_seen += 1
            frame = [clock(), 0.0, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            stat.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                took = end - frame[0]
                if not stat.active:
                    stat.incl += took
                stat.self_s += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if span_id < SPAN_CAP:
                    tracer._ids.extend((span_id, parent, tracer._job, name_index))
                    tracer._times.extend((frame[0] - tracer._t0, end - tracer._t0))
            if post is not None:
                post(tracer, args, result)
            return result

        return span

    def install(self, modules: dict, hooks: dict) -> None:
        """Wrap the public functions and methods of modules (layer name ->
        module object).  hooks maps a span name to (pre, post) callbacks."""
        replaced: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{layer}.{attr}"
                    replaced[id(value)] = self.wrap(name, value, *hooks.get(name, (None, None)))
                elif inspect.isclass(value) and not getattr(value, "_is_protocol", False):
                    self._wrap_class(layer, value, hooks)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)])

    def _wrap_class(self, layer: str, cls: type, hooks: dict) -> None:
        prefix = CLASS_PREFIX.get(cls.__name__, cls.__name__ + ".")
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{prefix}{attr}"
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self.wrap(name, value.__func__))
            elif inspect.isfunction(value):
                wrapped = self.wrap(name, value, *hooks.get(name, (None, None)))
            else:
                continue
            self._undo.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_s
        return out

    def write_spans(self, path) -> int:
        """Write the recorded spans as tab-separated lines; returns how many."""
        count = len(self._times) // 2
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for i in range(count):
                span, parent, job, name = self._ids[4 * i: 4 * i + 4]
                fh.write(f"{span}\t{parent}\t{job}\t{self._names[name]}\t"
                         f"{self._times[2 * i]:.9f}\t{self._times[2 * i + 1]:.9f}\n")
        return count
