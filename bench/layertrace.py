"""Per-layer tracing of partreg from outside the package.

Every public function of the traced modules is wrapped at each module that
binds its name: `decisions`, `columns`, `feasibility` and `cli` import names
with `from .x import f`, so patching only the defining module would miss
their calls.  Wrapped calls record a span (name, start, end, parent, query)
and accumulate calls, inclusive time and self time per function.  Generators
are timed per `next()` and aggregated into one span per query, so a search
that yields half a million partitions costs one span, not half a million.
Some functions are counted but get no span because they run once per
integer coloured or per scalar coerced; their time stays in the caller.

Self time is duration minus child coverage: each frame adds its duration to
its parent frame when it closes, and the parent subtracts that total from its
own duration.  Code here is single-threaded, so children never overlap.

Nothing is patched until `install()`; `uninstall()` restores the originals,
so untimed passes run the library untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("linalg", "columns", "feasibility", "decisions", "oracle", "cli")

# Called per coloured integer or per coerced scalar: a span each would swamp
# memory and the timings, so these are counted only.
COUNT_ONLY = frozenset({"rational", "leading_exponent", "digit_at", "gamma_colour"})

# Outcome counters: function name -> how much useful output one call gave.
OUTCOMES = {
    "feasible_positive": lambda result: int(result is not None),
    "enumerate_bounded_solutions": len,
}


class FunctionStats:
    __slots__ = ("calls", "items", "outcomes", "incl_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.outcomes = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Wraps partreg's public functions and records spans and per-function stats."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, FunctionStats] = {}
        self.colour_calls = 0
        # span: (name, start, end, busy_s, parent_id, query_id); busy_s differs
        # from end - start only for aggregated generator spans
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # frames: [child_s, span_id]
        self._query_id: int | None = None
        self._query_span: int | None = None
        self._gen_spans: dict[str, list] = {}  # name -> [span id, first, last, busy]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- queries
    def begin_query(self, query_id: int, name: str) -> None:
        self._query_id = query_id
        self._query_span = len(self.spans)
        self.spans.append((f"query:{name}", self.clock(), None, None, None, query_id))
        self._gen_spans = {}

    def end_query(self) -> None:
        name, start, _, _, parent, qid = self.spans[self._query_span]
        end = self.clock()
        self.spans[self._query_span] = (name, start, end, end - start, parent, qid)
        for gname, (span_id, first, last, busy) in self._gen_spans.items():
            self.spans[span_id] = (gname, first, last, busy, self._query_span, self._query_id)
        self._gen_spans = {}
        self._query_id = self._query_span = None

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("partreg")
        modules = [importlib.import_module(f"partreg.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or id(fn) in wrappers:
                    continue
                wrappers[id(fn)] = self._wrap(fn)
        for namespace in [package, *modules]:
            for name, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((namespace, name, value))
                    setattr(namespace, name, wrapper)
        colouring = importlib.import_module("partreg.oracle").Colouring
        original = colouring.colour

        @functools.wraps(original)
        def colour(obj, x):
            self.colour_calls += 1
            return original(obj, x)

        self._patches.append((colouring, "colour", original))
        colouring.colour = colour

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._patches):
            setattr(namespace, name, value)
        self._patches = []

    def _stats_for(self, name: str) -> FunctionStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = FunctionStats()
        return stats

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if fn.__name__ in COUNT_ONLY:
            return self._wrap_counted(fn, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        return self._wrap_call(fn, name)

    def _wrap_counted(self, fn, name):
        stats = self._stats_for(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _parent_span(self) -> int | None:
        return self._stack[-1][1] if self._stack else self._query_span

    def _close(self, stats: FunctionStats, frame: list, start: float) -> float:
        end = self.clock()
        self._stack.pop()
        duration = end - start
        stats.self_s += duration - frame[0]
        if stats.active == 0:
            stats.incl_s += duration
        if self._stack:
            self._stack[-1][0] += duration
        return end

    def _wrap_call(self, fn, name):
        stats = self._stats_for(name)
        outcome = OUTCOMES.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span_id = len(spans)
            parent = self._parent_span()
            spans.append(None)
            frame = [0.0, span_id]
            stats.calls += 1
            self._stack.append(frame)
            start = self.clock()
            stats.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stats.active -= 1
                end = self._close(stats, frame, start)
                spans[span_id] = (name, start, end, end - start, parent, self._query_id)
            if outcome is not None:
                stats.outcomes += outcome(result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        stats = self._stats_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    record = self._generator_span(name)
                    frame = [0.0, None if record is None else record[0]]
                    self._stack.append(frame)
                    start = self.clock()
                    stats.active += 1
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stats.active -= 1
                        end = self._close(stats, frame, start)
                        if record is not None:
                            record[2] = end
                            record[3] += end - start
                    stats.items += 1
                    yield item
            finally:
                inner.close()

        return traced

    def _generator_span(self, name: str) -> list | None:
        """[span id, first start, last end, busy] of this query's span for `name`."""
        record = self._gen_spans.get(name)
        if record is None and self._query_id is not None:
            record = self._gen_spans[name] = [len(self.spans), self.clock(), None, 0.0]
            self.spans.append(None)
        return record

    # ------------------------------------------------------------- reports
    def write_spans(self, path: str) -> int:
        """Write the recorded spans as tab-separated lines; returns the count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tbusy_s\tparent\tquery\n")
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, busy, parent, query = span
                handle.write(
                    f"{span_id}\t{name}\t{start!r}\t{end!r}\t{busy!r}\t"
                    f"{'' if parent is None else parent}\t{'' if query is None else query}\n"
                )
                count += 1
        return count
