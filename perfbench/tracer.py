"""An in-memory span recorder that instruments a package from outside.

Spans are (name, start, end, parent, run id) with perf_counter times and
the parent given as an index into the span list (-1 for a root). They
stay in memory until `dump` writes them out, so tracing costs one list
append and two clock reads per call.

Instrumenting replaces module attributes: every module of the package
that holds the original object, including names bound by
`from ... import`, gets the wrapper. A name that no longer exists is
recorded in `absent` with the reason, so metrics built on it are
reported as absent rather than as zero.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent]
        self.counts = defaultdict(int)
        self.absent = {}  # wrapped name -> reason
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        """`fn` inside a span; `on_return(counts, bound_args, result)` counts work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def wrap_context(self, prefix: str, fn):
        """A context-manager factory whose first argument names the span."""
        span = self.span

        @contextmanager
        def traced(name, *args, **kwargs):
            with span(prefix + name), fn(name, *args, **kwargs):
                yield

        return traced

    def instrument(self, package: str, module: str, attr: str, make_wrapper) -> None:
        """Replace `package.module.attr` wherever the package binds it."""
        qualified = f"{module}.{attr}"
        mod = sys.modules.get(f"{package}.{module}")
        if mod is None or not hasattr(mod, attr):
            self.absent[qualified] = f"{package}.{qualified} no longer exists"
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

    def dump(self, path, **extra) -> None:
        data = {
            "run_id": self.run_id,
            "spans": [rec + [self.run_id] for rec in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
            **extra,
        }
        with open(path, "w") as f:
            json.dump(data, f)


class Trace:
    """Queries over dumped spans: totals, outermost calls, self time."""

    def __init__(self, data: dict):
        self.spans = data["spans"]
        self.counts = data["counts"]
        self.absent = data["absent"]
        self.children = defaultdict(list)
        self.ancestors = []  # names of the spans enclosing each span
        inherited = {-1: frozenset()}
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            self.children[parent].append(i)
            if parent not in inherited:
                inherited[parent] = self.ancestors[parent] | {self.spans[parent][0]}
            self.ancestors.append(inherited[parent])

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def select(self, names, within=()) -> list:
        """Spans named in `names` that no other such span encloses.

        With `within`, only spans that some span named there encloses.
        """
        names, within = set(names), set(within)
        return [
            i for i, rec in enumerate(self.spans)
            if rec[0] in names
            and names.isdisjoint(self.ancestors[i])
            and (not within or not within.isdisjoint(self.ancestors[i]))
        ]

    def total(self, names, within=()) -> float:
        return sum(self.duration(i) for i in self.select(names, within))

    def count(self, names, within=()) -> int:
        return len(self.select(names, within))

    def self_time(self, names) -> float:
        """Duration of the named spans minus the time their children cover.

        Calls are sequential in one thread, so children never overlap.
        """
        return sum(
            self.duration(i) - sum(self.duration(c) for c in self.children[i])
            for i in self.select(names)
        )
