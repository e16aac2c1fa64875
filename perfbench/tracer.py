"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: (name, start_ns, end_ns, parent, op), where
`parent` is the index of the enclosing span (-1 at the top) and `op` the id
of the benchmark operation that caused it, so the spans of one operation
share an identifier.  Spans stay in memory and are written out once, at the
end of the run.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    """Wraps functions so that every call records a span."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self.sizes: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name, fn, size=None):
        """`fn` with a span around each call; `size(result)` is summed into
        `sizes[name]` when given (a count measured at the same boundary)."""
        spans, stack, sizes = self.spans, self._stack, self.sizes

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if size is not None:
                sizes[name] += size(result)
            return result

        return traced

    def region(self, name, fn, *args):
        """Run `fn(*args)` inside a span named `name` (groups child spans)."""
        return self.wrap(name, fn)(*args)

    def patch(self, module, attr, name) -> None:
        """Trace the calls a module makes through its name `attr`, while the
        tracer is entered (`with tracer:`).

        Used for calls one layer makes into another (for example infoset
        into combinatorics), which the benchmark cannot wrap at its own call
        site.  A name the module no longer has is skipped, and the layer then
        reads 0 calls.
        """
        original = getattr(module, attr, None)
        if original is not None:
            self._patches.append((module, attr, original, self.wrap(name, original)))

    def __enter__(self) -> Tracer:
        for module, attr, _original, traced in self._patches:
            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _traced in self._patches:
            setattr(module, attr, original)

    def note(self, name: str, value: float) -> None:
        """A derived per-operation number (for example fold time)."""
        self.notes[name].append(value)

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total_ns and self_ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, int]] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["total_ns"] += end - start
            t["self_ns"] += end - start - child_ns[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{i},{name},{start},{end},{parent},{op}\n")


class NullTracer:
    """Tracing switched off: functions are returned unwrapped."""

    op = 0

    def wrap(self, name, fn, size=None):
        return fn

    def region(self, name, fn, *args):
        return fn(*args)

    def patch(self, module, attr, name) -> None:
        pass

    def __enter__(self) -> NullTracer:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def note(self, name: str, value: float) -> None:
        pass
