"""In-memory span recorder for the traced benchmark run.

A span is (id, parent id, op id, name, start ns, end ns).  Spans opened
while another is open become its children; spans of one stream op share the
op id.  Spans come only from the benchmark's side: calls it makes, plus
module attributes it temporarily replaces with recording wrappers (the
package's own call sites look those names up at call time).
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op = 0
        self._stack: list[int] = []

    def new_op(self) -> None:
        self.op += 1

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, module, names: dict[str, str]):
        """Replace module.attr with a recording wrapper for each attr -> span
        name, restoring the originals on exit."""
        originals = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, span_name in names.items():
                setattr(module, attr, self.wrap(span_name, originals[attr]))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def durations(self, name: str, lo: int = 0, hi: int | None = None, *,
                  self_time: bool = False) -> list[int]:
        """Durations in ns of the spans with this name among spans[lo:hi],
        optionally minus the time covered by their direct children.  Children
        close before their parent, so a slice ending after a span holds all
        of its children."""
        spans = self.spans[lo:hi]
        child_ns: dict[int, int] = {}
        if self_time:
            for _, parent, _, _, start, end in spans:
                if parent >= 0:
                    child_ns[parent] = child_ns.get(parent, 0) + end - start
        return [end - start - child_ns.get(sid, 0)
                for sid, _, _, span_name, start, end in spans if span_name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)
