"""Span tracing of hybridchat from outside the package.

A traced run replaces the functions and methods the pipeline calls with
wrappers that record one span per call: name, start, end, parent span and
the query/pool/step tag current at the time.  Every module attribute that
holds the original object is swapped, so names imported with
``from .x import y`` (for example ``pipeline.beam_search``) are traced as
well as the defining module's.  Spans stay in memory and are written out
when the run ends.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "tag", "count")

    def __init__(self, sid, name, start, parent, tag):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.count = None       # optional work count recorded at the boundary

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.tag = None
        self._patches = []       # (owner, attribute, original) for uninstall

    # -- span recording ---------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.tag)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, fn, name: str, count=None, before=None):
        """Wrapper recording a span per call.

        count(args, kwargs, result) gives a work count stored on the span;
        before(args) runs ahead of the span (untimed), for costly counts.
        """
        tracer = self

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            elif pre is not None:
                span.count = pre
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ----------------------------------------------

    def patch_function(self, fn, name: str, **kw) -> None:
        """Swap every hybridchat module attribute that is `fn`."""
        wrapper = self.wrap(fn, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("hybridchat"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, **kw))
        else:
            wrapped = self.wrap(raw, name, **kw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children.

        Calls are single-threaded and nested, so children never overlap and
        their covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def table(self) -> list[dict]:
        selfs = self.self_times()
        rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
        for s, st in zip(self.spans, selfs):
            r = rows[s.name]
            r["calls"] += 1
            r["total_s"] += s.dur
            r["self_s"] += st
            r["durs"].append(s.dur)
        out = []
        for name, r in rows.items():
            out.append({"name": name, "calls": r["calls"], "total_s": r["total_s"],
                        "self_s": r["self_s"],
                        "median_ms": 1000.0 * statistics.median(r["durs"])})
        out.sort(key=lambda r: -r["self_s"])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "tag": s.tag,
                                     "count": s.count}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


class NullTracer:
    """Stand-in for untraced runs: stage spans cost one attribute lookup."""

    tag = None

    def span(self, name: str):
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()
