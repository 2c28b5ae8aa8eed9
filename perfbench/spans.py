"""In-memory span tracer that wraps public functions from the outside.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces an
attribute (a method on a class, a function on a module) with a wrapper that
records one span per call — name, start, end and parent — plus a call count
and an optional work count (rows, say).  Spans live in memory and are
written once, by :meth:`Tracer.dump`, when the benchmark ends.

Only the thread that created the tracer records spans, so in synchronous
code the spans of one run nest strictly and a span's self time (its
duration minus its direct children's) sums, over all spans, to the root
span's duration.  Calls made
on other threads (executor shards) pass straight through.  The parent link
lives in a :class:`contextvars.ContextVar`, so asyncio tasks that interleave
on the recording thread each keep their own parent chain.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_CURRENT = contextvars.ContextVar("perfbench_span", default=-1)


def rows_of_first_arg(_self, block, *args, **kwargs) -> int:
    """``work`` callback of :meth:`Tracer.wrap` for methods whose first
    argument is a block of rows."""
    return len(block)


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent]
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self._thread = threading.get_ident()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, _CURRENT.get()])
        self.calls[name] += 1
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span named ``name`` around the ``with`` body."""
        index = self.begin(name)
        token = _CURRENT.set(index)
        try:
            yield
        finally:
            self.end(index)
            _CURRENT.reset(token)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        work: Optional[Callable[..., float]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``work(*args, **kwargs)`` (optional) returns the amount of work the
        call does, accumulated under ``name`` in :attr:`work`.
        """
        fn = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return await fn(*args, **kwargs)
                if work is not None:
                    tracer.work[name] += work(*args, **kwargs)
                index = tracer.begin(name)
                token = _CURRENT.set(index)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                    _CURRENT.reset(token)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return fn(*args, **kwargs)
                if work is not None:
                    tracer.work[name] += work(*args, **kwargs)
                index = tracer.begin(name)
                token = _CURRENT.set(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                    _CURRENT.reset(token)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`unwrap_all`."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every attribute :meth:`wrap` replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def self_ns(self) -> Dict[str, int]:
        """Self time per span name: duration minus direct children's."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child_ns[index]
        return dict(totals)

    def total_ns(self, *names: str, under: Optional[str] = None) -> int:
        """Summed inclusive duration of the spans named ``names``.

        Nested calls of the listed names count once (only the outermost).
        ``under`` keeps only spans with an ancestor of that name.
        """
        wanted = set(names)
        total = 0
        for name, start, end, parent in self.spans:
            if name not in wanted or self.has_ancestor(parent, wanted):
                continue
            if under is not None and not self.has_ancestor(parent, {under}):
                continue
            total += end - start
        return total

    def has_ancestor(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: Path, **extra) -> None:
        """Write spans, counts and ``extra`` as one gzipped JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "work": dict(self.work),
            **extra,
        }
        with gzip.open(path, "wt") as out:
            json.dump(payload, out)


def load(path: Path) -> dict:
    """Read a document :meth:`Tracer.dump` wrote."""
    with gzip.open(path, "rt") as source:
        return json.load(source)


def overhead_ns_per_span(samples: int = 20000) -> float:
    """Measured cost one wrapped call adds over a plain call, in ns."""
    tracer = Tracer()

    class Probe:
        def noop(self):
            return None

    plain = Probe()
    start = time.perf_counter_ns()
    for _ in range(samples):
        plain.noop()
    base = time.perf_counter_ns() - start
    tracer.wrap(Probe, "noop", "probe")
    start = time.perf_counter_ns()
    for _ in range(samples):
        plain.noop()
    wrapped = time.perf_counter_ns() - start
    tracer.unwrap_all()
    return max(wrapped - base, 0) / samples


@contextlib.contextmanager
def traced(tracer: Optional[Tracer], install: Callable[[Tracer], None]):
    """Install ``tracer``'s wrappers and record the ``bench`` root span.

    The root span's self time is the benchmark's own work: every span
    below it is a call into the program.  With ``tracer=None`` this does
    nothing, so untraced runs execute exactly the same benchmark code.
    """
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        with tracer.span("bench"):
            yield
    finally:
        tracer.unwrap_all()
