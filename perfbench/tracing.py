"""Spans around the codec's public functions, recorded from outside the package.

The codec modules look their collaborators up by name at call time (for
example ``container`` calls ``basejpeg.decode_base`` and ``rescodec`` calls
its own global ``code_plane`` and the ``hpack`` names it imported), so a
wrapper is installed at every such lookup site; the sites are found by
scanning the layer modules (``discover_sites``).  A span is named after the
module that defines the function, wherever it is called from; nesting is kept
through the parent index, so refinement plane coding shows as a
``rescodec.decode_plane`` child of ``basejpeg.merge_refinement``.

Spans stay in memory and are summarised or written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


# Layers timed by the benchmark, in pipeline order.  ``tmqi``, ``bench`` and
# ``cli`` are left out: the first only scores quality, the others are harness.
LAYERS = ("container", "imagio", "tmo", "basejpeg", "rescodec", "hpack")


# span name -> work counts taken from the call's arguments and result
COUNTS = {
    "basejpeg.encode_base": lambda args, result: {"bytes": len(result)},
    "basejpeg.decode_base": lambda args, result: {"bytes": len(args[0])},
    "basejpeg.split_refinement": lambda args, result: {"planes": len(result[1].payloads)},
    "basejpeg.merge_refinement": lambda args, result: {"planes": len(args[1].payloads)},
    "rescodec.code_plane": lambda args, result: {"samples": args[0].size},
    "rescodec.decode_plane": lambda args, result: {"samples": args[1] * args[2], "bits": 8 * len(args[0])},
}


def discover_sites() -> tuple[tuple[object, str, str], ...]:
    """(module looked up in, attribute, span name) for every public function
    of a layer that a layer module holds under any name, its own module
    included.  Built from the modules themselves, so a function that a later
    change adds, moves or imports by name elsewhere is traced too."""
    owners = {f"hdr2l.{layer}": layer for layer in LAYERS}
    sites = []
    for layer in LAYERS:
        module = importlib.import_module(f"hdr2l.{layer}")
        for attr, value in sorted(vars(module).items()):
            owner = owners.get(getattr(value, "__module__", None))
            name = getattr(value, "__name__", "_")
            if owner and callable(value) and not isinstance(value, type) and not name.startswith("_"):
                sites.append((module, attr, f"{owner}.{name}"))
    return tuple(sites)


SITES = discover_sites()
SPAN_NAMES = tuple(sorted({name for _, _, name in SITES}))


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    cell: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; only records while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._cell = -1

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self._cell)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, cell: int):
        """Wrap every call site for the duration of one traced cell."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in SITES]
        self._cell = cell
        try:
            for (module, attr, name), (_, _, fn) in zip(SITES, originals):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            self._cell = -1


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def summarise(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per span name: calls, inclusive time, self time (inclusive minus the
    time covered by direct children) and summed work counts."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    totals = {name: SpanTotals() for name in SPAN_NAMES}
    for span, children in zip(spans, child_ns):
        t = totals[span.name]
        duration = span.end_ns - span.start_ns
        t.calls += 1
        t.total_ns += duration
        t.self_ns += duration - children
        for key, value in span.counts.items():
            t.counts[key] += value
    return totals
