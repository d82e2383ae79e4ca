"""Spans and counters recorded from outside the library.

Every call the benchmark makes into a `schemewalk` module goes through
`Tracer.call`, so the same request code runs traced and untraced.  The
untraced tracer forwards the call and records nothing; the traced one
keeps a span (name, start, end, parent, request id) in memory and adds
named counts.  Spans are written out only when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Untraced mode: calls go straight through, counts are dropped."""

    def begin_request(self, request_id: int) -> None:
        pass

    def end_request(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount=1) -> None:
        pass


class Tracer(NullTracer):
    """Traced mode: one span per library call, nested under its request.

    A span name is `<module>.<operation>`; its module is the layer the
    span's time is charged to.  Library spans have no children (spans
    inside the program are out of scope), so their self time is their
    duration; a request span's self time is the client's own work.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._request: int | None = None
        self._request_span: int | None = None
        self._request_start = 0

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        self._request_span = len(self.spans)
        self.spans.append(("request", 0, 0, None, request_id))
        self._request_start = time.perf_counter_ns()

    def end_request(self) -> None:
        end = time.perf_counter_ns()
        idx = self._request_span
        self.spans[idx] = ("request", self._request_start, end, None, self._request)
        self._request = self._request_span = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (name, start, time.perf_counter_ns(), self._request_span, self._request)
            )

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += int(amount)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[idx]) / 1e9
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)


def write_spans(tracers, path) -> int:
    """Write the spans of several tracers, one JSON object per line.

    Span ids run on across tracers, so parents stay unambiguous.
    Returns the number of spans written.
    """
    offset = 0
    with open(path, "w") as fh:
        for tracer in tracers:
            for idx, (name, start, end, parent, request) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "id": offset + idx, "name": name, "start_ns": start, "end_ns": end,
                    "parent": None if parent is None else offset + parent,
                    "request": request}) + "\n")
            offset += len(tracer.spans)
    return offset
