"""In-memory spans and counts recorded around the benchmark's own calls.

A span is one call from the benchmark into a public randrefine function:
its name (``<layer>.<operation>``), start and end (``perf_counter``
seconds), the index of the enclosing span and the job it belongs to.  A
count is a number attached to a job under a metric name.  Nothing is
written until :meth:`Tracer.dump` at the end of a run.

A disabled tracer records nothing, so the same job code serves the
untraced run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = None
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append({"name": name, "job": self.job, "value": value})

    def top_level_seconds(self, job) -> float:
        """Time of the job covered by spans that have no enclosing span."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["job"] == job and s["parent"] is None
        )

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra, spans=self.spans, counts=self.counts)
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")
