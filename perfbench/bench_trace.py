"""In-memory spans for the traced benchmark run.

A span records a name, start and end (seconds since the tracer started),
the index of the span that was open when it began, and the op id.  Spans
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per-name self time of the spans from index ``first`` on: duration minus child spans."""
        window = self.spans[first:]
        totals: dict[str, float] = {}
        for record in window:
            duration = record["end"] - record["start"]
            totals[record["name"]] = totals.get(record["name"], 0.0) + duration
        for record in window:
            parent = record["parent"]
            if parent is not None and parent >= first:
                name = self.spans[parent]["name"]
                totals[name] -= record["end"] - record["start"]
        return totals

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as out:
            json.dump({"run": header, "spans": self.spans}, out)
