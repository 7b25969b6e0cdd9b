"""In-memory spans and counters for the traced run.

A span has a name, a start, an end and the id of the span that caused
it; all spans of one run share the run id.  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its span's
duration minus the part of that interval its children cover.

Work done on worker threads is recorded as one *aggregate* child span:
its duration is the summed per-thread CPU time of the calls, so time a
thread spends waiting for the interpreter lock is not charged to the
layer, and it subtracts from the parent's self time as a whole.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Tracer:
    """The spans of one traced run, in the order they opened; used from one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def aggregate(self, name: str, seconds: float, **counts) -> None:
        """A child of the open span standing for ``seconds`` of summed thread CPU time."""
        parent = self.spans[self._stack[-1]]
        self.spans.append({"id": len(self.spans), "parent": parent["id"], "name": name,
                           "start": parent["start"], "end": parent["start"] + seconds,
                           "aggregate": True, **counts})

    def find(self, name: str, under: str | None = None) -> list[dict]:
        """Closed spans called ``name``, optionally only those below a span called ``under``."""
        found = []
        for span in self.spans:
            if span["name"] != name or span["end"] is None:
                continue
            if under is None or any(a["name"] == under for a in self._ancestors(span)):
                found.append(span)
        return found

    def _ancestors(self, span: dict):
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            yield span

    def duration(self, name: str, under: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.find(name, under))

    def self_time(self, name: str, under: str | None = None) -> float:
        total = 0.0
        for span in self.find(name, under):
            children = [s for s in self.spans if s["parent"] == span["id"] and s["end"] is not None]
            covered = sum(s["end"] - s["start"] for s in children if s.get("aggregate"))
            intervals = sorted((s["start"], s["end"]) for s in children if not s.get("aggregate"))
            reach = span["start"]
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += span["end"] - span["start"] - covered
        return total

    def dump(self) -> dict:
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "run_id": self.run_id,
            "spans": [
                {**s, "start": round(s["start"] - origin, 6), "end": round(s["end"] - origin, 6)}
                for s in self.spans if s["end"] is not None
            ],
        }


class NullTracer:
    """The untraced run: the same pipeline code, with spans that record nothing."""

    @contextmanager
    def span(self, name: str):
        yield None


class CountingNer:
    """Wraps the NER callable handed to ``extract_events``; safe on worker threads.

    Counts calls, distinct sentences and mentions, and sums each call's
    thread CPU time.
    """

    def __init__(self, ner, doc_of: dict[int, str]):
        self._ner = ner
        self._doc_of = doc_of  # id(sentence) -> doc id, to tell equal sentence ids apart
        self._lock = threading.Lock()
        self.calls = 0
        self.mentions = 0
        self.cpu_s = 0.0
        self.visited: set[tuple[str, str]] = set()

    def __call__(self, sentence):
        start = time.thread_time()
        mentions = self._ner(sentence)
        elapsed = time.thread_time() - start
        with self._lock:
            self.calls += 1
            self.mentions += len(mentions)
            self.cpu_s += elapsed
            self.visited.add((self._doc_of.get(id(sentence), ""), sentence.id))
        return mentions
