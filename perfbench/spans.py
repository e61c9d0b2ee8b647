"""In-memory span recorder for the traced benchmark run.

One span per benchmark call into a package module, named
``<module>.<function>``, with an optional tag (a gate, a dimension, a row
size), start and end from ``time.perf_counter``, the index of its parent
span and the run id.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import benchmath


class Recorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._selfs: list[float] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "tag": tag, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_s(self, name: str, tag: str | None = None) -> list[float]:
        """Self times of the closed spans with this name (and tag, if given)."""
        if len(self._selfs) != len(self.spans):
            self._selfs = benchmath.self_times(self.spans)
        selfs = self._selfs
        return [s for sp, s in zip(self.spans, selfs)
                if sp["name"] == name and (tag is None or sp["tag"] == tag)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}) + "\n")


class NullRecorder:
    """Tracing off: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str, tag: str = ""):
        return self._null
