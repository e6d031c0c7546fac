"""In-memory spans around the benchmark's calls into jcqsim.

A span records its name, start and end (``time.perf_counter`` seconds), the
index of the enclosing span and the op it belongs to. Nothing is written
until the run ends, so tracing adds no I/O to the timed ops.
"""

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "op": self.op}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def op_layers(self, op):
        """Seconds per span name within one op, plus ``op.self_s``.

        Self time is the root span's duration minus that of its direct
        children.
        """
        totals = {}
        root = None
        children = 0.0
        for index, record in enumerate(self.spans):
            if record["op"] != op:
                continue
            duration = record["end"] - record["start"]
            totals[record["name"]] = totals.get(record["name"], 0.0) + duration
            if record["parent"] is None:
                root = index
                root_duration = duration
            elif record["parent"] == root:
                children += duration
        totals["op.self_s"] = root_duration - children
        return totals


class NullTracer:
    """Tracer stand-in for untraced ops: every span is a shared no-op."""

    _NULL = contextlib.nullcontext()

    def span(self, name):
        return self._NULL
