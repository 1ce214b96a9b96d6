"""Spans and counts recorded around the calls the benchmark makes into mvdyn.

A span is (name, start, end, parent, task): ``name`` is ``<module>.<function>``
for a library call or ``task.<kind>`` for a whole task, times are
``time.perf_counter`` seconds, ``parent`` is the index of the enclosing span
or ``None``. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class NullTracer:
    """Used for the untraced runs: calls straight through, records nothing."""

    last = 0.0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n=1):
        pass

    def set_task(self, task_id):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._task = None
        self.last = 0.0     # duration of the most recent call, for per-arity sums

    def set_task(self, task_id):
        self._task = task_id

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self._task)
            self.last = t1 - t0

    def count(self, key, n=1):
        self.counts[key] += n

    def per_name(self):
        """{name: (calls, busy seconds)} over all recorded spans."""
        calls, busy = Counter(), Counter()
        for name, t0, t1, _parent, _task in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
        return {name: (calls[name], busy[name]) for name in calls}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task}) + "\n")
