"""The runner's span recorder, the Python twin of the harness's tracer.

A span is ``[name, start_s, end_s, parent index or None, request id or
None]``. Spans stay in memory and are written out once, when the run ends.
"""

import time


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []

    def open(self, name, request=None, start=None):
        if not self.enabled:
            return None
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, request])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, handle, end=None):
        if handle is None:
            return
        assert self.stack.pop() == handle, "spans close innermost first"
        self.spans[handle][2] = time.perf_counter() if end is None else end

    def record(self, name, start, end, request=None):
        """A finished span under the innermost open one."""
        if self.enabled and start is not None and end is not None:
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, start, end, parent, request])
            return len(self.spans) - 1
        return None

    def child(self, parent, name, start, end, request=None):
        """A finished span under ``parent``."""
        if parent is not None and start is not None and end is not None:
            self.spans.append([name, start, end, parent, request])


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    selfs = []
    for (name, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        selfs.append(max(0.0, (end - start) - covered))
    return selfs


def summary(spans):
    """``{name: {"count", "total_s", "self_s"}}`` over every span."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return out
