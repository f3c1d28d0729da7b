"""Outside-in tracing and row timing for the modwave benchmark.

Both work by replacing a module attribute with a wrapper, at the name the
caller looks up (``modwave.metrics.welch_psd``, not the defining module
when the caller imported the name into its own namespace), and putting the
original back afterwards. Nothing inside ``src/`` is changed.

``RowClock`` marks where one row (one scheme, one evaluated formula, one
``eval``) starts and ends; it runs in every pass.
``Tracer`` records a span per call of a layer's public function and runs
only in traced passes, so end-to-end numbers never carry its cost.
"""

import functools
import math
import time


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class RowClock:
    """Per-row latencies; a failed or missing row has infinite latency."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.row = None
        self._start = None

    def begin(self):
        self.row = len(self.latencies)
        self._start = time.perf_counter()

    def end(self, ok):
        elapsed = time.perf_counter() - self._start
        self.latencies.append(elapsed if ok else math.inf)
        self.failed += 0 if ok else 1
        self.row = self._start = None

    def add_missing(self, count):
        self.latencies.extend([math.inf] * count)
        self.failed += count

    def hook_calls(self, patches, owner, attr, ok):
        """Time each call of ``owner.attr`` as one row; ``ok(result)`` says if it succeeded."""

        def make(original):
            def timed(*args, **kwargs):
                self.begin()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    self.end(ok=False)
                    raise
                self.end(ok=ok(result))
                return result

            return timed

        patches.wrap(owner, attr, make)


class Tracer:
    """Spans kept in memory as columns: name, start, end, parent, row.

    Columns of strings, floats and ints give the garbage collector almost
    nothing new to scan, so tracing does not change how often the program's
    own collections run. ``name`` may be a callable of the call's
    arguments, so one function can be split by what it was asked to do.
    ``count`` maps the result and the arguments to counters, such as
    samples or bytes, summed per span name.
    """

    def __init__(self, clock):
        self.clock = clock
        self.names, self.starts, self.ends, self.parents, self.rows = [], [], [], [], []
        self.counters = {}
        self._open = []

    def wrap(self, patches, owner, attr, name, count=None):
        def make(original):
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                index = len(self.names)
                self.names.append(label)
                self.parents.append(self._open[-1] if self._open else None)
                self.rows.append(self.clock.row)
                self.ends.append(None)
                self._open.append(index)
                self.starts.append(time.perf_counter())
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.ends[index] = time.perf_counter()
                    self._open.pop()
                if count is not None:
                    totals = self.counters.setdefault(label, {})
                    for key, value in count(result, *args, **kwargs).items():
                        totals[key] = totals.get(key, 0) + value
                return result

            return traced

        patches.wrap(owner, attr, make)

    def layers(self):
        """Per span name: calls, self seconds and summed counters.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        self_s = list(durations)
        for index, parent in enumerate(self.parents):
            if parent is not None:
                self_s[parent] -= durations[index]
        table = {}
        for name, seconds in zip(self.names, self_s):
            entry = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += seconds
        for name, totals in self.counters.items():
            table[name].update(totals)
        return table

    def columns(self):
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents, "row": self.rows}
