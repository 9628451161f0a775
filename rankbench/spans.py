"""The benchmark's own span recorder.

Spans are timed from outside, around calls into each layer's public
functions, and kept in memory until the run ends.  The program's
tracing (``repro.observability``) is deliberately not used, so a change
to it cannot shift these numbers.
"""

import contextlib
import math
import resource
from time import perf_counter_ns


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return percentile(values, 0.5)


def peak_rss_mb():
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Named spans, each tagged with the run phase it belongs to.

    ``phase`` is set by the caller (``"setup"``, ``"warmup"``,
    ``"stream"``, ``"probe"``): per-call layer times use every span of a
    layer, layer shares only those of the replayed operation stream.
    """

    def __init__(self):
        self.phase = "setup"
        self.records = []

    @contextlib.contextmanager
    def span(self, name):
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.records.append((name, self.phase,
                                 perf_counter_ns() - start))

    def add(self, name, seconds):
        """Record a span timed elsewhere (``seconds`` long)."""
        self.records.append((name, self.phase, int(seconds * 1e9)))

    def durations(self, name, phase=None):
        """Durations of ``name`` spans, in seconds."""
        return [ns / 1e9 for n, p, ns in self.records
                if n == name and (phase is None or p == phase)]

    def mean(self, name, scale=1e3):
        """Mean duration per call, scaled (ms by default); None if absent."""
        values = self.durations(name)
        if not values:
            return None
        return scale * sum(values) / len(values)

    def total(self, name, phase=None):
        return sum(self.durations(name, phase))
