"""Timing, child processes, statistics and spans for the benchmark."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class ChildResult:
    argv: tuple
    exit_code: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str


def run_child(argv, env, cwd, scratch_dir):
    """Run one child to completion and return its wall time and max RSS.

    The child is reaped with ``os.wait4`` so that its own rusage is read,
    not the cumulative RUSAGE_CHILDREN of every child so far.  Output goes
    to files rather than pipes, so nothing has to be drained while the
    child runs.
    """
    out_path = os.path.join(scratch_dir, "child.out")
    err_path = os.path.join(scratch_dir, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(tuple(argv), proc.returncode, wall, usage.ru_maxrss,
                           out.read().decode("utf-8", "replace"),
                           err.read().decode("utf-8", "replace"))


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, q):
    """How many of ``count`` samples lie above the q-th nearest-rank percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def spread(values):
    """Interquartile distance as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    request: int
    start: float
    end: float
    counts: dict

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    ``request`` groups the spans of one pass; counts recorded on a span are
    the work it did, so ratios come from where the work happened.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = 0
        self._last_id = 0

    def new_request(self):
        self._request += 1

    @contextmanager
    def span(self, name):
        counts = {}
        self._last_id += 1
        span_id = self._last_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, span_id, parent, self._request, start, end, counts))

    def total(self, name):
        return sum(s.duration for s in self.spans if s.name == name)

    def fastest_per_request(self, name):
        """Sum over requests of the shortest ``name`` span in each."""
        best = {}
        for s in self.spans:
            if s.name == name:
                best[s.request] = min(best.get(s.request, s.duration), s.duration)
        return sum(best.values())

    def count(self, name, key):
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def self_times(self):
        """Per span name: total duration minus the time its children cover."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.span_id, 0.0)
        return out


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    def new_request(self):
        pass

    def span(self, name):
        return nullcontext({})
