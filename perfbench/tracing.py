"""Spans, counters, host speed and outcome accounting for one pass.

Every pass records coarse spans around the calls it makes into the
package (a handful per pass, so their cost is negligible) and the
outcome of every operation.  A traced pass also wraps the package's
public seams from outside: a timing subclass of the sink in use, whose
public on_annotation hook opens and closes one span per construction
phase, and a timing wrapper around every step a verifier consumes.
Nothing inside the package is patched.

The host this runs on drifts between a fast and a slow speed, in
stretches from seconds to whole runs, by up to about 1.8x.  So every
pass also samples the host's speed: every SPEED_GAP seconds an interval
timer interrupts the work, between two bytecodes of the same thread,
to time a fixed pure-Python kernel.  The kernel's time is kept off the
pass's clock, and every span's duration is its work time rescaled,
stretch by stretch, to the speed at which the kernel takes
CALIBRATION_REF_S (see Speedometer).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

SPEED_GAP = 0.1  # seconds between two samples of the host's speed
KERNEL_ROUNDS = 12_000
_MASK = (1 << 19) - 1
_TABLE = array("q", range(0, 7 << 19, 7))  # not tracked by the collector
# The kernel's time at the reference speed: about its time on one core of
# a shared Intel Xeon host, in that host's faster state, under CPython 3.11.
CALIBRATION_REF_S = 0.0036

PHASES = ("repeat_level", "gather_tails", "tail_cycles", "form_new_tail",
          "shift", "reflect")


def phase_of(label: str) -> Optional[str]:
    """The phase an annotation label belongs to, or None.

    Labels outside the six phases (the recursive step's own root scope,
    or any label a later version adds) open no span, so their time and
    flips stay with the enclosing phase.
    """
    if label.startswith("step k="):
        return "repeat_level"
    if label == "gather tails":
        return "gather_tails"
    if label == "tail cycles":
        return "tail_cycles"
    if label == "form the new tail":
        return "form_new_tail"
    if label.startswith("shift "):
        return "shift"
    if label.startswith("reflect "):
        return "reflect"
    return None


def kernel():
    """Fixed pure-Python work: integer arithmetic, small tuples, a small
    dict and reads spread over a 4 MiB table, so that it feels the host's
    memory as the package's own work does.  Nothing it allocates outlives
    a round."""
    table = {}
    total = 0
    j = 1
    for i in range(KERNEL_ROUNDS):
        j = (j * 1103515245 + 12345) & _MASK
        table[i & 255] = (i, total)
        total = (total + _TABLE[j]) % 1_000_003
    return total


class Speedometer:
    """A clock of work time that leaves out its own speed samples, and
    the host's speed along it.

    Inside `with speedometer:` a SIGALRM every SPEED_GAP seconds takes a
    sample; one more is taken on entry and on exit.  A sample times
    `kernel` with the garbage collector off, so that its time does not
    depend on what the work holds in memory.  Each sample's cost is
    taken as the median of it and its neighbours, which drops a lone
    sample that a preemption stretched.  Between two samples the cost of
    the kernel is the mean of theirs; before the first and after the
    last, that sample's.  `scaled(a, b)` is the work time from a
    to b, each stretch multiplied by CALIBRATION_REF_S / kernel cost."""

    def __init__(self):
        self.excluded = 0.0
        self.times = []  # work clock at each sample
        self.costs = []  # kernel seconds at each sample
        self._integral = None
        self._busy = False
        self._handler = None

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SPEED_GAP, SPEED_GAP)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def _alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def now(self) -> float:
        # A sample may land between the two reads; then read again.
        while True:
            excluded = self.excluded
            t = time.perf_counter()
            if excluded == self.excluded:
                return t - excluded

    def sample(self):
        self._busy = True
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            cost = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.times.append(entered - self.excluded)
        self.costs.append(cost)
        self._integral = None
        self.excluded += time.perf_counter() - entered
        self._busy = False

    def _rates(self):
        """Reference seconds per work second before the first sample, on
        each stretch between samples and after the last; and the scaled
        time at every sample."""
        if self._integral is None:
            c = [statistics.median(self.costs[max(0, i - 1):i + 2])
                 for i in range(len(self.costs))]
            rates = [CALIBRATION_REF_S / c[0],
                     *(CALIBRATION_REF_S * 2 / (a + b) for a, b in zip(c, c[1:])),
                     CALIBRATION_REF_S / c[-1]]
            at = [0.0]
            for t0, t1, rate in zip(self.times, self.times[1:], rates[1:]):
                at.append(at[-1] + (t1 - t0) * rate)
            self._integral = rates, at
        return self._integral

    def _scaled_at(self, x) -> float:
        rates, at = self._rates()
        i = bisect_right(self.times, x) - 1
        if i < 0:
            return (x - self.times[0]) * rates[0]
        return at[i] + (x - self.times[i]) * rates[i + 1]

    def scaled(self, a, b) -> float:
        return self._scaled_at(b) - self._scaled_at(a)


@dataclass
class Span:
    name: str
    start: float  # work clock of the pass
    parent: Optional["Span"] = None
    end: float = 0.0
    flips_open: int = 0
    flips_close: int = 0
    child_flips: int = 0
    children: list = field(default_factory=list)
    duration: float = 0.0  # seconds at the reference speed, set by Pass.finish

    @property
    def raw(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    @property
    def self_flips(self) -> int:
        return self.flips_close - self.flips_open - self.child_flips

    def adopt(self, child):
        self.children.append(child)
        self.child_flips += child.flips_close - child.flips_open


@dataclass
class Pass:
    """What one pass over a workload's operations did and how long it took."""

    traced: bool
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)  # (op, message, is_output_check)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    sink_s: float = 0.0
    sink_calls: int = 0
    recorder_flips: int = 0
    batched_flips: int = 0
    source_s: Counter = field(default_factory=Counter)
    speed: Speedometer = field(default_factory=Speedometer)
    error_at: Optional[str] = None  # innermost span an exception left
    _stack: list = field(default_factory=list)
    _recorder: object = None
    _seen_flips: int = 0

    # -- spans ---------------------------------------------------------

    def open(self, name, flips=0):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.speed.now(), parent, flips_open=flips)
        self._stack.append(span)
        self.spans.append(span)

    def close(self, flips=0):
        span = self._stack.pop()
        span.end = self.speed.now()
        span.flips_close = flips
        if span.parent is not None:
            span.parent.adopt(span)

    def finish(self):
        """Give every span its duration at the reference speed."""
        for span in self.spans:
            span.duration = self.speed.scaled(span.start, span.end)

    @property
    def factor(self) -> float:
        """Reference seconds per work second over the pass's spans, for
        times taken inside the package's callbacks."""
        roots = [s for s in self.spans if s.parent is None]
        raw = sum(s.raw for s in roots)
        return sum(s.duration for s in roots) / raw if raw else 1.0

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        except Exception:
            if self.error_at is None:
                self.error_at = name
            raise
        finally:
            self.close()

    def total(self, name) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    # -- outcomes ------------------------------------------------------

    def outcome(self, op, problems=(), certificate_failures=()):
        """Count one attempted operation.  It fails when its output check
        found problems or when a certificate it reports failed; only the
        former makes the run's outputs incorrect."""
        self.attempted += 1
        if problems or certificate_failures:
            self.failed += 1
        self.problems += [(op, m, True) for m in problems]
        self.problems += [(op, m, False) for m in certificate_failures]

    def raised(self, op, message):
        self.attempted += 1
        self.failed += 1
        self.problems.append((op, message, True))

    @property
    def outputs_correct(self) -> bool:
        return not any(is_check for _, _, is_check in self.problems)

    # -- seams wrapped in traced passes ----------------------------------

    def sink(self, base, *args):
        """An instance of the sink class `base`; in a traced pass, of a
        subclass that times its methods and turns annotations into spans."""
        if not self.traced:
            return base(*args)
        owner = self

        class TracedSink(base):
            def on_step(self, flips):
                owner._sink_call(super().on_step, flips, batched=False)

            def on_transpositions(self, pairs):
                owner._sink_call(super().on_transpositions, pairs, batched=True)

            def on_annotation(self, depth, label):
                owner._annotation(label)
                inner = getattr(super(), "on_annotation", None)
                if inner is not None:
                    started = owner.speed.now()
                    inner(depth, label)
                    owner.sink_s += owner.speed.now() - started
                    owner.sink_calls += 1

        return TracedSink(*args)

    def watch(self, recorder):
        """Attribute later sink calls to this recorder's flip counter."""
        self._recorder = recorder
        self._seen_flips = recorder.flip_count

    def release(self):
        """Drop the recorder, which may hold a whole trace, once the pass
        is over, so that the passes kept for the report stay small."""
        self._recorder = None

    def _sink_call(self, method, arg, batched):
        # The recorder advances its flip counter before it calls the sink,
        # so the advance since the previous call is this call's flips.
        now = self._recorder.flip_count
        delta = now - self._seen_flips
        self._seen_flips = now
        self.recorder_flips += delta
        if batched:
            self.batched_flips += delta
        started = self.speed.now()
        method(arg)
        self.sink_s += self.speed.now() - started
        self.sink_calls += 1

    def _annotation(self, label):
        kind, _, text = label.partition(" ")
        phase = phase_of(text)
        if phase is None:
            return
        flips = self._recorder.flip_count
        if kind == "begin":
            self.open("phase." + phase, flips)
        else:
            self.close(flips)

    def source(self, steps, name):
        """The step iterable a verifier consumes; traced, it also books
        the time spent producing steps under `name`."""
        return self._timed(iter(steps), name) if self.traced else steps

    def _timed(self, it, name):
        clock = self.speed.now
        spent = 0.0
        try:
            while True:
                started = clock()
                try:
                    step = next(it)
                except StopIteration:
                    spent += clock() - started
                    return
                spent += clock() - started
                yield step
        finally:
            self.source_s[name] += spent
