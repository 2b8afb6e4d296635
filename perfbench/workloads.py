"""The benchmark's four workloads.

Each workload builds its inputs in its constructor (the timed set-up)
and runs one pass of its operations per call to `run`.  Every operation
is checked against code of the package that does not share the path
being measured: traces by the independent verifier, serialization by a
parse back, geometry by the deviation-imbalance correspondence, search
witnesses by a replay.

Why these four:

- step-file: the large-trace user path, `construct --stage step` at
  t=1, d=81, k=1 streamed through FileSink and verified from the file.
  About 99.9% of its flips arrive as block swaps.
- step-memory: the in-memory path at t=0, d=9, k=2 through ListSink,
  with one FlipStep per transposition, a serialize/parse round trip and
  one level of recursion more.  Its certificate (7) fails, as it does
  in the acceptance suite, and is counted as a failed operation.
- points: the geometry layer on seeded point sets: a random set of 40
  in general position, a random set of 150, and 50 points of a 10x10
  lattice, whose collinear groups and parallel lines make events with
  several flips.  Its traces arrive through validated emit_step, with
  no block swaps.
- search: exhaustive best-deviation search, the only user of `oracle`.

A verify sample of `points` verifies both traces three times, and one of
`search` replays the three witnesses 3000 times, so that each sample is
long enough to time; `verify_s` is the time of one such sample.

Only `points` draws its inputs from the seed; the other inputs are
fixed parameter points.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from allowseq.cli import iter_trace_file, parse_trace, serialize_trace
from allowseq.construction import recursive_step, step_instance
from allowseq.engine import (FileSink, ListSink, StatsSink, Trace,
                             TraceRecorder, min_deviation, verify_stream,
                             verify_trace)
from allowseq.geom import (PointSet, circular_sequence,
                           deviation_imbalance_link, in_general_position,
                           line_imbalances)
from allowseq.oracle import search_best_deviation
from allowseq.planner import plan_sizes
from allowseq.seqcore import CentredSequence, Window, identity_sequence

MAX_CELLS = 10**8  # the default refusal limit of `construct`


def trace_problems(rep, flips, min_dev, steps=None, t=None, reversal=False):
    """What the verifier's report contradicts.

    `flips`, `min_dev` and `steps` are what the producer of the trace
    reported.  The bound min_deviation >= t + 1/2 applies to
    constructions, whose domains are centred on the window [-t, t].
    """
    problems = []
    if not rep.allowable:
        problems.append(f"not allowable: {rep.first_violation}")
    if not rep.all_valid:
        problems.append(f"invalid flip: {rep.first_violation}")
    if t is not None and rep.min_deviation < Fraction(2 * t + 1, 2):
        problems.append(f"min deviation {rep.min_deviation} < t + 1/2")
    if rep.flip_count != flips:
        problems.append(f"verifier saw {rep.flip_count} flips, producer {flips}")
    if steps is not None and rep.step_count != steps:
        problems.append(f"verifier saw {rep.step_count} steps, producer {steps}")
    if rep.min_deviation != min_dev:
        problems.append(f"verifier min deviation {rep.min_deviation}, "
                        f"producer {min_dev}")
    if reversal and not rep.reaches_reversal:
        problems.append("does not reach the reversal")
    return problems


def failed_certificates(outcome):
    return [f"certificate ({c.index}) {c.name}: {c.detail}"
            for c in outcome.certificates if not c.passed]


class _Step:
    """Shared set-up of the two step workloads: the planner call that
    `construct --stage step` makes before it materializes anything."""

    params: tuple  # (t, d, k, n)

    def __init__(self, seed, tmpdir):
        t, d, k, n = self.params
        self.layers = {}
        started = time.perf_counter()
        table = plan_sizes(t, d, k, n)
        self.layers["planner.plan_sizes_s"] = time.perf_counter() - started
        if table.cells is None or table.cells > MAX_CELLS:
            raise ValueError(f"step {self.params} exceeds {MAX_CELLS} cells")
        self.tmpdir = tmpdir

    def construct(self, p, sink):
        t, d, k, n = self.params
        rec = step_instance(t, d, k, n, sink=sink)
        p.watch(rec)
        out = recursive_step(rec, d, k, n, strict_certificates=False)
        return rec, out

    def extras(self, p):
        """The recorder with StatsSink, the floor under every sink."""
        t, d, k, n = self.params
        with p.span("construction.stats"):
            rec = step_instance(t, d, k, n, sink=StatsSink())
            recursive_step(rec, d, k, n, strict_certificates=False)


class StepFile(_Step):
    params = (1, 81, 1, 1)
    # The construction is short next to the verify, so an untraced pass
    # also times it six times after the verify, for samples that lie apart in
    # time; those must repeat the verified construction's own report.
    resamples = 6
    extra_roles = {}

    def run(self, p):
        path = self.tmpdir / "step.trace"
        try:
            rec = self.construct_file(p, path)
            with p.span("verify"):
                with open(path) as fh:
                    with p.span("cli.iter_trace_file"):
                        (window, initial), steps = iter_trace_file(fh)
                    with p.span("engine.verify"):
                        rep = verify_stream(initial, window,
                                            p.source(steps, "cli.iter_trace_file"))
            p.outcome("verify", trace_problems(rep, rec.flip_count,
                                               rec.min_deviation,
                                               rec.step_count, rec.t))
            p.counts["engine.flips"] += rep.flip_count
            p.counts["engine.steps"] += rep.step_count
            p.counts["cli.trace_bytes"] += path.stat().st_size
            for _ in range(0 if p.traced else self.resamples):
                self.construct_file(p, path, like=rec)
        finally:
            path.unlink(missing_ok=True)

    def construct_file(self, p, path, like=None):
        with p.span("construct"):
            with open(path, "w") as fh:
                rec, out = self.construct(p, p.sink(FileSink, fh))
        problems = []
        if like is not None and (rec.flip_count, rec.min_deviation) != \
                (like.flip_count, like.min_deviation):
            problems.append("differs from the verified construction")
        failed = failed_certificates(out)
        p.outcome("construct", problems, failed)
        p.counts["construction.cert_failed"] = len(failed)
        return rec


class StepMemory(_Step):
    params = (0, 9, 2, 1)
    # A pass takes about half a run and varies by a few percent from pass
    # to pass, so a run takes the median of two.
    least_rounds = 2
    extra_roles = {"roundtrip_s": "roundtrip"}

    def run(self, p):
        with p.span("construct"):
            rec, out = self.construct(p, p.sink(ListSink))
            with p.span("engine.to_trace"):
                tr = rec.to_trace()
        failed = failed_certificates(out)
        p.outcome("construct", certificate_failures=failed)
        with p.span("verify"), p.span("engine.verify"):
            rep = verify_stream(tr.initial, tr.window,
                                p.source(tr.steps, "engine.trace_steps"))
        p.outcome("verify", trace_problems(rep, rec.flip_count,
                                           rec.min_deviation,
                                           rec.step_count, rec.t))
        with p.span("roundtrip"):
            with p.span("cli.serialize_trace"):
                text = serialize_trace(tr)
            with p.span("cli.parse_trace"):
                back = parse_trace(text)
        p.outcome("roundtrip",
                  [] if back == tr else ["parse_trace(serialize_trace(tr)) != tr"])
        p.counts["engine.flips"] += rep.flip_count
        p.counts["engine.steps"] += rep.step_count
        p.counts["cli.trace_bytes"] += len(text.encode())
        p.counts["construction.cert_failed"] += len(failed)


def _direction(dx, dy):
    g = gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)


def general_position_set(rng, n, box):
    """n random integer points, no three collinear: a candidate joins
    only if its directions to the points already chosen are distinct."""
    pts = []
    while len(pts) < n:
        x, y = rng.randrange(box), rng.randrange(box)
        dirs = {_direction(x - a, y - b) for a, b in pts if (a, b) != (x, y)}
        if len(dirs) == len(pts):
            pts.append((x, y))
    return PointSet(pts)


def imbalance_problems(lines, hp):
    """A line through a collinear group that fires as the flip [c, d]
    has c-1 points on one side and n-d on the other, so the imbalances
    of all lines are, as a multiset, the values |n-d-c+1| of all flips.
    `lines` is what line_imbalances returned: (records, minimum)."""
    records, minimum = lines
    n = hp.n
    from_flips = sorted(abs(n - f.d - f.c + 1)
                        for ev in hp.events for f in ev.step.flips)
    from_lines = sorted(r.imbalance for r in records)
    problems = []
    if from_lines != from_flips:
        problems.append(f"{len(from_lines)} line imbalances disagree with "
                        f"{len(from_flips)} half-period flips")
    if minimum != from_flips[0]:
        problems.append(f"minimum imbalance {minimum}, flips give {from_flips[0]}")
    return problems


class Points:
    # Sizes keep one pass near 2 s, so that a run holds several passes.
    # The sequences and their verification are short next to the cubic
    # imbalance and link checks, so an untraced pass times them several
    # times, and one verify sample verifies both traces several times;
    # every repeat is checked like the first.
    construct_samples = 2
    verify_samples = 3
    verify_repeats = 3
    sizes = (40, 150)
    box = 10**6
    lattice = (10, 50)  # side, points drawn from it
    extra_roles = {"sequence_s": "construct", "imbalance_s": "imbalance",
                   "link_s": "link"}

    def __init__(self, seed, tmpdir):
        self.layers = {}
        rng = random.Random(seed)
        self.small, self.large = (general_position_set(rng, n, self.box)
                                  for n in self.sizes)
        side, count = self.lattice
        grid = [(x, y) for x in range(side) for y in range(side)]
        self.grid = PointSet(rng.sample(grid, count))
        self._replay = ()

    def run(self, p):
        first = None
        for _ in range(1 if p.traced else self.construct_samples):
            hps, traces, texts = self.sequences(p)
            if first is not None:
                p.outcome("sequence repeat", [] if (traces, texts) == first
                          else ["differs from the first"])
            first = traces, texts
        p.outcome("serialize", [f"{name} does not parse back" for
                                (name, tr), text in zip(traces.items(), texts)
                                if parse_trace(text) != tr])
        for _ in range(1 if p.traced else self.verify_samples):
            self.verify(p, traces)
        for tr in traces.values():
            p.counts["engine.flips"] += sum(len(s.flips) for s in tr.steps)
            p.counts["engine.steps"] += len(tr.steps)
        p.counts["cli.trace_bytes"] += sum(len(t.encode()) for t in texts)

        with p.span("imbalance"):
            small_lines, grid_lines = (self.timed(p, "geom.line_imbalances",
                                                  line_imbalances, ps)
                                       for ps in (self.small, self.grid))
        n = len(self.small)
        problems = imbalance_problems(small_lines, hps["small"])
        if len(small_lines[0]) != n * (n - 1) // 2:
            problems.append(f"{len(small_lines[0])} lines, not n(n-1)/2")
        p.outcome("imbalance small", problems)
        p.outcome("imbalance lattice", imbalance_problems(grid_lines, hps["lattice"]))
        p.counts["geom.lines"] += len(small_lines[0]) + len(grid_lines[0])

        with p.span("link"):
            general = self.timed(p, "geom.in_general_position",
                                 in_general_position, self.small)
            link = self.timed(p, "geom.deviation_imbalance_link",
                              deviation_imbalance_link, self.small)
        p.outcome("general position", [] if general else ["reported collinear"])
        p.outcome("link", [] if link else ["deviation-imbalance link violated"])

        for name, hp in hps.items():
            p.counts["geom.events"] += len(hp.events)
        for name in ("random", "lattice"):
            events = hps[name].events
            multi = sum(1 for ev in events if len(ev.step.flips) > 1)
            p.counts[f"geom.multi_flip_events.{name}"] += multi
            p.counts[f"geom.events.{name}"] += len(events)
        if p.traced:
            self._replay = [hps[name] for name in ("random", "lattice")]

    @staticmethod
    def timed(p, span, fn, *args):
        """One call in a span of its own, timed for its layer."""
        with p.span(span):
            return fn(*args)

    def sequences(self, p):
        with p.span("construct"):
            hps = {name: self.timed(p, "geom.circular_sequence",
                                    circular_sequence, ps)
                   for name, ps in (("small", self.small),
                                    ("random", self.large),
                                    ("lattice", self.grid))}
            traces = {name: self.timed(p, "engine.to_trace", hps[name].to_trace)
                      for name in ("random", "lattice")}
            texts = [self.timed(p, "cli.serialize_trace", serialize_trace, tr)
                     for tr in traces.values()]
        return hps, traces, texts

    def verify(self, p, traces):
        with p.span("verify"):
            reports = [{name: self.timed(p, "engine.verify", verify_trace, tr)
                        for name, tr in traces.items()}
                       for _ in range(self.verify_repeats)]
        for name, tr in traces.items():
            flips = sum(len(s.flips) for s in tr.steps)
            problems = trace_problems(reports[0][name], flips,
                                      min_deviation(tr), len(tr.steps),
                                      reversal=True)
            if any(r[name] != reports[0][name] for r in reports):
                problems.append("repeated verifies disagree")
            p.outcome(f"sequence {name}", problems)

    def extras(self, p):
        """Replay the half periods as HalfPeriod.to_trace does, through a
        traced sink, to see how the engine receives their flips."""
        for hp in self._replay:
            rec = TraceRecorder(CentredSequence(1, hp.initial), Window(0),
                                sink=p.sink(ListSink))
            p.watch(rec)
            for ev in hp.events:
                rec.emit_step(ev.step)
        self._replay = ()


class Search:
    cases = ((8, "single", False), (8, "multi", False), (9, "single", True))
    # Replaying the witnesses takes a fraction of a millisecond, so one
    # verify sample replays them this many times, and an untraced pass
    # takes several samples.
    verify_repeats = 3000
    verify_samples = 3
    extra_roles = {"search_s": "construct"}

    def __init__(self, seed, tmpdir):
        self.layers = {}

    def run(self, p):
        results = {}
        with p.span("construct"):
            for n, mode, force in self.cases:
                with p.span(f"oracle.search.{n}.{mode}"):
                    results[n, mode] = search_best_deviation(n, mode=mode,
                                                             force=force)
        for _ in range(1 if p.traced else self.verify_samples):
            self.verify(p, results)
        with p.span("serialize"), p.span("cli.serialize_trace"):
            texts = [serialize_trace(Trace(Window(0), identity_sequence(1, n),
                                           res.witness))
                     for (n, mode), res in results.items()]
        for res in results.values():
            p.counts["engine.flips"] += sum(len(s.flips) for s in res.witness)
            p.counts["engine.steps"] += len(res.witness)
            p.counts["oracle.states_explored"] += res.states_explored
        p.counts["cli.trace_bytes"] += sum(len(t.encode()) for t in texts)

    def verify(self, p, results):
        """Replay every witness; it must reach the reversal at the
        reported optimum."""
        with p.span("verify"), p.span("engine.verify"):
            reports = [{key: verify_stream(identity_sequence(1, key[0]),
                                           Window(0), res.witness)
                        for key, res in results.items()}
                       for _ in range(self.verify_repeats)]
        for (n, mode), res in results.items():
            flips = sum(len(s.flips) for s in res.witness)
            first = reports[0][n, mode]
            problems = trace_problems(first, flips, res.best_min_deviation,
                                      len(res.witness), reversal=True)
            if any(r[n, mode] != first for r in reports):
                problems.append("repeated replays disagree")
            p.outcome(f"search n={n} {mode}", problems)

    def extras(self, p):
        pass


WORKLOADS = {"step-file": StepFile, "step-memory": StepMemory,
             "points": Points, "search": Search}
SEEDED = {"points"}
