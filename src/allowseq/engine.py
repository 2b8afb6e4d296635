"""Flip-trace recording and independent verification.

A TraceRecorder holds the evolving sequence and emits flips, either one
step at a time (every flip of the step validated against the current
state and the window before any is applied) or as an adjacent block
swap, its one composite move.  A swap of blocks of sizes a and b is a*b
transpositions, but the recorder checks the one precondition that makes
them all valid (left block entirely below right block, region clear of
the window), applies the move as a single splice, and hands the sinks a
single BlockSwap step that stands for all of them.  It slices each block
out of the state once, tests the precondition on those two slices and
splices the same two back in swapped order, so a swap copies each block
once and changes nothing until every check has passed.  TraceRecorder.bug
is the one raise of a ConstructionBug, the recorder's and the
construction's alike, and names the annotation path open at the time.

A sub-step is recorded by reference: TraceRecorder.substep runs it in
full the first time, between a Define and an End marker, as a shape
confined to its span, and keeps the shape's argsort of starting values,
its net permutation of the span, its counts and its result.  A later
call under the same key and span whose values have the stored order
and signs is replayed: one O(span) check, one splice and one Replay
marker, instead of every move again.  Shapes live in their recorder.

Sinks decide what to keep.  A sink is handed the recorder's own step
objects, each after the recorder has applied it and counted its flips
and steps: on_step(step) takes a FlipStep, on_transpositions(swap) a
BlockSwap or a marker, and begin(initial, window) and
on_annotation(depth, label) are optional.  ListSink retains every step
and annotation for replay and serialization, FileSink streams them to a
text file, StatsSink keeps only aggregates.  The recorder always tracks
flip count and minimum deviation itself, so even a stats-only run
reports both.  Deviations are tracked doubled, as the integer
|c + d - (lo + hi)|, and become Fractions only where they are reported.

One-flip steps are shared immutable objects: FlipStep and BlockSwap
are `seqcore.Value`s, whose fields cannot be assigned.  single_step
hands out one FlipStep per distinct flip from a module cache, and
emit_flip, iter_trace_file and geom.circular_sequence pass on a
reference to it for each repeat instead of a new object.  The cache holds at most
_SINGLE_STEP_CAP steps and is cleared when full, which bounds its memory
whatever the trace.  iter_trace_file likewise parses each distinct step
line of a file once: a repeated `F`, `S` or `B` line yields the step its
first occurrence parsed to, from a per-file dict under the same cap.

verify_trace is deliberately independent of the recorder: it re-applies
steps with its own reversal code and re-derives validity, deviation and
the reversal check from scratch, holding only the current sequence.
The per-flip loop checks each flip once, reporting every violation it
finds as it goes; a transposition's run costs two reads and one
compare.  Three kinds of step meet a fast test first, which decides
them on every valid trace: a one-flip step, the common case, on a
direct path outside the loop, a block swap by a few integer compares
and its two block scans, each block sliced once, and a replay by one
read of its span in the order its shape stored.  A step that fails its
fast test goes to the per-flip loop, one flip at a time, so the report
is the same as if every flip had been checked there.

Trace file format (authoritative).  FileSink is its only writer and
iter_trace_file its only reader:

    ALLOWSEQ v3
    t=<int> lo=<int> hi=<int>
    <initial values, space separated>
    # <depth> begin <label>        (annotation lines, optional)
    F <c> <d>                      (single flip)
    S <c1> <d1> <c2> <d2> ...      (disjoint multi-flip step)
    B <lo> <a> <b>                 (block swap, a*b one-flip steps)
    D <id> <lo> <hi>               (shape id begins: its first run)
    E <id>                         (shape id ends)
    R <id>                         (shape id again: its body, replayed)
    # <depth> end <label>

Steps appear in application order.  A `B` line swaps the adjacent
blocks [lo, lo+a-1] and [lo+a, lo+a+b-1], a, b >= 1, and inside the
domain.  It stands for a*b one-flip steps in canonical order: each
element of the right block in turn, leftmost first, bubbles leftward
past the whole left block, the rightmost transposition first, so
`B 3 2 1` is `F 4 5`, `F 3 4`.  Verification counts those steps and
flips and reports a violation by its index among them, exactly as for
the `F` lines they stand for.

The lines between `D <id> <lo> <hi>` and `E <id>` are the body of shape
id: the first run of a sub-step confined to positions [lo, hi], inside
the domain and inside the span of any shape open around it.  Every
entry of the body lies in [lo, hi]: a flip or block swap by the cells
it moves, a nested `D` or an `R` by its shape's span.  Ids are never
reused, an `E` closes the innermost open shape, every shape is closed
by the end of the file, and an annotation scope opens and closes on
the same side of a shape's `D` and `E`.  `R <id>` names a shape closed
earlier and stands for its body at this place, markers dropped and
every `R` inside expanded in turn, annotation depths shifted by the
scopes open at the `R` less those open at the `D`.  That expansion of
a v3 file, with `D` and `E` dropped and the magic set to v2, is the v2
file of the same steps.  A shape's span holds the same cells at every
replay.

Replaying a shape is sound after one check of its span's order.  A
move's validity depends only on its positions, the window, and the
relative order of the values it covers: a flip needs an increasing run
and a midpoint outside the window, a block swap its left block below
its right.  So a body whose every entry lies in [lo, hi] gives the
same verdict on every move, and the same net permutation of the span,
whenever the span holds values in the same relative order as at its
`D`.  The verifier stores, at `E`, the span's starting values in
ascending order of value as an argsort, and at `R` it reads the span's
current values in that order: they are strictly increasing exactly
when the span is order-isomorphic to the shape's start.

The one reader accepts the magics `ALLOWSEQ v1` (no `B`, `D`, `E` or
`R` lines), `ALLOWSEQ v2` (no `D`, `E` or `R` lines) and `ALLOWSEQ v3`;
FileSink writes v3.

Every annotation scope, empty or not, is written where it opens and
where it closes; depth counts the scopes open around it, the outermost
being 1.  An annotation's index in Trace.annotations counts trace
entries, a BlockSwap or a marker being one entry.  Files that FileSink
writes parse and serialize back byte for byte.  Other valid files parse
to the same steps, but need not come back byte for byte: v1 and v2
files come back as v3, `S 1 2` comes back as `F 1 2`, and the flips of
an `S` line come back sorted.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConstructionBug, ContractError, RangeError
from .seqcore import CentredSequence, Flip, Value, Window, init_field

INF = float("inf")

MAGIC = "ALLOWSEQ v3"
MAGIC_V2 = "ALLOWSEQ v2"  # read, never written: the format before shapes
MAGIC_V1 = "ALLOWSEQ v1"  # read, never written: the format before `B` lines


class TraceParseError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class FlipStep(Value):
    """One or more pairwise disjoint flips applied simultaneously."""

    __slots__ = ("flips",)

    def __init__(self, flips: Iterable[Flip]):
        fs = tuple(flips)
        if len(fs) > 1:
            fs = tuple(sorted(fs, key=lambda f: f.c))
            for a, b in zip(fs, fs[1:]):
                if a.d >= b.c:
                    raise ContractError(f"flips [{a.c},{a.d}] and [{b.c},{b.d}] overlap")
        elif not fs:
            raise ContractError("a step needs at least one flip")
        init_field(self, "flips", fs)

    def min_dev2(self, centre2: int) -> int:
        """Least doubled |midpoint - centre| over the step's flips."""
        return min(abs(f.c + f.d - centre2) for f in self.flips)


class BlockSwap(Value):
    """The a*b adjacent transpositions that exchange the blocks
    [lo, lo+a-1] and [lo+a, lo+a+b-1], one trace step standing for a*b
    one-flip steps.

    Iterating yields them as (c, c+1) in canonical order: each element of
    the right block in turn, leftmost first, bubbles leftward past the
    whole left block, the rightmost transposition first.
    """

    __slots__ = ("lo", "a", "b")

    def __init__(self, lo: int, a: int, b: int):
        if a < 1 or b < 1:
            raise ContractError(f"block swap sizes {a}, {b} must both be >= 1")
        init_field(self, "lo", lo)
        init_field(self, "a", a)
        init_field(self, "b", b)

    def __iter__(self) -> Iterator[tuple]:
        lo, a = self.lo, self.a
        for j in range(self.b):
            for i in range(lo + a + j, lo + j, -1):
                yield (i - 1, i)

    def min_dev2(self, centre2: int) -> int:
        """Least doubled |midpoint - centre| over the transpositions.

        Their doubled midpoints are the odd 2i+1 for i in [lo, lo+a+b-2].
        """
        first, last = 2 * self.lo + 1, 2 * (self.lo + self.a + self.b) - 3
        if centre2 <= first:
            return first - centre2
        if centre2 >= last:
            return centre2 - last
        return 0 if centre2 % 2 else 1


class Define(Value):
    """`D <id> <lo> <hi>`: the entries up to `End(id)` are the first run
    of shape id, confined to positions [lo, hi]."""

    __slots__ = ("id", "lo", "hi")


class End(Value):
    """`E <id>`: the end of shape id's first run."""

    __slots__ = ("id",)


class Replay(Value):
    """`R <id>`: shape id's body again, at the same positions."""

    __slots__ = ("id",)


def _unfold(steps: Iterable, bodies=None) -> Iterator:
    """The entries with every Replay replaced by its shape's body, in
    turn unfolded, and Define and End dropped; BlockSwaps stay.  Raises
    ContractError on a Replay of a shape not closed before it, or an End
    that does not close the innermost open shape."""
    bodies = {} if bodies is None else bodies  # id -> its body's entries
    kept = []  # the entries inside shapes
    opened = []  # (id, index in kept where its body starts)
    for step in steps:
        cls = step.__class__
        if opened:
            kept.append(step)
        if cls is Define:
            opened.append((step.id, len(kept)))
        elif cls is End:
            if not opened or opened[-1][0] != step.id:
                raise ContractError(f"shape {step.id} ends but is not the "
                                    f"innermost open one")
            bodies[step.id] = kept[opened.pop()[1]:-1]
        elif cls is Replay:
            if step.id not in bodies:
                raise ContractError(f"replay of unknown shape {step.id}")
            yield from _unfold(bodies[step.id], bodies)
        else:
            yield step


def expand_steps(steps: Iterable) -> Iterator[FlipStep]:
    """The steps as trace format v1 holds them: every Replay replaced by
    its shape's body, Define and End dropped, and every BlockSwap
    replaced by its transpositions, each a one-flip step, in canonical
    order."""
    for step in _unfold(steps):
        if step.__class__ is BlockSwap:
            for c, d in step:
                yield single_step(c, d)
        else:
            yield step


def expanded_length(steps: Iterable) -> int:
    """How many steps expand_steps yields, counted without expanding: a
    BlockSwap counts a*b, a Replay what its shape's body counts."""
    total = 0
    counts = {}  # id of each closed shape -> the steps of its body
    opened = []  # (id, total at its Define)
    for step in steps:
        cls = step.__class__
        if cls is BlockSwap:
            total += step.a * step.b
        elif cls is Define:
            opened.append((step.id, total))
        elif cls is End:
            if not opened or opened[-1][0] != step.id:
                raise ContractError(f"shape {step.id} ends but is not the "
                                    f"innermost open one")
            counts[step.id] = total - opened.pop()[1]
        elif cls is Replay:
            if step.id not in counts:
                raise ContractError(f"replay of unknown shape {step.id}")
            total += counts[step.id]
        else:
            total += 1
    return total


_SINGLE_STEP_CAP = 1 << 14
_single_steps = {}  # (c, d) -> the shared FlipStep of that one flip


def single_step(c: int, d: int) -> FlipStep:
    """The one-flip step [c, d].  Equal calls return the same object while
    it stays in the cache; a FlipStep is an immutable Value, so sharing
    it is safe."""
    step = _single_steps.get((c, d))
    if step is None:
        if len(_single_steps) >= _SINGLE_STEP_CAP:
            _single_steps.clear()
        step = _single_steps[c, d] = FlipStep((Flip(c, d),))
    return step


class Trace(Value):
    """A finished, immutable flip trace: the flips of `steps` applied to
    the `initial` CentredSequence under the `window`.

    `steps` holds FlipSteps, BlockSwaps and the shape markers Define,
    End and Replay in application order, one entry per trace file line.
    `annotations` holds the annotation events in the order they were
    emitted, each as (index, depth, "begin <label>" or "end <label>"):
    the event came after the first `index` entries of `steps`.
    """

    __slots__ = ("window", "initial", "steps", "annotations")
    _defaults = {"annotations": ()}


class ListSink:
    """Retains every step and annotation event; supports conversion to a
    Trace.  It keeps each step object it is handed, a BlockSwap or a
    marker as one entry, so a shared one-flip step costs one list
    reference."""

    def __init__(self):
        self.steps = []
        self.annotations = []

    def on_step(self, step):
        self.steps.append(step)

    on_transpositions = on_step

    def on_annotation(self, depth, label):
        self.annotations.append((len(self.steps), depth, label))


class StatsSink:
    """Keeps nothing; the recorder's own aggregates are the record."""

    def on_step(self, step):
        pass

    on_transpositions = on_step


class FileSink:
    """The trace file writer.  Streams a whole trace file to an open text
    handle: the header as soon as the recorder announces its initial
    state, then step and annotation lines as they happen.  A FlipStep
    becomes an `F` or `S` line, a BlockSwap one `B` line and a marker its
    `D`, `E` or `R` line."""

    def __init__(self, fh):
        self.fh = fh

    def begin(self, initial, window):
        self.fh.write(MAGIC + "\n")
        self.fh.write(f"t={window.t} lo={initial.lo} hi={initial.hi}\n")
        self.fh.write(" ".join(str(v) for v in initial.values) + "\n")

    def on_step(self, step):
        flips = step.flips
        if len(flips) == 1:
            f = flips[0]
            self.fh.write(f"F {f.c} {f.d}\n")
        else:
            parts = " ".join(f"{f.c} {f.d}" for f in flips)
            self.fh.write(f"S {parts}\n")

    def on_transpositions(self, pairs):
        """Write a BlockSwap as one `B` line, a marker as its line, and
        any other iterable of (c, c+1), such as a swap a wrapping sink has
        partly consumed, as `F` lines."""
        cls = pairs.__class__
        if cls is BlockSwap:
            self.fh.write(f"B {pairs.lo} {pairs.a} {pairs.b}\n")
            return
        if cls is Replay:
            self.fh.write(f"R {pairs.id}\n")
            return
        if cls is Define:
            self.fh.write(f"D {pairs.id} {pairs.lo} {pairs.hi}\n")
            return
        if cls is End:
            self.fh.write(f"E {pairs.id}\n")
            return
        write = self.fh.write
        for c, d in pairs:
            write(f"F {c} {d}\n")

    def on_annotation(self, depth, label):
        self.fh.write(f"# {depth} {label}\n")


_LINE_SHAPES = {"F": "F <c> <d>", "S": "S <c1> <d1> <c2> <d2> ...",
                "B": "B <lo> <a> <b>", "D": "D <id> <lo> <hi>",
                "E": "E <id>", "R": "R <id>",
                "#": "# <depth> begin|end <label>"}
_LINE_KINDS = {MAGIC: set(_LINE_SHAPES), MAGIC_V2: {"F", "S", "B", "#"},
               MAGIC_V1: {"F", "S", "#"}}


def iter_trace_file(fh, on_annotation=None):
    """The trace file reader: ((window, initial), steps) from an open text
    handle of format v1, v2 or v3.

    The header is parsed at once; `steps` yields a FlipStep for each `F`
    or `S` line, a BlockSwap for each `B` line and a Define, End or
    Replay for each `D`, `E` or `R` line, in file order.  A `B` line must
    lie inside the domain [lo, hi]; only v2 and v3 files hold them, and
    only v3 files the shape lines.  Shapes must nest as the format
    section says: a `D` span inside the domain and inside the shape open
    around it, each body entry inside its shape's span, no id defined
    twice, an `E` closing the innermost open shape, an `R` naming a
    closed one, every shape closed by the end of the file and no
    annotation scope crossing a `D` or an `E`.  Annotations must nest: a
    `begin` sits one deeper than the scopes open around it, an `end`
    closes the innermost open scope, and every scope is closed by the end
    of the file.  Each one is checked and, if `on_annotation` is given,
    passed to it as (depth, "begin <label>" or "end <label>") before the
    next step is yielded.  Anything else raises TraceParseError naming
    the offending line.  A step or `R` line whose text parsed before in
    this file yields the entry parsed then, found by one lookup; only
    lines that passed every check are kept, so a refused line is refused
    where it stands.  Annotation, `D` and `E` lines are checked at each
    occurrence, and inside a shape every entry is checked against its
    span.
    """
    lineno = 0

    def readline():
        nonlocal lineno
        lineno += 1
        return fh.readline().rstrip("\n")

    magic = readline()
    kinds = _LINE_KINDS.get(magic)
    if kinds is None:
        raise TraceParseError(lineno, f"bad magic {magic!r}")
    fields = [p.split("=", 1) for p in readline().split()]
    try:
        kv = dict(fields)
        if len(fields) != 3 or kv.keys() != {"t", "lo", "hi"}:
            raise ValueError
        t, lo, hi = int(kv["t"]), int(kv["lo"]), int(kv["hi"])
    except ValueError:
        raise TraceParseError(lineno, "expected 't=<int> lo=<int> hi=<int>'")
    if hi < lo:
        raise TraceParseError(lineno, f"hi={hi} below lo={lo}")
    try:
        vals = list(map(int, readline().split()))
    except ValueError:
        raise TraceParseError(lineno, "initial values must be integers")
    if len(vals) != hi - lo + 1:
        raise TraceParseError(lineno, f"expected {hi - lo + 1} values, "
                                      f"got {len(vals)}")
    try:
        header = (Window(t), CentredSequence(lo, vals))
    except ContractError as exc:
        raise TraceParseError(lineno, str(exc))

    def steps():
        scopes = []  # (depth, label, line number) of each open annotation
        parsed = {}  # text of a step line that parsed -> its step
        spans = {}  # id of each closed shape -> its span (lo, hi)
        opened = []  # (id, lo, hi, open scopes, line number) per open shape

        def inside(step, lineno):
            """Refuse an entry of the innermost open shape that moves a
            position outside its span: a flip step by its flips, which it
            holds sorted and disjoint, a block swap by its blocks, a
            replay by its shape's span."""
            if step.__class__ is BlockSwap:
                first, last = step.lo, step.lo + step.a + step.b - 1
            elif step.__class__ is Replay:
                first, last = spans[step.id]
            else:
                first, last = step.flips[0].c, step.flips[-1].d
            sid, at, to = opened[-1][:3]
            if first < at or last > to:
                raise TraceParseError(
                    lineno, f"entry over [{first}, {last}] outside the span "
                            f"[{at}, {to}] of shape {sid}")

        for lineno, line in enumerate(fh, 4):
            step = parsed.get(line)
            if step is not None:
                if opened:
                    inside(step, lineno)
                yield step
                continue
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind not in kinds:
                raise TraceParseError(lineno, f"unknown line kind {kind!r} "
                                              f"in {magic}"
                                      if kind else "blank line inside trace")
            try:
                if kind == "F":
                    c, d = rest.split()
                    step = single_step(int(c), int(d))
                elif kind == "S":
                    nums = list(map(int, rest.split()))
                    if not nums or len(nums) % 2:
                        raise ValueError
                    step = FlipStep([Flip(nums[i], nums[i + 1])
                                     for i in range(0, len(nums), 2)])
                elif kind == "B":
                    at, a, b = map(int, rest.split())
                    step = BlockSwap(at, a, b)
                    if at < lo or at + a + b - 1 > hi:
                        raise TraceParseError(
                            lineno, f"block swap over [{at}, {at + a + b - 1}]"
                                    f" outside [{lo}, {hi}]")
                elif kind == "R":
                    step = Replay(int(rest))
                    if step.id not in spans:
                        raise TraceParseError(
                            lineno, f"replay of unknown shape {step.id}")
                elif kind == "D":
                    sid, at, to = map(int, rest.split())
                    if sid in spans or any(o[0] == sid for o in opened):
                        raise TraceParseError(
                            lineno, f"shape {sid} is defined twice")
                    outer = opened[-1][1:3] if opened else (lo, hi)
                    if not outer[0] <= at <= to <= outer[1]:
                        raise TraceParseError(
                            lineno, f"shape span [{at}, {to}] outside "
                                    f"[{outer[0]}, {outer[1]}]")
                    opened.append((sid, at, to, len(scopes), lineno))
                    yield Define(sid, at, to)
                    continue
                elif kind == "E":
                    sid = int(rest)
                    if not opened or opened[-1][0] != sid:
                        raise TraceParseError(
                            lineno, f"'E {sid}' does not close the innermost "
                                    f"open shape")
                    if len(scopes) != opened[-1][3]:
                        raise TraceParseError(
                            lineno, f"an annotation scope crosses the end of "
                                    f"shape {sid}")
                    spans[sid] = opened.pop()[1:3]
                    yield End(sid)
                    continue
                else:
                    depth, _, label = rest.partition(" ")
                    depth = int(depth)
                    if label.startswith("begin "):
                        if depth != len(scopes) + 1:
                            raise TraceParseError(
                                lineno, f"'begin' at depth {depth} inside "
                                        f"{len(scopes)} open scopes")
                        scopes.append((depth, label[6:], lineno))
                    elif not label.startswith("end "):
                        raise ValueError
                    elif not scopes or scopes[-1][:2] != (depth, label[4:]):
                        raise TraceParseError(lineno,
                                              "unbalanced annotation nesting")
                    elif opened and len(scopes) == opened[-1][3]:
                        raise TraceParseError(
                            lineno, f"an annotation scope crosses the start "
                                    f"of shape {opened[-1][0]}")
                    else:
                        scopes.pop()
                    if on_annotation is not None:
                        on_annotation(depth, label)
                    continue
            except ContractError as exc:
                raise TraceParseError(lineno, str(exc))
            except ValueError:
                raise TraceParseError(lineno,
                                      f"expected '{_LINE_SHAPES[kind]}'")
            if opened:
                inside(step, lineno)
            if len(parsed) >= _SINGLE_STEP_CAP:
                parsed.clear()
            parsed[line] = step
            yield step
        if opened:
            raise TraceParseError(opened[-1][4],
                                  f"shape {opened[-1][0]} is never closed")
        if scopes:
            depth, label, lineno = scopes[-1]
            raise TraceParseError(lineno,
                                  f"annotation {label!r} is never closed")

    return header, steps()


def parse_trace(text: str) -> Trace:
    """The Trace a trace file's text holds, annotations included."""
    sink = ListSink()
    (window, initial), steps = iter_trace_file(io.StringIO(text),
                                               sink.on_annotation)
    for step in steps:
        sink.steps.append(step)
    return Trace(window, initial, tuple(sink.steps), tuple(sink.annotations))


def serialize_trace(tr: Trace) -> str:
    """The text of a Trace as FileSink writes it: the trace replayed into
    a FileSink."""
    out = io.StringIO()
    sink = FileSink(out)
    sink.begin(tr.initial, tr.window)
    done = 0
    for at, depth, label in tr.annotations + ((len(tr.steps), 0, None),):
        for step in tr.steps[done:at]:
            if step.__class__ is FlipStep:
                sink.on_step(step)
            else:
                sink.on_transpositions(step)
        done = at
        if label is not None:
            sink.on_annotation(depth, label)
    return out.getvalue()


class _Scope:
    """One annotation scope of a TraceRecorder, as annotate returns it."""

    __slots__ = ("rec", "label", "depth")

    def __init__(self, rec, label):
        self.rec = rec
        self.label = label

    def __enter__(self):
        rec = self.rec
        stack = rec._ann_stack
        stack.append(self.label)
        self.depth = len(stack)
        if rec._on_annotation is not None:
            rec._on_annotation(self.depth, "begin " + self.label)

    def __exit__(self, *exc):
        rec = self.rec
        rec._ann_stack.pop()
        if rec._on_annotation is not None:
            rec._on_annotation(self.depth, "end " + self.label)


class TraceRecorder:
    """Single-writer trace builder over a mutable current state."""

    def __init__(self, initial: CentredSequence, window: Window, sink=None):
        self.initial = initial
        self.window = window
        self.lo = initial.lo
        self.hi = initial.hi
        self._vals = list(initial.values)
        self._centre2 = initial.lo + initial.hi
        self.sink = ListSink() if sink is None else sink
        self._on_annotation = getattr(self.sink, "on_annotation", None)
        if hasattr(self.sink, "begin"):
            self.sink.begin(initial, window)
        self.flip_count = 0
        self.step_count = 0
        self._min_dev2: Optional[int] = None  # doubled minimum deviation
        self._ann_stack = []
        # Entries and reads must lie in [_lo, _hi]: the domain, or the span
        # of the shape being recorded.
        self._lo, self._hi = self.lo, self.hi
        self._shapes = {}  # substep key -> the _Shapes recorded under it
        self._shape_count = 0

    # -- state access ------------------------------------------------

    @property
    def t(self) -> int:
        return self.window.t

    @property
    def min_deviation(self):
        """Least |flip midpoint - centre| so far, a Fraction; INF before
        any flip."""
        return INF if self._min_dev2 is None else Fraction(self._min_dev2, 2)

    def values(self, lo: int, hi: int) -> tuple:
        """Inclusive slice by positions; empty when lo > hi."""
        if lo > hi:
            return ()
        if not (self._lo <= lo and hi <= self._hi):
            self._outside(lo, hi)
        return tuple(self._vals[lo - self.lo : hi - self.lo + 1])

    def _outside(self, lo, hi):
        """Refuse [lo, hi], which leaves the bounds: a RangeError when it
        leaves the domain, else a ConstructionBug, since it leaves the span
        of the shape being recorded."""
        if lo < self.lo or hi > self.hi:
            raise RangeError(f"interval [{lo}, {hi}] outside [{self.lo}, {self.hi}]")
        self.bug(f"interval [{lo}, {hi}] outside the span [{self._lo}, "
                 f"{self._hi}] of the shape being recorded")

    def to_trace(self) -> Trace:
        if not isinstance(self.sink, ListSink):
            raise ContractError("only ListSink recorders can produce a Trace")
        return Trace(self.window, self.initial, tuple(self.sink.steps),
                     tuple(self.sink.annotations))

    # -- annotation stack ----------------------------------------------

    def annotate(self, label: str) -> _Scope:
        """A scope for `with`: entering it opens the label one deeper than
        the scopes already open (the outermost at depth 1) and hands the
        sink `begin <label>`; leaving it closes the label and hands the
        sink `end <label>`, also when the body raised, and lets the
        exception through."""
        return _Scope(self, label)

    def bug(self, message, flip=None):
        """Raise a ConstructionBug naming the open annotation path."""
        raise ConstructionBug(message, self._ann_stack, flip)

    # -- primitive emission --------------------------------------------

    def _track(self, dev2: int, flips: int, steps: int):
        """Count flips and steps; dev2 is their least doubled deviation."""
        if self._min_dev2 is None or dev2 < self._min_dev2:
            self._min_dev2 = dev2
        self.flip_count += flips
        self.step_count += steps

    def emit_flip(self, c: int, d: int):
        """Validate and apply a single flip as its own step."""
        self.emit_step(single_step(c, d))

    def emit_step(self, step: FlipStep):
        """Validate every flip of one step against the current state, then
        apply them all and hand the sink the step itself.  The flips must
        be pairwise disjoint and come in order of c, as FlipStep holds
        them; a step that fails validation leaves the recorder untouched."""
        base, vals, t2 = self.lo, self._vals, 2 * self.window.t
        lo, hi = self._lo, self._hi
        flips = step.flips
        prev_d = lo - 1
        for f in flips:
            c, d = f.c, f.d
            if not (lo <= c <= d <= hi):
                self.bug(f"flip [{c}, {d}] out of bounds"
                         if c < base or d > self.hi else
                         f"flip [{c}, {d}] outside the span [{lo}, {hi}] "
                         f"of the shape being recorded", (c, d))
            if c <= prev_d:
                self.bug(f"flip [{c}, {d}] overlaps or precedes the flip "
                         f"before it", (c, d))
            prev_d = d
            # The values stay injective, so a run is strictly increasing
            # exactly when it equals its sorted copy.
            run = vals[c - base : d - base + 1]
            if run != sorted(run):
                self.bug(f"flip [{c}, {d}] is not an increasing run", (c, d))
            if abs(c + d) <= t2:
                self.bug(f"flip [{c}, {d}] has midpoint inside the window",
                         (c, d))
        for f in flips:
            i, j = f.c - base, f.d - base + 1
            vals[i:j] = vals[i:j][::-1]
        self._track(step.min_dev2(self._centre2), len(flips), 1)
        self.sink.on_step(step)

    # -- block swaps -------------------------------------------------------

    def swap_adjacent_blocks(self, left: tuple, right: tuple):
        """Exchange two adjacent blocks, left values all below right values,
        as a*b transpositions recorded as one BlockSwap.

        Intervals are inclusive (lo, hi); an empty side is a no-op.
        """
        llo, lhi = left
        rlo, rhi = right
        a = lhi - llo + 1
        b = rhi - rlo + 1
        if a <= 0 or b <= 0:
            return
        if lhi + 1 != rlo:
            self.bug(f"blocks [{llo},{lhi}] and [{rlo},{rhi}] are not adjacent")
        # values()'s bounds check, left block first; adjacent to it, the
        # right block can only run out past hi.
        if llo < self._lo or lhi > self._hi:
            self._outside(llo, lhi)
        if rhi > self._hi:
            self._outside(rlo, rhi)
        vals, lo = self._vals, self.lo
        i, j, k = llo - lo, rlo - lo, rhi - lo + 1
        lv, rv = vals[i:j], vals[j:k]
        if max(lv) >= min(rv):
            self.bug(f"cannot swap: [{llo},{lhi}] does not precede [{rlo},{rhi}]")
        # Every transposition (i, i+1) in [llo, rhi] clears the window iff
        # its midpoint i + 1/2 lies outside [-t, t], which fails exactly
        # for i in [-t, t-1]; at t = 0 that range is empty.
        t = self.window.t
        if t > 0 and not (rhi - 1 < -t or llo > t - 1):
            self.bug(f"swap over [{llo},{rhi}] would cross the window")
        vals[i:k] = rv + lv
        swap = BlockSwap(llo, a, b)
        self._track(swap.min_dev2(self._centre2), a * b, a * b)
        self.sink.on_transpositions(swap)

    def sort_region_decreasing(self, region: tuple):
        """Sort region into strictly decreasing order by repeatedly flipping
        maximal increasing runs.  Each flip is validated individually."""
        rlo, rhi = region
        if rlo >= rhi:
            return
        while True:
            vals = self.values(rlo, rhi)
            runs = []
            start = 0
            n = len(vals)
            for i in range(1, n + 1):
                if i == n or vals[i] < vals[i - 1]:
                    if i - start >= 2:
                        runs.append((rlo + start, rlo + i - 1))
                    start = i
            if not runs:
                return
            for c, d in runs:
                self.emit_flip(c, d)

    def rearrange_region(self, region: tuple, target: Sequence[int]):
        """Reorder region into the given value sequence using rightward
        element journeys (every crossed element must exceed the mover)."""
        rlo, rhi = region
        cur = self.values(rlo, rhi)
        if sorted(cur) != sorted(target):
            self.bug("rearrange target is not a permutation of the region")
        # Work right-to-left: place the rightmost outstanding target value by
        # bubbling it right; everything it crosses is target-left of it.
        # Unplaced values keep their order, so a value's index is rlo plus
        # a prefix count of unplaced values in a Fenwick tree over indices.
        start = {v: i for i, v in enumerate(cur, start=1)}
        tree = [i & -i for i in range(len(cur) + 1)]
        for placed, v in enumerate(reversed(target)):
            idx, i = rlo, start[v] - 1
            while i:
                idx, i = idx + tree[i], i & (i - 1)
            self.swap_adjacent_blocks((idx, idx), (idx + 1, rhi - placed))
            i = start[v]
            while i < len(tree):
                tree[i] -= 1
                i += i & -i

    # -- sub-steps by reference ----------------------------------------------

    def substep(self, key, lo: int, hi: int, run):
        """The result of run(), a sub-step confined to positions [lo, hi],
        with its entries recorded once per shape.

        Every shape recorded under `key` is tried in turn: the span's
        current values, read in the order that sorts the shape's starting
        values, must be strictly increasing, and each must have the sign
        its starting value had.  The first shape that passes is replayed:
        its net permutation is applied to the span, its flips, steps and
        least doubled deviation are counted, the sink is handed one
        Replay, and its stored result is returned.  So `key` must name
        everything besides the span's values on which run() depends, and
        run() may depend on those values only through their order and
        signs.  When no shape passes, run() runs in full between a Define
        and an End, as a new shape; while it runs, a read or entry outside
        [lo, hi] is a ConstructionBug.  Shapes live in this recorder
        only."""
        if not (self._lo <= lo <= hi <= self._hi):
            self._outside(lo, hi)
        vals = self._vals
        i, j = lo - self.lo, hi - self.lo + 1
        cur = vals[i:j]
        key = (key, lo, hi)
        for shape in self._shapes.get(key, ()):
            seq = list(map(cur.__getitem__, shape.order))
            if (seq == sorted(seq) and bisect_left(seq, 0) == shape.neg
                    and bisect_right(seq, 0) == shape.nonpos):
                vals[i:j] = map(cur.__getitem__, shape.perm)
                if shape.flips:
                    self._track(shape.dev2, shape.flips, shape.steps)
                self.sink.on_transpositions(shape.replay)
                return shape.result
        sid = self._shape_count
        self._shape_count += 1
        outer = self._lo, self._hi
        dev2, flips, steps = self._min_dev2, self.flip_count, self.step_count
        self.sink.on_transpositions(Define(sid, lo, hi))
        self._min_dev2 = None
        self._lo, self._hi = lo, hi
        try:
            result = run()
        finally:
            self._lo, self._hi = outer
        self.sink.on_transpositions(End(sid))
        shape = _Shape(sid, cur, vals[i:j], self.flip_count - flips,
                       self.step_count - steps, self._min_dev2, result)
        if dev2 is not None and (shape.dev2 is None or dev2 < shape.dev2):
            self._min_dev2 = dev2
        self._shapes.setdefault(key, []).append(shape)
        return result


class _Shape:
    """A recorded sub-step: how to recognise a span it applies to, what it
    does to the span, and what it counts and returns."""

    __slots__ = ("order", "neg", "nonpos", "perm", "flips", "steps", "dev2",
                 "result", "replay")

    def __init__(self, sid, start, end, flips, steps, dev2, result):
        # The argsort of the starting values, and how many were < 0, <= 0.
        self.order = sorted(range(len(start)), key=start.__getitem__)
        ordered = sorted(start)
        self.neg = bisect_left(ordered, 0)
        self.nonpos = bisect_right(ordered, 0)
        # Position p of the span ends holding the value that began at
        # perm[p].
        index = {v: p for p, v in enumerate(start)}
        self.perm = [index[v] for v in end]
        self.flips, self.steps, self.dev2 = flips, steps, dev2
        self.result = result
        self.replay = Replay(sid)


# -- independent verification ------------------------------------------


class VerificationReport(Value):
    """What `verify_stream` found.  `min_deviation` is a Fraction, or inf
    when there are no flips; `first_violation` is (step index, (c, d),
    reason), or None."""

    __slots__ = ("allowable", "all_valid", "reaches_reversal",
                 "min_deviation", "step_count", "flip_count",
                 "first_violation")
    _defaults = {"first_violation": None}


def _kept(steps, kept):
    """The steps, each also appended to kept."""
    append = kept.append
    for step in steps:
        append(step)
        yield step


def verify_stream(initial: CentredSequence, window: Window,
                  steps: Iterable) -> VerificationReport:
    """Replay FlipSteps, BlockSwaps and shape markers from scratch and
    report what actually holds.

    A step's flips are checked in the order it holds them, which FlipStep
    keeps sorted by c; flips that overlap or come out of that order are
    reported as a violation.  Violations are reported, never raised.

    Each flip [c, d] is checked once, in one pass that reports every
    violation it has, in this order: c and d inside the bounds, c after
    the previous flip of its step, an increasing run, and a midpoint
    outside the window, whose failure clears all_valid but not
    allowable.  The bounds are the domain, or inside a shape its span.
    For d = c + 1 the run test is one compare of the two values, which
    are then swapped in place.  A flip inside the bounds is applied and
    its deviation taken, whatever else it violates; a flip out of them
    counts as a flip but is not applied and not taken toward the minimum
    deviation.

    A step of one flip takes the same test on a direct path, with no
    per-flip loop: lo <= c (no previous flip), d <= hi, c + d outside
    [-2t, 2t], and the run.  A step it passes is applied and counted
    there.  A step it fails changes nothing on that path and goes on, as
    if it had never been tried, to the per-flip loop, which fails the
    same test and reports the step, so every report, first violation
    included, is the one the per-flip loop alone gives.  The least
    doubled deviation starts at hi - lo + 2, above any deviation a flip
    inside the domain can have, and reads INF if it is still there at
    the end.

    Memory stays O(sequence length) on a trace without shapes: one pass,
    one working copy of the state.  Nothing is cached per step object, so
    a shared step is checked afresh against the state at each place it
    occurs.

    A BlockSwap counts as the a*b one-flip steps it stands for.  Its
    transpositions (p, p+1) have p in [at, last], at = step.lo and
    last = at + a + b - 2, and bounds and window are decided on these
    integers first: the swap lies inside the bounds, and it clears the
    window when t = 0, at >= t or last < -t.  Then each block is sliced
    once, max(left) < min(right) tests that every left value lies below
    every right value, and right + left is spliced back.  The midpoint
    nearest the centre is that of the transposition at the centre, its p
    clamped to [at, last].  A swap that fails any of these checks is
    replayed one transposition at a time by the per-flip code, so the
    report, first violation included, is the one its one-flip steps give.

    Shapes trust nothing of the recorder's: each is derived from the body
    this pass has just verified.  A Define keeps the span's values and
    narrows the bounds to its span, so a body entry outside it is
    reported.  Its End stores the argsort of those starting values, the
    net permutation of the span, the steps, flips and least doubled
    deviation of the body, and the body's entries.  A Replay reads the
    span's values in the stored argsort order; when they are strictly
    increasing, the span is order-isomorphic to the shape's start, so
    every move of the body gets the verdict it got there (see the module
    docstring), and the shape is applied in O(span): the permutation and
    the counts.  Otherwise the body's entries, Define and End dropped,
    are verified in its place one at a time, so every report, first
    violation included, is the one the expansion gives.  A Define that
    reuses an id or leaves the bounds, an End that does not close the
    innermost open shape, a Replay of a shape not closed before it, and
    a shape never closed are reported with flip None.  No shape table
    exists until the first Define, and a body's entries are kept only
    while a shape is open, by a wrapper of the step iterator that is
    dropped when the outermost shape closes.  The FlipStep path meets
    one class test per step, as before shapes.

    A run is strictly increasing exactly when it equals its sorted copy,
    and two values are when the first is below the second:
    CentredSequence is injective and each flip only reverses a slice, so
    the working copy never holds two equal values.
    """
    base, top = initial.lo, initial.hi  # the domain
    lo, hi = base, top  # the bounds: the domain or the innermost shape's span
    vals = list(initial.values)
    centre2 = base + top
    near = (centre2 - 1) // 2  # the p whose 2p + 1 lies nearest centre2
    t = window.t
    t2 = 2 * t
    allowable = True
    all_valid = True
    first_violation = None
    # Doubled, as in the recorder.  In the domain, dev2 <= top - base.
    none_dev2 = top - base + 2
    min_dev2 = none_dev2
    steps_n = 0  # one-flip steps counted; steps_n - 1 indexes the current one
    flips_n = 0
    shapes = None  # id -> (lo, hi, argsort, permutation, steps, flips,
    #                       least dev2, body) of each closed shape
    opened = None  # what each open shape's End needs, innermost last

    def violate(idx, flip, reason):
        nonlocal allowable, all_valid, first_violation
        allowable = False
        all_valid = False
        if first_violation is None:
            first_violation = (idx, flip, reason)

    pending = iter(steps)
    while pending is not None:
        steps, pending = pending, None
        for step in steps:
            if step.__class__ is not FlipStep:
                cls = step.__class__
                if cls is BlockSwap:
                    at, a, b = step.lo, step.a, step.b
                    last = at + a + b - 2  # the last transposition's c
                    # A transposition (p, p+1) has its midpoint in [-t, t]
                    # exactly when -t <= p <= t-1, so [at, last] clears the
                    # window when t = 0 or it lies wholly on one side.
                    if (lo <= at and last < hi
                            and (t == 0 or at >= t or last < -t)):
                        i = at - base
                        j = i + a
                        k = j + b
                        left, right = vals[i:j], vals[j:k]
                        if max(left) < min(right):
                            vals[i:k] = right + left
                            # the doubled midpoint 2p+1 nearest the centre
                            p = near
                            if p < at:
                                p = at
                            elif p > last:
                                p = last
                            dev2 = abs(2 * p + 1 - centre2)
                            if dev2 < min_dev2:
                                min_dev2 = dev2
                            steps_n += a * b
                            flips_n += a * b
                            continue
                    pending = chain(expand_steps((step,)), steps)
                    break
                if cls is Replay:
                    shape = shapes.get(step.id) if shapes else None
                    if shape is None:
                        violate(steps_n, None,
                                f"replay of unknown shape {step.id}")
                        continue
                    slo, shi, order, perm, s_n, f_n, dev2, body = shape
                    i, j = slo - base, shi - base + 1
                    cur = vals[i:j]
                    seq = list(map(cur.__getitem__, order))
                    if lo <= slo and shi <= hi and seq == sorted(seq):
                        vals[i:j] = map(cur.__getitem__, perm)
                        steps_n += s_n
                        flips_n += f_n
                        if dev2 < min_dev2:
                            min_dev2 = dev2
                        continue
                    pending = chain((s for s in body if s.__class__ is not
                                     Define and s.__class__ is not End),
                                    steps)
                    break
                if cls is Define:
                    if shapes is None:
                        shapes, opened = {}, []
                    sid, slo, shi = step.id, step.lo, step.hi
                    if sid in shapes or any(o[0] == sid for o in opened):
                        violate(steps_n, None, f"shape {sid} is defined twice")
                    if not lo <= slo <= shi <= hi:
                        violate(steps_n, None, f"shape span [{slo}, {shi}] "
                                               f"outside [{lo}, {hi}]")
                        slo, shi = max(slo, lo), min(shi, hi)
                    if not opened:
                        kept = []
                    opened.append((sid, vals[slo - base:shi - base + 1],
                                   steps_n, flips_n, min_dev2, lo, hi,
                                   len(kept)))
                    lo, hi, min_dev2 = slo, shi, none_dev2
                    if len(opened) == 1:
                        outside = steps  # resumed when the shape closes
                        pending = _kept(steps, kept)
                        break
                    continue
                if cls is End:
                    if not opened or opened[-1][0] != step.id:
                        violate(steps_n, None, f"shape {step.id} ends but is "
                                               f"not the innermost open one")
                        if not opened:
                            continue
                    sid, start, s0, f0, m0, olo, ohi, at = opened.pop()
                    index = {v: p for p, v in enumerate(start)}
                    order = sorted(range(len(start)), key=start.__getitem__)
                    shapes[sid] = (
                        lo, hi, order,
                        [index[v] for v in vals[lo - base:hi - base + 1]],
                        steps_n - s0, flips_n - f0, min_dev2, kept[at:-1])
                    lo, hi = olo, ohi
                    if m0 < min_dev2:
                        min_dev2 = m0
                    if not opened:
                        pending = outside
                        break
                    continue
            flips = step.flips
            if len(flips) == 1:
                f = flips[0]
                c = f.c
                d = f.d
                s = c + d
                if lo <= c and d <= hi and (s > t2 or s < -t2):
                    i = c - base
                    if d == c + 1:
                        x, y = vals[i], vals[i + 1]
                        ok = x < y
                        if ok:
                            vals[i], vals[i + 1] = y, x
                    else:
                        j = d - base + 1
                        run = vals[i:j]
                        ok = run == sorted(run)
                        if ok:
                            run.reverse()
                            vals[i:j] = run
                    if ok:
                        steps_n += 1
                        flips_n += 1
                        dev2 = abs(s - centre2)
                        if dev2 < min_dev2:
                            min_dev2 = dev2
                        continue
            steps_n += 1
            flips_n += len(flips)
            prev_d = lo - 1
            for f in flips:
                c, d = f.c, f.d
                if not (lo <= c <= d <= hi):
                    violate(steps_n - 1, (c, d),
                            "out of bounds" if c < base or d > top
                            else "outside the span of its shape")
                    continue
                if c <= prev_d:
                    violate(steps_n - 1, (c, d),
                            "overlapping flips in one step")
                prev_d = d
                i = c - base
                if d == c + 1:
                    x, y = vals[i], vals[i + 1]
                    ok = x < y
                    vals[i], vals[i + 1] = y, x
                else:
                    j = d - base + 1
                    run = vals[i:j]
                    ok = run == sorted(run)
                    run.reverse()
                    vals[i:j] = run
                if not ok:
                    violate(steps_n - 1, (c, d), "run not strictly increasing")
                s = c + d
                if -t2 <= s <= t2:
                    all_valid = False
                    if first_violation is None:
                        first_violation = (steps_n - 1, (c, d),
                                           "midpoint inside window")
                dev2 = abs(s - centre2)
                if dev2 < min_dev2:
                    min_dev2 = dev2

    if opened:
        violate(steps_n, None, f"shape {opened[-1][0]} is never closed")
    vals.reverse()
    return VerificationReport(
        allowable, all_valid, tuple(vals) == initial.values,
        INF if min_dev2 == none_dev2 else Fraction(min_dev2, 2),
        steps_n, flips_n, first_violation)


def verify_trace(tr: Trace) -> VerificationReport:
    """Verify a Trace."""
    return verify_stream(tr.initial, tr.window, tr.steps)


def min_deviation(tr: Trace):
    """Minimum |flip midpoint - domain centre| over all flips of a Trace,
    replays included: a Fraction, or INF when it has no flips.  A Replay
    repeats its shape's body at the positions where the body stands in
    the trace, and a deviation depends only on positions, so no replay is
    unfolded: the least over the trace's own steps is the expansion's."""
    centre2 = tr.initial.lo + tr.initial.hi
    dev2 = min((s.min_dev2(centre2) for s in tr.steps
                if not isinstance(s, (Define, End, Replay))), default=None)
    return INF if dev2 is None else Fraction(dev2, 2)


def flip_imbalance(n: int, f: Flip) -> int:
    """For a flip [c, d] on the domain [1, n]: the difference between the
    point counts strictly before c and strictly after d."""
    if not (1 <= f.c <= f.d <= n):
        raise RangeError(f"flip [{f.c}, {f.d}] outside [1, {n}]")
    return abs(n - f.d - f.c + 1)

