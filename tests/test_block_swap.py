"""BlockSwap steps: verification equal to their one-flip expansion, the
`B` line of trace format v2, the sink seam, and the trace consumers."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allowseq.construction import shift, shift_instance
from allowseq.engine import (Annotation, BlockSwap, Define, End, FileSink,
                             FlipStep, Replay, StatsSink, Trace,
                             TraceParseError, TraceRecorder, expand_steps,
                             min_deviation, parse_trace, serialize_trace,
                             single_step, verify_stream, verify_trace)
from allowseq.geom import render_trace_svg
from allowseq.oracle import allowability_bruteforce
from allowseq.seqcore import (CentredSequence, Flip, Window,
                              identity_sequence)
from conftest import as_v1, bubble_pairs


def one_flip_steps(steps):
    return [single_step(c, d) for s in steps
            for c, d in bubble_pairs(s.lo, s.a, s.b)]


@st.composite
def swap_traces(draw):
    """A random state, window and one to three block swaps of every kind:
    left below right on the current state or arbitrary (broken
    precedence), inside the domain or reaching out of it, near the window
    or away from it, a = 1 or b = 1 among them."""
    n = draw(st.integers(2, 9))
    lo = draw(st.integers(-7, 2))
    t = draw(st.integers(0, 3))
    vals = draw(st.permutations(range(n)))
    state = list(vals)
    swaps = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["ordered", "any", "out of bounds"]))
        inside = [(at, a, b) for at in range(lo, lo + n)
                  for a in range(1, n) for b in range(1, n)
                  if at + a + b - 1 <= lo + n - 1]
        ordered = [(at, a, b) for at, a, b in inside
                   if max(state[at - lo:at - lo + a])
                   < min(state[at - lo + a:at - lo + a + b])]
        if kind == "ordered" and ordered:  # none once the state decreases
            inside = ordered
        if kind == "out of bounds":
            a, b = draw(st.integers(1, n)), draw(st.integers(1, n))
            past = draw(st.integers(1, 2))
            at = draw(st.sampled_from([lo - past, lo + n - a - b + past]))
        else:
            at, a, b = draw(st.sampled_from(inside))
        swaps.append(BlockSwap(at, a, b))
        for c, d in bubble_pairs(at, a, b):
            if lo <= c and d <= lo + n - 1:
                state[c - lo], state[d - lo] = state[d - lo], state[c - lo]
    return CentredSequence(lo, vals), Window(t), swaps


@given(swap_traces())
@settings(max_examples=300, deadline=None)
def test_block_swap_verifies_as_its_one_flip_steps(case):
    initial, window, swaps = case
    expanded = one_flip_steps(swaps)
    rep = verify_stream(initial, window, swaps)
    assert rep == verify_stream(initial, window, expanded)
    assert rep.step_count == rep.flip_count == len(expanded)
    assert allowability_bruteforce(swaps, initial) == rep.allowable


def test_block_swap_checks_each_condition():
    # (initial, window, swap, first violation of its expansion)
    cases = [
        (CentredSequence(1, (1, 4, 5, 3)), Window(0), BlockSwap(1, 2, 2),
         (2, (3, 4), "run not strictly increasing")),
        (CentredSequence(-2, (0, 1, 2, 3, 4)), Window(1), BlockSwap(-2, 2, 2),
         (0, (-1, 0), "midpoint inside window")),
        (CentredSequence(1, (1, 2, 3)), Window(0), BlockSwap(2, 1, 2),
         (1, (3, 4), "out of bounds")),
        # at t = 0 no transposition has its midpoint in the window
        (CentredSequence(-1, (0, 1, 2)), Window(0), BlockSwap(-1, 2, 1),
         None),
    ]
    for initial, window, swap, violation in cases:
        rep = verify_stream(initial, window, [swap])
        assert rep.first_violation == violation
        assert rep == verify_stream(initial, window, one_flip_steps([swap]))


def assert_as_expanded(initial, window, swap, min_dev, violation):
    rep = verify_stream(initial, window, [swap])
    assert (rep.min_deviation, rep.first_violation) == (min_dev, violation)
    assert rep.step_count == rep.flip_count == swap.a * swap.b
    assert rep == verify_stream(initial, window, list(expand_steps([swap])))


@pytest.mark.parametrize("lo, hi, pins", [
    # lo + hi even: the centre 0 is a position
    (-5, 5, [(BlockSwap(-5, 2, 1), Fraction(7, 2)),  # left of the centre
             (BlockSwap(-2, 1, 2), Fraction(1, 2)),  # next to it, left
             (BlockSwap(-2, 2, 3), Fraction(1, 2)),  # around it
             (BlockSwap(0, 1, 2), Fraction(1, 2)),   # next to it, right
             (BlockSwap(2, 1, 2), Fraction(5, 2))]), # right of it
    # lo + hi odd: the centre 1/2 is a transposition's midpoint
    (-5, 6, [(BlockSwap(-5, 2, 1), Fraction(4)),
             (BlockSwap(-2, 1, 2), Fraction(1)),
             (BlockSwap(-2, 2, 3), Fraction(0)),
             (BlockSwap(1, 1, 2), Fraction(1)),
             (BlockSwap(2, 1, 2), Fraction(2))]),
])
def test_lone_valid_swap_pins(lo, hi, pins):
    initial = identity_sequence(lo, hi)
    for swap, min_dev in pins:
        assert_as_expanded(initial, Window(0), swap, min_dev, None)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_swaps_at_the_window_edges(t):
    # A transposition (p, p+1) falls in the window [-t, t] exactly when
    # -t <= p <= t - 1; at t = 0 none does.
    initial = identity_sequence(-6, 6)
    inside = t > 0
    # the last transposition is (-t-1, -t), then one further right
    assert_as_expanded(initial, Window(t), BlockSwap(-t - 2, 1, 2),
                       Fraction(2 * t + 1, 2), None)
    assert_as_expanded(initial, Window(t), BlockSwap(-t - 1, 1, 2),
                       Fraction(abs(2 * t - 1), 2),
                       (1, (-t, -t + 1), "midpoint inside window")
                       if inside else None)
    # the first transposition is (t, t+1), then one further left
    assert_as_expanded(initial, Window(t), BlockSwap(t, 2, 1),
                       Fraction(2 * t + 1, 2), None)
    assert_as_expanded(initial, Window(t), BlockSwap(t - 1, 2, 1),
                       Fraction(abs(2 * t - 1), 2),
                       (1, (t - 1, t), "midpoint inside window")
                       if inside else None)


HEADER = "ALLOWSEQ v2\nt=0 lo=1 hi=3\n1 2 3\n"


@pytest.mark.parametrize("line", ["B 1 0 2", "B 1 2 0", "B 1 2", "B 1 2 3 4",
                                  "B 1 x 1", "B 1.0 1 1", "B", "B 0 1 1",
                                  "B 2 1 2"])
def test_malformed_b_line_names_its_line(line):
    # also after a `B` line the reader has parsed once and then reused
    for before in ("F 1 2\n", "B 1 1 2\nB 1 1 2\n"):
        with pytest.raises(TraceParseError) as exc:
            parse_trace(HEADER + before + line + "\nF 1 2\n")
        assert exc.value.lineno == 4 + before.count("\n")


def test_b_line_domain_is_each_files_own():
    # a line parsed in one file is checked afresh against the next header
    wide = "ALLOWSEQ v2\nt=0 lo=1 hi=4\n1 2 3 4\n"
    for _ in range(2):
        assert parse_trace(wide + "B 2 1 2\nB 2 1 2\n").steps == \
            (BlockSwap(2, 1, 2),) * 2
        with pytest.raises(TraceParseError) as exc:
            parse_trace(HEADER + "F 1 2\nB 2 1 2\n")
        assert exc.value.lineno == 5 and "outside [1, 3]" in str(exc.value)


def test_b_line_needs_format_v2():
    v1 = HEADER.replace("v2", "v1")
    assert parse_trace(v1 + "F 2 3\n").steps == (single_step(2, 3),)
    with pytest.raises(TraceParseError) as exc:
        parse_trace(v1 + "F 2 3\nB 1 1 2\n")
    assert exc.value.lineno == 5 and "ALLOWSEQ v1" in str(exc.value)


def test_b_lines_round_trip():
    # The writer writes format v4, which holds `B` lines as v2 does.
    v4 = "ALLOWSEQ v4\nt=0 lo=1 hi=3\n1..3\n"
    text = v4 + "# 1 begin swap\nB 1 1 2\n# 1 end swap\nF 2 3\n"
    tr = parse_trace(text)
    assert tr.steps == (Annotation(1, "begin swap"), BlockSwap(1, 1, 2),
                        Annotation(1, "end swap"), single_step(2, 3))
    assert serialize_trace(tr) == text
    v1 = parse_trace(as_v1(text))
    assert serialize_trace(v1) == v4 + ("# 1 begin swap\nF 1 2\nF 2 3\n"
                                        "# 1 end swap\nF 2 3\n")
    assert verify_trace(tr) == verify_trace(v1)
    # Annotations inside a shape and outside it are entries in file order,
    # and the verifier passes over them.
    shaped = ("ALLOWSEQ v4\nt=0 lo=1 hi=4\n1..4\n"
              "# 1 begin all\nD 0 1 2\n# 2 begin one\nF 1 2\n# 2 end one\n"
              "E 0\nB 1 2 2\nR 0\n# 1 end all\n")
    tr = parse_trace(shaped)
    assert tr.steps == (Annotation(1, "begin all"), Define(0, 1, 2),
                        Annotation(2, "begin one"), single_step(1, 2),
                        Annotation(2, "end one"), End(0), BlockSwap(1, 2, 2),
                        Replay(0), Annotation(1, "end all"))
    assert serialize_trace(tr) == shaped
    bare = Trace(tr.window, tr.initial,
                 tuple(s for s in tr.steps if not isinstance(s, Annotation)))
    rep = verify_trace(tr)
    assert rep == verify_trace(bare)
    assert rep.allowable and rep.reaches_reversal and rep.step_count == 6


def test_sink_seam():
    # A sink is handed the recorder's own step objects: each FlipStep
    # given to emit_step, or made by emit_flip, reaches on_step, and each
    # BlockSwap on_transpositions, after the recorder has counted it.
    received = []

    class Recording(StatsSink):
        def on_step(self, step):
            received.append((step, rec.flip_count, rec.step_count))

        def on_transpositions(self, swap):
            received.append((swap, rec.flip_count, rec.step_count))

    rec = TraceRecorder(CentredSequence(3, (1, 2, 5, 6, 7)), Window(0),
                        sink=Recording())
    rec.swap_adjacent_blocks((3, 4), (5, 6))
    step = FlipStep([Flip(3, 4), Flip(5, 6)])
    rec.emit_step(step)
    rec.emit_flip(6, 7)
    assert received == [(BlockSwap(3, 2, 2), 4, 4), (step, 6, 5),
                        (single_step(6, 7), 7, 6)]
    assert received[1][0] is step
    assert received[2][0] is single_step(6, 7)
    swap = received[0][0]
    assert list(swap) == bubble_pairs(3, 2, 2) == [(4, 5), (3, 4),
                                                   (5, 6), (4, 5)]
    # FileSink writes any other iterable of transpositions, as a wrapping
    # sink passes after consuming some of a swap, as F lines.
    pairs = iter(swap)
    next(pairs)
    fh = io.StringIO()
    FileSink(fh).on_transpositions(pairs)
    assert fh.getvalue() == "F 3 4\nF 5 6\nF 4 5\n"


def test_svg_and_min_deviation_read_block_swaps():
    rec, a, b, c = shift_instance(1, 9)
    shift(rec, a, b, c)
    tr = rec.to_trace()
    assert any(isinstance(s, BlockSwap) for s in tr.steps)
    v1 = parse_trace(as_v1(serialize_trace(tr)))
    assert not any(isinstance(s, BlockSwap) for s in v1.steps)
    assert render_trace_svg(tr) == render_trace_svg(v1)
    assert min_deviation(tr) == min_deviation(v1) == rec.min_deviation
    assert verify_trace(tr).min_deviation == rec.min_deviation
