"""Sub-steps by reference: trace format v3, the recorder's replays and
their independent verification.

The growth step runs each level's sub-steps through
`TraceRecorder.substep`, which records the first run of a shape between
`D` and `E` lines and writes a later run that it can replay as one `R`
line.  These tests check that the v3 file expands to the v2 file of the
same steps, that the verifier reports on it what it reports on the
expansion, replays that fail their order check included, that the reader
refuses malformed shapes, that the recorder keeps a recorded sub-step
inside its span, and that a replay changes nothing but the trace's form.
"""

import io
import time

import pytest

from allowseq import engine
from allowseq.cli import main
from allowseq.construction import recursive_step, step_instance
from allowseq.engine import (Define, End, FileSink, ListSink, Replay, Trace,
                             TraceParseError, TraceRecorder, expand_steps,
                             expanded_length, iter_trace_file, parse_trace,
                             serialize_trace, single_step, verify_stream,
                             verify_trace)
from allowseq.errors import ConstructionBug, ContractError, RangeError
from allowseq.seqcore import CentredSequence, Window, identity_sequence
from conftest import as_v2
from test_acceptance import STEP_POINTS


def step_text(t, d, k):
    out = io.StringIO()
    rec = step_instance(t, d, k, 1, sink=FileSink(out))
    outcome = recursive_step(rec, d, k, 1, strict_certificates=False)
    return out.getvalue(), rec, outcome


def file_report(text):
    (window, initial), steps = iter_trace_file(io.StringIO(text))
    return verify_stream(initial, window, steps)


@pytest.mark.parametrize("t, d, k", STEP_POINTS + [(0, 27, 2)],
                         ids=lambda v: str(v))
def test_report_equals_the_expansions(t, d, k):
    text, rec, _ = step_text(t, d, k)
    rep = file_report(text)
    assert rep == file_report(as_v2(text))
    assert rep.allowable and rep.all_valid
    assert (rep.flip_count, rep.step_count) == (rec.flip_count,
                                                rec.step_count)
    assert rep.min_deviation == rec.min_deviation
    # the file holds one `R` line per replayed sub-step from k = 1 on
    assert ("\nR " in text) == (k > 0)


@pytest.mark.parametrize("t, d, k", [(0, 9, 1), (0, 9, 2), (1, 81, 1)])
def test_v3_round_trip_and_the_v2_reading(t, d, k):
    text, _, _ = step_text(t, d, k)
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    rec = step_instance(t, d, k, 1)
    recursive_step(rec, d, k, 1, strict_certificates=False)
    assert rec.to_trace() == tr
    # The v2 file holds no markers and expands to the same steps.
    v2 = parse_trace(as_v2(text))
    assert not any(isinstance(s, (Define, End, Replay)) for s in v2.steps)
    assert list(expand_steps(v2.steps)) == list(expand_steps(tr.steps))
    assert expanded_length(tr.steps) == expanded_length(v2.steps) \
        == rec.step_count
    assert engine.min_deviation(tr) == engine.min_deviation(v2)


def test_replays_change_nothing_but_the_form(monkeypatch):
    # With every sub-step run in full, the step leaves the same state,
    # counts, layout and certificates, and writes the v2 expansion.
    text, rec, outcome = step_text(0, 9, 2)
    monkeypatch.setattr(TraceRecorder, "substep",
                        lambda self, key, lo, hi, run: run())
    full, rec_full, outcome_full = step_text(0, 9, 2)
    assert "\nD " not in full
    assert as_v2(text) == full.replace("ALLOWSEQ v3", "ALLOWSEQ v2", 1)
    assert rec.values(rec.lo, rec.hi) == rec_full.values(rec.lo, rec.hi)
    assert (rec.flip_count, rec.step_count, rec.min_deviation) == \
        (rec_full.flip_count, rec_full.step_count, rec_full.min_deviation)
    assert outcome == outcome_full


def test_shapes_live_in_one_recorder():
    # A second run records its shapes afresh: nothing carries over.
    first, rec, _ = step_text(0, 9, 1)
    second, _, _ = step_text(0, 9, 1)
    assert first == second and "\nD 0 " in first
    assert rec._shapes and not TraceRecorder(rec.initial, rec.window)._shapes


def breaking_flip(text, at):
    """An `F p p+1` line that, inserted before the `R` line at index at,
    swaps two increasing values of that replay's span outside the
    window."""
    lines = text.splitlines(keepends=True)
    sid = lines[at].split()[1]
    lo, hi = next(map(int, line.split()[2:]) for line in lines
                  if line.startswith(f"D {sid} "))
    # The state there: the lines before it, annotations dropped and the
    # shapes still open closed.
    before = [line for line in lines[:at] if not line.startswith("#")]
    opened = []
    for line in before[3:]:
        if line[0] == "D":
            opened.append(line.split()[1])
        elif line[0] == "E":
            opened.pop()
    tr = parse_trace("".join(before + [f"E {s}\n" for s in opened[::-1]]))
    rec = TraceRecorder(tr.initial, tr.window)
    for step in expand_steps(tr.steps):
        rec.emit_step(step)
    span, t2 = rec.values(lo, hi), 2 * tr.window.t
    for p in range(lo, hi):
        if span[p - lo] < span[p - lo + 1] and abs(2 * p + 1) > t2:
            return f"F {p} {p + 1}\n"
    raise AssertionError("no flip breaks the span")


@pytest.mark.parametrize("t, d, k, which", [(0, 9, 1, 0), (0, 9, 2, 0),
                                            (0, 9, 2, -1), (1, 81, 1, 3)])
def test_broken_replay_verifies_its_body(t, d, k, which):
    # A flip before an `R` changes the order of its span, so the replay
    # fails its check and its body is verified one step at a time: the
    # report, first violation included, is the expansion's.
    text, _, _ = step_text(t, d, k)
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("R ")][which]
    broken = "".join(lines[:at] + [breaking_flip(text, at)] + lines[at:])
    rep = file_report(broken)
    assert rep == file_report(as_v2(broken))
    assert not rep.allowable and rep.first_violation is not None


def test_body_violations_count_at_every_replay():
    # A shape whose body breaks the window rule: the replays are valid
    # replays of it, and the report is the expansion's.
    # The swap brings the increasing 2 3 onto the span [0, 1].
    text = ("ALLOWSEQ v3\nt=1 lo=-3 hi=3\n-3 -2 -1 0 1 2 3\n"
            "D 0 0 1\nF 0 1\nE 0\nB 0 2 2\nR 0\n")
    rep = file_report(text)
    assert rep == file_report(as_v2(text))
    assert rep.allowable and not rep.all_valid
    assert rep.first_violation == (0, (0, 1), "midpoint inside window")


HEAD = "ALLOWSEQ v3\nt=0 lo=1 hi=4\n1 2 3 4\n"

# One case per structural refusal: (body, line number named, message).
MALFORMED = [
    ("R 0\n", 4, "replay of unknown shape 0"),
    ("D 0 1 2\nF 1 2\nR 0\nE 0\n", 6, "replay of unknown shape 0"),
    ("E 0\n", 4, "'E 0' does not close the innermost open shape"),
    ("D 0 1 2\nD 1 1 2\nE 0\nE 1\n", 6, "'E 0' does not close"),
    ("D 0 1 2\nF 1 2\n", 4, "shape 0 is never closed"),
    ("D 0 1 2\nE 0\nD 0 1 2\nE 0\n", 6, "shape 0 is defined twice"),
    ("D 0 1 2\nD 0 1 2\nE 0\nE 0\n", 5, "shape 0 is defined twice"),
    ("D 0 1 2\nF 2 3\nE 0\n", 5, r"entry over \[2, 3\] outside the span"),
    ("D 0 2 3\nB 1 1 1\nE 0\n", 5, r"entry over \[1, 2\] outside the span"),
    ("D 0 1 2\nE 0\nD 1 3 4\nR 0\nE 1\n", 7, "outside the span"),
    ("D 0 1 2\nD 1 1 3\nE 1\nE 0\n", 5, r"shape span \[1, 3\] outside"),
    ("D 0 0 2\nE 0\n", 4, r"shape span \[0, 2\] outside \[1, 4\]"),
    ("D 0 1 2\n# 1 begin x\nE 0\n# 1 end x\n", 6, "crosses the end"),
    ("# 1 begin x\nD 0 1 2\n# 1 end x\nE 0\n", 6, "crosses the start"),
    ("D x 1 2\n", 4, "expected 'D <id> <lo> <hi>'"),
    ("D 0 1 2\nE\n", 5, "expected 'E <id>'"),
    ("R 0 1\n", 4, "expected 'R <id>'"),
]


@pytest.mark.parametrize("body, lineno, message", MALFORMED)
def test_reader_refuses_malformed_shapes(body, lineno, message):
    with pytest.raises(TraceParseError, match=message) as exc:
        parse_trace(HEAD + body)
    assert exc.value.lineno == lineno
    # a line the reader has already parsed once is checked afresh
    with pytest.raises(TraceParseError) as exc:
        parse_trace(HEAD + "F 1 2\nF 1 2\n" + body)
    assert exc.value.lineno == lineno + 2


def test_shape_lines_need_format_v3():
    for magic in ("ALLOWSEQ v1", "ALLOWSEQ v2"):
        with pytest.raises(TraceParseError, match="unknown line kind 'D'"):
            parse_trace(HEAD.replace("ALLOWSEQ v3", magic) + "D 0 1 2\nE 0\n")


# The same faults in memory: reported by the verifier, never raised.
IN_MEMORY = [
    ([Replay(0)], "replay of unknown shape 0"),
    ([End(0)], "shape 0 ends but is not the innermost open one"),
    ([Define(0, 1, 2), Define(1, 1, 2), End(0), End(1)],
     "shape 0 ends but is not the innermost open one"),
    ([Define(0, 1, 2), single_step(1, 2)], "shape 0 is never closed"),
    ([Define(0, 1, 2), End(0), Define(0, 1, 2), End(0)],
     "shape 0 is defined twice"),
    ([Define(0, 1, 2), single_step(2, 3), End(0)], None),
    ([Define(0, 0, 2), End(0)], "shape span [0, 2] outside [1, 4]"),
    ([Define(0, 1, 2), Replay(0), End(0)], "replay of unknown shape 0"),
]


@pytest.mark.parametrize("steps, reason", IN_MEMORY)
def test_verifier_reports_malformed_shapes(steps, reason):
    rep = verify_stream(identity_sequence(1, 4), Window(0), steps)
    assert not rep.allowable and not rep.all_valid
    if reason is None:
        assert rep.first_violation == (0, (2, 3),
                                       "outside the span of its shape")
    else:
        assert rep.first_violation[1:] == (None, reason)


def test_recorder_confines_a_recorded_substep():
    rec = TraceRecorder(identity_sequence(-4, 4), Window(0))
    for body in (lambda: rec.values(0, 3), lambda: rec.emit_flip(2, 3),
                 lambda: rec.swap_adjacent_blocks((1, 2), (3, 3)),
                 lambda: rec.substep("inner", 0, 3, lambda: None)):
        with pytest.raises(ConstructionBug, match="outside the span"):
            rec.substep("outer", 0, 2, body)
    # Outside the domain it stays a RangeError, as without shapes.
    with pytest.raises(RangeError):
        rec.substep("outer", 0, 2, lambda: rec.values(0, 5))
    with pytest.raises(RangeError):
        rec.substep("outer", 3, 5, lambda: None)
    # Inside the span everything goes, and the bounds come back after.
    assert rec.substep("ok", 0, 2, lambda: rec.emit_flip(1, 2)) is None
    assert rec.values(-4, 4) == (-4, -3, -2, -1, 0, 2, 1, 3, 4)


def test_recorder_replays_only_on_the_same_order_and_signs():
    sink = ListSink()
    rec = TraceRecorder(CentredSequence(1, (-3, -2, 1, 2, 7, 8)), Window(0),
                        sink=sink)
    calls = []

    def run():
        calls.append(rec.values(1, 2))
        rec.emit_flip(1, 2)
        return "done"

    assert rec.substep("k", 1, 2, run) == "done"  # recorded on -3 -2
    rec.swap_adjacent_blocks((1, 2), (3, 4))
    assert rec.values(1, 2) == (1, 2)  # the same order, other signs
    assert rec.substep("k", 1, 2, run) == "done"  # recorded afresh
    rec.swap_adjacent_blocks((1, 4), (5, 6))
    assert rec.values(1, 2) == (7, 8)  # as 1 2: order and signs
    assert rec.substep("k", 1, 2, run) == "done"  # replayed
    assert calls == [(-3, -2), (1, 2)]
    assert rec.values(1, 6) == (8, 7, 2, 1, -2, -3)
    markers = [s for s in sink.steps if isinstance(s, (Define, End, Replay))]
    assert markers == [Define(0, 1, 2), End(0), Define(1, 1, 2), End(1),
                       Replay(1)]
    tr = rec.to_trace()
    rep = verify_trace(tr)
    assert rep == verify_stream(tr.initial, tr.window,
                                list(expand_steps(tr.steps)))
    assert rep.allowable and rec.flip_count == rep.flip_count == 15


def test_unfold_refuses_malformed_shapes():
    for steps in ([Replay(0)], [End(0)], [Define(0, 1, 2), End(1)]):
        with pytest.raises(ContractError):
            list(expand_steps(steps))
        with pytest.raises(ContractError):
            expanded_length(steps)


def nested_shapes(levels, repeats):
    """A v3 file of few lines whose expansion is repeats**levels steps
    and more: shape i replays shape i-1 `repeats` times."""
    lines = ["ALLOWSEQ v3\n", "t=0 lo=1 hi=2\n", "1 2\n",
             "D 0 1 2\n", "F 1 2\n", "E 0\n"]
    for i in range(1, levels + 1):
        lines += [f"D {i} 1 2\n", *[f"R {i - 1}\n"] * repeats, f"E {i}\n"]
    return "".join(lines)


def test_min_deviation_unfolds_no_replay():
    # The expansion holds over 10**12 steps; the least deviation is read
    # off the trace's own 147 entries.  test_v3_round_trip_and_the_v2_reading
    # checks it against the expansion's.
    tr = parse_trace(nested_shapes(12, 10))
    start = time.perf_counter()
    assert engine.min_deviation(tr) == 0
    assert time.perf_counter() - start < 1


def test_render_refuses_a_large_expansion(monkeypatch, tmp_path, capsys):
    from allowseq import geom
    from allowseq.errors import RefusalError

    def no_expansion(steps):
        raise AssertionError("a refused trace was expanded")

    text = nested_shapes(6, 10)
    tr = parse_trace(text)
    assert len(tr.steps) < 100
    count = expanded_length(tr.steps)
    assert count == sum(10 ** i for i in range(7))
    monkeypatch.setattr(geom, "expand_steps", no_expansion)
    with pytest.raises(RefusalError, match=f"over {count} steps"):
        geom.render_trace_svg(tr)
    path = tmp_path / "nested.trace"
    path.write_text(text)
    assert main(["render", str(path)]) == 3
    assert capsys.readouterr().err.startswith("refused: ")
    # Two levels fit under the cap and draw the expansion.
    monkeypatch.undo()
    small = parse_trace(nested_shapes(2, 3))
    expanded = Trace(small.window, small.initial,
                     tuple(expand_steps(small.steps)))
    assert geom.render_trace_svg(small) == geom.render_trace_svg(expanded)
