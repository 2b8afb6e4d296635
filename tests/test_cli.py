import io
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allowseq
from allowseq.cli import (MAGIC, TraceParseError, iter_trace_file, main,
                          parse_trace, serialize_trace)
from allowseq.construction import shift, shift_instance
from allowseq.errors import RefusalError
from allowseq.engine import (Annotation, FileSink, FlipStep, Trace,
                             TraceRecorder, verify_stream, verify_trace)
from allowseq.geom import PointSet, format_points
from allowseq.planner import SizePlan, plan_sizes
from allowseq.seqcore import CentredSequence, Flip, Window, identity_sequence
from conftest import as_v3, five_element_steps, random_trace_material


def run_cli(*argv):
    return main(list(argv))


def five_example_text():
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        tr.emit_step(step)
    return serialize_trace(tr.to_trace())


def test_serialize_parse_round_trip_small():
    text = five_example_text()
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert tr.steps[0] == FlipStep([Flip(1, 2), Flip(4, 5)])


def test_round_trip_with_annotations():
    rec, a, b, c = shift_instance(1, 9)
    shift(rec, a, b, c)
    text = serialize_trace(rec.to_trace())
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert tr == rec.to_trace()


def test_round_trip_empty_nested_scope():
    def emit(rec):
        with rec.annotate("outer"):
            with rec.annotate("empty"):
                pass
            rec.emit_flip(1, 2)
        return rec

    fh = io.StringIO()
    emit(TraceRecorder(identity_sequence(-2, 2), Window(0), sink=FileSink(fh)))
    text = fh.getvalue()
    assert "# 2 begin empty\n# 2 end empty\nF 1 2\n" in text
    assert serialize_trace(parse_trace(text)) == text
    assert parse_trace(text) == emit(
        TraceRecorder(identity_sequence(-2, 2), Window(0))).to_trace()


def scoped(rng, steps):
    """The steps with randomly nested annotation scopes around and between
    them, some of them empty: None closes the innermost open scope."""
    plan, depth = [], 0
    for step in steps + [None]:
        while rng.random() < 0.4:
            if depth and rng.random() < 0.5:
                plan.append(None)
                depth -= 1
            else:
                plan.append(f"scope {len(plan)}")
                depth += 1
        if step is not None:
            plan.append(step)
    return plan + [None] * depth


def play(rec, plan):
    scopes = []
    for item in plan:
        if item is None:
            scopes.pop().__exit__(None, None, None)
        elif isinstance(item, str):
            scopes.append(rec.annotate(item))
            scopes[-1].__enter__()
        else:
            rec.emit_step(item)
    return rec


def entries(plan):
    """The trace entries a recorder makes of the plan, in order."""
    out, scopes = [], []
    for item in plan:
        if item is None:
            out.append(Annotation(len(scopes), "end " + scopes.pop()))
        elif isinstance(item, str):
            scopes.append(item)
            out.append(Annotation(len(scopes), "begin " + item))
        else:
            out.append(item)
    return tuple(out)


def test_round_trip_fuzzed(rng):
    for _ in range(60):
        initial, steps = random_trace_material(rng)
        tr = TraceRecorder(initial, Window(0))
        ok_steps = []
        for step in steps:
            try:
                tr.emit_step(step)
                ok_steps.append(step)
            except Exception:
                break
        plan = scoped(rng, ok_steps)
        fh = io.StringIO()
        play(TraceRecorder(initial, Window(0), sink=FileSink(fh)), plan)
        listed = play(TraceRecorder(initial, Window(0)), plan).to_trace()
        text = fh.getvalue()
        assert serialize_trace(listed) == text
        back = parse_trace(text)
        assert back == listed
        assert serialize_trace(back) == text
        assert back.steps == entries(plan)
        assert len(back.steps) == text.count("\n") - 3


def test_streaming_parse_matches_full_parse(tmp_path):
    text = five_example_text()
    p = tmp_path / "five.txt"
    p.write_text(text)
    with open(p) as fh:
        (window, initial), steps = iter_trace_file(fh)
        rep = verify_stream(initial, window, steps)
    assert rep.reaches_reversal and rep.min_deviation == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError) as exc:
        parse_trace("BOGUS\n")
    assert "line 1" in str(exc.value)
    text = five_example_text().replace("S 1 2 4 5", "S 1 2 4", 1)
    with pytest.raises(TraceParseError) as exc:
        parse_trace(text)
    assert "line 4" in str(exc.value)
    # after thousands of repeated F lines, each found by lookup
    header = "ALLOWSEQ v1\nt=0 lo=1 hi=3\n1 2 3\n"
    for bad in ("F 1\n", "F 1 2 3\n", "F 2 1\n", "G 1 2\n"):
        with pytest.raises(TraceParseError) as exc:
            parse_trace(header + "F 1 2\nF 2 3\n" * 2500 + bad)
        assert exc.value.lineno == 5004, bad


@pytest.mark.parametrize("header, lineno", [
    ("t=0 lo=1\n1 2\n", 2),
    ("t=0 lo=1 hi=x\n1 2\n", 2),
    ("t=0 lo=1 hi=2\n1 a\n", 3),
    ("t=-1 lo=1 hi=2\n1 2\n", 3),
    ("t=0 lo=1 hi=2\n1 1\n", 3),
    ("t=0 lo=1 hi=3 t=5\n1 2 3\n", 2),
    ("t=0 lo=1 hi=3 x=5\n1 2 3\n", 2),
    ("t=0 lo=3 hi=1\n1 2\n", 2),
], ids=["missing-hi", "non-integer-hi", "non-integer-value", "negative-t",
        "repeated-value", "repeated-key", "unknown-key", "hi-below-lo"])
def test_header_errors_carry_line_numbers(header, lineno, tmp_path, capsys):
    text = "ALLOWSEQ v1\n" + header
    with pytest.raises(TraceParseError) as exc:
        parse_trace(text)
    assert exc.value.lineno == lineno
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert run_cli("verify", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"parse error: line {lineno}:")


@pytest.mark.parametrize("magic, values, message", [
    ("v4", "3..", "expected '<v>..<w>', got '3..'"),
    ("v4", "..3", "expected '<v>..<w>', got '..3'"),
    ("v4", "1..2..3", "expected '<v>..<w>', got '1..2..3'"),
    ("v4", "a..b", "expected '<v>..<w>', got 'a..b'"),
    ("v4", "4..4 5 6", "range '4..4' does not increase"),
    ("v4", "5..3 6", "range '5..3' does not increase"),
    ("v4", "1..4", "expected 3 values, got 4"),
    ("v4", "1 2", "expected 3 values, got 2"),
    ("v4", "1..2 2", "centred sequence must be injective"),
    ("v3", "1..3", "range '1..3' in ALLOWSEQ v3"),
], ids=["no-end", "no-start", "two-dots", "non-integer-range",
        "one-value-range", "decreasing-range", "range-too-long",
        "too-few-tokens", "ranges-overlap", "range-in-v3"])
def test_header_ranges_are_refused_on_line_3(magic, values, message):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(f"ALLOWSEQ {magic}\nt=0 lo=1 hi=3\n{values}\n")
    assert exc.value.lineno == 3
    assert str(exc.value) == f"line 3: {message}"


def test_oversized_range_is_refused_before_it_is_built():
    # A range of 10^12 values where the header names 3: the counts are
    # compared first, so refusing it allocates next to nothing.
    text = "ALLOWSEQ v4\nt=0 lo=1 hi=3\n1..1000000000000\n"
    tracemalloc.start()
    try:
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 3: expected 3 values, got 1000000000000"
    assert peak < 100_000


def test_oversized_header_is_refused_before_it_is_built(tmp_path, capsys):
    # 49 bytes that name 10^9 positions and hold them: the reader refuses
    # the header against the cell budget construct builds under, before it
    # reads line 3, so nothing of that size is allocated.
    text = "ALLOWSEQ v4\nt=0 lo=1 hi=1000000000\n1..1000000000\n"
    assert len(text) == 49
    tracemalloc.start()
    try:
        with pytest.raises(RefusalError) as exc:
            parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("materialization needs 1000000000 cells "
                              "(limit 100000000)")
    assert peak < 100_000
    path = tmp_path / "huge.trace"
    path.write_text(text)
    refusal = ("refused: materialization needs 1000000000 cells "
               "(limit 100000000)\n")
    assert run_cli("verify", str(path)) == 3
    assert capsys.readouterr().err == refusal
    assert run_cli("render", str(path)) == 3
    assert capsys.readouterr().err == refusal


def test_reader_takes_the_construct_cell_budget(tmp_path, monkeypatch,
                                                capsys):
    # The file of a 13-cell step is written and read back under a budget
    # of 13 cells, and refused under 12, the budget construct takes from
    # ALLOWSEQ_MAX_CELLS.
    path = tmp_path / "step.trace"
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "13")
    assert run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "0", "--out", str(path)) == 0
    for command in ("verify", "render"):
        monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "12")
        assert run_cli(command, str(path)) == 3
        assert capsys.readouterr().err == (
            "refused: materialization needs 13 cells (limit 12)\n")
        monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "13")
        assert run_cli(command, str(path)) == 0
    monkeypatch.delenv("ALLOWSEQ_MAX_CELLS")
    with pytest.raises(RefusalError):
        parse_trace(path.read_text(), 12)
    assert len(parse_trace(path.read_text(), 13).initial) == 13


@st.composite
def run_orders(draw):
    """A centred sequence made of blocks of consecutive values, of lengths
    1, 2 and more, some reversed, in random order, over values that may
    be negative and may cross 0."""
    v = draw(st.integers(-40, 10))
    blocks = []
    for size in draw(st.lists(st.sampled_from([1, 2, 3, 4, 9]), min_size=1,
                              max_size=8)):
        v += draw(st.integers(0, 2))
        block = list(range(v, v + size))
        blocks.append(block[::-1] if draw(st.booleans()) else block)
        v += size
    values = [x for block in draw(st.permutations(blocks)) for x in block]
    return CentredSequence(draw(st.integers(-5, 5)), values)


@settings(max_examples=200, deadline=None)
@given(run_orders())
def test_header_ranges_round_trip(initial):
    tr = Trace(Window(0), initial,
               (Annotation(1, "begin a"), FlipStep([Flip(initial.lo,
                                                         initial.lo)]),
                Annotation(1, "end a")))
    text = serialize_trace(tr)
    assert parse_trace(text) == tr
    assert serialize_trace(parse_trace(text)) == text
    assert parse_trace(as_v3(text)) == tr
    # Each maximal run of three or more consecutive values is one range,
    # so the v4 header is never longer than the values one by one.
    tokens = text.splitlines()[2].split()
    values = initial.values
    assert len(" ".join(tokens)) <= len(" ".join(map(str, values)))
    firsts = [int(tok.partition("..")[0]) for tok in tokens]
    lasts = [int(tok.rpartition("..")[2]) for tok in tokens]
    for i, tok in enumerate(tokens):
        if ".." in tok:
            assert lasts[i] - firsts[i] >= 2
            assert i == 0 or lasts[i - 1] + 1 != firsts[i]
            assert i + 1 == len(tokens) or lasts[i] + 1 != firsts[i + 1]
    singles = [None if ".." in tok else int(tok) for tok in tokens]
    for a, b, c in zip(singles, singles[1:], singles[2:]):
        assert None in (a, b, c) or not a + 1 == b == c - 1


def test_annotation_begin_at_wrong_depth():
    header = "ALLOWSEQ v2\nt=0 lo=1 hi=3\n1 2 3\n"
    for body, lineno in (("# 2 begin a\n# 2 end a\n", 4),
                         ("# 1 begin a\n# 1 begin b\n# 1 end b\n"
                          "# 1 end a\n", 5)):
        with pytest.raises(TraceParseError, match="'begin' at depth") as exc:
            parse_trace(header + body)
        assert exc.value.lineno == lineno


def test_cmd_verify_five_example(tmp_path, capsys):
    p = tmp_path / "five.txt"
    p.write_text(five_example_text())
    assert run_cli("verify", str(p)) == 0
    out = capsys.readouterr().out
    assert "reaches reversal: yes" in out
    assert "0/1" in out or "min deviation:    0/1" in out
    # strict requires min deviation > t = 0; the example sits at 0
    assert run_cli("verify", str(p), "--strict") == 1


def test_cmd_verify_reports_a_flip_in_the_window(tmp_path, capsys):
    # [-1, 1] is an increasing run, but its midpoint 0 lies in [0, 0]
    p = tmp_path / "window.txt"
    p.write_text("ALLOWSEQ v1\nt=0 lo=-1 hi=1\n-1 0 1\nF -1 1\n")
    assert run_cli("verify", str(p)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == ("first violation:  step 0 flip (-1, 1): "
                       "midpoint inside window")
    assert run_cli("verify", str(p), "--machine") == 1
    assert capsys.readouterr().out.splitlines() == [
        "allowable=1", "all_valid=0", "reaches_reversal=1",
        "min_deviation=0/1", "steps=1", "flips=1"]


def test_cmd_verify_without_flips(tmp_path, capsys):
    p = tmp_path / "still.txt"
    p.write_text("ALLOWSEQ v1\nt=0 lo=1 hi=3\n1 2 3\n")
    assert run_cli("verify", str(p), "--machine") == 0
    out = capsys.readouterr().out.splitlines()
    assert "min_deviation=inf" in out and "flips=0" in out


def test_cmd_verify_missing_and_malformed(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "nope.txt")) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("ALLOWSEQ v1\nt=0 lo=1 hi=3\n1 2\n")
    assert run_cli("verify", str(bad)) == 2
    cut = tmp_path / "cut.txt"
    cut.write_text("ALLOWSEQ v1\nt=0 lo=1 hi=3\n")
    assert run_cli("verify", str(cut)) == 2
    # verify streams the file and render parses it whole; both must refuse
    # the same line
    header = "ALLOWSEQ v1\nt=0 lo=1 hi=3\n1 2 3\n"
    for body, lineno in (("F 1 2\n\nF 2 3\n", 5),
                         ("# x begin foo\nF 1 2\n# 1 end foo\n", 4),
                         ("F 1 2\n# 1 begin foo\nF 2 3\n", 5),
                         ("F 1 2\n# 1 end foo\n", 5),
                         ("# 1 middle foo\nF 1 2\n", 4)):
        bad.write_text(header + body)
        capsys.readouterr()
        assert run_cli("verify", str(bad)) == 2, body
        err = capsys.readouterr().err
        assert f"line {lineno}:" in err, (body, err)
        assert run_cli("render", str(bad)) == 2, body
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", [["verify"],
                                     ["points", "--action", "sequence"],
                                     ["render"], ["render", "--points"]])
def test_unreadable_inputs_exit_malformed(command, tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"ALLOWSEQ v1\n\xff\xfe 1\n")
    for path in (tmp_path, binary):
        assert run_cli(command[0], str(path), *command[1:]) == 2, path
        assert "cannot use file" in capsys.readouterr().err, path


@pytest.mark.parametrize("argv", [
    ["--stage", "shift", "--t", "-1"],
    ["--stage", "reflect", "--t", "0", "--c-size", "0"],
    ["--stage", "reflect-mirrored", "--t", "0", "--c-size", "0"],
    ["--stage", "reflect", "--t", "0", "--c-size", "-1"],
    ["--stage", "reflect-mirrored", "--t", "0", "--c-size", "-1"]])
def test_cmd_construct_refuses_bad_arguments(argv, capsys):
    assert run_cli("construct", *argv) == 2
    assert "invalid request" in capsys.readouterr().err


def test_cmd_construct_then_verify(tmp_path, capsys):
    out = tmp_path / "tr.txt"
    for stage, extra in (("shift", []), ("reflect", []),
                         ("reflect-mirrored", []),
                         ("step", ["--d", "9", "--k", "1", "--lenient"])):
        code = run_cli("construct", "--stage", stage, "--t",
                       "1" if stage != "step" else "0", *extra,
                       "--out", str(out))
        assert code == 0, (stage, capsys.readouterr())
        assert run_cli("verify", str(out), "--strict") == 0
        capsys.readouterr()


def test_cmd_construct_without_out_keeps_no_trace(monkeypatch, capsys):
    def no_list_sink():
        raise AssertionError("construct without --out built a ListSink")

    monkeypatch.setattr(allowseq.engine, "ListSink", no_list_sink)
    for stage, extra, code in (
            ("shift", [], 0), ("reflect", [], 0), ("reflect-mirrored", [], 0),
            ("step", ["--d", "9", "--k", "1", "--lenient"], 0),
            ("full", ["--d", "9", "--k", "1"], 1)):
        assert run_cli("construct", "--stage", stage, "--t", "0",
                       *extra) == code, stage
        out = capsys.readouterr().out
        assert ("flips=" if code == 0 else "structured failure") in out


def test_cmd_construct_lenient_reports_failed_certificates(tmp_path, capsys):
    # At t = 0 the step lays down fewer negatives than beta_k, so
    # certificate (7) fails; --lenient reports it and still succeeds.
    argv = ["construct", "--stage", "step", "--t", "0", "--d", "9",
            "--k", "2", "--lenient"]
    assert run_cli(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cells=1657 flips=519302 ")
    assert lines[1:] == ["certificate (7) negative count bound: "
                         "|B-| = 44 < beta_2 = 54 (short by 10)"]
    out = tmp_path / "step.trace"
    assert run_cli(*argv, "--machine", "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["cells=1657", "flips=519302", "min_deviation=1/2"]
    assert lines[3].startswith("seconds=")
    assert lines[4:] == ["failed_certificates=7"]
    assert run_cli("verify", str(out), "--machine") == 0
    assert "flips=519302" in capsys.readouterr().out.splitlines()


def test_cmd_construct_full_failure(capsys):
    code = run_cli("construct", "--stage", "full", "--t", "0", "--d", "9",
                   "--k", "1", "--machine")
    assert code == 1
    out = capsys.readouterr().out
    assert "failure_stage=balance-gate" in out
    assert "achieved=3/38" in out


def test_cmd_construct_full_negative_count(capsys):
    cells = plan_sizes(0, 141, 58, 1).cells
    code = run_cli("construct", "--stage", "full", "--t", "0", "--d", "141",
                   "--k", "58", "--max-cells", str(cells), "--machine")
    assert code == 1
    out = capsys.readouterr().out
    assert "failure_stage=negative-count" in out
    assert f"achieved={SizePlan(0, 141).laid(58)}" in out


def test_cmd_construct_plan(capsys):
    code = run_cli("construct", "--stage", "full", "--t", "1", "--d", "72900",
                   "--k", "72900", "--plan")
    assert code == 0
    out = capsys.readouterr().out
    assert "gate_ok=True" in out


def test_cmd_construct_plan_beyond_int_str_limit(capsys):
    # exact sizes and ratios past 4300 digits cannot be printed; the plan
    # bounds them, and shows longer recurrence entries by their digit count,
    # instead of crashing
    huge_d = "1" + "0" * 400
    for stage, d, k in (("full", "9", "3000"), ("full", "9", "5000"),
                        ("step", huge_d, "20")):
        code = run_cli("construct", "--stage", stage, "--t", "0", "--d",
                       d, "--k", k, "--plan")
        assert code == 0, k
        out = capsys.readouterr().out
        assert out.startswith(f"plan t=0 T=1 d={d} k={k} n=1\n")
        assert "gate_ok=False" in out
    assert "i=12 alpha=<4801 digits> " in out


def test_cmd_construct_refusal(capsys):
    code = run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "9")
    assert code == 3
    # the step stage and the full pipeline refuse through the same guard
    assert capsys.readouterr().err.startswith(
        "refused: materialization needs 22373533243 cells (limit ")
    code = run_cli("construct", "--stage", "full", "--t", "0", "--d", "100",
                   "--k", "100")
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "refused: materialization needs ")


def test_cmd_construct_n_forms_agree(capsys):
    cells = []
    for argv in (["--n=20"], ["--n", "20"]):
        assert run_cli("construct", "--stage", "shift", "--t", "1", *argv,
                       "--machine") == 0
        cells.append(capsys.readouterr().out.splitlines()[0])
    assert cells == ["cells=49", "cells=49"]
    # an n below the stage's bound is rejected, not replaced by the default
    assert run_cli("construct", "--stage", "reflect", "--t", "0",
                   "--n=1") == 2


def test_failed_construct_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "r.trace"
    assert run_cli("construct", "--stage", "reflect", "--t", "1", "--n", "3",
                   "--out", str(out)) == 2
    assert not out.exists()
    # strict certificate (7) fails at t = 0 after the whole trace is written
    out = tmp_path / "s.trace"
    assert run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "1", "--out", str(out)) == 1
    assert not out.exists()
    assert os.listdir(tmp_path) == []


def test_refused_construct_keeps_an_existing_file(tmp_path, capsys):
    # The cell guards run before the file is opened, and a run removes
    # only a file it wrote.
    out = tmp_path / "existing.trace"
    for argv in (("--stage", "shift", "--t", "1"),
                 ("--stage", "step", "--t", "1", "--d", "81", "--k", "1")):
        out.write_bytes(b"kept\n")
        assert run_cli("construct", *argv, "--max-cells", "5",
                       "--out", str(out)) == 3
        assert out.read_bytes() == b"kept\n"
    # The balance gate's structured failure comes before any cell too.
    assert run_cli("construct", "--stage", "full", "--t", "0", "--d", "9",
                   "--k", "1", "--out", str(out)) == 1
    assert out.read_bytes() == b"kept\n"
    capsys.readouterr()


class WithholdingSink(FileSink):
    """Writes every step but the trace's last: each waits for the next."""

    held = None

    def hold(self, write, step):
        if self.held is not None:
            self.held[0](self, self.held[1])
        self.held = (write, step)

    def on_step(self, step):
        self.hold(FileSink.on_step, step)

    def on_transpositions(self, swap):
        self.hold(FileSink.on_transpositions, swap)


def test_construct_self_check_compares_with_the_recorder(tmp_path,
                                                         monkeypatch, capsys):
    # Without its last step the file is still allowable, but it no longer
    # holds what was recorded.
    fh = io.StringIO()
    rec, a, b, c = shift_instance(1, 9, sink=WithholdingSink(fh))
    shift(rec, a, b, c)
    (window, initial), steps = iter_trace_file(io.StringIO(fh.getvalue()))
    rep = verify_stream(initial, window, steps)
    assert rep.allowable and rep.all_valid
    assert rep.flip_count < rec.flip_count
    monkeypatch.setattr(allowseq.cli, "FileSink", WithholdingSink)
    out = tmp_path / "s.trace"
    assert run_cli("construct", "--stage", "shift", "--t", "1",
                   "--out", str(out)) == 1
    assert "self-check failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # With no flips, the recorder's INF matches the file's inf.
    monkeypatch.setattr(allowseq.cli, "FileSink", FileSink)
    monkeypatch.setattr(allowseq.cli, "shift", lambda rec, a, b, c: None)
    assert run_cli("construct", "--stage", "shift", "--t", "1",
                   "--out", str(out)) == 0
    assert "flips=0 min_deviation=inf" in capsys.readouterr().out
    assert verify_trace(parse_trace(out.read_text())).flip_count == 0


def test_max_cells_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "5")
    code = run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "0")
    assert code == 3
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "abc")
    code = run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "0")
    assert code == 2
    assert "ALLOWSEQ_MAX_CELLS" in capsys.readouterr().err
    # --max-cells wins over the environment, in both directions; this
    # step needs 13 cells.
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", str(10**9))
    code = run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "0", "--max-cells", "5")
    assert code == 3
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "5")
    code = run_cli("construct", "--stage", "step", "--t", "0", "--d", "9",
                   "--k", "0", "--max-cells", str(10**9))
    assert code == 0
    monkeypatch.delenv("ALLOWSEQ_MAX_CELLS")


def test_max_cells_counts_the_built_domain(monkeypatch, capsys):
    # The guard compares the cells the step instance builds, 3121 here.
    argv = ("construct", "--stage", "step", "--t", "1", "--d", "81", "--k",
            "1", "--machine")
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "3120")
    assert run_cli(*argv) == 3
    assert "needs 3121 cells (limit 3120)" in capsys.readouterr().err
    monkeypatch.setenv("ALLOWSEQ_MAX_CELLS", "3121")
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cells=3121"


@pytest.mark.parametrize("stage, extra, cells", [
    ("shift", (), 27),
    ("reflect", ("--c-size", "5"), 45),
    ("reflect-mirrored", ("--c-size", "5"), 45)])
def test_max_cells_guards_shift_and_reflect(tmp_path, capsys, stage, extra,
                                            cells):
    # At t = 1 the shift instance spans [-13, 13], and the reflect
    # instances with 5 carried cells span [-22, 22].
    out = tmp_path / "refused.trace"
    argv = ("construct", "--stage", stage, "--t", "1", *extra, "--machine")
    assert run_cli(*argv, "--max-cells", str(cells - 1),
                   "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"refused: materialization needs {cells} cells "
        f"(limit {cells - 1})\n")
    assert not out.exists()
    assert run_cli(*argv, "--max-cells", str(cells)) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"cells={cells}"


def test_cmd_search(capsys):
    assert run_cli("search", "--n", "3") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("3 1/2")
    assert run_cli("search", "--n", "9") == 3
    assert "--force" in capsys.readouterr().err
    assert run_cli("search", "--n", "9", "--force") == 0
    capsys.readouterr()
    # One element is already its own reversal: no flip, one state.
    assert run_cli("search", "--n", "1") == 0
    assert capsys.readouterr().out == "1 inf 1\n"
    assert run_cli("search", "--n", "0") == 2
    assert capsys.readouterr().err == "invalid request: need n >= 1\n"


def test_step_without_d_exits_malformed(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--stage", "step", "--t", "0")
    assert exc.value.code == 2
    assert "--d is required" in capsys.readouterr().err


def test_render_lines_without_points_exits_malformed(tmp_path, capsys):
    tr = tmp_path / "tr.txt"
    tr.write_text(five_example_text())
    with pytest.raises(SystemExit) as exc:
        run_cli("render", str(tr), "--lines")
    assert exc.value.code == 2
    assert "--lines needs --points" in capsys.readouterr().err


def test_render_without_out_writes_stdout(tmp_path, capsys):
    tr = tmp_path / "tr.txt"
    tr.write_text(five_example_text())
    assert run_cli("render", str(tr)) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg") and out.endswith("</svg>\n")
    assert out.count("<polyline") == 5


def test_cmd_points_and_render(tmp_path, capsys):
    pts = tmp_path / "kite.pts"
    pts.write_text(format_points(PointSet([(0, 0), (2, 2), (1, 1), (0, 3)])))
    assert run_cli("points", str(pts), "--action", "imbalance") == 0
    assert capsys.readouterr().out == (
        "line 1,2,3: left=1 right=0 imbalance=1\n"
        "line 1,4: left=0 right=2 imbalance=2\n"
        "line 2,4: left=2 right=0 imbalance=2\n"
        "line 3,4: left=1 right=1 imbalance=0\n"
        "minimum imbalance: 0\n")

    gp = tmp_path / "gp.pts"
    gp.write_text("0 0\n4 0\n1 3\n3 7\n9 2\n")
    assert run_cli("points", str(gp), "--action", "link") == 0
    assert capsys.readouterr().out.startswith("link holds")

    assert run_cli("points", str(gp), "--action", "sequence") == 0
    seq_text = capsys.readouterr().out
    assert seq_text.startswith(MAGIC)
    seq = tmp_path / "gp.trace"
    seq.write_text(seq_text)
    assert run_cli("verify", str(seq)) == 0
    assert "reaches reversal: yes" in capsys.readouterr().out

    svg = tmp_path / "out.svg"
    assert run_cli("render", str(pts), "--points", "--lines",
                   "--out", str(svg)) == 0
    assert svg.read_text().startswith("<svg")

    tr = tmp_path / "tr.txt"
    tr.write_text(five_example_text())
    assert run_cli("render", str(tr), "--out", str(svg)) == 0
    assert "<polyline" in svg.read_text()

    collinear = tmp_path / "col.pts"
    collinear.write_text("0 0\n1 1\n2 2\n")
    assert run_cli("points", str(collinear), "--action", "link") == 2


def test_empty_point_file_exits_malformed(tmp_path, capsys):
    empty = tmp_path / "empty.pts"
    empty.write_text("# no points\n")
    for argv in (["points", str(empty), "--action", "sequence"],
                 ["render", str(empty), "--points"],
                 ["render", str(empty), "--points", "--lines"]):
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert "need at least one point" in err, argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("text, message", [
    ("0 0\n1 x\n", "line 2: bad coordinate"),
    ("0 0\n# three fields\n1 2 3\n", "line 3: expected 'x y'"),
    ("1/0 0\n", "line 1: bad coordinate"),
    ("0 0\n1 1\n0/2 0\n", "points must be pairwise distinct"),
    ("1e1000000 0\n0 1\n1 1\n", "line 1: bad coordinate"),
    ("0 0\n1 1\n0 " + "1" * 1001 + "\n", "line 3: bad coordinate"),
], ids=["bad-coordinate", "three-fields", "zero-denominator", "duplicate",
        "huge-exponent", "many-digits"])
@pytest.mark.parametrize("command, prefix", [
    (["points", "--action", "sequence"], "parse error: "),
    (["render", "--points"], "cannot read points: "),
], ids=["points", "render"])
def test_unparsable_point_files_exit_malformed(text, message, command, prefix,
                                               tmp_path, capsys):
    path = tmp_path / "bad.pts"
    path.write_text(text)
    assert run_cli(command[0], str(path), *command[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix + message), err
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly(tmp_path):
    # About 200 KB of trace text, far more than a pipe buffers, so the
    # writer meets the closed pipe mid-write.
    rng = random.Random(7)
    pts = tmp_path / "rand200.pts"
    pts.write_text(format_points(PointSet(
        [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(200)])))
    package_root = os.path.dirname(os.path.dirname(allowseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "allowseq.cli", "points",
                             str(pts), "--action", "sequence"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def _run_module(*argv):
    package_root = os.path.dirname(os.path.dirname(allowseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True, env=env)


def test_console_entry_point():
    proc = _run_module("allowseq.cli", "search", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("2 0/1")


def test_package_runs_as_module():
    proc = _run_module("allowseq", "search", "--n", "3")
    assert proc.returncode == 0
    golden = os.path.join(os.path.dirname(__file__), "golden", "search_n3.txt")
    with open(golden) as fh:
        assert proc.stdout == fh.read()
