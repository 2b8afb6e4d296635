import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allowseq import engine
from allowseq.construction import recursive_step, step_instance
from allowseq.engine import (INF, BlockSwap, FileSink, FlipStep, ListSink,
                             StatsSink, TraceRecorder, expand_steps,
                             flip_imbalance, iter_trace_file, min_deviation,
                             parse_trace, single_step, verify_stream,
                             verify_trace)
from allowseq.errors import ConstructionBug, ContractError, RangeError
from allowseq.seqcore import (Block, CentredSequence, Flip, Window,
                              identity_sequence)
from conftest import (LooseStep, as_v1, bubble_pairs, five_element_steps,
                      random_trace_material)


def test_fresh_recorder_is_empty_and_replays_to_itself():
    s = identity_sequence(-3, 3)
    tr = TraceRecorder(s, Window(1))
    assert tr.step_count == 0 and tr.to_trace().annotations == ()
    rep = verify_trace(tr.to_trace())
    assert rep.allowable and rep.min_deviation == INF
    assert not rep.reaches_reversal


def _refuse(rec):
    raise ContractError("refused inside")


def _bug(rec):
    rec.bug("broken inside")


@pytest.mark.parametrize("fail, exc", [(_refuse, ContractError),
                                       (_bug, ConstructionBug)],
                         ids=["contract-error", "construction-bug"])
@pytest.mark.parametrize("to_file", [False, True], ids=["list", "file"])
def test_scopes_close_when_their_body_raises(fail, exc, to_file):
    fh = io.StringIO()
    rec = TraceRecorder(identity_sequence(-2, 2), Window(0),
                        sink=FileSink(fh) if to_file else None)
    with pytest.raises(exc, match="inside"):
        with rec.annotate("outer"):
            rec.emit_flip(1, 2)
            with rec.annotate("inner"):
                fail(rec)
    assert rec._ann_stack == []
    tr = parse_trace(fh.getvalue()) if to_file else rec.to_trace()
    assert tr.annotations == ((0, 1, "begin outer"), (1, 2, "begin inner"),
                              (1, 2, "end inner"), (1, 1, "end outer"))


def test_emit_step_window_rules():
    tr = TraceRecorder(identity_sequence(-2, 2), Window(0))
    tr.emit_step(FlipStep([Flip(1, 2)]))
    tr.emit_step(FlipStep([Flip(-2, -1)]))
    tr2 = TraceRecorder(identity_sequence(-2, 2), Window(0))
    tr2.emit_step(FlipStep([Flip(-1, 0)]))  # midpoint -1/2 clears [0, 0]
    tr3 = TraceRecorder(identity_sequence(-2, 2), Window(1))
    with pytest.raises(ConstructionBug):
        tr3.emit_step(FlipStep([Flip(0, 1)]))  # midpoint 1/2 inside [-1, 1]


def test_emit_step_two_disjoint_at_once():
    tr = TraceRecorder(identity_sequence(-2, 2), Window(0))
    tr.emit_step(FlipStep([Flip(1, 2), Flip(-2, -1)]))
    assert tr.values(-2, 2) == (-1, -2, 0, 2, 1)
    assert tr.step_count == 1 and tr.flip_count == 2


def test_flipstep_rejects_overlap():
    with pytest.raises(ContractError):
        FlipStep([Flip(1, 3), Flip(3, 4)])


@pytest.mark.parametrize("make, message", [
    (lambda: CentredSequence(0, []), "must be nonempty"),
    (lambda: CentredSequence(0, [1, 1]), "must be injective"),
    (lambda: Block([1, 1]), "must be pairwise distinct"),
    (lambda: FlipStep([]), "at least one flip"),
], ids=["empty-sequence", "repeated-value", "repeated-block-value",
        "empty-step"])
def test_value_types_refuse_bad_values(make, message):
    with pytest.raises(ContractError, match=message):
        make()


def test_recorder_refuses_reads_it_cannot_answer():
    tr = TraceRecorder(identity_sequence(-2, 2), Window(0))
    with pytest.raises(RangeError, match=r"\[-3, 0\] outside \[-2, 2\]"):
        tr.values(-3, 0)
    with pytest.raises(RangeError, match=r"\[0, 3\] outside \[-2, 2\]"):
        tr.values(0, 3)
    stats = TraceRecorder(identity_sequence(-2, 2), Window(0),
                          sink=StatsSink())
    with pytest.raises(ContractError, match="only ListSink"):
        stats.to_trace()


def test_five_element_example_verifies():
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        tr.emit_step(step)
    rep = verify_trace(tr.to_trace())
    assert rep.allowable and rep.all_valid and rep.reaches_reversal
    assert rep.min_deviation == 0
    assert rep.flip_count == 6 and rep.step_count == 4


def test_swap_adjacent_blocks_canonical_schedule():
    # left = (1, 2) at [3, 4], right = (5) at [5, 5]
    tr = TraceRecorder(CentredSequence(3, (1, 2, 5)), Window(0))
    tr.swap_adjacent_blocks((3, 4), (5, 5))
    assert tr.values(3, 5) == (5, 1, 2)
    assert tr.sink.steps == [BlockSwap(3, 2, 1)]
    steps = [s.flips[0] for s in expand_steps(tr.sink.steps)]
    assert [(f.c, f.d) for f in steps] == [(4, 5), (3, 4)]


def test_swap_empty_side_is_noop():
    tr = TraceRecorder(identity_sequence(0, 4), Window(0))
    tr.swap_adjacent_blocks((1, 0), (1, 4))
    tr.swap_adjacent_blocks((1, 4), (5, 4))
    assert tr.flip_count == 0


def test_swap_inside_window_fails():
    tr = TraceRecorder(identity_sequence(-2, 2), Window(1))
    with pytest.raises(ConstructionBug):
        tr.swap_adjacent_blocks((0, 0), (1, 2))


def test_swap_straddling_zero_clears_the_window_only_at_t0():
    # At t = 0 no midpoint p + 1/2 lies in [0, 0], so a region across 0
    # is allowed; at t = 1 the same move crosses [-1, 1].
    tr = TraceRecorder(identity_sequence(-1, 1), Window(0))
    tr.swap_adjacent_blocks((-1, 0), (1, 1))
    assert tr.values(-1, 1) == (1, -1, 0)
    assert tr.sink.steps == [BlockSwap(-1, 2, 1)]
    assert tr.min_deviation == Fraction(1, 2)
    rep = verify_trace(tr.to_trace())
    assert rep.allowable and rep.all_valid
    assert rep.min_deviation == Fraction(1, 2)
    tr = TraceRecorder(identity_sequence(-1, 1), Window(1))
    with pytest.raises(ConstructionBug):
        tr.swap_adjacent_blocks((-1, 0), (1, 1))
    assert tr.flip_count == 0


def test_swap_requires_precedence():
    tr = TraceRecorder(CentredSequence(1, (5, 1)), Window(0))
    with pytest.raises(ConstructionBug):
        tr.swap_adjacent_blocks((1, 1), (2, 2))


@pytest.mark.parametrize("left, right, exc, message", [
    ((-4, -3), (-1, -1), ConstructionBug, "are not adjacent"),
    ((-5, -4), (-3, -3), RangeError, r"interval \[-5, -4\] outside \[-4, 4\]"),
    ((3, 4), (5, 5), RangeError, r"interval \[5, 5\] outside \[-4, 4\]"),
    ((2, 2), (3, 3), ConstructionBug, "does not precede"),
    ((-2, -1), (0, 0), ConstructionBug, "would cross the window"),
], ids=["not adjacent", "left outside", "right outside", "not below",
        "across the window"])
def test_swap_refusal_changes_nothing(left, right, exc, message):
    # The state after one flip: positions 2 and 3 hold 3 and 2.
    tr = TraceRecorder(identity_sequence(-4, 4), Window(1))
    tr.emit_flip(2, 3)
    before = (tr.values(-4, 4), tr.flip_count, tr.step_count,
              tr.min_deviation, list(tr.sink.steps))
    with pytest.raises(exc, match=message):
        tr.swap_adjacent_blocks(left, right)
    assert (tr.values(-4, 4), tr.flip_count, tr.step_count,
            tr.min_deviation, tr.sink.steps) == before


@given(st.integers(1, 6), st.integers(1, 6), st.booleans())
@settings(max_examples=40)
def test_swap_batch_equals_its_transpositions_one_by_one(a, b, right_side):
    lo = 2 if right_side else -a - b - 2
    vals = list(range(50, 50 + a)) + list(range(100, 100 + b))
    rec = TraceRecorder(CentredSequence(lo, vals), Window(1))
    left, right = (lo, lo + a - 1), (lo + a, lo + a + b - 1)
    rec.swap_adjacent_blocks(left, right)
    # The reference replays every transposition the batch recorded, each
    # validated on its own by emit_flip.
    ref = TraceRecorder(CentredSequence(lo, vals), Window(1))
    for step in expand_steps(rec.sink.steps):
        (f,) = step.flips
        ref.emit_flip(f.c, f.d)
    span = (lo, lo + a + b - 1)
    assert rec.values(*span) == ref.values(*span) == tuple(vals[a:] + vals[:a])
    assert rec.flip_count == ref.flip_count == a * b
    assert rec.step_count == ref.step_count == a * b
    assert rec.min_deviation == ref.min_deviation
    assert list(expand_steps(rec.sink.steps)) == ref.sink.steps


# One case per check of the emit path: (initial, window, bad flip, message).
BAD_FLIPS = [
    (identity_sequence(-2, 2), Window(0), (2, 3), "out of bounds"),
    (CentredSequence(-2, (-2, -1, 0, 2, 1)), Window(0), (1, 2),
     "is not an increasing run"),
    # ends increasing, middle not
    (CentredSequence(-2, (-2, -1, 0, 2, 1)), Window(0), (0, 2),
     "is not an increasing run"),
    (identity_sequence(-2, 2), Window(1), (0, 1),
     "has midpoint inside the window"),
]


@pytest.mark.parametrize("initial, window, flip, reason", BAD_FLIPS,
                         ids=["bounds", "run", "long-run", "window"])
def test_emit_flip_and_emit_step_reject_alike(initial, window, flip, reason):
    raised = []
    for emit in (lambda tr: tr.emit_flip(*flip),
                 lambda tr: tr.emit_step(FlipStep([Flip(*flip)]))):
        with pytest.raises(ConstructionBug) as exc:
            emit(TraceRecorder(initial, window))
        raised.append((str(exc.value), exc.value.flip))
    assert raised[0] == raised[1] == (f"flip [{flip[0]}, {flip[1]}] {reason}",
                                      flip)


@pytest.mark.parametrize("initial, window, flip, reason", BAD_FLIPS,
                         ids=["bounds", "run", "long-run", "window"])
def test_step_with_one_bad_flip_changes_nothing(initial, window, flip, reason):
    tr = TraceRecorder(initial, window)
    before = (tr.values(tr.lo, tr.hi), tr.flip_count, tr.step_count, tr.min_deviation,
              list(tr.sink.steps))
    # [-2, -1] is valid in every case and comes first in the step.
    with pytest.raises(ConstructionBug, match=reason):
        tr.emit_step(FlipStep([Flip(-2, -1), Flip(*flip)]))
    assert (tr.values(tr.lo, tr.hi), tr.flip_count, tr.step_count, tr.min_deviation,
            tr.sink.steps) == before


@pytest.mark.parametrize("base", [StatsSink, ListSink])
@pytest.mark.parametrize("flips", [(Flip(1, 3), Flip(2, 4)),
                                   (Flip(4, 5), Flip(1, 2))],
                         ids=["overlapping", "out-of-order"])
def test_loose_step_is_refused_before_any_change(base, flips):
    received = []

    class Recording(base):
        def on_step(self, step):
            received.append(step)
            super().on_step(step)

    tr = TraceRecorder(identity_sequence(1, 6), Window(0), sink=Recording())
    with pytest.raises(ConstructionBug, match="overlaps or precedes"):
        tr.emit_step(LooseStep(flips))
    assert tr.values(1, 6) == (1, 2, 3, 4, 5, 6)
    assert (tr.flip_count, tr.step_count, tr.min_deviation) == (0, 0, INF)
    assert received == []


def test_sort_region_decreasing():
    tr = TraceRecorder(CentredSequence(2, (4, 9, 1, 7, 3)), Window(1))
    tr.sort_region_decreasing((2, 6))
    assert tr.values(2, 6) == (9, 7, 4, 3, 1)
    rep = verify_trace(tr.to_trace())
    assert rep.all_valid
    # already decreasing: zero flips
    before = tr.flip_count
    tr.sort_region_decreasing((2, 6))
    assert tr.flip_count == before


def test_sort_region_of_one_cell_emits_nothing():
    sink = ListSink()
    tr = TraceRecorder(identity_sequence(-3, 3), Window(1), sink=sink)
    tr.sort_region_decreasing((2, 2))
    assert (tr.flip_count, tr.step_count, sink.steps) == (0, 0, [])


def test_sort_region_increasing_right_of_window_is_single_flip():
    tr = TraceRecorder(identity_sequence(-5, 5), Window(1))
    tr.sort_region_decreasing((2, 5))
    assert tr.flip_count == 1


@given(st.data())
@settings(max_examples=60)
def test_sort_region_flip_budget(data):
    size = data.draw(st.integers(2, 20))
    vals = data.draw(st.lists(st.integers(0, 400), min_size=size,
                              max_size=size, unique=True))
    tr = TraceRecorder(CentredSequence(2, vals), Window(1))
    tr.sort_region_decreasing((2, size + 1))
    assert tr.values(2, size + 1) == tuple(sorted(vals, reverse=True))
    assert tr.flip_count <= size * size


def test_rearrange_region():
    tr = TraceRecorder(CentredSequence(3, (2, 9, 4, 7)), Window(0))
    tr.rearrange_region((3, 6), (9, 2, 7, 4))
    assert tr.values(3, 6) == (9, 2, 7, 4)
    rep = verify_trace(tr.to_trace())
    assert rep.allowable and rep.all_valid
    # a descending pair cannot be swapped by an ascending transposition
    tr = TraceRecorder(CentredSequence(1, (2, 1)), Window(0))
    with pytest.raises(ConstructionBug, match="cannot swap"):
        tr.rearrange_region((1, 2), (1, 2))
    with pytest.raises(ConstructionBug, match="not a permutation"):
        tr.rearrange_region((1, 2), (2, 3))
    assert tr.values(1, 2) == (2, 1) and tr.flip_count == 0


def _rearrange_by_lists(rec, region, target):
    """The quadratic rearrangement, with list index, pop and insert: the
    reference whose swaps TraceRecorder.rearrange_region must repeat."""
    rlo, rhi = region
    cur = list(rec.values(rlo, rhi))
    tgt = list(target)
    if sorted(cur) != sorted(tgt):
        rec.bug("rearrange target is not a permutation of the region")
    placed = rhi + 1
    for v in reversed(tgt):
        idx = rlo + cur.index(v)
        if idx == placed - 1:
            placed -= 1
            continue
        rec.swap_adjacent_blocks((idx, idx), (idx + 1, placed - 1))
        cur.pop(idx - rlo)
        cur.insert(placed - 1 - rlo, v)
        placed -= 1


def _rearranged(vals, region, target, how):
    """(error text or None, steps, final values) of one rearrangement."""
    sink = ListSink()
    rec = TraceRecorder(CentredSequence(-3, vals), Window(0), sink=sink)
    try:
        how(rec, region, target)
        err = None
    except ConstructionBug as exc:
        err = str(exc)
    return err, sink.steps, rec.values(rec.lo, rec.hi)


def test_rearrange_region_matches_list_reference():
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        size = rng.randint(1, 40)
        vals = rng.sample(range(-60, 60), size + 5)
        rlo = rng.randint(-3, 1)
        region, i = (rlo, rlo + size - 1), rlo + 3
        if seed % 3:   # a sorted region reaches every target; one
            # transposition in it makes some fail part way
            vals[i:i + size] = sorted(vals[i:i + size])
            for _ in range(seed % 3 - 1):
                j, k = i + rng.randrange(size), i + rng.randrange(size)
                vals[j], vals[k] = vals[k], vals[j]
        target = rng.sample(vals[i:i + size], size)
        if seed % 10 == 9:
            target[rng.randrange(size)] = 100
        want = _rearranged(vals, region, target, _rearrange_by_lists)
        got = _rearranged(vals, region, target,
                          TraceRecorder.rearrange_region)
        assert got == want
        err = want[0] and want[0].split(":")[0]
        outcomes.add((err, bool(want[1])))
        if err is None:
            assert list(got[2][i:i + size]) == target
    assert outcomes >= {(None, True), ("cannot swap", True),
                        ("cannot swap", False), (
                            "rearrange target is not a permutation of the "
                            "region", False)}


def test_min_deviation_values():
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    tr.emit_step(FlipStep([Flip(1, 2)]))
    assert min_deviation(tr.to_trace()) == Fraction(3, 2)
    tr.emit_step(FlipStep([Flip(2, 4)]))
    assert min_deviation(tr.to_trace()) == 0
    # No flips yet: INF, as a VerificationReport has it.
    fresh = TraceRecorder(identity_sequence(1, 3), Window(0))
    assert fresh.min_deviation == min_deviation(fresh.to_trace()) == INF


def test_flip_imbalance():
    assert flip_imbalance(5, Flip(1, 2)) == 3
    assert flip_imbalance(5, Flip(2, 4)) == 0
    with pytest.raises(RangeError):
        flip_imbalance(5, Flip(0, 2))


@given(st.integers(2, 12))
def test_flip_imbalance_identities(n):
    for c in range(1, n + 1):
        for d in range(c, n + 1):
            f = Flip(c, d)
            imb = flip_imbalance(n, f)
            dev = abs(Fraction(c + d, 2) - Fraction(n + 1, 2))
            assert imb == 2 * dev
            assert imb % 2 == (n - f.size) % 2


def test_verifier_reports_bad_run_and_window():
    initial = identity_sequence(1, 4)
    steps = [FlipStep([Flip(1, 2)]), FlipStep([Flip(1, 2)])]
    rep = verify_stream(initial, Window(0), steps)
    assert not rep.allowable
    assert rep.first_violation[0] == 1
    # window-only violation: flip valid as a run but inside [-t, t]
    rep = verify_stream(identity_sequence(-2, 2), Window(1),
                        [FlipStep([Flip(0, 1)])])
    assert rep.allowable and not rep.all_valid


def test_verifier_lockstep_with_recorder(rng):
    for _ in range(200):
        initial, steps = random_trace_material(rng)
        state = list(initial.values)
        lo = initial.lo
        for step in steps:
            for f in step.flips:
                i, j = f.c - lo, f.d - lo + 1
                state[i:j] = state[i:j][::-1]
        rep = verify_stream(initial, Window(0), steps)
        # final state independent recomputation
        tr = TraceRecorder(initial, Window(0))
        ok = True
        for step in steps:
            try:
                tr.emit_step(step)
            except ConstructionBug:
                ok = False
                break
        if ok:
            assert list(tr.values(tr.lo, tr.hi)) == state
            assert rep.allowable


def reference_verify(initial, window, steps):
    """verify_stream's report the slow way: every flip sliced, compared
    with its sorted copy, reversed and spliced back, and every BlockSwap
    replayed as the one-flip steps of bubble_pairs."""
    lo, hi = initial.lo, initial.hi
    vals = list(initial.values)
    centre2 = lo + hi
    t2 = 2 * window.t
    allowable = all_valid = True
    first_violation = None
    min_dev2 = None
    steps_n = flips_n = 0

    def violate(idx, flip, reason):
        nonlocal allowable, all_valid, first_violation
        allowable = all_valid = False
        if first_violation is None:
            first_violation = (idx, flip, reason)

    for step in steps:
        if isinstance(step, BlockSwap):
            one_flip_steps = [[pair] for pair in
                              bubble_pairs(step.lo, step.a, step.b)]
        else:
            one_flip_steps = [[(f.c, f.d) for f in step.flips]]
        for flips in one_flip_steps:
            steps_n += 1
            flips_n += len(flips)
            prev_d = None
            for c, d in flips:
                if not (lo <= c <= d <= hi):
                    violate(steps_n - 1, (c, d), "out of bounds")
                    continue
                if prev_d is not None and c <= prev_d:
                    violate(steps_n - 1, (c, d),
                            "overlapping flips in one step")
                prev_d = d
                i, j = c - lo, d - lo + 1
                run = vals[i:j]
                if run != sorted(run):
                    violate(steps_n - 1, (c, d), "run not strictly increasing")
                if abs(c + d) <= t2 and all_valid:
                    all_valid = False
                    if first_violation is None:
                        first_violation = (steps_n - 1, (c, d),
                                           "midpoint inside window")
                dev2 = abs(c + d - centre2)
                if min_dev2 is None or dev2 < min_dev2:
                    min_dev2 = dev2
                run.reverse()
                vals[i:j] = run

    return engine.VerificationReport(
        allowable=allowable,
        all_valid=all_valid and allowable,
        reaches_reversal=vals == list(reversed(initial.values)),
        min_deviation=INF if min_dev2 is None else Fraction(min_dev2, 2),
        step_count=steps_n,
        flip_count=flips_n,
        first_violation=first_violation,
    )


def one_flip_outcome(state, lo, hi, t2, c, d):
    """How the one-flip step [c, d] fares on state, which holds the
    positions lo..hi: the first test it fails, or the kind of valid flip
    it is."""
    if c < lo:
        return "below lo"
    if d > hi:
        return "above hi"
    if abs(c + d) <= t2:
        return "midpoint inside window"
    run = state[c - lo:d - lo + 1]
    if run != sorted(run):
        return "run not increasing"
    if c == d:
        return "one value"
    return "adjacent" if d == c + 1 else "longer run"


def loop_flip_outcome(state, lo, hi, t2, prev_d, c, d):
    """How the flip [c, d] of a multi-flip step fares on state, after
    in-bounds flips of its step that end at prev_d: the first check of
    the per-flip loop it fails, or the kind of valid flip it is."""
    if not (lo <= c <= d <= hi):
        return "out of bounds"
    if c <= prev_d:
        return "overlap"
    run = state[c - lo:d - lo + 1]
    if run != sorted(run):
        return "run not increasing"
    if abs(c + d) <= t2:
        return "midpoint inside window"
    if c == d:
        return "one value"
    return "adjacent" if d == c + 1 else "longer run"


def _extent(step):
    pairs = (list(step) if isinstance(step, BlockSwap)
             else [(f.c, f.d) for f in step.flips])
    return min(c for c, _ in pairs), max(d for _, d in pairs)


def _apply(state, lo, step):
    pairs = (list(step) if isinstance(step, BlockSwap)
             else [(f.c, f.d) for f in step.flips])
    for c, d in pairs:
        if lo <= c <= d <= lo + len(state) - 1:
            state[c - lo:d - lo + 1] = state[c - lo:d - lo + 1][::-1]


def _argsort(vals):
    return sorted(range(len(vals)), key=vals.__getitem__)


def with_shapes(rng, initial, steps):
    """The steps with some short runs of them written as shapes: a run
    whose moves lie in one span inside the domain becomes Define, the
    run and End, and Replays of its shape follow at random places.
    Returns the marked entries, their expansion, and for each replay
    whether its span held the order of the shape's start ("valid
    replay") or not ("broken replay")."""
    lo, hi = initial.lo, initial.hi
    state = list(initial.values)
    marked, expanded, kinds = [], [], []
    shapes = []  # (id, lo, hi, body, argsort of the starting values)
    i = 0
    while i < len(steps):
        r = rng.random()
        if shapes and r < 0.3 and len(kinds) < 8:
            sid, a, b, body, order = rng.choice(shapes)
            kinds.append("valid replay"
                         if _argsort(state[a - lo:b - lo + 1]) == order
                         else "broken replay")
            marked.append(engine.Replay(sid))
            for step in body:
                expanded.append(step)
                _apply(state, lo, step)
            continue
        run = steps[i:i + rng.randint(1, 3)]
        a = min(_extent(step)[0] for step in run)
        b = max(_extent(step)[1] for step in run)
        if r < 0.6 and lo <= a and b <= hi:
            sid = len(shapes)
            shapes.append((sid, a, b, run, _argsort(state[a - lo:b - lo + 1])))
            marked += [engine.Define(sid, a, b), *run, engine.End(sid)]
        else:
            run = run[:1]
            marked += run
        for step in run:
            expanded.append(step)
            _apply(state, lo, step)
        i += len(run)
    return marked, expanded, kinds


def test_verifier_matches_per_flip_reference():
    rng = random.Random(20)
    shape_rng = random.Random(21)
    seen = set()
    one_flip = {}
    in_loop = {}  # flips of multi-flip steps and LooseSteps
    for _ in range(3000):
        initial, steps = random_trace_material(rng, max_n=9, mixed=True)
        window = Window(rng.choice((0, 1, 2)))
        rep = verify_stream(initial, window, steps)
        assert rep == reference_verify(initial, window, steps)
        seen.add(rep.first_violation and rep.first_violation[2])
        seen.update(type(step).__name__ for step in steps)
        # The same steps with shapes: the report is the expansion's.
        marked, expanded, kinds = with_shapes(shape_rng, initial, steps)
        assert verify_stream(initial, window, marked) == \
            reference_verify(initial, window, expanded)
        seen.update(kinds)
        # Tally the one-flip steps, and each flip of the other FlipSteps
        # and LooseSteps, by the state each one meets.
        lo, hi = initial.lo, initial.hi
        state = list(initial.values)
        for step in steps:
            pairs = (list(step) if isinstance(step, BlockSwap)
                     else [(f.c, f.d) for f in step.flips])
            loop = len(pairs) > 1 and not isinstance(step, BlockSwap)
            if len(pairs) == 1 and not isinstance(step, BlockSwap):
                outcome = one_flip_outcome(state, lo, hi, 2 * window.t,
                                           *pairs[0])
                one_flip[outcome] = one_flip.get(outcome, 0) + 1
            prev_d = lo - 1
            for c, d in pairs:
                if loop:
                    outcome = loop_flip_outcome(state, lo, hi, 2 * window.t,
                                                prev_d, c, d)
                    in_loop[outcome] = in_loop.get(outcome, 0) + 1
                if lo <= c <= d <= hi:
                    prev_d = d
                    state[c - lo:d - lo + 1] = state[c - lo:d - lo + 1][::-1]
    assert seen == {None, "out of bounds", "overlapping flips in one step",
                    "run not strictly increasing", "midpoint inside window",
                    "FlipStep", "BlockSwap", "LooseStep", "valid replay",
                    "broken replay"}
    assert set(one_flip) == {"adjacent", "longer run", "one value",
                             "below lo", "above hi", "midpoint inside window",
                             "run not increasing"}
    assert min(one_flip.values()) >= 10, one_flip
    assert set(in_loop) == {"adjacent", "longer run", "one value",
                            "out of bounds", "overlap", "run not increasing",
                            "midpoint inside window"}
    assert min(in_loop.values()) >= 10, in_loop


def test_verifier_reports_with_no_deviation_to_take():
    window = Window(0)
    cases = [
        (identity_sequence(1, 3), []),  # no steps at all
        (CentredSequence(4, [7]), []),
        # only flips outside the domain
        (identity_sequence(1, 3), [FlipStep([Flip(0, 1)]),
                                   FlipStep([Flip(3, 4)]),
                                   FlipStep([Flip(-2, -1), Flip(4, 4)])]),
    ]
    for initial, steps in cases:
        rep = verify_stream(initial, window, steps)
        assert rep == reference_verify(initial, window, steps)
        assert rep.min_deviation == INF
        assert (rep.step_count, rep.flip_count) == (len(steps),
                                                    sum(len(s.flips)
                                                        for s in steps))
        assert rep.allowable == (not steps)


@pytest.mark.parametrize("lo, valid", [(4, True), (0, False), (-3, True)])
def test_verifier_one_cell_domain(lo, valid):
    # The one flip [lo, lo] sits at the centre: deviation 0, below the
    # sentinel hi - lo + 2 = 2.  At lo = 0 its midpoint lies in [-0, 0].
    initial = CentredSequence(lo, [7])
    steps = [FlipStep([Flip(lo, lo)])]
    rep = verify_stream(initial, Window(0), steps)
    assert rep == reference_verify(initial, Window(0), steps)
    assert rep.min_deviation == 0
    assert rep.allowable and rep.reaches_reversal
    assert rep.all_valid == valid
    assert (rep.step_count, rep.flip_count) == (1, 1)


def test_stats_sink_counts_match_list_sink():
    from allowseq.construction import shift, shift_instance

    rec1, a, b, c = shift_instance(1, 9)
    shift(rec1, a, b, c)
    rec2, a, b, c = shift_instance(1, 9, sink=StatsSink())
    shift(rec2, a, b, c)
    assert rec1.flip_count == rec2.flip_count
    assert rec1.min_deviation == rec2.min_deviation
    assert rec1.values(rec1.lo, rec1.hi) == rec2.values(rec2.lo, rec2.hi)


def step_trace(sink=None):
    """The growth step at (t, d, k) = (0, 9, 1) recorded into sink."""
    rec = step_instance(0, 9, 1, 1, sink=sink)
    recursive_step(rec, 9, 1, 1, strict_certificates=False)
    return rec


def test_one_flip_steps_are_shared():
    fh = io.StringIO()
    step_trace(FileSink(fh))
    text = as_v1(fh.getvalue())
    lines = [line for line in text.splitlines()[3:] if line[0] in "FS"]
    fresh = []
    for line in lines:
        nums = [int(x) for x in line.split()[1:]]
        fresh.append(FlipStep([Flip(c, d)
                               for c, d in zip(nums[::2], nums[1::2])]))
    parsed = parse_trace(text)
    listed = step_trace().to_trace()
    expanded = list(expand_steps(listed.steps))
    assert list(parsed.steps) == fresh == expanded
    assert parse_trace(fh.getvalue()) == listed
    by_line, by_flips = {}, {}
    for line, step, kept in zip(lines, parsed.steps, expanded):
        assert by_line.setdefault(line, step) is step
        if len(kept.flips) == 1:
            assert by_flips.setdefault(kept.flips, kept) is kept
    assert len(by_line) < len(lines) // 10  # the trace repeats its lines
    # In the written file a repeated step line, `B` lines included, yields
    # the object its first occurrence parsed to.
    text = fh.getvalue()
    lines = [line for line in text.splitlines()[3:] if line[0] != "#"]
    _, steps = iter_trace_file(io.StringIO(text))
    by_line = {}
    for line, step in zip(lines, steps, strict=True):
        assert by_line.setdefault(line, step) is step
        assert isinstance(step, BlockSwap) == (line[0] == "B")
    swaps = [line for line in lines if line[0] == "B"]
    assert len(set(swaps)) < len(swaps)


def test_shared_steps_are_verified_afresh():
    # the second `F 1 2` meets the values 2, 1 its first occurrence left
    text = "ALLOWSEQ v1\nt=0 lo=1 hi=4\n1 2 3 4\nF 3 4\nF 1 2\nF 1 2\n"
    (window, initial), steps = iter_trace_file(io.StringIO(text))
    rep = verify_stream(initial, window, steps)
    assert rep.first_violation == (2, (1, 2), "run not strictly increasing")
    # the same step object clears the window t=0 and falls inside t=1
    for t, violation in ((0, None), (1, (1, (0, 1), "midpoint inside window"))):
        text = f"ALLOWSEQ v1\nt={t} lo=-2 hi=2\n-2 -1 0 1 2\nF -2 -1\nF 0 1\n"
        (window, initial), steps = iter_trace_file(io.StringIO(text))
        steps = list(steps)
        assert steps[1] is single_step(0, 1)
        assert verify_stream(initial, window, steps).first_violation == violation


def test_single_step_cap_changes_nothing(monkeypatch):
    def build():
        fh = io.StringIO()
        step_trace(FileSink(fh))
        text = fh.getvalue()
        assert "\nB " in text and "\nF " in text
        tr = step_trace().to_trace()
        (window, initial), steps = iter_trace_file(io.StringIO(text))
        return (text, tr, parse_trace(text), verify_trace(tr),
                verify_stream(initial, window, steps))

    default = build()
    monkeypatch.setattr(engine, "_SINGLE_STEP_CAP", 4)
    monkeypatch.setattr(engine, "_single_steps", {})
    assert build() == default
    assert 0 < len(engine._single_steps) <= 4
