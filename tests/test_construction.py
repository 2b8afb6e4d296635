import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allowseq import construction
from allowseq.construction import (ConstructionFailure, Decomposition,
                                   MirrorView, SegmentMap,
                                   decompose_balanced, finish_pipeline,
                                   full_construction, recursive_step, reflect,
                                   reflect_instance, reflect_mirrored, shift,
                                   shift_instance, shift_mirrored,
                                   step_instance)
from allowseq.engine import StatsSink, TraceRecorder, verify_trace
from allowseq.errors import ConstructionBug, ContractError, RefusalError
from allowseq.oracle import sample_balanced_block
from allowseq.planner import (SizePlan, beta_closed, plan_sizes,
                              shift_thresholds)
from allowseq.seqcore import (Block, CentredSequence, Window,
                              apply_block_flip, identity_sequence,
                              is_r_balanced, is_valid_flip_block, width)
from conftest import (SYNTHETIC_MIDDLES, block_moves, finishing_state,
                      synthetic_finishing_state)


# -- shifting ---------------------------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 2])
def test_shift_minimal(t):
    n = 3 ** (2 * t)
    rec, a, b, c = shift_instance(t, n)
    cvals = rec.values(*c)
    win, d_iv = shift(rec, a, b, c)
    assert rec.values(-t, t) == cvals
    dv = rec.values(*d_iv)
    assert all(x > y for x, y in zip(dv, dv[1:]))
    rep = verify_trace(rec.to_trace())
    assert rep.allowable and rep.all_valid
    assert rec.min_deviation >= Fraction(2 * t + 1, 2)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_shift_rejects_below_bound(t):
    n = 3 ** (2 * t) - 1
    if n == 0:
        rec, a, b, c = shift_instance(t, 1)
        with pytest.raises(ContractError):
            shift(rec, a, (b[0], b[0] - 1), (b[0], b[0] + 2 * t))
    else:
        rec, a, b, c = shift_instance(t, n)
        with pytest.raises(ContractError):
            shift(rec, a, b, c)


def test_shift_larger_b_and_decreasing_c():
    # shift_instance's layout at t = 1, n = 23, with C's values reversed
    t, n = 1, 23
    M = t + n + 2 * t + 1
    vals = list(range(-M, M + 1))
    c_iv = (t + n + 1, t + n + 2 * t + 1)
    vals[M + c_iv[0] : M + c_iv[1] + 1] = reversed(
        vals[M + c_iv[0] : M + c_iv[1] + 1])
    rec = TraceRecorder(CentredSequence(-M, vals), Window(t))
    cvals = rec.values(*c_iv)
    assert cvals == (27, 26, 25)
    shift(rec, (-t, t), (t + 1, t + n), c_iv)
    assert rec.values(-t, t) == cvals
    assert verify_trace(rec.to_trace()).all_valid


def test_shift_mirrored():
    t, n = 1, 9
    M = t + n + 2 * t + 1
    vals = list(range(-M, M + 1))
    rec = TraceRecorder(CentredSequence(-M, vals), Window(t))
    c_iv = (-t - n - 2 * t - 1, -t - n - 1)
    b_iv = (-t - n, -t - 1)
    cvals = rec.values(*c_iv)
    shift_mirrored(rec, (-t, t), b_iv, c_iv)
    assert rec.values(-t, t) == cvals
    assert verify_trace(rec.to_trace()).all_valid


# -- reflection ---------------------------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("xsize", [1, 3])
def test_reflect_minimal(t, xsize):
    n = 3 ** (2 * t) + 4 * t + 2
    rec, x, a, b, c = reflect_instance(t, n, xsize)
    bvals, cvals = rec.values(*b), rec.values(*c)
    cb, win, e = reflect(rec, x, a, b, c)
    assert rec.values(-t, t) == tuple(reversed(bvals[-(2 * t + 1):]))
    assert rec.values(*cb) == tuple(reversed(cvals))
    ev = rec.values(*e)
    assert all(p > q for p, q in zip(ev, ev[1:]))
    assert min(rec.values(-t, t)) > max(ev)
    rep = verify_trace(rec.to_trace())
    assert rep.allowable and rep.all_valid


def test_reflect_rejects_size_mismatch_and_small_b():
    rec, x, a, b, c = reflect_instance(1, 15, 2)
    with pytest.raises(ContractError):
        reflect(rec, (x[0] + 1, x[1]), a, b, c)
    rec, x, a, b, c = reflect_instance(1, 14, 1)
    with pytest.raises(ContractError):
        reflect(rec, x, a, b, c)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_reflect_mirrored(t):
    n = 3 ** (2 * t) + 4 * t + 2
    rec, x, a, b, c = reflect_instance(t, n, 2, mirrored=True)
    bvals, cvals = rec.values(*b), rec.values(*c)
    cb, win, e = reflect_mirrored(rec, x, a, b, c)
    assert rec.values(-t, t) == tuple(reversed(bvals[: 2 * t + 1]))
    assert rec.values(*cb) == tuple(reversed(cvals))
    ev = rec.values(*e)
    assert all(p > q for p, q in zip(ev, ev[1:]))
    assert max(rec.values(-t, t)) < min(ev)
    assert verify_trace(rec.to_trace()).all_valid


# -- decomposition ------------------------------------------------------------


def test_decompose_all_negative_single_piece():
    b = Block((-5, -3, -1))
    dec = decompose_balanced(b, 2)
    assert dec.k == 1 and dec.blocks[0] == b
    assert block_moves(b, dec.result) == []


def test_decompose_simple():
    b = Block((-3, -2, -1, 1, 2))
    dec = decompose_balanced(b, 1)
    assert dec.k == 1
    assert len([v for v in dec.blocks[0] if v < 0]) == 3


def test_decompose_rejects_unbalanced():
    with pytest.raises(ContractError):
        decompose_balanced(Block((1, -1)), 1)


def _check_decomposition(b, r, dec):
    r_int = int(Fraction(r))
    # replay the block moves with per-flip validity
    cur = b
    for f in block_moves(b, dec.result):
        assert is_valid_flip_block(cur, f)
        cur = apply_block_flip(cur, f)
    assert cur == dec.result
    assert cur.values == tuple(v for blk in dec.blocks for v in blk)
    pos = Block(v for v in b if v > 0)
    if len(pos):
        assert dec.k == width(pos)
    negs_prev_max = None
    for blk in dec.blocks:
        assert all(p < q for p, q in zip(blk, blk[1:]))
        negs = [v for v in blk if v < 0]
        if len(pos):
            assert len(negs) >= r_int
        if negs and negs_prev_max is not None:
            assert negs_prev_max < min(negs)
        if negs:
            negs_prev_max = max(negs)


@pytest.mark.parametrize("r", [1, 2, Fraction(7, 2), 5])
def test_decompose_sampled_blocks(r):
    for seed in range(25):
        b = sample_balanced_block(36, r, seed)
        dec = decompose_balanced(b, r)
        _check_decomposition(b, r, dec)


# -- the recursive step ---------------------------------------------------------


def test_step_base_case_layouts():
    for t in (0, 1):
        d = 9 * 3 ** (2 * t)
        rec = step_instance(t, d, 0, 1)
        out = recursive_step(rec, d, 0, 1)
        assert out.all_passed
        lay = out.layout
        assert lay.L[0] > lay.L[1]                   # empty
        assert lay.W == (-t - 2, -t - 1)             # reversed block of size n+1
        rep = verify_trace(rec.to_trace())
        assert rep.allowable and rep.all_valid


def test_step_t0_k1_certificates():
    rec = step_instance(0, 9, 1, 1)
    out = recursive_step(rec, 9, 1, 1, strict_certificates=False)
    by_index = {c.index: c.passed for c in out.certificates}
    # conditions 1-6 hold; the negative budget (7) and hence (8) fall
    # short at t = 0 because p = floor((md-1)/3) < md/3 always
    assert all(by_index[i] for i in range(1, 7))
    assert not by_index[7]
    assert (out.x_size, out.y_size) == (30, 68)
    rep = verify_trace(rec.to_trace())
    assert rep.allowable and rep.all_valid
    assert rec.min_deviation == Fraction(1, 2)


def test_step_t0_k1_strict_raises():
    rec = step_instance(0, 9, 1, 1)
    with pytest.raises(ConstructionBug):
        recursive_step(rec, 9, 1, 1)


@pytest.mark.parametrize("k, n", [(-1, 1), (0, 0)])
def test_step_refuses_negative_k_or_empty_n(k, n):
    rec = step_instance(0, 9, 0, 1)
    before = rec.to_trace(), rec.values(rec.lo, rec.hi)
    with pytest.raises(ContractError, match="need k >= 0 and n >= 1"):
        recursive_step(rec, 9, k, n)
    assert (rec.to_trace(), rec.values(rec.lo, rec.hi)) == before


def test_step_t1_k1_all_certificates():
    rec = step_instance(1, 81, 1, 1, sink=StatsSink())
    out = recursive_step(rec, 81, 1, 1)
    assert out.all_passed
    assert (out.x_size, out.y_size) == (250, 1558)
    plan = SizePlan(1, 81)
    assert out.x_size == plan.x(1, 1) and out.y_size == plan.y(1, 1)
    assert out.x_size <= 10 * 81**3 and out.y_size <= 10 * 81**3
    assert rec.min_deviation == Fraction(3, 2)


@pytest.mark.parametrize("t, d, k, detail", [
    (0, 9, 2, "B is 6/41-balanced, least prefix ratio 11/72"),
    (1, 81, 1, "B is 1/438-balanced, least prefix ratio 2/615")])
def test_step_balancedness_shows_least_prefix_ratio(t, d, k, detail):
    rec = step_instance(t, d, k, 1, sink=StatsSink())
    out = recursive_step(rec, d, k, 1, strict_certificates=False)
    cert = out.certificates[7]
    assert (cert.index, cert.passed, cert.detail) == (8, True, detail)
    rep = is_r_balanced(Block(rec.values(*out.layout.B)), 0)
    assert str(rep.least_ratio) == detail.rsplit(" ", 1)[1]


def test_step_rejects_small_d():
    rec = step_instance(1, 81, 0, 1)
    with pytest.raises(ContractError):
        recursive_step(rec, 80, 0, 1)


def test_step_rejects_wrong_layout():
    # X region not increasing: the layout precondition must fail loudly
    vals = list(range(-8, 9))
    vals[6], vals[7] = vals[7], vals[6]   # disorder inside X for n=1, k=0
    rec = TraceRecorder(CentredSequence(-8, vals), Window(0))
    with pytest.raises(ContractError):
        recursive_step(rec, 9, 0, 1)
    # domain too small for the planned sizes
    rec = step_instance(0, 9, 0, 1)
    with pytest.raises(ContractError):
        recursive_step(rec, 9, 1, 1)


@pytest.mark.parametrize("defect, problem", [
    ("Y out of order", "Y must be increasing"),
    ("centre inside Y", "need X < centre < Y on values"),
    ("every value raised", "need X < 0 < Y")])
def test_step_refuses_values_that_break_its_contract(defect, problem):
    # step_instance(0, 9, 1, 1) holds X = -30..-1 on positions -30..-1,
    # the centre 1 on position 0 and Y = 2..69 on positions 1..68
    good = step_instance(0, 9, 1, 1)
    lo = good.lo
    vals = list(good.values(lo, good.hi))
    if defect == "Y out of order":
        vals[1 - lo], vals[2 - lo] = vals[2 - lo], vals[1 - lo]
    elif defect == "centre inside Y":
        vals[0 - lo], vals[1 - lo] = vals[1 - lo], vals[0 - lo]
    else:
        vals = [v + 10 for v in vals]
    rec = TraceRecorder(CentredSequence(lo, vals), Window(0))
    with pytest.raises(ContractError, match=re.escape(problem)):
        recursive_step(rec, 9, 1, 1)
    assert rec.values(lo, rec.hi) == tuple(vals)
    assert rec.flip_count == rec.step_count == 0


@pytest.mark.parametrize("x_iv, y_iv, problem", [
    ((-29, -1), (1, 68), "|X| = 29 but the planner wants 30"),
    ((-30, -1), (1, 67), "|Y| = 67 but the planner wants 68"),
    ((-31, -2), (1, 68), "X and Y must be adjacent to the window"),
    ((-30, -1), (2, 69), "X and Y must be adjacent to the window"),
    ((-30, -1), (1, 68), None)])
def test_entry_problem_sizes_and_adjacency(x_iv, y_iv, problem):
    # step_instance(0, 9, 1, 1) holds X on positions -30..-1 and Y on
    # 1..68; only an inner sub-step can hand over other intervals
    rec = step_instance(0, 9, 1, 1)
    assert construction._entry_problem(rec, SizePlan(0, 9), 1, 1,
                                       x_iv, y_iv) == problem


def test_segment_map_operations():
    rec = TraceRecorder(identity_sequence(0, 5), Window(0))
    sm = SegmentMap(rec, 0, [("a", 2), ("b", 3), ("c", 1)])
    assert sm.iv("b") == (2, 4)
    assert sm.span("a", "b") == (0, 4)
    sm.move(["c"])
    assert sm.order == ["c", "a", "b"]
    # the values move on the recorder together with the map
    assert rec.values(0, 5) == (5, 0, 1, 2, 3, 4)
    assert rec.values(*sm.iv("b")) == (2, 3, 4)
    flips = rec.flip_count
    sm.move(["a"], after="c")   # already there
    sm.move(["c"])
    assert rec.flip_count == flips and sm.order == ["c", "a", "b"]
    with pytest.raises(ContractError):
        sm.move(["c", "b"])   # not contiguous
    with pytest.raises(ContractError):
        sm.move(["a", "b"], after="a")   # lands inside its own run
    sm.replace(["b"], [("b1", 1), ("b2", 2)])
    assert sm.iv("b2") == (4, 5)
    with pytest.raises(ContractError):
        sm.replace(["c", "b1"], [("x", 2)])   # not contiguous
    sm.move(["b1", "b2"], after="c")
    assert sm.order == ["c", "b1", "b2", "a"]
    assert rec.values(0, 5) == (5, 2, 3, 4, 0, 1)


@pytest.mark.parametrize("call", [
    lambda sm: sm.iv("z"),
    lambda sm: sm.span("a", "z"),
    lambda sm: sm.span("z", "a"),
    lambda sm: sm.move(["z"]),
    lambda sm: sm.move(["a"], after="z"),
    lambda sm: sm.replace(["z"], [("y", 1)]),
    lambda sm: sm.replace(["a", "z"], [("y", 3)]),
], ids=["iv", "span-last", "span-first", "move", "move-after", "replace",
        "replace-run"])
def test_segment_map_unknown_name(call):
    rec = TraceRecorder(identity_sequence(0, 5), Window(0))
    sm = SegmentMap(rec, 0, [("a", 2), ("b", 3), ("c", 1)])
    with pytest.raises(ContractError, match="no segment z"):
        call(sm)
    assert sm.order == ["a", "b", "c"] and rec.flip_count == 0


def _map_state(sm, rec):
    return (sm.order, dict(sm.sizes), dict(sm.starts), dict(sm.at),
            rec.values(sm.lo, sm.hi), rec.flip_count)


@pytest.mark.parametrize("call, message", [
    (lambda sm: sm.replace(["b"], [("x", -1), ("y", 4)]),
     "segment x has negative size"),
    (lambda sm: sm.replace(["b"], [("x", 1), ("a", 2)]),
     "duplicate segment a"),
    (lambda sm: sm.replace(["b"], [("x", 2)]),
     "replace must preserve total size"),
    (lambda sm: sm.move(["c", "b"]), "move needs a contiguous run"),
    (lambda sm: sm.replace(["a", "c"], [("x", 3)]),
     "replace needs a contiguous run"),
    (lambda sm: sm.move(["a", "b"], after="b"),
     "move cannot land after b, a segment of its own run"),
    (lambda sm: sm.move(["a"], after="z"), "no segment z in the map"),
    (lambda sm: sm.move([]), "move needs a non-empty run"),
    (lambda sm: sm.replace([], []), "replace needs a non-empty run"),
    (lambda sm: sm.replace([], [("x", 0)]), "replace needs a non-empty run"),
], ids=["negative-size", "duplicate", "total", "move-gap", "replace-gap",
        "lands-inside", "unknown-after", "move-empty", "replace-empty",
        "replace-empty-by-empty"])
def test_segment_map_refusal_names_its_reason(call, message):
    rec = TraceRecorder(identity_sequence(0, 5), Window(0))
    sm = SegmentMap(rec, 0, [("a", 2), ("b", 3), ("c", 1)])
    sm.move(["c"])   # c, a, b, so the state refused calls keep is moved
    before, steps = _map_state(sm, rec), rec.step_count
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call(sm)
    assert _map_state(sm, rec) == before and rec.step_count == steps


class ListMap:
    """Reference for SegmentMap: a list of (name, values) in order, the
    values being what the recorder should hold under that segment.  Each
    operation returns "refused" (ContractError), "bug" (the recorder's
    ConstructionBug) or None after applying itself."""

    def __init__(self, segs):
        self.segs = segs

    def names(self):
        return [n for n, _ in self.segs]

    def _run(self, names):
        order = self.names()
        if names[0] not in order:
            return None
        i = order.index(names[0])
        return i if order[i:i + len(names)] == names else None

    def move(self, names, after):
        i = self._run(names)
        if i is None or after in names or (after is not None
                                           and after not in self.names()):
            return "refused"
        j = i + len(names)
        dest = 0 if after is None else self.names().index(after) + 1
        run, segs = self.segs[i:j], self.segs[:i] + self.segs[j:]
        lo = dest if dest < i else dest - len(names)
        if dest < i or dest > j:
            crossed = self.segs[dest:i] if dest < i else self.segs[j:dest]
            left, right = (crossed, run) if dest < i else (run, crossed)
            if max(v for _, vs in left for v in vs) >= min(
                    v for _, vs in right for v in vs):
                return "bug"
            self.segs = segs[:lo] + run + segs[lo:]

    def replace(self, names, pieces):
        i = self._run(names)
        j = i + len(names) if i is not None else 0
        vals = [v for _, vs in self.segs[i:j] for v in vs]
        new = [n for n, s in pieces if s > 0]
        if (i is None or any(s < 0 for _, s in pieces)
                or sum(s for _, s in pieces) != len(vals)
                or len(set(new)) < len(new)
                or set(new) & (set(self.names()) - set(names))):
            return "refused"
        out, pos = [], 0
        for n, s in pieces:
            if s > 0:
                out.append((n, vals[pos:pos + s]))
                pos += s
        self.segs = self.segs[:i] + out + self.segs[j:]


@pytest.mark.parametrize("seed", range(8))
def test_segment_map_against_list_model(seed):
    rng = random.Random(seed)
    lo, hi = -3, 20
    rec = TraceRecorder(identity_sequence(lo, hi), Window(0))
    sizes = [2 + i % 3 for i in range(8)]
    sizes.append(hi - lo + 1 - sum(sizes))
    segs, pos = [], lo
    for i, size in enumerate(sizes):
        segs.append((f"s{i}", list(range(pos, pos + size))))
        pos += size
    ref = ListMap(segs)
    sm = SegmentMap(rec, lo, [(n, len(vs)) for n, vs in segs] + [("e", 0)])
    fresh = (f"n{i}" for i in range(10 ** 6))
    for _ in range(200):
        order = ref.names()
        i = rng.randrange(len(order))
        run = order[i:i + rng.randint(1, 3)]
        if rng.random() < 0.15:   # not contiguous, or not in the map
            run = [run[0], rng.choice(order + ["gone"])]
        before = _map_state(sm, rec)
        if rng.random() < 0.6:
            after = "gone" if rng.random() < 0.05 else rng.choice(order
                                                                 + [None])
            op, args = sm.move, (run, after)
            want = ref.move(run, after)
        else:
            total = sum(len(vs) for n, vs in ref.segs if n in run)
            cuts = sorted(rng.randint(0, total)
                          for _ in range(rng.randint(0, 4)))
            pieces = [(next(fresh), b - a)
                      for a, b in zip([0] + cuts, cuts + [total])]
            bad = rng.random()
            if bad < 0.1:   # the total changes
                pieces[0] = (pieces[0][0], pieces[0][1] + 1)
            elif bad < 0.2:   # a name already in the map, maybe empty
                dup = (rng.choice(order), int(bad < 0.15))
                pieces = [(pieces[0][0], pieces[0][1] - dup[1]), *pieces[1:],
                          dup]
            op, args = sm.replace, (run, pieces)
            want = ref.replace(run, pieces)
        if want is None:
            op(*args)
        else:
            exc = ContractError if want == "refused" else ConstructionBug
            with pytest.raises(exc):
                op(*args)
            assert _map_state(sm, rec) == before
        assert sm.order == ref.names()
        pos = lo
        for n, vs in ref.segs:
            assert sm.iv(n) == (pos, pos + len(vs) - 1)
            pos += len(vs)
        a, b = sorted(rng.choices(ref.names(), k=2), key=ref.names().index)
        assert sm.span(a, b) == (sm.iv(a)[0], sm.iv(b)[1])
        assert (sm.lo, sm.hi) == (lo, hi)
        assert list(rec.values(lo, hi)) == [v for _, vs in ref.segs
                                             for v in vs]


@pytest.mark.parametrize("t, d, k", [(0, 27, 2), (1, 81, 1)])
def test_step_moves_cross_a_bounded_number_of_segments(monkeypatch, t, d, k):
    # SegmentMap._take un-keys the run a replace or a move takes and the
    # segments a move crosses.  The growth step pools the pieces it has
    # yet to use and merges W and B as they grow, so no call un-keys more
    # than 5 names: the longest runs are [Tt, J, Ut, Ub] and the merge
    # [JR, N, CC, B] (4), and the widest crossing is the negative part of
    # a C piece passing Ut, Ub, B, S and Ypp (5).  Without the pools a move
    # crosses every unused piece and every earlier one of its group.
    counts = []
    take = SegmentMap._take

    def counted(self, pos, end):
        names = take(self, pos, end)
        counts.append(len(names))
        return names

    monkeypatch.setattr(SegmentMap, "_take", counted)
    rec = step_instance(t, d, k, 1, sink=StatsSink())
    recursive_step(rec, d, k, 1, strict_certificates=False)
    assert counts and max(counts) <= 5


# -- the full pipeline ------------------------------------------------------------


def test_full_construction_gate_failure():
    res = full_construction(0, 9, 1)
    assert isinstance(res, ConstructionFailure)
    assert not res
    assert res.stage == "balance gate"
    assert res.achieved == Fraction(3, 38)
    assert res.required == 4


def test_full_construction_negative_count_failure():
    # The balance gate passes here, but the t = 0 step lays down fewer
    # negatives than certificate (7) asks; nothing is materialized.
    cells = plan_sizes(0, 141, 58, 1).cells
    res = full_construction(0, 141, 58, max_cells=cells)
    assert isinstance(res, ConstructionFailure) and not res
    assert res.stage == "negative count"
    assert res.table.gate_ok
    assert res.achieved == SizePlan(0, 141).laid(58)
    assert res.required == beta_closed(1, 141, 58)
    assert res.required - res.achieved == (141**58 - 1) // 140


def test_full_construction_refuses_on_its_own_domain():
    # The full domain [-b, b] is the step instance's at n = 1 plus 4t
    # cells; at t = 0 the two agree.
    table = plan_sizes(0, 141, 58, 1)
    cells = 2 * (1 + table.y_exact) + 1
    assert cells == table.cells
    with pytest.raises(RefusalError, match=f"needs {cells} cells"):
        full_construction(0, 141, 58, max_cells=cells - 1)


def test_full_construction_refuses_oversize():
    # gate passes at the headline parameters but the size is astronomical
    with pytest.raises(RefusalError):
        full_construction(0, 100, 100)


def _finish_synthetic(middle):
    seq, layout, t = synthetic_finishing_state(middle)
    assert is_r_balanced(Block(seq.values[78:140]), 28).balanced
    rec = TraceRecorder(seq, Window(t))
    finish_pipeline(rec, layout, Fraction(28))
    assert rec.values(rec.lo, rec.hi) == tuple(range(76, -77, -1))
    rep = verify_trace(rec.to_trace())
    assert rep.allowable and rep.all_valid
    assert rec.min_deviation == Fraction(2 * t + 1, 2)
    return rec


def test_finishing_pipeline_on_synthetic_state():
    # An already decomposed middle block: the decomposition emits nothing.
    middle = Block(SYNTHETIC_MIDDLES["decomposed"])
    assert block_moves(middle, decompose_balanced(middle, 28).result) == []
    assert _finish_synthetic(SYNTHETIC_MIDDLES["decomposed"]).flip_count == 3669


def test_finishing_pipeline_applies_decomposition():
    middle = SYNTHETIC_MIDDLES["scheduled"]
    dec = decompose_balanced(Block(middle), 28)
    assert len(block_moves(middle, dec.result)) == 29
    rec = _finish_synthetic(middle)
    assert rec.flip_count == 3698
    assert rec.to_trace().annotations[:2] == (
        (0, 1, "begin apply decomposition"), (29, 1, "end apply decomposition"))


def _finish_generated(middle, t, r, **sizes):
    seq, layout = finishing_state(middle, t, **sizes)
    rec = TraceRecorder(seq, Window(t))
    finish_pipeline(rec, layout, r)
    return rec


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("t", [0, 1])
def test_finishing_pipeline_on_generated_states(t, seed):
    r = 3 * 3 ** (2 * t) + 1
    middle = sample_balanced_block(6 * (r + 1) + seed, r, seed)
    rec = _finish_generated(middle.values, t, r, r_size=seed % 4)
    assert rec.values(rec.lo, rec.hi) == tuple(range(rec.hi, rec.lo - 1, -1))
    rep = verify_trace(rec.to_trace())
    assert rep.allowable and rep.all_valid
    assert rep.flip_count == rec.flip_count
    assert rep.min_deviation == rec.min_deviation == Fraction(2 * t + 1, 2)


def _negatives_per_piece(middle, r):
    return [sum(1 for v in blk if v < 0)
            for blk in decompose_balanced(middle, r).blocks]


def test_finishing_pipeline_refuses_broken_states():
    def refused(middle, r, message, **sizes):
        with pytest.raises(ConstructionBug, match=message):
            _finish_generated(middle.values, 1, r, r_size=3, **sizes)

    refused(Block(range(-30, 0)), 28, "B has no positive values")
    poor = sample_balanced_block(102, 16, 0)
    assert _negatives_per_piece(poor, 16)[-1] < 24
    refused(poor, 16, "last piece too negative-poor")
    thin = sample_balanced_block(90, 14, 4)
    assert _negatives_per_piece(thin, 14) == [14, 49]
    refused(thin, 14, r"piece 1 has too few negatives \(14\)")
    middle = sample_balanced_block(174, 28, 3)
    bplus = sum(1 for v in middle if v > 0)
    refused(middle, 28, "X' exhausted", x_size=bplus - 1)
    refused(middle, 28, "X' size does not match", x_size=bplus + 1)


def test_mirror_view_round_trip():
    vals = list(range(-4, 5))
    rec = TraceRecorder(CentredSequence(-4, vals), Window(0))
    view = MirrorView(rec)
    assert view.values(-4, 4) == tuple(-v for v in reversed(vals))
    view.emit_flip(2, 3)
    assert rec.values(-3, -2) == (-2, -3)


# -- construction bugs name their path ----------------------------------------


def test_shift_bug_through_a_mirror_view_names_its_path():
    # At t = 1 level -1 needs |B| >= 8; the check fires before any move.
    rec = TraceRecorder(identity_sequence(-12, 12), Window(1))
    with rec.annotate("outer"):
        with pytest.raises(ConstructionBug) as exc:
            construction._shift_rec(MirrorView(rec), 1, -1, (-1, 1), (2, 8),
                                    (9, 11), shift_thresholds(1))
    assert str(exc.value) == "shift level -1 needs |B| >= 8, got 7 [at: outer]"
    assert rec.flip_count == 0


def test_inner_entry_bug_names_its_path(monkeypatch):
    real = construction._entry_problem

    def inner_fails(rec, plan, k, n, x_iv, y_iv):
        if k == 0:
            return "X must be increasing"
        return real(rec, plan, k, n, x_iv, y_iv)

    monkeypatch.setattr(construction, "_entry_problem", inner_fails)
    rec = step_instance(0, 9, 1, 1)
    with pytest.raises(ConstructionBug) as exc:
        recursive_step(rec, 9, 1, 1)
    path = ("recursive step t=0 d=9 k=1 n=1", "step k=1: repeat level 0 x9")
    assert exc.value.annotation_stack == path
    assert str(exc.value) == ("recursive step (inner): X must be increasing "
                              "[at: " + " > ".join(path) + "]")


def test_construction_builds_no_construction_bug_itself():
    # Every construction bug is raised by TraceRecorder.bug, which
    # attaches the annotation path; a direct ConstructionBug(...) would
    # not.
    tree = ast.parse(Path(construction.__file__).read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "ConstructionBug" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))]
    assert calls == []


def test_checks_format_their_message_only_on_failure():
    # _check joins its message parts only when the check fails; an
    # f-string argument would be formatted on every call, passing or not.
    tree = ast.parse(Path(construction.__file__).read_text())
    checks = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_check"]
    assert checks
    assert [node.lineno for node in checks
            if any(isinstance(arg, ast.JoinedStr) for arg in node.args)] == []


@pytest.mark.parametrize("wv, expect", [
    # K_1 = (2, 1), K_2 = (6, 5), then M_2 = 4 and M_1 = 0
    ((2, 1, 6, 5, 4, 0), (True, "|W| = 6, m = 2")),
    ((2, 1, 6, 5, 4), (False, "|W| = 5, m = 2")),
    ((1, 2, 6, 5, 4, 0), (False, "a K piece is not decreasing")),
    ((2, 1, 6, 5, 7, 0), (False, "M_2 not below K_2")),
    ((3, 2, 6, 5, 1, 0), (False, "M_2 not above K_1")),
    ((3, 2, 6, 5, 4, 9), (False, "M_1 not below K_1")),
])
def test_tail_shape_details(wv, expect):
    assert construction._tail_shape(wv, 2, 2) == expect
