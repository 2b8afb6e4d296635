"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 checks, at each of its parameter points, what the recursive
step promises there.  The step lays down an exact number of negatives in
B: laid_0 = 0 and laid_k = d*laid_{k-1} + p_k with
p_k = floor((d^k - T)/(T + 4t + 2)), one negative for each of the p_k
mirrored reflections of "form the new tail" and the rest from the d
sub-steps.  laid_k reaches the budget beta_k = k*d^k/(3T) whenever
p_j >= d^j/(3T) at every level j, which holds for every t >= 1 with
d >= 9T.  At t = 0 the unit T + 4t + 2 equals 3T, so p_j < d^j/3 at every
level and laid_k < beta_k for every d; certificate (7) then fails by
construction, and criterion 4 asserts the exact count and the failure
instead of an inequality the step cannot meet.
"""

import pathlib
import random
import time
from fractions import Fraction

import pytest

from allowseq.construction import (ConstructionFailure, decompose_balanced,
                                   full_construction, recursive_step, reflect,
                                   reflect_instance, reflect_mirrored, shift,
                                   shift_instance, step_instance)
from allowseq.engine import (INF, FlipStep, StatsSink, TraceRecorder,
                             verify_stream, verify_trace)
from allowseq.errors import ConstructionBug, ContractError
from allowseq.geom import (PointSet, circular_sequence,
                           deviation_imbalance_link, in_general_position,
                           line_imbalances)
from allowseq.oracle import (allowability_bruteforce, sample_balanced_block,
                             search_best_deviation, width_dp, width_enumerate)
from allowseq.planner import (SizePlan, alpha_closed, beta_closed,
                              check_claim_monotonicity, plan_sizes,
                              ratio_at_least, shift_thresholds)
from allowseq.seqcore import (Block, Flip, Window, apply_block_flip,
                              identity_sequence, is_r_balanced,
                              is_valid_flip_block, width, width_greedy)
from allowseq.cli import parse_trace, serialize_trace
from conftest import block_moves, five_element_steps, random_trace_material

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{criterion:<2} {tag}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- C1: the classic 5-element replay ----------------------------------------


def test_c01_five_element_example():
    initial = identity_sequence(1, 5)
    steps = five_element_steps()
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        rep = verify_stream(initial, Window(0), steps)
        bf = allowability_bruteforce(steps, initial)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    ok = (rep.allowable and rep.reaches_reversal and bf
          and rep.min_deviation == 0 and best < 0.001)
    report(1, ok, f"allowable+reversal, min deviation 0, {best*1e6:.0f}us")


# -- C2: shifting at minimal parameters ---------------------------------------


def test_c02_shift_minimal():
    t0 = time.perf_counter()
    for t in (0, 1, 2):
        n = 3 ** (2 * t)
        rec, a, b, c = shift_instance(t, n)
        cvals = rec.values(*c)
        started = time.perf_counter()
        _, d_iv = shift(rec, a, b, c)
        elapsed = time.perf_counter() - started
        assert rec.values(-t, t) == cvals
        dv = rec.values(*d_iv)
        assert all(x > y for x, y in zip(dv, dv[1:]))
        rep = verify_trace(rec.to_trace())
        assert rep.allowable and rep.all_valid, rep.first_violation
        if t == 2:
            assert elapsed < 5.0
        # the bound is sharp at the contract level
        if n - 1 >= 1:
            rec2, a2, b2, c2 = shift_instance(t, n - 1)
            with pytest.raises(ContractError):
                shift(rec2, a2, b2, c2)
        else:
            rec2, a2, _, _ = shift_instance(t, 1)
            with pytest.raises(ContractError):
                shift(rec2, a2, (t + 1, t), (t + 1, t + 2 * t + 1))
    report(2, True, f"t in {{0,1,2}}, rejection at 3^(2t)-1, "
                    f"{time.perf_counter()-t0:.2f}s total")


# -- C3: reflection at minimal parameters --------------------------------------


def test_c03_reflect_minimal():
    t0 = time.perf_counter()
    for t in (0, 1, 2):
        n = 3 ** (2 * t) + 4 * t + 2
        rec, x, a, b, c = reflect_instance(t, n, 2)
        bvals = rec.values(*b)
        reflect(rec, x, a, b, c)
        assert rec.values(-t, t) == tuple(reversed(bvals[-(2 * t + 1):]))
        rep = verify_trace(rec.to_trace())
        assert rep.allowable and rep.all_valid
        # mirrored variant with the mirrored checks
        rec, x, a, b, c = reflect_instance(t, n, 2, mirrored=True)
        bvals, cvals = rec.values(*b), rec.values(*c)
        cb, _, e = reflect_mirrored(rec, x, a, b, c)
        assert rec.values(-t, t) == tuple(reversed(bvals[: 2 * t + 1]))
        assert rec.values(*cb) == tuple(reversed(cvals))
        ev = rec.values(*e)
        assert all(p > q for p, q in zip(ev, ev[1:]))
        assert max(rec.values(-t, t)) < min(ev)
        assert verify_trace(rec.to_trace()).all_valid
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 5.0, f"t in {{0,1,2}} plus mirrored, {elapsed:.2f}s")


# -- C4: recursive-step certificates -------------------------------------------

STEP_POINTS = [(0, 9, 0), (0, 9, 1), (0, 9, 2), (0, 9, 3), (1, 81, 0),
               (1, 81, 1)]


@pytest.mark.parametrize("t,d,k", STEP_POINTS)
def test_c04_recursive_step_certificates(t, d, k):
    """Sizes and budget as planned; certificates (1)-(6) pass; |B-| is
    exactly laid_k; (7) passes exactly when laid_k >= beta_k, and (8) passes
    wherever it does; B is (min(laid_k, beta_k)/alpha_k)-balanced.  The
    whole trace is kept in memory and verifies: allowable, every flip
    valid, the recorder's counts, minimum deviation at least t + 1/2."""
    started = time.perf_counter()
    rec = step_instance(t, d, k, 1)
    out = recursive_step(rec, d, k, 1, strict_certificates=False)
    elapsed = time.perf_counter() - started
    rep = verify_trace(rec.to_trace())
    trace_ok = (rep.allowable and rep.all_valid
                and rep.flip_count == rec.flip_count
                and rep.step_count == rec.step_count
                and rep.min_deviation >= Fraction(2 * t + 1, 2))
    plan = SizePlan(t, d)
    sizes_ok = (out.x_size == plan.x(1, k) and out.y_size == plan.y(1, k)
                and plan_sizes(t, d, k, 1).cells == rec.hi - rec.lo + 1
                and out.x_size <= 10 * d ** (2 * k + 1)
                and out.y_size <= 10 * d ** (2 * k + 1))
    budget_ok = elapsed < 60.0 if (t, k) == (1, 1) else True
    passed = {c.index: c.passed for c in out.certificates}
    laid = plan.laid(k)
    beta = beta_closed(plan.T, d, k)
    alpha = alpha_closed(t, plan.T, d, k)
    reaches = laid >= beta
    bv = rec.values(*out.layout.B)
    nneg = sum(1 for v in bv if v < 0)
    balanced = is_r_balanced(Block(bv), Fraction(min(laid, beta), alpha))
    ok = (sizes_ok and budget_ok and trace_ok
          and all(passed[i] for i in range(1, 7))
          and nneg == laid
          and passed[7] == reaches
          and (passed[8] or not reaches)
          and balanced.balanced)
    detail = (f"t={t} d={d} k={k}: sizes ({out.x_size}, {out.y_size}) match "
              f"plan, {out.flip_count} flips, {elapsed:.1f}s, "
              f"|B-| = {nneg}, laid_{k} = {laid}, beta_{k} = {beta}")
    if not balanced.balanced:
        detail += f" | not min(laid, beta)/alpha-balanced: {balanced.detail}"
    if not trace_ok:
        detail += f" | trace does not verify: {rep}"
    failed = [c for c in out.certificates if not c.passed]
    if failed:
        detail += " | failed: " + "; ".join(
            f"({c.index}) {c.name}: {c.detail}" for c in failed)
    report(4, ok, detail)


# -- C5: exact recurrence suite -------------------------------------------------


def test_c05_exact_recurrences():
    t0 = time.perf_counter()
    for t in range(21):
        ns = shift_thresholds(t)
        assert ns[-1] <= 3 ** (2 * t)
    for (t, d) in ((0, 9), (1, 81), (1, 100 * 9**3)):
        ok, ce = check_claim_monotonicity(t, d, 200)
        assert ok, (t, d, ce)
    # k = d: beta_k/alpha_k >= d/(18 T^2) where the derivation applies
    # (window parameter >= 1); exact cross-multiplied comparison
    for (t, d) in ((1, 81), (1, 100 * 9**3), (2, 9 * 81)):
        T = 3 ** (2 * t)
        assert ratio_at_least(t, d, d, Fraction(d, 18 * T * T))
    # the t = 0 pair sits just under that bound; surface the exact value
    r = Fraction(beta_closed(1, 9, 9), alpha_closed(0, 1, 9, 9))
    assert r == Fraction(129140163, 263661166) and r < Fraction(1, 2)
    # the headline parameters certify the balance gate by arithmetic alone
    for t in (0, 1, 2):
        T = 3 ** (2 * t)
        d = 100 * T**3
        table = plan_sizes(t, d, d, 1)
        assert table.gate_ok
        assert table.balance_ratio_at_least(3 * T + 1)
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 10.0,
           f"N bounds t<=20, claim l<=200 x3, k=d ratios, "
           f"gate certified for t in {{0,1,2}}, {elapsed:.2f}s")


# -- C6: width oracle equivalence ----------------------------------------------


def test_c06_width_oracles():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(1000):
        size = rng.randint(1, 200)
        b = Block(rng.sample(range(-1000, 1000), size))
        if width_greedy(b)[0] != width_dp(b):
            mismatches += 1
    for _ in range(200):
        size = rng.randint(1, 10)
        b = Block(rng.sample(range(-40, 40), size))
        if not (width_dp(b) == width_greedy(b)[0] == width_enumerate(b)):
            mismatches += 1
    report(6, mismatches == 0,
           f"1000 blocks <=200 and 200 blocks <=10, {mismatches} mismatches")


# -- C7: balanced decomposition --------------------------------------------------


def test_c07_balanced_decomposition():
    violations = 0
    checked = 0
    for r in (1, 2, Fraction(7, 2), 5):
        for seed in range(50):
            b = sample_balanced_block(40 + (seed % 3) * 17, r, seed)
            dec = decompose_balanced(b, r)
            checked += 1
            r_int = int(Fraction(r))
            cur = b
            ok = True
            try:
                moves = block_moves(b, dec.result)
            except ConstructionBug:
                moves, ok = [], False
            for f in moves:
                if not is_valid_flip_block(cur, f):
                    ok = False
                    break
                cur = apply_block_flip(cur, f)
            if not ok or cur != dec.result:
                violations += 1
                continue
            pos = Block(v for v in b if v > 0)
            if len(pos) and dec.k != width(pos):
                violations += 1
                continue
            prev_max = None
            for blk in dec.blocks:
                negs = [v for v in blk if v < 0]
                if any(p >= q for p, q in zip(blk, blk[1:])):
                    ok = False
                if len(pos) and len(negs) < r_int:
                    ok = False
                if negs and prev_max is not None and prev_max >= min(negs):
                    ok = False
                if negs:
                    prev_max = max(negs)
            if not ok:
                violations += 1
    report(7, violations == 0 and checked >= 200,
           f"{checked} sampled blocks across r in {{1, 2, 7/2, 5}}, "
           f"{violations} violations")


# -- C8: deviation guarantee across the construction corpus ----------------------


def test_c08_deviation_guarantee():
    corpus = []
    for t in (0, 1, 2):
        rec, a, b, c = shift_instance(t, 3 ** (2 * t))
        shift(rec, a, b, c)
        corpus.append((f"shift t={t}", t, rec))
        n = 3 ** (2 * t) + 4 * t + 2
        rec, x, a, b, c = reflect_instance(t, n, 2)
        reflect(rec, x, a, b, c)
        corpus.append((f"reflect t={t}", t, rec))
        rec, x, a, b, c = reflect_instance(t, n, 2, mirrored=True)
        reflect_mirrored(rec, x, a, b, c)
        corpus.append((f"reflect-mirrored t={t}", t, rec))
    for (t, d, k) in ((0, 9, 0), (0, 9, 1), (0, 9, 2), (1, 81, 0), (1, 81, 1)):
        rec = step_instance(t, d, k, 1, sink=StatsSink())
        recursive_step(rec, d, k, 1, strict_certificates=False)
        corpus.append((f"step t={t} k={k}", t, rec))
    bad = [label for label, t, rec in corpus
           if rec.min_deviation < Fraction(2 * t + 1, 2)]
    report(8, not bad, f"{len(corpus)} lemma traces, all min deviation "
                       f">= t + 1/2{'; offenders: ' + ', '.join(bad) if bad else ''}")


# -- C9: small-n search ground truth ----------------------------------------------


def test_c09_search_ground_truth():
    t0 = time.perf_counter()
    assert search_best_deviation(2).best_min_deviation == 0
    res3 = search_best_deviation(3)
    assert res3.best_min_deviation == Fraction(1, 2)
    for n in range(2, 8):
        res = search_best_deviation(n)
        golden = (GOLDEN / f"search_n{n}.txt").read_text()
        head = golden.splitlines()[0].split()
        recorded = (INF if head[1] == "inf"
                    else Fraction(int(head[1].split("/")[0]),
                                  int(head[1].split("/")[1])))
        assert res.best_min_deviation == recorded, (n, recorded)
        # the stored witness must itself verify and achieve the optimum
        witness = [ln for ln in golden.splitlines()[1:] if ln]
        steps = []
        for ln in witness:
            nums = [int(x) for x in ln.split()[1:]]
            steps.append(FlipStep([Flip(nums[i], nums[i + 1])
                                   for i in range(0, len(nums), 2)]))
        rep = verify_stream(identity_sequence(1, n), Window(0), steps)
        assert rep.allowable and rep.reaches_reversal
        if steps:
            assert rep.min_deviation == recorded
    elapsed = time.perf_counter() - t0
    report(9, elapsed < 120.0,
           f"n=2..7 optima re-verified against goldens, {elapsed:.2f}s")


# -- C10: geometry bridge ----------------------------------------------------------


def test_c10_geometry_bridge():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    done = 0
    while done < 100:
        n = rng.randint(3, 10)
        pts = {(rng.randrange(-70, 70), rng.randrange(-70, 70))
               for _ in range(n)}
        if len(pts) != n:
            continue
        ps = PointSet(sorted(pts))
        if not in_general_position(ps):
            continue
        hp = circular_sequence(ps)
        rep = verify_trace(hp.to_trace())
        assert rep.allowable and rep.reaches_reversal
        transpositions = sum(f.size * (f.size - 1) // 2
                             for ev in hp.events for f in ev.step.flips)
        assert transpositions == n * (n - 1) // 2
        assert deviation_imbalance_link(ps)
        done += 1
    _, mn_square = line_imbalances(PointSet([(0, 0), (1, 0), (0, 1), (1, 1)]))
    _, mn_tri = line_imbalances(PointSet([(0, 0), (4, 0), (1, 3)]))
    elapsed = time.perf_counter() - t0
    report(10, mn_square == 0 and mn_tri == 1 and elapsed < 30.0,
           f"100 general-position sets, square min 0, triangle min 1, "
           f"{elapsed:.1f}s")


# -- C11: format stability -----------------------------------------------------------


def test_c11_format_stability(tmp_path, capsys):
    from allowseq.cli import main as cli_main
    from allowseq.geom import format_points, parse_points

    rng = random.Random(1111)
    for _ in range(40):
        initial, steps = random_trace_material(rng)
        tr = TraceRecorder(initial, Window(0))
        for step in steps:
            try:
                tr.emit_step(step)
            except Exception:
                break
        text = serialize_trace(tr.to_trace())
        assert serialize_trace(parse_trace(text)) == text
    for _ in range(20):
        pts = {(rng.randrange(-9, 9), rng.randrange(-9, 9))
               for _ in range(rng.randint(2, 8))}
        ps = PointSet(sorted(pts))
        assert parse_points(format_points(ps)) == ps

    out = tmp_path / "t.txt"
    assert cli_main(["construct", "--stage", "shift", "--t", "1",
                     "--out", str(out)]) == 0
    assert cli_main(["verify", str(out)]) == 0                       # exit 0
    five = tmp_path / "five.txt"
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        tr.emit_step(step)
    five.write_text(serialize_trace(tr.to_trace()))
    assert cli_main(["verify", str(five), "--strict"]) == 1          # exit 1
    bad = tmp_path / "bad.txt"
    bad.write_text("ALLOWSEQ v1\nt=0 lo=1 hi=4\n1 2 3\n")
    assert cli_main(["verify", str(bad)]) == 2                       # exit 2
    assert cli_main(["search", "--n", "9"]) == 3                     # exit 3
    capsys.readouterr()
    report(11, True, "bit-exact round trips, construct->verify, "
                     "exit codes 0/1/2/3")
