import ast
import hashlib
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allowseq
from allowseq.engine import (INF, BlockSwap, FlipStep, iter_trace_file,
                             verify_stream)
from allowseq.errors import ContractError, RefusalError
from allowseq.oracle import (_search, allowability_bruteforce,
                             reachable_states, sample_balanced_block,
                             search_best_deviation, width_dp,
                             width_enumerate)
from allowseq.seqcore import (Block, CentredSequence, Flip, Window,
                              identity_sequence, is_r_balanced, width,
                              width_greedy)
from conftest import LooseStep, five_element_steps, random_trace_material


def test_width_dp_examples():
    assert width_dp(Block(range(9, 0, -1))) == 9
    assert width_dp(Block((2, 3, 1))) == 2 == width_enumerate(Block((2, 3, 1)))


def test_width_three_way_agreement(rng):
    for _ in range(200):
        size = rng.randint(1, 10)
        b = Block(rng.sample(range(-60, 60), size))
        assert width_dp(b) == width_greedy(b)[0] == width_enumerate(b)


def test_allowability_bruteforce_examples():
    assert allowability_bruteforce(five_element_steps(),
                                   identity_sequence(1, 5))
    # overlapping flips in a step cannot arise from FlipStep; a declared
    # non-increasing run must be caught from the state diff instead
    steps = [FlipStep([Flip(1, 2)]), FlipStep([Flip(1, 2)])]
    assert not allowability_bruteforce(steps, identity_sequence(1, 5))
    # (1, 2 | 3, 4) is four increasing transpositions; (1, 4 | 5, 3) is
    # refused once 3 must pass 4.
    assert allowability_bruteforce([BlockSwap(1, 2, 2)],
                                   identity_sequence(1, 4))
    assert not allowability_bruteforce([BlockSwap(1, 2, 2)],
                                       CentredSequence(1, (1, 4, 5, 3)))
    # a swap reaching past the domain
    assert not allowability_bruteforce([BlockSwap(2, 2, 2)],
                                       identity_sequence(1, 4))
    # 1 2 3 -> 2 3 1 is no union of reversed runs: refused as one
    # transition, accepted as the swap's two transpositions
    assert not allowability_bruteforce(
        [LooseStep([Flip(1, 2), Flip(2, 3)])], identity_sequence(1, 3))
    assert allowability_bruteforce([BlockSwap(1, 1, 2)],
                                   identity_sequence(1, 3))


def test_bruteforce_handles_odd_middle():
    # a size-3 flip leaves its middle cell in place; the diff is split
    steps = [FlipStep([Flip(1, 3)])]
    assert allowability_bruteforce(steps, identity_sequence(1, 3))


def test_bruteforce_agrees_with_verifier(rng):
    for _ in range(1000):
        initial, steps = random_trace_material(rng)
        rep = verify_stream(initial, Window(0), steps)
        assert allowability_bruteforce(steps, initial) == rep.allowable
    # Mixed material adds multi-flip steps, block swaps and LooseSteps.
    # The oracle reads a step by its net effect, so on a LooseStep it may
    # accept flips the verifier refuses for overlapping or coming out of
    # order; never the other way round.
    outcomes = set()
    for _ in range(1000):
        initial, steps = random_trace_material(rng, mixed=True)
        allowable = verify_stream(initial, Window(0), steps).allowable
        brute = allowability_bruteforce(steps, initial)
        if any(isinstance(s, LooseStep) for s in steps):
            assert brute or not allowable
        else:
            assert brute == allowable
        outcomes.add((brute, allowable))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_search_tiny_values():
    assert search_best_deviation(2).best_min_deviation == 0
    res = search_best_deviation(3)
    assert res.best_min_deviation == Fraction(1, 2)
    rep = verify_stream(identity_sequence(1, 3), Window(0), res.witness)
    assert rep.allowable and rep.reaches_reversal
    assert rep.min_deviation == Fraction(1, 2)
    assert search_best_deviation(1).best_min_deviation == INF


def test_search_witnesses_verify():
    for n in range(2, 8):
        res = search_best_deviation(n)
        rep = verify_stream(identity_sequence(1, n), Window(0), res.witness)
        assert rep.allowable and rep.reaches_reversal
        assert rep.min_deviation == res.best_min_deviation


def test_search_multi_mode_matches_single():
    for n in range(2, 7):
        single = search_best_deviation(n, mode="single")
        multi = search_best_deviation(n, mode="multi")
        assert multi.best_min_deviation >= single.best_min_deviation
        assert multi.best_min_deviation == single.best_min_deviation
        rep = verify_stream(identity_sequence(1, n), Window(0), multi.witness)
        assert rep.allowable and rep.reaches_reversal
        assert rep.min_deviation == multi.best_min_deviation


def test_multi_witness_groups_the_single_flips_maximally():
    def overlap(f, g):
        return f.c <= g.d and g.c <= f.d

    for n in range(2, 9):
        flips = [step.flips[0]
                 for step in search_best_deviation(n, mode="single").witness]
        multi = search_best_deviation(n, mode="multi").witness
        start = 0
        for k, step in enumerate(multi):
            group = flips[start:start + len(step.flips)]
            # the step holds the next flips of the path, sorted by c
            assert set(step.flips) == set(group)
            if k:
                # a group ends only where the next flip would overlap it
                assert any(overlap(group[0], f) for f in multi[k - 1].flips)
            start += len(group)
        assert start == len(flips)
        assert allowability_bruteforce(multi, identity_sequence(1, n))


def test_search_guard():
    with pytest.raises(RefusalError, match="force"):
        search_best_deviation(9)
    # the search compares values seven bits at a time, so force cannot
    # lift this
    for n in (128, 256):
        with pytest.raises(RefusalError, match="127"):
            search_best_deviation(n, force=True)
    with pytest.raises(RefusalError, match="127"):
        reachable_states(128)
    # at the bound itself: only (1, 2) and (126, 127) have imbalance 125
    last = tuple(range(1, 128))
    assert reachable_states(127, Fraction(125, 2)) == {
        last, (2, 1) + last[2:], last[:-2] + (127, 126),
        (2, 1) + last[2:-2] + (127, 126)}
    with pytest.raises(ContractError):
        search_best_deviation(3, mode="parallel")
    # nor is there anything to search below one value
    for n in (0, -3):
        for call in (search_best_deviation, reachable_states,
                     lambda n: _search(n, 0)):
            with pytest.raises(ContractError, match="need n >= 1"):
                call(n)


def test_search_exhaustive_against_direct_bfs():
    for n in range(2, 7):
        res = search_best_deviation(n)
        goal = tuple(range(n, 0, -1))
        full = reachable_states(n, res.best_min_deviation)
        assert goal in full
        # the winning search stops early at the goal, so it can only have
        # seen at most the full reachable set
        assert res.states_explored <= len(full)
        # at the next deviation above the optimum the reversal is out of
        # reach
        higher = [Fraction(abs(c + d - n - 1), 2)
                  for c in range(1, n + 1) for d in range(c + 1, n + 1)]
        higher = [q for q in higher if q > res.best_min_deviation]
        if higher:
            assert goal not in reachable_states(n, min(higher))


def _valid_flips(perm):
    """All intervals [c, d], c < d, whose run is strictly increasing
    (1-based positions)."""
    n = len(perm)
    res = []
    for c in range(n):
        for d in range(c + 1, n):
            if perm[d] <= perm[d - 1]:
                break
            res.append((c + 1, d + 1))
    return res


def reference_search(n, q2, stop_at_reversal=False):
    """The search by plain enumeration of intervals over tuple states,
    kept as the independent oracle for `_search`: {state: (previous
    state, (c, d)) or None} for every state reached, stopping at the
    reversal when `stop_at_reversal` is set."""
    identity = tuple(range(1, n + 1))
    reversal = identity[::-1] if stop_at_reversal else None
    parent = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for perm in frontier:
            for c, d in _valid_flips(perm):
                if abs(c + d - (n + 1)) < q2:
                    continue
                child = perm[: c - 1] + perm[c - 1 : d][::-1] + perm[d:]
                if child in parent:
                    continue
                parent[child] = (perm, (c, d))
                if child == reversal:
                    return parent
                nxt.append(child)
        frontier = nxt
    return parent


def _inverse(perm):
    """The position, 1..n, of each value 1..n of `perm`, as bytes."""
    inverse = [0] * len(perm)
    for position, value in enumerate(perm, 1):
        inverse[value - 1] = position
    return bytes(inverse)


@pytest.mark.parametrize("n", range(1, 10))
def test_search_matches_reference(n):
    # as ordered lists: `states_explored` and the witness depend on the
    # order in which states are discovered
    for q2 in range(2 if n == 9 else 0, n):
        expected = [(_inverse(state), link and link[1])
                    for state, link in reference_search(n, q2).items()]
        assert list(_search(n, q2).items()) == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_search_stops_at_the_reversal(n):
    # the early return: the ordered prefix of the map through the reversal
    reversal = tuple(range(n, 0, -1))
    stopped = 0
    for q2 in range(n):
        reference = reference_search(n, q2, stop_at_reversal=True)
        if reversal not in reference:
            break  # a higher threshold admits fewer flips
        expected = [(_inverse(state), link and link[1])
                    for state, link in reference.items()]
        assert list(_search(n, q2, stop_at_reversal=True).items()) == expected
        stopped += 1
    # the best doubled deviation is 1 at n = 3 and n >= 5, 0 otherwise
    assert stopped == (2 if n == 3 or n >= 5 else 1)


@pytest.mark.parametrize("n, q2, states", [(11, 3, 91_270), (10, 2, 255_357)])
def test_search_frontier_totals(n, q2, states):
    # cells beyond the reach of reference_search; neither reaches the
    # reversal
    parent = _search(n, q2)
    assert len(parent) == states
    assert bytes(range(n, 0, -1)) not in parent


def test_reachable_states_edges():
    assert reachable_states(1) == {(1,)}
    assert reachable_states(2) == {(1, 2), (2, 1)}
    assert reachable_states(2, Fraction(1, 2)) == {(1, 2)}


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", range(2, 8))
def test_search_matches_golden_byte_for_byte(n):
    text = (GOLDEN / f"search_n{n}.txt").read_text()
    assert search_best_deviation(n).to_text() == text


@pytest.mark.parametrize("n, mode, force, digest", [
    (8, "single", False, "b77bf2167dbdacf0"),
    (8, "multi", False, "bffd65a1b260fac3"),
    (9, "single", True, "b6bb603c10d7ed2c"),
])
def test_search_text_pinned(n, mode, force, digest):
    # the cases perfbench's search workload times
    text = search_best_deviation(n, mode=mode, force=force).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_pseudoline_witness_n12_reaches_imbalance_two():
    # The least n with an allowable sequence whose every flip has
    # imbalance |c + d - (n + 1)| >= 2, found by the exhaustive search.
    with open(GOLDEN / "witness_n12_m2.trace") as fh:
        (window, initial), steps = iter_trace_file(fh)
        steps = list(steps)
    rep = verify_stream(initial, window, steps)
    assert rep.allowable and rep.all_valid and rep.reaches_reversal
    assert (initial.lo, initial.hi, rep.flip_count) == (1, 12, 36)
    assert rep.min_deviation == 1
    assert allowability_bruteforce(steps, initial)


def test_int_byte_conversions_name_their_byteorder():
    # pyproject declares Python >= 3.10, where int.from_bytes and
    # int.to_bytes have no default byteorder
    root = pathlib.Path(allowseq.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in ("from_bytes",
                                                             "to_bytes")):
                named = any(k.arg == "byteorder" for k in node.keywords)
                calls.append((path.name, node.lineno,
                              len(node.args) >= 2 or named))
    assert calls and all(ok for _, _, ok in calls), calls


def test_sampler_reproducible_and_balanced():
    for r in (0, 1, 2, Fraction(7, 2), 5):
        for seed in range(10):
            b1 = sample_balanced_block(30, r, seed)
            b2 = sample_balanced_block(30, r, seed)
            assert b1 == b2
            assert is_r_balanced(b1, r).balanced


def test_sampler_contract():
    with pytest.raises(ContractError):
        sample_balanced_block(0, 1)
    with pytest.raises(ContractError):
        sample_balanced_block(5, -1)


def test_search_result_text():
    res = search_best_deviation(3)
    text = res.to_text()
    assert text.splitlines()[0].startswith("3 1/2 ")
