import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from allowseq.errors import ContractError, RangeError
from allowseq.oracle import width_dp
from allowseq.seqcore import (BalanceReport, Block, CentredSequence, Flip,
                              apply_block_flip, identity_sequence,
                              is_r_balanced, is_valid_flip_block, width,
                              width_greedy)

blocks = st.lists(st.integers(-50, 50), min_size=1, max_size=24,
                  unique=True).map(Block)


def test_valid_flip_block():
    assert is_valid_flip_block(Block((1, 2, 3)), Flip(1, 3))
    assert is_valid_flip_block(Block((3, 1, 2)), Flip(2, 3))
    assert not is_valid_flip_block(Block((3, 1, 2)), Flip(1, 2))
    for i in (1, 2, 3):
        assert is_valid_flip_block(Block((3, 1, 2)), Flip(i, i))
    with pytest.raises(RangeError):
        is_valid_flip_block(Block((1, 2)), Flip(0, 1))


def test_width_greedy_examples():
    assert width_greedy(Block(range(1, 8)))[0] == 1
    assert width_greedy(Block(range(7, 0, -1)))[0] == 7
    assert width_greedy(Block((2, 3, 1)))[0] == 2


@given(blocks)
def test_width_greedy_matches_dp_and_covers(b):
    k, chains = width_greedy(b)
    assert k == width_dp(b) == width(b)
    seen = sorted(i for ch in chains for i in ch)
    assert seen == list(range(len(b)))
    for ch in chains:
        assert all(b[i] < b[j] for i, j in zip(ch, ch[1:]))


def rescanning_width_greedy(b):
    """Greedy peeling by repeated rescans, the chain cover `seqcore` used
    before its patience piles, kept as the reference they must match."""
    remaining = list(range(len(b)))
    chains = []
    while remaining:
        chain = [remaining[0]]
        for idx in remaining[1:]:
            if b[idx] > b[chain[-1]]:
                chain.append(idx)
        chains.append(tuple(chain))
        taken = set(chain)
        remaining = [i for i in remaining if i not in taken]
    return len(chains), chains


def test_width_greedy_matches_rescanning_reference():
    rng = random.Random(31)
    cases = [Block(()), Block(range(1, 9)), Block(range(8, 0, -1)),
             Block(range(-4, 5)), Block((-3, 5, -1, 2, 4, -7, 1, -2))]
    for _ in range(400):
        size = rng.randrange(0, 30)
        low = rng.choice((-60, -30, 0))
        cases.append(Block(rng.sample(range(low, low + 61), size)))
    for b in cases:
        k, chains = width_greedy(b)
        assert (k, chains) == rescanning_width_greedy(b), b
        assert width(b) == k == width_dp(b)
    assert width_greedy(Block(())) == (0, [])
    assert width_greedy(Block((2, 3, 1))) == (2, [(0, 1), (2,)])


def test_is_r_balanced_examples():
    assert is_r_balanced(Block((-5, -3, -1)), 100).balanced
    assert is_r_balanced(Block((-1, 1)), 1).balanced
    rep = is_r_balanced(Block((-1, 1)), 2)
    assert not rep.balanced and rep.witness == 2
    rep = is_r_balanced(Block((1, -1)), Fraction(1, 2))
    assert not rep.balanced and rep.witness == 1
    with pytest.raises(ContractError):
        is_r_balanced(Block((0, 1)), 1)


def test_is_r_balanced_exact_boundary():
    # r = 7/3: a prefix with 3 * negatives == 7 * width passes; one
    # negative fewer fails at the same prefix.
    r = Fraction(7, 3)
    assert is_r_balanced(Block((-7, -6, -5, -4, -3, -2, -1, 3, 2, 1)),
                         r).balanced
    rep = is_r_balanced(Block((-6, -5, -4, -3, -2, -1, 3, 2, 1)), r)
    assert (rep.balanced, rep.r, rep.witness, rep.detail) == (
        False, r, 9, "prefix has 6 negatives < r*width = 7")
    rep = is_r_balanced(Block((-4, -3, -2, -1, 2, 1)), r)
    assert (rep.witness, rep.detail) == (
        6, "prefix has 4 negatives < r*width = 14/3")
    # integer r, and r = 0, which every block without 0 meets
    assert is_r_balanced(Block((-2, -1, 1)), 2).balanced
    rep = is_r_balanced(Block((-1, 1)), 2)
    assert (rep.r, rep.witness, rep.detail) == (
        2, 2, "prefix has 1 negatives < r*width = 2")
    assert is_r_balanced(Block((3, 2, 1)), 0).balanced
    assert is_r_balanced(Block((1, -4, 2, -3)), 0) == BalanceReport(
        True, Fraction(0), least_ratio=Fraction(0))


def test_is_r_balanced_least_prefix_ratio():
    # the least |B'-| / width(B'+), met with equality at the boundary
    rep = is_r_balanced(Block((-7, -6, -5, -4, -3, -2, -1, 3, 2, 1)),
                        Fraction(7, 3))
    assert rep.balanced and rep.least_ratio == Fraction(7, 3)
    # a failure reports the least ratio up to its witness
    rep = is_r_balanced(Block((-6, -5, -4, -3, -2, -1, 3, 2, 1)),
                        Fraction(7, 3))
    assert (rep.witness, rep.least_ratio) == (9, 2)
    rep = is_r_balanced(Block((-4, -1, 5, -3, 2, 1)), 0)
    assert rep.witness == 4 and rep.least_ratio == 2
    # the least need not come last: 1/1 after the 4, then 4/2 twice
    rep = is_r_balanced(Block((-9, 4, -8, -7, -6, 3, 5)), 1)
    assert rep.balanced and rep.least_ratio == 1
    assert is_r_balanced(Block((1, -1)), 0).least_ratio == 0
    # None when no prefix holds a positive value
    rep = is_r_balanced(Block((-5, -3, -1)), 100)
    assert rep.balanced and rep.least_ratio is None


@given(blocks, st.fractions(min_value=0, max_value=6))
def test_least_prefix_ratio_matches_prefix_scan(b, r):
    if any(v == 0 for v in b):
        return
    rep = is_r_balanced(b, r)
    scanned = len(b) if rep.balanced else rep.witness
    ratios = []
    for j in range(1, scanned + 1):
        prefix = b.values[:j]
        w = width_dp(Block(v for v in prefix if v > 0))
        if w:
            ratios.append(Fraction(sum(v < 0 for v in prefix), w))
    assert rep.least_ratio == (min(ratios) if ratios else None)
    negs = [v for v in b if v < 0]
    if negs == sorted(negs):
        assert rep.balanced == (rep.least_ratio is None
                                or rep.least_ratio >= r)


@given(blocks, st.fractions(min_value=0, max_value=6))
def test_balance_monotone_in_r(b, r):
    if any(v == 0 for v in b):
        return
    rep = is_r_balanced(b, r)
    if rep.balanced:
        assert is_r_balanced(b, r / 2).balanced
        assert is_r_balanced(b, 0).balanced


@given(blocks)
def test_block_flip_decomposes_into_valid_transpositions(b):
    # any valid block flip equals a chain of valid size-2 block flips
    runs = [(c, d) for c in range(1, len(b) + 1)
            for d in range(c + 1, len(b) + 1)
            if is_valid_flip_block(b, Flip(c, d))]
    for c, d in runs[:8]:
        direct = apply_block_flip(b, Flip(c, d))
        cur = b
        for start in range(d - 1, c - 1, -1):
            for i in range(start, d):
                step = Flip(i, i + 1)
                assert is_valid_flip_block(cur, step)
                cur = apply_block_flip(cur, step)
        assert cur == direct


def test_centred_sequence_from_a_range():
    assert CentredSequence(0, range(3)) == CentredSequence(0, [0, 1, 2])
    assert CentredSequence(-2, range(5, 0, -2)) == CentredSequence(-2, (5, 3, 1))
    assert identity_sequence(-1, 1) == CentredSequence(-1, (-1, 0, 1))
    with pytest.raises(ContractError, match="must be nonempty"):
        CentredSequence(0, range(0))
    with pytest.raises(ContractError, match="must be nonempty"):
        identity_sequence(1, 0)
    for dup in ([0, 1, 0], (2, 2), iter([3, 4, 3])):
        with pytest.raises(ContractError, match="must be injective"):
            CentredSequence(0, dup)
