"""Brute-force oracles and exhaustive search over small state spaces.

None of them reuses the code it is checked against: widths by dynamic
programming and by full subsequence enumeration (not `seqcore`'s greedy
width), allowability by diffing consecutive permutations (not
`verify_stream`), and the best achievable minimum deviation by
exhaustive threshold-indexed reachability (no constructive procedure).
From the engine they take only its value types and its writer: witness
steps are `FlipStep`s (one-flip ones from `single_step`), and
`SearchResult.to_text` prints them through `FileSink`.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .engine import INF, FileSink, FlipStep, single_step
from .errors import ContractError, RefusalError
from .seqcore import Block, CentredSequence, Flip

SEARCH_GUARD = 8
DEFAULT_SEED = 20240513


def width_dp(b: Block) -> int:
    """Longest strictly decreasing subsequence by the quadratic DP."""
    vals = b.values
    best = []
    for i, v in enumerate(vals):
        longest = 1
        for j in range(i):
            if vals[j] > v and best[j] + 1 > longest:
                longest = best[j] + 1
        best.append(longest)
    return max(best, default=0)


def width_enumerate(b: Block) -> int:
    """Width by trying every subsequence; only sane for tiny blocks."""
    vals = b.values
    if len(vals) > 12:
        raise RefusalError("full enumeration beyond size 12 is pointless")
    best = 0
    for size in range(len(vals), 0, -1):
        for idxs in combinations(range(len(vals)), size):
            seq = [vals[i] for i in idxs]
            if all(a > b2 for a, b2 in zip(seq, seq[1:])):
                return size
    return best


def allowability_bruteforce(steps: Iterable, initial: CentredSequence) -> bool:
    """Re-derive every transition from the permutations themselves.

    Applies the declared steps to produce the state sequence, then checks
    each consecutive pair independently: the changed cells must decompose
    into disjoint reversed runs that were increasing beforehand.  Declared
    flip lists are never trusted for the check itself.
    """
    lo = initial.lo
    states = [list(initial.values)]
    for step in steps:
        nxt = list(states[-1])
        for f in step.flips:
            i, j = f.c - lo, f.d - lo + 1
            if i < 0 or j > len(nxt):
                return False
            nxt[i:j] = nxt[i:j][::-1]
        states.append(nxt)
    for old, new in zip(states, states[1:]):
        pos_of = {v: i for i, v in enumerate(old)}
        i = 0
        n = len(old)
        while i < n:
            if old[i] == new[i]:
                i += 1
                continue
            j = pos_of[new[i]]
            if j <= i:
                return False
            seg_old = old[i : j + 1]
            if seg_old != new[i : j + 1][::-1]:
                return False
            if any(a >= b for a, b in zip(seg_old, seg_old[1:])):
                return False
            i = j + 1
    return True


@dataclass(frozen=True)
class SearchResult:
    n: int
    best_min_deviation: object    # Fraction, or INF when no flip is needed
    witness: tuple                # FlipSteps from the identity to the reversal
    states_explored: int

    def to_text(self) -> str:
        bd = self.best_min_deviation
        if bd == INF:
            head = f"{self.n} inf {self.states_explored}"
        else:
            head = f"{self.n} {bd.numerator}/{bd.denominator} {self.states_explored}"
        out = io.StringIO()
        out.write(head + "\n")
        sink = FileSink(out)
        for step in self.witness:
            sink.on_step([(f.c, f.d) for f in step.flips])
        return out.getvalue()


def _apply(perm, c, d):
    return perm[: c - 1] + perm[c - 1 : d][::-1] + perm[d:]


def _search(n: int, q2: int, goal=None) -> dict:
    """Breadth-first search from the identity on [1, n] over valid flips
    whose doubled deviation |c + d - (n + 1)| is at least q2.  Returns the
    parent map ({state: (c, d), or None for the identity}) of every state
    reached, stopping as soon as `goal` is.

    A state is the permutation's values as `bytes` (so n <= 255) and a
    trailing 0 sentinel that ends its last increasing run.  One pass
    over a state finds its maximal increasing runs; the valid flips are
    exactly the intervals inside one run, and a table built once per call
    holds, for each possible run, its admissible (c, d) with the slices
    that cut a child out of the state, one shared entry per flip.  Runs
    are taken left to right and each run's flips by c, then d, so
    children are discovered in order of c, then d, and every state keeps
    the parent the plain enumeration of intervals would give it.  Only
    the flip is stored: a flip reverses an increasing run into a
    decreasing one, and the same flip on the child reverses it back, so
    re-applying the stored flips walks from any state back to the
    identity.
    """
    identity = bytes(range(1, n + 1)) + b"\0"
    centre2 = n + 1
    cuts = {(c, d): ((c, d), slice(c - 1),
                     slice(d - 1, c - 2 if c > 1 else None, -1), slice(d, None))
            for c in range(1, n + 1) for d in range(c + 1, n + 1)
            if abs(c + d - centre2) >= q2}
    runs = [[()] * n for _ in range(n)]
    for s in range(n):
        for e in range(s + 1, n):
            runs[s][e] = tuple(cuts[c, d] for c in range(s + 1, e + 1)
                               for d in range(c + 1, e + 2) if (c, d) in cuts)
    parent = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for perm in frontier:
            s = 0
            for i in range(n):
                if perm[i] > perm[i + 1]:
                    for cd, a, r, b in runs[s][i]:
                        child = perm[a] + perm[r] + perm[b]
                        if child not in parent:
                            parent[child] = cd
                            if child == goal:
                                return parent
                            nxt.append(child)
                    s = i + 1
        frontier = nxt
    return parent


def search_best_deviation(n: int, mode: str = "single",
                          force: bool = False) -> SearchResult:
    """Exhaustively maximize, over allowable sequences on [1, n], the
    minimum deviation |flip midpoint - (n+1)/2| along the way.

    Threshold-indexed reachability: for each candidate threshold q, walk
    the graph using only flips with deviation >= q and test whether the
    reversal is reachable.  A compound step applies its disjoint flips one
    at a time without changing any of their deviations, so single-flip
    reachability decides both modes; multi mode merely merges compatible
    consecutive flips in the reported witness.  Thresholds are kept
    doubled, as integers; c + d - (n + 1) takes every value from 2 - n to
    n - 2.  `states_explored` is the size of the winning threshold's
    parent map, the identity included.
    """
    if mode not in ("single", "multi"):
        raise ContractError(f"unknown mode {mode!r}")
    if n < 1:
        raise ContractError("need n >= 1")
    if n > SEARCH_GUARD and not force:
        raise RefusalError(
            f"n = {n} exceeds the guard {SEARCH_GUARD}; pass force=True "
            f"(--force on the command line) to override")
    if n > 255:
        raise RefusalError(f"n = {n} exceeds 255, the most values a search "
                           f"state holds as bytes")
    if n == 1:
        return SearchResult(n, INF, (), 1)
    goal = bytes(range(n, -1, -1))
    for q2 in range(n - 2, -1, -1):
        parent = _search(n, q2, goal)
        if goal in parent:
            flips = []
            state = goal
            while parent[state] is not None:
                c, d = parent[state]
                flips.append((c, d))
                state = _apply(state, c, d)
            flips.reverse()
            steps = _witness_steps(tuple(range(1, n + 1)), flips, mode)
            return SearchResult(n, Fraction(q2, 2), tuple(steps), len(parent))
        del parent  # free it before the next search builds its own
    raise ContractError("no threshold admits the reversal; impossible")


def _witness_steps(identity, flips, mode):
    if mode == "single":
        return [single_step(c, d) for c, d in flips]
    # Merge consecutive flips into one step while they are pairwise
    # disjoint and each run was increasing in the state before the step.
    steps = []
    state = identity
    group = []

    def run_ok(c, d):
        seg = state[c - 1 : d]
        return all(a < b for a, b in zip(seg, seg[1:]))

    def flush():
        nonlocal state, group
        if group:
            steps.append(FlipStep([Flip(c, d) for c, d in group]))
            for c, d in group:
                state = _apply(state, c, d)
            group = []

    for c, d in flips:
        clash = any(not (d < c2 or d2 < c) for c2, d2 in group)
        if clash or not run_ok(c, d):
            flush()
        group.append((c, d))
    flush()
    return steps


def reachable_states(n: int, min_deviation=Fraction(0)) -> set:
    """The permutations reachable from the identity using valid flips of
    at least the given deviation; the direct reachability baseline."""
    return {tuple(state[:-1])
            for state in _search(n, math.ceil(2 * min_deviation))}


def sample_balanced_block(size: int, r, seed: int = DEFAULT_SEED) -> Block:
    """A deterministic r-balanced block: an increasing negative backbone
    interleaved with descending chains of positive runs, each prefix
    keeping at least r * width of negatives ahead of it."""
    r = Fraction(r)
    if r < 0:
        raise ContractError("r must be >= 0")
    if size < 1:
        raise ContractError("need size >= 1")
    rng = random.Random(seed)
    need = int(r) if r == int(r) else int(r) + 1  # ceil
    if size <= need:
        # Not enough room for any positive chain: all-negative block.
        vals = sorted(rng.sample(range(-8 * size, 0), size))
        return Block(vals)
    k = rng.randint(1, max(1, min(size // (need + 1), 6)))
    chain_sizes = []
    budget = size - k * need
    for j in range(k):
        take = rng.randint(1, max(1, budget - (k - j - 1)))
        chain_sizes.append(take)
        budget -= take
    neg_total = size - sum(chain_sizes)
    neg_sizes = [need] * k
    spare = neg_total - k * need
    while spare > 0:
        add = rng.randint(0, spare)
        neg_sizes[rng.randrange(k)] += add
        spare -= add
    negs = sorted(rng.sample(range(-10 * size, 0), neg_total))
    # Positive chains live in disjoint descending value bands, so every
    # later chain deepens the width by exactly one.
    band = 2 * size
    chains = []
    for j, cs in enumerate(chain_sizes):
        hi = (k - j) * band
        chains.append(sorted(rng.sample(range(hi - band + 1, hi + 1), cs)))
    out = []
    ni = 0
    for j in range(k):
        out.extend(negs[ni : ni + neg_sizes[j]])
        ni += neg_sizes[j]
        out.extend(chains[j])
    return Block(out)
