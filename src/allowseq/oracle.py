"""Brute-force oracles and exhaustive search over small state spaces.

None of them reuses the code it is checked against: widths by dynamic
programming and by full subsequence enumeration (not `seqcore`'s one
pile cover), allowability by diffing consecutive permutations (not
`verify_stream`), and the best achievable minimum deviation by
exhaustive threshold-indexed reachability (no constructive procedure).
From the engine they take only its value types and its writer: witness
steps are `FlipStep`s (one-flip ones from `single_step`), and
`SearchResult.to_text` prints them through `FileSink`.

`allowability_bruteforce` reads steps through `expand_steps`, so it
takes a `BlockSwap` as its a*b transpositions in canonical order, one
transition each, and a replayed sub-step as its body.  A multi-mode witness groups the
single-mode flips in order, a flip starting a new step exactly when it
overlaps a flip already in the current one, so each step is maximal.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .engine import INF, FileSink, FlipStep, expand_steps, single_step
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

    Applies the declared steps one transition at a time and checks each
    transition against the state before it, keeping only those two
    states: the changed cells must decompose into disjoint reversed runs
    that were increasing beforehand.  Declared flip lists are never
    trusted for the check itself.  The steps are read through
    expand_steps: a replayed sub-step is its body, and a BlockSwap is its
    transpositions, each its own transition, in canonical order.
    """
    lo = initial.lo
    old = list(initial.values)
    n = len(old)
    for step in expand_steps(steps):
        new = list(old)
        for f in step.flips:
            i, j = f.c - lo, f.d - lo + 1
            if i < 0 or j > n:
                return False
            new[i:j] = new[i:j][::-1]
        pos_of = {v: i for i, v in enumerate(old)}
        i = 0
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
        old = new
    return True


@dataclass(frozen=True)
class SearchResult:
    """The best least deviation at n, a witness reaching it and the states
    the search explored.  A dataclass, not a `seqcore.Value`, because the
    benchmark's tests build variants of it with `dataclasses.replace`."""

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
            sink.on_step(step)
        return out.getvalue()


def _position_map(c, d):
    """The flip [c, d] as a `bytes.translate` table on positions: p goes
    to c + d - p inside [c, d], and every other byte stays."""
    table = bytearray(range(256))
    table[c : d + 1] = range(d, c - 1, -1)
    return bytes(table)


def _search(n: int, q2: int, stop_at_reversal: bool = False) -> dict:
    """Breadth-first search from the identity on [1, n] over valid flips
    whose doubled deviation |c + d - (n + 1)| is at least q2.  Returns the
    parent map ({state: (c, d), or None for the identity}) of every state
    reached, in order of discovery, stopping as soon as the reversal is
    reached when `stop_at_reversal` is set.

    A state is keyed by its inverse permutation σ as `bytes`: σ[v - 1]
    is the position, 1..n, of value v.  The identity and the reversal are
    their own inverses.  A flip [c, d] sends the value at position p in
    [c, d] to c + d - p and leaves the rest in place, so the child's key is
    the parent's with every byte in [c, d] mapped that way: one
    `bytes.translate` through a 256-byte table built once per call for
    each admissible flip.  The map is an involution, so the witness walk
    back from the reversal applies the same table to each stored flip.

    The valid flips are the intervals inside one maximal increasing run
    of the values P.  `bytes.maketrans(σ, identity)` sends each position
    σ[v - 1] to the value v it holds, so its bytes 1..n are P, built once
    per expanded state and read as one big-endian integer x.  Then x >> 8
    holds P[1..n - 1] and x & L holds P[2..n], L being n - 1 bytes of
    0xff, and ((x >> 8 | H) - (x & L)) & H with H = 0x80 in each of those
    bytes sets the top bit of byte i exactly where P[i] > P[i + 1]; no
    lane borrows from the next because every value is below 128 (so
    n <= 127).

    A state s first reached by the flip f = [c_f, d_f] (`parent[s]`)
    probes only the admissible flips g with d_g >= c_f; the identity
    probes all.  The others commute with f and reach known states, so
    skipping them leaves the parent map, its order and its links as they
    are.  Proof, for the search that probes every flip: s is reached from
    p, and d_g < c_f.  Then g is disjoint from f and reads in p the values
    it reads in s, so g was admissible in p, and p probed it before f, as
    c_g < c_f.  So g(p) was reached before s and is expanded before it.
    f is admissible in g(p), so that expansion puts f(g(p)) = g(s) in the
    map before s is expanded, and the probe of g from s adds nothing.  By
    induction over the expansions, the skipping search builds the same
    map.  The proof needs breadth-first order: a parent's earlier
    children are expanded before its later ones.  This is the sleep set of
    partial-order reduction, with no set stored.

    A table filled on first use maps the descent mask and c_f to those
    flips, taken run by run from the left and inside a run by c, then d.
    Runs are disjoint, so that is the order of c, then d, over the whole
    state: children are discovered, and get their parents, in the order
    the plain enumeration of intervals gives them.  c_f <= 126 fills the
    seven low bits the mask leaves clear, so the key is their sum.

    The frontier of one layer lists the new keys in order of discovery;
    a state's values are rebuilt from its key when it is expanded.
    """
    if n < 1:
        raise ContractError("need n >= 1")
    if n > 127:
        raise RefusalError(f"n = {n} exceeds 127, the most values the "
                           f"search's seven-bit descent compare holds")
    identity = bytes(range(1, n + 1))
    reversal = bytes(range(n, 0, -1)) if stop_at_reversal else None
    flips = {(c, d): (_position_map(c, d), (c, d))
             for c in range(1, n + 1) for d in range(c + 1, n + 1)
             if abs(c + d - (n + 1)) >= q2}
    high = int.from_bytes(b"\x80" * (n - 1), "big")
    low = (1 << 8 * (n - 1)) - 1

    class FlipsToProbe(dict):
        def __missing__(self, key):
            mask, c_f = key & ~0x7F, key & 0x7F
            probes = []
            start = 1
            for i in range(1, n + 1):
                # byte i - 1 of the mask compares positions i and i + 1
                if i == n or mask >> (8 * (n - 1 - i) + 7) & 1:
                    probes += [flips[c, d] for c in range(start, i + 1)
                               for d in range(max(c + 1, c_f), i + 1)
                               if (c, d) in flips]
                    start = i + 1
            self[key] = probes
            return probes

    flips_to_probe = FlipsToProbe()
    parent = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for sigma in frontier:
            x = int.from_bytes(bytes.maketrans(sigma, identity)[1 : n + 1],
                               "big")
            key = ((x >> 8 | high) - (x & low)) & high
            link = parent[sigma]
            if link:
                key += link[0]
            for table, cd in flips_to_probe[key]:
                child = sigma.translate(table)
                if child not in parent:
                    parent[child] = cd
                    if child == reversal:
                        return parent
                    nxt.append(child)
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
    if n > SEARCH_GUARD and not force:
        raise RefusalError(
            f"n = {n} exceeds the guard {SEARCH_GUARD}; pass force=True "
            f"(--force on the command line) to override")
    if n <= 1:  # no flip at all; `_search` refuses n < 1
        return SearchResult(n, INF, (), len(_search(n, 0)))
    for q2 in range(n - 2, -1, -1):
        parent = _search(n, q2, stop_at_reversal=True)
        state = bytes(range(n, 0, -1))  # the reversal's key: its own inverse
        if state in parent:
            flips = []
            while parent[state] is not None:
                c, d = parent[state]
                flips.append((c, d))
                state = state.translate(_position_map(c, d))
            flips.reverse()
            steps = _witness_steps(flips, mode)
            return SearchResult(n, Fraction(q2, 2), tuple(steps), len(parent))
        del parent  # free it before the next search builds its own
    raise ContractError("no threshold admits the reversal; impossible")


def _witness_steps(flips, mode):
    if mode == "single":
        return [single_step(c, d) for c, d in flips]
    # A flip starts a new group exactly when it overlaps one already in
    # it.  The flips form a valid path, so a flip disjoint from the earlier
    # flips of its group reads a run they never touched: the run it
    # reversed, which was increasing before the whole step.
    groups = []
    for c, d in flips:
        if not groups or any(c <= d2 and c2 <= d for c2, d2 in groups[-1]):
            groups.append([])
        groups[-1].append((c, d))
    return [FlipStep([Flip(c, d) for c, d in group]) for group in groups]


def reachable_states(n: int, min_deviation=Fraction(0)) -> set:
    """The permutations reachable from the identity using valid flips of
    at least the given deviation; the direct reachability baseline."""
    parent = _search(n, math.ceil(2 * min_deviation))
    identity = bytes(range(1, n + 1))
    return {tuple(bytes.maketrans(sigma, identity)[1 : n + 1])
            for sigma in parent}


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
