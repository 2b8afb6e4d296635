"""Core data model: centred sequences, blocks, flips, windows, balance.

A centred sequence is an injective integer sequence indexed by an integer
interval [lo, hi]; position 0 is the centre of interest and flips whose
midpoint lands in the window [-t, t] are forbidden.  A block is the same
thing with the indexing forgotten; block flips carry no window condition.

All midpoint comparisons are done on doubled integers (a flip [c, d] has
midpoint (c+d)/2, a half-integer), so there is no floating point anywhere.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ContractError, RangeError


@dataclass(frozen=True)
class Flip:
    """An index interval [c, d] whose content gets reversed."""

    c: int
    d: int

    def __post_init__(self):
        if self.c > self.d:
            raise ContractError(f"flip interval [{self.c}, {self.d}] is empty")

    @property
    def size(self) -> int:
        return self.d - self.c + 1

    def midpoint_doubled(self) -> int:
        return self.c + self.d


@dataclass(frozen=True)
class Window:
    """The forbidden central interval [-t, t] for flip midpoints."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ContractError("window parameter t must be >= 0")

    def clears(self, f: Flip) -> bool:
        """True iff the midpoint of f lies strictly outside [-t, t]."""
        return abs(f.midpoint_doubled()) > 2 * self.t


@dataclass(frozen=True)
class Block:
    """A finite sequence of pairwise distinct integers."""

    values: tuple

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if len(set(vals)) != len(vals):
            raise ContractError("block values must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def reversed(self) -> "Block":
        return Block(reversed(self.values))


@dataclass(frozen=True)
class CentredSequence:
    """An injective map from positions lo..hi to integers."""

    lo: int
    values: tuple

    def __init__(self, lo: int, values: Iterable[int]):
        vals = tuple(values)
        if not vals:
            raise ContractError("centred sequence must be nonempty")
        if len(set(vals)) != len(vals):
            raise ContractError("centred sequence must be injective")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "values", vals)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def at(self, pos: int) -> int:
        if not self.lo <= pos <= self.hi:
            raise RangeError(f"position {pos} outside [{self.lo}, {self.hi}]")
        return self.values[pos - self.lo]


def identity_sequence(lo: int, hi: int) -> CentredSequence:
    """The identity map on [lo, hi]."""
    return CentredSequence(lo, range(lo, hi + 1))


def as_centred(b: Block, hi: int) -> Optional[CentredSequence]:
    """Place a block on the domain [hi - |b| + 1, hi]; empty blocks give None."""
    if len(b) == 0:
        return None
    return CentredSequence(hi - len(b) + 1, b.values)


def as_block(seq: CentredSequence) -> Block:
    """Forget the indexing of a centred sequence."""
    return Block(seq.values)


def _strictly_increasing(vals: Sequence[int]) -> bool:
    return all(map(operator.lt, vals, vals[1:]))


def is_valid_flip_centred(seq: CentredSequence, f: Flip, w: Window) -> bool:
    """A flip is valid on a centred sequence when the affected run is
    strictly increasing and its midpoint clears the window."""
    if not (seq.lo <= f.c and f.d <= seq.hi):
        raise RangeError(f"flip [{f.c}, {f.d}] outside [{seq.lo}, {seq.hi}]")
    run = seq.values[f.c - seq.lo : f.d - seq.lo + 1]
    return _strictly_increasing(run) and w.clears(f)


def is_valid_flip_block(b: Block, f: Flip) -> bool:
    """Block flips are 1-based and need only an increasing run."""
    if not (1 <= f.c and f.d <= len(b)):
        raise RangeError(f"flip [{f.c}, {f.d}] outside block of size {len(b)}")
    return _strictly_increasing(b.values[f.c - 1 : f.d])


def apply_flip(seq: CentredSequence, f: Flip) -> CentredSequence:
    """Reverse positions c..d.  Validity is not required here; the trace
    engine enforces it at emission time."""
    if not (seq.lo <= f.c and f.d <= seq.hi):
        raise RangeError(f"flip [{f.c}, {f.d}] outside [{seq.lo}, {seq.hi}]")
    i, j = f.c - seq.lo, f.d - seq.lo + 1
    vals = seq.values[:i] + tuple(reversed(seq.values[i:j])) + seq.values[j:]
    return CentredSequence(seq.lo, vals)


def apply_block_flip(b: Block, f: Flip) -> Block:
    if not (1 <= f.c and f.d <= len(b)):
        raise RangeError(f"flip [{f.c}, {f.d}] outside block of size {len(b)}")
    i, j = f.c - 1, f.d
    return Block(b.values[:i] + tuple(reversed(b.values[i:j])) + b.values[j:])


def sign_parts(b: Block) -> tuple:
    """Split into the positive and negative subsequences, order preserved.

    A value 0 belongs to neither part; callers that cannot tolerate that
    must reject zeros themselves (is_r_balanced does).
    """
    pos = Block(v for v in b if v > 0)
    neg = Block(v for v in b if v < 0)
    return pos, neg


def precedes(x, y) -> bool:
    """x < y elementwise: every value of x is below every value of y."""
    xv = x.values if not isinstance(x, (tuple, list)) else tuple(x)
    yv = y.values if not isinstance(y, (tuple, list)) else tuple(y)
    if not xv or not yv:
        raise ContractError("precedes requires nonempty operands")
    return max(xv) < min(yv)


def width_greedy(b: Block):
    """Greedy peeling into increasing subsequences.

    Repeatedly extracts the chain that starts at the leftmost remaining
    index and always continues at the leftmost later index carrying a
    larger value.  Returns (number of chains, chains as index tuples);
    the chain count equals the width of the block.
    """
    n = len(b)
    remaining = list(range(n))
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


class PrefixWidth:
    """Online longest-strictly-decreasing-subsequence length.

    Feed values left to right; width() is the LDS length of everything
    fed so far.  Patience piles on negated values, O(log n) per push.
    """

    def __init__(self):
        self._tops = []  # pile tops of negated values, increasing

    def push(self, v: int) -> int:
        x = -v
        i = bisect_left(self._tops, x)
        if i == len(self._tops):
            self._tops.append(x)
        else:
            self._tops[i] = x
        return len(self._tops)

    def width(self) -> int:
        return len(self._tops)


def width(b: Block) -> int:
    """Width = longest strictly decreasing subsequence length."""
    pw = PrefixWidth()
    for v in b:
        pw.push(v)
    return pw.width()


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    r: Fraction
    witness: Optional[int] = None  # 1-based length of first violated prefix
    detail: str = ""


def is_r_balanced(b: Block, r) -> BalanceReport:
    """Check that the negative part is increasing and that every prefix B'
    has at least r * width(B'+) negative entries.  Exact rationals."""
    r = Fraction(r)
    if r < 0:
        raise ContractError("r must be >= 0")
    if any(v == 0 for v in b):
        raise ContractError("balance is undefined for blocks containing 0")
    num, den = r.as_integer_ratio()
    neg_count = 0
    last_neg = None
    pw = PrefixWidth()
    wplus = 0
    for k, v in enumerate(b, start=1):
        if v < 0:
            if last_neg is not None and v < last_neg:
                return BalanceReport(False, r, k, "negative part not increasing")
            last_neg = v
            neg_count += 1
        else:
            wplus = pw.push(v)
        if neg_count * den < num * wplus:
            return BalanceReport(
                False, r, k, f"prefix has {neg_count} negatives < r*width = {r * wplus}"
            )
    return BalanceReport(True, r)
