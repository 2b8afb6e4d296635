"""Core value types: flips, windows, centred sequences and blocks, with
block flips, width and r-balance on blocks, all in exact integers.

A centred sequence is an injective integer sequence indexed by [lo, hi];
a flip [c, d] on it is forbidden when its midpoint lands in the window
[-t, t].  That rule lives in `TraceRecorder.emit_step` and, checked
independently, in `verify_stream`, not here.  A block is a sequence with
the indexing forgotten; a block flip needs only an increasing run, and
serves as the reference for `decompose_balanced`'s size-2 moves.
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


@dataclass(frozen=True)
class Window:
    """The forbidden central interval [-t, t] for flip midpoints."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ContractError("window parameter t must be >= 0")


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


def identity_sequence(lo: int, hi: int) -> CentredSequence:
    """The identity map on [lo, hi]."""
    return CentredSequence(lo, range(lo, hi + 1))


def _strictly_increasing(vals: Sequence[int]) -> bool:
    return all(map(operator.lt, vals, vals[1:]))


def is_valid_flip_block(b: Block, f: Flip) -> bool:
    """Block flips are 1-based and need only an increasing run."""
    if not (1 <= f.c and f.d <= len(b)):
        raise RangeError(f"flip [{f.c}, {f.d}] outside block of size {len(b)}")
    return _strictly_increasing(b.values[f.c - 1 : f.d])


def apply_block_flip(b: Block, f: Flip) -> Block:
    if not (1 <= f.c and f.d <= len(b)):
        raise RangeError(f"flip [{f.c}, {f.d}] outside block of size {len(b)}")
    i, j = f.c - 1, f.d
    return Block(b.values[:i] + tuple(reversed(b.values[i:j])) + b.values[j:])


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
