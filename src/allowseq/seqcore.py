"""Core value types: flips, windows, centred sequences and blocks, with
block flips, width and r-balance on blocks, all in exact integers.

A centred sequence is an injective integer sequence indexed by [lo, hi];
a flip [c, d] on it is forbidden when its midpoint lands in the window
[-t, t].  That rule lives in `TraceRecorder.emit_step` and, checked
independently, in `verify_stream`, not here.  A block is a sequence with
the indexing forgotten; a block flip needs only an increasing run, and
serves as the reference for `decompose_balanced`'s size-2 moves.

Every value type of the package (flips, windows, sequences and blocks
here; steps, traces and reports in `engine`, `geom`, `construction` and
`planner`) is a `Value`: a slotted, immutable class whose fields are its
`__slots__`.  `Value` derives equality, hashing and the repr from the
fields once, so a value type writes only its constructor and, unlike a
dataclass, generates and compiles no code when its module is imported.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ContractError, RangeError

# Sets a field of a Value from its __init__, past Value.__setattr__.
init_field = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass names its fields in `__slots__`, in the order of its
    constructor's parameters, and its `__init__` sets each one with
    `init_field`.  From the fields the base derives equality (same class,
    equal fields), a hash over the fields, the repr `Name(field=value,
    ...)` and a copy or pickle by the constructor.  Assigning or deleting
    an attribute raises AttributeError, so a value can be shared freely.
    A subclass that caches a `functools.cached_property` adds "__dict__"
    to its slots; the cache is not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        # The fields of a value, as a tuple when there are several.
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Flip(Value):
    """An index interval [c, d] whose content gets reversed."""

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int):
        if c > d:
            raise ContractError(f"flip interval [{c}, {d}] is empty")
        init_field(self, "c", c)
        init_field(self, "d", d)

    @property
    def size(self) -> int:
        return self.d - self.c + 1


class Window(Value):
    """The forbidden central interval [-t, t] for flip midpoints."""

    __slots__ = ("t",)

    def __init__(self, t: int):
        if t < 0:
            raise ContractError("window parameter t must be >= 0")
        init_field(self, "t", t)


class Block(Value):
    """A finite sequence of pairwise distinct integers."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if len(set(vals)) != len(vals):
            raise ContractError("block values must be pairwise distinct")
        init_field(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


class CentredSequence(Value):
    """An injective map from positions lo..hi to integers."""

    __slots__ = ("lo", "values")

    def __init__(self, lo: int, values: Iterable[int]):
        vals = tuple(values)
        if not vals:
            raise ContractError("centred sequence must be nonempty")
        # A range holds no value twice, so only other iterables are checked.
        if values.__class__ is not range and len(set(vals)) != len(vals):
            raise ContractError("centred sequence must be injective")
        init_field(self, "lo", lo)
        init_field(self, "values", vals)

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


class BalanceReport(Value):
    """The verdict of `is_r_balanced`.  `witness` is the 1-based length of
    the first violated prefix.  `least_ratio` is the least
    |B'-| / width(B'+) over the prefixes B' scanned, all of B when it is
    balanced and those up to the witness when not, as an exact Fraction;
    None when none of them holds a positive value."""

    __slots__ = ("balanced", "r", "witness", "detail", "least_ratio")

    def __init__(self, balanced: bool, r: Fraction,
                 witness: Optional[int] = None, detail: str = "",
                 least_ratio: Optional[Fraction] = None):
        init_field(self, "balanced", balanced)
        init_field(self, "r", r)
        init_field(self, "witness", witness)
        init_field(self, "detail", detail)
        init_field(self, "least_ratio", least_ratio)


def is_r_balanced(b: Block, r) -> BalanceReport:
    """Check that the negative part is increasing and that every prefix B'
    has at least r * width(B'+) negative entries.  Exact rationals.

    The least prefix ratio is kept as the pair (negatives, width) and
    compared by cross-multiplying.  Only a positive value can lower the
    ratio, so only those prefixes are compared."""
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
    least_neg, least_w = 0, 0  # the least ratio so far; least_w = 0: none

    def report(balanced, witness=None, detail=""):
        least = Fraction(least_neg, least_w) if least_w else None
        return BalanceReport(balanced, r, witness, detail, least)

    for k, v in enumerate(b, start=1):
        if v < 0:
            if last_neg is not None and v < last_neg:
                return report(False, k, "negative part not increasing")
            last_neg = v
            neg_count += 1
        else:
            wplus = pw.push(v)
            if not least_w or neg_count * least_w < least_neg * wplus:
                least_neg, least_w = neg_count, wplus
        if neg_count * den < num * wplus:
            return report(False, k, f"prefix has {neg_count} negatives "
                                    f"< r*width = {r * wplus}")
    return report(True)
