"""Core value types: flips, windows, centred sequences and blocks, with
block flips, width and r-balance on blocks, all in exact integers.  The
width, the greedy chains and the balance check all read one chain cover,
the patience piles of `_piles`.

A centred sequence is an injective integer sequence indexed by [lo, hi];
a flip [c, d] on it is forbidden when its midpoint lands in the window
[-t, t].  That rule lives in `TraceRecorder.emit_step` and, checked
independently, in `verify_stream`, not here.  A block is a sequence with
the indexing forgotten; a block flip needs only an increasing run, and
serves as the reference for `decompose_balanced`'s size-2 moves.

Every value type of the package (flips, windows, sequences and blocks
here; steps, traces and reports in `engine`, `geom`, `construction` and
`planner`) is a `Value`: a slotted, immutable class whose fields are its
`__slots__`.  `Value` derives the constructor, equality, hashing and the
repr from the fields, so a plain record writes only its slots and, unlike
a dataclass, generates and compiles no code when its module is imported:
a class's constructor is compiled at the first construction of one of
its values, and its equality and hash at the first comparison or hash.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ContractError, RangeError

# Sets a field of a Value from its own __init__, past Value.__setattr__.
init_field = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass names its fields in `__slots__`.  From the fields the base
    derives the constructor, equality (same class, equal fields), a hash
    over the fields, the repr `Name(field=value, ...)` and a copy or
    pickle by the constructor.  The constructor takes one parameter per
    field, in slot order; `_defaults` maps trailing fields to the values
    they take when left out.  Only a subclass whose constructor refuses
    some input writes its own `__init__`, setting each field with
    `init_field`.  Assigning or deleting an attribute raises
    AttributeError, so a value can be shared freely.  A subclass that
    caches a `functools.cached_property` adds "__dict__" to its slots;
    the cache is not a field.

    Equality and hash compare the key of a value: its one field, or the
    tuple of its fields when there are several.  Nothing is compiled at
    import: a class's `__init__`, which sets each slot through its
    descriptor's `__set__`, is compiled at its first construction, and its
    `__eq__` and `__hash__` at its first comparison or hash; each is then
    set on the class.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

    def __init__(self, *args, **kwargs):
        """Give the class the constructor of its fields, then run it."""
        cls = self.__class__
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults
                           else f for f in cls._fields)
        ns = {f"_set_{f}": getattr(cls, f).__set__ for f in cls._fields}
        ns["_defaults"] = cls._defaults
        exec(f"def __init__(self, {params}):\n"
             + "".join(f"    _set_{f}(self, {f})\n" for f in cls._fields), ns)
        cls.__init__ = ns["__init__"]
        cls.__init__(self, *args, **kwargs)

    @classmethod
    def _compile(cls):
        """Give the class the `__eq__` and `__hash__` of its key."""
        def key(name):
            return ", ".join(f"{name}.{f}" for f in cls._fields) + (
                "" if len(cls._fields) == 1 else ",")
        ns = {}
        exec(f"def __eq__(self, other):\n"
             f"    if other.__class__ is self.__class__:\n"
             f"        return ({key('self')}) == ({key('other')})\n"
             f"    return NotImplemented\n"
             f"def __hash__(self):\n"
             f"    return hash(({key('self')}))\n", ns)
        cls.__eq__, cls.__hash__ = ns["__eq__"], ns["__hash__"]

    def __eq__(self, other):
        self._compile()
        return self.__eq__(other)

    def __hash__(self):
        self._compile()
        return self.__hash__()

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


def _piles(vals: Sequence[int]) -> list:
    """The pile index, from 0, of each value: the one chain cover behind
    `width_greedy`, `width` and `is_r_balanced`.

    Patience piles: a value goes on the leftmost pile whose top is below
    it, or starts a new pile.  The tops decrease left to right, so one
    `bisect_left` on the negated tops finds the pile.  Pile 0 takes a
    value exactly when it exceeds the pile's top, which is the rule by
    which greedy peeling builds its first chain; pile 1 applies the same
    rule to what pile 0 refuses, and so on.  So pile j is the j-th chain
    that greedy peeling takes, value for value.  A value on pile j > 0
    lies below the top of pile j-1 when placed, an earlier value; these
    links give a strictly decreasing subsequence through every pile, so
    the pile count is the width (Aldous & Diaconis, Bull. AMS 36, 1999).
    """
    tops = []  # negated pile tops, increasing
    piles = []
    for x in map(operator.neg, vals):
        i = bisect_left(tops, x)
        if i == len(tops):
            tops.append(x)
        else:
            tops[i] = x
        piles.append(i)
    return piles


def _chains(piles: list) -> list:
    """The indices on each pile of `_piles`, pile by pile: the greedy
    chains, each increasing in index and in value."""
    chains = [[] for _ in range(max(piles, default=-1) + 1)]
    for idx, pile in enumerate(piles):
        chains[pile].append(idx)
    return chains


def width_greedy(b: Block):
    """Greedy peeling into increasing subsequences, the piles of `_piles`:
    (number of chains, chains as index tuples), the count being the width."""
    chains = _chains(_piles(b.values))
    return len(chains), [tuple(chain) for chain in chains]


def width(b: Block) -> int:
    """Width = longest strictly decreasing subsequence = pile count."""
    return max(_piles(b.values), default=-1) + 1


class BalanceReport(Value):
    """The verdict of `is_r_balanced` for the ratio `r`, a Fraction.
    `witness` is the 1-based length of the first violated prefix and
    `detail` says how it fails; None and "" when balanced.  `least_ratio`
    is the least |B'-| / width(B'+) over the prefixes B' scanned, all of
    B when it is balanced and those up to the witness when not, as an
    exact Fraction; None when none of them holds a positive value."""

    __slots__ = ("balanced", "r", "witness", "detail", "least_ratio")
    _defaults = {"witness": None, "detail": "", "least_ratio": None}


def is_r_balanced(b: Block, r, piles: Optional[list] = None) -> BalanceReport:
    """Check that the negative part is increasing and that every prefix B'
    has at least r * width(B'+) negative entries.  Exact rationals.

    The least prefix ratio is kept as the pair (negatives, width) and
    compared by cross-multiplying.  Only a positive value can lower the
    ratio, so only those prefixes are compared.  `piles`, when given, is
    `_piles` of b's positive values, which a caller that also needs
    width(B+) has already built."""
    r = Fraction(r)
    if r < 0:
        raise ContractError("r must be >= 0")
    if any(v == 0 for v in b):
        raise ContractError("balance is undefined for blocks containing 0")
    num, den = r.as_integer_ratio()
    neg_count = 0
    last_neg = None
    if piles is None:
        piles = _piles([v for v in b if v > 0])
    piles = iter(piles)
    wplus = 0  # the pile count of the positive values so far
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
            if next(piles) == wplus:
                wplus += 1
            if not least_w or neg_count * least_w < least_neg * wplus:
                least_neg, least_w = neg_count, wplus
        if neg_count * den < num * wplus:
            return report(False, k, f"prefix has {neg_count} negatives "
                                    f"< r*width = {r * wplus}")
    return report(True)
