"""Constructive procedures that emit verified flips into a trace.

The two primitives are shifting (bring a designated block into the
window) and reflection (carry a block across the window), both realized
out of block swaps, region sorts and one wide flip whose midpoint sits
just outside the window.  On top of them sit the balanced block
decomposition, the recursive growth step, and the full pipeline from an
identity sequence to its reversal.

Positions are absolute throughout; the window is always [-t, t].  Region
bookkeeping inside the recursive step, and right of the window in the
finish phase, uses a SegmentMap: named, sized segments tiling the working
span of one recorder, keyed by their first positions, mirroring the block
concatenation expressions the procedures reason in.  `SegmentMap.move` is
the only segment move: it derives the swapped intervals from the map,
emits the block swap and re-keys the segments it moved in one call, so
the map stays the single source of truth for where things are, and every
move is re-validated on concrete values by the recorder.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import TraceRecorder
from .errors import ContractError
from .planner import (MAX_CELLS, SizePlan, alpha_closed, beta_closed,
                      plan_sizes, require_cells, shift_thresholds)
from .seqcore import (Block, CentredSequence, Value, Window, _chains, _piles,
                      _strictly_increasing, identity_sequence, is_r_balanced)


def _ivlen(iv) -> int:
    return iv[1] - iv[0] + 1


def _empty(iv) -> bool:
    return iv[0] > iv[1]


def _last(names):
    return names[-1] if names else None


def _check(cond, *parts):
    """Refuse unless cond holds, with the parts joined as the message; the
    message is built only when the check fails."""
    if not cond:
        raise ContractError("".join(map(str, parts)))


# ---------------------------------------------------------------------------
# Mirrored view.


def _mir(iv):
    """An interval as seen through a MirrorView, and back."""
    return (-iv[1], -iv[0])


class MirrorView:
    """Position- and value-negated view of a recorder.

    A layout C^B^A^X whose order relations are all reversed looks, through
    the view, exactly like X^A^B^C with the standard relations, so the
    unmirrored procedures run on it unchanged.  Flips and moves are
    translated back to real coordinates before touching the recorder,
    whose own validation therefore still applies.
    """

    def __init__(self, rec):
        self.rec = rec

    @property
    def t(self):
        return self.rec.t

    def values(self, lo, hi):
        return tuple(-v for v in reversed(self.rec.values(-hi, -lo)))

    def emit_flip(self, c, d):
        self.rec.emit_flip(-d, -c)

    def swap_adjacent_blocks(self, left, right):
        self.rec.swap_adjacent_blocks(_mir(right), _mir(left))

    def sort_region_decreasing(self, region):
        self.rec.sort_region_decreasing(_mir(region))

    def annotate(self, label):
        return self.rec.annotate(label + " [mirrored]")

    def bug(self, message):
        self.rec.bug(message)


# ---------------------------------------------------------------------------
# Shifting.


def _shift_rec(ops, t, k, a_iv, b_iv, c_iv, thresholds):
    """Level-k shifting: A on [k, t], B increasing with |B| >= N_k,
    |C| = t-k+1 and A < B < C.  Afterwards C sits on [k, t] (in order) and
    everything else is decreasing right of t.  Returns the D interval."""
    n = _ivlen(b_iv)
    need = thresholds[t - k]
    if n < need:
        ops.bug(f"shift level {k} needs |B| >= {need}, got {n}")
    if k == t:
        # A, B, C concatenate to one increasing run; flip it whole.  The
        # midpoint t + (n+1)/2 clears the window for every n >= 0.
        ops.emit_flip(a_iv[0], c_iv[1])
        return (t + 1, c_iv[1])

    n1 = thresholds[t - k - 1]
    span = t - k
    b1 = (b_iv[0], b_iv[0] + n1 - 1)
    b2 = (b1[1] + 1, b1[1] + span)
    b3 = (b2[1] + 1, b2[1] + span)
    b4 = (b3[1] + 1, b_iv[1])
    c1 = (c_iv[0], c_iv[0])
    cp_len = _ivlen(c_iv) - 1

    _shift_rec(ops, t, k + 1, (k + 1, t), b1, b2, thresholds)
    # Now: A1 at k, B2 on [k+1, t], leftovers E1, then B3, B4, C.
    e1 = (t + 1, t + span + n1)
    b3_now = (e1[1] + 1, e1[1] + span)
    ops.swap_adjacent_blocks(e1, b3_now)
    e1_now = (t + 1 + span, t + span + n1 + span)
    ops.swap_adjacent_blocks((e1_now[0], c1[0] - 1), c1)
    ops.emit_flip(k, 2 * t - k + 1)
    # Now: C1 at k, reversed B3 on [k+1, t], then reversed B2, A1, E1.
    e2 = (t + 1, 2 * t - k + 1 + _ivlen(e1))
    ops.sort_region_decreasing(e2)
    ops.swap_adjacent_blocks(e2, (e2[1] + 1, c_iv[1]))
    b4_now = (t + 1, t + _ivlen(b4))
    cp_now = (b4_now[1] + 1, b4_now[1] + cp_len)
    _shift_rec(ops, t, k + 1, (k + 1, t), b4_now, cp_now, thresholds)
    return (t + 1, c_iv[1])


def _require_layout(ops, x_iv, a_iv, b_iv, c_iv, min_b, name):
    t = ops.t
    for part, iv in (("X", x_iv), ("C", c_iv)):
        _check(iv is None or not _empty(iv), name, ": ", part,
               " must not be empty")
    _check(a_iv == (-t, t), name, ": the centred part must sit on [-t, t]")
    _check(b_iv[0] == t + 1, name, ": B must start at t+1")
    _check(b_iv[1] + 1 == c_iv[0], name, ": C must follow B")
    nb = _ivlen(b_iv)
    _check(nb >= min_b, name, ": |B| = ", nb, " is below the bound ", min_b)
    bv = ops.values(*b_iv)
    _check(_strictly_increasing(bv), name, ": B must be increasing")
    av = ops.values(*a_iv)
    cv = ops.values(*c_iv)
    _check(max(av) < min(bv), name, ": need A < B")
    _check(max(bv) < min(cv), name, ": need B < C")
    if x_iv is not None:
        _check(x_iv[1] + 1 == a_iv[0], name, ": X must end at -t-1")
        xv = ops.values(*x_iv)
        _check(_strictly_increasing(xv), name, ": X must be increasing")
        _check(_strictly_increasing(cv), name, ": C must be increasing")
        _check(max(xv) < min(av), name, ": need X < A")
        _check(_ivlen(x_iv) == _ivlen(c_iv), name, ": need |X| = |C|")


def shift(ops, a_iv, b_iv, c_iv):
    """Go from A^B^C to C-on-the-window, then a decreasing block.

    A occupies [-t, t]; B is increasing with |B| >= 3^(2t); |C| = 2t+1;
    A < B < C on values.  `ops` is a recorder or a MirrorView of one.
    Returns (window interval, D interval)."""
    t = ops.t
    _check(_ivlen(c_iv) == 2 * t + 1, "shift: need |C| = 2t+1")
    _require_layout(ops, None, a_iv, b_iv, c_iv, 3 ** (2 * t), "shift")
    with ops.annotate(f"shift n={_ivlen(b_iv)}"):
        d_iv = _shift_rec(ops, t, -t, a_iv, b_iv, c_iv, shift_thresholds(t))
    return a_iv, d_iv


def shift_mirrored(tr, a_iv, b_iv, c_iv):
    """Mirrored shifting for the layout C^B^A with A > B > C."""
    w_v, d_v = shift(MirrorView(tr), _mir(a_iv), _mir(b_iv), _mir(c_iv))
    return _mir(w_v), _mir(d_v)


# ---------------------------------------------------------------------------
# Reflection.


def reflect(ops, x_iv, a_iv, b_iv, c_iv):
    """Go from X^A^B^C to reversed-C ^ D-on-the-window ^ E.

    The window ends up holding the last 2t+1 values of B in reverse, E is
    decreasing below it.  Needs |X| = |C|, X/B/C increasing, X < A < B < C
    and |B| >= 3^(2t) + 4t + 2.  `ops` is a recorder or a MirrorView of
    one.  Returns (reversed-C, window, E) intervals."""
    t = ops.t
    T = 3 ** (2 * t)
    _require_layout(ops, x_iv, a_iv, b_iv, c_iv, T + 4 * t + 2, "reflect")
    n = _ivlen(b_iv)
    xs = _ivlen(x_iv)
    b1 = (b_iv[0], b_iv[0] + n - 4 * t - 3)
    b2 = (b1[1] + 1, b1[1] + 2 * t + 1)
    with ops.annotate(f"reflect n={n} c={xs}"):
        _shift_rec(ops, t, -t, a_iv, b1, b2, shift_thresholds(t))
        dprime = (t + 1, t + _ivlen(b1) + 2 * t + 1)
        ops.swap_adjacent_blocks(dprime, (dprime[1] + 1, c_iv[1]))
        ops.emit_flip(-t - xs, 3 * t + 1 + xs)
        xbar = (3 * t + 2, 3 * t + 1 + xs)
        dprime_now = (xbar[1] + 1, xbar[1] + _ivlen(dprime))
        ops.swap_adjacent_blocks(xbar, dprime_now)
    return (-t - xs, -t - 1), a_iv, (t + 1, c_iv[1])


def reflect_mirrored(tr, x_iv, a_iv, b_iv, c_iv):
    """Mirrored reflection for the real layout C^B^A^X with C < B < A < X."""
    cb_v, w_v, e_v = reflect(MirrorView(tr), _mir(x_iv), _mir(a_iv),
                             _mir(b_iv), _mir(c_iv))
    return _mir(cb_v), _mir(w_v), _mir(e_v)


# ---------------------------------------------------------------------------
# Balanced decomposition (block level; no window involved).


class Decomposition(Value):
    """The increasing blocks, left to right, and their concatenation."""

    __slots__ = ("blocks", "result")

    @property
    def k(self) -> int:
        return len(self.blocks)


def decompose_balanced(b: Block, r) -> Decomposition:
    """Reorder an r-balanced block into C_1 ^ ... ^ C_k by valid size-2
    block flips: every C_i increasing, |C_i^-| >= floor(r), the negative
    parts ordered left to right, and k = width of the positive part.

    The target is reached by TraceRecorder.rearrange_region, which
    realizes it by ascending transpositions (size-2 block flips) and
    rejects any reordering that would need a descending one.  A block with
    no positive values is returned whole (k = 1).  One pile cover of the
    positive values serves the balance check and the chains."""
    r = Fraction(r)
    pos_vals = [v for v in b if v > 0]
    piles = _piles(pos_vals)
    report = is_r_balanced(b, r, piles)
    if not report.balanced:
        raise ContractError(
            f"block is not {r}-balanced at prefix {report.witness}: "
            f"{report.detail}")
    neg_vals = [v for v in b if v < 0]
    if not pos_vals:
        return Decomposition((b,), b)
    r_int = int(r)
    chains = _chains(piles)
    k = len(chains)
    chain_vals = [[pos_vals[i] for i in chain] for chain in chains]
    parts = []
    for j in range(k):
        if j < k - 1:
            negs = neg_vals[j * r_int : (j + 1) * r_int]
        else:
            negs = neg_vals[(k - 1) * r_int :]
        parts.append(negs + chain_vals[j])
    return Decomposition(tuple(Block(part) for part in parts),
                         Block(v for part in parts for v in part))


# ---------------------------------------------------------------------------
# Segment map.


class SegmentMap:
    """Named, sized segments tiling [lo, hi] of a recorder.  Names are any
    hashable values, unique within one map.  `starts` keys each name by
    its first position and `at` is its inverse, so a lookup is one dict
    read and a change re-keys only the segments whose place it changes.
    A move or a replace costs one dict read per name of its run and per
    segment it crosses, plus the re-keying of those segments."""

    def __init__(self, rec, lo, segs):
        self.rec, self.lo = rec, lo
        self.sizes, self.starts, self.at = {}, {}, {}
        self.sizes.update(self._fresh(segs))
        self.hi = lo + sum(self.sizes.values()) - 1
        self._place(self.sizes, lo)

    @property
    def order(self):
        return [self.at[p] for p in sorted(self.at)]

    def _fresh(self, pieces, old=()):
        """The non-empty pieces as a dict, refusing a negative size or a
        name already in use outside the segments `old` being replaced."""
        new, sizes = {}, self.sizes
        for n, s in pieces:
            if s > 0:
                if n in new or n in sizes and n not in old:
                    raise ContractError(f"duplicate segment {n}")
                new[n] = s
            elif s < 0:
                raise ContractError(f"segment {n} has negative size")
        return new

    def _place(self, names, pos):
        """Key the named segments as laid out in turn from pos on."""
        starts, at, sizes = self.starts, self.at, self.sizes
        for n in names:
            starts[n] = pos
            at[pos] = n
            pos += sizes[n]

    def _take(self, pos, end):
        """Unkey the segments tiling [pos, end) and return their names."""
        names, pop, sizes = [], self.at.pop, self.sizes
        while pos < end:
            n = pop(pos)
            names.append(n)
            pos += sizes[n]
        return names

    def _run(self, names, what):
        """Interval of names, after checking that they sit contiguously."""
        if not names:
            raise ContractError(f"{what} needs a non-empty run")
        get, sizes = self.starts.get, self.sizes
        lo = pos = get(names[0])
        for n in names:
            s = get(n)
            if s is None:
                raise ContractError(f"no segment {n} in the map")
            if s != pos:
                raise ContractError(f"{what} needs a contiguous run")
            pos += sizes[n]
        return lo, pos - 1

    def iv(self, name):
        s = self.starts.get(name)
        if s is None:
            raise ContractError(f"no segment {name} in the map")
        return (s, s + self.sizes[name] - 1)

    def span(self, first, last):
        lo, hi = self.iv(first)[0], self.iv(last)[1]
        _check(lo <= hi, "span ", first, "..", last, " is reversed")
        return (lo, hi)

    def replace(self, names, pieces):
        """Replace a contiguous run of segments by new ones, same total."""
        lo, hi = self._run(names, "replace")
        new = self._fresh(pieces, names)
        _check(sum(new.values()) == hi - lo + 1,
               "replace must preserve total size")
        starts, sizes = self.starts, self.sizes
        for n in self._take(lo, hi + 1):
            del starts[n], sizes[n]
        sizes.update(new)
        self._place(new, lo)

    def move(self, names, after=None):
        """Move a contiguous run of segments to sit right after `after`
        (first when None): one block swap on the recorder with the
        segments it crosses, then the same re-keying of the map."""
        lo, hi = self._run(names, "move")
        if after in names:
            raise ContractError(f"move cannot land after {after}, "
                                "a segment of its own run")
        if after is None:
            dest = self.lo
        else:
            dest = self.starts.get(after)
            if dest is None:
                raise ContractError(f"no segment {after} in the map")
            dest += self.sizes[after]
        if dest < lo:
            self.rec.swap_adjacent_blocks((dest, lo - 1), (lo, hi))
            self._place(self._take(lo, hi + 1) + self._take(dest, lo), dest)
        elif dest > hi:
            self.rec.swap_adjacent_blocks((lo, hi), (hi + 1, dest - 1))
            self._place(self._take(hi + 1, dest) + self._take(lo, hi + 1), lo)


# ---------------------------------------------------------------------------
# The recursive growth step.


class StepLayout(Value):
    """Position intervals of the five result regions (empty: lo > hi)."""

    __slots__ = ("L", "W", "A", "B", "R")

    def region_sizes(self):
        return {name: max(0, iv[1] - iv[0] + 1)
                for name, iv in (("L", self.L), ("W", self.W), ("A", self.A),
                                 ("B", self.B), ("R", self.R))}


class Certificate(Value):
    """One of the step's eight result conditions, checked: its index
    1..8, its name, whether it passed, and what was compared."""

    __slots__ = ("index", "name", "passed", "detail")
    _defaults = {"detail": ""}


class StepOutcome(Value):
    """The growth step's result regions, its certificates in index
    order, the sizes of X and Y, and the flips it made."""

    __slots__ = ("layout", "certificates", "x_size", "y_size", "flip_count")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def _entry_problem(rec, plan, k, n, x_iv, y_iv):
    """Why X and Y cannot enter a level-k step of size n, or None."""
    t = plan.t
    if _ivlen(x_iv) != plan.x(n, k):
        return f"|X| = {_ivlen(x_iv)} but the planner wants {plan.x(n, k)}"
    if _ivlen(y_iv) != plan.y(n, k):
        return f"|Y| = {_ivlen(y_iv)} but the planner wants {plan.y(n, k)}"
    if x_iv[1] != -t - 1 or y_iv[0] != t + 1:
        return "X and Y must be adjacent to the window"
    xv = rec.values(*x_iv)
    yv = rec.values(*y_iv)
    wv = rec.values(-t, t)
    if not _strictly_increasing(xv):
        return "X must be increasing"
    if not _strictly_increasing(yv):
        return "Y must be increasing"
    if not (max(xv) < min(wv) and max(wv) < min(yv)):
        return "need X < centre < Y on values"
    if xv[-1] >= 0 or yv[0] <= 0:
        return "need X < 0 < Y"
    return None


def _end(sm, pool, size):
    """The size cells at a pool's window end: its right end when the pool
    lies left of the window, its left end otherwise."""
    lo, hi = sm.iv(pool)
    return (hi - size + 1, hi) if lo < 0 else (lo, lo + size - 1)


def _cut(sm, pool, pieces):
    """Split pieces off the window end of a pool."""
    rest = [(pool, sm.sizes[pool] - sum(s for _, s in pieces))]
    sm.replace([pool], rest + pieces if sm.starts[pool] < 0 else pieces + rest)


def _join(sm, group, names):
    """Merge the run `names` (absent ones skipped) into one segment named
    group.  replace refuses a run that is not contiguous in this order, so
    each merge checks where its pieces landed."""
    names = [nm for nm in names if nm in sm.sizes]
    sm.replace(names, [(group, sum(map(sm.sizes.get, names)))])


def _rstep(rec, plan, k, n, x_iv, y_iv):
    """One level of the growth step, on X and Y that pass _entry_problem.
    Segments are named by fixed strings or (tag, i) pairs; each call keeps
    its own map, so they stay unique."""
    t, T, d = plan.t, plan.T, plan.d
    win = (-t, t)

    if k == 0:
        c1 = (t + 1, t + T + 2 * t + 1)
        c2 = (c1[1] + 1, c1[1] + 2 * t + 1)
        c3 = (c2[1] + 1, c2[1] + n + 1)
        reflect(rec, x_iv, win, (c1[0], c2[1]), c3)
        w_iv = (-t - (n + 1), -t - 1)
        vals = rec.values(t + 1, y_iv[1])
        if any(v == 0 for v in vals):
            rec.bug("zero value entered a sign-split zone")
        pos_count = sum(1 for v in vals if v > 0)
        return StepLayout(L=(x_iv[0], x_iv[0] - 1), W=w_iv, A=win,
                          B=(t + 1, t + pos_count),
                          R=(t + pos_count + 1, y_iv[1]))

    m = plan.m(k)
    p = plan.p(k)
    x1 = plan.x(n + 1, k - 1)
    y1 = plan.y(n + 1, k - 1)
    u = T + 4 * t + 2

    segs = [("Xp", p + 2 * t + 1), ("P", d * x1), ("WIN", 2 * t + 1),
            ("Q", d * y1), ("Yp", _ivlen(y_iv) - d * y1)]
    sm = SegmentMap(rec, x_iv[0], segs)
    if (sm.lo, sm.hi) != (x_iv[0], y_iv[1]):
        rec.bug("segment map does not tile the working span")

    # Pools and groups keep every move below crossing a bounded number of
    # segments.  A pool holds pieces still to be used, each split off its
    # window end once used; W and B each merge the pieces that land in
    # them into one segment.  No move crosses the L and R pieces, so those
    # stay as they land, listed in lz and rz.
    lz, rz = [], []

    # Step 1: run the level below d times and herd the pieces apart.  P
    # holds P_d..P_i and Q holds Q_i..Q_d.
    with rec.annotate(f"step k={k}: repeat level {k-1} x{d}"):
        for i in range(1, d + 1):
            sub_x, sub_y = _end(sm, "P", x1), _end(sm, "Q", y1)
            problem = _entry_problem(rec, plan, k - 1, n + 1, sub_x, sub_y)
            if problem:
                rec.bug(f"recursive step (inner): {problem}")
            # Every call of this loop runs on the same span; the recorder
            # replays a call whose span holds values in the order and with
            # the signs of an earlier one.
            sub = rec.substep((t, d, k - 1, n + 1), sub_x[0], sub_y[1],
                              lambda: _rstep(rec, plan, k - 1, n + 1,
                                             sub_x, sub_y))
            sizes = sub.region_sizes()
            if sizes["W"] != m * (n + 2):
                rec.bug("W piece has unexpected shape")
            # The sub-step's own final check makes its four regions tile
            # the ends it ran on, so these cuts take exactly P_i and Q_i.
            Li, Wi, Bi, Ri = ("L", i), ("W", i), ("B", i), ("R", i)
            _cut(sm, "P", [(Li, sizes["L"]), (Wi, sizes["W"])])
            _cut(sm, "Q", [(Bi, sizes["B"]), (Ri, sizes["R"])])
            if sizes["L"]:
                sm.move([Li], after=_last(lz))
                lz.append(Li)
            sm.move([Wi], after="W" if i > 1 else "Xp")
            _join(sm, "W", ["W", Wi])
            if i < d:
                sm.move([Bi, Ri], after="Q")
            sm.move([Ri], after="Yp")
            _join(sm, "B", [Bi, "B"])
            rz.insert(0, Ri)

    # Step 2: gather the singleton tails of the W pieces next to the
    # window, then recycle them to the right side one row at a time.
    # S pools the tail cycles' pieces; Ypp holds the singles of step 3.
    sm.replace(["Yp"], [("S", m * (T + d + 4 * t + 2)), ("Ypp", p)])

    w_span = sm.iv("W")
    wv = rec.values(*w_span)
    target, tails = [], []
    for off in range(0, len(wv), m * (n + 2)):  # W_1 .. W_d
        target.extend(wv[off : off + m * (n + 1)])
        tails.append(wv[off + m * (n + 1) : off + m * (n + 2)])
    # The rows M_m..M_1 follow the K cells; row j holds cell m - j of
    # each tail, left to right.
    target.extend(tail[q] for q in range(m) for tail in tails)
    with rec.annotate("gather tails"):
        rec.rearrange_region(w_span, target)
    # MR pools the rows M_m..M_1 of singles.
    sm.replace(["W"], [("WK", d * m * (n + 1)), ("MR", m * d)])

    with rec.annotate("tail cycles"):
        for i in range(1, m + 1):
            _cut(sm, "S", [("Tt", T), ("J", 2 * t + 1), ("Ut", 2 * t + 1),
                           ("Ub", d)])
            sm.move(["Tt", "J", "Ut", "Ub"], after="WIN")
            shift(rec, win, sm.iv("Tt"), sm.iv("J"))
            CCi = ("CC", i)
            sm.replace(["Tt", "J"], [(CCi, T + 2 * t + 1)])
            ccv = rec.values(*sm.iv(CCi))
            nneg = sum(1 for v in ccv if v < 0)
            if nneg:
                CCn = ("CCneg", i)
                sm.replace([CCi], [(CCi, len(ccv) - nneg), (CCn, nneg)])
                sm.move([CCn], after="Ypp")
                rz.insert(0, CCn)
            sm.move([CCi], after="Ub")
            if _end(sm, "MR", d) != (-d - t, -t - 1):
                rec.bug("tail row out of position")
            rec.emit_flip(-d - t, d + 3 * t + 1)
            UbR, JR, Ni = ("UbR", i), ("JR", i), ("N", i)
            _cut(sm, "MR", [(UbR, d)])
            sm.replace(["Ut", "Ub"], [(JR, 2 * t + 1), (Ni, d)])
            _join(sm, "B", [JR, Ni, CCi, "B"])
            sm.move([UbR], after=_last(lz))
            lz.append(UbR)

    # Step 3: split the leading cell off every gathered K block, regroup
    # those singles around the window with the X' singletons, and reflect
    # them across one by one to become the new tail.
    with rec.annotate("form the new tail"):
        sm.move(["Ypp"], after="WIN")

        xpv = rec.values(*sm.iv("Xp"))
        wkv = rec.values(*sm.iv("WK"))
        md = m * d
        kprime = []
        osingles = []
        for i in range(md):
            blockv = wkv[i * (n + 1) : (i + 1) * (n + 1)]
            kprime.extend(blockv[:-1])
            osingles.append(blockv[-1])
        f_len = md - p * u
        if f_len < T:
            rec.bug("leftover singles shorter than 3^(2t)")
        target = kprime + list(xpv[: 2 * t + 1]) + osingles[:f_len]
        # For j = p..1: one X' singleton, then G_j and H_j, which are the
        # next u singles.
        for i, off in enumerate(range(f_len, md, u)):
            target.append(xpv[2 * t + 1 + i])
            target.extend(osingles[off : off + u])
        rec.rearrange_region(sm.span("Xp", "WK"), target)
        # W starts as K'.  XFP pools X_W, F and the triples (Ps_j, G_j,
        # H_j) for j = p..1, each of u + 1 cells.
        sm.replace(["Xp", "WK"], [("W", md * n),
                                  ("XFP", 2 * t + 1 + f_len + p * (u + 1))])

        psrs = []
        for i in range(1, p + 1):
            ps, qs = _end(sm, "XFP", u + 1), _end(sm, "Ypp", 1)
            reflect_mirrored(rec, x_iv=qs, a_iv=win,
                             b_iv=(ps[0] + 1, ps[1]), c_iv=(ps[0], ps[0]))
            Qm, HRi, PsRi = ("Qm", i), ("HR", i), ("PsR", i)
            mid = "UT" if i == 1 else ("GR", i)
            _cut(sm, "XFP", [(Qm, 1), (mid, 2 * t + 1), (HRi, T + 2 * t + 1)])
            _cut(sm, "Ypp", [(PsRi, 1)])
            if i == 1:
                sm.move([Qm, mid], after=_last(lz))
                sm.move([HRi], after="W")
                _join(sm, "W", ["W", HRi])
            else:
                sm.move([Qm], after=lz[-1])
                sm.move([mid], after="W")
                sm.move([HRi], after=mid)
                _join(sm, "W", ["W", mid, HRi])
            lz.append(Qm)
            if i < p:
                sm.move([PsRi], after="Ypp")
            psrs.insert(0, PsRi)

        lo, hi = sm.iv("XFP")  # X_W ^ F; they end as GR' ^ F-bar in W
        shift_mirrored(rec, a_iv=win, b_iv=(lo + 2 * t + 1, hi),
                       c_iv=(lo, lo + 2 * t))
        _join(sm, "W", ["W", "XFP"])

    # The merges into W and B checked that each of their pieces landed
    # where expected; this checks the order of everything else.
    l_names = lz + ["UT"]
    b_names = psrs + ["B"]
    expect = l_names + ["W", "WIN"] + b_names + rz
    if sm.order != expect:
        rec.bug(f"final segment order is off: {sm.order} vs {expect}")
    return StepLayout(
        L=sm.span(l_names[0], l_names[-1]),
        W=sm.iv("W"),
        A=win,
        B=sm.span(b_names[0], b_names[-1]),
        R=sm.span(rz[0], rz[-1]),
    )


# ---------------------------------------------------------------------------
# Certificates.


def _tail_shape(wv, n, m):
    """Certificate (5) on the values of W: (passed, detail).  W must be m
    decreasing K pieces of n cells, then the singles M_m .. M_1, each M_j
    below K_j and above K_{j-1}."""
    detail = f"|W| = {len(wv)}, m = {m}"
    if len(wv) != m * (n + 1):
        return False, detail
    ks = [wv[i * n : (i + 1) * n] for i in range(m)]
    if any(a <= b for kb in ks for a, b in zip(kb, kb[1:])):
        return False, "a K piece is not decreasing"
    for j in range(m, 0, -1):
        mj = wv[m * n + m - j]
        if not mj < min(ks[j - 1]):
            return False, f"M_{j} not below K_{j}"
        if j > 1 and not mj > max(ks[j - 2]):
            return False, f"M_{j} not above K_{j-1}"
    return True, detail


def _certify(rec, plan, layout, k, n, y_set):
    t, T, d = plan.t, plan.T, plan.d
    a_k = alpha_closed(t, T, d, k)
    b_k = beta_closed(T, d, k)
    certs = []

    def add(index, name, passed, detail=""):
        certs.append(Certificate(index, name, bool(passed), detail))

    add(1, "window placement", layout.A == (-t, t),
        f"A on {layout.A}")
    lv = rec.values(*layout.L) if not _empty(layout.L) else ()
    wv = rec.values(*layout.W)
    bv = rec.values(*layout.B)
    rv = rec.values(*layout.R)
    add(2, "sign separation",
        all(v > 0 for v in lv) and all(v > 0 for v in wv)
        and all(v < 0 for v in rv),
        "L, W > 0 > R")
    av = rec.values(*layout.A)
    if k > 0:
        ok3 = max(av) < min(bv)
        det3 = "A < B (k > 0)"
    else:
        ok3 = min(av) > max(bv)
        det3 = "A > B (k = 0)"
    add(3, "centre/B orientation", ok3, det3)
    add(4, "tail provenance", y_set is not None and set(wv) <= y_set,
        "W values all drawn from Y")
    add(5, "tail shape", *_tail_shape(wv, n, d**k))
    # One pile cover of B+ serves (6) and (8).
    piles = _piles([v for v in bv if v > 0])
    wplus = max(piles, default=-1) + 1
    add(6, "positive width bound", wplus <= a_k,
        f"width(B+) = {wplus} <= alpha_{k} = {a_k}")
    nneg = sum(1 for v in bv if v < 0)
    if nneg >= b_k:
        det7 = f"|B-| = {nneg} >= beta_{k} = {b_k}"
    else:
        det7 = f"|B-| = {nneg} < beta_{k} = {b_k} (short by {b_k - nneg})"
    add(7, "negative count bound", nneg >= b_k, det7)
    ratio = Fraction(b_k, a_k)
    rep = is_r_balanced(Block(bv), ratio, piles)
    least = ("none, B+ is empty" if rep.least_ratio is None
             else rep.least_ratio)
    add(8, "balancedness", rep.balanced,
        f"B is {ratio}-balanced, least prefix ratio {least}"
        if rep.balanced else rep.detail)
    return tuple(certs)


def recursive_step(tr: TraceRecorder, d: int, k: int, n: int,
                   strict_certificates: bool = True) -> StepOutcome:
    """Run the growth step on a trace whose state is X ^ centre ^ Y with
    the planner's sizes for (t, d, k, n).  All eight result conditions are
    certified on the concrete final state; a failed certificate raises
    unless strict_certificates is off, in which case the outcome carries
    the failure list for inspection.

    The step lays down exactly SizePlan.laid(k) negatives in B, one for
    each of the p_k mirrored reflections of "form the new tail" and the
    rest from the d sub-steps.  laid_k reaches the budget beta_k of
    certificate (7) whenever p_j >= d^j/(3T) at every level j <= k; that
    holds for every t >= 1 with d >= 9T.  At t = 0 it never holds
    (p_j = floor((d^j - 1)/3) < d^j/3), so laid_k < beta_k and (7) fails
    at every t = 0 point with k >= 1; see the planner module."""
    t = tr.t
    T = 3 ** (2 * t)
    if d < 9 * T:
        raise ContractError(f"need d >= 9T = {9 * T}, got {d}")
    if k < 0 or n < 1:
        raise ContractError("need k >= 0 and n >= 1")
    plan = SizePlan(t, d)
    x = plan.x(n, k)
    y = plan.y(n, k)
    x_iv = (-t - x, -t - 1)
    y_iv = (t + 1, t + y)
    if not (tr.lo <= x_iv[0] and y_iv[1] <= tr.hi):
        raise ContractError("trace domain does not fit the planned X and Y")
    problem = _entry_problem(tr, plan, k, n, x_iv, y_iv)
    if problem:
        raise ContractError(f"recursive step: {problem}")
    flips_before = tr.flip_count
    y_set = set(tr.values(*y_iv))
    with tr.annotate(f"recursive step t={t} d={d} k={k} n={n}"):
        layout = _rstep(tr, plan, k, n, x_iv, y_iv)
    certs = _certify(tr, plan, layout, k, n, y_set)
    bad = [c for c in certs if not c.passed]
    if strict_certificates and bad:
        tr.bug("certificates failed: " + "; ".join(
            f"({c.index}) {c.name}: {c.detail}" for c in bad))
    sizes = layout.region_sizes()
    if sizes["L"] + sizes["W"] != x or sizes["B"] + sizes["R"] != y:
        tr.bug("result regions do not tile X and Y")
    return StepOutcome(layout=layout, certificates=certs, x_size=x, y_size=y,
                       flip_count=tr.flip_count - flips_before)


# ---------------------------------------------------------------------------
# Ready-made instances (symmetric domains so deviation is measured from 0).


def step_instance(t: int, d: int, k: int, n: int, sink=None) -> TraceRecorder:
    """A trace holding X ^ centre ^ Y for the growth step, embedded in a
    symmetric domain.  The centre carries values t+1 .. 3t+1 (zero stays
    out of every sign-split zone), X and Y are identity-like runs."""
    M = SizePlan(t, d).half_width(n, k)
    vals = []
    for pos in range(-M, M + 1):
        vals.append(pos if pos < -t else pos + 2 * t + 1)
    return TraceRecorder(CentredSequence(-M, vals), Window(t), sink=sink)


def _identity_instance(M: int, t: int, sink, max_cells: int):
    """A trace on the identity over [-M, M], refused above max_cells
    cells before any is built."""
    window = Window(t)
    require_cells(2 * M + 1, max_cells)
    return TraceRecorder(identity_sequence(-M, M), window, sink=sink)


def shift_instance(t: int, n: int, sink=None, *, max_cells: int = MAX_CELLS):
    """A trace laid out as A ^ B ^ C for shifting, symmetric domain,
    refused above max_cells cells.  Returns (recorder, a_iv, b_iv, c_iv)."""
    c = 2 * t + 1
    rec = _identity_instance(t + n + c, t, sink, max_cells)
    return rec, (-t, t), (t + 1, t + n), (t + n + 1, t + n + c)


def reflect_instance(t: int, n: int, xsize: int, sink=None,
                     mirrored: bool = False, *, max_cells: int = MAX_CELLS):
    """A trace laid out as X ^ A ^ B ^ C (or its mirror image) for
    reflection, refused above max_cells cells.  Returns (recorder, x_iv,
    a_iv, b_iv, c_iv)."""
    rec = _identity_instance(t + max(xsize, n + xsize) + 1, t, sink,
                             max_cells)
    if not mirrored:
        return rec, (-t - xsize, -t - 1), (-t, t), (t + 1, t + n), \
            (t + n + 1, t + n + xsize)
    return rec, (t + 1, t + xsize), (-t, t), (-t - n, -t - 1), \
        (-t - n - xsize, -t - n - 1)


# ---------------------------------------------------------------------------
# The full pipeline.


class ConstructionFailure(Value):
    """Structured failure value: the pipeline refused to proceed at
    `stage`.  `achieved` is a Fraction or (lower, upper) bounds, against
    the `required` Fraction; `table` is the RecurrenceTable behind the
    refusal, or None."""

    __slots__ = ("stage", "achieved", "required", "message", "table")
    _defaults = {"table": None}

    def __bool__(self):
        return False


def finish_pipeline(rec, layout, r):
    """From X' ^ L ^ W ^ A ^ B ^ R ^ J to the decreasing arrangement:
    decompose B, carry each positive piece across the window, bring the
    parked piece J back to the centre, and sort both sides decreasing.

    X' is [rec.lo, L[0] - 1] and J is [R[1] + 1, rec.hi]; A is the window
    and B starts at t+1.  The phase needs B r-balanced with every
    decomposed piece holding at least T+4t+2 negatives and the last one
    2T+4t+2 (r >= 3T+1 gives both), X' increasing with |X'| = |B+|,
    |J| = 2t+1, and the values ordered
    X' < A < B- < R < J < L < W < B+.  When the values tile [-b, b], J is
    (t, ..., -t) and the decreasing end state is the reversal of the
    identity; the phase checks that it ends strictly decreasing."""
    t = rec.t
    T = 3 ** (2 * t)
    b_iv = layout.B
    block = Block(rec.values(*b_iv))
    if not any(v > 0 for v in block):
        rec.bug("B has no positive values")
    dec = decompose_balanced(block, r)
    with rec.annotate("apply decomposition"):
        rec.rearrange_region(b_iv, dec.result.values)
    mcount = dec.k
    last = f"C{mcount}"
    sm = SegmentMap(rec, t + 1, [(f"C{i}", len(blk))
                                 for i, blk in enumerate(dec.blocks, start=1)]
                    + [("R", _ivlen(layout.R)), ("J", rec.hi - layout.R[1])])
    # Carve Z (the top 3^(2t) negatives) out of the last piece.
    lastv = rec.values(*sm.iv(last))
    nneg = sum(1 for v in lastv if v < 0)
    if nneg < 2 * T + 4 * t + 2:
        rec.bug("last piece too negative-poor to carve Z")
    sm.replace([last], [(last, nneg - T), ("Z", T),
                        ("F", len(lastv) - nneg)])
    sm.move(["F"], after=last)
    sm.replace([last, "F"], [(last, len(lastv) - T)])

    cursor = layout.L[0] - 1
    for i in range(1, mcount + 1):
        ci = f"C{i}"
        civ = rec.values(*sm.iv(ci))
        neg = sum(1 for v in civ if v < 0)
        fsize = len(civ) - neg
        if neg < T + 4 * t + 2:
            rec.bug(f"piece {i} has too few negatives ({neg})")
        if cursor - fsize + 1 < rec.lo:
            rec.bug("X' exhausted before the last piece")
        with rec.annotate(f"carry piece {i} across"):
            x_i = (cursor - fsize + 1, cursor)
            cursor -= fsize
            rec.swap_adjacent_blocks(x_i, (x_i[1] + 1, -t - 1))
            x_i = (-t - fsize, -t - 1)
            clo = sm.iv(ci)[0]
            reflect(rec, x_i, (-t, t), (clo, clo + neg - 1),
                    (clo + neg, clo + neg + fsize - 1))
            # The window now holds the top 2t+1 negatives of the piece
            # reversed; F-bar landed on the X_i span; the rest stays in
            # the piece's segment, which parks behind the last piece.
            if i < mcount:
                sm.move([ci], after=last)
    if cursor != rec.lo - 1:
        rec.bug("X' size does not match the positive total")

    with rec.annotate("recentre the parked piece"):
        # Right of the window: C_m .. C_1 ^ Z ^ R ^ J.
        sm.move(["Z"])
        sm.move(["J"], after="Z")
        shift(rec, (-t, t), sm.iv("Z"), sm.iv("J"))

    with rec.annotate("final sorts"):
        rec.sort_region_decreasing((rec.lo, -t - 1))
        rec.sort_region_decreasing((t + 1, rec.hi))
    if not _strictly_increasing(rec.values(rec.lo, rec.hi)[::-1]):
        rec.bug("the finish phase did not end decreasing")


def full_construction(t: int, d: int, k: int, *, max_cells: int = MAX_CELLS,
                      sink=None):
    """Build a complete trace from the identity on [-b, b] to its reversal
    with every flip midpoint outside [-t, t], for b = 3t + 1 + |Y|.

    The planned balance ratio beta_k/alpha_k must reach 3T + 1 before any
    materialization starts; otherwise the structured failure names the
    stage and the exact achieved ratio.  A feasible ratio with an
    infeasible cell count raises RefusalError.  Within the budget, the
    negatives the step lays down (SizePlan.laid) must reach beta_k, the
    bound its certificate (7) checks; otherwise the failure names the
    "negative count" stage."""
    T = 3 ** (2 * t)
    if d < 9 * T:
        raise ContractError(f"need d >= 9T = {9 * T}, got {d}")
    table = plan_sizes(t, d, k, 1)
    required = Fraction(table.gate_threshold)
    if not table.gate_ok:
        achieved = table.ratio if table.ratio is not None else table.ratio_bounds
        return ConstructionFailure(
            stage="balance gate",
            achieved=achieved,
            required=required,
            message=(f"beta_{k}/alpha_{k} = {achieved} is below the required "
                     f"ratio {required}; pick larger d and k"),
            table=table,
        )
    # The domain [-b, b] parks the centre beyond Y, 4t cells more than the
    # step instance at n = 1 holds.
    b = None if table.y_exact is None else 3 * t + 1 + table.y_exact
    require_cells(None if b is None else 2 * b + 1, max_cells)
    laid, beta = SizePlan(t, d).laid(k), beta_closed(T, d, k)
    if laid < beta:
        return ConstructionFailure(
            stage="negative count",
            achieved=laid,
            required=beta,
            message=(f"the step lays down laid_{k} = {laid} negatives, below "
                     f"beta_{k} = {beta}"),
            table=table,
        )

    rec = TraceRecorder(identity_sequence(-b, b), Window(t), sink=sink)
    with rec.annotate(f"full construction t={t} d={d} k={k}"):
        rec.emit_flip(-t, 3 * t + 1)
        # Park the piece now on [t+1, 3t+1] beyond Y.
        rec.swap_adjacent_blocks((t + 1, 3 * t + 1), (3 * t + 2, b))
        layout = recursive_step(rec, d, k, 1).layout
        finish_pipeline(rec, layout, table.ratio)
    return rec
