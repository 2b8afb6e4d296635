"""Planar point sets, their circular sequence and line imbalances.

Everything is exact.  A `PointSet` holds Fractions; the sweep and the
link check work on the points scaled by the lcm of all coordinate
denominators.  A uniform positive scale keeps every direction, every
coordinate order and every orientation sign, so both compute on integers.
The sweep sorts all pairs once, by the integer key floor(dy * S^2 / dx)
of the slope dy / dx of each pair, where S is the x span of the points:
two distinct slopes with denominators at most S differ by at least
1/S^2, so the key is exact, and it needs no gcd.  It sorts the indices
of two flat lists of ints, keys and pairs, by key, building no tuple the
garbage collector would track; the sort is stable, so a key's pairs keep
their ascending order, as a sort of (key, pair) tuples leaves them.

Rotating the projection direction through a half turn sweeps out an
allowable sequence of permutations, the circular sequence of Goodman and
Pollack ("On the combinatorial classification of nondegenerate
configurations in the plane", JCTA 29, 1980).  Each line
through two or more of the points fires exactly once, as a flip [c, d]
that reverses its collinear group, and that line has c - 1 points on one
side and n - d on the other.  So its imbalance is |n - d - c + 1|, twice
the flip's deviation.

`circular_sequence` is the one sweep; `line_imbalances` and
`in_general_position` read their answers off it.  Only
`deviation_imbalance_link` counts sides geometrically, by integer
orientation determinants, as an independent check of that
correspondence.

The sweep is also the only check of its half period's trace: it checks
each event against the live permutation as it applies it, so
`HalfPeriod.to_trace` hands the events' own steps to the trace without
replaying them through a `TraceRecorder`.  Each check the recorder would
make has its counterpart in the sweep (listed at `HalfPeriod.to_trace`).
A `HalfPeriod` built by hand has had no such check; `verify_trace` of its
trace is its check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log10
from typing import Iterable

from .engine import (FlipStep, Trace, expand_steps, expanded_length,
                     flip_imbalance, single_step)
from .errors import ContractError, RefusalError
from .seqcore import CentredSequence, Flip, Value, Window, init_field


class PointSet(Value):
    """Distinct points ((x, y) Fractions), labelled 1..n in storage
    order."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable):
        pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
        if len(set(pts)) != len(pts):
            raise ContractError("points must be pairwise distinct")
        init_field(self, "points", pts)

    def __len__(self):
        return len(self.points)


def orientation(a, b, c) -> int:
    """Sign of the signed area of triangle abc (+1 ccw, -1 cw, 0 flat)."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


class LineRecord(Value):
    """A line through two or more points, `labels` the 1-based labels of
    its points, with the counts of the points strictly left and right of
    it.  The left side is where orientation(p_i, p_j, .) > 0, for p_i and
    p_j the line's first two points in storage order."""

    __slots__ = ("labels", "left_count", "right_count")

    @property
    def imbalance(self) -> int:
        return abs(self.left_count - self.right_count)


class SwapEvent(Value):
    """One simultaneous batch of projection-order reversals: the step and
    the collinear label groups generating each of its flips."""

    __slots__ = ("step", "groups")


class HalfPeriod(Value):
    """The circular sequence's half period of n points: from the identity
    labelling `initial`, 1..n, the SwapEvents in rotation order."""

    __slots__ = ("n", "initial", "events")

    def steps(self):
        return tuple(ev.step for ev in self.events)

    def to_trace(self) -> Trace:
        """The half period as a windowless trace on [1, n], holding the
        events' own steps.

        Nothing checks the steps again here.  `circular_sequence` checked
        every event against the live permutation, and each check that
        `TraceRecorder.emit_step` makes has its counterpart there:
        - bounds, 1 <= c <= d <= n: positions are read off the live
          permutation of 1..n, and a group must be contiguous in it;
        - an increasing run: position[b] == c + 1 with a < b on the
          one-pair path, run == the group's sorted labels on the group path;
        - a midpoint outside Window(0): a flip has c >= 1 and d >= c + 1,
          so c + d >= 3;
        - disjoint flips: FlipStep refuses overlapping ones.
        The sweep's last check adds the reversal at the end.
        A HalfPeriod built by hand is not checked; verify_trace of its
        trace is its check."""
        return Trace(Window(0), CentredSequence(1, self.initial), self.steps())


def _event_vector(p, q):
    """Primitive integer direction, at angle in (0, pi], at which the
    projections of the integer points p and q coincide (the normal of
    q - p).  p must precede q in (x, y) order, as in `circular_sequence`:
    then y = q.x - p.x >= 0, and y = 0 forces x = p.y - q.y < 0, so the
    half-turn boundary comes out as (-1, 0)."""
    xi, yi = p[1] - q[1], q[0] - p[0]
    g = gcd(xi, yi)
    return (xi // g, yi // g)


def _integer_points(ps: PointSet) -> list:
    """The points as integer pairs in storage order, every coordinate
    scaled by the lcm of all their denominators.  The scale is uniform and
    positive, so directions, (x, y) order and orientation signs survive."""
    scale = lcm(*(c.denominator for p in ps.points for c in p))
    return [(x.numerator * (scale // x.denominator),
             y.numerator * (scale // y.denominator)) for x, y in ps.points]


# The key of the direction (-1, 0), whose pairs fire after every slope.
# The sweep only tests keys for equality, so it need not be ordered.
_VERTICAL = "vertical"


def _sweep_order(ipts: list) -> tuple:
    """The pairs a < b of labels of the integer points ipts, in (x, y)
    order, in the firing order of `circular_sequence`, as two lists: their
    slope keys, _VERTICAL for the vertical pairs, which come last, and
    their codes a * (n + 1) + b, in the order of sorted (key, code) pairs."""
    n = len(ipts)
    m = n + 1
    s2 = (ipts[-1][0] - ipts[0][0]) ** 2
    keys, codes, vertical = [], [], []
    for a in range(1, n):
        px, py = ipts[a - 1]
        b = a + 1
        while b <= n and ipts[b - 1][0] == px:
            vertical.append(a * m + b)
            b += 1
        keys += [(qy - py) * s2 // (qx - px) for qx, qy in ipts[b - 1:]]
        codes += range(a * m + b, a * m + m)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return ([keys[i] for i in order] + [_VERTICAL] * len(vertical),
            [codes[i] for i in order] + vertical)


def circular_sequence(ps: PointSet) -> HalfPeriod:
    """Rotate the projection direction through a half turn and record the
    swap events.  Labels 1..n follow the starting order, which breaks
    projection ties by the lexicographic (x, y) perturbation.

    The pair of points p < q fires at the normal of q - p.  `_sweep_order`
    orders the pairs with px < qx by the key floor((qy - py) * S^2 /
    (qx - px)) of their slope, S the x span, and puts the vertical pairs
    last.  Distinct slopes with denominators up to S differ by at least
    1/S^2, so their keys differ, in the same order; equal slopes have
    equal keys.  The codes are generated in ascending order and the sort
    of their indices by key is stable, so a key keeps its codes ascending.
    A run of equal keys is one direction (x, y).  All points on one line
    have the same offset x*px + y*py, so the pairs of a run group into its
    parallel lines by offset.

    In general position every key holds a single pair (a, b), and that
    event takes a direct path: it requires position[b] to follow
    position[a] = c, records the shared step single_step(c, c + 1) and
    swaps the two in place.  It accepts exactly what the group path
    accepts for a group of two: pairs are generated with a < b, so a
    contiguous {a, b} is label-increasing exactly when b follows a.

    Runs of several pairs take the group path.  A line's codes ascend, so
    its first pairs are (a, b) for its least label a and each other label
    b, ascending, and it is contiguous and label-increasing exactly when
    the positions from position[a] on hold those labels in order.  Only a
    misordered sweep has a later pair naming a label new to the line; the
    line is then the sorted union of its pairs' labels."""
    n = len(ps)
    if n < 1:
        raise ContractError("need at least one point")
    ipts = sorted(_integer_points(ps))
    m = n + 1
    keys, codes = _sweep_order(ipts)
    # The sentinel ends the last run.  It must differ from every key, 0
    # and _VERTICAL too; False would not, as 0 == False.
    keys.append(None)
    # The shared one-flip steps, fetched once per sweep, not once per pair.
    adjacent = [None] + [single_step(c, c + 1) for c in range(1, n)]
    perm = list(range(1, n + 1))
    position = [0] + perm                     # label -> position
    member = [None] * m                       # label -> the last line given it
    result = []
    pending = []                              # the codes of the open run
    for key, next_key, code in zip(keys, keys[1:], codes):
        if key != next_key and not pending:
            a, b = divmod(code, m)
            c = position[a]
            if position[b] != c + 1:
                raise ContractError("collinear group is not contiguous; "
                                    "geometry violated")
            result.append(SwapEvent(adjacent[c], ((a, b),)))
            perm[c - 1], perm[c] = b, a
            position[a], position[b] = c + 1, c
            continue
        pending.append(code)
        if key == next_key:
            continue
        # Several parallel lines may fire at once, each reversing its own
        # collinear group.
        a, b = divmod(pending[0], m)
        vx, vy = _event_vector(ipts[a - 1], ipts[b - 1])
        lines = {}                            # offset -> labels, ascending
        for code in pending:
            a, b = divmod(code, m)
            px, py = ipts[a - 1]
            offset = vx * px + vy * py
            line = lines.get(offset)
            if line is None:
                lines[offset] = line = member[a] = [a]
            if a == line[0]:
                line.append(b)
                member[b] = line
            elif member[a] is not line or member[b] is not line:
                line[:] = sorted({*line, a, b})  # a misordered sweep
        pending = []
        runs = []
        for labs in lines.values():
            c = position[labs[0]]
            run = perm[c - 1:c - 1 + len(labs)]
            if run != labs:
                c = min(position[lab] for lab in labs)
                raise ContractError(
                    "swap group is not label-increasing; geometry violated"
                    if sorted(perm[c - 1:c - 1 + len(labs)]) == labs else
                    "collinear group is not contiguous; geometry violated")
            runs.append((c, run))
        runs.sort()
        result.append(SwapEvent(
            FlipStep([Flip(c, c + len(run) - 1) for c, run in runs]),
            tuple(tuple(run) for _, run in runs)))
        for c, run in runs:
            run.reverse()
            perm[c - 1:c - 1 + len(run)] = run
            for pos, lab in enumerate(run, c):
                position[lab] = pos
    if perm != list(range(n, 0, -1)):
        raise ContractError("half period did not reach the reversal")
    return HalfPeriod(n, tuple(range(1, n + 1)), tuple(result))


def _fired_lines(hp: HalfPeriod, ipts: list):
    """Yield (flip, labels of the line's points, ascending) for every line
    of the half period hp of the integer points ipts, each once, in
    rotation order.  These are the 1-based storage labels of LineRecord,
    not the sweep's labels."""
    # The sweep's labels are ranks in (x, y) order; stored[k] is the
    # storage label of sweep label k.
    stored = [0] + [k + 1 for k in sorted(range(len(ipts)),
                                          key=ipts.__getitem__)]
    for ev in hp.events:
        for f, group in zip(ev.step.flips, ev.groups):
            if len(group) == 2:
                i, j = stored[group[0]], stored[group[1]]
                yield f, ((i, j) if i < j else (j, i))
            else:
                yield f, tuple(sorted([stored[lab] for lab in group]))


def line_imbalances(ps: PointSet):
    """All lines through at least two points with exact side counts, read
    off the half period: the line that fires as the flip [c, d] has c - 1
    points before it in projection order and n - d after.  Returns
    (records, minimum imbalance)."""
    if len(ps) < 2:
        raise ContractError("need at least two points")
    return _line_records(ps, circular_sequence(ps))


def _line_records(ps: PointSet, hp: HalfPeriod):
    """line_imbalances(ps), read off its half period hp."""
    n = len(ps)
    ipts = _integer_points(ps)
    records = []
    least = n  # above any imbalance: the two sides hold at most n - 2
    for f, on in _fired_lines(hp, ipts):
        before, after = f.c - 1, n - f.d
        imbalance = abs(before - after)
        if imbalance < least:
            least = imbalance
        # At this event the projection direction is p_j - p_i turned a
        # quarter turn counterclockwise exactly when p_i < p_j in (x, y)
        # order; the points projected after the group then lie on the left.
        left, right = ((after, before) if ipts[on[0] - 1] < ipts[on[1] - 1]
                       else (before, after))
        records.append(LineRecord(on, left, right))
    if not records:
        raise ContractError("need at least two points")
    return records, least


def in_general_position(ps: PointSet) -> bool:
    """No three points collinear: every flip of the half period reverses
    just two points.  Sets of fewer than three points qualify."""
    return len(ps) < 3 or all(len(group) == 2
                              for ev in circular_sequence(ps).events
                              for group in ev.groups)


def deviation_imbalance_link(ps: PointSet) -> bool:
    """For general-position sets: every swap event's flip [a, b] satisfies
    line imbalance = |n - b - a + 1| = twice the flip's deviation, with
    the line's side counts taken by orientation tests.  The tests are
    integer determinants on the integer-scaled points, whose signs are
    those of the points themselves, since the scale is uniform and
    positive."""
    return _link_holds(ps, circular_sequence(ps))


def _link_holds(ps: PointSet, hp: HalfPeriod) -> bool:
    """deviation_imbalance_link(ps), checked on its half period hp."""
    n = len(ps)
    ipts = _integer_points(ps)
    lines = list(_fired_lines(hp, ipts))
    if any(len(on) != 2 for _, on in lines):
        raise ContractError("the link check needs general position")
    for f, (i, j) in lines:
        ax, ay = ipts[i - 1]
        dx, dy = ipts[j - 1][0] - ax, ipts[j - 1][1] - ay
        left = right = 0
        for x, y in ipts:
            det = dx * (y - ay) - dy * (x - ax)
            if det > 0:
                left += 1
            elif det < 0:
                right += 1
        # p_i and p_j give zero; any other zero is a third point on the line.
        if left + right != n - 2 or abs(left - right) != flip_imbalance(n, f):
            return False
    return True


def link_and_minimum(ps: PointSet):
    """(deviation_imbalance_link(ps), line_imbalances(ps)[1]) from one
    sweep.  Errors come as the two calls in turn would raise them: a
    ContractError of the link check, then "need at least two points"."""
    hp = circular_sequence(ps)
    ok = _link_holds(ps, hp)
    return ok, _line_records(ps, hp)[1]


# ---------------------------------------------------------------------------
# Rendering.


def _svg_header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {width:.1f} {height:.1f}" '
            f'width="{width:.1f}" height="{height:.1f}">')


def _xscale(i: int) -> float:
    """Step index to x offset; linear up to 10^4 steps, then compressed."""
    if i <= 10_000:
        return float(i)
    return 10_000.0 + 2_000.0 * log10(i / 10_000.0)


# The most polyline points render_trace_svg builds; 10^6 points take
# about 0.2 GB while they are built.
_RENDER_POINT_CAP = 10**6


def render_trace_svg(tr: Trace) -> str:
    """Wiring-diagram rendering: one polyline per element, x = step index,
    y = position; the window band is shaded.  The trace is drawn as
    expand_steps gives it: a replayed sub-step takes the x steps of its
    body, and a block swap one x step per transposition, as in trace
    format v1.

    Each element gets a point per expanded step and one to start, counted
    by expanded_length before anything is expanded; a trace needing more
    than _RENDER_POINT_CAP raises RefusalError."""
    lo, hi = tr.initial.lo, tr.initial.hi
    n = hi - lo + 1
    t = tr.window.t
    count = expanded_length(tr.steps)
    if n * (count + 1) > _RENDER_POINT_CAP:
        raise RefusalError(f"rendering {n} elements over {count} steps needs "
                           f"{n * (count + 1)} points, more than "
                           f"{_RENDER_POINT_CAP}")
    unit_x, unit_y, pad = 24.0, 14.0, 20.0
    width = pad * 2 + unit_x * max(1.0, _xscale(count))
    height = pad * 2 + unit_y * (n - 1 if n > 1 else 1)

    def X(i):
        return pad + unit_x * _xscale(i)

    def Y(pos):
        return pad + unit_y * (hi - pos)

    paths = {v: [(X(0), Y(lo + i))] for i, v in enumerate(tr.initial.values)}
    state = list(tr.initial.values)
    for si, step in enumerate(expand_steps(tr.steps), start=1):
        for f in step.flips:
            i, j = f.c - lo, f.d - lo + 1
            state[i:j] = state[i:j][::-1]
        for i, v in enumerate(state):
            paths[v].append((X(si), Y(lo + i)))
    out = [_svg_header(width, height)]
    if -t <= hi and t >= lo:
        band_top = Y(min(t, hi))
        band_bot = Y(max(-t, lo))
        out.append(f'<rect x="0" y="{band_top - unit_y / 2:.1f}" '
                   f'width="{width:.1f}" '
                   f'height="{band_bot - band_top + unit_y:.1f}" '
                   f'fill="#f2d4d4"/>')
    for v, pts in sorted(paths.items()):
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="#36597f" stroke-width="1.2"/>')
        out.append(f'<text x="{pts[0][0] - 14:.1f}" y="{pts[0][1] + 3:.1f}" '
                   f'font-size="9">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_points_svg(ps: PointSet, with_lines: bool = False) -> str:
    """Draw the points (and optionally all determined lines, labelled with
    their imbalances)."""
    if len(ps) < 1:
        raise ContractError("need at least one point")
    pts = [(float(x), float(y)) for x, y in ps.points]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = 320.0 / span
    pad = 30.0

    def X(x):
        return pad + (x - min(xs)) * scale

    def Y(y):
        return pad + (max(ys) - y) * scale

    width = pad * 2 + (max(xs) - min(xs)) * scale
    height = pad * 2 + (max(ys) - min(ys)) * scale
    out = [_svg_header(width, height)]
    if with_lines:
        records, _ = line_imbalances(ps)
        for rec in records:
            # In (x, y) order, collinear points run from one end to the other.
            ends = sorted(rec.labels, key=lambda k: ps.points[k - 1])
            i, j = ends[0] - 1, ends[-1] - 1
            x1, y1 = X(pts[i][0]), Y(pts[i][1])
            x2, y2 = X(pts[j][0]), Y(pts[j][1])
            out.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                       f'y2="{y2:.1f}" stroke="#bbbbbb" stroke-width="0.8"/>')
            out.append(f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2:.1f}"'
                       f' font-size="8" fill="#995555">{rec.imbalance}</text>')
    for k, (x, y) in enumerate(pts, start=1):
        out.append(f'<circle cx="{X(x):.1f}" cy="{Y(y):.1f}" r="3.5" '
                   f'fill="#203a58"/>')
        out.append(f'<text x="{X(x) + 5:.1f}" y="{Y(y) - 5:.1f}" '
                   f'font-size="10">{k}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Point-set file format: one "x y" pair per line, rational or integer
# coordinates, '#' comments.


def parse_points(text: str) -> PointSet:
    pts = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ContractError(f"line {ln}: expected 'x y', got {raw!r}")
        try:
            pts.append((Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ContractError(f"line {ln}: bad coordinate ({exc})")
    return PointSet(pts)


def format_points(ps: PointSet) -> str:
    lines = []
    for x, y in ps.points:
        fx = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        fy = str(y.numerator) if y.denominator == 1 else f"{y.numerator}/{y.denominator}"
        lines.append(f"{fx} {fy}")
    return "\n".join(lines) + "\n"
