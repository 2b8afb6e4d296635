import hashlib
import pathlib
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, log10

import pytest
from hypothesis import given, settings, strategies as st

from allowseq import engine, geom
from allowseq.cli import EXIT_VIOLATION, main
from allowseq.engine import (BlockSwap, FlipStep, Trace, flip_imbalance,
                             serialize_trace, single_step, verify_trace)
from allowseq.errors import ContractError, RefusalError
from allowseq.geom import (HalfPeriod, LineRecord, PointSet, SwapEvent,
                           circular_sequence, deviation_imbalance_link,
                           format_points, in_general_position, line_imbalances,
                           orientation, parse_points, render_points_svg,
                           render_trace_svg)
from allowseq.seqcore import Flip, identity_sequence
from allowseq.engine import TraceRecorder, Window
from conftest import as_v2, five_element_steps


def cubic_line_imbalances(ps):
    """Oracle for line_imbalances by orientation tests alone: each line is
    met first at its two lowest-indexed points, which fix its left side."""
    pts = ps.points
    records = []
    for i, j in combinations(range(len(pts)), 2):
        sides = [orientation(pts[i], pts[j], p) for p in pts]
        on = tuple(k + 1 for k, s in enumerate(sides) if s == 0)
        if on[:2] == (i + 1, j + 1):
            records.append(LineRecord(on, sides.count(1), sides.count(-1)))
    return records, min(r.imbalance for r in records)


def cubic_in_general_position(ps):
    """Oracle for in_general_position: no three points are collinear."""
    return all(orientation(a, b, c) for a, b, c in combinations(ps.points, 3))


def fraction_deviation_imbalance_link(ps):
    """Oracle for deviation_imbalance_link: side counts by orientation
    tests on the Fraction coordinates themselves."""
    pts = ps.points
    n = len(pts)
    lines = list(geom._fired_lines(circular_sequence(ps),
                                   geom._integer_points(ps)))
    if any(len(on) != 2 for _, on in lines):
        raise ContractError("the link check needs general position")
    for f, (i, j) in lines:
        left = right = 0
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            s = orientation(pts[i - 1], pts[j - 1], pts[k - 1])
            if s > 0:
                left += 1
            elif s < 0:
                right += 1
            else:
                return False
        if abs(left - right) != flip_imbalance(n, f):
            return False
    return True


def assert_matches_oracles(ps):
    records, mn = line_imbalances(ps)
    want, want_mn = cubic_line_imbalances(ps)
    assert (sorted(records, key=lambda r: r.labels)
            == sorted(want, key=lambda r: r.labels))
    assert mn == want_mn
    assert in_general_position(ps) == cubic_in_general_position(ps)


@st.composite
def point_sets(draw):
    """2..12 distinct points in storage order as drawn, from a small box
    (collinear groups and parallel lines firing together are common) or a
    large one, around the origin, with integer or third coordinates, or
    with a denominator of its own for every coordinate."""
    side = draw(st.sampled_from([4, 5, 6, 10**6]))
    den = draw(st.sampled_from([1, 3, None]))
    dens = st.sampled_from([1, 2, 3, 5, 7]) if den is None else st.just(den)
    lo, hi = -(side // 2), side - side // 2 - 1
    coord = st.builds(Fraction, st.integers(lo, hi), dens)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=12,
                        unique=True))
    return PointSet(pts)


def random_general_position(rng, n, span=60):
    while True:
        pts = {(rng.randrange(-span, span), rng.randrange(-span, span))
               for _ in range(n)}
        if len(pts) != n:
            continue
        ps = PointSet(sorted(pts))
        if in_general_position(ps):
            return ps


def test_triangle():
    tri = PointSet([(0, 0), (4, 0), (1, 3)])
    records, mn = line_imbalances(tri)
    assert mn == 1 and all(r.imbalance == 1 for r in records)
    hp = circular_sequence(tri)
    rep = verify_trace(hp.to_trace())
    assert rep.allowable and rep.reaches_reversal
    assert deviation_imbalance_link(tri)


def test_unit_square():
    sq = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    records, mn = line_imbalances(sq)
    assert mn == 0
    assert sorted(r.imbalance for r in records) == [0, 0, 2, 2, 2, 2]
    for r in records:
        assert r.left_count + r.right_count + len(r.labels) == 4


def test_collinear_triple_one_step():
    col = PointSet([(0, 0), (1, 1), (2, 2)])
    hp = circular_sequence(col)
    assert len(hp.events) == 1
    assert hp.events[0].step.flips[0].size == 3
    rep = verify_trace(hp.to_trace())
    assert rep.allowable and rep.reaches_reversal


def test_two_parallel_pairs_share_a_step():
    ps = PointSet([(0, 0), (0, 1), (10, 0), (10, 1)])
    hp = circular_sequence(ps)
    packed = [len(ev.step.flips) for ev in hp.events]
    assert 2 in packed     # the vertical pairs swap simultaneously
    rep = verify_trace(hp.to_trace())
    assert rep.allowable and rep.reaches_reversal


def test_duplicate_points_rejected():
    with pytest.raises(ContractError):
        PointSet([(0, 0), (0, 0)])


def test_link_rejects_collinear():
    with pytest.raises(ContractError):
        deviation_imbalance_link(PointSet([(0, 0), (1, 1), (2, 2)]))


def test_random_sets_pair_count_and_link(rng):
    for _ in range(40):
        n = rng.randint(3, 10)
        ps = random_general_position(rng, n)
        hp = circular_sequence(ps)
        rep = verify_trace(hp.to_trace())
        assert rep.allowable and rep.reaches_reversal
        transpositions = sum(f.size * (f.size - 1) // 2
                             for ev in hp.events for f in ev.step.flips)
        assert transpositions == n * (n - 1) // 2
        assert deviation_imbalance_link(ps)


def test_imbalance_parity(rng):
    for _ in range(25):
        n = rng.randint(3, 9)
        ps = random_general_position(rng, n)
        records, _ = line_imbalances(ps)
        for r in records:
            assert r.imbalance % 2 == n % 2


def test_pivot_independence_under_translation(rng):
    for _ in range(10):
        ps = random_general_position(rng, 6)
        dx, dy = rng.randrange(-30, 30), rng.randrange(-30, 30)
        moved = PointSet([(x + dx, y + dy) for x, y in ps.points])
        assert circular_sequence(ps).steps() == circular_sequence(moved).steps()


def test_rational_coordinates():
    ps = PointSet([(Fraction(1, 3), 0), (Fraction(2, 3), Fraction(1, 7)),
                   (0, 1)])
    assert deviation_imbalance_link(ps)


@given(point_sets())
@settings(max_examples=300, deadline=None)
def test_link_matches_fraction_oracle(ps):
    if in_general_position(ps):
        assert deviation_imbalance_link(ps) == fraction_deviation_imbalance_link(ps)
    else:
        for link in (deviation_imbalance_link, fraction_deviation_imbalance_link):
            with pytest.raises(ContractError):
                link(ps)


def test_link_scales_coprime_denominators():
    # Denominators 7, 11 and 13 scale the points by 1001, to coordinates
    # near 10^9.
    rng = random.Random(713)
    while True:
        pts = {(Fraction(10**6 * den + rng.randrange(-999, 1000), den),
                Fraction(10**6 * den + rng.randrange(-999, 1000), den))
               for den in (7, 11, 13) for _ in range(5)}
        ps = PointSet(sorted(pts))
        if len(ps) == 15 and in_general_position(ps):
            break
    assert deviation_imbalance_link(ps)
    assert fraction_deviation_imbalance_link(ps)


def test_link_reports_a_wrong_flip(rng, monkeypatch, tmp_path, capsys):
    # A half period whose one flip has another imbalance than its line.
    ps = random_general_position(rng, 7)
    hp = circular_sequence(ps)
    ev = hp.events[0]
    (f,) = ev.step.flips
    c = next(c for c in range(1, 7)
             if flip_imbalance(7, Flip(c, c + 1)) != flip_imbalance(7, f))
    bad = SwapEvent(FlipStep([Flip(c, c + 1)]), ev.groups)
    monkeypatch.setattr(geom, "circular_sequence", lambda ps: HalfPeriod(
        hp.n, hp.initial, (bad,) + hp.events[1:]))
    assert deviation_imbalance_link(ps) is False
    path = tmp_path / "gp.pts"
    path.write_text(format_points(ps))
    assert main(["points", str(path), "--action", "link"]) == EXIT_VIOLATION
    assert capsys.readouterr().out == "link violated\n"


def test_point_file_round_trip():
    text = "# corners\n0 0\n1 0\n1/2 3/4\n-2 5\n"
    ps = parse_points(text)
    assert len(ps) == 4
    assert parse_points(format_points(ps)) == ps
    with pytest.raises(ContractError):
        parse_points("1 2 3\n")
    with pytest.raises(ContractError):
        parse_points("a b\n")


def test_render_trace_svg_structure():
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        tr.emit_step(step)
    svg = render_trace_svg(tr.to_trace())
    root = ET.fromstring(svg)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 5
    # every pair of labels crosses exactly once over the half period
    tr2 = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        tr2.emit_step(step)
    assert sum(f.size * (f.size - 1) // 2 for s in tr2.to_trace().steps
               for f in s.flips) == 10


def test_render_empty_trace():
    tr = TraceRecorder(identity_sequence(-2, 2), Window(1))
    svg = render_trace_svg(tr.to_trace())
    root = ET.fromstring(svg)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 5


def test_render_refuses_too_many_points(monkeypatch, tmp_path, capsys):
    # One swap of two 1000-value blocks stands for 10^6 transpositions,
    # so 2000 polylines of 10^6 + 1 points: refused before any expansion.
    def no_expansion(steps):
        raise AssertionError("a refused trace was expanded")

    monkeypatch.setattr(geom, "expand_steps", no_expansion)
    tr = Trace(Window(0), identity_sequence(1, 2000),
               (BlockSwap(1, 1000, 1000),))
    with pytest.raises(RefusalError, match="2000002000 points"):
        render_trace_svg(tr)
    path = tmp_path / "swap.trace"
    path.write_text(serialize_trace(tr))
    assert main(["render", str(path)]) == 3
    assert capsys.readouterr().err.startswith("refused: ")
    # The five-element example needs 5 x (4 + 1) points: the cap is inclusive.
    monkeypatch.undo()
    rec = TraceRecorder(identity_sequence(1, 5), Window(0))
    for step in five_element_steps():
        rec.emit_step(step)
    monkeypatch.setattr(geom, "_RENDER_POINT_CAP", 25)
    assert render_trace_svg(rec.to_trace()).startswith("<svg")
    monkeypatch.setattr(geom, "_RENDER_POINT_CAP", 24)
    with pytest.raises(RefusalError):
        render_trace_svg(rec.to_trace())


def test_render_compresses_x_past_ten_thousand_steps():
    # 2 values over 12,000 steps: 24,002 points, under the cap.
    step = engine.single_step(1, 2)
    tr = Trace(Window(0), identity_sequence(1, 2), (step,) * 12_000)
    root = ET.fromstring(render_trace_svg(tr))
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    xs = [[float(pt.split(",")[0]) for pt in el.get("points").split()]
          for el in polylines]
    assert [len(x) for x in xs] == [12_001, 12_001]
    # linear, 24 units a step, up to step 10^4; then logarithmic
    assert xs[0][10_000] == 20.0 + 24 * 10_000
    last = 20.0 + 24 * (10_000 + 2_000 * log10(1.2))
    assert xs[0][-1] == xs[1][-1] == round(last, 1)
    assert float(root.get("width")) == round(last + 20.0, 1)


def test_render_points_svg_wellformed(rng):
    ps = random_general_position(rng, 7)
    for with_lines in (False, True):
        ET.fromstring(render_points_svg(ps, with_lines=with_lines))
    # Each line is drawn between its two end points: the one through
    # points 1, 2 and 3 runs from (0, 0) to (2, 2).
    ps = PointSet([(0, 0), (2, 2), (1, 1), (0, 3)])
    root = ET.fromstring(render_points_svg(ps, with_lines=True))
    centres = [(el.get("cx"), el.get("cy")) for el in root.iter()
               if el.tag.endswith("circle")]

    def label(el, end):
        return centres.index((el.get("x" + end), el.get("y" + end))) + 1

    drawn = {frozenset((label(el, "1"), label(el, "2")))
             for el in root.iter() if el.tag.endswith("line")}
    assert drawn == {frozenset(p) for p in ((1, 2), (1, 4), (2, 4), (3, 4))}


@given(point_sets())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_cubic_oracles(ps):
    assert_matches_oracles(ps)


def test_sweep_matches_cubic_oracles_on_shuffled_lattices():
    rng = random.Random(44)
    for side in (3, 4, 5):
        cells = [(x - 2, y - 1) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        ps = PointSet(cells)
        events = circular_sequence(ps).events
        assert any(len(ev.step.flips) > 1 for ev in events)
        assert not in_general_position(ps)
        assert_matches_oracles(ps)


@pytest.mark.parametrize("extra", [[], [(1, 0)]])
def test_sweep_orders_nearly_equal_slopes_exactly(extra):
    # Two of the event slopes differ by about 10^-18, far below what a
    # float key resolves; every storage order must still sweep exactly.
    base = [(0, 0), (10**9, 10**9 + 1), (10**9 - 1, 10**9)] + extra
    for pts in permutations(base):
        ps = PointSet(pts)
        rep = verify_trace(circular_sequence(ps).to_trace())
        assert rep.allowable and rep.reaches_reversal
        assert_matches_oracles(ps)


# A 3x3 lattice and one point on its anti-diagonal's parallel: lines of
# two, three and four points, parallel lines firing together, and the
# vertical lines firing last.
DEGENERATE_SET = PointSet([(x, y) for y in range(3) for x in range(3)]
                          + [(Fraction(1, 2), Fraction(3, 2))])


def test_sweep_events_of_a_degenerate_set():
    events = [(tuple((f.c, f.d) for f in ev.step.flips), ev.groups)
              for ev in circular_sequence(DEGENERATE_SET).events]
    assert events == [
        (((4, 5),), ((4, 5),)),
        (((3, 4), (7, 8)), ((3, 5), (7, 8))),
        (((2, 3), (4, 7), (8, 9)), ((2, 5), (3, 4, 6, 8), (7, 9))),
        (((3, 4), (7, 8)), ((2, 8), (3, 9))),
        (((6, 7),), ((4, 9),)),
        (((1, 3), (4, 6), (8, 10)), ((1, 5, 8), (2, 6, 9), (3, 7, 10))),
        (((7, 8),), ((4, 10),)),
        (((3, 4), (6, 7)), ((1, 9), (2, 10))),
        (((2, 3), (4, 6), (7, 9)), ((5, 9), (1, 6, 10), (2, 4, 7))),
        (((3, 4), (6, 7)), ((5, 10), (1, 7))),
        (((7, 8),), ((1, 4),)),
        (((1, 3), (4, 6), (8, 10)), ((8, 9, 10), (5, 6, 7), (1, 2, 3))),
    ]


def general_position_set(rng, n, box):
    """n random integer points in [0, box)^2, no three collinear: a
    candidate joins only if its directions to the points already chosen
    are distinct (the points workload of perfbench draws its sets so)."""
    def direction(dx, dy):
        g = gcd(dx, dy)
        dx, dy = dx // g, dy // g
        return (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)

    pts = []
    while len(pts) < n:
        x, y = rng.randrange(box), rng.randrange(box)
        if len({direction(x - a, y - b) for a, b in pts
                if (a, b) != (x, y)}) == len(pts):
            pts.append((x, y))
    return PointSet(pts)


def events_digest(hp):
    """sha256 prefix of every event's (c, d) flips and its groups."""
    events = [(tuple((f.c, f.d) for f in ev.step.flips), ev.groups)
              for ev in hp.events]
    return hashlib.sha256(repr(events).encode()).hexdigest()[:16]


SWEEP_DIGESTS = {
    1: ("5b810b0664899e19", "c06e1b8c9ab37abb", "7ab86cebece026cf"),
    2: ("bd43ab38a4ae8079", "6efc662044f93917", "7c49790febec36cf"),
    3: ("4502726ccdc17a7d", "7bee1f41d955c014", "eb4999a9ad1d085d"),
}


def workload_point_sets(seed):
    """Random 40 and 150 in general position and 50 cells of a 10x10
    lattice, drawn in that order from one seeded generator."""
    rng = random.Random(seed)
    sets = [general_position_set(rng, n, 10**6) for n in (40, 150)]
    grid = [(x, y) for x in range(10) for y in range(10)]
    sets.append(PointSet(rng.sample(grid, 50)))
    return sets


@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_sweep_output_is_pinned(seed):
    assert (tuple(events_digest(circular_sequence(ps))
                  for ps in workload_point_sets(seed))
            == SWEEP_DIGESTS[seed])


def test_one_pair_events_share_one_flip_steps(monkeypatch):
    # A fresh cache, so that no clearing can happen during the checks.
    monkeypatch.setattr(engine, "_single_steps", {})
    one_pair = 0
    for ps in workload_point_sets(1) + [DEGENERATE_SET]:
        for ev in circular_sequence(ps).events:
            if len(ev.groups) == 1 and len(ev.groups[0]) == 2:
                c = ev.step.flips[0].c
                assert ev.step is single_step(c, c + 1)
                one_pair += 1
    # every line of the two general-position sets
    assert one_pair >= 40 * 39 // 2 + 150 * 149 // 2


# sha256 prefixes of serialize_trace(circular_sequence(ps).to_trace()),
# read as format v2 (conftest.as_v2), for the 150-point and the lattice
# set of workload_point_sets(seed), as the trace was first written
# through a TraceRecorder replay.
TO_TRACE_DIGESTS = {
    1: ("d7d8766b11b5297b", "fe377ae5bfd51b36"),
    2: ("acbc4f49a2da9bf6", "e4498faef2bfd836"),
    3: ("3dfb47e6f1c3c0c4", "3cedb2ba66f269d6"),
}


@pytest.mark.parametrize("seed", sorted(TO_TRACE_DIGESTS))
def test_to_trace_output_is_pinned(seed):
    digests = []
    for ps in workload_point_sets(seed)[1:]:
        hp = circular_sequence(ps)
        tr = hp.to_trace()
        assert len(tr.steps) == len(hp.events)
        assert all(step is ev.step for step, ev in zip(tr.steps, hp.events))
        digests.append(hashlib.sha256(
            as_v2(engine.serialize_trace(tr)).encode()).hexdigest()[:16])
    assert tuple(digests) == TO_TRACE_DIGESTS[seed]


def misordered_sweep(monkeypatch, pts, directions):
    """Sweep pts with the pair of labels (a, b) firing at the direction
    directions[a, b] instead of its own.  Labels follow (x, y) order.  At
    the directions (k, 1) a larger k fires earlier, and the pairs of one
    direction share a line when their first points share k*x + y.

    The misordering enters through the sweep's two seams: `_sweep_order`
    gives each pair the key of its injected direction, and `_event_vector`
    gives a run of pairs its injected normal for the line offsets."""
    ps = PointSet(pts)
    label = {p: k for k, p in enumerate(sorted(geom._integer_points(ps)), 1)}
    m = len(pts) + 1

    def key(direction):
        x, y = direction
        return (True, 0) if y == 0 else (False, Fraction(-x, y))

    def sweep_order(ipts):
        order = sorted((key(d), a * m + b) for (a, b), d in directions.items())
        return [k for k, _ in order], [code for _, code in order]

    monkeypatch.setattr(geom, "_sweep_order", sweep_order)
    monkeypatch.setattr(geom, "_event_vector",
                        lambda p, q: directions[label[p], label[q]])
    return circular_sequence(ps)


TRIANGLE = [(0, 0), (1, 3), (4, 0)]


def test_sweep_refuses_a_one_pair_event_apart(monkeypatch):
    # (1, 3) fires first, while 2 still stands between them.
    with pytest.raises(ContractError, match="not contiguous"):
        misordered_sweep(monkeypatch, TRIANGLE,
                         {(1, 3): (3, 1), (1, 2): (2, 1), (2, 3): (1, 1)})


def test_sweep_refuses_a_group_apart(monkeypatch):
    # The lines {1, 3} and {2, 4} fire together first, each split by a
    # point of the other.
    pts = [(0, 0), (1, 0), (2, 5), (3, 1)]
    directions = {pair: (0, 1) for pair in combinations(range(1, 5), 2)}
    directions[1, 3] = directions[2, 4] = (1, 1)
    with pytest.raises(ContractError, match="not contiguous"):
        misordered_sweep(monkeypatch, pts, directions)


def test_sweep_refuses_a_group_out_of_label_order(monkeypatch):
    # (2, 3) swaps first; then the line {1, 2, 3} finds them as 1, 3, 2.
    with pytest.raises(ContractError, match="not label-increasing"):
        misordered_sweep(monkeypatch, TRIANGLE,
                         {(2, 3): (2, 1), (1, 2): (1, 1), (1, 3): (1, 1)})


def test_sweep_groups_a_line_by_all_its_pairs(monkeypatch):
    # (1, 2) swaps first.  Then (1, 3) and (2, 3) fire together at
    # (-3, 1), where their first points share the offset 0, so they make
    # one line {1, 2, 3}, although its pair (1, 2) has fired already; it
    # is found as 2, 1, 3.
    with pytest.raises(ContractError, match="not label-increasing"):
        misordered_sweep(monkeypatch, TRIANGLE,
                         {(1, 2): (1, 1), (1, 3): (-3, 1), (2, 3): (-3, 1)})


def test_misordered_sweeps_are_refused_or_verify(monkeypatch):
    # Whatever order the events come in, the sweep either refuses it or
    # yields a half period whose trace the verifier accepts.  Each accepted
    # event reverses an increasing run, so it inverts only pairs not yet
    # inverted, and every pair belongs to an event: an accepted sweep
    # always ends at the reversal, and no misordering reaches the
    # "did not reach the reversal" check.
    rng = random.Random(16)
    pool = [(k, 1) for k in range(-2, 3)] + [(-1, 0)]
    reasons = ("not contiguous", "not label-increasing", "overlap")
    outcomes = dict.fromkeys(reasons + ("accepted",), 0)
    for _ in range(300):
        cells = rng.sample([(x, y) for x in range(3) for y in range(3)],
                           rng.randint(3, 5))
        directions = {pair: rng.choice(pool)
                      for pair in combinations(range(1, len(cells) + 1), 2)}
        try:
            hp = misordered_sweep(monkeypatch, cells, directions)
        except ContractError as exc:
            (reason,) = [r for r in reasons if r in str(exc)]
            outcomes[reason] += 1
            continue
        rep = verify_trace(hp.to_trace())
        assert rep.allowable and rep.all_valid and rep.reaches_reversal
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 0, outcomes


def assert_sweep_verifies(ps):
    rep = verify_trace(circular_sequence(ps).to_trace())
    assert rep.allowable and rep.all_valid and rep.reaches_reversal


# S is the x span of a set, which scales the sweep's slope keys by S^2.
SPAN = 10**9 - 7
KEY_EDGE_SETS = {
    # S = 0: every pair is vertical and no slope key is formed.
    "one-vertical-line": [(0, 3), (0, -1), (0, 7), (0, 0), (0, 2)],
    "n=2": [(0, 0), (3, 1)],
    "n=2-vertical": [(4, 1), (4, 0)],
    "lone-vertical-pair": [(0, 0), (0, 1), (3, 2), (5, -4)],
    # Slopes 1/SPAN and 1/(SPAN - 1) from (0, 0), 1/(SPAN (SPAN - 1))
    # apart, the least gap two slopes with denominators up to SPAN can
    # have; their keys differ by 1.  The line y = 1 holds three points.
    "span-near-1e9": [(0, 0), (SPAN, 1), (SPAN - 1, 1), (0, 1),
                      (1, -SPAN)],
    # The last key is 0 and no pair is vertical: the sweep's end sentinel
    # must differ from 0 to end the last run.
    "largest-key-0": [(0, 0), (1, 0), (2, -1)],
}


@pytest.mark.parametrize("pts", KEY_EDGE_SETS.values(), ids=KEY_EDGE_SETS)
def test_sweep_key_edge_cases(pts):
    ps = PointSet(pts)
    assert_matches_oracles(ps)
    assert_sweep_verifies(ps)


def tuple_sweep_order(ipts):
    """Reference for geom._sweep_order: one sort of (key, code) tuples,
    the vertical pairs appended after it in code order."""
    n = len(ipts)
    m = n + 1
    s2 = (ipts[-1][0] - ipts[0][0]) ** 2
    order, vertical = [], []
    for a, b in combinations(range(1, n + 1), 2):
        (px, py), (qx, qy) = ipts[a - 1], ipts[b - 1]
        if px == qx:
            vertical.append((geom._VERTICAL, a * m + b))
        else:
            order.append(((qy - py) * s2 // (qx - px), a * m + b))
    return sorted(order) + vertical


def test_sweep_order_is_the_tuple_sort():
    rng = random.Random(44)
    sets = [ps for seed in (1, 2) for ps in workload_point_sets(seed)]
    for side in (3, 4, 5, 10):
        cells = [(x - 2, y - 1) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        sets.append(PointSet(cells))
    sets += [PointSet(pts) for pts in KEY_EDGE_SETS.values()]
    base = [(0, 0), (10**9, 10**9 + 1), (10**9 - 1, 10**9)]
    sets += [PointSet(pts) for extra in ([], [(1, 0)])
             for pts in permutations(base + extra)]
    sets.append(DEGENERATE_SET)
    for ps in sets:
        ipts = sorted(geom._integer_points(ps))
        want = tuple_sweep_order(ipts)
        assert geom._sweep_order(ipts) == ([key for key, _ in want],
                                           [code for _, code in want])


def test_near_slopes_at_a_large_span_fire_apart():
    ps = PointSet(KEY_EDGE_SETS["span-near-1e9"])
    groups = [ev.groups for ev in circular_sequence(ps).events]
    # Labels in (x, y) order: (0, 0), (0, 1), (1, -SPAN), (SPAN - 1, 1),
    # (SPAN, 1).
    assert groups.index(((1, 5),)) + 1 == groups.index(((1, 4),))
    assert ((2, 4, 5),) in groups
    assert groups[-1] == ((1, 2),)


def test_lone_vertical_pair_shares_the_one_flip_step(monkeypatch):
    monkeypatch.setattr(engine, "_single_steps", {})
    ps = PointSet(KEY_EDGE_SETS["lone-vertical-pair"])
    last = circular_sequence(ps).events[-1]
    assert last.groups == ((1, 2),)
    c = last.step.flips[0].c
    assert last.step is single_step(c, c + 1)


def test_one_point_sweeps_to_no_events():
    ps = PointSet([(Fraction(1, 3), 5)])
    assert circular_sequence(ps).events == ()
    assert_sweep_verifies(ps)
    assert in_general_position(ps)
    with pytest.raises(ContractError, match="need at least two points"):
        line_imbalances(ps)


def test_points_link_sweeps_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "gp.pts"
    path.write_text(format_points(random_general_position(random.Random(5), 9)))
    calls = []

    def counted(ps):
        calls.append(len(ps))
        return circular_sequence(ps)

    monkeypatch.setattr(geom, "circular_sequence", counted)
    assert main(["points", str(path), "--action", "link"]) == 0
    assert calls == [9]
    assert capsys.readouterr().out.startswith("link holds")
    for text, reason in (("3 4\n", "need at least two points"),
                         ("0 0\n1 1\n2 2\n", "needs general position")):
        path.write_text(text)
        assert main(["points", str(path), "--action", "link"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and reason in err


def test_points_n12_reach_line_imbalance_two():
    # Twelve points whose every line has imbalance >= 2; no smaller set
    # can, since its half period would be such an allowable sequence.
    text = (pathlib.Path(__file__).parent / "golden"
            / "points_n12_m2.pts").read_text()
    ps = parse_points(text)
    records, mn = line_imbalances(ps)
    assert (len(ps), mn, len(records)) == (12, 2, 36)
    assert sum(len(r.labels) == 4 for r in records) == 6
    assert_matches_oracles(ps)
    rep = verify_trace(circular_sequence(ps).to_trace())
    assert rep.all_valid and rep.reaches_reversal
    assert rep.min_deviation == 1


def test_geometry_edge_cases():
    for pts in ([], [(0, 0)], [(0, 0), (1, 1)]):
        assert in_general_position(PointSet(pts))
    for pts in ([], [(0, 0)]):
        with pytest.raises(ContractError):
            line_imbalances(PointSet(pts))
    records, mn = line_imbalances(PointSet([(1, 1), (0, 0)]))
    assert records == [LineRecord((1, 2), 0, 0)] and mn == 0
