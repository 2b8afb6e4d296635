import random

import pytest

from allowseq.construction import StepLayout
from allowseq.engine import BlockSwap, FlipStep, TraceRecorder, expand_steps
from allowseq.seqcore import CentredSequence, Flip, Window, identity_sequence


def five_element_steps():
    """The classic 4-step allowable sequence on [1, 5]."""
    return [
        FlipStep([Flip(1, 2), Flip(4, 5)]),
        FlipStep([Flip(2, 4)]),
        FlipStep([Flip(1, 2), Flip(4, 5)]),
        FlipStep([Flip(2, 4)]),
    ]


class LooseStep:
    """A step as verify_stream reads one, holding flips in any order,
    overlapping or not, which FlipStep would refuse."""

    def __init__(self, flips):
        self.flips = tuple(flips)


def _random_flips(rng, state):
    """Disjoint flips (c, d) left to right over the positions 0..n-1 of
    state, mostly increasing runs, some junk and some of one value; at
    least one.  Each end may gain a flip reaching past the domain."""
    n = len(state)
    flips = []
    p = 0
    while p < n:
        if rng.random() < 0.4:
            d = p
            if rng.random() < 0.8:  # an increasing run from p
                while (d + 1 < n and state[d] < state[d + 1]
                       and (d == p or rng.random() < 0.5)):
                    d += 1
            else:
                d = rng.randrange(p, min(n, p + 4))
            flips.append((p, d))
            p = d + 1
        p += 1
    if rng.random() < 0.2:
        flips.insert(0, (-rng.randint(1, 2), -1))
    if rng.random() < 0.2:
        flips.append((n, n + rng.randint(0, 1)))
    return flips or [(0, n - 1)]


def _random_swap(rng, state):
    """A block swap (at, a, b) over positions 0..n-1 of state, valid on
    state about half the time; now and then past the domain's ends."""
    n = len(state)
    swaps = [(at, a, b) for at in range(n) for a in range(1, n - at)
             for b in range(1, n - at - a + 1)]
    valid = [(at, a, b) for at, a, b in swaps
             if max(state[at:at + a]) < min(state[at + a:at + a + b])]
    if valid and rng.random() < 0.5:
        return rng.choice(valid)
    at, a, b = rng.choice(swaps)
    if rng.random() < 0.15:
        at += rng.choice((-1, 1))
    return at, a, b


def _mixed_step(rng, state, lo):
    """One step of the mixed material: a multi-flip FlipStep, a
    BlockSwap, or a LooseStep whose flips overlap or are out of order."""
    kind = rng.random()
    if kind < 0.3:
        at, a, b = _random_swap(rng, state)
        return BlockSwap(lo + at, a, b)
    flips = [Flip(lo + c, lo + d) for c, d in _random_flips(rng, state)]
    if kind < 0.8:
        return FlipStep(flips)
    if len(flips) > 1 and rng.random() < 0.5:
        rng.shuffle(flips)
    else:
        f = rng.choice(flips)
        flips.append(Flip(f.d, f.d + rng.randint(0, 2)))
    return LooseStep(flips)


def random_trace_material(rng: random.Random, max_n: int = 7,
                          mixed: bool = False):
    """A random initial sequence plus a mix of valid and junk steps.

    The steps are one-flip FlipSteps.  With `mixed`, about half of them
    are instead multi-flip steps, block swaps and LooseSteps, from
    _mixed_step, and flips may reach past the domain."""
    n = rng.randint(2, max_n)
    lo = rng.randint(-3, 3)
    vals = rng.sample(range(-20, 40), n)
    initial = CentredSequence(lo, vals)
    state = list(vals)
    steps = []
    for _ in range(rng.randint(1, 12)):
        if mixed and rng.random() < 0.5:
            step = _mixed_step(rng, state, lo)
            steps.append(step)
            pairs = (step if isinstance(step, BlockSwap)
                     else [(f.c, f.d) for f in step.flips])
            for c, d in pairs:
                if lo <= c <= d <= lo + n - 1:
                    state[c - lo : d - lo + 1] = state[c - lo : d - lo + 1][::-1]
            continue
        if rng.random() < 0.75:
            # a genuinely valid flip on the current state, when one exists
            runs = [(c, d)
                    for c in range(n) for d in range(c + 1, n)
                    if all(state[i] < state[i + 1] for i in range(c, d))]
            if not runs:
                continue
            c, d = rng.choice(runs)
        else:
            c = rng.randrange(n - 1)
            d = rng.randrange(c + 1, n)
        steps.append(FlipStep([Flip(lo + c, lo + d)]))
        state[c : d + 1] = state[c : d + 1][::-1]
    return initial, steps


def bubble_pairs(lo, a, b):
    """The transpositions (p, p+1) a block swap `B <lo> <a> <b>` stands
    for, written apart from the engine's BlockSwap: right element j moves
    from lo+a+j to lo+j, crossing p+1 -> p from p = lo+a+j-1 down to
    p = lo+j."""
    return [(p, p + 1) for j in range(b)
            for p in range(lo + a + j - 1, lo + j - 1, -1)]


def as_v3(text):
    """A trace file's text as format v3 holds it: the magic line says v3
    and each range `v..w` on header line 3 becomes the values v, v+1,
    ..., w.  Written apart from the engine's reader, from the format
    section."""
    lines = text.splitlines(keepends=True)
    assert lines[0] in ("ALLOWSEQ v3\n", "ALLOWSEQ v4\n")
    values = []
    for token in lines[2].split():
        v, dots, w = token.partition("..")
        values += range(int(v), int(w) + 1) if dots else [int(v)]
    header = " ".join(map(str, values)) + "\n"
    return "".join(["ALLOWSEQ v3\n", lines[1], header, *lines[3:]])


def as_v2(text):
    """A trace file's text as format v2 holds it: as_v3, then the magic
    line says v2, each `R` line becomes the body of its shape, every `R`
    in it expanded in turn and its annotation depths shifted by the
    scopes open at the `R` less those open at the `D`, and `D` and `E`
    lines are dropped.  Written apart from the engine's reader, from the
    format section."""
    lines = text.splitlines(keepends=True)
    if lines[0] != "ALLOWSEQ v2\n":
        lines = as_v3(text).splitlines(keepends=True)
    bodies = {}  # id -> (its body lines, scopes open at its D)
    opened = []  # (id, index of its D line, scopes open there)
    depth = 0
    for i, line in enumerate(lines[3:], 3):
        kind, *rest = line.split()
        if kind == "#":
            depth = int(rest[0]) - (rest[1] == "end")
        elif kind == "D":
            opened.append((rest[0], i, depth))
        elif kind == "E":
            sid, at, at_depth = opened.pop()
            assert sid == rest[0]
            bodies[sid] = (lines[at + 1:i], at_depth)
    assert not opened

    def expand(body, depth, shift):
        for line in body:
            kind, *rest = line.split()
            if kind == "#":
                depth = int(rest[0]) - (rest[1] == "end")
                yield f"# {int(rest[0]) + shift} {line.split(' ', 2)[2]}"
            elif kind == "R":
                inner, at_depth = bodies[rest[0]]
                yield from expand(inner, at_depth, shift + depth - at_depth)
            elif kind not in ("D", "E"):
                yield line

    return "".join(["ALLOWSEQ v2\n", *lines[1:3], *expand(lines[3:], 0, 0)])


def as_v1(text):
    """A trace file's text as format v1 holds it: as_v2, then the magic
    line says v1 and each `B` line becomes its a*b `F` lines."""
    lines = as_v2(text).splitlines(keepends=True)
    out = ["ALLOWSEQ v1\n"] + lines[1:3]
    for line in lines[3:]:
        if line.startswith("B "):
            lo, a, b = (int(x) for x in line.split()[1:])
            out += [f"F {c} {d}\n" for c, d in bubble_pairs(lo, a, b)]
        else:
            out.append(line)
    return "".join(out)


def block_moves(block, target):
    """The size-2 block flips, in order, by which rearrange_region turns
    block into target: it runs on a Window(0) recorder holding the block
    on positions 1..|B|, so each transposition (c, c+1) is the Flip of the
    block at 1-based position c."""
    rec = TraceRecorder(CentredSequence(1, tuple(block)), Window(0))
    rec.rearrange_region((1, len(block)), target)
    return [step.flips[0] for step in expand_steps(rec.sink.steps)]


# Middle blocks of the synthetic finishing state, both 28-balanced over the
# same values.  The first is already decomposed (no block moves); the
# second needs 29 size-2 block flips before its pieces can be carried.
SYNTHETIC_MIDDLES = {
    "decomposed": (list(range(-67, -39)) + [74, 75, 76]
                   + list(range(-39, -11)) + [71, 72, 73]),
    "scheduled": (list(range(-67, -39)) + [74, 75]
                  + list(range(-39, -11)) + [71, 76, 72, 73]),
}


def finishing_state(middle, t, r_size, l_size=None, x_size=None):
    """X' ^ L ^ W ^ A ^ B ^ R ^ J around the middle block B, A on the
    window [-t, t] and B from t+1, with the values relabelled by rank so
    that X' < A < B- < R < J < L < W < B+ and J = (t, ..., -t).

    |X'| defaults to |B+| and |L| to half of |L| + |W|, which is fixed by
    the middle so that the values tile [-b, b]; another |X'| keeps every
    class in place but shifts the left end of the domain.  Returns the
    initial sequence and the layout the finish phase reads."""
    neg = sorted(v for v in middle if v < 0)
    pos = sorted(v for v in middle if v > 0)
    x = len(pos) if x_size is None else x_size
    lw = len(neg) + r_size + 2 * t + 1
    l_size = lw // 2 if l_size is None else l_size
    sizes = [x, 2 * t + 1, len(neg), r_size, 2 * t + 1, l_size,
             lw - l_size, len(pos)]
    classes = []
    v = -(x + 3 * t + 1 + len(neg) + r_size)
    for size in sizes:
        classes.append(list(range(v, v + size)))
        v += size
    xs, a, bneg, r, j, left, w, bpos = classes
    rank = dict(zip(neg, bneg)) | dict(zip(pos, bpos))
    vals = xs + left + w + a + [rank[v] for v in middle] + r + j[::-1]
    lo = -t - x - lw
    b_end = t + len(middle)
    layout = StepLayout(L=(lo + x, lo + x + l_size - 1),
                        W=(lo + x + l_size, -t - 1), A=(-t, t),
                        B=(t + 1, b_end), R=(b_end + 1, b_end + r_size))
    return CentredSequence(lo, vals), layout


def synthetic_finishing_state(middle):
    """The hand-built state at t = 1 around one of SYNTHETIC_MIDDLES:
    |R| = 10 and |L| = 30, values tiling [-76, 76], the middle's values
    kept as they are."""
    return (*finishing_state(middle, 1, r_size=10, l_size=30), 1)


@pytest.fixture
def rng():
    return random.Random(1234)
