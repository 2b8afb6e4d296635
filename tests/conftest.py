import random

import pytest

from allowseq.construction import StepLayout
from allowseq.engine import FlipStep
from allowseq.seqcore import CentredSequence, Flip, identity_sequence


def five_element_steps():
    """The classic 4-step allowable sequence on [1, 5]."""
    return [
        FlipStep([Flip(1, 2), Flip(4, 5)]),
        FlipStep([Flip(2, 4)]),
        FlipStep([Flip(1, 2), Flip(4, 5)]),
        FlipStep([Flip(2, 4)]),
    ]


def random_trace_material(rng: random.Random, max_n: int = 7):
    """A random initial sequence plus a mix of valid and junk steps."""
    n = rng.randint(2, max_n)
    lo = rng.randint(-3, 3)
    vals = rng.sample(range(-20, 40), n)
    initial = CentredSequence(lo, vals)
    state = list(vals)
    steps = []
    for _ in range(rng.randint(1, 12)):
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


# Middle blocks of the synthetic finishing state, both 28-balanced over the
# same values.  The first is already decomposed (empty schedule); the
# second needs 29 size-2 block flips before its pieces can be carried.
SYNTHETIC_MIDDLES = {
    "decomposed": (list(range(-67, -39)) + [74, 75, 76]
                   + list(range(-39, -11)) + [71, 72, 73]),
    "scheduled": (list(range(-67, -39)) + [74, 75]
                  + list(range(-39, -11)) + [71, 76, 72, 73]),
}


def synthetic_finishing_state(middle):
    """A hand-built X' ^ L ^ W ^ A ^ B ^ R ^ J state at t = 1 around the
    given middle block B, with values tiling [-76, 76]."""
    t, b = 1, 76
    vals = {}
    for i, pos in enumerate(range(-76, -70)):
        vals[pos] = -76 + i
    for i, pos in enumerate(range(-70, -40)):
        vals[pos] = 2 + i
    for i, pos in enumerate(range(-40, -1)):
        vals[pos] = 32 + i
    for i, pos in enumerate(range(-1, 2)):
        vals[pos] = -70 + i
    for i, pos in enumerate(range(2, 64)):
        vals[pos] = middle[i]
    for i, pos in enumerate(range(64, 74)):
        vals[pos] = -11 + i
    for i, pos in enumerate(range(74, 77)):
        vals[pos] = 1 - i
    seq = CentredSequence(-b, [vals[p] for p in range(-b, b + 1)])
    layout = StepLayout(L=(-70, -41), W=(-40, -2), A=(-1, 1), B=(2, 63),
                        R=(64, 73))
    return seq, layout, t


@pytest.fixture
def rng():
    return random.Random(1234)
