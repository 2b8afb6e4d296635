"""Golden move order: the exact trace text of the construction's moves.

Each case runs one procedure into a FileSink and pins the first 16 hex
digits of the sha256 of the text written.  A refactor of the moves must
keep every flip, its order and every annotation; a deliberate change of
the trace format updates these pins in the same change.
"""

import hashlib
import io
from fractions import Fraction

import pytest

from allowseq.construction import (finish_pipeline, recursive_step, reflect,
                                   reflect_instance, reflect_mirrored, shift,
                                   shift_instance, step_instance)
from allowseq.engine import FileSink, TraceRecorder
from allowseq.seqcore import Window
from conftest import SYNTHETIC_MIDDLES, synthetic_finishing_state


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


STEP_PINS = {
    (0, 9, 1): "84772d0d9c443c8b",
    (0, 9, 2): "adf6ba2ed6f13898",
    (1, 81, 0): "a91ddd72a1792216",
    (1, 81, 1): "de82cebcafe9e462",
}


@pytest.mark.parametrize("t, d, k", list(STEP_PINS),
                         ids=[f"{t}-{d}-{k}" for t, d, k in STEP_PINS])
def test_recursive_step_move_order(t, d, k):
    out = io.StringIO()
    rec = step_instance(t, d, k, 1, sink=FileSink(out))
    recursive_step(rec, d, k, 1, strict_certificates=False)
    assert _digest(out.getvalue()) == STEP_PINS[t, d, k]


PRIMITIVE_PINS = {  # t: (shift, reflect, reflect_mirrored)
    0: ("ab15ddf63f0a1fce", "aeb41df2b3e76fe7", "52fe67b8cd11063f"),
    1: ("398bd49b3fbdf2b8", "2956e61eb4fa3535", "a2aa8a3c689a923c"),
    2: ("29a5ecfd1dec8e66", "9de1c8867dc53d8d", "88300fca4b4b1a98"),
}


@pytest.mark.parametrize("t", list(PRIMITIVE_PINS))
def test_shift_and_reflect_move_order(t):
    T = 3 ** (2 * t)
    digests = []
    out = io.StringIO()
    rec, a, b, c = shift_instance(t, T + 3, sink=FileSink(out))
    shift(rec, a, b, c)
    digests.append(_digest(out.getvalue()))
    for move, mirrored in ((reflect, False), (reflect_mirrored, True)):
        out = io.StringIO()
        rec, x, a, b, c = reflect_instance(t, T + 4 * t + 2, 2,
                                           sink=FileSink(out),
                                           mirrored=mirrored)
        move(rec, x, a, b, c)
        digests.append(_digest(out.getvalue()))
    assert tuple(digests) == PRIMITIVE_PINS[t]


FINISH_PINS = {"decomposed": "bbebfde3add890a6",
               "scheduled": "f9167dc64f4b9630"}


@pytest.mark.parametrize("name", list(FINISH_PINS))
def test_finishing_pipeline_move_order(name):
    seq, layout, t = synthetic_finishing_state(SYNTHETIC_MIDDLES[name])
    out = io.StringIO()
    rec = TraceRecorder(seq, Window(t), sink=FileSink(out))
    finish_pipeline(rec, layout, Fraction(28))
    assert _digest(out.getvalue()) == FINISH_PINS[name]
