"""Golden move order: the exact trace text of the construction's moves.

Each case runs one procedure into a FileSink and pins the first 16 hex
digits of sha256 digests: of the text written (format v3), of that text
expanded back to format v2 (`conftest.as_v2`), in which every replayed
sub-step is written out, and of it expanded on to format v1
(`conftest.as_v1`), in which every block swap is its one-flip steps.  A
refactor of the moves must keep every flip, its order and every
annotation, so the v1 and v2 pins hold across format changes; a
deliberate change of the trace format updates only the v3 pins, in the
same change.  The v2 pins were taken from the writer of format v2, so
they also check that expanding a v3 file gives that writer's file byte
for byte.
"""

import hashlib
import io
from fractions import Fraction

import pytest

from allowseq.construction import (finish_pipeline, recursive_step, reflect,
                                   reflect_instance, reflect_mirrored, shift,
                                   shift_instance, step_instance)
from allowseq.engine import FileSink, TraceRecorder, serialize_trace
from allowseq.seqcore import Window
from conftest import (SYNTHETIC_MIDDLES, as_v1, as_v2,
                      synthetic_finishing_state)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digests(text):
    """The digests of the v1 expansion, the v2 expansion and the text."""
    return _digest(as_v1(text)), _digest(as_v2(text)), _digest(text)


STEP_PINS = {
    (0, 9, 1): "84772d0d9c443c8b",
    (0, 9, 2): "adf6ba2ed6f13898",
    (1, 81, 0): "a91ddd72a1792216",
    (1, 81, 1): "de82cebcafe9e462",
}
STEP_PINS_V2 = {
    (0, 9, 0): "1415c5f6d469ae1d",
    (0, 9, 1): "cd586917e7cea0ed",
    (0, 9, 2): "422a5e991d80da2d",
    (0, 9, 3): "14e28e32b1605de9",
    (1, 81, 0): "5aac35ee05ca942f",
    (1, 81, 1): "b9a70b2d659bea69",
}
STEP_PINS_V3 = {
    (0, 9, 0): "64f8296065d01a0c",
    (0, 9, 1): "64039f81ff88b181",
    (0, 9, 2): "d01956b2a94b6969",
    (0, 9, 3): "3f7e6a8efc005106",
    (1, 81, 0): "9e06a4c6309da204",
    (1, 81, 1): "9f508cc67ba0ed0a",
}


@pytest.mark.parametrize("t, d, k", list(STEP_PINS_V2),
                         ids=[f"{t}-{d}-{k}" for t, d, k in STEP_PINS_V2])
def test_recursive_step_move_order(t, d, k):
    # Every point of the acceptance suite's STEP_POINTS; the v1
    # expansion of (0, 9, 3) is too large to build here.
    out = io.StringIO()
    rec = step_instance(t, d, k, 1, sink=FileSink(out))
    recursive_step(rec, d, k, 1, strict_certificates=False)
    text = out.getvalue()
    assert (_digest(as_v2(text)), _digest(text)) == (STEP_PINS_V2[t, d, k],
                                                     STEP_PINS_V3[t, d, k])
    if (t, d, k) in STEP_PINS:
        assert _digest(as_v1(text)) == STEP_PINS[t, d, k]


def test_both_sinks_see_the_same_scopes():
    # STEP_PINS pins the FileSink side; the same step recorded into a
    # ListSink must serialize to that text, every scope at its place.
    out = io.StringIO()
    for sink in (FileSink(out), None):
        rec = step_instance(0, 9, 2, 1, sink=sink)
        recursive_step(rec, 9, 2, 1, strict_certificates=False)
    assert rec.to_trace().annotations
    assert serialize_trace(rec.to_trace()) == out.getvalue()


def test_wide_map_step_move_order():
    # At (0, 27, 2) the top-level segment map reaches 1,162 segments, so
    # this pins moves that cross many segments.  Only the v2 expansion
    # and the v3 text are pinned: the v1 expansion is 40,166,813 one-flip
    # lines, too large to build in a unit test.
    out = io.StringIO()
    rec = step_instance(0, 27, 2, 1, sink=FileSink(out))
    recursive_step(rec, 27, 2, 1, strict_certificates=False)
    assert rec.flip_count == 40_166_813
    text = out.getvalue()
    assert _digest(as_v2(text)) == "c460f73f39dbc28d"
    assert _digest(text) == "5cc0f8623853be73"


PRIMITIVE_PINS = {  # t: (shift, reflect, reflect_mirrored)
    0: ("ab15ddf63f0a1fce", "aeb41df2b3e76fe7", "52fe67b8cd11063f"),
    1: ("398bd49b3fbdf2b8", "2956e61eb4fa3535", "a2aa8a3c689a923c"),
    2: ("29a5ecfd1dec8e66", "9de1c8867dc53d8d", "88300fca4b4b1a98"),
}
PRIMITIVE_PINS_V2 = {
    0: ("ce82a3b82de915fb", "f316df8155779b18", "16ae22b7937afc50"),
    1: ("bf7691b74acab803", "cbb7e86eeca5419d", "dacd6db6d611969b"),
    2: ("2bae401f29db09af", "932425f36553ed02", "91b44ddd00b146ad"),
}
PRIMITIVE_PINS_V3 = {
    0: ("12b427850b358890", "0f654e94f14c3903", "a9585db830346391"),
    1: ("d0f57e6ac1dcb6f4", "247c81bb746ad20f", "f1739935384e4716"),
    2: ("22d06a2fc040b5a7", "45b7f904ca41533b", "ce7e1b7db853471d"),
}


@pytest.mark.parametrize("t", list(PRIMITIVE_PINS))
def test_shift_and_reflect_move_order(t):
    T = 3 ** (2 * t)
    digests = []
    out = io.StringIO()
    rec, a, b, c = shift_instance(t, T + 3, sink=FileSink(out))
    shift(rec, a, b, c)
    digests.append(_digests(out.getvalue()))
    for move, mirrored in ((reflect, False), (reflect_mirrored, True)):
        out = io.StringIO()
        rec, x, a, b, c = reflect_instance(t, T + 4 * t + 2, 2,
                                           sink=FileSink(out),
                                           mirrored=mirrored)
        move(rec, x, a, b, c)
        digests.append(_digests(out.getvalue()))
    assert tuple(zip(*digests)) == (PRIMITIVE_PINS[t], PRIMITIVE_PINS_V2[t],
                                    PRIMITIVE_PINS_V3[t])


FINISH_PINS = {"decomposed": "bbebfde3add890a6",
               "scheduled": "f9167dc64f4b9630"}
FINISH_PINS_V2 = {"decomposed": "805563ac7c74fb84",
                  "scheduled": "b4d0d0a33acb69e4"}
FINISH_PINS_V3 = {"decomposed": "84a3cb938b102f67",
                  "scheduled": "dc6863e60ed2a5cf"}


@pytest.mark.parametrize("name", list(FINISH_PINS))
def test_finishing_pipeline_move_order(name):
    seq, layout, t = synthetic_finishing_state(SYNTHETIC_MIDDLES[name])
    out = io.StringIO()
    rec = TraceRecorder(seq, Window(t), sink=FileSink(out))
    finish_pipeline(rec, layout, Fraction(28))
    assert _digests(out.getvalue()) == (FINISH_PINS[name],
                                        FINISH_PINS_V2[name],
                                        FINISH_PINS_V3[name])
