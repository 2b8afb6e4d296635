#!/usr/bin/env python3
"""Emit a couple of demonstration SVGs: the classic 5-element sequence as a
wiring diagram, a shifting run at t = 1, and a labelled pentagon."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from allowseq.construction import shift, shift_instance        # noqa: E402
from allowseq.engine import FlipStep, TraceRecorder            # noqa: E402
from allowseq.geom import PointSet, render_points_svg, render_trace_svg  # noqa: E402
from allowseq.seqcore import Flip, Window, identity_sequence   # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "demo_out"


def main():
    OUT.mkdir(exist_ok=True)
    tr = TraceRecorder(identity_sequence(1, 5), Window(0))
    for flips in ([(1, 2), (4, 5)], [(2, 4)], [(1, 2), (4, 5)], [(2, 4)]):
        tr.emit_step(FlipStep([Flip(c, d) for c, d in flips]))
    (OUT / "five.svg").write_text(render_trace_svg(tr.to_trace()))

    rec, a, b, c = shift_instance(1, 9)
    shift(rec, a, b, c)
    (OUT / "shift_t1.svg").write_text(render_trace_svg(rec.to_trace()))

    pent = PointSet([(0, 0), (10, 1), (14, 9), (5, 16), (-4, 8)])
    (OUT / "pentagon.svg").write_text(render_points_svg(pent, with_lines=True))
    print(f"wrote {OUT}/five.svg, shift_t1.svg, pentagon.svg")


if __name__ == "__main__":
    main()
