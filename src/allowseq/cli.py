"""Command-line surface and run orchestration.

The trace file format is documented, written and read in `engine`; its
reader and writer are re-exported here.  `construct --out` writes format
v3, in which a repeated sub-step is one `R` line, and opens the file
only once every cell guard has passed.  `verify` and `render` read
formats v1, v2 and v3: `verify` checks each replay against the shape it
derives from the file itself, and `render` draws a replay as its body,
refusing a trace whose expansion needs too many points.

Exit codes: 0 success, 1 property violated or structured failure, 2
malformed input, 3 refusal by a resource guard, 141 (128 + SIGPIPE, as
a shell reports a writer killed by SIGPIPE) when the reader of standard
output closed it early.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .construction import (ConstructionFailure, full_construction,
                           recursive_step, reflect, reflect_instance,
                           reflect_mirrored, shift, shift_instance,
                           step_instance)
from .engine import (INF, MAGIC, FileSink, StatsSink, TraceParseError,
                     iter_trace_file, parse_trace, serialize_trace,
                     verify_stream)
from .errors import ConstructionBug, ContractError, RefusalError
from .geom import (circular_sequence, line_imbalances, link_and_minimum,
                   parse_points, render_points_svg, render_trace_svg)
from .oracle import SEARCH_GUARD, search_best_deviation
from .planner import MAX_CELLS, plan_sizes, require_cells

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_REFUSED = 3
EXIT_PIPE = 141


def _fmt_dev(dev):
    if dev == INF:
        return "inf"
    dev = Fraction(dev)
    return f"{dev.numerator}/{dev.denominator}"


def _report_lines(rep, machine):
    if machine:
        return [f"allowable={int(rep.allowable)}",
                f"all_valid={int(rep.all_valid)}",
                f"reaches_reversal={int(rep.reaches_reversal)}",
                f"min_deviation={_fmt_dev(rep.min_deviation)}",
                f"steps={rep.step_count}",
                f"flips={rep.flip_count}"]
    lines = [f"allowable:        {'yes' if rep.allowable else 'NO'}",
             f"all flips valid:  {'yes' if rep.all_valid else 'NO'}",
             f"reaches reversal: {'yes' if rep.reaches_reversal else 'NO'}",
             f"min deviation:    {_fmt_dev(rep.min_deviation)}",
             f"steps / flips:    {rep.step_count} / {rep.flip_count}"]
    if rep.first_violation:
        idx, flip, reason = rep.first_violation
        lines.append(f"first violation:  step {idx} flip {flip}: {reason}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_verify(args) -> int:
    try:
        with open(args.trace) as fh:
            (window, initial), steps = iter_trace_file(fh)
            rep = verify_stream(initial, window, steps)
    except TraceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    for line in _report_lines(rep, args.machine):
        print(line)
    ok = rep.allowable and rep.all_valid
    if args.strict:
        ok = ok and (rep.min_deviation == INF or rep.min_deviation > window.t)
    return EXIT_OK if ok else EXIT_VIOLATION


def _max_cells(args):
    env = os.environ.get("ALLOWSEQ_MAX_CELLS")
    if args.max_cells is not None:
        return args.max_cells
    if env:
        try:
            return int(env)
        except ValueError:
            raise ContractError(f"ALLOWSEQ_MAX_CELLS={env!r} is not an integer")
    return MAX_CELLS


def cmd_construct(args) -> int:
    t = args.t
    n = args.n
    if n is None:
        T = 3 ** (2 * t)
        n = {"shift": T, "reflect": T + 4 * t + 2,
             "reflect-mirrored": T + 4 * t + 2}.get(args.stage, 1)
    if args.stage in ("step", "full") and args.plan:
        sys.stdout.write(plan_sizes(t, args.d, args.k, n).to_text())
        return EXIT_OK
    out = _OutFile(args.out) if args.out else None
    code = EXIT_VIOLATION
    try:
        code = _construct(args, n, out)
    finally:
        if out is not None:
            out.close()
            # A run that does not succeed leaves no trace file of its own
            # behind, and a refused one never opened the path.
            if code != EXIT_OK and out.fh is not None:
                os.unlink(args.out)
    return code


class _OutFile:
    """The `--out` trace file, opened for writing at its first write.  The
    recorder writes first when it announces its initial state, after the
    cell guards of every stage have passed, so a run they refuse leaves a
    file already at the path as it was."""

    def __init__(self, path):
        self.path = path
        self.fh = None

    def write(self, text):
        self.fh = open(self.path, "w")
        self.write = self.fh.write  # later writes go straight to the file
        return self.write(text)

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _construct(args, n, out) -> int:
    t = args.t
    failed = ()  # the certificates a lenient step failed
    started = time.perf_counter()
    sink = StatsSink() if out is None else FileSink(out)
    if args.stage == "full":
        result = full_construction(t, args.d, args.k,
                                   max_cells=_max_cells(args), sink=sink)
        if isinstance(result, ConstructionFailure):
            if args.machine:
                print(f"failure_stage={result.stage.replace(' ', '-')}")
                print(f"achieved={result.achieved}")
                print(f"required={result.required}")
            else:
                print(f"structured failure at {result.stage}: "
                      f"{result.message}")
            return EXIT_VIOLATION
        rec = result
    elif args.stage == "step":
        require_cells(plan_sizes(t, args.d, args.k, n).cells,
                      _max_cells(args))
        rec = step_instance(t, args.d, args.k, n, sink=sink)
        outcome = recursive_step(rec, args.d, args.k, n,
                                 strict_certificates=not args.lenient)
        failed = [c for c in outcome.certificates if not c.passed]
    elif args.stage == "shift":
        rec, a, b, c = shift_instance(t, n, sink=sink,
                                      max_cells=_max_cells(args))
        shift(rec, a, b, c)
    else:
        mirrored = args.stage == "reflect-mirrored"
        rec, x, a, b, c = reflect_instance(t, n, args.c_size, sink=sink,
                                           mirrored=mirrored,
                                           max_cells=_max_cells(args))
        (reflect_mirrored if mirrored else reflect)(rec, x, a, b, c)

    elapsed = time.perf_counter() - started
    if out is not None:
        out.close()
        # The file must be valid and hold exactly what was recorded.
        with open(args.out) as fh:
            (window, initial), steps = iter_trace_file(fh)
            rep = verify_stream(initial, window, steps)
        recorded = (rec.flip_count, rec.step_count, rec.min_deviation)
        if not (rep.allowable and rep.all_valid) or recorded != (
                rep.flip_count, rep.step_count, rep.min_deviation):
            print("self-check failed on the written trace", file=sys.stderr)
            return EXIT_VIOLATION
    n_cells = rec.hi - rec.lo + 1
    if args.machine:
        print(f"cells={n_cells}")
        print(f"flips={rec.flip_count}")
        print(f"min_deviation={_fmt_dev(rec.min_deviation)}")
        print(f"seconds={elapsed:.3f}")
        if failed:
            print("failed_certificates="
                  + ",".join(str(c.index) for c in failed))
    else:
        print(f"cells={n_cells} flips={rec.flip_count} "
              f"min_deviation={_fmt_dev(rec.min_deviation)} "
              f"wall={elapsed:.3f}s")
        for c in failed:
            print(f"certificate ({c.index}) {c.name}: {c.detail}")
    return EXIT_OK


def cmd_search(args) -> int:
    res = search_best_deviation(args.n, mode=args.mode, force=args.force)
    sys.stdout.write(res.to_text())
    return EXIT_OK


def cmd_points(args) -> int:
    try:
        with open(args.points) as fh:
            ps = parse_points(fh.read())
    except ContractError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.action == "sequence":
        hp = circular_sequence(ps)
        sys.stdout.write(serialize_trace(hp.to_trace()))
        return EXIT_OK
    if args.action == "imbalance":
        records, mn = line_imbalances(ps)
        for rec in sorted(records, key=lambda r: r.labels):
            print(f"line {','.join(map(str, rec.labels))}: "
                  f"left={rec.left_count} right={rec.right_count} "
                  f"imbalance={rec.imbalance}")
        print(f"minimum imbalance: {mn}")
        return EXIT_OK
    if args.action == "link":
        try:
            ok, mn = link_and_minimum(ps)
        except ContractError as exc:
            print(f"cannot check: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        if ok:
            print(f"link holds: line imbalance = 2 x deviation on every "
                  f"event; min imbalance = {mn}")
            return EXIT_OK
        print("link violated")
        return EXIT_VIOLATION
    raise ContractError(f"unknown action {args.action}")


def cmd_render(args) -> int:
    if args.points:
        try:
            with open(args.input) as fh:
                ps = parse_points(fh.read())
        except ContractError as exc:
            print(f"cannot read points: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        svg = render_points_svg(ps, with_lines=args.lines)
    else:
        try:
            with open(args.input) as fh:
                tr = parse_trace(fh.read())
        except TraceParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        svg = render_trace_svg(tr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="allowseq",
        description="Allowable sequences with off-centre flips: construct, "
                    "verify, search, and the point-set bridge.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run a construction stage")
    c.add_argument("--stage", required=True,
                   choices=["shift", "reflect", "reflect-mirrored", "step",
                            "full"])
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--d", type=int, default=None)
    c.add_argument("--k", type=int, default=0)
    c.add_argument("--n", type=int, default=None,
                   help="middle block size (default: 1 for step and full, "
                        "the stage's bound otherwise)")
    c.add_argument("--c-size", type=int, default=1,
                   help="size of the carried block for reflect stages")
    c.add_argument("--plan", action="store_true",
                   help="print the recurrence table instead of materializing")
    c.add_argument("--lenient", action="store_true",
                   help="report failed certificates instead of raising")
    c.add_argument("--out", default=None, help="trace file to write")
    c.add_argument("--max-cells", type=int, default=None)
    c.add_argument("--machine", action="store_true")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a trace file")
    v.add_argument("trace")
    v.add_argument("--strict", action="store_true",
                   help="additionally require min deviation > t")
    v.add_argument("--machine", action="store_true")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="exhaustive best-deviation search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", choices=["single", "multi"], default="single")
    s.add_argument("--force", action="store_true",
                   help=f"override the n <= {SEARCH_GUARD} guard")
    s.set_defaults(func=cmd_search)

    p = sub.add_parser("points", help="point-set computations")
    p.add_argument("points")
    p.add_argument("--action", choices=["sequence", "imbalance", "link"],
                   required=True)
    p.set_defaults(func=cmd_points)

    r = sub.add_parser("render", help="render a trace or point set as SVG")
    r.add_argument("input")
    r.add_argument("--points", action="store_true",
                   help="treat the input as a point-set file")
    r.add_argument("--lines", action="store_true",
                   help="draw all determined lines (with --points)")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "command", None) == "construct":
        if args.stage in ("step", "full") and args.d is None:
            ap.error("--d is required for step and full stages")
    if args.command == "render" and args.lines and not args.points:
        ap.error("--lines needs --points")
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BrokenPipeError:
        # Output still buffered would fail again at the interpreter's
        # final flush; send it to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot use file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ConstructionBug as exc:
        print(f"construction bug: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
