"""Benchmark of allowseq: one command for every workload and metric.

    python3 perfbench/run.py --workload step-file --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from
`src/`.  One process, one thread.  The run sets up its workload several
times (import plus input building) and reports the median, then repeats
passes over the workload's operations until the next pass would end
after `--seconds` (at least one, or two for step-memory).  Every time is work time rescaled to a
reference host speed, which a fixed kernel samples along the way (see
tracing.Speedometer), and a time is the median over the run's samples of
the same work (see `estimate`); traced and untraced passes are timed
alike.  With `--trace 0` every pass is untraced and the result carries
the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate, the result carries the per-layer metrics (the median over
traced passes), and the difference of the two wall times is the tracing
overhead.  Every operation's output is checked; the last line of
standard output is one JSON object, and the exit code is 1 if any output
check failed.  Each run also writes a result file under
perfbench/out/results with the machine, the source and the run's place
in the sequence of runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import PHASES, Pass, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21

# (name, unit, better, bound): reported by every workload with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("construct_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("flips_per_s", "1/s", "higher", 0.25),
    ("trace_bytes_per_flip", "B/flip", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, the end-to-end metric it should move and where):
# reported by every workload with --trace 1, as 0 where the workload
# does not reach the layer.
STEPS = "(step-*)"
PER_LAYER = [
    ("planner.plan_sizes_s", "s", "lower", f"setup_s {STEPS}"),
    ("construction.stats_s", "s", "lower", f"construct_s {STEPS}"),
    *[(f"construction.phase.{ph}.{what}", unit, "lower", f"construct_s {STEPS}")
      for ph in PHASES for what, unit in (("flips", "count"), ("self_s", "s"))],
    ("construction.cert_failed", "count", "lower", "error_rate (step-memory)"),
    ("engine.flips", "count", "lower", "flips_per_s"),
    ("engine.steps", "count", "lower", "flips_per_s"),
    ("engine.batched_flip_share", "ratio", "higher",
     "none; where block-swap steps can act"),
    ("engine.sink_s", "s", "lower",
     f"construct_s {STEPS}, peak_rss_mb (step-memory)"),
    ("engine.sink_calls", "count", "lower",
     f"construct_s {STEPS}, peak_rss_mb (step-memory)"),
    ("engine.to_trace_s", "s", "lower",
     "sequence_s (points), roundtrip_s (step-memory)"),
    ("engine.verify_self_s", "s", "lower", "verify_s (step-*, points)"),
    ("engine.verify_flips_per_s", "1/s", "higher", "verify_s (step-*, points)"),
    ("cli.iter_trace_file_s", "s", "lower", "verify_s (step-file)"),
    ("cli.serialize_trace_s", "s", "lower",
     "roundtrip_s (step-memory), sequence_s (points)"),
    ("cli.parse_trace_s", "s", "lower", "roundtrip_s (step-memory)"),
    ("cli.trace_bytes", "B", "lower", "trace_bytes_per_flip"),
    ("geom.circular_sequence_s", "s", "lower", "sequence_s, link_s (points)"),
    ("geom.events", "count", "lower", "sequence_s, link_s (points)"),
    ("geom.multi_flip_event_share.random", "ratio", "lower",
     "none; where the sweep meets collinear groups"),
    ("geom.multi_flip_event_share.lattice", "ratio", "lower",
     "none; where the sweep meets collinear groups"),
    ("geom.line_imbalances_s", "s", "lower", "imbalance_s (points)"),
    ("geom.lines", "count", "lower", "imbalance_s (points)"),
    ("geom.in_general_position_s", "s", "lower", "link_s (points)"),
    ("geom.deviation_imbalance_link_s", "s", "lower", "link_s (points)"),
    ("oracle.search_s.8.single", "s", "lower", "search_s (search)"),
    ("oracle.search_s.8.multi", "s", "lower", "search_s (search)"),
    ("oracle.search_s.9.single", "s", "lower", "search_s (search)"),
    ("oracle.states_explored", "count", "lower", "search_s (search)"),
    ("perfbench.trace_overhead_s", "s", "lower",
     "none; traced wall_s minus untraced wall_s"),
]

# Counts that must repeat exactly across passes and runs of one source.
EXACT = ("engine.flips", "engine.steps", "cli.trace_bytes",
         "engine.batched_flip_share", "oracle.states_explored", "geom.events",
         *[f"construction.phase.{ph}.flips" for ph in PHASES])


def _terminate(signum, frame):
    # Unwind through the `with` blocks so temporary files are removed.
    sys.exit(128 + signum)


def set_up(name, seed, tmpdir):
    """Import the package afresh and build the workload's inputs; the
    seconds it took, at the reference speed."""
    for mod in list(sys.modules):
        if mod in ("allowseq", "workloads") or mod.startswith("allowseq."):
            del sys.modules[mod]
    with Speedometer() as speed:
        started = speed.now()
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[name](seed, tmpdir)
        ended = speed.now()
    seconds = speed.scaled(started, ended)
    factor = seconds / (ended - started)
    workload.layers = {k: v * factor for k, v in workload.layers.items()}
    return seconds, workloads, workload


def one_pass(workload, traced):
    p = Pass(traced=traced)
    with p.speed:
        started = time.perf_counter()
        try:
            workload.run(p)
        except Exception:
            traceback.print_exc()
            p.raised(p.error_at or "pass", traceback.format_exc(limit=1).strip())
        p.wall = time.perf_counter() - started
        if traced:
            try:
                workload.extras(p)
            except Exception:
                traceback.print_exc()
                p.raised(p.error_at or "extras",
                         traceback.format_exc(limit=1).strip())
    p.finish()
    p.release()
    return p


def measure(workload, seconds, traced):
    """Untraced passes (alternating with traced ones when `traced`) until
    the next round would end after `seconds`, and at least the workload's
    `least_rounds`."""
    passes = []
    started = time.perf_counter()
    rounds = 0
    while True:
        passes.append(one_pass(workload, False))
        if traced:
            passes.append(one_pass(workload, True))
        rounds += 1
        elapsed = time.perf_counter() - started
        if (rounds >= getattr(workload, "least_rounds", 1)
                and elapsed * (rounds + 1) / rounds > seconds):
            return passes


def _ratio(num, den):
    return num / den if den else 0.0


def roles(passes):
    return sorted({s.name for p in passes for s in p.spans if s.parent is None})


def estimate(passes, role):
    """Seconds, at the reference speed, of one span of `role`: the median
    over every span of the role in the passes, each a sample of the same
    work; 0 when no pass has the role."""
    samples = [s.duration for p in passes for s in p.spans
               if s.parent is None and s.name == role]
    return statistics.median(samples) if samples else 0.0


def wall(passes):
    return sum(estimate(passes, role) for role in roles(passes))


def end_to_end(passes, setup_s):
    construct = estimate(passes, "construct")
    verify = estimate(passes, "verify")
    counts = passes[0].counts
    return {
        "setup_s": setup_s,
        "wall_s": wall(passes),
        "construct_s": construct,
        "verify_s": verify,
        "flips_per_s": _ratio(counts["engine.flips"], construct + verify),
        "trace_bytes_per_flip": _ratio(counts["cli.trace_bytes"],
                                       counts["engine.flips"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layers_of(p, setup_layers):
    """Per-layer values of one traced pass."""
    c = p.counts
    # Times taken inside the package's callbacks are work seconds; the
    # pass's mean speed brings them to the reference speed.
    source_s = {k: v * p.factor for k, v in p.source_s.items()}
    verify_self = p.total("engine.verify") - sum(source_s.values())
    out = {
        "planner.plan_sizes_s": setup_layers.get("planner.plan_sizes_s", 0.0),
        "construction.stats_s": p.total("construction.stats"),
        "construction.cert_failed": c["construction.cert_failed"],
        "engine.flips": c["engine.flips"],
        "engine.steps": c["engine.steps"],
        "engine.batched_flip_share": _ratio(p.batched_flips, p.recorder_flips),
        "engine.sink_s": p.sink_s * p.factor,
        "engine.sink_calls": p.sink_calls,
        "engine.to_trace_s": p.total("engine.to_trace"),
        "engine.verify_self_s": verify_self,
        "engine.verify_flips_per_s": _ratio(c["engine.flips"], verify_self),
        "cli.iter_trace_file_s": (p.total("cli.iter_trace_file")
                                  + source_s.get("cli.iter_trace_file", 0.0)),
        "cli.serialize_trace_s": p.total("cli.serialize_trace"),
        "cli.parse_trace_s": p.total("cli.parse_trace"),
        "cli.trace_bytes": c["cli.trace_bytes"],
        "geom.circular_sequence_s": p.total("geom.circular_sequence"),
        "geom.events": c["geom.events"],
        "geom.line_imbalances_s": p.total("geom.line_imbalances"),
        "geom.lines": c["geom.lines"],
        "geom.in_general_position_s": p.total("geom.in_general_position"),
        "geom.deviation_imbalance_link_s": p.total("geom.deviation_imbalance_link"),
        "oracle.states_explored": c["oracle.states_explored"],
    }
    for name in ("random", "lattice"):
        out[f"geom.multi_flip_event_share.{name}"] = _ratio(
            c[f"geom.multi_flip_events.{name}"], c[f"geom.events.{name}"])
    for n, mode in ((8, "single"), (8, "multi"), (9, "single")):
        out[f"oracle.search_s.{n}.{mode}"] = p.total(f"oracle.search.{n}.{mode}")
    for ph in PHASES:
        spans = [s for s in p.spans if s.name == "phase." + ph]
        out[f"construction.phase.{ph}.flips"] = sum(s.self_flips for s in spans)
        out[f"construction.phase.{ph}.self_s"] = sum(s.self_time for s in spans)
    return out


def per_layer(passes, setup_layers):
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = [layers_of(p, setup_layers) for p in traced]
    out = {name: statistics.median(v[name] for v in values)
           for name, *_ in PER_LAYER if name != "perfbench.trace_overhead_s"}
    out["perfbench.trace_overhead_s"] = wall(traced) - wall(plain)
    return out


def exact_counts(p, setup_layers):
    counts = {k: v for k, v in p.counts.items() if k in EXACT}
    if p.traced:
        layers = layers_of(p, setup_layers)
        counts.update({k: layers[k] for k in EXACT if k in layers})
    return counts


def source_digest():
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None, None
    if head.returncode or status.returncode:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def earlier_results(results_dir):
    out = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            out.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            print(f"skipping unreadable result file {path}", file=sys.stderr)
    return out


def count_mismatches(counts_by_pass, meta, earlier, seeded):
    """Exact counts that differ between passes of this run, or from an
    earlier run of the same source, workload and trace mode (and seed,
    when the workload draws its inputs from it)."""
    problems = []
    reference = counts_by_pass[0] if counts_by_pass else {}
    for counts in counts_by_pass[1:]:
        for k in reference.keys() & counts.keys():
            if counts[k] != reference[k]:
                problems.append(f"{k} differs between passes: "
                                f"{reference[k]} vs {counts[k]}")
    for res in earlier:
        m = res.get("meta", {})
        if (m.get("source_digest"), m.get("workload"), m.get("trace")) != \
                (meta["source_digest"], meta["workload"], meta["trace"]):
            continue
        if seeded and m.get("seed") != meta["seed"]:
            continue
        prior = res.get("counts", {})
        for k in reference.keys() & prior.keys():
            if prior[k] != reference[k]:
                problems.append(f"{k} is {reference[k]}, run {m.get('run_order')} "
                                f"had {prior[k]}")
    return problems


def run_meta(args, earlier):
    """Where and when this run happened: machine, source, and its place
    among the runs already recorded in the same result directory."""
    git_commit, git_dirty = git_state()
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version,
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_commit": git_commit,
        "git_dirty": git_dirty, "source_digest": source_digest(),
        "run_order": len(earlier) + 1,
        "run_index": 1 + sum(1 for r in earlier
                             if (r.get("meta", {}).get("workload"),
                                 r.get("meta", {}).get("trace"))
                             == (args.workload, args.trace)),
        "finished_at": time.time(),
    }


def print_result(result, units, traced):
    """Problems and metrics by name and unit, then the JSON line."""
    for problem in result["problems"]:
        kind = "FAILED CHECK" if problem["output_check"] else "failed certificate"
        print(f"{kind}: {problem['op']}: {problem['message']}")
    targets = {name: target for name, _, _, target in PER_LAYER} if traced else {}
    for name, value in result["metrics"].items():
        moves = f"  (target: {targets[name]})" if name in targets else ""
        print(f"{name} {value} {units[name]}{moves}")
    for name, value in result["extras"].items():
        print(f"{name} {value} {'ratio' if name == 'error_rate' else 's'}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in result["metrics"].items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["step-file", "step-memory", "points", "search"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not (SRC / "allowseq" / "__init__.py").is_file():
        print(f"no allowseq sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workloads, workload = set_up(args.workload, args.seed,
                                                  Path(tmp))
            setups.append((seconds, workload.layers))
        setup_layers = {k: statistics.median(layers[k] for _, layers in setups)
                        for k in setups[-1][1]}
        passes = measure(workload, args.seconds, traced)
    setup_s = statistics.median(s for s, _ in setups)

    plain = [p for p in passes if not p.traced]
    if traced:
        metrics = per_layer(passes, setup_layers)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics = end_to_end(plain, setup_s)
        units = {name: unit for name, unit, *_ in END_TO_END}
    extras = {name: estimate(plain, role)
              for name, role in workload.extra_roles.items()}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extras["error_rate"] = _ratio(failed, attempted)

    earlier = earlier_results(results_dir)
    meta = run_meta(args, earlier)
    counts_by_pass = [exact_counts(p, setup_layers) for p in passes
                      if p.traced == traced]
    problems = [(op, msg, check) for p in passes for op, msg, check in p.problems]
    mismatches = count_mismatches(counts_by_pass, meta, earlier,
                                  args.workload in workloads.SEEDED)
    problems += [("exact counts", m, True) for m in mismatches]
    correct = all(p.outputs_correct for p in passes) and not mismatches

    result = {
        "meta": meta, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics, "extras": extras,
        "counts": counts_by_pass[0] if counts_by_pass else {},
        "passes": [{"traced": p.traced, "wall": p.wall,
                    "kernel_s": statistics.median(p.speed.costs),
                    "spans": {name: [s.duration for s in p.spans
                                     if s.parent is None and s.name == name]
                              for name in roles([p])}}
                   for p in passes],
        "problems": [{"op": op, "message": msg, "output_check": check}
                     for op, msg, check in problems],
    }
    name = (f"{meta['run_order']:04d}-{args.workload}-trace{args.trace}"
            f"-seed{args.seed}.json")
    (results_dir / name).write_text(json.dumps(result, indent=1, default=str))

    print_result(result, units, traced)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
