"""Tests of the benchmark itself: its declaration, and that its output
checks turn a wrong result into a failed operation and a non-zero exit.

    python3 -m pytest perfbench

The faults are injected into the freshly imported package that each
set-up returns, on small parameter points, so the real check path runs.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """run.main with results under tmp_path and a hook on each set-up."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    hooks = []
    real = run.set_up

    def set_up(name, seed, tmpdir):
        seconds, module, workload = real(name, seed, tmpdir)
        for hook in hooks:
            hook(module, workload)
        return seconds, module, workload

    monkeypatch.setattr(run, "set_up", set_up)

    def call(workload, *hook, trace=0):
        hooks[:] = hook
        return run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])

    return call


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def small_step(module, workload):
    workload.params = (1, 81, 0, 1)


def small_search(module, workload):
    workload.cases = ((5, "single", False), (5, "multi", False))


def test_declaration_matches_the_tables():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m[:3]) for m in run.PER_LAYER]
    import workloads
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_clean_small_runs_pass(bench, capsys, tmp_path):
    assert bench("step-file", small_step) == 0
    res = last_json(capsys)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m[0] for m in run.END_TO_END}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert bench("search", small_search, trace=1) == 0
    res = last_json(capsys)
    assert set(res["metrics"]) == {m[0] for m in run.PER_LAYER}
    assert not list(tmp_path.glob("tmp-*"))


def test_corrupted_f_line_fails(bench, capsys, tmp_path):
    def corrupt(module, workload):
        small_step(module, workload)

        class Corrupting(module.FileSink):
            done = False

            def on_transpositions(self, pairs):
                pairs = iter(pairs)
                if not self.done:
                    next(pairs)
                    # a transposition whose midpoint lies in the window
                    self.fh.write("F 0 1\n")
                    self.done = True
                super().on_transpositions(pairs)

        module.FileSink = Corrupting

    assert bench("step-file", corrupt) == 1
    res = last_json(capsys)
    assert not res["correct"] and res["failed"] >= 1
    assert not list(tmp_path.glob("tmp-*"))


def test_wrong_search_optimum_fails(bench, capsys):
    def wrong(module, workload):
        small_search(module, workload)
        real = module.search_best_deviation

        def search(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(
                res, best_min_deviation=res.best_min_deviation + 1)

        module.search_best_deviation = search

    assert bench("search", wrong) == 1
    res = last_json(capsys)
    assert not res["correct"] and res["failed"] == res["attempted"] > 0


def test_failing_certificate_counts_but_outputs_stay_correct(bench, capsys):
    def cert7(module, workload):
        workload.params = (0, 9, 1, 1)

    assert bench("step-memory", cert7) == 0
    res = last_json(capsys)
    # one of the three operations of every pass: the construction
    assert res["correct"] and 3 * res["failed"] == res["attempted"] > 0


def test_exception_counts_and_removes_temporary_files(bench, capsys, tmp_path):
    def explode(module, workload):
        small_step(module, workload)

        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        module.verify_stream = fail

    assert bench("step-file", explode) == 1
    res = last_json(capsys)
    # every pass: a clean construction, then the verify that raised
    assert not res["correct"] and 2 * res["failed"] == res["attempted"] > 0
    assert not list(tmp_path.glob("tmp-*"))


def test_traced_run_splits_construction_into_phases(bench, capsys):
    assert bench("step-file", small_step, trace=1) == 0
    m = {k: v["value"] for k, v in last_json(capsys)["metrics"].items()}
    phases = sum(m[f"construction.phase.{ph}.flips"] for ph in run.PHASES)
    assert phases == m["engine.flips"] > 0
    assert 0 < m["engine.batched_flip_share"] <= 1
    assert m["construction.phase.reflect.self_s"] > 0


def test_exact_counts_are_compared_across_runs():
    meta = {"source_digest": "x", "workload": "search", "trace": 0, "seed": 1}
    earlier = [{"meta": {**meta, "seed": 2, "run_order": 1},
                "counts": {"oracle.states_explored": 5}}]
    assert run.count_mismatches([{"oracle.states_explored": 5}], meta,
                                earlier, seeded=False) == []
    assert run.count_mismatches([{"oracle.states_explored": 6}], meta,
                                earlier, seeded=False)
    assert run.count_mismatches([{"oracle.states_explored": 6}], meta,
                                earlier, seeded=True) == []
    assert run.count_mismatches([{"engine.flips": 1}, {"engine.flips": 2}],
                                meta, [], seeded=False)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_times_are_rescaled_to_the_reference_speed():
    from tracing import CALIBRATION_REF_S as ref, Pass, Speedometer, Span
    speed = Speedometer()
    # a lone slow sample is dropped
    speed.times, speed.costs = [0.0, 1.0, 2.0, 3.0, 4.0], [ref, ref, 9 * ref, ref, ref]
    assert speed.scaled(-1.0, 5.0) == pytest.approx(6.0)
    # between samples the kernel costs their mean; outside, the nearest's
    speed = Speedometer()
    speed.times, speed.costs = [0.0, 1.0, 2.0, 3.0], [ref, ref, 3 * ref, 3 * ref]
    assert speed.scaled(0.0, 3.0) == pytest.approx(1 + 0.5 + 1 / 3)
    assert speed.scaled(1.5, 2.0) == pytest.approx(0.25)
    assert speed.scaled(3.0, 6.0) == pytest.approx(1.0)
    passes = []
    for seconds in (3.0, 1.0, 2.0):
        p = Pass(traced=False)
        p.spans.append(Span("verify", 0.0, end=seconds, duration=seconds))
        passes.append(p)
    assert run.estimate(passes, "verify") == 2.0
    assert run.estimate(passes, "construct") == 0.0


def test_speed_samples_stay_off_the_work_clock():
    from tracing import Speedometer
    with Speedometer() as speed:
        real, work = time.perf_counter(), speed.now()
        while time.perf_counter() - real < 0.35:
            pass
        real, work = time.perf_counter() - real, speed.now() - work
    alarms = speed.costs[1:-1]  # neither the entry's sample nor the exit's
    assert len(alarms) >= 2
    assert real - work == pytest.approx(sum(alarms), abs=1e-3 * len(alarms))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
