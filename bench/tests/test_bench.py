"""Tests of the benchmark itself: span arithmetic, tiny runs of every
workload, repeatable trace counts, and the refusal to run without sources.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

COUNT_SUFFIXES = ("_count", "_calls", "_mb", "_leaves", "picard_iters")


def test_self_times_nested_and_overlapping():
    recorded = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),    # overlaps b
        ("b", 3.0, 6.0, 0, 1),
        ("c", 9.0, 12.0, 0, 1),   # sticks out of root
        ("a1", 2.0, 3.0, 1, 1),   # grandchild
        ("d", 20.0, 21.0, -1, 2),
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0, 1.0])


def test_self_times_partition_a_properly_nested_point():
    recorded = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("a1", 1.5, 2.0, 1, 1),
        ("a2", 2.5, 3.5, 1, 1),
        ("b", 5.0, 9.0, 0, 1),
    ]
    assert sum(spans.self_times(recorded)) == pytest.approx(10.0)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, samples = run.tail([float(v) for v in range(20, 0, -1)])
    assert (value, percentile, samples) == (10.0, 50.0, 20)
    with pytest.raises(ValueError):
        run.tail([1.0] * run.TAIL_BEYOND)


def tiny_workloads(out_dir):
    return [
        workload.PaperCall(out_dir, seeds=(1, 2), paths=2000),
        workload.ConvergenceSweep(out_dir, paths=(500,), steps=(2, 4), ks=(3,), seeds=(1,)),
        workload.NestedCheck(out_dir, seeds=(1, 2), outer=200, inner=50, paths=2000),
    ]


@pytest.mark.parametrize("index", range(3))
def test_tiny_smoke_run(tmp_path, index):
    wl = tiny_workloads(tmp_path)[index]
    wl.setup()
    runner = workload.Runner(wl)
    cold = runner.cold()
    warm = runner.warm(seed=7, seconds=0.0)
    assert runner.failed == 0
    assert cold["wall_s"] > 0.0
    assert len(warm["walls"]) == run.TAIL_BEYOND + 1
    assert all(runner.runs[spec] >= 2 for spec in wl.panel)
    assert set(warm["errors"]) == set(run.ERROR_KEYS)
    run.tail(warm["walls"])


def test_check_flags_a_changed_repeat(tmp_path):
    wl = workload.ConvergenceSweep(tmp_path, paths=(500,), steps=(2,), ks=(3,), seeds=(1,))
    wl.setup()
    runner = workload.Runner(wl)
    spec = wl.panel[0]
    runner.outputs[spec] = b"not what the program writes"
    runner.point(spec)
    assert runner.failed == 1


def traced_metrics(wl, seed):
    wl.setup()
    tracer = spans.Tracer()
    runner = workload.Runner(wl, tracer)
    loop = runner.warm_traced(seed=seed, seconds=0.0)
    assert runner.failed == 0
    report = workload.TraceReport(tracer)
    return report, loop, report.warm(loop, wl.panel[0])["metrics"]


@pytest.mark.parametrize("index", range(3))
def test_two_traced_runs_give_identical_counts(tmp_path, index):
    first = traced_metrics(tiny_workloads(tmp_path)[index], seed=3)[2]
    second = traced_metrics(tiny_workloads(tmp_path)[index], seed=4)[2]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert len(counts) == 7
    counts += ["solver.picard_converged_frac", "regress.full_rank_frac",
               "regress.max_condition"]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    report, loop, metrics = traced_metrics(tiny_workloads(tmp_path)[0], seed=3)
    layers = report.layers([pid for pid, _ in loop["traced"]])
    assert sum(layers[name] for name in spans.LAYERS + ("untraced",)) == pytest.approx(
        layers["point"], rel=1e-9)
    assert metrics["cli.main_ms"] > 0.0 and metrics["regress.project_calls"] > 0
    # Tracing leaves the package as it found it.
    assert not hasattr(workload.fb_cli.main, "__wrapped__")


def test_benchmark_json_matches_the_metrics(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    _, _, metrics = traced_metrics(tiny_workloads(tmp_path)[2], seed=3)
    cold_only = {name for name in names if name.startswith("cold.")} | {"warm.first_project_ms"}
    assert set(metrics) == names - cold_only


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-call", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
