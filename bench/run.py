"""Run one workload of the fbsde benchmark and print its metrics.

    python3 bench/run.py --workload paper-call --seed 1 --seconds 20 --trace 0

Starts SETUP_PROCESSES + FRESH_PROCESSES workload processes
(bench/workload.py) one after another.  Each is a fresh interpreter whose
set-up is timed; the FRESH_PROCESSES also time their first (cold) point,
and one of them, the main process, then runs the warm closed loop.  With --trace 0
the result holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last stdout line is the JSON result; the
line before it holds the machine facts, the seed and the tail percentile.
Exits 2 without a result when the checkout has no src/fbsde, and 1 when
a workload process fails or overruns the time budget.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from spans import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("paper-call", "convergence-sweep", "nested-check")

# Fresh interpreters per run.  setup_s is the median set-up time of all
# of them, cold_point_s the median first point of those that run one.
SETUP_PROCESSES = 4
FRESH_PROCESSES = 7

# One run must end within 180 s; leave room for start-up and reporting.
BUDGET_S = 170.0

# One BLAS thread and one path-generation worker: a single closed-loop
# client, steadier on a small shared machine than racing for both cores.
PROCESS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FBSDE_WORKERS")}

# Points with at least this many samples beyond the tail percentile.
TAIL_BEYOND = 10

ERROR_KEYS = ("err_y_later", "err_z_later", "err_y_now", "err_z_now")


class BenchmarkError(RuntimeError):
    """A workload process failed or overran the budget."""


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still
    has TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def cache_sizes() -> dict:
    """L2/L3 sizes in bytes from the C library's sysconf (0 if unknown)."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    return {"l2_bytes": max(0, libc.sysconf(191)), "l3_bytes": max(0, libc.sysconf(194))}


def machine_facts(seed: int) -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "workload_seed": seed, "env": PROCESS_ENV}
    try:
        facts.update(cache_sizes())
    except (OSError, AttributeError):
        facts.update(l2_bytes=0, l3_bytes=0)
    return facts


def run_process(cmd: list, deadline: float) -> dict:
    """Run one workload process; its result plus the set-up seconds from
    spawn to its ``ready`` line."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=dict(os.environ, **PROCESS_ENV))
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith('{"event": "ready"}'):
        raise BenchmarkError(f"workload process exited with {proc.returncode}: {cmd}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def end_to_end(processes: list, setups: list) -> tuple[dict, dict]:
    main = processes[-1]
    warm = main["warm"]
    value, percentile, samples = tail(warm["walls"])
    metrics = {
        "points_per_s": warm["points_per_s"],
        "point_ms_p50": statistics.median(warm["walls"]) * 1e3,
        "point_ms_tail": value * 1e3,
        "setup_s": statistics.median(setups + [p["setup_s"] for p in processes]),
        "cold_point_s": statistics.median(p["cold"]["wall_s"] for p in processes),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics.update({key: warm["errors"][key] for key in ERROR_KEYS})
    return metrics, {"tail_percentile": percentile, "tail_samples": samples,
                     "tail_beyond": TAIL_BEYOND,
                     "setup_samples_s": setups + [p["setup_s"] for p in processes],
                     "cold_samples_s": [p["cold"]["wall_s"] for p in processes]}


def per_layer(processes: list) -> tuple[dict, dict]:
    """The traced main run's metrics plus the cold point's breakdown, taken
    from the fresh process with the median cold point so its layer gaps
    add up to the total gap."""
    main = processes[-1]["trace"]
    metrics = dict(main["metrics"])
    ranked = sorted(processes, key=lambda p: p["cold"]["layers"]["point"])
    cold = ranked[len(ranked) // 2]["cold"]
    warm = main["same_spec_layers"]
    metrics["cold.point_ms"] = cold["layers"]["point"] * 1e3
    metrics["cold.gap_ms"] = (cold["layers"]["point"] - warm["point"]) * 1e3
    for layer in LAYERS + ("untraced",):
        metrics[f"cold.{layer}_gap_ms"] = (cold["layers"][layer] - warm[layer]) * 1e3
    metrics["cold.first_project_ms"] = cold["first_project_s"] * 1e3
    metrics["warm.first_project_ms"] = main["same_spec_first_project_s"] * 1e3
    metrics["cold.page_faults"] = cold["page_faults"]
    metrics["cold.modules_loaded"] = cold["modules_loaded"]
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fbsde" / "__init__.py").is_file():
        print(f"no fbsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    for old in OUT_DIR.glob(f"spans-{args.workload}-*.csv"):
        old.unlink()

    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        roles = (["setup"] * (0 if args.trace else SETUP_PROCESSES)
                 + ["fresh"] * (FRESH_PROCESSES - 1))
        # Half the samples run before the main process and half after, so
        # one slow spell of the machine does not fall on all of them.
        done = {"setup": [], "fresh": []}
        for role in roles[::2]:
            done[role].append(run_process(cmd + ["--role", role], deadline))
        main_result = run_process(cmd + ["--role", "main"], deadline)
        for role in roles[1::2]:
            done[role].append(run_process(cmd + ["--role", role], deadline))
        setups = [p["setup_s"] for p in done["setup"]]
        processes = done["fresh"] + [main_result]
        if args.trace:
            metrics, extra = per_layer(processes)
        else:
            metrics, extra = end_to_end(processes, setups)
        if set(metrics) != {m["name"] for m in declared}:
            raise BenchmarkError("measured metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    except (BenchmarkError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    # The first point is the same in every process, so its output must be too.
    digest = processes[-1]["cold"]["digest"]
    mismatched = sum(p["cold"]["digest"] != digest for p in processes)
    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes) + mismatched

    facts = machine_facts(args.seed)
    facts.update(processes[-1]["facts"], workload=args.workload, trace=args.trace,
                 setup_processes=len(done["setup"]), fresh_processes=FRESH_PROCESSES,
                 **extra)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
