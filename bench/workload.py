"""Workload process of the fbsde benchmark; run.py starts one per sample.

A process is one closed-loop client: it imports fbsde from the checkout's
``src/``, builds the first config, problem, grid and basis (set-up),
prints a ``ready`` line, runs its first point (cold) and, in the ``main``
role, runs warm points back to back for the given seconds.  The last line
it prints is a JSON result that run.py aggregates.

Each workload visits a fixed panel of points in passes whose orders are
drawn from the workload seed.  The panel is fixed, like the seed list of
configs/call.cfg, so the accuracy medians compare across workload seeds;
Monte Carlo noise would otherwise swamp them.  Every point is checked:
finite, byte-identical to a repeat of the same point, within the
acceptance tolerances of the closed form at M = 100 000, and (nested-check)
within 4 standard errors of the nested Monte Carlo estimate.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import struct
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fbsde  # noqa: E402
from fbsde import basis as fb_basis  # noqa: E402
from fbsde import cli as fb_cli  # noqa: E402
from fbsde import model as fb_model  # noqa: E402
from fbsde import oracle as fb_oracle  # noqa: E402
from fbsde import simulate as fb_simulate  # noqa: E402
from fbsde import solver as fb_solver  # noqa: E402

import spans  # noqa: E402
from run import ERROR_KEYS, TAIL_BEYOND  # noqa: E402

# Acceptance-criteria tolerances on |y0 - ref| and |z0 - ref| at
# M = 100 000 (tests/test_acceptance.py).  The arctan tolerance (0.02,
# 0.05) belongs to its N = 10 grid; nested-check runs N = 2, whose Euler
# bias is about 0.028, so it is judged by the nested estimate instead.
TOLERANCE_PATHS = 100_000
TOLERANCES = {"call": (0.05, 0.10), "put": (0.05, 0.10)}

# Parameters of configs/call.cfg, which are also the put defaults.
PRICING = dict(S0=100.0, K=100.0, r=0.01, sigma=0.02, T=1.0)


def black_scholes(kind: str, S0: float, K: float, r: float, sigma: float,
                  T: float) -> tuple[float, float]:
    """Closed-form (y0, z0) of the call or put, written apart from
    fbsde.oracle so the check does not trust the code it checks."""
    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    vol = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * T) / vol
    d2 = d1 - vol
    discount = math.exp(-r * T)
    if kind == "call":
        return S0 * cdf(d1) - K * discount * cdf(d2), sigma * S0 * cdf(d1)
    return K * discount * cdf(-d2) - S0 * cdf(-d1), sigma * S0 * (cdf(d1) - 1.0)


# -- workloads ---------------------------------------------------------------

class CliWorkload:
    """Points that run ``fbsde solve`` in-process through fbsde.cli.main,
    with scheme=both, and read back the CSV it writes."""

    name = ""
    problem = ""
    config: Path | None = None

    def __init__(self, out_dir: Path) -> None:
        self.out = Path(out_dir) / f"point-{os.getpid()}.csv"
        self.reference = black_scholes(self.problem, **PRICING)

    def flags(self, spec) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        mapping = {}
        if self.config is not None:
            mapping = fb_cli.parse_config_text(self.config.read_text(encoding="utf-8"))
        mapping.update({key: str(value) for key, value in self.flags(self.panel[0]).items()})
        config = fb_cli.build_config(mapping)
        problem = fb_model.make_problem(config.problem)
        grid = fb_model.make_uniform_grid(problem.horizon, config.steps[0])
        fb_basis.BasisSet(config.family, config.k[0], problem, grid)

    def run(self, spec):
        argv = ["solve"]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        for key, value in self.flags(spec).items():
            argv += [f"--{key}", str(value)]
        return fb_cli.main(argv + ["--out", str(self.out)])

    def check(self, spec, code):
        if code != 0:
            return None, {}, [f"fbsde solve exited with {code}"]
        data = self.out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        problems, errors = [], {}
        if [row["scheme"] for row in rows] != ["later", "now"]:
            problems.append(f"expected a later and a now row, got {len(rows)} rows")
        ref_y, ref_z = self.reference
        for row in rows:
            scheme, y, z = row["scheme"], float(row["y0_hat"]), float(row["z0_hat"])
            if not (math.isfinite(y) and math.isfinite(z)):
                problems.append(f"{scheme}: non-finite (y0, z0) = ({y}, {z})")
                continue
            errors[f"err_y_{scheme}"] = abs(y - ref_y)
            errors[f"err_z_{scheme}"] = abs(z - ref_z)
            if int(row["M"]) == TOLERANCE_PATHS:
                tol_y, tol_z = TOLERANCES[self.problem]
                if abs(y - ref_y) > tol_y or abs(z - ref_z) > tol_z:
                    problems.append(f"{scheme}: (y0, z0) = ({y}, {z}) outside "
                                    f"({tol_y}, {tol_z}) of ({ref_y}, {ref_z})")
        return data, errors, problems


class PaperCall(CliWorkload):
    """configs/call.cfg, one sweep point (one seed of the config) per point."""

    name = "paper-call"
    problem = "call"
    config = ROOT / "configs" / "call.cfg"

    def __init__(self, out_dir, seeds=range(101, 111), paths=None) -> None:
        super().__init__(out_dir)
        self.panel = [(seed,) for seed in seeds]
        self.paths = paths  # None keeps the config's 100 000

    def flags(self, spec) -> dict:
        flags = {"seed": spec[0]}
        if self.paths is not None:
            flags["paths"] = self.paths
        return flags


class ConvergenceSweep(CliWorkload):
    """The README's put sweep, one (paths, steps, k, seed) per point."""

    name = "convergence-sweep"
    problem = "put"

    # The largest point comes first, so it is the cold point.
    def __init__(self, out_dir, paths=(10_000, 3000, 1000), steps=(20, 10, 5),
                 ks=(6, 4), seeds=(1, 2, 3)) -> None:
        super().__init__(out_dir)
        self.panel = list(itertools.product(paths, steps, ks, seeds))

    def flags(self, spec) -> dict:
        m_paths, n_steps, k, seed = spec
        return {"problem": "put", "scheme": "both", "family": "laguerre",
                "paths": m_paths, "steps": n_steps, "k": k, "seed": seed}


class NestedCheck:
    """Acceptance criterion 7 on the arctan problem at N = 2: a nested
    Monte Carlo estimate, then both schemes on one simulated ensemble."""

    name = "nested-check"
    family, k, n_steps = "hermite", 6, 2

    def __init__(self, out_dir, seeds=range(101, 106), outer=4000, inner=2000,
                 paths=100_000) -> None:
        self.panel = [(seed, seed + 1000) for seed in seeds]  # (path, nested) seeds
        self.outer, self.inner, self.paths = outer, inner, paths

    def setup(self) -> None:
        self.entry = fb_model.ProblemCatalogEntry.with_defaults("arctan")
        problem = fb_model.make_problem(self.entry)
        grid = fb_model.make_uniform_grid(problem.horizon, self.n_steps)
        fb_basis.BasisSet(self.family, self.k, problem, grid)

    def run(self, spec):
        path_seed, nested_seed = spec
        problem = fb_model.make_problem(self.entry)
        grid = fb_model.make_uniform_grid(problem.horizon, self.n_steps)
        basis = fb_basis.BasisSet(self.family, self.k, problem, grid)
        nested = fb_oracle.nested_mc_y0(problem, grid, self.outer, self.inner, nested_seed)
        ensemble = fb_simulate.simulate_paths(problem, grid, self.paths, path_seed)
        later = fb_solver.solve_regress_later(problem, grid, basis, ensemble)
        now = fb_solver.solve_regress_now(problem, grid, basis, ensemble)
        return nested, ensemble, later, now

    def check(self, spec, raw):
        nested, ensemble, later, now = raw
        values = (nested.y0, nested.standard_error, later.y0, later.z0, now.y0, now.z0)
        if not all(math.isfinite(v) for v in values):
            return None, {}, [f"non-finite values {values}"]
        # Standard error of the later estimate: the spread of the exact
        # Y(t_1) = w*arctan(w) - log(1 + w^2)/2 over the simulated states.
        w = np.asarray(ensemble.states[:, 1])
        y1 = w * np.arctan(w) - 0.5 * np.log1p(w * w)
        later_se = float(np.std(y1, ddof=1)) / math.sqrt(w.size)
        combined = math.hypot(nested.standard_error, later_se)
        problems = []
        if abs(later.y0 - nested.y0) > 4.0 * combined:
            problems.append(f"|later {later.y0} - nested {nested.y0}| > 4 x {combined}")
        errors = {"err_y_later": abs(later.y0), "err_z_later": abs(later.z0),
                  "err_y_now": abs(now.y0), "err_z_now": abs(now.z0)}
        return struct.pack("<6d", *values), errors, problems


WORKLOADS = {cls.name: cls for cls in (PaperCall, ConvergenceSweep, NestedCheck)}


# -- the closed loop -----------------------------------------------------------

def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Runner:
    """Runs and checks points one after another, keeping every output."""

    def __init__(self, workload, tracer: spans.Tracer | None = None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.outputs: dict = {}
        self.errors: dict = {}
        self.runs: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    def point(self, spec, traced: bool = False):
        """Run and check one point.  Returns (point id, wall seconds, minor
        page faults), with wall None when the point raised."""
        self.attempted += 1
        pid, wall, faults = self.attempted, None, 0
        output, errors = None, {}
        try:
            faults = _minor_faults()
            if traced:
                tracer = self.tracer
                tracer.point = pid
                try:
                    tracer.install()
                    with tracer.span(spans.ROOT_SPAN):
                        start = perf_counter()
                        raw = self.workload.run(spec)
                        wall = perf_counter() - start
                finally:
                    tracer.uninstall()
            else:
                start = perf_counter()
                raw = self.workload.run(spec)
                wall = perf_counter() - start
            faults = _minor_faults() - faults
            output, errors, problems = self.workload.check(spec, raw)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        self.runs[spec] += 1
        if output is not None and self.outputs.setdefault(spec, output) != output:
            problems.append("output differs from an earlier run of the same point")
        if problems:
            self.failed += 1
            print(f"{self.workload.name} point {spec} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        else:
            self.errors.setdefault(spec, errors)
        return pid, wall, faults

    def cold(self) -> dict:
        spec = self.workload.panel[0]
        modules = len(sys.modules)
        pid, wall, faults = self.point(spec, traced=self.tracer is not None)
        return {"id": pid, "wall_s": wall, "page_faults": faults,
                "modules_loaded": len(sys.modules) - modules,
                "digest": hashlib.sha256(self.outputs.get(spec, b"")).hexdigest()}

    def _schedule(self, seed: int):
        """Endless passes over the panel, each in an order drawn from the
        seed, so no one order's allocator or cache history sets a run."""
        rng = random.Random(seed)
        panel = self.workload.panel
        while True:
            yield from rng.sample(panel, len(panel))

    def warm(self, seed: int, seconds: float) -> dict:
        """Untraced closed loop: at least one pass over the panel and
        TAIL_BEYOND + 1 points, then until `seconds` have passed.  Points
        that ran once get an untimed repeat afterwards."""
        panel = self.workload.panel
        min_points = max(len(panel), TAIL_BEYOND + 1)
        walls, per_spec = [], {}
        schedule = self._schedule(seed)
        start = perf_counter()
        count = 0
        while count < min_points or perf_counter() - start < seconds:
            spec = next(schedule)
            _, wall, _ = self.point(spec)
            count += 1
            if wall is not None:
                walls.append(wall)
                per_spec.setdefault(spec, []).append(wall)
        for spec in panel:
            if self.runs[spec] < 2:
                self.point(spec)
        # Panel points per second: whatever pass the window ended in, each
        # panel point weighs the same, at its median wall.
        rate = len(per_spec) / sum(statistics.median(v) for v in per_spec.values())
        return {"points_per_s": rate, "walls": walls, "errors": self.error_medians()}

    def warm_traced(self, seed: int, seconds: float) -> dict:
        """Each point runs twice back to back, traced and untraced, the
        traced one first on every other pair."""
        schedule = self._schedule(seed)
        pairs, traced_ids = [], []
        start = perf_counter()
        while len(pairs) < len(self.workload.panel) or perf_counter() - start < seconds:
            spec = next(schedule)
            runs = {}
            for traced in ((True, False) if len(pairs) % 2 == 0 else (False, True)):
                runs[traced] = self.point(spec, traced)
            traced_ids.append((runs[True][0], spec))
            pairs.append((runs[True][1], runs[False][1], runs[False][2]))
        return {"traced": traced_ids, "cycle": len(self.workload.panel), "pairs": pairs}

    def error_medians(self) -> dict:
        """Median of each error over the distinct points that passed."""
        out = {}
        for key in ERROR_KEYS:
            values = [errs[key] for errs in self.errors.values() if key in errs]
            if values:
                out[key] = statistics.median(values)
        return out


# -- trace reports -------------------------------------------------------------

# Spans with child spans, whose self time differs from their inclusive time.
PARENT_SPANS = ("cli.main", "cli.build_config", "cli.run", "simulate.paths",
                "simulate.euler", "basis.cond_exp", "basis.cond_exp_grad",
                "solver.later", "solver.now", "oracle.nested")


class TraceReport:
    """Per-layer numbers from the spans and counts of one tracer."""

    def __init__(self, tracer: spans.Tracer) -> None:
        self.tracer = tracer
        self.selfs = spans.self_times(tracer.spans)

    def layers(self, ids) -> dict:
        """Mean self seconds per point of each layer, of the untraced
        remainder, and the mean traced point wall."""
        inclusive, own = spans.span_totals(self.tracer.spans, self.selfs, ids)
        n = len(ids)
        out = {layer: 0.0 for layer in spans.LAYERS}
        for name, seconds in own.items():
            if name != spans.ROOT_SPAN:
                out[spans.layer_of(name)] += seconds / n
        out["untraced"] = own[spans.ROOT_SPAN] / n
        out["point"] = inclusive[spans.ROOT_SPAN] / n
        # Self times partition each point's wall time.
        if abs(sum(own.values()) - inclusive[spans.ROOT_SPAN]) > 1e-6:
            raise RuntimeError("layer self times do not add up to the traced wall time")
        return out

    def first_project(self, ids) -> float:
        """Mean duration of the first projection of each point."""
        ids = set(ids)
        firsts = {}
        for name, start, end, parent, point in self.tracer.spans:
            if name == "regress.project" and point in ids and point not in firsts:
                firsts[point] = end - start
        return statistics.fmean(firsts.values()) if firsts else 0.0

    def metrics(self, ids, cycle_ids) -> dict:
        """Per-layer metrics: times are means over the points `ids`,
        counts are per point over `cycle_ids`, one pass over the panel."""
        n = len(ids)
        inclusive, own = spans.span_totals(self.tracer.spans, self.selfs, ids)
        out = {}
        for name in spans.SPAN_NAMES:
            out[f"{name}_ms"] = inclusive[name] / n * 1e3
        for name in PARENT_SPANS:
            out[f"{name}_self_ms"] = own[name] / n * 1e3
        layers = self.layers(ids)
        for layer in spans.LAYERS:
            out[f"{layer}.total_self_ms"] = layers[layer] * 1e3
        out["trace.untraced_ms"] = layers["untraced"] * 1e3
        out["trace.point_ms"] = layers["point"] * 1e3

        counts = Counter()
        max_condition = 0.0
        for pid in cycle_ids:
            counts.update(self.tracer.counts.get(pid, {}))
            max_condition = max(max_condition,
                                self.tracer.peaks.get(pid, {}).get("regress.max_condition", 0.0))
        c = len(cycle_ids)
        out["simulate.normals_count"] = counts["simulate.normals_count"] / c
        out["model.driver_calls"] = counts["model.driver_calls"] / c
        out["regress.project_calls"] = counts["regress.project_calls"] / c
        out["basis.values_mb"] = counts["basis.values_bytes"] / c / 2**20
        out["regress.design_mb"] = counts["regress.design_bytes"] / c / 2**20
        out["oracle.nested_leaves"] = counts["oracle.nested_leaves"] / c
        out["solver.picard_iters"] = counts["solver.picard_iters"] / c
        out["solver.picard_converged_frac"] = (
            counts["solver.picard_converged"] / max(1, counts["solver.picard_steps"]))
        out["regress.full_rank_frac"] = (
            counts["regress.full_rank"] / max(1, counts["regress.project_calls"]))
        out["regress.max_condition"] = max_condition
        return out

    def warm(self, loop: dict, cold_spec) -> dict:
        """Reduce a `Runner.warm_traced` loop to its per-layer metrics and
        the warm reference for the cold point's breakdown."""
        ids = [pid for pid, _ in loop["traced"]]
        same = [pid for pid, spec in loop["traced"] if spec == cold_spec]
        metrics = self.metrics(ids, ids[:loop["cycle"]])
        both = [(t, u) for t, u, _ in loop["pairs"] if t is not None and u is not None]
        metrics["trace.overhead_frac"] = (
            sum(t for t, _ in both) / sum(u for _, u in both) - 1.0)
        metrics["warm.page_faults"] = statistics.median(f for _, _, f in loop["pairs"])
        return {"metrics": metrics, "same_spec_layers": self.layers(same),
                "same_spec_first_project_s": self.first_project(same)}


# -- process entry ---------------------------------------------------------------

def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def library_facts() -> dict:
    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config), "scipy_blas": blas(scipy.show_config),
            "fbsde_file": str(Path(fbsde.__file__).resolve().relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "fresh", "setup"), default="main")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if not Path(fbsde.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fbsde imported from {fbsde.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.out_dir)
    workload.setup()
    emit({"event": "ready"})
    if args.role == "setup":
        emit({"event": "result", "attempted": 0, "failed": 0})
        return 0

    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    result = {"event": "result", "cold": runner.cold()}
    if args.role == "main":
        if tracer is None:
            result["warm"] = runner.warm(args.seed, args.seconds)
        else:
            result["warm"] = runner.warm_traced(args.seed, args.seconds)
        result["facts"] = library_facts()
    if tracer is not None:
        report = TraceReport(tracer)
        cold = result["cold"]
        cold["layers"] = report.layers([cold["id"]])
        cold["first_project_s"] = report.first_project([cold["id"]])
        if args.role == "main":
            result["trace"] = report.warm(result.pop("warm"), workload.panel[0])
        tracer.write_csv(args.out_dir / f"spans-{args.workload}-{args.role}-{os.getpid()}.csv")
    result["attempted"], result["failed"] = runner.attempted, runner.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(workload, CliWorkload):
        workload.out.unlink(missing_ok=True)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
