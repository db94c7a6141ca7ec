"""Command-line front end: run configurations, experiment orchestration,
and CSV reports.

Config format: flat ``key=value`` lines ('#' starts a comment).  Keys:
problem, scheme, paths, steps, k, family, seed, ridge, out (each also a
--<key> flag), picard_iters, picard_tol, and the problem parameters (S0, K,
r, mu, sigma, T for pricing; T for arctan; b0, s0, x0, T for custom).
paths/steps/k/seed accept comma-separated lists, which turn the run into a
sweep over the cartesian product (deterministic order: paths, steps, k, seed).

One CSV row is emitted per (sweep point, scheme).  With scheme=both, both
schemes consume the same path ensemble in one lockstep sweep, so their
rows differ only by the scheme and are pairable by (seed, paths, steps, k).
The runtime_ms column, left empty unless --timings is given to keep default
output byte-reproducible, is the set-up plus the row's own scheme's steps;
a design both schemes use is charged to the one that factored it.
Reference columns are empty for problems without a closed form.

Exit codes: 0 success, 2 configuration error (including non-finite or
out-of-range values, rejected before any simulation) or a run too large
for memory (paths x steps), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .basis import BASIS_FAMILIES, MAX_DEGREE, BasisSet
from .model import (CATALOG_DEFAULTS, ProblemCatalogEntry, make_problem,
                    make_uniform_grid)
from .oracle import reference_for
from .simulate import _validate_seed, simulate_paths
from .solver import SCHEMES as SOLVER_SCHEMES, NumericalError, solve

__all__ = [
    "RunConfig",
    "ReportRow",
    "ConfigError",
    "REPORT_COLUMNS",
    "parse_config_text",
    "build_config",
    "run",
    "write_csv",
    "main",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


SCHEMES = (*SOLVER_SCHEMES, "both")

_INT_LIST_KEYS = ("paths", "steps", "k", "seed")

# Keys that also have a --<key> flag of `fbsde solve`.
_FLAG_KEYS = ("problem", "scheme", "paths", "steps", "k", "family", "seed", "ridge", "out")

# Ceiling on picard_iters: with picard_tol=0 every step runs all of them.
MAX_PICARD_ITERS = 1000


@dataclass(frozen=True)
class RunConfig:
    """One validated experiment description (sweep axes kept as tuples)."""

    problem: ProblemCatalogEntry
    scheme: str = "later"
    paths: tuple[int, ...] = (10_000,)
    steps: tuple[int, ...] = (10,)
    k: tuple[int, ...] = (6,)
    family: str = "laguerre"
    seed: tuple[int, ...] = (0,)
    ridge: float = 0.0
    output_path: str = "results.csv"
    picard_iters: int = 5
    picard_tol: float = 1e-10


@dataclass(frozen=True)
class ReportRow:
    scheme: str
    problem: str
    M: int
    N: int
    k: int
    family: str
    seed: int
    y0_hat: float
    z0_hat: float
    y0_ref: Optional[float]
    z0_ref: Optional[float]
    abs_err_y: Optional[float]
    abs_err_z: Optional[float]
    log10_rel_err_y: Optional[float]
    log10_rel_err_z: Optional[float]
    max_condition: float
    runtime_ms: float
    err_basis: str


REPORT_COLUMNS = tuple(field.name for field in fields(ReportRow))


def parse_config_text(text: str) -> dict[str, str]:
    """Key=value lines to an ordered mapping; blank lines and comments skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: empty list")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer(s), got {value!r}") from None
    if key == "seed":
        try:
            values = tuple(_validate_seed(v) for v in values)
        except ValueError as exc:
            raise ConfigError(f"key 'seed': {exc}") from None
    elif any(v < 1 for v in values):
        raise ConfigError(f"key {key!r}: values must be positive, got {value!r}")
    if key == "k" and any(v - 1 > MAX_DEGREE for v in values):
        raise ConfigError(f"key 'k': degree k-1 exceeds {MAX_DEGREE}, got {value!r}")
    return values


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
    return number


def build_config(mapping: dict[str, str]) -> RunConfig:
    """Validate a raw key/value mapping into a RunConfig.

    Keys are validated in the order they appear, so the error names the
    first invalid one.  Problem parameters omitted from the mapping take
    the shipped defaults of the named problem.  The problem, its closed
    form and its time grids are also built here, so that values out of
    their range fail before any simulation.
    """
    name = mapping.get("problem", "arctan")
    if name not in CATALOG_DEFAULTS:
        raise ConfigError(f"key 'problem': unknown problem {name!r}")

    params: dict[str, float] = {}
    values: dict[str, object] = {}
    for key, raw in mapping.items():
        if key == "problem":
            continue
        if key == "scheme":
            if raw not in SCHEMES:
                raise ConfigError(f"key 'scheme': must be one of {SCHEMES}, got {raw!r}")
            values[key] = raw
        elif key == "family":
            if raw not in BASIS_FAMILIES:
                raise ConfigError(
                    f"key 'family': must be one of {BASIS_FAMILIES}, got {raw!r}")
            values[key] = raw
        elif key in _INT_LIST_KEYS:
            values[key] = _parse_int_list(key, raw)
        elif key in ("ridge", "picard_tol"):
            number = _parse_float(key, raw)
            if number < 0.0:
                raise ConfigError(f"key {key!r}: must be nonnegative, got {number}")
            values[key] = number
        elif key == "picard_iters":
            iters = _parse_float(key, raw)
            if not (iters.is_integer() and 1 <= iters <= MAX_PICARD_ITERS):
                raise ConfigError(f"key 'picard_iters': must be an integer in "
                                  f"[1, {MAX_PICARD_ITERS}], got {raw!r}")
            values[key] = int(iters)
        elif key == "out":
            values["output_path"] = raw
        elif key in CATALOG_DEFAULTS[name]:
            params[key] = _parse_float(key, raw)
        elif any(key in defaults for defaults in CATALOG_DEFAULTS.values()):
            raise ConfigError(f"key {key!r}: not a parameter of problem {name!r}")
        else:
            raise ConfigError(f"unknown config key {key!r}")

    config = RunConfig(problem=ProblemCatalogEntry(name, params), **values)
    try:
        problem = make_problem(config.problem)
        reference_for(config.problem)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"problem {name!r}: {exc}") from None
    for n_steps in config.steps:  # the horizon is valid: only N can fail
        try:
            make_uniform_grid(problem.horizon, n_steps)
        except ValueError as exc:
            raise ConfigError(f"key 'steps': {exc}") from None
    # A path array numpy cannot even describe; one merely too large for
    # memory takes the MemoryError route when it is allocated.
    m_paths, n_times = max(config.paths), max(config.steps) + 1
    if m_paths * n_times * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"key 'paths': a {m_paths} x {n_times} float64 path array "
                          "is larger than numpy can address")
    return config


def _log10_err(err: float, ref: float) -> tuple[float, str]:
    if ref != 0.0:
        rel = err / abs(ref)
        return (math.log10(rel) if rel > 0.0 else -math.inf), "relative"
    return (math.log10(err) if err > 0.0 else -math.inf), "absolute"


def run(config: RunConfig) -> list[ReportRow]:
    """Execute the run: one ensemble and one solver call per sweep point
    (both schemes in lockstep when scheme=both), one row per scheme."""
    problem = make_problem(config.problem)
    reference = reference_for(config.problem)
    schemes = SOLVER_SCHEMES if config.scheme == "both" else (config.scheme,)

    rows: list[ReportRow] = []
    sweep = itertools.product(config.paths, config.steps, config.k, config.seed)
    for m_paths, n_steps, k, seed in sweep:
        grid = make_uniform_grid(problem.horizon, n_steps)
        basis = BasisSet(config.family, k, problem, grid)
        ensemble = simulate_paths(problem, grid, m_paths, seed)
        results = solve(problem, grid, basis, ensemble, schemes, ridge=config.ridge,
                        picard_iters=config.picard_iters, picard_tol=config.picard_tol)
        rows += [_make_row(config, m_paths, n_steps, k, seed, result, reference)
                 for result in results]
    return rows


def _make_row(config, m_paths, n_steps, k, seed, result, reference) -> ReportRow:
    if reference is None:
        err = dict(y0_ref=None, z0_ref=None, abs_err_y=None, abs_err_z=None,
                   log10_rel_err_y=None, log10_rel_err_z=None, err_basis="")
    else:
        abs_y = abs(result.y0 - reference.y0_ref)
        abs_z = abs(result.z0 - reference.z0_ref)
        log_y, basis_y = _log10_err(abs_y, reference.y0_ref)
        log_z, basis_z = _log10_err(abs_z, reference.z0_ref)
        basis_label = basis_y if basis_y == basis_z else f"{basis_y}/{basis_z}"
        err = dict(y0_ref=reference.y0_ref, z0_ref=reference.z0_ref,
                   abs_err_y=abs_y, abs_err_z=abs_z,
                   log10_rel_err_y=log_y, log10_rel_err_z=log_z,
                   err_basis=basis_label)
    return ReportRow(
        scheme=result.scheme, problem=config.problem.name, M=m_paths, N=n_steps, k=k,
        family=config.family, seed=seed, y0_hat=result.y0, z0_hat=result.z0,
        max_condition=result.max_condition, runtime_ms=result.runtime_ms, **err,
    )


def _format_value(name: str, value) -> str:
    if value is None:
        return ""
    if name in ("M", "N", "k", "seed"):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def rows_to_csv(rows: Sequence[ReportRow], include_timings: bool = False) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        values = []
        for name in REPORT_COLUMNS:
            if name == "runtime_ms" and not include_timings:
                values.append("")
                continue
            values.append(_format_value(name, getattr(row, name)))
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[ReportRow], path: str, include_timings: bool = False) -> None:
    text = rows_to_csv(rows, include_timings=include_timings)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of `fbsde`, built on first use: parsing leaves it
    unchanged, so every call of :func:`main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="fbsde",
        description="Solve decoupled FBSDEs by least-squares Monte Carlo regression.",
    )
    parser.add_argument("command", choices=("solve",),
                        help="run the configured experiment")
    parser.add_argument("--config", help="path to a key=value config file")
    for key in _FLAG_KEYS:
        parser.add_argument(f"--{key}")
    parser.add_argument("--timings", action="store_true",
                        help="write measured runtimes (output no longer byte-reproducible)")
    # With no default, a missing command would also report KEY=VALUE as required.
    parser.add_argument("overrides", nargs="*", default=(), metavar="KEY=VALUE",
                        help="additional config overrides")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # "--key VALUE" -> "--key=VALUE": argparse would read a VALUE that starts
    # with '-' (--ridge -inf) as an option, not hand it to build_config.
    tokens = list(sys.argv[1:] if argv is None else argv)
    flags = {f"--{key}" for key in _FLAG_KEYS}
    j = 0
    while j < len(tokens) - 1:
        if tokens[j] in flags:
            tokens[j:j + 2] = [f"{tokens[j]}={tokens[j + 1]}"]
        j += 1
    args = _parser().parse_intermixed_args(tokens)
    try:
        mapping: dict[str, str] = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    mapping.update(parse_config_text(handle.read()))
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
                return 2
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r}: expected KEY=VALUE")
            key, value = item.split("=", 1)
            mapping[key.strip()] = value.strip()
        for key in _FLAG_KEYS:
            value = getattr(args, key)
            if value is not None:
                mapping[key] = value
        config = build_config(mapping)
        rows = run(config)
        write_csv(rows, config.output_path, include_timings=args.timings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for paths × steps; reduce --paths or "
              f"--steps ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
