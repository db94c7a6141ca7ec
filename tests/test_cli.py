import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fbsde
import fbsde.cli as cli_module
from fbsde.basis import MAX_DEGREE
from fbsde.cli import (REPORT_COLUMNS, ConfigError, build_config, main,
                       parse_config_text, run, rows_to_csv)
from fbsde.model import (CATALOG_DEFAULTS, ProblemCatalogEntry, make_problem,
                         make_uniform_grid)
from fbsde.simulate import euler_states, simulate_paths


def config_for(**kv):
    mapping = {"problem": "arctan", "scheme": "later", "paths": "2000",
               "steps": "5", "k": "4", "family": "hermite", "seed": "42"}
    mapping.update({k: str(v) for k, v in kv.items()})
    return build_config(mapping)


# --------------------------------------------------------------- parsing


def test_parse_config_text():
    text = """
    # comment line
    problem = call
    paths = 1000,2000   # inline comment
    out=prices.csv
    """
    mapping = parse_config_text(text)
    assert mapping == {"problem": "call", "paths": "1000,2000", "out": "prices.csv"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a pair")


def test_build_config_validation_messages():
    with pytest.raises(ConfigError, match="'problem'"):
        build_config({"problem": "lookback"})
    with pytest.raises(ConfigError, match="'scheme'"):
        build_config({"scheme": "sideways"})
    with pytest.raises(ConfigError, match="'paths'"):
        build_config({"paths": "0"})
    with pytest.raises(ConfigError, match="'k'"):
        build_config({"k": "2,nine"})
    with pytest.raises(ConfigError, match="'ridge'"):
        build_config({"ridge": "-0.5"})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"strike": "100"})
    with pytest.raises(ConfigError, match="'sigma'"):
        build_config({"problem": "call", "sigma": "-1"})


def test_config_defaults_and_sweeps():
    config = config_for(paths="1000,10000,100000", seed="1,2")
    assert config.paths == (1000, 10000, 100000)
    assert config.seed == (1, 2)
    assert config.k == (4,)
    assert config.problem.parameters["T"] == 1.0


def test_config_problem_is_the_catalog_entry():
    assert build_config({"problem": "call"}).problem == ProblemCatalogEntry("call")
    assert (build_config({"problem": "put", "K": "90"}).problem
            == ProblemCatalogEntry("put", {"K": 90.0}))


# ---------------------------------------------------------------- runs


def test_single_run_row_fields():
    rows = run(config_for(paths=10_000, steps=10, k=6, seed=42))
    assert len(rows) == 1
    row = rows[0]
    assert (row.scheme, row.problem, row.M, row.N, row.k) == ("later", "arctan", 10_000, 10, 6)
    assert row.family == "hermite" and row.seed == 42
    assert row.y0_ref == 0.0 and row.z0_ref == 0.0
    assert row.abs_err_y == abs(row.y0_hat)
    assert row.err_basis == "absolute"


def test_sweep_with_both_schemes_row_count():
    rows = run(config_for(scheme="both", paths="500,1000,2000"))
    assert len(rows) == 6
    assert [r.scheme for r in rows] == ["later", "now"] * 3
    assert [r.M for r in rows] == [500, 500, 1000, 1000, 2000, 2000]


@pytest.mark.parametrize("family", ["laguerre", "monomial", "hermite"])
def test_both_rows_equal_the_single_scheme_rows_bytewise(family):
    # the lockstep sweep shares designs between the schemes; two row blocks
    # with ridge rows, so the shared factorisation has every part
    common = dict(problem="call", paths=2 * 16_384 + 7, family=family, ridge=0.5)
    both = rows_to_csv(run(config_for(scheme="both", **common))).splitlines()
    single = [rows_to_csv(run(config_for(scheme=scheme, **common))).splitlines()[1]
              for scheme in ("later", "now")]
    assert both[1:] == single


def test_both_schemes_pair_by_seed():
    config = config_for(problem="call", scheme="both", paths=1000,
                        family="laguerre",
                        seed=",".join(str(s) for s in range(1, 11)))
    rows = run(config)
    assert len(rows) == 20
    pairs = {}
    for row in rows:
        pairs.setdefault((row.seed, row.M, row.N, row.k), []).append(row.scheme)
    assert all(sorted(v) == ["later", "now"] for v in pairs.values())


def test_both_schemes_share_one_ensemble(monkeypatch):
    calls = []
    real = cli_module.simulate_paths

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_module, "simulate_paths", counting)
    run(config_for(scheme="both", paths=500, seed="7,8"))
    assert len(calls) == 2  # one ensemble per sweep point, shared by schemes


def test_shared_ensemble_reconstructs_bitwise():
    # the ensemble any comparison run consumes satisfies the Euler
    # reconstruction identity, so both schemes saw the same increments
    config = config_for(problem="custom", scheme="both", paths=800)
    problem = make_problem(config.problem)
    grid = make_uniform_grid(problem.horizon, config.steps[0])
    ens = simulate_paths(problem, grid, config.paths[0], config.seed[0])
    assert np.array_equal(euler_states(problem, grid, ens.increments), ens.states)


def test_custom_problem_has_empty_reference_columns():
    rows = run(config_for(problem="custom", paths=500))
    row = rows[0]
    assert row.y0_ref is None and row.abs_err_y is None
    csv_text = rows_to_csv(rows)
    body = csv_text.splitlines()[1].split(",")
    ref_idx = REPORT_COLUMNS.index("y0_ref")
    assert body[ref_idx] == "" and body[ref_idx + 2] == ""


def test_csv_schema_and_precision(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["solve", "--problem", "arctan", "--paths", "600", "--steps", "4",
                 "--k", "3", "--family", "hermite", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    header, *body = out.read_text().splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    assert len(body) == 1
    fields = body[0].split(",")
    y0_hat = fields[REPORT_COLUMNS.index("y0_hat")]
    assert len(y0_hat.replace("-", "").replace(".", "").lstrip("0")) >= 15
    assert float(y0_hat) == pytest.approx(0.0, abs=0.5)
    # errors consistent with hat/ref to 1e-12
    abs_err = float(fields[REPORT_COLUMNS.index("abs_err_y")])
    assert abs_err == pytest.approx(abs(float(y0_hat)), abs=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = arctan\nscheme = both\npaths = 700\nsteps = 4\n"
                   "k = 3\nfamily = hermite\nseed = 11,12\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rows_reproducible_from_point_configs():
    # a row's (y0_hat, z0_hat) depends only on (problem, M, N, k, family,
    # seed, ridge), not on the sweep it was embedded in
    sweep_rows = run(config_for(paths="500,900", seed="3,4"))
    for row in sweep_rows:
        single = run(config_for(paths=row.M, seed=row.seed))[0]
        assert single.y0_hat == row.y0_hat and single.z0_hat == row.z0_hat


def test_timings_flag_fills_runtime_column(tmp_path):
    out = tmp_path / "timed.csv"
    args = ["solve", "--problem", "custom", "--paths", "500", "--steps", "3",
            "--k", "3", "--seed", "2", "--out", str(out)]
    assert main(args) == 0
    idx = REPORT_COLUMNS.index("runtime_ms")
    assert out.read_text().splitlines()[1].split(",")[idx] == ""
    assert main(args + ["--timings"]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[idx]) > 0.0


def test_timings_flag_fills_runtime_column_of_both_rows(tmp_path):
    out = tmp_path / "timed.csv"
    args = ["solve", "--problem", "call", "--scheme", "both", "--paths", "500",
            "--steps", "3", "--k", "3", "--seed", "2", "--out", str(out)]
    idx = REPORT_COLUMNS.index("runtime_ms")
    assert main(args) == 0
    assert [line.split(",")[idx] for line in out.read_text().splitlines()[1:]] == ["", ""]
    assert main(args + ["--timings"]) == 0
    times = [float(line.split(",")[idx]) for line in out.read_text().splitlines()[1:]]
    assert len(times) == 2 and all(np.isfinite(t) and t > 0.0 for t in times)


# ------------------------------------------------------------ exit codes


def test_exit_code_on_config_error(tmp_path, capsys):
    assert main(["solve", "--paths", "minus-one"]) == 2
    assert "paths" in capsys.readouterr().err
    assert main(["solve", "not_a_pair"]) == 2
    missing = tmp_path / "missing.cfg"
    assert main(["solve", "--config", str(missing)]) == 2


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"problem=call\nK=\xff\n")
    out = tmp_path / "rows.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {str(cfg)!r}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_exit_code_on_numerical_failure(tmp_path, capsys):
    # diffusion large enough to overflow the basis powers to inf
    out = tmp_path / "x.csv"
    code = main(["solve", "--problem", "custom", "s0=1e200", "b0=1e200",
                 "--paths", "200", "--steps", "4", "--k", "3",
                 "--seed", "1", "--out", str(out)])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


def call_under_w_error(out, s0):
    # the shipped call at a huge S0, with every warning an error
    env = {**os.environ, "PYTHONPATH": str(Path(fbsde.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "fbsde.cli", "solve", "--problem", "call",
         "--paths", "100", f"S0={s0}", "--scheme", "both", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)


def test_overflowing_sweep_exits_3_without_traceback(tmp_path):
    # under -W error an overflow warning would otherwise escape as a traceback
    out = tmp_path / "rows.csv"
    done = call_under_w_error(out, "1e307")
    assert done.returncode == 3
    assert re.fullmatch(r"numerical failure: [^\n]* at step \d+\n", done.stderr), done.stderr
    assert not out.exists()


def test_huge_but_finite_sweep_exits_0_with_finite_rows(tmp_path):
    # at S0 = 1e300 every fitted value stays finite: the now step takes its
    # fits from the factorisation, never forming design @ coefficients
    out = tmp_path / "rows.csv"
    done = call_under_w_error(out, "1e300")
    assert done.returncode == 0, done.stderr
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["scheme"] for row in rows] == ["later", "now"]
    for row in rows:
        assert np.isfinite([float(row["y0_hat"]), float(row["z0_hat"])]).all()


def test_exit_code_on_allocation_failure(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.80 PiB")

    monkeypatch.setattr(cli_module, "simulate_paths", out_of_memory)
    out = tmp_path / "rows.csv"
    code = main(["solve", "--problem", "put", "--paths", "100000000000000",
                 "--steps", "10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory for paths × steps")
    assert "Traceback" not in err
    assert not out.exists()


def test_override_precedence(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("problem = arctan\npaths = 500\nsteps = 4\nk = 3\nseed = 1\n")
    out = tmp_path / "o.csv"
    code = main(["solve", "--config", str(cfg), "paths=800",
                 "--out", str(out), "--seed", "9"])
    assert code == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[REPORT_COLUMNS.index("M")] == "800"
    assert fields[REPORT_COLUMNS.index("seed")] == "9"


def test_overrides_after_a_flag_apply_in_argv_order(tmp_path, capsys):
    def paths_column(*args):
        out = tmp_path / "o.csv"
        code = main(["solve", "--problem", "custom", "--k", "3", "--out", str(out), *args])
        assert code == 0
        return out.read_text().splitlines()[1].split(",")[REPORT_COLUMNS.index("M")]

    assert paths_column("paths=70", "--steps", "2", "paths=80") == "80"
    assert paths_column("--steps", "2", "paths=80", "steps=1") == "80"
    # a flag still wins over every override
    assert paths_column("paths=70", "--paths", "60", "--steps", "2", "paths=80") == "60"
    # a stray token or option after a flag still exits 2
    assert main(["solve", "--steps", "2", "paths=80", "stray"]) == 2
    assert "override 'stray': expected KEY=VALUE" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--steps", "2", "paths=80", "--stray"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stray" in capsys.readouterr().err


def test_module_run_prints_no_warning(tmp_path):
    # `python -m fbsde.cli` must not find the module already imported by the package
    out = tmp_path / "rows.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(fbsde.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fbsde.cli", "solve",
         "--problem", "custom", "--paths", "200", "--steps", "2", "--k", "3",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert out.exists()


# ---------------------------------------------------------- input contract


@pytest.mark.parametrize("args, key", [
    (["--k", "32"], "k"),
    (["--k", "40"], "k"),
    (["--seed", "18446744073709551616"], "seed"),
    (["picard_iters=inf"], "picard_iters"),
    (["picard_iters=nan"], "picard_iters"),
    (["--problem", "call", "T=inf"], "T"),
    (["--problem", "custom", "x0=nan"], "x0"),
    (["picard_tol=-1"], "picard_tol"),
    (["ridge=nan"], "ridge"),
    (["picard_iters=2.7"], "picard_iters"),
    (["--problem", "call", "r=nan"], "r"),
    (["--problem", "call", "mu=inf"], "mu"),
    (["picard_iters=1001"], "picard_iters"),
    # a time grid numpy cannot address
    (["--problem", "put", "--steps", "100000000000000000000"], "steps"),
])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, monkeypatch, args, key):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation started for an invalid config")

    monkeypatch.setattr(cli_module, "simulate_paths", no_simulation)
    out = tmp_path / "rows.csv"
    code = main(["solve", "--paths", "200", "--steps", "2", "--out", str(out), *args])
    assert code == 2
    assert f"config error: key {key!r}" in capsys.readouterr().err
    assert not out.exists()


_NUMBER = st.one_of(st.floats().map(repr), st.integers(-2, 3).map(str))
_VALUES = {
    "scheme": st.sampled_from(["later", "now", "both", "sideways"]),
    "family": st.sampled_from(["laguerre", "hermite", "monomial", "splines"]),
    "paths": st.integers(-1, 500).map(str),
    "steps": st.one_of(st.integers(-1, 4).map(str), st.just("1,3")),
    "k": st.integers(-1, 2 * MAX_DEGREE).map(str),
    "seed": st.integers(-1, 2**65).map(str),
    # a huge count with picard_tol=0 would run every iteration
    "picard_iters": st.one_of(st.integers(-1, 4).map(str),
                              st.sampled_from(["inf", "nan", "2.7", "4.0"])),
    "ridge": _NUMBER,
    "picard_tol": _NUMBER,
    "strike": _NUMBER,  # not a config key
}


@st.composite
def _overrides(draw):
    """A problem plus up to three other keys, each drawn in or out of range."""
    problem = draw(st.sampled_from([*CATALOG_DEFAULTS, "lookback"]))
    values = {**_VALUES, **dict.fromkeys(CATALOG_DEFAULTS.get(problem, ()), _NUMBER)}
    keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True))
    return {"problem": problem, **{key: draw(values[key]) for key in keys}}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects e.g. `--ridge -inf`
        return exc.code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(overrides=_overrides())
# an overflow in the path simulation: exit 3, no warning
@example(overrides={"problem": "call", "mu": "7.11074631974658e+102",
                    "S0": "7.110746319746581e+102"})
# on the flags route, KEY=VALUE overrides on both sides of --scheme
@example(overrides={"problem": "call", "mu": "0.0", "scheme": "later", "K": "1.0"})
# a path array numpy cannot address: exit 2 before any simulation
@example(overrides={"problem": "put", "paths": "100000000000000000000"})
# a step count numpy cannot address: exit 2 before any simulation
@example(overrides={"problem": "put", "steps": "100000000000000000000"})
def test_any_overrides_end_in_a_documented_exit_code(overrides):
    # defaults for keys not drawn; drawn sizes also stay at paths <= 500, steps <= 4
    mapping = {"paths": "50", "steps": "2", "k": "3", **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        flags = [arg for k, v in mapping.items()
                 for arg in ((f"--{k}", v) if k in cli_module._FLAG_KEYS else (f"{k}={v}",))]
        routes = {
            "overrides": [f"{k}={v}" for k, v in mapping.items()],
            "flags": flags,
            "config": ["--config", str(cfg)],
        }
        results = {}
        for route, args in routes.items():
            out = Path(tmp) / f"{route}.csv"
            code = _exit_code(["solve", "--out", str(out), *args])
            assert code in (0, 2, 3), route
            assert out.exists() == (code == 0), route
            results[route] = (code, out.read_bytes() if code == 0 else None)
        # the three routes reach build_config with the same mapping
        assert results["flags"] == results["overrides"] == results["config"]


@pytest.mark.parametrize("value", ["-1e-05", "-inf"])
def test_flag_value_starting_with_dash_reaches_build_config(tmp_path, capsys, value):
    out = tmp_path / "rows.csv"
    code = main(["solve", "--paths", "200", "--steps", "2", "--ridge", value,
                 "--out", str(out)])
    assert code == 2
    assert "config error: key 'ridge'" in capsys.readouterr().err
    assert not out.exists()
