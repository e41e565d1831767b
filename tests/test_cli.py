"""End-to-end tests of the command-line interface (subprocess level; in-process where a test patches or traces it)."""

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from onoffnet import cli
from onoffnet.scenario import load_scenario_config
from test_scenario import network_lock_config

REPO = Path(__file__).resolve().parents[1]
DIAMOND = REPO / "configs" / "diamond.cfg"
SRC = REPO / "src"


def cli_env(outdir):
    """Hermetic child environment: PATH, ONOFFNET_OUTDIR and PYTHONPATH only.

    PYTHONPATH puts this checkout's ``src`` first, so the child imports the
    package under test whether or not it is installed; the caller's own
    PYTHONPATH, if any, follows it. Nothing else from the caller's environment
    reaches the child.
    """
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(SRC) + (os.pathsep + inherited if inherited else "")
    return {"PATH": "/usr/bin:/bin", "ONOFFNET_OUTDIR": str(outdir), "PYTHONPATH": pythonpath}


def run_cli(args, tmp_path, check=True, module="onoffnet.cli"):
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(tmp_path),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


def read_table(path):
    """Parse a headered CSV into (comments, column names, float matrix)."""
    comments, rows = [], []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return comments, header, np.array(rows)


# --- import path ---------------------------------------------------------------


def test_import_leaves_scipy_unloaded(tmp_path):
    code = (
        "import sys, onoffnet, onoffnet.cli\n"
        "assert callable(onoffnet.cli.quad)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    # No subcommand needs scipy: each runs against a scipy that fails to import.
    stub = tmp_path / "stub" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
    env = cli_env(tmp_path)
    env["PYTHONPATH"] = str(stub.parent) + os.pathsep + env["PYTHONPATH"]
    probe = subprocess.run([sys.executable, "-c", "import scipy"], capture_output=True, env=env)
    assert probe.returncode != 0  # the stub shadows any installed scipy
    cell = ["--k", "1", "--tau", "2", "--capacity", "4"]
    for args, outputs in (
        (["density", "--x", "0.5", "--horizon", "1", "--points", "101", "--out", "d.csv"], ["d.csv"]),
        (["mean-curve", "--horizon", "10", "--points", "100", "--out", "m.csv"], ["m.csv"]),
        (["discharge", *cell, "--lambda", "1", "--mu", "2", "--horizon", "10",
          "--out", "g.csv", "--trajectory-out", "gs.csv"], ["g.csv", "gs.csv"]),
        (["validate", "--params", "1.0,3.0,4.0", "--replications", "10000", "--out", "v.csv"], ["v.csv"]),
        (["route", "--config", str(DIAMOND), "--out-dir", "r"], ["r/events_seed42.log", "r/metrics.csv"]),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "onoffnet.cli", *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, f"{args[0]}: {proc.stderr}"
        for out in outputs:
            assert (tmp_path / out).is_file(), f"{args[0]} did not write {out}"


def test_sampling_commands_run_without_numpy(tmp_path):
    # Sampled discharge and route draw from the standard library's generator,
    # so they run against a numpy that fails to import and write the bytes
    # they write with numpy installed.  The route network is the 64-node
    # random geometric lock graph, whose nodes die at t=0 and mid-run.
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("numpy is not installed")\n')
    (tmp_path / "lock.cfg").write_text(network_lock_config())
    commands = (
        (["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--lambda", "1", "--mu", "2", "--seed", "7",
          "--horizon", "10", "--out", "g.csv", "--trajectory-out", "gs.csv"], ["g.csv", "gs.csv"]),
        (["route", "--config", "../../lock.cfg", "--out-dir", "r"], ["r/events_seed5.log", "r/metrics.csv"]),
    )
    written = {}
    for name in ("stub", "numpy"):
        outdir = tmp_path / name / "out"
        outdir.mkdir(parents=True)
        env = cli_env(outdir)
        if name == "stub":
            env["PYTHONPATH"] = str(stub.parent) + os.pathsep + env["PYTHONPATH"]
            probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, env=env)
            assert probe.returncode != 0  # the stub shadows the installed numpy
        for args, outputs in commands:
            proc = subprocess.run([sys.executable, "-m", "onoffnet.cli", *args], capture_output=True, text=True,
                                  cwd=outdir, env=env)
            assert proc.returncode == 0, f"{args[0]}: {proc.stderr}"
            for out in outputs:
                written[name, out] = (outdir / out).read_bytes()
    for _, outputs in commands:
        for out in outputs:
            assert written["stub", out] == written["numpy", out], out
    deaths = written["stub", "r/events_seed5.log"].count(b",death,")
    assert deaths > 1, deaths


def run_python(code, tmp_path, env=None):
    """Run ``python -c code`` in a ``cli_env`` child; return its stripped stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(tmp_path) if env is None else env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_is_lazy(tmp_path):
    code = (
        "import sys, onoffnet\n"
        "print('numpy' in sys.modules)\n"
        "ns = {}\n"
        "exec('from onoffnet import *', ns)\n"
        "print(len(onoffnet.__all__), sum(name in ns for name in onoffnet.__all__))\n"
        "try:\n"
        "    onoffnet.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert run_python(code, tmp_path).splitlines() == ["False", "42 42", "AttributeError"]


def test_battery_import_loads_neither_occupancy_nor_numpy(tmp_path):
    # The battery model depends on the activity module alone.
    code = "import sys, onoffnet.battery\nprint('onoffnet.occupancy' in sys.modules, 'numpy' in sys.modules)\n"
    assert run_python(code, tmp_path) == "False False"


def test_cli_starts_no_blas_pool(tmp_path):
    # The CLI loads numpy only where it builds arrays, so the child loads it
    # itself, after the CLI's own set-up, before counting threads.
    code = (
        "import os, sys, onoffnet.cli, numpy\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
    )
    assert run_python(code, tmp_path) == "1 1"
    env = cli_env(tmp_path)
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert run_python(code, tmp_path, env).split()[0] == "2"  # the caller's choice is kept


# The README's commands, as main() arguments.
README_COMMANDS = (
    ["density", "--x", "0.4,0.6,0.8,1.0", "--horizon", "10", "--points", "200", "--out", "fig_density.csv"],
    ["density", "--lambda", "0.5", "--mu", "1.0", "--horizon", "2", "--points", "200", "--out", "single.csv"],
    ["mean-curve", "--x-min", "0.01", "--x-max", "1.0", "--horizon", "10", "--points", "200",
     "--out", "fig_mean.csv"],
    ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--horizon", "100", "--out", "continuous.csv"],
    ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--segments", "ON:1,OFF:2,ON:1",
     "--out", "modulated.csv", "--trajectory-out", "segments.csv"],
    ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--lambda", "1", "--mu", "2", "--seed", "7",
     "--horizon", "10", "--out", "sampled.csv"],
    ["validate", "--params", "1.0,3.0,4.0", "--replications", "10000", "--out", "report.csv"],
    ["route", "--config", str(DIAMOND), "--out-dir", "results/"],
)


# Standard-library modules that add start-up time: the package never imports
# dataclasses (which loads inspect), and imports configparser and fractions
# (which loads decimal) only in the functions that use them.
STARTUP_MODULES = ("dataclasses", "inspect", "configparser", "fractions", "decimal")


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_readme_command_leaves_numpy_ma_unloaded(tmp_path, argv):
    # np.unique and np.union1d import numpy.ma (about 15 ms) on first use.  The
    # figure commands and sampled discharge compute on floats and the standard
    # library's generator, and route samples the same way, so only validate
    # loads numpy, for its exact law and quadrature, and numpy loads inspect.
    # Only route reads a config, so only route loads configparser.  Modules
    # loaded before the import (by site) do not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from onoffnet.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        "print('numpy' in sys.modules)\n"
        f"print(sorted(m for m in {STARTUP_MODULES!r} if m in sys.modules and m not in before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    validate = argv[0] == "validate"
    loaded = ["inspect"] if validate else ["configparser"] if argv[0] == "route" else []
    assert proc.stdout.splitlines() == ["[]", str(validate), str(loaded)]


def test_figure_output_lock(tmp_path):
    # Pins the exact bytes of the README's figure files: both density forms,
    # the mean curve and the continuous and scripted discharge traces.  The
    # density is evaluated with math.exp, so its bytes do not depend on which
    # SIMD kernel numpy would pick for exp on this host.
    for argv in README_COMMANDS[:5]:
        run_cli(argv, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig_density.csv", "single.csv", "fig_mean.csv", "continuous.csv", "modulated.csv",
                     "segments.csv")
    }
    assert digests == {
        "fig_density.csv": "a6f167ca876f0394f2d0527a060c4bce325d08727970b91701e24c591e61dad4",
        "single.csv": "f3544459ca3fba80ecbb549cec71bc589cf30931b44296a3c27a71edafe274ae",
        "fig_mean.csv": "a53c2123458b32bb89e84993e3f9bc78b11d56576139457a05ba89b80ff890b0",
        "continuous.csv": "92fdebf8127511098e508a41a20e2c865690036250caddc83ee1a05ac7e871be",
        "modulated.csv": "d14b4759c9c8297177d070a9900eae7f5326a6e9580618ad38ebe4f4f13eb3f3",
        "segments.csv": "75610955df114cb45ef5751c20712918bec8596279870d96f155bd811556ccb6",
    }


# --- density -----------------------------------------------------------------


def test_density_multi_column_integrates_to_one(tmp_path):
    run_cli(
        ["density", "--x", "1.0", "--horizon", "1.0", "--points", "10001", "--out", "d.csv"],
        tmp_path,
    )
    comments, header, data = read_table(tmp_path / "d.csv")
    assert header == ["theta", "x=1.0"]
    assert any("generator=python-random-mt19937" in c for c in comments)
    mass = trapezoid(data[:, 1], data[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_density_zero_gap_is_constant(tmp_path):
    run_cli(
        ["density", "--x", "0.0", "--horizon", "4.0", "--points", "101", "--out", "flat.csv"],
        tmp_path,
    )
    _, _, data = read_table(tmp_path / "flat.csv")
    assert np.all(data[:, 1] == 0.25)


def test_density_lambda_mu_form(tmp_path):
    run_cli(
        ["density", "--lambda", "0.5", "--mu", "1.0", "--horizon", "2.0",
         "--points", "101", "--out", "lm.csv"],
        tmp_path,
    )
    comments, header, data = read_table(tmp_path / "lm.csv")
    assert header == ["theta", "density"]
    assert any("lambda=0.5 mu=1.0" in c for c in comments)
    assert data.shape == (101, 2)


def test_density_rejects_conflicting_flags(tmp_path):
    proc = run_cli(
        ["density", "--x", "1.0", "--lambda", "0.5", "--horizon", "1.0", "--out", "x.csv"],
        tmp_path,
        check=False,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert not (tmp_path / "x.csv").exists()  # rejected before any write


@pytest.mark.parametrize("xs", ["0.4,,0.6", ","], ids=["empty-token", "only-empty"])
def test_density_rejects_empty_x_token(tmp_path, xs):
    # Every --x token is a number, as every --params token is: none is dropped.
    proc = run_cli(["density", "--x", xs, "--horizon", "1.0", "--out", "x.csv"], tmp_path, check=False)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args,flag",
    [
        (["density", "--x", "inf"], "--x"),
        (["density", "--x", "0.5,nan"], "--x"),
        (["mean-curve", "--x-max", "inf"], "--x-max"),
        (["mean-curve", "--x-min=-1e308", "--x-max", "1e308"], "--x-min"),
    ],
    ids=["density-inf", "density-nan", "mean-curve-inf", "mean-curve-overflowing-span"],
)
def test_figure_commands_refuse_non_finite_rate_gaps(tmp_path, args, flag):
    # A rate gap that is not finite is refused under the option the user gave,
    # not under the lambda or mu it would be turned into.
    proc = run_cli([*args, "--horizon", "1.0", "--out", "x.csv"], tmp_path, check=False)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert flag in proc.stderr
    assert list(tmp_path.iterdir()) == []


# --- mean curve -----------------------------------------------------------------


def test_mean_curve_shape(tmp_path):
    run_cli(
        ["mean-curve", "--x-min", "0.01", "--x-max", "1.0", "--horizon", "10",
         "--points", "200", "--out", "m.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "m.csv")
    assert header == ["x", "mean_on_time"]
    assert data.shape == (200, 2)
    assert np.all(np.diff(data[:, 1]) > 0.0)  # monotone increasing in x
    assert data[0, 1] == pytest.approx(5.0, rel=2e-2)  # near t/2 at small x
    assert data[-1, 1] == pytest.approx(9.000454019910097, rel=1e-12)  # x=1, t=10


# --- discharge -------------------------------------------------------------------


def test_discharge_continuous_approaches_asymptote(tmp_path):
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--horizon", "100", "--points", "201", "--out", "c.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "c.csv")
    assert header == ["time", "sod", "active_time", "current"]
    assert data[-1, 1] == pytest.approx(0.5, abs=1e-6)
    assert np.all(np.diff(data[:, 1]) >= 0.0)


def test_discharge_scripted_plateaus(tmp_path):
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--segments", "ON:1,OFF:2,ON:1,OFF:0.5", "--points", "100",
         "--out", "p.csv", "--trajectory-out", "t.csv"],
        tmp_path,
    )
    _, _, data = read_table(tmp_path / "p.csv")
    sod = data[:, 1]
    # Count maximal runs of >= 3 consecutive equal sod values: exactly the
    # OFF segments of the script.
    plateaus = 0
    run = 1
    for a, b in zip(sod, sod[1:]):
        if b == a:
            run += 1
        else:
            plateaus += run >= 3
            run = 1
    plateaus += run >= 3
    assert plateaus == 2
    tlines = (tmp_path / "t.csv").read_text().splitlines()
    assert "segment_index,state,start,duration" in tlines
    assert sum(not l.startswith("#") for l in tlines) == 5  # header + 4 segments


def test_discharge_scripted_trajectory_column_states(tmp_path):
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--segments", "ON:1,OFF:2", "--points", "100",
         "--out", "s.csv", "--trajectory-out", "seg.csv"],
        tmp_path,
    )
    lines = (tmp_path / "seg.csv").read_text().splitlines()
    assert lines[1] == "segment_index,state,start,duration"
    assert lines[2] == "0,ON,0.0,1.0"
    assert lines[3] == "1,OFF,1.0,2.0"


@pytest.mark.parametrize(
    "activity",
    [["--lambda", "1", "--mu", "2", "--seed", "1", "--horizon", "500", "--points", "500"],
     ["--segments", "ON:0.1,OFF:0.2,ON:0.3,OFF:0.7,ON:0.1"]],
    ids=["sampled", "scripted"],
)
def test_discharge_last_active_time_is_segment_sum(tmp_path, activity):
    # The trace's last active_time is the left-to-right sum of the ON
    # durations it wrote to --trajectory-out, bit for bit.
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", *activity,
         "--out", "trace.csv", "--trajectory-out", "segs.csv"],
        tmp_path,
    )
    on_time = 0.0
    for line in (tmp_path / "segs.csv").read_text().splitlines()[2:]:
        _, state, _, duration = line.split(",")
        if state == "ON":
            on_time += float(duration)
    last = (tmp_path / "trace.csv").read_text().splitlines()[-1].split(",")
    assert float(last[2]) == on_time


def test_discharge_modulated_final_sod_matches_continuous(tmp_path):
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--lambda", "1.0", "--mu", "1.0", "--seed", "5", "--horizon", "8",
         "--points", "200", "--out", "mod.csv"],
        tmp_path,
    )
    _, _, mod = read_table(tmp_path / "mod.csv")
    final_active = mod[-1, 2]
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--horizon", str(final_active), "--points", "101", "--out", "cont.csv"],
        tmp_path,
    )
    _, _, cont = read_table(tmp_path / "cont.csv")
    assert mod[-1, 1] == pytest.approx(cont[-1, 1], abs=1e-12)


@pytest.mark.parametrize(
    "lam,segments,digests",
    [
        ("1", 702, ("3f24279aeb3c8d1a24c723557de1030ef354a932e1cc290a672fb48a6ecfac21",
                    "b8de140cb1bdccf584470aff03ed528281a17c0df83f6246e2b17fe0d6b9cd4c")),
        ("0", 1, ("a7233fb19fd337deb0598cda37496ef87ee6c1165bc82c78593ffe2c8995a569",
                  "528a9a661680b03aff8f07da39e0c7643ca6e3cc6ee37917f1c05258b00ac111")),
    ],
    ids=["alternating", "absorbing"],
)
def test_sampled_trace_lock(tmp_path, lam, segments, digests):
    # Pins the exact bytes of a sampled trace and of its segments, so a change
    # to the sampling loop must reproduce every segment bit for bit.  With
    # lambda=0 the path never leaves ON: one segment, no draw.
    run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--lambda", lam, "--mu", "2",
         "--seed", "7", "--horizon", "500", "--points", "500",
         "--out", "sampled.csv", "--trajectory-out", "segments.csv"],
        tmp_path,
    )
    trace, rows = (tmp_path / "sampled.csv").read_bytes(), (tmp_path / "segments.csv").read_bytes()
    assert rows.count(b"\n") == 2 + segments
    assert (hashlib.sha256(trace).hexdigest(), hashlib.sha256(rows).hexdigest()) == digests


def test_discharge_rejects_horizon_conflict(tmp_path):
    # The segment total is the scripted horizon; --horizon is refused even
    # where it matches that total.
    proc = run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
         "--segments", "ON:1,OFF:1", "--horizon", "2", "--out", "x.csv"],
        tmp_path,
        check=False,
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "--horizon" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args,flag",
    [
        (["--horizon", "inf"], "--horizon"),
        (["--horizon", "nan"], "--horizon"),
        (["--horizon", "-5"], "--horizon"),
        (["--horizon", "0"], "--horizon"),
        (["--horizon", "10", "--points", "0"], "--points"),
        (["--horizon", "10", "--points", "1"], "--points"),
        (["--segments", "ON:1,OFF:1", "--horizon", "nan"], "--horizon"),
        (["--horizon", "10", "--trajectory-out", "t.csv"], "--trajectory-out"),
    ],
    ids=["inf", "nan", "negative", "zero", "points-0", "points-1", "scripted-nan", "continuous-trajectory"],
)
def test_discharge_rejects_bad_grid_before_writing(tmp_path, args, flag):
    proc = run_cli(
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", *args, "--out", "x.csv"],
        tmp_path,
        check=False,
    )
    assert proc.returncode == 1
    assert flag in proc.stderr
    assert list(tmp_path.iterdir()) == []  # rejected before any write


# --- validate ----------------------------------------------------------------------


def test_validate_report_consistency(tmp_path):
    run_cli(
        ["validate", "--params", "1.0,3.0,4.0", "--params", "0.5,0.5,6.0",
         "--replications", "10000", "--out", "v.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "v.csv")
    cols = {name: i for i, name in enumerate(header)}
    for row in data:
        closed = row[cols["mean_closed_form"]]
        assert closed == pytest.approx(row[cols["mean_quadrature"]], rel=1e-8)
        assert abs(row[cols["mc_mean"]] - row[cols["exact_mean_start_on"]]) <= (
            3.0 * row[cols["mc_stderr"]]
        )
        assert row[cols["tv_start_on"]] > 0.0
    # x = 0 row: uniform closed form, mean t/2.
    assert data[1, cols["mean_closed_form"]] == pytest.approx(3.0, rel=1e-12)


def test_validate_math_columns_lock(tmp_path):
    # Pins, as exact reprs, the default report's columns that are computed
    # with math alone: the inputs, the closed-form mean, the exact law's
    # means and its atoms.  mean_quadrature, mc_* and tv_* go through numpy's
    # exp, whose SIMD kernel differs between hosts, so they are not pinned.
    run_cli(["validate", "--replications", "10000", "--out", "v.csv"], tmp_path)
    lines = [line for line in (tmp_path / "v.csv").read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    names = ("lambda", "mu", "horizon", "x", "mean_closed_form", "exact_mean_start_on", "exact_mean_start_off",
             "atom_zero_start_on", "atom_full_start_on", "atom_zero_start_off", "atom_full_start_off")
    pinned = [[row.split(",")[header.index(name)] for name in names] for row in lines[1:]]
    assert pinned == [
        ["1.0", "3.0", "4.0", "2.0", "3.501342300803365", "3.0624999929665515", "2.8125000211003455",
         "0.0", "0.01831563888873418", "6.14421235332821e-06", "0.0"],
        ["0.2", "1.0", "5.0", "0.8", "3.8432868018188704", "4.305211284419908", "3.473943577900463",
         "0.0", "0.36787944117144233", "0.006737946999085467", "0.0"],
        ["0.5", "0.5", "6.0", "0.0", "3.0", "3.498760623911667", "2.501239376088333",
         "0.0", "0.049787068367863944", "0.049787068367863944", "0.0"],
    ]


def test_validate_quadrature_resolves_spike_of_huge_rate_gap(tmp_path):
    # x*t = 1e10: the density is a spike of width 1e-8 at T = t, which
    # QUADPACK on [0, t] in one piece misses (it printed 0.0 here).
    run_cli(
        ["validate", "--params", "0,1e8,100", "--replications", "10000", "--out", "spike.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "spike.csv")
    cols = {name: i for i, name in enumerate(header)}
    row = data[0]
    assert row[cols["mean_quadrature"]] == pytest.approx(row[cols["mean_closed_form"]], rel=1e-6)


def test_validate_quadrature_at_a_subnormal_horizon(tmp_path):
    # The horizon 2**-1040 is subnormal, yet the exact law cuts it into exact
    # cells; the quadrature's uniform density 1/t would overflow to inf.
    run_cli(
        ["validate", "--params", "1,1,8.487983164e-314", "--replications", "10000", "--out", "tiny.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "tiny.csv")
    cols = {name: i for i, name in enumerate(header)}
    row = data[0]
    assert row[cols["horizon"]] == 2.0**-1040
    assert row[cols["mean_quadrature"]] == pytest.approx(2.0**-1041, rel=1e-9)


def test_validate_degenerate_always_on_row(tmp_path):
    # lam=0 start-ON never switches: the exact law and Monte Carlo both put
    # all mass at T=t, and the gap to the (non-degenerate) closed form is
    # exactly the closed-form mass below the final half slot.
    run_cli(
        ["validate", "--params", "0.0,1.0,4.0", "--replications", "10000", "--out", "deg.csv"],
        tmp_path,
    )
    _, header, data = read_table(tmp_path / "deg.csv")
    cols = {name: i for i, name in enumerate(header)}
    row = data[0]
    assert row[cols["exact_mean_start_on"]] == pytest.approx(4.0, abs=1e-12)
    assert row[cols["mc_mean"]] == pytest.approx(4.0, abs=1e-12)
    assert row[cols["mc_stderr"]] == 0.0
    assert row[cols["atom_full_start_on"]] == pytest.approx(1.0, abs=1e-12)
    from onoffnet import OccupancySpec, OnOffParams, on_time_cdf

    spec = OccupancySpec(OnOffParams(0.0, 1.0), 4.0)
    step = 4.0 / 4096
    assert row[cols["tv_start_on"]] == pytest.approx(
        on_time_cdf(spec, 4.0 - step / 2), rel=1e-9
    )

    # One rate zero and the other so large that rate*horizon overflows: the
    # zero must not meet an inf, so no warning, no NaN and no rejection.
    proc = run_cli(
        ["validate", "--params", "1e200,0,10", "--params", "1e300,0,1e10", "--params", "0,1e300,1e10",
         "--replications", "10000", "--out", "huge.csv"],
        tmp_path,
    )
    assert proc.stderr == ""
    _, header, data = read_table(tmp_path / "huge.csv")
    cols = {name: i for i, name in enumerate(header)}
    assert np.all(np.isfinite(data))
    assert data[1, cols["atom_zero_start_off"]] == 1.0
    assert data[2, cols["atom_full_start_on"]] == 1.0
    # Unchanged since before the degenerate-rate branches existed, but for
    # mc_mean, which moved with the sampling stream.
    assert (tmp_path / "huge.csv").read_text().splitlines()[3] == (
        "1e+200,0.0,10.0,-1e+200,1e-200,1e-200,1e-200,0.0,9.942763939550014e-201,0.0,"
        "5.551115123125783e-17,0.0,0.0,0.0,1.0,0.0"
    )


def test_validate_rejects_small_replications(tmp_path):
    proc = run_cli(
        ["validate", "--replications", "100", "--out", "v.csv"], tmp_path, check=False
    )
    assert proc.returncode == 1
    assert "10000" in proc.stderr


def test_validate_has_no_step_option(tmp_path):
    # The exact law is computed on horizon/4096 cells; there is no slot width to choose.
    help_text = run_cli(["validate", "--help"], tmp_path).stdout
    assert "--step" not in help_text
    proc = run_cli(["validate", "--step", "0.005", "--out", "v.csv"], tmp_path, check=False)
    assert proc.returncode == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--seed", "-1", "--out", "x.csv"],
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--lambda", "1", "--mu", "2",
         "--horizon", "10", "--seed", "-1", "--out", "x.csv"],
        ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--horizon", "10",
         "--seed", "-1", "--out", "x.csv"],
    ],
    ids=["validate", "discharge-sampled", "discharge-continuous"],
)
def test_negative_seed_rejected_before_writing(tmp_path, args):
    proc = run_cli(args, tmp_path, check=False)
    assert proc.returncode == 1
    assert "--seed must be >= 0" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_route_rejects_negative_config_seed(tmp_path):
    config = tmp_path / "neg.cfg"
    config.write_text(DIAMOND.read_text().replace("seeds = 42", "seeds = -42"))
    proc = run_cli(["route", "--config", str(config), "--out-dir", "r"], tmp_path, check=False)
    assert proc.returncode == 1
    assert "scenario.seeds" in proc.stderr
    assert not (tmp_path / "r").exists()


def test_route_refuses_unknown_keys_before_writing(tmp_path):
    text = DIAMOND.read_text()
    text = text.replace("seeds = 42", "seeds = 42\nexhaust_treshold = 0.5\nhorizn = 1\nseed = 7\nreplications = 5")
    config = tmp_path / "typo.cfg"
    config.write_text(text.replace("slots = 21", "slots = 21\ne_ful = 0.5\nsltos = 3"))
    proc = run_cli(["route", "--config", str(config), "--out-dir", "r"], tmp_path, check=False)
    assert proc.returncode == 1
    for key in ("scenario.exhaust_treshold", "scenario.horizn", "scenario.seed", "scenario.replications",
                "codec.e_ful", "codec.sltos"):
        assert f"{key}: unknown key" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["typo.cfg"]


def test_route_refuses_round_count_overflow(tmp_path):
    # horizon / hello_period overflows to inf: one diagnostic line, no traceback.
    text = DIAMOND.read_text().replace("horizon = 40", "horizon = 1e300")
    config = tmp_path / "overflow.cfg"
    config.write_text(text.replace("hello_period = 10", "hello_period = 1e-10"))
    proc = run_cli(["route", "--config", str(config), "--out-dir", "r"], tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: invalid config: scenario.hello_period:")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_readme_config_example_loads(tmp_path):
    # The README's INI block is a complete scenario file: the same five-node
    # diamond as configs/diamond.cfg.
    readme = (REPO / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    loaded = load_scenario_config(str(config))
    assert loaded == load_scenario_config(str(DIAMOND))


# --- route ------------------------------------------------------------------------


def test_route_refuses_oversized_codec_slots(tmp_path):
    # A slot count beyond 2**52 + 1 cannot round to the nearest slot: one
    # diagnostic line, no traceback, nothing written.
    config = tmp_path / "slots.cfg"
    config.write_text(DIAMOND.read_text().replace("slots = 21", "slots = " + "9" * 400))
    proc = run_cli(["route", "--config", str(config), "--out-dir", "r"], tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: invalid config: codec: ")
    assert len(proc.stderr.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["slots.cfg"]


def test_route_writes_logs_and_metrics(tmp_path):
    run_cli(["route", "--config", str(DIAMOND), "--out-dir", "routes"], tmp_path)
    out = tmp_path / "routes"
    log = out / "events_seed42.log"
    metrics = out / "metrics.csv"
    assert log.exists() and metrics.exists()
    text = metrics.read_text()
    assert "delivered_routes,4.0" in text
    assert "dead_nodes,0.0" in text
    assert "mean_table_error," in text
    assert "activation_duration_A,inf" in text
    assert any(",route,A,dst=D;path=A>C>E>D" in line for line in log.read_text().splitlines())


def test_route_log_lock(tmp_path):
    # Pins the exact bytes route writes for two seeds of the 64-node lock
    # network: both event logs, headers included, and the metrics table.  The
    # config path is relative, so the headers do not depend on tmp_path.
    (tmp_path / "lock.cfg").write_text(network_lock_config().replace("seeds = 5\n", "seeds = 5 6\n"))
    run_cli(["route", "--config", "lock.cfg", "--out-dir", "lock"], tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / "lock" / name).read_bytes()).hexdigest()
        for name in ("events_seed5.log", "events_seed6.log", "metrics.csv")
    }
    assert digests == {
        "events_seed5.log": "38e0a449beec5fc8b1e628b3c7ee04793af181e6f4890b915ba145f3bdd726fd",
        "events_seed6.log": "33a6c82dc9ce48b54f285d080b210b75093ab6f8c4340b69dd301791005eb44d",
        "metrics.csv": "39dac0b273e26c6a25a4739702392030d850f7dba8376065b7d9a16467e49506",
    }


def test_route_failure_leaves_no_partial_log(tmp_path, monkeypatch):
    # The second seed's run fails after logging a few lines: route reports the
    # error and removes every file it wrote, the half-written log included.
    path = tmp_path / "two.cfg"
    path.write_text(DIAMOND.read_text().replace("seeds = 42", "seeds = 42 43"))
    run_scenario = cli.run_scenario
    seeds = []

    def failing(config, seed, log=None):
        seeds.append(seed)
        if len(seeds) == 2:
            assert (tmp_path / "r" / "events_seed42.log").stat().st_size > 0
            for i in range(3):
                log(f"partial line {i}")
            raise ValueError("scenario failed mid-run")
        return run_scenario(config, seed, log)

    monkeypatch.setattr(cli, "run_scenario", failing)
    assert cli.main(["route", "--config", str(path), "--out-dir", str(tmp_path / "r")]) == 1
    assert seeds == [42, 43]
    assert list((tmp_path / "r").glob("events_seed*.log")) == []
    assert not (tmp_path / "r" / "metrics.csv").exists()


@pytest.mark.parametrize(
    "activity",
    [["--lambda", "1", "--mu", "2", "--seed", "7", "--horizon", "10"], ["--segments", "ON:1,OFF:2,ON:1"]],
    ids=["sampled", "scripted"],
)
def test_discharge_failure_leaves_no_first_file(tmp_path, activity):
    # The trace is written, then the segments file cannot be: its directory
    # is a regular file.  The command fails and removes the trace it wrote.
    (tmp_path / "blocker").write_text("")
    args = ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", *activity,
            "--out", "sampled.csv", "--trajectory-out", "blocker/segs.csv"]
    proc = run_cli(args, tmp_path, check=False)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_discharge_failure_leaves_no_directory_it_made(tmp_path):
    # The trace's directory is made for it; the segments file then cannot be
    # written.  The command removes the trace and the emptied directories.
    (tmp_path / "blocker").write_text("")
    args = ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--segments", "ON:1,OFF:2,ON:1",
            "--out", "newdir/sub/x.csv", "--trajectory-out", "blocker/segs.csv"]
    proc = run_cli(args, tmp_path, check=False)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_discharge_failure_keeps_a_directory_it_did_not_make(tmp_path):
    (tmp_path / "blocker").write_text("")
    (tmp_path / "kept").mkdir()
    args = ["discharge", "--k", "1", "--tau", "2", "--capacity", "4", "--segments", "ON:1",
            "--out", "kept/x.csv", "--trajectory-out", "blocker/segs.csv"]
    assert run_cli(args, tmp_path, check=False).returncode == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_route_writes_under_outdir_by_default(tmp_path):
    # Without --out-dir, route writes straight into ONOFFNET_OUTDIR.
    proc = run_cli(["route", "--config", str(DIAMOND)], tmp_path)
    assert proc.stdout == proc.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events_seed42.log", "metrics.csv"]
    assert "delivered_routes,4.0" in (tmp_path / "metrics.csv").read_text()


def test_route_memory_does_not_grow_with_seeds(tmp_path):
    # Event lines are written as they happen, so the traced peak of a 4-seed
    # route stays near that of one seed instead of holding every seed's log.
    def peak(seeds, name):
        config = tmp_path / f"{name}.cfg"
        config.write_text(network_lock_config().replace("seeds = 5\n", f"seeds = {seeds}\n"))
        tracemalloc.start()
        try:
            assert cli.main(["route", "--config", str(config), "--out-dir", str(tmp_path / name)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("5", "warm-up")
    one, four = peak("5", "one"), peak("5 6 7 8", "four")
    assert four <= 1.25 * one, (one, four)


def test_route_with_period_beyond_horizon(tmp_path):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(
        """
[scenario]
horizon = 5
hello_period = 50
staleness = 10
beta = 1.0
exhaust_threshold = 0.05
seeds = 1

[codec]
d_min = 0.0
d_max = 1.0
slots = 11

[nodes]
A = k=0.001 tau=10 capacity=10 f_init=0.0 lambda=0.0 mu=1.0
B = k=0.001 tau=10 capacity=10 f_init=0.0 lambda=0.0 mu=1.0
C = k=0.001 tau=10 capacity=10 f_init=0.0 lambda=0.0 mu=1.0

[links]
pairs = A-B B-C

[queries]
routes = A:C
""",
        encoding="utf-8",
    )
    run_cli(["route", "--config", str(cfg), "--out-dir", "idle"], tmp_path)
    metrics = (tmp_path / "idle" / "metrics.csv").read_text()
    assert "delivered_routes,0.0" in metrics
    assert "route_queries,0.0" in metrics
    log = (tmp_path / "idle" / "events_seed1.log").read_text().splitlines()
    assert all(line.startswith("#") for line in log)  # no rounds, no events


def test_route_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nhorizon = -1\n", encoding="utf-8")
    proc = run_cli(["route", "--config", str(bad), "--out-dir", "out"], tmp_path, check=False)
    assert proc.returncode == 1
    assert "invalid config" in proc.stderr
    assert not (tmp_path / "out").exists()  # nothing written


# --- cross-cutting -----------------------------------------------------------------


def test_exit_code_zero_on_success(tmp_path):
    proc = run_cli(
        ["density", "--x", "0.5", "--horizon", "1", "--points", "101", "--out", "ok.csv"],
        tmp_path,
    )
    assert proc.returncode == 0


def test_reruns_are_byte_identical(tmp_path):
    args = ["density", "--x", "0.4,1.0", "--horizon", "10", "--points", "501", "--out", "a.csv"]
    run_cli(args, tmp_path)
    first = (tmp_path / "a.csv").read_bytes()
    run_cli(args, tmp_path)
    assert (tmp_path / "a.csv").read_bytes() == first


def test_outputs_resolve_under_outdir_env(tmp_path):
    sub = tmp_path / "designated"
    sub.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "onoffnet.cli", "density", "--x", "0.5",
         "--horizon", "1", "--points", "101", "--out", "envtest.csv"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(sub),
    )
    assert proc.returncode == 0
    assert (sub / "envtest.csv").exists()
    assert not (tmp_path / "envtest.csv").exists()


# --- process entry point ------------------------------------------------------------

# A child that enters through run() and reports, from an atexit hook (which
# runs before interpreter teardown collects), the collector's state.
ENTRY_CHILD = (
    "import atexit, gc\n"
    "from onoffnet.cli import run\n"
    "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
    "run()\n"
)


def test_run_exits_with_collector_off_and_heap_frozen(tmp_path):
    def entry(argv):
        return subprocess.run(
            [sys.executable, "-c", ENTRY_CHILD, *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env(tmp_path),
        )

    ok, missing = entry(README_COMMANDS[0]), entry(["route", "--config", "missing.cfg"])
    assert (ok.returncode, missing.returncode) == (0, 1), (ok.stderr, missing.stderr)
    assert ok.stdout.splitlines() == missing.stdout.splitlines() == ["False True"]
    assert len(missing.stderr.splitlines()) == 1 and missing.stderr.startswith("error: ")
    assert (tmp_path / "fig_density.csv").is_file()

    # In-process callers of main() keep their collector as they had it.
    state = gc.isenabled(), gc.get_freeze_count()
    assert cli.main([*README_COMMANDS[0][:-1], str(tmp_path / "in_process.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_command_garbage_does_not_grow_with_work(tmp_path):
    # What makes run() safe: a command's reference cycles come from its
    # argparse and config parser objects, not from its rounds, seeds or paths,
    # so with the collector off a larger run leaves no more cyclic garbage.
    def garbage(argv):
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()

    def route(seeds):
        config = tmp_path / f"seeds{len(seeds.split())}.cfg"
        config.write_text(network_lock_config().replace("seeds = 5\n", f"seeds = {seeds}\n"))
        return garbage(["route", "--config", str(config), "--out-dir", str(tmp_path / config.stem)])

    def validate(replications):
        return garbage(["validate", "--replications", str(replications), "--out", str(tmp_path / "report.csv")])

    # The first calls pay one-time import garbage.
    route("5")
    validate(10_000)
    one, three = route("5"), route("5 6 7")
    assert three <= one, (one, three)
    small, large = validate(10_000), validate(40_000)
    assert large <= small, (small, large)


def test_package_entry_matches_cli_module(tmp_path):
    # `python -m onoffnet` and `python -m onoffnet.cli` both enter through run().
    for module in ("onoffnet", "onoffnet.cli"):
        outdir = tmp_path / module
        outdir.mkdir()
        run_cli(README_COMMANDS[0], outdir, module=module)
        run_cli(README_COMMANDS[-1], outdir, module=module)
        missing = run_cli(["route", "--config", "missing.cfg"], outdir, check=False, module=module)
        assert missing.returncode == 1, missing.stderr

    def files(module):
        root = tmp_path / module
        return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}

    package, module = files("onoffnet"), files("onoffnet.cli")
    assert sorted(package) == ["fig_density.csv", "results/events_seed42.log", "results/metrics.csv"]
    assert package == module
