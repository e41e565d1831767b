"""Command-line front end: figure data, validation campaigns, routing scenarios.

Subcommands::

    density     tabulate the on-time density (one column per rate gap x)
    mean-curve  tabulate mean ON time against the rate gap x
    discharge   tabulate a battery discharge trace (continuous or ON/OFF)
    validate    closed form vs exact law vs Monte Carlo comparison report
    route       run a routing scenario config, write event logs and metrics

Outputs are CSV with ``#`` comment headers recording the parameters, tool
version and random-generator identifier, so every artifact is regenerable
from its own header.  Relative ``--out`` and ``--out-dir`` paths resolve
under the ``ONOFFNET_OUTDIR`` environment variable (default: current
directory).  Reruns with identical inputs produce byte-identical files, and a
command that fails removes every file it wrote and every directory it made.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Iterable, TextIO

# Only validate loads numpy, and no onoffnet code calls BLAS, yet OpenBLAS
# starts a worker-thread pool when numpy loads, costing validate start-up time
# and CPU; one thread means no pool.  A caller's own value is kept, and library
# users keep numpy's default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# No onoffnet module imports numpy at its top: each function that builds arrays
# imports it itself.  Importing numpy takes longer than a whole figure, sampled
# discharge or route command, which compute on Python floats and sample from
# the standard library's generator, so they never load it.  For the same
# reason no module imports dataclasses (with inspect, about 9 ms), and
# configparser, fractions and random are imported by the functions that use
# them.
from . import __version__
from .activity import GENERATOR_ID, NodeState, OnOffParams, Segment, Trajectory, monte_carlo_on_times, sample_trajectory
from .battery import SodModel, active_time_at, discharge_current, sod_continuous
from .occupancy import (
    OccupancySpec,
    _uniform_grid,
    closed_form_gap,
    density_curve,
    exact_occupation_distribution,
    mean_on_time,
    quad,
)
from .scenario import ConfigError, aggregate_metrics, load_scenario_config, run_scenario


_DEFAULT_VALIDATE_SETS = ((1.0, 3.0, 4.0), (0.2, 1.0, 5.0), (0.5, 0.5, 6.0))

# Figure-grade curves need enough resolution to be judged by shape.
_MIN_CURVE_POINTS = 100


def _tool_header(command: str) -> str:
    return f"# tool=onoffnet version={__version__} command={command} generator={GENERATOR_ID}"


def _resolve_out(path: str) -> Path:
    base = os.environ.get("ONOFFNET_OUTDIR", ".")
    p = Path(path)
    return p if p.is_absolute() else Path(base) / p


# Every directory and file the running command has made, in the order made;
# main() removes them if it fails.
_made: list[Path] = []


def _open_out(path: Path) -> TextIO:
    missing = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    _made.extend(reversed(missing))
    fh = path.open("w", encoding="utf-8")
    _made.append(path)
    return fh


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with _open_out(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def _spec_for_gap(x: float, horizon: float) -> OccupancySpec:
    # The on-time family depends on the rates only through x = mu - lam.
    if x >= 0.0:
        return OccupancySpec(OnOffParams(0.0, x), horizon)
    return OccupancySpec(OnOffParams(-x, 0.0), horizon)


def cmd_density(args: argparse.Namespace) -> None:
    if args.points < _MIN_CURVE_POINTS:
        raise ValueError(f"--points must be >= {_MIN_CURVE_POINTS} for curve output")
    if args.x is not None:
        if args.lam is not None or args.mu is not None:
            raise ValueError("give either --x or --lambda/--mu, not both")
        xs = [float(tok) for tok in args.x.split(",")]
        if not all(map(math.isfinite, xs)):
            raise ValueError(f"--x values must be finite, got {args.x!r}")
        specs = [_spec_for_gap(x, args.horizon) for x in xs]
        header = [
            f"# horizon={args.horizon!r} points={args.points} xs={','.join(repr(x) for x in xs)}",
            "theta," + ",".join(f"x={x!r}" for x in xs),
        ]
    else:
        if args.lam is None or args.mu is None:
            raise ValueError("give --x, or both --lambda and --mu")
        spec = OccupancySpec(OnOffParams(args.lam, args.mu), args.horizon)
        specs = [spec]
        header = [
            f"# lambda={args.lam!r} mu={args.mu!r} horizon={args.horizon!r} x={spec.rate_gap!r}",
            "theta,density",
        ]
    curves = [density_curve(spec, args.points) for spec in specs]
    lines = [_tool_header("density"), *header]
    for i, theta in enumerate(curves[0][0]):
        lines.append(f"{theta!r}," + ",".join(f"{values[i]!r}" for _, values in curves))
    _write_lines(_resolve_out(args.out), lines)


def cmd_mean_curve(args: argparse.Namespace) -> None:
    if args.points < _MIN_CURVE_POINTS:
        raise ValueError(f"--points must be >= {_MIN_CURVE_POINTS} for curve output")
    if not args.x_min < args.x_max:
        raise ValueError(f"need --x-min < --x-max, got {args.x_min} >= {args.x_max}")
    if not math.isfinite(args.x_max - args.x_min):
        raise ValueError(f"need a finite --x-max - --x-min, got {args.x_max!r} - {args.x_min!r}")
    xs = _uniform_grid(args.x_min, args.x_max, args.points)
    lines = [
        _tool_header("mean-curve"),
        f"# horizon={args.horizon!r} x_min={args.x_min!r} x_max={args.x_max!r} points={args.points}",
        "x,mean_on_time",
    ]
    for x in xs:
        lines.append(f"{x!r},{mean_on_time(_spec_for_gap(x, args.horizon))!r}")
    _write_lines(_resolve_out(args.out), lines)


def _scripted_trajectory(spec: str) -> Trajectory:
    segments = []
    start = 0.0
    for token in spec.split(","):
        state_name, sep, dur_raw = token.partition(":")
        if not sep or state_name.upper() not in ("ON", "OFF"):
            raise ValueError(f"expected ON:<dur> or OFF:<dur> tokens, got {token!r}")
        duration = float(dur_raw)
        segments.append(Segment(NodeState[state_name.upper()], start, duration))
        start += duration
    return Trajectory(start, tuple(segments))


def cmd_discharge(args: argparse.Namespace) -> None:
    if args.horizon is not None and not (math.isfinite(args.horizon) and args.horizon > 0.0):
        raise ValueError(f"--horizon must be finite and > 0, got {args.horizon!r}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    model = SodModel(args.k, args.tau, args.capacity, args.f_init)
    traj = None
    if args.segments is not None:
        if args.lam is not None or args.mu is not None:
            raise ValueError("give either --segments or --lambda/--mu, not both")
        if args.horizon is not None:
            raise ValueError("--segments sets the horizon to the segment total; drop --horizon")
        traj = _scripted_trajectory(args.segments)
        horizon = traj.horizon
    elif args.lam is not None or args.mu is not None:
        if args.lam is None or args.mu is None or args.horizon is None:
            raise ValueError("sampled mode needs --lambda, --mu and --horizon")
        traj = sample_trajectory(OnOffParams(args.lam, args.mu), NodeState.ON, args.horizon, args.seed)
        horizon = args.horizon
    else:
        if args.horizon is None:
            raise ValueError("continuous mode needs --horizon")
        if args.trajectory_out is not None:
            raise ValueError("--trajectory-out needs a modulated (scripted or sampled) trace")
        horizon = args.horizon

    times = _uniform_grid(0.0, horizon, args.points)
    if traj is not None:
        # Include segment boundaries so plateaus land exactly on the grid.
        times = sorted({*times, *(seg.start for seg in traj.segments), horizon})

    mode = "continuous" if traj is None else ("scripted" if args.segments else "sampled")
    lines = [
        _tool_header("discharge"),
        f"# k={args.k!r} tau={args.tau!r} capacity={args.capacity!r} f_init={args.f_init!r} "
        f"mode={mode} horizon={horizon!r}",
        "time,sod,active_time,current",
    ]
    for w in times:
        active = w if traj is None else active_time_at(traj, w)
        lines.append(
            f"{w!r},{sod_continuous(model, active)!r},{active!r},"
            f"{discharge_current(model, active)!r}"
        )
    _write_lines(_resolve_out(args.out), lines)

    if args.trajectory_out is not None:
        tlines = [_tool_header("discharge"), "segment_index,state,start,duration"]
        tlines.extend(traj.csv_rows())
        _write_lines(_resolve_out(args.trajectory_out), tlines)


def cmd_validate(args: argparse.Namespace) -> None:
    if args.replications < 10_000:
        raise ValueError(f"--replications must be >= 10000, got {args.replications}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.params:
        sets = []
        for raw in args.params:
            parts = [float(tok) for tok in raw.split(",")]
            if len(parts) != 3:
                raise ValueError(f"--params expects 'lambda,mu,horizon', got {raw!r}")
            sets.append(tuple(parts))
    else:
        sets = list(_DEFAULT_VALIDATE_SETS)

    lines = [
        _tool_header("validate"),
        f"# replications={args.replications} seed={args.seed}",
        "lambda,mu,horizon,x,mean_closed_form,mean_quadrature,"
        "exact_mean_start_on,exact_mean_start_off,mc_mean,mc_stderr,"
        "tv_start_on,tv_start_off,atom_zero_start_on,atom_full_start_on,"
        "atom_zero_start_off,atom_full_start_off",
    ]
    for index, (lam, mu, horizon) in enumerate(sets):
        spec = OccupancySpec(OnOffParams(lam, mu), horizon)
        closed = mean_on_time(spec)
        quad_mean = quad(spec, lambda theta: theta)
        law_on = exact_occupation_distribution(spec, NodeState.ON)
        law_off = exact_occupation_distribution(spec, NodeState.OFF)
        on_times = monte_carlo_on_times(
            spec.params, NodeState.ON, horizon, args.replications, args.seed + index
        )
        mc_mean = float(on_times.mean())
        mc_stderr = float(on_times.std(ddof=1) / math.sqrt(on_times.size))
        row = (
            lam, mu, horizon, spec.rate_gap, closed, quad_mean,
            law_on.mean, law_off.mean, mc_mean, mc_stderr,
            closed_form_gap(law_on), closed_form_gap(law_off),
            law_on.atom_zero, law_on.atom_full, law_off.atom_zero, law_off.atom_full,
        )
        lines.append(",".join(repr(v) for v in row))
    _write_lines(_resolve_out(args.out), lines)


def cmd_route(args: argparse.Namespace) -> None:
    config = load_scenario_config(args.config)
    out_dir = _resolve_out(args.out_dir)
    results = []
    for seed in config.seeds:
        # Each event line goes to the log as it happens; none is kept.
        with _open_out(out_dir / f"events_seed{seed}.log") as fh:
            fh.write(f"{_tool_header('route')}\n# seed={seed} config={args.config}\n")
            results.append(run_scenario(config, seed, lambda line: fh.write(line + "\n")))
    summary = aggregate_metrics(results)
    lines = [
        _tool_header("route"),
        f"# config={args.config} seeds={','.join(str(s) for s in config.seeds)}",
        "metric,value",
    ]
    lines.extend(f"{key},{value!r}" for key, value in summary.items())
    _write_lines(out_dir / "metrics.csv", lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onoffnet",
        description="ON/OFF battery-discharge analytics and energy-aware routing scenarios",
    )
    parser.add_argument("--version", action="version", version=f"onoffnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="tabulate the on-time density over [0, horizon]")
    d.add_argument("--x", help="comma-separated rate gaps; one output column per value")
    d.add_argument("--lambda", dest="lam", type=float, help="ON-leaving rate (with --mu)")
    d.add_argument("--mu", type=float, help="OFF-leaving rate (with --lambda)")
    d.add_argument("--horizon", type=float, required=True)
    d.add_argument("--points", type=int, default=200)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_density)

    m = sub.add_parser("mean-curve", help="tabulate mean ON time against the rate gap")
    m.add_argument("--x-min", type=float, default=0.01)
    m.add_argument("--x-max", type=float, default=1.0)
    m.add_argument("--horizon", type=float, required=True)
    m.add_argument("--points", type=int, default=200)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_mean_curve)

    g = sub.add_parser("discharge", help="tabulate a battery discharge trace")
    g.add_argument("--k", type=float, required=True, help="peak discharge current")
    g.add_argument("--tau", type=float, required=True, help="current decay time constant")
    g.add_argument("--capacity", type=float, required=True, help="nominal capacity")
    g.add_argument("--f-init", type=float, default=0.0, help="initial state of discharge")
    g.add_argument("--lambda", dest="lam", type=float, help="sample activity: ON-leaving rate")
    g.add_argument("--mu", type=float, help="sample activity: OFF-leaving rate")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--segments", help="scripted activity, e.g. 'ON:1,OFF:2,ON:1'")
    g.add_argument("--horizon", type=float)
    g.add_argument("--points", type=int, default=200)
    g.add_argument("--out", required=True)
    g.add_argument("--trajectory-out", help="also write the activity segments as CSV")
    g.set_defaults(func=cmd_discharge)

    v = sub.add_parser("validate", help="closed form vs exact law vs Monte Carlo report")
    v.add_argument("--params", action="append", help="'lambda,mu,horizon' (repeatable)")
    v.add_argument("--replications", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("route", help="run a routing scenario config")
    r.add_argument("--config", required=True)
    r.add_argument("--out-dir", default=".", help="output directory, resolved like --out (default: ONOFFNET_OUTDIR)")
    r.set_defaults(func=cmd_route)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _made.clear()
    try:
        args.func(args)
    except Exception as exc:
        # A failed command leaves none of its files behind, nor the directories
        # it made for them: last made first, and a directory only once empty.
        for path in reversed(_made):
            if not path.is_dir():
                path.unlink(missing_ok=True)
            elif not any(path.iterdir()):
                path.rmdir()
        if not isinstance(exc, (ValueError, OSError)):
            raise
        invalid = "invalid config: " if isinstance(exc, ConfigError) else ""
        print(f"error: {invalid}{exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Process entry point: ``main()`` with the cyclic garbage collector off.

    A command's reference cycles (argparse and config parser objects) do not
    grow with its work, so collecting during the command or at interpreter
    teardown only costs time.  The heap is frozen before exit because
    finalization collects even with the collector disabled.  In-process
    callers of ``main()`` keep their collector.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
