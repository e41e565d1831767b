"""The benchmark's workloads and the map from per-layer to end-to-end metrics.

Each workload is a closed loop: one client runs one ``onoffnet`` command at a
time and starts the next only when the previous one has exited.  A workload
writes its inputs into the work directory (``make_inputs``) and names its
command sequence; each command lists the artifacts it must write, the check
that judges them and the units of work they record.  Checks and work counts
read files through ``read(relative_path) -> text``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import rgg

Reader = Callable[[str], str]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    check: Callable[[Reader], list[str]]
    work: Callable[[Reader], float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit_of_work: str
    inputs: str
    make_inputs: Callable[[Path, int], dict]
    commands: Callable[[int], list[Command]]


def _one(read: Reader) -> float:
    return 1.0


def _no_inputs(wdir: Path, seed: int) -> dict:
    return {}


def _figure(argv: tuple[str, ...], check) -> Command:
    """A figure or trace command; ``check`` gets the texts of its outputs."""
    outs = tuple(argv[i + 1] for i, tok in enumerate(argv) if tok in ("--out", "--trajectory-out"))
    return Command(argv, outs, lambda read: check(*(read(p) for p in outs)), _one)


def _figure_commands(seed: int) -> list[Command]:
    cell = ("--k", "1", "--tau", "2", "--capacity", "4")
    return [
        _figure(("density", "--x", "0.4,0.6,0.8,1.0", "--horizon", "10", "--points", "200",
                 "--out", "out/fig_density.csv"), checks.check_density),
        _figure(("density", "--lambda", "0.5", "--mu", "1.0", "--horizon", "2", "--points", "200",
                 "--out", "out/single.csv"), checks.check_density),
        _figure(("mean-curve", "--x-min", "0.01", "--x-max", "1.0", "--horizon", "10", "--points", "200",
                 "--out", "out/fig_mean.csv"), lambda text: checks.check_mean_curve(text, 10.0)),
        _figure(("discharge", *cell, "--horizon", "100", "--out", "out/continuous.csv"), checks.check_discharge),
        _figure(("discharge", *cell, "--segments", "ON:1,OFF:2,ON:1", "--out", "out/modulated.csv",
                 "--trajectory-out", "out/segments.csv"), checks.check_discharge),
        # A long sampled trace: active_time_at costs O(points x segments) here.
        _figure(("discharge", *cell, "--lambda", "1", "--mu", "2", "--seed", str(seed), "--horizon", "500",
                 "--points", "500", "--out", "out/sampled.csv", "--trajectory-out", "out/sampled_segments.csv"),
                checks.check_discharge),
    ]


VALIDATE_REPLICATIONS = 20_000


def _validate_command(seed: int) -> Command:
    out = "out/report.csv"
    return Command(
        ("validate", "--replications", str(VALIDATE_REPLICATIONS), "--seed", str(seed), "--out", out),
        (out,),
        lambda read: checks.check_validate(read(out)),
        _one,
    )


# name -> (nodes, radius, queries per round, horizon) of a generated RGG scenario;
# the horizon is 20 and 10 HELLO rounds.
SCENARIOS = {
    "beacon": (400, 0.07, 0, 20 * rgg.HELLO_PERIOD),
    "query": (200, 0.1, 16, 10 * rgg.HELLO_PERIOD),
}


def _config(name: str) -> str:
    return f"inputs/{name}.cfg"


def _rgg_inputs(wdir: Path, seed: int) -> dict:
    stats = {}
    for name, (nodes, radius, queries, horizon) in SCENARIOS.items():
        text, stats[name] = rgg.generate(nodes, radius, queries, horizon, seed)
        path = wdir / _config(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return stats


def _route_command(name: str, seed: int) -> Command:
    config = _config(name)
    events, metrics = f"out/{name}/events_seed{seed}.log", f"out/{name}/metrics.csv"
    return Command(
        ("route", "--config", config, "--out-dir", f"out/{name}"),
        (events, metrics),
        lambda read: checks.check_route(read(events), read(metrics), read(config)),
        lambda read: checks.metric_rows(read(metrics))["hello_sent"],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures-validate",
            "README figure commands (import-bound; one long sampled trace for battery) plus validate "
            "(Monte Carlo and exact-law DP); routing and scenario never run",
            "commands",
            "the README density, mean-curve and discharge commands, a sampled trace (lambda 1, mu 2, "
            f"horizon 500, 500 points, seeded), then validate --replications {VALIDATE_REPLICATIONS} "
            "on the three default parameter sets, seeded",
            _no_inputs,
            lambda seed: [*_figure_commands(seed), _validate_command(seed)],
        ),
        Workload(
            "route-scenarios",
            "HELLO rounds on a 400-node RGG without queries, then 16 queries per round on a 200-node RGG: "
            "scenario rounds, table writes and O(N*E) neighbour scans",
            "alive node-rounds",
            "beacon: RGG 400 nodes, radius 0.07, 20 HELLO rounds, no queries; "
            "query: RGG 200 nodes, radius 0.1, 10 HELLO rounds, 16 src:dst queries per round",
            _rgg_inputs,
            lambda seed: [_route_command(name, seed) for name in SCENARIOS],
        ),
    )
}


# Which end-to-end metric, on which workload, each group of per-layer metrics
# should move; "no_change" lists the workloads where the prediction is none,
# "little" those where it is a small share of the wall time.
LAYER_MAP = (
    {"layer": "cli", "metrics": ["cli.interpreter_s", "cli.import_s"],
     "moves": [["cmd_p50_s", "figures-validate"]], "little": ["route-scenarios"]},
    {"layer": "cli", "metrics": [f"cli.cmd_{c}.self_s" for c in ("density", "mean_curve", "discharge", "validate", "route")]
     + ["cli.output_bytes"], "moves": [["wall_s", "figures-validate"]]},
    {"layer": "cli", "metrics": ["cli.quadrature.s"], "moves": [["wall_s", "figures-validate"]]},
    {"layer": "activity",
     "metrics": ["activity.sample_trajectory.calls", "activity.sample_trajectory.s", "activity.monte_carlo_on_times.s",
                 "activity.total_on_time.s", "activity.segments_per_trajectory"],
     "moves": [["wall_s", "figures-validate"], ["work_per_s", "route-scenarios"]]},
    {"layer": "occupancy",
     "metrics": ["occupancy.exact_occupation_distribution.calls", "occupancy.exact_occupation_distribution.s",
                 "occupancy.dp_slot_steps", "occupancy.closed_form_gap.s", "occupancy.on_time_density.calls",
                 "occupancy.density_curve.s", "occupancy.mean_on_time.s"],
     "moves": [["wall_s", "figures-validate"]], "no_change": ["route-scenarios"]},
    {"layer": "battery",
     "metrics": ["battery.active_time_at.calls", "battery.active_time_at.s", "battery.sod_continuous.calls",
                 "battery.advance.calls", "battery.advance.s"],
     "moves": [["wall_s", "figures-validate"]]},
    {"layer": "routing",
     "metrics": ["routing.select_route.calls", "routing.select_route.s", "routing.select_route.self_s",
                 "routing.neighbors.calls", "routing.neighbors.s", "routing.adjacency_builds_per_query",
                 "routing.fresh_calls_per_query", "routing.delivered_ratio"],
     "moves": [["work_per_s", "route-scenarios"]], "no_change": ["figures-validate"]},
    {"layer": "routing",
     "metrics": ["routing.update_energy_table.calls", "routing.update_energy_table.s", "routing.encode.calls",
                 "routing.encode.s"],
     "moves": [["work_per_s", "route-scenarios"]], "no_change": ["figures-validate"]},
    {"layer": "scenario",
     "metrics": ["scenario.load_scenario_config.s", "scenario.run_scenario.s", "scenario.run_scenario.self_s",
                 "scenario.round_s", "scenario.node_rounds", "scenario.events", "scenario.reception_useful_ratio"],
     "moves": [["wall_s", "route-scenarios"]], "no_change": ["figures-validate"]},
    {"layer": "trace", "metrics": ["trace.overhead_frac"], "moves": []},
)
