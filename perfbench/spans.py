"""In-memory span recorder for the traced benchmark run, and its arithmetic.

A span is ``(trace, parent, name, start, end)``; its id is its index in the
recorder's list and ``parent`` is the id of the span open when it started
(-1 for a root).  One trace id covers one CLI command.  Spans are kept in
memory and written once, when the run ends.

``instrument`` wraps the package's public functions.  Modules that did
``from .x import y`` hold their own reference to ``y``, so every module
attribute bound to the original function is replaced, not only the defining
one; methods are patched on their class.

Self time is a span's duration minus the part of its interval that its
children cover.  Metrics of a name are ``calls`` and ``s`` over the outermost
spans of that name (a span nested in another span of the same name is not
counted twice) and ``self_s`` over all of its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute); "Class.method" patches a method.
TRACED = (
    ("cli.main", "onoffnet.cli", "main"),
    ("cli.cmd_density", "onoffnet.cli", "cmd_density"),
    ("cli.cmd_mean_curve", "onoffnet.cli", "cmd_mean_curve"),
    ("cli.cmd_discharge", "onoffnet.cli", "cmd_discharge"),
    ("cli.cmd_validate", "onoffnet.cli", "cmd_validate"),
    ("cli.cmd_route", "onoffnet.cli", "cmd_route"),
    ("cli.quadrature", "onoffnet.cli", "quad"),
    ("activity.sample_trajectory", "onoffnet.activity", "sample_trajectory"),
    ("activity.monte_carlo_on_times", "onoffnet.activity", "monte_carlo_on_times"),
    ("activity.total_on_time", "onoffnet.activity", "total_on_time"),
    ("occupancy.exact_occupation_distribution", "onoffnet.occupancy", "exact_occupation_distribution"),
    ("occupancy.closed_form_gap", "onoffnet.occupancy", "closed_form_gap"),
    ("occupancy.on_time_density", "onoffnet.occupancy", "on_time_density"),
    ("occupancy.density_curve", "onoffnet.occupancy", "density_curve"),
    ("occupancy.mean_on_time", "onoffnet.occupancy", "mean_on_time"),
    ("battery.active_time_at", "onoffnet.battery", "active_time_at"),
    ("battery.sod_continuous", "onoffnet.battery", "sod_continuous"),
    ("battery.advance", "onoffnet.battery", "advance"),
    ("routing.select_route", "onoffnet.routing", "select_route"),
    ("routing.neighbors", "onoffnet.routing", "NetworkGraph.neighbors"),
    ("routing.fresh", "onoffnet.routing", "EnergyTable.fresh"),
    ("routing.update_energy_table", "onoffnet.routing", "update_energy_table"),
    ("routing.encode", "onoffnet.routing", "encode_slot"),
    ("routing.encode", "onoffnet.routing", "encode_delay"),
    ("scenario.load_scenario_config", "onoffnet.scenario", "load_scenario_config"),
    ("scenario.run_scenario", "onoffnet.scenario", "run_scenario"),
)


def _count_segments(counters, result):
    counters["activity.segments"] += len(result.segments)


def _count_dp_slots(counters, result):
    counters["occupancy.dp_slot_steps"] += result.on_times.size - 1


def _count_delivered(counters, result):
    counters["routing.delivered"] += result is not None


def _count_scenario(counters, result):
    for key in ("rounds", "hello_sent", "hello_dropped", "table_updates"):
        counters[f"scenario.{key}"] += int(result.metrics[key])
    counters["scenario.events"] += len(result.events)


# Counters read from return values, at the same boundary as the span.
HOOKS = {
    "activity.sample_trajectory": _count_segments,
    "occupancy.exact_occupation_distribution": _count_dp_slots,
    "routing.select_route": _count_delivered,
    "scenario.run_scenario": _count_scenario,
}


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace = 0
        self.counters: defaultdict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.trace, parent, name, self.clock(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,trace,parent,name,start,end\n")
            for sid, (trace, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{trace},{parent},{name},{start!r},{end!r}\n")


def instrument(recorder: Recorder) -> None:
    """Replace every traced function, in every ``onoffnet`` module bound to it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "onoffnet" or n.startswith("onoffnet.")]
    for name, module_name, attr in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals inside it."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for trace, parent, name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (trace, parent, name, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """``name -> {calls, s, self_s}``; calls and s count outermost spans only."""
    selfs = self_times(spans)
    stats: defaultdict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, (trace, parent, name, start, end) in enumerate(spans):
        entry = stats[name]
        entry["self_s"] += selfs[sid]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][2] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["calls"] += 1
            entry["s"] += end - start
    return dict(stats)


def child_counts(spans, child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(1 for _, p, name, _, _ in spans if name == child and p >= 0 and spans[p][2] == parent)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer benchmark metrics from one traced run's spans and counters."""
    stats = aggregate(spans)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for cmd in ("density", "mean_curve", "discharge", "validate", "route"):
        m[f"cli.cmd_{cmd}.self_s"] = get(f"cli.cmd_{cmd}", "self_s")
    m["cli.quadrature.s"] = get("cli.quadrature", "s")

    for name, keys in (
        ("activity.sample_trajectory", ("calls", "s")),
        ("activity.monte_carlo_on_times", ("s",)),
        ("activity.total_on_time", ("s",)),
        ("occupancy.exact_occupation_distribution", ("calls", "s")),
        ("occupancy.closed_form_gap", ("s",)),
        ("occupancy.on_time_density", ("calls",)),
        ("occupancy.density_curve", ("s",)),
        ("occupancy.mean_on_time", ("s",)),
        ("battery.active_time_at", ("calls", "s")),
        ("battery.sod_continuous", ("calls",)),
        ("battery.advance", ("calls", "s")),
        ("routing.select_route", ("calls", "s", "self_s")),
        ("routing.neighbors", ("calls", "s")),
        ("routing.update_energy_table", ("calls", "s")),
        ("routing.encode", ("calls", "s")),
        ("scenario.load_scenario_config", ("s",)),
        ("scenario.run_scenario", ("s", "self_s")),
    ):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)

    queries = get("routing.select_route", "calls")
    m["activity.segments_per_trajectory"] = ratio(counters["activity.segments"], get("activity.sample_trajectory", "calls"))
    m["occupancy.dp_slot_steps"] = counters["occupancy.dp_slot_steps"]
    m["routing.adjacency_builds_per_query"] = ratio(get("routing.neighbors", "calls"), queries)
    m["routing.fresh_calls_per_query"] = ratio(child_counts(spans, "routing.fresh", "routing.select_route"), queries)
    m["routing.delivered_ratio"] = ratio(counters["routing.delivered"], queries)
    m["scenario.round_s"] = ratio(get("scenario.run_scenario", "s"), counters["scenario.rounds"])
    m["scenario.node_rounds"] = counters["scenario.hello_sent"]
    m["scenario.events"] = counters["scenario.events"]
    updates = counters["scenario.table_updates"]
    m["scenario.reception_useful_ratio"] = ratio(updates, updates + counters["scenario.hello_dropped"])
    return m
