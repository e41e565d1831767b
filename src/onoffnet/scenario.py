"""Scenario configuration and the deterministic HELLO-round event loop.

A scenario file is INI-style key/value text (sections ``[scenario]``,
``[codec]``, ``[nodes]``, ``[links]``, optional ``[queries]``).  Per HELLO
period every alive node samples its ON/OFF activity, discharges its battery
by the active time, and beacons its residual energy as a slot-quantised HELLO
delay; receivers drop same-slot beacons pairwise (conservative collision
rule) and decode the rest into their energy tables; each table's records
within the staleness horizon are then selected once, and configured route
queries are answered from them.  A node whose residual energy falls to the
exhaustion threshold dies and leaves the topology.

Everything is iterated in sorted node order; the alive nodes are sorted
once per round, after that round's deaths.  Each node draws its activity
from its own exponential stream, seeded once per run by (seed, node index in
sorted order), so a node's draws do not depend on other nodes' deaths and a
run is a pure function of (config, seed): identical inputs give
byte-identical event logs.  Each beacon is decoded once per round, where it
is sent, and every receiver that hears it alone writes that energy into its
own table in place.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from .activity import NodeState, OnOffParams, exponential_stream, sample_on_time
from .battery import BatteryState, SodModel, advance, predict_lifetime
from .routing import (
    EnergyTable,
    HelloCodec,
    NetworkGraph,
    TableEntry,
    decode_energy,
    encode_delay,
    encode_slot,
    select_route,
)

_NODE_ID = re.compile(r"^[A-Za-z0-9_]+$")

_NODE_KEYS = ("k", "tau", "capacity", "f_init", "lambda", "mu")


class ConfigError(ValueError):
    """Scenario file rejected; ``errors`` lists one message per offending field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class NodeSetup:
    model: SodModel
    activity: OnOffParams


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description; see ``load_scenario_config`` for the file format."""

    nodes: dict[str, NodeSetup]
    links: frozenset[frozenset[str]]
    codec: HelloCodec
    hello_period: float
    staleness: float
    beta: float
    exhaust_threshold: float
    horizon: float
    seeds: tuple[int, ...]
    queries: tuple[tuple[str, str], ...] = ()
    out_dir: str | None = None


@dataclass(frozen=True)
class ScenarioResult:
    seed: int
    events: tuple[str, ...]
    metrics: dict[str, float]


def _parse_node_line(raw: str) -> dict[str, float]:
    fields: dict[str, float] = {}
    for token in raw.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value tokens, got {token!r}")
        if key not in _NODE_KEYS:
            raise ValueError(f"unknown node key {key!r} (expected one of {', '.join(_NODE_KEYS)})")
        if key in fields:
            raise ValueError(f"duplicate node key {key!r}")
        fields[key] = float(value)
    missing = [k for k in _NODE_KEYS if k not in fields]
    if missing:
        raise ValueError(f"missing node key(s): {', '.join(missing)}")
    return fields


def load_scenario_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError naming every bad field."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # node ids are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([str(exc).replace("\n", " ")]) from exc

    errors: list[str] = []

    def grab(section: str, key: str, cast, default=None, required: bool = True):
        if not parser.has_option(section, key):
            if required:
                errors.append(f"{section}.{key}: missing")
            return default
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            errors.append(f"{section}.{key}: {exc}")
            return default

    for section in parser.sections():
        if section not in ("scenario", "codec", "nodes", "links", "queries"):
            errors.append(f"{section}: unknown section")
    for section in ("scenario", "codec", "nodes", "links"):
        if not parser.has_section(section):
            errors.append(f"{section}: missing section")
    if errors:
        raise ConfigError(errors)

    horizon = grab("scenario", "horizon", float)
    hello_period = grab("scenario", "hello_period", float)
    staleness = grab("scenario", "staleness", float)
    beta = grab("scenario", "beta", float)
    exhaust_threshold = grab("scenario", "exhaust_threshold", float)
    out_dir = grab("scenario", "out_dir", str, required=False)

    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        errors.append(f"scenario.horizon: must be finite and > 0, got {horizon}")
    if hello_period is not None and not (math.isfinite(hello_period) and hello_period > 0):
        errors.append(f"scenario.hello_period: must be finite and > 0, got {hello_period}")
    if staleness is not None and not (math.isfinite(staleness) and staleness >= 0):
        errors.append(f"scenario.staleness: must be finite and >= 0, got {staleness}")
    if beta is not None and not (math.isfinite(beta) and beta >= 0):
        errors.append(f"scenario.beta: must be finite and >= 0, got {beta}")
    if exhaust_threshold is not None and not 0 <= exhaust_threshold < 1:
        errors.append(f"scenario.exhaust_threshold: must lie in [0, 1), got {exhaust_threshold}")

    seeds: tuple[int, ...] = ()
    if parser.has_option("scenario", "seeds"):
        try:
            seeds = tuple(int(tok) for tok in parser.get("scenario", "seeds").split())
        except ValueError as exc:
            errors.append(f"scenario.seeds: {exc}")
        if any(seed < 0 for seed in seeds):
            errors.append(f"scenario.seeds: seeds must be >= 0, got {min(seeds)}")
    elif parser.has_option("scenario", "seed"):
        base = grab("scenario", "seed", int)
        replications = grab("scenario", "replications", int, default=1, required=False)
        if base is not None and base < 0:
            errors.append(f"scenario.seed: must be >= 0, got {base}")
        if replications is not None and replications < 1:
            errors.append(f"scenario.replications: must be >= 1, got {replications}")
        if base is not None and replications is not None:
            seeds = tuple(base + i for i in range(replications))
    else:
        errors.append("scenario.seeds: missing (give 'seeds' or 'seed')")
    if seeds and len(set(seeds)) != len(seeds):
        errors.append("scenario.seeds: seeds must be unique")

    codec = None
    d_min = grab("codec", "d_min", float)
    d_max = grab("codec", "d_max", float)
    slots = grab("codec", "slots", int)
    e_full = grab("codec", "e_full", float, default=1.0, required=False)
    if None not in (d_min, d_max, slots, e_full):
        try:
            codec = HelloCodec(d_min, d_max, slots, e_full)
        except ValueError as exc:
            errors.append(f"codec: {exc}")

    nodes: dict[str, NodeSetup] = {}
    for node_id in parser.options("nodes"):
        if not _NODE_ID.match(node_id):
            errors.append(f"nodes.{node_id}: invalid node id")
            continue
        try:
            fields = _parse_node_line(parser.get("nodes", node_id))
            model = SodModel(fields["k"], fields["tau"], fields["capacity"], fields["f_init"])
            activity = OnOffParams(fields["lambda"], fields["mu"])
        except ValueError as exc:
            errors.append(f"nodes.{node_id}: {exc}")
            continue
        nodes[node_id] = NodeSetup(model, activity)
    if not nodes:
        errors.append("nodes: at least one node is required")

    links: set[frozenset[str]] = set()
    pairs_raw = grab("links", "pairs", str, default="")
    for token in (pairs_raw or "").split():
        a, sep, b = token.partition("-")
        if not sep or not a or not b:
            errors.append(f"links.pairs: expected A-B tokens, got {token!r}")
            continue
        if a == b:
            errors.append(f"links.pairs: self-link {token!r}")
            continue
        if a not in nodes or b not in nodes:
            errors.append(f"links.pairs: {token!r} references unknown node")
            continue
        links.add(frozenset((a, b)))

    queries: list[tuple[str, str]] = []
    if parser.has_section("queries"):
        routes_raw = grab("queries", "routes", str, default="", required=False)
        for token in (routes_raw or "").split():
            src, sep, dst = token.partition(":")
            if not sep or not src or not dst:
                errors.append(f"queries.routes: expected SRC:DST tokens, got {token!r}")
                continue
            if src not in nodes or dst not in nodes:
                errors.append(f"queries.routes: {token!r} references unknown node")
                continue
            if src == dst:
                errors.append(f"queries.routes: src and dst coincide in {token!r}")
                continue
            queries.append((src, dst))

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        nodes=nodes,
        links=frozenset(links),
        codec=codec,
        hello_period=hello_period,
        staleness=staleness,
        beta=beta,
        exhaust_threshold=exhaust_threshold,
        horizon=horizon,
        seeds=seeds,
        queries=tuple(queries),
        out_dir=out_dir,
    )


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> ScenarioResult:
    """Run one replication; returns the event log and summary metrics.

    Deterministic in (config, seed).  Events are ``time,event_kind,node,details``
    lines; kinds are ``death``, ``hello``, ``collision``, ``table`` and
    ``route`` (``path=none`` when no admissible route exists).
    """
    if seed is None:
        seed = config.seeds[0]
    node_ids = sorted(config.nodes)
    draws = {nid: exponential_stream(np.random.default_rng((seed, i))) for i, nid in enumerate(node_ids)}
    battery = {nid: BatteryState.fresh(config.nodes[nid].model) for nid in node_ids}
    chain_state = {nid: NodeState.ON for nid in node_ids}
    tables: dict[str, EnergyTable] = {nid: EnergyTable() for nid in node_ids}
    graph = NetworkGraph(frozenset(node_ids), config.links)
    alive = node_ids

    events: list[str] = []

    def log(time: float, kind: str, node: str, details: str) -> None:
        events.append(f"{time!r},{kind},{node},{details}")

    hello_sent = 0
    hello_dropped = 0
    table_updates = 0
    route_queries = 0
    delivered_routes = 0
    error_sum = 0.0
    error_count = 0

    def check_deaths(now: float) -> None:
        nonlocal graph, alive
        for nid in alive:
            state = battery[nid]
            if state.residual_energy <= config.exhaust_threshold:
                graph = graph.drop_node(nid)
                log(now, "death", nid, f"sod={state.sod!r};active_time={state.active_time!r}")
        alive = sorted(graph.nodes)

    check_deaths(0.0)

    n_rounds = int(math.floor(config.horizon / config.hello_period + 1e-9))
    for round_index in range(1, n_rounds + 1):
        now = round_index * config.hello_period

        # Activity and discharge over the elapsed period.
        for nid in alive:
            on_time, chain_state[nid] = sample_on_time(
                config.nodes[nid].activity,
                chain_state[nid],
                config.hello_period,
                draws[nid],
            )
            battery[nid] = advance(battery[nid], on_time)
        check_deaths(now)

        # HELLO beacons, slotted by residual energy; each decodes to one energy.
        slot_of: dict[str, int] = {}
        energy_of: dict[str, float] = {}
        for nid in alive:
            residual = battery[nid].residual_energy
            slot_of[nid] = encode_slot(config.codec, residual)
            delay = encode_delay(config.codec, residual)
            energy_of[nid] = decode_energy(config.codec, delay)
            hello_sent += 1
            log(now, "hello", nid, f"slot={slot_of[nid]};delay={delay!r};residual={residual!r}")

        # Per-receiver reception; same-slot beacons cancel each other out.
        for receiver in alive:
            records = tables[receiver].records
            by_slot: dict[int, list[str]] = {}
            for sender in graph.neighbors(receiver):
                by_slot.setdefault(slot_of[sender], []).append(sender)
            for slot in sorted(by_slot):
                group = by_slot[slot]
                if len(group) > 1:
                    hello_dropped += len(group)
                    log(now, "collision", receiver, f"slot={slot};senders={'|'.join(group)}")
                    continue
                sender = group[0]
                records[sender] = TableEntry(energy_of[sender], now)
                table_updates += 1
                log(now, "table", receiver, f"neighbor={sender};energy={energy_of[sender]!r}")

        # Each receiver's fresh records, decided once per round; the table
        # accuracy bookkeeping and every route query read this one view.
        known = {receiver: tables[receiver].fresh(now, config.staleness) for receiver in alive}
        for receiver in alive:
            for neighbor, energy in sorted(known[receiver].items()):
                error_sum += abs(energy - battery[neighbor].residual_energy)
                error_count += 1

        # Route queries answered from the fresh records.
        for src, dst in config.queries:
            route_queries += 1
            if src not in graph.nodes or dst not in graph.nodes:
                log(now, "route", src, f"dst={dst};path=none")
                continue
            result = select_route(graph, known, src, dst, config.beta, config.exhaust_threshold)
            if result is None:
                log(now, "route", src, f"dst={dst};path=none")
            else:
                delivered_routes += 1
                log(now, "route", src, f"dst={dst};path={'>'.join(result.path)};cost={result.cost!r}")

    metrics: dict[str, float] = {
        "rounds": float(n_rounds),
        "hello_sent": float(hello_sent),
        "hello_dropped": float(hello_dropped),
        "table_updates": float(table_updates),
        "route_queries": float(route_queries),
        "delivered_routes": float(delivered_routes),
        "dead_nodes": float(len(node_ids) - len(graph.nodes)),
        "mean_table_error": error_sum / error_count if error_count else math.nan,
    }
    for nid in node_ids:
        metrics[f"activation_duration_{nid}"] = predict_lifetime(config.nodes[nid].model, 1.0)
    return ScenarioResult(seed, tuple(events), metrics)


def aggregate_metrics(results: list[ScenarioResult]) -> dict[str, float]:
    """Mean of each metric across replications, keyed like the per-run metrics.

    Results are folded in seed order so the aggregate is independent of the
    order replications were produced in.
    """
    if not results:
        raise ValueError("need at least one result")
    ordered = sorted(results, key=lambda r: r.seed)
    keys = list(ordered[0].metrics)
    return {key: sum(r.metrics[key] for r in ordered) / len(ordered) for key in keys}
