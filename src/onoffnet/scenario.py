"""Scenario configuration and the deterministic HELLO-round event loop.

A scenario file is INI-style key/value text (sections ``[scenario]``,
``[codec]``, ``[nodes]``, ``[links]``, optional ``[queries]``).  Per HELLO
period every alive node's ON/OFF activity discharges its battery by the
active time, and the node beacons its residual energy as a slot-quantised
HELLO delay; receivers drop same-slot beacons pairwise (conservative
collision rule) and decode the rest into their energy tables; each table's
records within the staleness horizon are then selected once, and configured
route queries are answered from them.  A node whose residual energy falls to
the exhaustion threshold dies and leaves the topology.

A node's activity, discharge and death depend only on its own parameters and
its own exponential stream, seeded once per run by (seed, node index in
sorted order): beacons cost no energy and reception does not feed back.  So
each round's residual energies and deaths come from ``_node_paths``, a
function of (config, seed) that steps each alive node through one HELLO
period at a time, and the round loop does network work only: it logs
deaths, sends and receives beacons, selects fresh records and answers
routes.  Each event line goes to
a sink as it happens (``run_scenario``'s ``log``, which ``route`` points at the
open log file), so a run need not hold its log.
Everything is iterated in sorted node order, so a run is a pure function of
(config, seed): identical inputs give byte-identical event logs.  A beacon's
delay and decoded energy depend on its slot alone and are worked out once per
slot; the table record of a slot is built once per round and shared by every
receiver that hears a beacon in that slot alone.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Callable, Iterator, NamedTuple

from .activity import OnOffParams, _path
from .battery import SodModel, predict_lifetime, sod_continuous
from .routing import (
    EnergyTable,
    HelloCodec,
    NetworkGraph,
    TableEntry,
    decode_energy,
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


class NodeSetup(NamedTuple):
    model: SodModel
    activity: OnOffParams


class ScenarioConfig(NamedTuple):
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


class ScenarioResult(NamedTuple):
    seed: int
    events: tuple[str, ...]
    metrics: dict[str, float]


def _parse_node(node_id: str, raw: str) -> NodeSetup:
    if not _NODE_ID.match(node_id):
        raise ValueError("invalid node id")
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
    return NodeSetup(
        SodModel(fields["k"], fields["tau"], fields["capacity"], fields["f_init"]),
        OnOffParams(fields["lambda"], fields["mu"]),
    )


def _parse_seeds(raw: str) -> tuple[int, ...]:
    seeds = tuple(int(tok) for tok in raw.split())
    if not seeds:
        raise ValueError("at least one seed is required")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be unique")
    return seeds


def _ranged(ok: Callable[[float], bool], rule: str, raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and ok(value)):
        raise ValueError(f"must {rule}, got {value}")
    return value


def _read_pairs(sep: str, form: str, same: str, raw: str, nodes: dict) -> tuple[tuple[str, str], ...]:
    """``A<sep>B`` tokens as pairs of two ``nodes``; a ConfigError names each bad token once."""
    pairs, errors = [], []
    for token in raw.split():
        a, found, b = token.partition(sep)
        if not (found and a and b):
            errors.append(f"expected {form} tokens, got {token!r}")
        elif a not in nodes or b not in nodes:
            errors.append(f"{token!r} references unknown node")
        elif a == b:
            errors.append(f"{same} {token!r}")
        else:
            pairs.append((a, b))
    if errors:
        raise ConfigError(errors)
    return tuple(pairs)


# The file format: section -> key -> the cast that reads the key's value and
# raises ValueError on a bad one; the keys of [nodes] (None) are node ids.
# Only the _OPTIONAL sections and keys may be left out.
_FORMAT: dict[str, dict[str, Callable] | None] = {
    "scenario": {
        "horizon": partial(_ranged, lambda v: v > 0, "be finite and > 0"),
        "hello_period": partial(_ranged, lambda v: v > 0, "be finite and > 0"),
        "staleness": partial(_ranged, lambda v: v >= 0, "be finite and >= 0"),
        "beta": partial(_ranged, lambda v: v >= 0, "be finite and >= 0"),
        "exhaust_threshold": partial(_ranged, lambda v: 0 <= v < 1, "lie in [0, 1)"),
        "seeds": _parse_seeds,
    },
    "codec": {"d_min": float, "d_max": float, "slots": int},
    "nodes": None,
    "links": {"pairs": partial(_read_pairs, "-", "A-B", "self-link")},
    "queries": {"routes": partial(_read_pairs, ":", "SRC:DST", "src and dst coincide in")},
}
_OPTIONAL = ("queries", "routes")


def load_scenario_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError naming every bad field.

    ``_FORMAT`` states the sections, their keys and how each key is read; an
    unknown section or key is refused by name before any field is read.
    ``seeds`` gives one run per seed: one or more distinct non-negative integers.
    """
    import configparser  # here, not at the top: no other command reads a config
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # node ids are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([str(exc).replace("\n", " ")]) from exc

    errors = [f"{section}: unknown section" for section in parser.sections() if section not in _FORMAT]
    for section, keys in _FORMAT.items():
        if not parser.has_section(section):
            if section not in _OPTIONAL:
                errors.append(f"{section}: missing section")
        elif keys is not None:
            errors += [f"{section}.{key}: unknown key" for key in parser.options(section) if key not in keys]
    if errors:
        raise ConfigError(errors)

    values: dict[str, object] = {}
    nodes: dict[str, NodeSetup] = {}
    for section, keys in _FORMAT.items():
        if keys is None:
            for node_id in parser.options(section):
                try:
                    nodes[node_id] = _parse_node(node_id, parser.get(section, node_id))
                except ValueError as exc:
                    errors.append(f"{section}.{node_id}: {exc}")
            if not nodes:
                errors.append(f"{section}: at least one node is required")
            continue
        for key, cast in keys.items():
            raw = parser.get(section, key, fallback=None)
            if raw is None:
                if key not in _OPTIONAL:
                    errors.append(f"{section}.{key}: missing")
                continue
            try:
                values[key] = cast(raw, nodes) if section in ("links", "queries") else cast(raw)
            except ValueError as exc:
                errors += [f"{section}.{key}: {message}" for message in getattr(exc, "errors", [exc])]

    codec = None
    if {"d_min", "d_max", "slots"} <= values.keys():
        try:
            codec = HelloCodec(values["d_min"], values["d_max"], values["slots"])
        except ValueError as exc:
            errors.append(f"codec: {exc}")
    # run_scenario counts floor(horizon / hello_period + 1e-9) rounds.
    if {"horizon", "hello_period"} <= values.keys() and math.isinf(values["horizon"] / values["hello_period"]):
        errors.append(f"scenario.hello_period: horizon / hello_period overflows, got {values['hello_period']}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        nodes=nodes,
        links=frozenset(map(frozenset, values["pairs"])),
        codec=codec,
        hello_period=values["hello_period"],
        staleness=values["staleness"],
        beta=values["beta"],
        exhaust_threshold=values["exhaust_threshold"],
        horizon=values["horizon"],
        seeds=values["seeds"],
        queries=values.get("routes", ()),
    )


def _node_paths(
    config: ScenarioConfig, seed: int, n_rounds: int
) -> Iterator[tuple[dict[str, float], list[tuple[str, float, float]]]]:
    """Yield, for rounds ``k = 0, ..., n_rounds``, residual energies and deaths.

    Node ``i`` (in sorted order) draws from ``random.Random(f"{seed}:{i}")``;
    a string seed is hashed with SHA-512, so the stream does not depend on the
    Python version.  Every node starts ON; per round each node still alive
    runs ``_path`` over one HELLO period, from the state its last period
    ended in, and adds the period's ON time to its active time.  Round ``k``
    yields a map from each node alive at its start (every node for ``k = 0``)
    to its residual energy ``1 - sod`` after the round, and ``(node, sod,
    active_time)``, in sorted order, for the nodes whose residual is then at
    most the exhaustion threshold.  Nothing here reads the network, so the
    sequence is a function of ``(config, seed)`` alone; it is produced round
    by round to hold one round in memory.
    """
    import random  # here, not at the top: the figure commands never sample
    node_ids = sorted(config.nodes)
    setups = [config.nodes[nid] for nid in node_ids]
    rands = [random.Random(f"{seed}:{i}").random for i in range(len(node_ids))]
    on = [True] * len(node_ids)
    active = [0.0] * len(node_ids)
    sod = [setup.model.initial_sod for setup in setups]
    alive = list(range(len(node_ids)))
    for round_index in range(n_rounds + 1):
        if round_index:
            for i in alive:
                lam, mu = setups[i].activity
                period_on_time, on[i] = _path(lam, mu, on[i], config.hello_period, rands[i])
                active[i] += period_on_time
                sod[i] = sod_continuous(setups[i].model, active[i])
        dead = [i for i in alive if 1.0 - sod[i] <= config.exhaust_threshold]
        yield {node_ids[i]: 1.0 - sod[i] for i in alive}, [(node_ids[i], sod[i], active[i]) for i in dead]
        alive = [i for i in alive if i not in dead]


def run_scenario(
    config: ScenarioConfig, seed: int, log: Callable[[str], object] | None = None
) -> ScenarioResult:
    """Run one replication; returns its summary metrics and, without ``log``, its event log.

    Deterministic in (config, seed).  Events are ``time,event_kind,node,details``
    lines; kinds are ``death``, ``hello``, ``collision``, ``table`` and
    ``route`` (``path=none`` when no admissible route exists).  Each line is
    handed to ``log`` as it happens, if given, and none is kept: the result's
    ``events`` is then empty.  Without ``log`` the lines are collected into
    ``events``.
    """
    node_ids = sorted(config.nodes)
    codec = config.codec
    n_rounds = int(math.floor(config.horizon / config.hello_period + 1e-9))
    residual: dict[str, float] = {}  # each node's latest residual; a dead node keeps its last
    tables: dict[str, EnergyTable] = {nid: EnergyTable() for nid in node_ids}
    graph = NetworkGraph(frozenset(node_ids), config.links)
    beacon: dict[int, tuple[str, float, str]] = {}  # slot -> (delay repr, energy, energy repr)

    events: list[str] = []
    emit = events.append if log is None else log

    hello_sent = 0
    hello_dropped = 0
    table_updates = 0
    route_queries = 0
    delivered_routes = 0
    error_sum = 0.0
    error_count = 0

    for round_index, (round_residual, dying) in enumerate(_node_paths(config, seed, n_rounds)):
        now = round_index * config.hello_period
        stamp = repr(now)
        residual.update(round_residual)
        for nid, sod, active_time in dying:
            graph = graph.drop_node(nid)
            emit(f"{stamp},death,{nid},sod={sod!r};active_time={active_time!r}")
        if not round_index:  # round 0 only logs the nodes that start exhausted
            continue
        alive = sorted(graph.nodes)

        # HELLO beacons, slotted by residual energy; a slot's delay and
        # decoded energy are worked out the first time it is sent, and its
        # table record once per round, shared by every receiver.
        slot_of: dict[str, int] = {}
        entries: dict[int, TableEntry] = {}
        for nid in alive:
            slot = slot_of[nid] = encode_slot(codec, residual[nid])
            if slot not in beacon:
                delay = codec.delay(slot)
                energy = decode_energy(codec, delay)
                beacon[slot] = (repr(delay), energy, repr(energy))
            if slot not in entries:
                entries[slot] = TableEntry(beacon[slot][1], now)
            emit(f"{stamp},hello,{nid},slot={slot};delay={beacon[slot][0]};residual={residual[nid]!r}")
        hello_sent += len(alive)

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
                    emit(f"{stamp},collision,{receiver},slot={slot};senders={'|'.join(group)}")
                    continue
                sender = group[0]
                records[sender] = entries[slot]
                table_updates += 1
                emit(f"{stamp},table,{receiver},neighbor={sender};energy={beacon[slot][2]}")

        # Each receiver's fresh records, decided once per round; the table
        # accuracy bookkeeping and every route query read this one view.
        known = {receiver: tables[receiver].fresh(now, config.staleness) for receiver in alive}
        for receiver in alive:
            for neighbor, energy in sorted(known[receiver].items()):
                error_sum += abs(energy - residual[neighbor])
                error_count += 1

        # Route queries answered from the fresh records.
        for src, dst in config.queries:
            route_queries += 1
            result = None
            if src in graph.nodes and dst in graph.nodes:
                result = select_route(graph, known, src, dst, config.beta, config.exhaust_threshold)
            if result is None:
                emit(f"{stamp},route,{src},dst={dst};path=none")
            else:
                delivered_routes += 1
                emit(f"{stamp},route,{src},dst={dst};path={'>'.join(result.path)};cost={result.cost!r}")

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
