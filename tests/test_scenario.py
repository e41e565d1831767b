"""Tests for scenario config parsing and the HELLO-round event loop."""

import hashlib
import math
import random
import re
from pathlib import Path

import pytest

from onoffnet.battery import sod_continuous
from onoffnet.routing import EnergyTable
from onoffnet.scenario import (
    ConfigError,
    aggregate_metrics,
    load_scenario_config,
    run_scenario,
)

DIAMOND = Path(__file__).resolve().parents[1] / "configs" / "diamond.cfg"


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


PAIR_TEMPLATE = """
[scenario]
horizon = 10
hello_period = 2
staleness = 1
beta = 1.0
exhaust_threshold = 0.05
seeds = 3

[codec]
d_min = 0.0
d_max = 1.0
slots = 21

[nodes]
A = k=0.0001 tau=100 capacity=100 f_init=0.0 lambda=0.0 mu=1.0
B = k=0.5 tau=10 capacity=10 f_init=0.0 lambda=0.0 mu=1.0

[links]
pairs = A-B
"""


# --- config parsing -----------------------------------------------------------


def test_load_diamond_config():
    cfg = load_scenario_config(str(DIAMOND))
    assert sorted(cfg.nodes) == ["A", "B", "C", "D", "E"]
    assert frozenset(("A", "B")) in cfg.links
    assert cfg.codec.slots == 21
    assert cfg.beta == 2.0
    assert cfg.seeds == (42,)
    assert cfg.queries == (("A", "D"),)


def test_config_errors_enumerate_fields(tmp_path):
    path = write_config(
        tmp_path,
        """
[scenario]
horizon = -5
hello_period = 2
staleness = 1
beta = -1
exhaust_threshold = 1.5
seeds = 1 1

[codec]
d_min = 1.0
d_max = 0.5
slots = 9

[nodes]
A = k=1 tau=1 capacity=1 f_init=0.0 lambda=0.0 mu=1.0
B = k=1 tau=1 capacity=1 f_init=0.0 mu=1.0

[links]
pairs = A-Z A-A
""",
    )
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    joined = "\n".join(excinfo.value.errors)
    for needle in (
        "scenario.horizon",
        "scenario.beta",
        "scenario.exhaust_threshold",
        "scenario.seeds",
        "codec",
        "nodes.B",
        "links.pairs",
    ):
        assert needle in joined


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_config_rejects_non_finite_beta(tmp_path, beta):
    path = write_config(tmp_path, PAIR_TEMPLATE.replace("beta = 1.0", f"beta = {beta}"))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert [e for e in excinfo.value.errors if e.startswith("scenario.beta:")]


def test_config_rejects_non_finite_codec_bound(tmp_path):
    path = write_config(tmp_path, PAIR_TEMPLATE.replace("d_max = 1.0", "d_max = inf"))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert [e for e in excinfo.value.errors if e.startswith("codec:") and "d_max" in e]


@pytest.mark.parametrize(
    "line,field",
    [("seeds = 3 -1", "scenario.seeds:")],
    ids=["seeds"],
)
def test_config_rejects_negative_seed(tmp_path, line, field):
    path = write_config(tmp_path, PAIR_TEMPLATE.replace("seeds = 3", line))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert [e for e in excinfo.value.errors if e.startswith(field) and ">= 0" in e]


def test_config_rejects_empty_seeds(tmp_path):
    path = write_config(tmp_path, PAIR_TEMPLATE.replace("seeds = 3", "seeds ="))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert excinfo.value.errors == ["scenario.seeds: at least one seed is required"]


def test_config_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, PAIR_TEMPLATE + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_scenario_config(path)


def test_config_rejects_unknown_keys(tmp_path):
    # Keys outside the format (here a second seed spelling, a second spelling
    # of route --out-dir and a codec full scale) refuse the file, each by
    # name, rather than being ignored.
    text = PAIR_TEMPLATE.replace("seeds = 3", "seeds = 3\nseed = 10\nreplications = 3\nout_dir = runs")
    path = write_config(tmp_path, text.replace("slots = 21", "slots = 21\ne_full = 0.5"))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert excinfo.value.errors == [
        "scenario.seed: unknown key",
        "scenario.replications: unknown key",
        "scenario.out_dir: unknown key",
        "codec.e_full: unknown key",
    ]


# Every key of the format, with bad values for it and the prefix each error
# takes: the key's own name, or `codec` where the bounds and the slot count
# parsed but HelloCodec refused them.  A key with no bad value takes any text.
FORMAT_TEMPLATE = PAIR_TEMPLATE + "\n[queries]\nroutes = A:B\n"
FORMAT_KEYS = [
    ("scenario.horizon", ["ten", "0", "-1", "nan", "inf"]),
    ("scenario.hello_period", ["ten", "0", "-2", "nan", "inf"]),
    ("scenario.staleness", ["ten", "-1", "nan", "inf"]),
    ("scenario.beta", ["ten", "-0.5", "nan", "inf"]),
    ("scenario.exhaust_threshold", ["ten", "-0.1", "1", "nan"]),
    ("scenario.seeds", ["ten", "", "3 3", "3 -1", "2.5"]),
    ("codec.d_min", ["ten", ("nan", "codec:"), ("1.0", "codec:")]),
    ("codec.d_max", ["ten", ("inf", "codec:"), ("0.0", "codec:")]),
    ("codec.slots", ["ten", "2.5", ("1", "codec:")]),
    ("links.pairs", ["A", "A-", "-B", "A:B", "A-A", "A-Z"]),
    ("queries.routes", ["A", "A:", ":B", "A-B", "A:A", "A:Z"]),
]
OPTIONAL_KEYS = {"queries.routes": ()}


@pytest.mark.parametrize("key,bad_values", FORMAT_KEYS, ids=[key for key, _ in FORMAT_KEYS])
def test_format_key_by_key(tmp_path, key, bad_values):
    section, name = key.split(".")
    line = re.search(rf"^{name} = .*$", FORMAT_TEMPLATE, re.M).group(0)
    field = {"pairs": "links", "routes": "queries"}.get(name, name)
    if key in OPTIONAL_KEYS:
        loaded = load_scenario_config(write_config(tmp_path, FORMAT_TEMPLATE.replace(line + "\n", "")))
        assert getattr(loaded, field) == OPTIONAL_KEYS[key]
    else:
        with pytest.raises(ConfigError) as excinfo:
            load_scenario_config(write_config(tmp_path, FORMAT_TEMPLATE.replace(line + "\n", "")))
        assert excinfo.value.errors == [f"{key}: missing"]
    for bad in bad_values:
        value, prefix = bad if isinstance(bad, tuple) else (bad, f"{key}:")
        with pytest.raises(ConfigError) as excinfo:
            load_scenario_config(write_config(tmp_path, FORMAT_TEMPLATE.replace(line, f"{name} = {value}")))
        assert len(excinfo.value.errors) == 1 and excinfo.value.errors[0].startswith(prefix), (value, excinfo.value)


@pytest.mark.parametrize("key,token", [("links.pairs", "Z-Z"), ("queries.routes", "Z:Z")])
def test_pair_naming_one_unknown_node_twice(tmp_path, key, token):
    # The token form is checked first, then that both nodes exist, then that
    # they differ: a pair naming one unknown node twice is an unknown node.
    name = key.split(".")[1]
    text = re.sub(rf"^{name} = .*$", f"{name} = {token}", FORMAT_TEMPLATE, flags=re.M)
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(write_config(tmp_path, text))
    assert excinfo.value.errors == [f"{key}: {token!r} references unknown node"]


def test_config_rejects_round_count_overflow(tmp_path):
    # Both values are finite and positive, but horizon / hello_period is not.
    text = DIAMOND.read_text().replace("horizon = 40", "horizon = 1e300")
    path = write_config(tmp_path, text.replace("hello_period = 10", "hello_period = 1e-10"))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_config(path)
    assert len(excinfo.value.errors) == 1
    assert excinfo.value.errors[0].startswith("scenario.hello_period:")


# --- event loop ----------------------------------------------------------------


def test_run_is_deterministic():
    cfg = load_scenario_config(str(DIAMOND))
    a = run_scenario(cfg, 42)
    b = run_scenario(cfg, 42)
    assert a.events == b.events
    assert a.metrics == b.metrics


def test_decoded_energy_tracks_true_residual(tmp_path):
    # Constant-ON pair: at every round the decoded neighbour energy sits
    # within half a quantisation slot of the true residual at that instant.
    cfg = load_scenario_config(write_config(tmp_path, PAIR_TEMPLATE))
    result = run_scenario(cfg, cfg.seeds[0])
    model_b = cfg.nodes["B"].model
    half_slot = 1.0 / (2 * (cfg.codec.slots - 1))
    table_events = [e for e in result.events if ",table,A," in e]
    assert len(table_events) == 5  # one per round
    for line in table_events:
        time = float(line.split(",")[0])
        energy = float(line.rsplit("energy=", 1)[1])
        truth = 1.0 - sod_continuous(model_b, time)  # B is always ON
        assert abs(energy - truth) <= half_slot + 1e-12
    assert result.metrics["mean_table_error"] <= half_slot + 1e-12


def test_node_death_removes_routes(tmp_path):
    # B's battery saturates between the first and second round; the A->C
    # route exists exactly once and B vanishes from the topology afterwards.
    path = write_config(
        tmp_path,
        """
[scenario]
horizon = 6
hello_period = 2
staleness = 10
beta = 1.0
exhaust_threshold = 0.1
seeds = 7

[codec]
d_min = 0.0
d_max = 1.0
slots = 21

[nodes]
A = k=0.0001 tau=100 capacity=100 f_init=0.05 lambda=0.0 mu=1.0
B = k=0.6 tau=2 capacity=1 f_init=0.0 lambda=0.0 mu=1.0
C = k=0.0001 tau=100 capacity=100 f_init=0.0 lambda=0.0 mu=1.0

[links]
pairs = A-B B-C

[queries]
routes = A:C
""",
    )
    cfg = load_scenario_config(path)
    assert sod_continuous(cfg.nodes["B"].model, 4.0) == 1.0  # saturates by round 2
    result = run_scenario(cfg, cfg.seeds[0])
    routes = [e for e in result.events if ",route,A," in e]
    assert len(routes) == 3
    assert "path=A>B>C" in routes[0]
    assert "path=none" in routes[1]
    assert "path=none" in routes[2]
    deaths = [e for e in result.events if ",death," in e]
    assert len(deaths) == 1
    assert deaths[0].startswith("4.0,death,B,")
    assert result.metrics["dead_nodes"] == 1.0
    assert result.metrics["delivered_routes"] == 1.0


# Output lock: relay B dies in round 3, which cuts A off from F; C and D beacon
# in the same slot at E every round; A reaches E through C throughout.
LOCK_CONFIG = """
[scenario]
horizon = 12
hello_period = 2
staleness = 5
beta = 1.5
exhaust_threshold = 0.1
seeds = 11

[codec]
d_min = 0.0
d_max = 1.0
slots = 16

[nodes]
A = k=0.001 tau=100 capacity=10 f_init=0.1 lambda=0.5 mu=1.0
B = k=0.3 tau=5 capacity=1 f_init=0.0 lambda=0.0 mu=0.5
C = k=0.001 tau=100 capacity=10 f_init=0.2 lambda=0.0 mu=1.0
D = k=0.001 tau=100 capacity=10 f_init=0.2 lambda=0.0 mu=1.0
E = k=0.001 tau=100 capacity=10 f_init=0.3 lambda=1.0 mu=1.0
F = k=0.001 tau=100 capacity=10 f_init=0.0 lambda=1.0 mu=2.0

[links]
pairs = A-B B-E A-C C-E D-E B-F

[queries]
routes = A:F A:E
"""


def test_output_lock(tmp_path):
    # Pins the exact bytes of one run; a refactor of the event loop or of
    # route selection must leave both digests unchanged.  B never leaves ON
    # (lambda=0), so its death, and the routes it cuts, do not depend on the
    # bit stream.
    result = run_scenario(load_scenario_config(write_config(tmp_path, LOCK_CONFIG)), 11)
    events = "\n".join(result.events)
    assert "6.0,death,B," in events
    assert ",collision,E,slot=12;senders=C|D" in events
    assert "6.0,route,A,dst=F;path=none" in events
    assert "2.0,route,A,dst=F;path=A>B>F;cost=2.7" in events
    metrics = "\n".join(f"{key},{value!r}" for key, value in result.metrics.items())
    assert hashlib.sha256(events.encode()).hexdigest() == (
        "f6075b75800e4da4724239de714b2bbd2c1bf615067f8d3b29057eb1cfe0ce1f"
    )
    assert hashlib.sha256(metrics.encode()).hexdigest() == (
        "718c7634e97a137a83761c09e93392a1da5bb4ee071a22f3019a4ae620a29363"
    )


def network_lock_config() -> str:
    """A 64-node scenario drawn from ``random.Random(2024)``, for the second lock.

    N00 starts dead (f_init >= 1 - exhaust_threshold); N01-N03 never leave ON
    (lambda=0) and N04-N06 never leave OFF once there (mu=0); eight slots make
    collisions common; staleness above the HELLO period keeps dead
    neighbours' last records fresh, so they feed ``mean_table_error``.
    """
    rng = random.Random(2024)
    ids = [f"N{i:02d}" for i in range(64)]
    pos = [(rng.random(), rng.random()) for _ in ids]
    nodes = []
    for i, nid in enumerate(ids):
        k = rng.uniform(0.002, 0.04)
        tau = rng.uniform(5.0, 60.0)
        f_init = 0.97 if i == 0 else rng.uniform(0.0, 0.5)
        lam = 0.0 if 1 <= i <= 3 else rng.uniform(0.1, 3.0)
        mu = 0.0 if 4 <= i <= 6 else rng.uniform(0.1, 3.0)
        nodes.append(f"{nid} = k={k!r} tau={tau!r} capacity=1 f_init={f_init!r} lambda={lam!r} mu={mu!r}")
    pairs = [
        f"{a}-{b}"
        for i, (a, pa) in enumerate(zip(ids, pos))
        for b, pb in zip(ids[i + 1:], pos[i + 1:])
        if (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2 < 0.2**2
    ]
    routes = [f"{src}:{dst}" for src, dst in (rng.sample(ids, 2) for _ in range(8))]
    return "\n".join([
        "[scenario]",
        "horizon = 40",
        "hello_period = 2",
        "staleness = 5",
        "beta = 1.5",
        "exhaust_threshold = 0.05",
        "seeds = 5",
        "[codec]",
        "d_min = 0.0",
        "d_max = 1.0",
        "slots = 8",
        "[nodes]",
        *nodes,
        "[links]",
        f"pairs = {' '.join(pairs)}",
        "[queries]",
        f"routes = {' '.join(routes)}",
    ]) + "\n"


def test_network_output_lock(tmp_path):
    # Pins the exact bytes of a sampled run on a network large enough to
    # exercise every branch of the per-node sampling: rate-0 states, deaths
    # at t=0 and mid-run, collisions, and stale-but-fresh records of dead
    # neighbours.
    result = run_scenario(load_scenario_config(write_config(tmp_path, network_lock_config())), 5)
    events = "\n".join(result.events)
    assert "0.0,death,N00,sod=0.97;active_time=0.0" in events
    assert ",collision," in events
    assert "20.0,death,N10," in events
    assert result.metrics["dead_nodes"] == 8.0
    metrics = "\n".join(f"{key},{value!r}" for key, value in result.metrics.items())
    assert hashlib.sha256(events.encode()).hexdigest() == (
        "e16f0fd67372093cb973fdaa938ad631d8ecc005dde6abeea953e30b6c5dcd45"
    )
    assert hashlib.sha256(metrics.encode()).hexdigest() == (
        "ea17e6fedb88f05581afcc757cabcc0813a7d1dd9628b4c43ddbf90caf2a44ff"
    )


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("network", ["diamond", "lock"])
def test_log_sink_gets_the_event_lines(tmp_path, network, seed):
    # A sink sees the lines of the collected log, in order, and none is kept.
    path = str(DIAMOND) if network == "diamond" else write_config(tmp_path, network_lock_config())
    config = load_scenario_config(path)
    lines = []
    streamed = run_scenario(config, seed, lines.append)
    collected = run_scenario(config, seed)
    assert lines == list(collected.events)
    assert len(lines) > 20
    assert streamed.events == ()
    assert streamed.metrics == collected.metrics


def test_fresh_records_are_selected_once_per_alive_node_per_round(tmp_path, monkeypatch):
    # Every alive node beacons once per round, so hello_sent counts the alive
    # receivers of all rounds: six in rounds 1-2, five after B dies in round 3.
    calls = []
    fresh = EnergyTable.fresh

    def counted(self, now, staleness):
        calls.append(now)
        return fresh(self, now, staleness)

    monkeypatch.setattr(EnergyTable, "fresh", counted)
    result = run_scenario(load_scenario_config(write_config(tmp_path, LOCK_CONFIG)), 11)
    assert result.metrics["route_queries"] == 12.0
    assert len(calls) == result.metrics["hello_sent"] == 2 * 6 + 4 * 5
    assert calls == sorted(calls)


def test_node_draws_do_not_depend_on_other_deaths(tmp_path):
    # A, first in sorted order, gets a tiny capacity and dies early; every
    # other node keeps its own generator, so its beacons do not move.
    drained = LOCK_CONFIG.replace(
        "A = k=0.001 tau=100 capacity=10 ", "A = k=0.001 tau=100 capacity=0.001 "
    )
    assert drained != LOCK_CONFIG
    base = run_scenario(load_scenario_config(write_config(tmp_path, LOCK_CONFIG)), 11)
    changed = run_scenario(load_scenario_config(write_config(tmp_path, drained)), 11)
    assert not any(",death,A," in e for e in base.events)
    assert any(e.startswith("2.0,death,A,") for e in changed.events)
    for nid in "CDEF":
        hellos = [e for e in base.events if f",hello,{nid}," in e]
        assert len(hellos) == 6
        assert [e for e in changed.events if f",hello,{nid}," in e] == hellos


def test_period_longer_than_horizon_yields_nothing(tmp_path):
    cfg = load_scenario_config(
        write_config(tmp_path, PAIR_TEMPLATE.replace("hello_period = 2", "hello_period = 50"))
    )
    result = run_scenario(cfg, cfg.seeds[0])
    assert result.events == ()
    assert result.metrics["rounds"] == 0.0
    assert result.metrics["hello_sent"] == 0.0
    assert result.metrics["delivered_routes"] == 0.0
    assert math.isnan(result.metrics["mean_table_error"])


def test_same_slot_neighbours_collide(tmp_path):
    # A and B start at identical residuals, so C hears two beacons in the
    # same slot every round and never learns either energy.
    path = write_config(
        tmp_path,
        """
[scenario]
horizon = 4
hello_period = 2
staleness = 10
beta = 0.0
exhaust_threshold = 0.05
seeds = 5

[codec]
d_min = 0.0
d_max = 1.0
slots = 11

[nodes]
A = k=0.0001 tau=100 capacity=100 f_init=0.0 lambda=0.0 mu=1.0
B = k=0.0001 tau=100 capacity=100 f_init=0.0 lambda=0.0 mu=1.0
C = k=0.0001 tau=100 capacity=100 f_init=0.2 lambda=0.0 mu=1.0

[links]
pairs = A-C B-C
""",
    )
    result = run_scenario(load_scenario_config(path), 5)
    collisions = [e for e in result.events if ",collision,C," in e]
    assert len(collisions) == 2  # one per round
    assert "senders=A|B" in collisions[0]
    assert not any(",table,C," in e for e in result.events)
    # A and B each still hear C cleanly.
    assert any(",table,A,neighbor=C" in e for e in result.events)
    assert result.metrics["hello_dropped"] == 4.0


def test_diamond_beta_flip_threshold():
    # Costs: short 2 + 0.8*beta vs long 3 + 0.1*beta, crossing at beta = 10/7.
    cfg = load_scenario_config(str(DIAMOND))
    below = cfg._replace(beta=10.0 / 7.0 - 0.05)
    above = cfg._replace(beta=10.0 / 7.0 + 0.05)
    route_below = [e for e in run_scenario(below, 42).events if ",route,A," in e][0]
    route_above = [e for e in run_scenario(above, 42).events if ",route,A," in e][0]
    assert "path=A>B>D" in route_below
    assert "path=A>C>E>D" in route_above


def test_diamond_routes_all_rounds():
    cfg = load_scenario_config(str(DIAMOND))
    result = run_scenario(cfg, 42)
    routes = [e for e in result.events if ",route,A," in e]
    assert len(routes) == 4
    assert all("path=A>C>E>D" in line for line in routes)
    assert result.metrics["delivered_routes"] == 4.0
    assert result.metrics["hello_dropped"] == 0.0


def test_activation_duration_metric():
    cfg = load_scenario_config(str(DIAMOND))
    result = run_scenario(cfg, 42)
    # Diamond batteries can never reach full discharge (asymptote 1e-4 above
    # the initial state), so the standard activation duration is infinite.
    assert result.metrics["activation_duration_A"] == math.inf


def test_aggregate_metrics_averages(tmp_path):
    cfg = load_scenario_config(
        write_config(tmp_path, PAIR_TEMPLATE.replace("seeds = 3", "seeds = 3 4"))
    )
    results = [run_scenario(cfg, seed) for seed in cfg.seeds]
    summary = aggregate_metrics(results)
    assert summary["rounds"] == 5.0
    expected = sum(r.metrics["mean_table_error"] for r in results) / 2
    assert summary["mean_table_error"] == pytest.approx(expected, rel=1e-15)
