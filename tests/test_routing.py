"""Tests for the HELLO codec, energy tables and energy-aware route selection,
and for the record contract of the package's value types.

Route selection is checked against an independent brute-force enumeration of
all simple paths that prices edges with the same rule (relay cost
``1 + beta*(1 - E)``, unit destination hop, left-to-right accumulation) and
breaks cost ties on the lexicographically smallest path.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onoffnet.activity import NodeState, OnOffParams, Segment
from onoffnet.battery import BatteryState, SodModel
from onoffnet.occupancy import OccupancySpec, exact_occupation_distribution
from onoffnet.routing import (
    EnergyTable,
    HelloCodec,
    NetworkGraph,
    RouteResult,
    TableEntry,
    collision_probability,
    decode_energy,
    encode_delay,
    encode_slot,
    select_route,
    update_energy_table,
)
from onoffnet.scenario import NodeSetup, ScenarioConfig, ScenarioResult

CODEC = HelloCodec(d_min=0.0, d_max=1.0, slots=11)


def make_graph(ids, links):
    return NetworkGraph(frozenset(ids), frozenset(frozenset(pair) for pair in links))


def known_from_energies(graph: NetworkGraph, energies: dict[str, float]):
    """Every node's fresh view holds each neighbour's true energy."""
    return {nid: {nbr: energies[nbr] for nbr in graph.neighbors(nid)} for nid in graph.nodes}


def brute_force_route(graph, known, src, dst, beta, threshold):
    """Exhaustive minimum-cost simple-path search with identical edge pricing."""
    adjacency = {nid: graph.neighbors(nid) for nid in graph.nodes}
    best = None

    def extend(path, cost):
        nonlocal best
        node = path[-1]
        if node == dst:
            candidate = (cost, tuple(path))
            if best is None or candidate < best:
                best = candidate
            return
        for nxt in adjacency[node]:
            if nxt in path:
                continue
            if nxt == dst:
                edge = 1.0
            else:
                energy = known.get(node, {}).get(nxt)
                if energy is None or energy <= threshold:
                    continue
                edge = 1.0 + beta * (1.0 - energy)
            extend(path + [nxt], cost + edge)

    extend([src], 0.0)
    return best


# --- codec -------------------------------------------------------------------


def test_codec_validation():
    with pytest.raises(ValueError):
        HelloCodec(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        HelloCodec(0.0, 1.0, 1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d_max"):
            HelloCodec(0.0, bad, 8)
    for bad in (2.5, 2.0):  # a fractional slot count gives fractional slots
        with pytest.raises(ValueError, match="slots must be an integer"):
            HelloCodec(0.0, 1.0, bad)
    assert type(HelloCodec(0.0, 1.0, np.int64(3)).slots) is int
    # Up to 2**52 + 1 slots, x + 0.5 still rounds x to its nearest slot; past
    # it an odd slot index x + 0.5 ties to the even slot above.
    top = HelloCodec(0.0, 1.0, 2**52 + 1)
    assert encode_slot(top, 1.0 - 2.0**-52) == 2**52 - 1
    for bad in (2**52 + 2, 2**53 + 1, 10**400):
        with pytest.raises(ValueError, match=r"slots must be at most 2\*\*52 \+ 1"):
            HelloCodec(0.0, 1.0, bad)


def test_encode_endpoints():
    codec = HelloCodec(0.2, 1.4, 7)
    assert encode_delay(codec, 0.0) == 0.2
    assert encode_delay(codec, 1.0) == 1.4
    # Here d_min + (d_max - d_min) rounds one ulp above d_max.
    codec = HelloCodec(2.684544737527804, 5.969224975130442, 15)
    assert encode_delay(codec, 1.0) == codec.d_max
    assert decode_energy(codec, encode_delay(codec, 1.0)) == 1.0


def test_encode_hand_quantisation():
    # residual 0.73 on 11 slots lands in slot 7 -> delay 0.7; exhaustive over
    # the representable energies as well.
    assert encode_slot(CODEC, 0.73) == 7
    assert encode_delay(CODEC, 0.73) == pytest.approx(0.7, rel=1e-15)
    for slot in range(11):
        assert encode_slot(CODEC, slot / 10) == slot


def test_encode_monotone():
    rng = np.random.default_rng(4)
    values = np.sort(rng.uniform(0.0, 1.0, 200))
    delays = [encode_delay(CODEC, v) for v in values]
    assert all(b >= a for a, b in zip(delays, delays[1:]))


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_delay(CODEC, -0.01)
    with pytest.raises(ValueError):
        encode_delay(CODEC, 1.01)


def test_decode_endpoints():
    assert decode_energy(CODEC, 0.0) == 0.0
    assert decode_energy(CODEC, 1.0) == 1.0


def test_decode_inverts_encode():
    assert decode_energy(CODEC, 0.7) == pytest.approx(0.7, rel=1e-15)


def test_decode_tolerates_sub_half_slot_perturbation():
    assert decode_energy(CODEC, 0.7 + 0.04) == pytest.approx(0.7, rel=1e-15)
    assert decode_energy(CODEC, 0.7 - 0.04) == pytest.approx(0.7, rel=1e-15)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_energy(CODEC, 1.2)


def test_round_trip_error_within_half_slot():
    rng = np.random.default_rng(17)
    half_slot = 1.0 / (2 * (CODEC.slots - 1))
    for residual in rng.uniform(0.0, 1.0, 10_000):
        recovered = decode_energy(CODEC, encode_delay(CODEC, residual))
        assert abs(recovered - residual) <= half_slot + 1e-15
        # decode(encode(decode(...))) is idempotent on representable values
        assert decode_energy(CODEC, encode_delay(CODEC, recovered)) == recovered


# --- collision probability ------------------------------------------------------


def test_collision_two_nodes():
    assert collision_probability(HelloCodec(0.0, 1.0, 10), 2) == pytest.approx(0.1, rel=1e-15)


def test_collision_frozen_value():
    assert collision_probability(HelloCodec(0.0, 1.0, 10), 4) == pytest.approx(0.496, rel=1e-15)


def test_collision_pigeonhole():
    assert collision_probability(HelloCodec(0.0, 1.0, 3), 4) == 1.0


def test_collision_rejects_single_node():
    with pytest.raises(ValueError):
        collision_probability(CODEC, 1)


def test_collision_matches_enumeration_exactly():
    # Exhaustive count over slot assignments, vectorised; exact integer match.
    for L, n in [(2, 2), (3, 3), (5, 4), (10, 4), (12, 5)]:
        grids = np.meshgrid(*([np.arange(L)] * n), indexing="ij")
        assignments = np.stack([g.ravel() for g in grids], axis=1)
        ordered = np.sort(assignments, axis=1)
        collides = (np.diff(ordered, axis=1) == 0).any(axis=1)
        count = int(collides.sum())
        assert count == L**n - math.perm(L, n)
        expected = float(Fraction(count, L**n))
        assert collision_probability(HelloCodec(0.0, 1.0, L), n) == expected


# --- energy tables ----------------------------------------------------------------


def test_table_insert_and_replace():
    table = EnergyTable()
    table = update_energy_table(table, "B", 0.7, now=1.0, codec=CODEC)
    assert table.records["B"] == TableEntry(0.7, 1.0)
    table = update_energy_table(table, "B", 0.3, now=2.0, codec=CODEC)
    assert len(table.records) == 1
    assert table.records["B"] == TableEntry(0.3, 2.0)


def test_table_freshness_window():
    table = EnergyTable({"B": TableEntry(0.5, 10.0), "C": TableEntry(0.9, 2.0)})
    assert table.fresh(now=12.0, staleness=5.0) == {"B": 0.5}
    assert table.fresh(now=12.0, staleness=10.0) == {"B": 0.5, "C": 0.9}


# --- graph ------------------------------------------------------------------------


def test_graph_rejects_bad_links():
    with pytest.raises(ValueError):
        make_graph(["A"], [("A", "A")])
    with pytest.raises(ValueError):
        make_graph(["A", "B"], [("A", "Z")])


def test_graph_drop_node():
    graph = make_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    reduced = graph.drop_node("B")
    assert set(reduced.nodes) == {"A", "C"}
    assert reduced.neighbors("A") == ()
    with pytest.raises(ValueError):
        reduced.neighbors("B")
    assert graph.neighbors("A") == ("B",)  # original untouched
    assert graph.neighbors("B") == ("A", "C")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_nodes=st.integers(min_value=1, max_value=12))
def test_graph_after_drops_equals_graph_built_from_scratch(data, n_nodes):
    ids = [f"N{i:02d}" for i in range(n_nodes)]
    pairs = list(itertools.combinations(ids, 2))
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = data.draw(st.permutations(ids))
    drops = order[: data.draw(st.integers(min_value=0, max_value=n_nodes))]
    graph = make_graph(ids, links)
    for nid in drops:
        graph = graph.drop_node(nid)
    alive = [nid for nid in ids if nid not in drops]
    fresh = make_graph(alive, [pair for pair in links if not set(pair) & set(drops)])
    assert graph.nodes == fresh.nodes
    for nid in alive:
        assert graph.neighbors(nid) == fresh.neighbors(nid)


def test_graph_neighbors_sorted_whatever_the_link_order():
    graph = make_graph("ABCDE", [("C", "E"), ("C", "A"), ("D", "C"), ("B", "C")])
    assert graph.neighbors("C") == ("A", "B", "D", "E")
    assert graph.neighbors("E") == ("C",)
    with pytest.raises(ValueError):
        graph.neighbors("Z")


# --- route selection -----------------------------------------------------------------


def test_zero_beta_reduces_to_hop_count():
    graph = make_graph("ABCD", [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"), ("A", "D")])
    known = known_from_energies(graph, {"A": 0.5, "B": 0.9, "C": 0.1, "D": 0.7})
    result = select_route(graph, known, "A", "D", beta=0.0, exhaust_threshold=0.0)
    assert result.path == ("A", "D")
    assert result.cost == 1.0


def test_diamond_tie_breaks_lexicographically_at_zero_beta():
    graph = make_graph("ABCD", [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")])
    known = known_from_energies(graph, {"A": 0.5, "B": 0.1, "C": 0.9, "D": 0.7})
    result = select_route(graph, known, "A", "D", beta=0.0, exhaust_threshold=0.0)
    assert result.path == ("A", "B", "D")  # same cost as A-C-D, smaller sequence


def test_diamond_penalty_prefers_energetic_relay():
    # Relay penalties: A-C-D costs 1 + 5*0.1 + 1 = 2.5, A-B-D costs
    # 1 + 5*0.9 + 1 = 6.5 (unit destination hop in both).
    graph = make_graph("ABCD", [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")])
    known = known_from_energies(graph, {"A": 0.5, "B": 0.1, "C": 0.9, "D": 0.7})
    result = select_route(graph, known, "A", "D", beta=5.0, exhaust_threshold=0.0)
    assert result.path == ("A", "C", "D")
    assert result.cost == pytest.approx(2.5, rel=1e-12)


def test_exhausted_relay_disconnects_line():
    graph = make_graph("ABC", [("A", "B"), ("B", "C")])
    known = known_from_energies(graph, {"A": 0.9, "B": 0.05, "C": 0.9})
    assert select_route(graph, known, "A", "C", beta=1.0, exhaust_threshold=0.1) is None


def test_stale_record_excludes_relay():
    graph = make_graph("ABC", [("A", "B"), ("B", "C")])
    energies = {"A": 0.9, "B": 0.8, "C": 0.9}
    tables = {
        nid: EnergyTable({nbr: TableEntry(energies[nbr], 0.0) for nbr in graph.neighbors(nid)})
        for nid in graph.nodes
    }
    fresh = {nid: table.fresh(4.0, 5.0) for nid, table in tables.items()}
    assert select_route(graph, fresh, "A", "C", beta=1.0, exhaust_threshold=0.1) is not None
    stale = {nid: table.fresh(6.0, 5.0) for nid, table in tables.items()}
    assert select_route(graph, stale, "A", "C", beta=1.0, exhaust_threshold=0.1) is None


def test_absent_record_excludes_relay_but_not_destination():
    graph = make_graph("ABC", [("A", "B"), ("B", "C")])
    # B unusable as relay without a record, but a direct hop to the dst works;
    # a node missing from the view has no records at all.
    for known in ({nid: {} for nid in graph.nodes}, {}):
        assert select_route(graph, known, "A", "C", beta=1.0, exhaust_threshold=0.1) is None
        assert select_route(graph, known, "A", "B", beta=1.0, exhaust_threshold=0.1).path == ("A", "B")


def test_select_route_rejects_bad_endpoints():
    graph = make_graph("AB", [("A", "B")])
    known = known_from_energies(graph, {"A": 0.5, "B": 0.5})
    with pytest.raises(ValueError):
        select_route(graph, known, "A", "Z", beta=0.0, exhaust_threshold=0.0)
    with pytest.raises(ValueError):
        select_route(graph, known, "A", "A", beta=0.0, exhaust_threshold=0.0)
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            select_route(graph, known, "A", "B", beta=beta, exhaust_threshold=0.0)
    for threshold in (math.nan, -0.1, 1.0):
        with pytest.raises(ValueError, match="exhaust_threshold"):
            select_route(graph, known, "A", "B", beta=0.0, exhaust_threshold=threshold)


def test_cost_equals_sum_of_edge_costs():
    graph = make_graph("ABCDE", [("A", "B"), ("B", "C"), ("C", "E"), ("A", "D"), ("D", "E")])
    energies = {"A": 0.9, "B": 0.6, "C": 0.4, "D": 0.3, "E": 0.8}
    known = known_from_energies(graph, energies)
    result = select_route(graph, known, "A", "E", beta=2.0, exhaust_threshold=0.0)
    total = 0.0
    for hop in result.path[1:-1]:
        total += 1.0 + 2.0 * (1.0 - energies[hop])
    total += 1.0
    assert result.cost == pytest.approx(total, rel=1e-12)


def random_instance(rng):
    n = int(rng.integers(3, 9))
    ids = [chr(ord("A") + i) for i in range(n)]
    links = set()
    # random edges plus a random spanning chain for connectivity
    order = list(rng.permutation(ids))
    for a, b in zip(order, order[1:]):
        links.add(frozenset((a, b)))
    for a, b in itertools.combinations(ids, 2):
        if rng.random() < 0.35:
            links.add(frozenset((a, b)))
    energies = {nid: float(np.round(rng.uniform(0.0, 1.0), 3)) for nid in ids}
    graph = make_graph(ids, links)
    return graph, energies, ids


def test_select_route_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        graph, energies, ids = random_instance(rng)
        known = known_from_energies(graph, energies)
        beta = float(rng.choice([0.0, 0.5, 2.0, 10.0]))
        threshold = float(rng.choice([0.0, 0.2, 0.5]))
        src, dst = rng.choice(ids, size=2, replace=False)
        expected = brute_force_route(graph, known, src, dst, beta, threshold)
        actual = select_route(graph, known, src, dst, beta, threshold)
        if expected is None:
            assert actual is None
        else:
            assert actual is not None
            assert actual.path == expected[1]
            assert actual.cost == expected[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_select_route_on_fresh_view_matches_brute_force_under_staleness(data):
    # Records carry random timestamps up to ``now`` (integers, so the
    # ``now - timestamp == staleness`` boundary is hit often) and some
    # neighbours have none.  The oracle decides freshness from the raw
    # entries itself: a record is fresh when timestamp + staleness >= now.
    n = data.draw(st.integers(3, 7), label="n")
    ids = [chr(ord("A") + i) for i in range(n)]
    links = data.draw(st.lists(st.sampled_from(list(itertools.combinations(ids, 2))), unique=True))
    graph = make_graph(ids, links)
    now = data.draw(st.integers(0, 10), label="now")
    staleness = data.draw(st.integers(0, 10), label="staleness")
    record = st.none() | st.tuples(st.integers(0, 1000), st.integers(0, now))
    tables = {}
    for nid in ids:
        records = {}
        for nbr in graph.neighbors(nid):
            drawn = data.draw(record, label=f"{nid}->{nbr}")
            if drawn is not None:
                records[nbr] = TableEntry(drawn[0] / 1000, float(drawn[1]))
        tables[nid] = EnergyTable(records)
    beta = data.draw(st.sampled_from([0.0, 0.5, 2.0, 10.0]), label="beta")
    threshold = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="threshold")
    src, dst = data.draw(st.permutations(ids), label="order")[:2]

    oracle_known = {
        nid: {nbr: entry.energy for nbr, entry in table.records.items() if entry.timestamp + staleness >= now}
        for nid, table in tables.items()
    }
    known = {nid: table.fresh(float(now), float(staleness)) for nid, table in tables.items()}
    assert known == oracle_known
    expected = brute_force_route(graph, oracle_known, src, dst, beta, threshold)
    actual = select_route(graph, known, src, dst, beta, threshold)
    assert (None if actual is None else (actual.cost, actual.path)) == expected


def relay_energy_deficiency(path, energies):
    return sum(1.0 - energies[nid] for nid in path[1:-1])


def test_raising_beta_never_increases_relay_deficiency():
    # Scalarisation argument: if beta2 > beta1 the selected path's total relay
    # energy deficiency cannot grow.  Checked over random instances, along
    # with the coarser claim that the minimum relay energy does not drop.
    rng = np.random.default_rng(99)
    betas = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
    for _ in range(40):
        graph, energies, ids = random_instance(rng)
        known = known_from_energies(graph, energies)
        src, dst = rng.choice(ids, size=2, replace=False)
        routes = [select_route(graph, known, src, dst, b, 0.0) for b in betas]
        found = [r for r in routes if r is not None]
        if not found:
            continue
        deficiencies = [relay_energy_deficiency(r.path, energies) for r in found]
        assert all(b <= a + 1e-12 for a, b in zip(deficiencies, deficiencies[1:]))
        minima = [
            min((energies[nid] for nid in r.path[1:-1]), default=1.0) for r in found
        ]
        assert all(b >= a - 1e-12 for a, b in zip(minima, minima[1:]))


# --- value types ------------------------------------------------------------------

_PARAMS = OnOffParams(lam=0.5, mu=1.0)
_MODEL = SodModel(peak_current=1.0, tau=2.0, capacity=4.0)
_CODEC_FIELDS = {"d_min": 0.0, "d_max": 1.0, "slots": 11}

# (type, fields by name, an invalid (field, value) for the validated types)
VALUE_TYPES = (
    (OnOffParams, {"lam": 0.5, "mu": 1.0}, ("lam", -0.1)),
    (SodModel, {"peak_current": 1.0, "tau": 2.0, "capacity": 4.0, "initial_sod": 0.25}, ("initial_sod", 1.0)),
    (OccupancySpec, {"params": _PARAMS, "horizon": 2.0}, ("horizon", math.inf)),
    (HelloCodec, _CODEC_FIELDS, ("slots", 2.5)),
    (Segment, {"state": NodeState.ON, "start": 0.0, "duration": 1.5}, None),
    (TableEntry, {"energy": 0.7, "timestamp": 1.0}, None),
    (RouteResult, {"path": ("A", "B"), "cost": 1.0}, None),
    (BatteryState, {"model": _MODEL, "sod": 0.5, "active_time": 1.0}, None),
    (NodeSetup, {"model": _MODEL, "activity": _PARAMS}, None),
    (ScenarioResult, {"seed": 3, "events": ("0.0,death,A,sod=1.0",), "metrics": {"rounds": 1.0}}, None),
    (
        ScenarioConfig,
        {
            "nodes": {"A": NodeSetup(_MODEL, _PARAMS), "B": NodeSetup(_MODEL, _PARAMS)},
            "links": frozenset({frozenset({"A", "B"})}),
            "codec": HelloCodec(**_CODEC_FIELDS),
            "hello_period": 10.0,
            "staleness": 30.0,
            "beta": 1.0,
            "exhaust_threshold": 0.05,
            "horizon": 40.0,
            "seeds": (1,),
            "queries": (("A", "B"),),
        },
        None,
    ),
)


@pytest.mark.parametrize("cls,fields,invalid", VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES])
def test_value_types_are_frozen_records(cls, fields, invalid):
    a, b = cls(**fields), cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a == b
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in fields.items())})"
    if invalid is not None:
        name, value = invalid
        with pytest.raises(ValueError) as built:
            cls(**{**fields, name: value})
        with pytest.raises(ValueError) as replaced:
            a._replace(**{name: value})
        assert str(replaced.value) == str(built.value)


def test_graph_and_law_compare_by_identity():
    graph = make_graph("AB", ["AB"])
    assert graph == graph and graph != make_graph("AB", ["AB"])
    spec = OccupancySpec(_PARAMS, 2.0)
    law = exact_occupation_distribution(spec, NodeState.ON)
    assert law == law and law != exact_occupation_distribution(spec, NodeState.ON)
