"""Energy dissemination through HELLO timing and energy-aware route selection.

Each node periodically broadcasts a HELLO beacon whose send delay within the
period encodes its residual battery energy on a quantised slot scale; a
receiver inverts the delay and refreshes its per-neighbour energy table.
Route selection then combines hop count with each node's fresh view of its
table (records within the staleness horizon): the cost of hopping onto a
relay ``v`` is ``1 + beta * (1 - E_v)``, the final hop onto the destination
costs 1, and relays absent from the view or at most the exhaustion threshold
are not used at all.  Ties between equal-cost paths break on the
lexicographically smallest node-id sequence, which makes selection fully
deterministic.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Mapping, NamedTuple


class _CodecFields(NamedTuple):
    d_min: float
    d_max: float
    slots: int


class HelloCodec(_CodecFields):
    """Residual-energy <-> HELLO-delay quantiser.

    Residual energy in ``[0, 1]`` (a full battery is 1) maps onto ``slots``
    evenly spaced send delays in ``[d_min, d_max]``, high energy giving a
    late beacon (direct proportion; flipping the bounds yields the inverse
    convention, a config change rather than a code change).  ``slots`` is an
    integer (numpy integers are taken as ``int``) from 2 to ``2**52 + 1``.
    Past it the floats near the top slot are all integers, and the ``+ 0.5``
    that rounds to a slot ties half of them to the slot above.
    """

    __slots__ = ()

    def __new__(cls, d_min: float, d_max: float, slots: int) -> HelloCodec:
        if not (math.isfinite(d_min) and math.isfinite(d_max)):
            raise ValueError(f"d_min and d_max must be finite, got [{d_min!r}, {d_max!r}]")
        if not 0.0 <= d_min < d_max:
            raise ValueError(f"need 0 <= d_min < d_max, got [{d_min!r}, {d_max!r}]")
        try:
            count = operator.index(slots)
        except TypeError:
            raise ValueError(f"slots must be an integer, got {slots!r}") from None
        if count < 2:
            raise ValueError(f"slots must be >= 2, got {slots!r}")
        if count - 1 > 2**52:
            raise ValueError("slots must be at most 2**52 + 1")
        return super().__new__(cls, d_min, d_max, count)

    @classmethod
    def _make(cls, fields) -> HelloCodec:
        return cls(*fields)  # so that _replace validates

    def delay(self, slot: int) -> float:
        """HELLO send delay of a quantisation slot."""
        # d_min + (d_max - d_min) can round one ulp above d_max, which decode_energy rejects.
        return min(self.d_min + (self.d_max - self.d_min) * slot / (self.slots - 1), self.d_max)


def encode_slot(codec: HelloCodec, residual: float) -> int:
    """Nearest quantisation slot for a residual energy; saturates at the ends."""
    if not 0.0 <= residual <= 1.0:
        raise ValueError(f"residual must lie in [0, 1], got {residual!r}")
    slot = int(residual * (codec.slots - 1) + 0.5)
    return min(slot, codec.slots - 1)


def encode_delay(codec: HelloCodec, residual: float) -> float:
    """HELLO send delay proportional to residual energy (slot-quantised)."""
    return codec.delay(encode_slot(codec, residual))


def decode_energy(codec: HelloCodec, delay: float) -> float:
    """Invert a HELLO delay to the nearest representable residual energy."""
    if not codec.d_min <= delay <= codec.d_max:
        raise ValueError(f"delay must lie in [{codec.d_min}, {codec.d_max}], got {delay!r}")
    return encode_slot(codec, (delay - codec.d_min) / (codec.d_max - codec.d_min)) / (codec.slots - 1)


def collision_probability(codec: HelloCodec, n_nodes: int) -> float:
    """Probability that >= 2 of ``n_nodes`` independent uniform energies share a slot.

    Birthday bound over ``slots`` equally likely cells: ``1 - L!/((L-n)! L^n)``;
    exactly 1 once ``n_nodes`` exceeds the slot count.  Computed in exact
    rational arithmetic and rounded once.
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes!r}")
    L = codec.slots
    if n_nodes > L:
        return 1.0
    from fractions import Fraction  # imported here: nothing else needs it, and it loads decimal
    return float(1 - Fraction(math.perm(L, n_nodes), L**n_nodes))


class TableEntry(NamedTuple):
    energy: float
    timestamp: float


class EnergyTable:
    """Per-neighbour residual-energy records, newest record per neighbour (the scenario writes in place)."""

    __slots__ = ("records",)

    def __init__(self, records: dict[str, TableEntry] | None = None) -> None:
        self.records = {} if records is None else records

    def fresh(self, now: float, staleness: float) -> dict[str, float]:
        """Neighbour -> energy for records no older than the staleness horizon."""
        return {
            nid: entry.energy
            for nid, entry in self.records.items()
            if now - entry.timestamp <= staleness
        }


def update_energy_table(
    table: EnergyTable,
    neighbor: str,
    delay: float,
    now: float,
    codec: HelloCodec,
) -> EnergyTable:
    """Insert or replace the neighbour's record with the decoded energy at ``now``."""
    records = dict(table.records)
    records[neighbor] = TableEntry(decode_energy(codec, delay), now)
    return EnergyTable(records)


class NetworkGraph:
    """Alive nodes and the undirected links between them.

    The links are validated and kept only as the sorted neighbour list of
    every node, built once, at construction.  Graphs compare by identity.
    """

    __slots__ = ("nodes", "_adjacency")

    def __init__(self, nodes: frozenset[str], links: frozenset[frozenset[str]]) -> None:
        adjacency: dict[str, list[str]] = {nid: [] for nid in nodes}
        for link in links:
            if len(link) != 2:
                raise ValueError(f"link must join two distinct nodes, got {set(link)!r}")
            missing = link - nodes
            if missing:
                raise ValueError(f"link references unknown node(s) {sorted(missing)!r}")
            a, b = link
            adjacency[a].append(b)
            adjacency[b].append(a)
        self.nodes = nodes
        self._adjacency = {nid: tuple(sorted(nbrs)) for nid, nbrs in adjacency.items()}

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        """Adjacent node ids in sorted order (the stored tuple, not a copy)."""
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        return self._adjacency[node_id]

    def drop_node(self, node_id: str) -> "NetworkGraph":
        """Graph with the node and all its links removed (e.g. on battery death).

        Only the dead node's neighbours' lists are rebuilt; they stay sorted.
        """
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        adjacency = dict(self._adjacency)
        dropped = adjacency.pop(node_id)
        for nbr in dropped:
            adjacency[nbr] = tuple(n for n in adjacency[nbr] if n != node_id)
        graph = NetworkGraph.__new__(NetworkGraph)  # the links are already validated
        graph.nodes = self.nodes - {node_id}
        graph._adjacency = adjacency
        return graph


class RouteResult(NamedTuple):
    path: tuple[str, ...]
    cost: float


def select_route(
    graph: NetworkGraph,
    known: Mapping[str, Mapping[str, float]],
    src: str,
    dst: str,
    beta: float,
    exhaust_threshold: float,
) -> RouteResult | None:
    """Least-cost path from ``src`` to ``dst`` under the energy-aware metric.

    ``known`` maps each node to its fresh ``{neighbour: energy}`` view (see
    :meth:`EnergyTable.fresh`); a node missing from it has no fresh records.
    The cost of an edge ``u -> v`` is ``1 + beta*(1 - E_v)`` when ``v`` is a
    relay, where ``E_v`` is ``known[u][v]``, and exactly 1 when ``v`` is the
    destination (a destination needs no relay vetting).  Relays absent from
    u's view, or with energy at most ``exhaust_threshold``, are skipped.
    Equal-cost ties resolve to the lexicographically smallest node-id
    sequence: labels ``(cost, path)`` are ordered as tuples, and a label no
    better than one already pushed for the same node is never pushed, since
    it could only pop after that node is settled.  Returns ``None`` when no
    admissible path exists.
    """
    for name, nid in (("src", src), ("dst", dst)):
        if nid not in graph.nodes:
            raise ValueError(f"{name} {nid!r} is not in the graph")
    if src == dst:
        raise ValueError("src and dst must differ")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not 0.0 <= exhaust_threshold < 1.0:
        raise ValueError(f"exhaust_threshold must lie in [0, 1), got {exhaust_threshold!r}")

    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    best = {src: heap[0]}  # the least label pushed for each node
    visited: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            return RouteResult(path, cost)
        energies = known.get(node, {})
        for nxt in graph.neighbors(node):
            if nxt in visited:
                continue
            if nxt == dst:
                edge = 1.0
            else:
                energy = energies.get(nxt)
                if energy is None or energy <= exhaust_threshold:
                    continue
                edge = 1.0 + beta * (1.0 - energy)
            label = (cost + edge, path + (nxt,))
            if nxt in best and not label < best[nxt]:
                continue
            best[nxt] = label
            heapq.heappush(heap, label)
    return None
