"""Seeded random-geometric-graph (RGG) scenario configs for ``onoffnet route``.

Nodes are placed uniformly in the unit square and every pair closer than
``radius`` is linked.  Battery and activity parameters are drawn per node,
and ``queries`` random ``src:dst`` pairs are answered every HELLO round
(one round per ``HELLO_PERIOD`` of the horizon).  The INI text is the only
input the CLI receives; it is a pure function of the arguments (Python's
Mersenne Twister, seeded with the integer seed).

Run ``python3 perfbench/rgg.py --nodes 200 --radius 0.1 --queries 16
--horizon 100 --seed 1`` to print a config.
"""

from __future__ import annotations

import argparse
import random

GENERATOR_ID = "perfbench-rgg-1 (python random.Random)"

HELLO_PERIOD = 10.0
STALENESS = 25.0
BETA = 2.0
EXHAUST_THRESHOLD = 0.05
SLOTS = 64


def generate(nodes: int, radius: float, queries: int, horizon: float, seed: int) -> tuple[str, dict]:
    """Return ``(ini_text, stats)``; ``stats`` holds node, link and degree counts."""
    if nodes < 2 or not 0.0 < radius <= 1.5 or queries < 0 or not horizon >= HELLO_PERIOD:
        raise ValueError(f"need nodes >= 2, 0 < radius <= 1.5, queries >= 0, horizon >= {HELLO_PERIOD}")
    rng = random.Random(seed)
    width = len(str(nodes - 1))
    ids = [f"n{i:0{width}d}" for i in range(nodes)]
    pos = [(rng.random(), rng.random()) for _ in ids]
    r2 = radius * radius
    links = [
        (ids[i], ids[j])
        for i in range(nodes)
        for j in range(i + 1, nodes)
        if (pos[i][0] - pos[j][0]) ** 2 + (pos[i][1] - pos[j][1]) ** 2 < r2
    ]
    node_lines = []
    for nid in ids:
        tau = rng.uniform(50.0, 150.0)
        f_init = rng.uniform(0.0, 0.3)
        lam = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.2, 2.0)
        node_lines.append(
            f"{nid} = k=0.01 tau={tau:.6f} capacity=1 f_init={f_init:.6f} lambda={lam:.6f} mu={mu:.6f}"
        )
    routes = []
    for _ in range(queries):
        src, dst = rng.sample(ids, 2)
        routes.append(f"{src}:{dst}")

    lines = [
        f"# RGG scenario: nodes={nodes} radius={radius!r} queries={queries} horizon={horizon!r} seed={seed}",
        f"# generator={GENERATOR_ID}",
        "[scenario]",
        f"horizon = {float(horizon)!r}",
        f"hello_period = {HELLO_PERIOD!r}",
        f"staleness = {STALENESS!r}",
        f"beta = {BETA!r}",
        f"exhaust_threshold = {EXHAUST_THRESHOLD!r}",
        f"seeds = {seed}",
        "",
        "[codec]",
        "d_min = 0.0",
        "d_max = 1.0",
        f"slots = {SLOTS}",
        "",
        "[nodes]",
        *node_lines,
        "",
        "[links]",
        "pairs = " + " ".join(f"{a}-{b}" for a, b in links),
    ]
    if routes:
        lines += ["", "[queries]", "routes = " + " ".join(routes)]
    stats = {
        "nodes": nodes,
        "links": len(links),
        "mean_degree": 2.0 * len(links) / nodes,
        "radius": radius,
        "queries_per_round": queries,
        "horizon": horizon,
        "generator": GENERATOR_ID,
    }
    return "\n".join(lines) + "\n", stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--radius", type=float, required=True)
    parser.add_argument("--queries", type=int, default=0)
    parser.add_argument("--horizon", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    text, _ = generate(args.nodes, args.radius, args.queries, args.horizon, args.seed)
    print(text, end="")


if __name__ == "__main__":
    main()
