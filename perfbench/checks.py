"""Output checks for ``onoffnet`` artifacts, in arithmetic the package does not share.

Every check takes artifact text and returns a list of problems; an empty list
means the artifact passed.  Only the standard library is used: integrals are
plain-Python trapezoids, the exact mean ON time is evaluated from its closed
form here, and route costs are re-summed with ``math.fsum`` from the logged
table events.
"""

from __future__ import annotations

import configparser
import math

# Monte Carlo means are judged against the exact mean in standard errors.  At
# 4.5 SE a correct program fails one row in ~150,000 (two-sided normal tail),
# so a run of three rows is refused for chance alone about once in 50,000
# seeds; at 3 SE it would be about once in 120.
MC_Z_LIMIT = 4.5
DENSITY_MASS_TOL = 1e-3
ROUTE_COST_TOL = 1e-9


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Column names and float rows of a ``#``-headed onoffnet CSV."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header row")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"row has {len(fields)} fields, header has {len(columns)}")
        rows.append([float(f) for f in fields])
    if not rows:
        raise ValueError("no data rows")
    return columns, rows


def _guard(check):
    def run(*texts) -> list[str]:
        try:
            return check(*texts)
        except (ValueError, KeyError, IndexError, configparser.Error) as exc:
            return [f"{check.__name__}: unparsable artifact: {exc}"]

    run.__name__ = check.__name__
    return run


def _trapezoid(xs: list[float], ys: list[float]) -> float:
    return math.fsum((xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2.0 for i in range(len(xs) - 1))


@_guard
def check_density(text: str) -> list[str]:
    columns, rows = parse_csv(text)
    xs = [r[0] for r in rows]
    problems = []
    for j, name in enumerate(columns[1:], start=1):
        mass = _trapezoid(xs, [r[j] for r in rows])
        if not abs(mass - 1.0) <= DENSITY_MASS_TOL:
            problems.append(f"density column {name} integrates to {mass!r}, not 1")
    return problems


@_guard
def check_mean_curve(text: str, horizon: float) -> list[str]:
    _, rows = parse_csv(text)
    problems = [f"mean {m!r} at x={x!r} outside (0, {horizon})" for x, m in rows if not 0.0 < m < horizon]
    for (x0, m0), (x1, m1) in zip(rows, rows[1:]):
        if not (x1 > x0 and m1 > m0):
            problems.append(f"mean curve does not increase between x={x0!r} and x={x1!r}")
    return problems


@_guard
def check_discharge(text: str, segments_text: str | None = None) -> list[str]:
    columns, rows = parse_csv(text)
    sod = [r[columns.index("sod")] for r in rows]
    times = [r[columns.index("time")] for r in rows]
    problems = [f"sod {s!r} at time {t!r} outside [0, 1]" for t, s in zip(times, sod) if not 0.0 <= s <= 1.0]
    for i in range(1, len(sod)):
        if sod[i] < sod[i - 1]:
            problems.append(f"sod decreases at time {times[i]!r}")
    if segments_text is not None:
        for state, start, duration in _parse_segments(segments_text):
            if state != "OFF":
                continue
            inside = [s for t, s in zip(times, sod) if start <= t <= start + duration]
            if inside and max(inside) != min(inside):
                problems.append(f"sod not flat on OFF segment starting at {start!r}")
    return problems


def _parse_segments(text: str) -> list[tuple[str, float, float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "segment_index,state,start,duration":
        raise ValueError("segments header is not 'segment_index,state,start,duration'")
    segs = []
    for ln in lines[1:]:
        _, state, start, duration = ln.split(",")
        if state not in ("ON", "OFF"):
            raise ValueError(f"unknown segment state {state!r}")
        segs.append((state, float(start), float(duration)))
    if not segs:
        raise ValueError("no segments")
    return segs


def exact_mean_on_time(lam: float, mu: float, t: float) -> float:
    """E[T | start ON] = mu t/(lam+mu) + lam (1 - e^{-(lam+mu) t})/(lam+mu)^2."""
    s = lam + mu
    if s == 0.0:
        return t
    return mu * t / s + lam * (1.0 - math.exp(-s * t)) / (s * s)


@_guard
def check_validate(text: str) -> list[str]:
    columns, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(columns)}
    problems = []
    for r in rows:
        lam, mu, t = r[col["lambda"]], r[col["mu"]], r[col["horizon"]]
        exact = exact_mean_on_time(lam, mu, t)
        mc, se = r[col["mc_mean"]], r[col["mc_stderr"]]
        if not (se > 0.0 and abs(mc - exact) <= MC_Z_LIMIT * se):
            problems.append(
                f"mc_mean {mc!r} is {abs(mc - exact) / se if se > 0 else math.inf:.2f} SE from "
                f"exact mean {exact!r} (lambda={lam}, mu={mu}, t={t})"
            )
    return problems


def _details(raw: str) -> dict[str, str]:
    out = {}
    for item in raw.split(";"):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad event detail {item!r}")
        out[key] = value
    return out


@_guard
def check_route(events_text: str, metrics_text: str, config_text: str) -> list[str]:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read_string(config_text)
    beta = float(cfg.get("scenario", "beta"))
    staleness = float(cfg.get("scenario", "staleness"))
    threshold = float(cfg.get("scenario", "exhaust_threshold"))
    links = {frozenset(tok.split("-")) for tok in cfg.get("links", "pairs").split()}

    metrics = metric_rows(metrics_text)
    problems = []
    hellos = 0
    death_time: dict[str, float] = {}
    table: dict[tuple[str, str], tuple[float, float]] = {}
    for line in events_text.splitlines():
        if not line or line.startswith("#"):
            continue
        time_raw, kind, node, details_raw = line.split(",", 3)
        now = float(time_raw)
        details = _details(details_raw)
        if kind == "hello":
            hellos += 1
        elif kind == "death":
            death_time[node] = now
        elif kind == "table":
            table[(node, details["neighbor"])] = (now, float(details["energy"]))
        elif kind == "route":
            if details["path"] != "none":
                problems += _check_path(
                    node, details, now, links, death_time, table, beta, staleness, threshold
                )
        elif kind != "collision":
            raise ValueError(f"unknown event kind {kind!r}")
    if hellos != metrics["hello_sent"]:
        problems.append(f"{hellos} hello events but hello_sent={metrics['hello_sent']!r}")
    return problems


def metric_rows(text: str) -> dict[str, float]:
    """``metric -> value`` from a route ``metrics.csv``."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "metric,value":
        raise ValueError("metrics header is not 'metric,value'")
    return {k: float(v) for k, v in (ln.split(",") for ln in lines[1:])}


def _check_path(src, details, now, links, death_time, table, beta, staleness, threshold) -> list[str]:
    path = details["path"].split(">")
    dst = details["dst"]
    where = f"route {src}->{dst} at {now!r}"
    if path[0] != src or path[-1] != dst:
        return [f"{where}: path {details['path']} does not run from src to dst"]
    if len(set(path)) != len(path):
        return [f"{where}: path {details['path']} is not simple"]
    for node in path:
        if death_time.get(node, math.inf) <= now:
            return [f"{where}: path uses dead node {node}"]
    edges = []
    for u, v in zip(path, path[1:]):
        if frozenset((u, v)) not in links:
            return [f"{where}: {u}-{v} is not a configured link"]
        if v == dst:
            edges.append(1.0)
            continue
        record = table.get((u, v))
        if record is None or now - record[0] > staleness or record[1] <= threshold:
            return [f"{where}: relay {v} has no fresh admissible record at {u}"]
        edges.append(1.0 + beta * (1.0 - record[1]))
    cost = math.fsum(edges)
    if not abs(cost - float(details["cost"])) <= ROUTE_COST_TOL:
        return [f"{where}: logged cost {details['cost']} but table events give {cost!r}"]
    return []
