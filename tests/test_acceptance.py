"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from onoffnet.activity import NodeState, OnOffParams, monte_carlo_on_times, sample_trajectory, total_on_time
from onoffnet.battery import SodModel, discharge_current, predict_lifetime, sod_continuous, sod_modulated
from onoffnet.cli import main
from onoffnet.occupancy import (
    OccupancySpec,
    closed_form_gap,
    exact_occupation_distribution,
    mean_on_time,
    on_time_density,
)
from onoffnet.routing import HelloCodec, collision_probability, decode_energy, encode_delay, select_route
from onoffnet.scenario import load_scenario_config, run_scenario

from test_occupancy import equiprobable_bins
from test_routing import brute_force_route, known_from_energies, random_instance

DIAMOND = Path(__file__).resolve().parents[1] / "configs" / "diamond.cfg"

RATE_GRID = [
    (lam, mu, t)
    for lam in (0.0, 0.1, 0.5, 1.0, 3.0)
    for mu in (0.0, 0.1, 0.5, 1.0, 3.0)
    for t in (0.5, 1.0, 10.0)
]


def read_rows(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return header, data


def test_criterion_1_density_normalization():
    start = time.perf_counter()
    worst = 0.0
    for lam, mu, t in RATE_GRID:
        spec = OccupancySpec(OnOffParams(lam, mu), t)
        mass, _ = quad(lambda th: on_time_density(spec, th), 0.0, t,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
        worst = max(worst, abs(mass - 1.0))
        assert abs(mass - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: density normalized to 1 within 1e-9 over "
          f"{len(RATE_GRID)} parameter sets (worst |mass-1| = {worst:.2e}, {elapsed:.2f}s < 10s)")


def test_criterion_2_mean_consistency_and_sign_regression():
    start = time.perf_counter()
    worst = 0.0
    for lam, mu, t in RATE_GRID:
        spec = OccupancySpec(OnOffParams(lam, mu), t)
        integral, _ = quad(lambda th: th * on_time_density(spec, th), 0.0, t,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
        closed = mean_on_time(spec)
        rel = abs(closed - integral) / abs(closed)
        worst = max(worst, rel)
        assert rel <= 1e-8
    # The plus-signed variant of the mean diverges like 2/x toward x=0 while
    # the implemented form tends to t/2.
    t = 10.0
    for x in (1e-6, 1e-9):
        variant = t + 1.0 / x + t / math.expm1(x * t)
        assert abs(variant - t / 2.0) > 1e5
    assert mean_on_time(OccupancySpec(OnOffParams(1.0, 1.0 + 1e-12), t)) == t / 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: closed-form mean matches quadrature within 1e-8 "
          f"(worst rel = {worst:.2e}) and the sign variant diverges ({elapsed:.2f}s < 5s)")


def test_criterion_3_density_curve_reproduction(tmp_path):
    start = time.perf_counter()
    xs = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    out = tmp_path / "curves.csv"
    assert main(["density", "--x", ",".join(str(x) for x in xs), "--horizon", "10",
                 "--points", "200", "--out", str(out)]) == 0
    _, data = read_rows(out)
    for column in range(1, len(xs) + 1):
        assert np.all(np.diff(data[:, column]) > 0.0)  # increasing in theta
    endpoints = data[-1, 1:]
    assert np.all(np.diff(endpoints) > 0.0)  # endpoint increasing in x
    tail = tmp_path / "tail.csv"
    assert main(["density", "--x", "1.0", "--horizon", "50", "--points", "200",
                 "--out", str(tail)]) == 0
    _, tail_data = read_rows(tail)
    assert abs(tail_data[-1, 1] - 1.0) <= 1e-3  # exhaustion likeliest at large t
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 3: density curves increase in theta, endpoints increase "
          f"in x, endpoint at x=1,t=50 within 1e-3 of 1 ({elapsed:.2f}s < 5s)")


def test_criterion_4_mean_curve_reproduction(tmp_path):
    start = time.perf_counter()
    t = 10.0
    out = tmp_path / "mean.csv"
    assert main(["mean-curve", "--x-min", "0.01", "--x-max", "1.0", "--horizon",
                 str(t), "--points", "200", "--out", str(out)]) == 0
    _, data = read_rows(out)
    assert data.shape[0] == 200
    assert np.all(np.diff(data[:, 1]) > 0.0)  # monotone increasing in x
    assert abs(data[0, 1] - t / 2.0) < 0.1  # grid start approaches t/2
    # Limits beyond the emitted grid.
    assert mean_on_time(OccupancySpec(OnOffParams(0.0, 1e-10), t)) == t / 2.0
    assert abs(mean_on_time(OccupancySpec(OnOffParams(0.0, 1e4), t)) - t) <= 1e-3 * t
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 4: mean curve monotone in x with limits t/2 and t "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_5_oracle_triangulation():
    start = time.perf_counter()
    gaps = []
    for index, (lam, mu, t) in enumerate([(1.0, 3.0, 4.0), (0.2, 1.0, 5.0), (0.5, 0.5, 6.0)]):
        spec = OccupancySpec(OnOffParams(lam, mu), t)
        law = exact_occupation_distribution(spec, NodeState.ON)
        samples = monte_carlo_on_times(spec.params, NodeState.ON, t, 100_000, 1000 + index)
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - law.mean) <= 3.0 * stderr
        edges, masses = equiprobable_bins(law, 15)
        observed, _ = np.histogram(samples, bins=edges)
        expected = masses * samples.size
        assert np.all(expected > 5.0)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p_value = float(stats.chi2.sf(chi2, len(expected) - 1))
        assert p_value > 0.001
        gaps.append(closed_form_gap(law))
        assert gaps[-1] > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: Monte Carlo vs exact law within 3 stderr and chi-square "
          f"p>0.001 on 3 sets; closed-form TV gaps = "
          f"{', '.join(f'{g:.4f}' for g in gaps)} ({elapsed:.2f}s < 60s)")


def test_criterion_6_battery_identities():
    start = time.perf_counter()
    model = SodModel(1.0, 2.0, 4.0, initial_sod=0.05)
    params = OnOffParams(0.9, 1.4)
    for seed in range(50):
        traj = sample_trajectory(params, NodeState.ON, 9.0, seed)
        state = sod_modulated(model, traj)
        assert abs(state.sod - sod_continuous(model, total_on_time(traj))) <= 1e-9
    for threshold in (0.1, 0.3, 0.5):
        life = predict_lifetime(model, threshold)
        assert abs(sod_continuous(model, life) - threshold) <= 1e-10
    h = 1e-5 * model.tau
    for a in np.linspace(0.1, 5.0, 20):
        derivative = (sod_continuous(model, a + h) - sod_continuous(model, a - h)) / (2 * h)
        assert model.capacity * derivative == pytest.approx(discharge_current(model, a), rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: modulated==continuous (1e-9), lifetime round-trip "
          f"(1e-10), current is the scaled sod derivative (1e-6) ({elapsed:.2f}s < 5s)")


def test_criterion_7_routing_oracle_and_diamond_flip():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 100:
        graph, energies, ids = random_instance(rng)
        known = known_from_energies(graph, energies)
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0, 5.0, 20.0]))
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
        checked += 1
    # Diamond config: costs 2 + 0.8*beta (via B) vs 3 + 0.1*beta (via C, E)
    # cross at beta* = 10/7.
    cfg = load_scenario_config(str(DIAMOND))
    beta_star = 10.0 / 7.0
    below = run_scenario(cfg._replace(beta=beta_star - 0.05), 42)
    above = run_scenario(cfg._replace(beta=beta_star + 0.05), 42)
    assert "path=A>B>D" in [e for e in below.events if ",route,A," in e][0]
    assert "path=A>C>E>D" in [e for e in above.events if ",route,A," in e][0]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 7: select_route matches brute force on 100 random graphs "
          f"and the diamond flips at beta*=10/7 ({elapsed:.2f}s < 30s)")


def test_criterion_8_codec_round_trip_and_collision_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    for codec in (HelloCodec(0.0, 1.0, 11), HelloCodec(0.5, 2.5, 16), HelloCodec(0.0, 1.0, 101)):
        half_slot = 1.0 / (2 * (codec.slots - 1))
        for residual in rng.uniform(0.0, 1.0, 10_000):
            recovered = decode_energy(codec, encode_delay(codec, residual))
            assert abs(recovered - residual) <= half_slot + 1e-15
    for L, n in itertools.product(range(2, 13), range(2, 7)):
        grids = np.meshgrid(*([np.arange(L, dtype=np.int8)] * n), indexing="ij")
        assignments = np.stack([g.ravel() for g in grids], axis=1)
        ordered = np.sort(assignments, axis=1)
        count = int((np.diff(ordered, axis=1) == 0).any(axis=1).sum())
        assert count == L**n - (math.perm(L, n) if n <= L else 0)
        assert collision_probability(HelloCodec(0.0, 1.0, L), n) == count / L**n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 8: codec round-trip within half a slot (3 codecs x 1e4) "
          f"and collision probability exact for L<=12, n<=6 ({elapsed:.2f}s < 10s)")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()

    def emit(outdir: Path) -> None:
        outdir.mkdir()
        assert main(["density", "--x", "0.4,1.0", "--horizon", "10", "--points", "200",
                     "--out", str(outdir / "density.csv")]) == 0
        assert main(["mean-curve", "--horizon", "10", "--points", "150",
                     "--out", str(outdir / "mean.csv")]) == 0
        assert main(["discharge", "--k", "1", "--tau", "2", "--capacity", "4",
                     "--lambda", "1.0", "--mu", "2.0", "--seed", "9", "--horizon", "6",
                     "--points", "150", "--out", str(outdir / "discharge.csv"),
                     "--trajectory-out", str(outdir / "trajectory.csv")]) == 0
        assert main(["validate", "--params", "1.0,3.0,4.0", "--replications", "10000",
                     "--out", str(outdir / "validate.csv")]) == 0
        assert main(["route", "--config", str(DIAMOND),
                     "--out-dir", str(outdir / "routes")]) == 0

    emit(tmp_path / "first")
    emit(tmp_path / "second")
    compared = 0
    for path in sorted((tmp_path / "first").rglob("*")):
        if path.is_file():
            twin = tmp_path / "second" / path.relative_to(tmp_path / "first")
            assert path.read_bytes() == twin.read_bytes(), f"nondeterministic: {path.name}"
            compared += 1
    assert compared >= 7
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 9: all 5 subcommands rerun byte-identical across "
          f"{compared} output files ({elapsed:.2f}s)")
