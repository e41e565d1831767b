"""Tests for the ON/OFF activity chain: sampling and bookkeeping."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from onoffnet.activity import (
    NodeState,
    OnOffParams,
    Segment,
    Trajectory,
    _path,
    monte_carlo_on_times,
    sample_trajectory,
    total_on_time,
)
from onoffnet.battery import SodModel, sod_continuous
from onoffnet.routing import HelloCodec
from onoffnet.scenario import NodeSetup, ScenarioConfig, _node_paths


def test_params_validation():
    with pytest.raises(ValueError):
        OnOffParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        OnOffParams(0.0, math.inf)


# --- trajectory construction -------------------------------------------


def test_trajectory_rejects_gap():
    with pytest.raises(ValueError):
        Trajectory(3.0, (Segment(NodeState.ON, 0.0, 1.0), Segment(NodeState.OFF, 1.5, 1.5)))


def test_trajectory_rejects_missing_alternation():
    with pytest.raises(ValueError):
        Trajectory(2.0, (Segment(NodeState.ON, 0.0, 1.0), Segment(NodeState.ON, 1.0, 1.0)))


def test_trajectory_rejects_zero_duration():
    with pytest.raises(ValueError):
        Trajectory(1.0, (Segment(NodeState.ON, 0.0, 1.0), Segment(NodeState.OFF, 1.0, 0.0)))


def test_trajectory_rejects_short_tiling():
    with pytest.raises(ValueError):
        Trajectory(2.0, (Segment(NodeState.ON, 0.0, 1.0),))


def test_trajectory_csv_rows():
    traj = Trajectory(4.0, (Segment(NodeState.ON, 0.0, 1.0), Segment(NodeState.OFF, 1.0, 3.0)))
    assert traj.csv_rows() == ["0,ON,0.0,1.0", "1,OFF,1.0,3.0"]


# --- sampling ------------------------------------------------------------


def test_sample_absorbing_on():
    traj = sample_trajectory(OnOffParams(0.0, 2.0), NodeState.ON, 10.0, 1)
    assert traj.segments == (Segment(NodeState.ON, 0.0, 10.0),)
    assert total_on_time(traj) == 10.0


def test_sample_absorbing_off():
    traj = sample_trajectory(OnOffParams(2.0, 0.0), NodeState.OFF, 10.0, 1)
    assert traj.segments == (Segment(NodeState.OFF, 0.0, 10.0),)
    assert total_on_time(traj) == 0.0


def test_sample_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        sample_trajectory(OnOffParams(1.0, 1.0), NodeState.ON, 0.0, 3)


def test_negative_seed_is_refused():
    # random.Random would seed -7 as 7, so two seeds would give one stream.
    p = OnOffParams(1.0, 1.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sample_trajectory(p, NodeState.ON, 5.0, -7)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        monte_carlo_on_times(p, NodeState.ON, 5.0, 10, -7)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_monte_carlo_rejects_bad_horizon(horizon):
    # The sampling loop would never finish a path on a NaN horizon.
    with pytest.raises(ValueError):
        monte_carlo_on_times(OnOffParams(1.0, 1.0), NodeState.ON, horizon, 10, 3)


def test_sample_deterministic_in_seed():
    p = OnOffParams(1.3, 0.6)
    a = sample_trajectory(p, NodeState.ON, 25.0, 123)
    b = sample_trajectory(p, NodeState.ON, 25.0, 123)
    c = sample_trajectory(p, NodeState.ON, 25.0, 124)
    assert a == b
    assert a != c


@pytest.mark.parametrize("lam,mu", [(1.0, 3.0), (0.2, 0.2), (4.0, 0.5)])
def test_sampled_trajectories_satisfy_invariants(lam, mu):
    p = OnOffParams(lam, mu)
    horizon = 7.5
    for seed in range(300):
        traj = sample_trajectory(p, NodeState.ON if seed % 2 else NodeState.OFF, horizon, seed)
        # Construction already validates tiling/alternation; double-check the sums.
        off = sum(seg.duration for seg in traj.segments if seg.state is NodeState.OFF)
        total = total_on_time(traj) + off
        assert total == pytest.approx(horizon, rel=1e-12)
        assert 0.0 <= total_on_time(traj) <= horizon


def test_long_run_on_fraction_matches_stationary_law():
    # Stationary P(ON) = mu/(lam+mu) = 0.75; long horizons plus many paths
    # pin the empirical mean within three standard errors.
    p = OnOffParams(1.0, 3.0)
    horizon = 1000.0
    fractions = monte_carlo_on_times(p, NodeState.ON, horizon, 200, 0) / horizon
    stderr = fractions.std(ddof=1) / math.sqrt(fractions.size)
    assert abs(fractions.mean() - 0.75) < 3.0 * stderr


def test_first_on_sojourn_is_exponential():
    # KS test of the first ON sojourn (lam = 1) against Exp(1) over 1e5 paths
    # read in turn from one generator; a sojourn is censored only past the
    # horizon 30, with probability e^-30.
    n = 100_000
    rand = random.Random(0).random
    first = []
    for _ in range(n):
        segments = []
        _path(1.0, 0.01, True, 30.0, rand, segments)
        first.append(segments[0].duration)
    statistic = stats.kstest(first, "expon", args=(0.0, 1.0)).statistic
    critical = stats.kstwobign.isf(0.01) / math.sqrt(n)
    assert statistic < critical


# --- totals --------------------------------------------------------------


def test_total_on_time_examples():
    all_off = Trajectory(5.0, (Segment(NodeState.OFF, 0.0, 5.0),))
    assert total_on_time(all_off) == 0.0
    all_on = Trajectory(7.0, (Segment(NodeState.ON, 0.0, 7.0),))
    assert total_on_time(all_on) == 7.0
    mixed = Trajectory(
        4.0,
        (
            Segment(NodeState.ON, 0.0, 1.0),
            Segment(NodeState.OFF, 1.0, 2.0),
            Segment(NodeState.ON, 3.0, 1.0),
        ),
    )
    assert total_on_time(mixed) == 2.0


def test_monte_carlo_on_times_reproducible():
    p = OnOffParams(1.0, 1.0)
    a = monte_carlo_on_times(p, NodeState.ON, 5.0, 50, 9)
    b = monte_carlo_on_times(p, NodeState.ON, 5.0, 50, 9)
    assert a.shape == (50,)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a <= 5.0))


# --- sampling core ------------------------------------------------------------

_RATES = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0))


def scalar_draws(seed):
    """Standard exponentials ``-log(1 - u)``, one per uniform ``u`` of ``random.Random(seed)``."""
    uniform = random.Random(seed).random
    return iter(lambda: -math.log(1.0 - uniform()), None)


def scalar_sojourns(params, initial, horizon, draws):
    """Oracle: the scalar sampling loop, one ``(state, start, duration)`` per sojourn.

    Reads standard exponentials from ``draws``; a sojourn is a draw divided
    by the leaving rate, zero draws are drawn again, a state with rate 0 runs
    out the horizon without a draw, and the last sojourn is clipped at the
    horizon.
    """
    state, elapsed = initial, 0.0
    while True:
        rate = params.lam if state is NodeState.ON else params.mu
        duration = 0.0
        while rate != 0.0 and duration <= 0.0:
            duration = next(draws) / rate
        if rate == 0.0 or elapsed + duration >= horizon:
            yield state, elapsed, horizon - elapsed
            return
        yield state, elapsed, duration
        elapsed += duration
        state = NodeState.OFF if state is NodeState.ON else NodeState.ON


def scalar_trajectory(params, initial, horizon, draws):
    return Trajectory(horizon, tuple(Segment(*s) for s in scalar_sojourns(params, initial, horizon, draws)))


_PATH_CASE = dict(
    lam=_RATES,
    mu=_RATES,
    initial=st.sampled_from(NodeState),
    horizon=st.floats(min_value=1e-3, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(**_PATH_CASE)
def test_sampled_trajectory_is_the_scalar_loop(lam, mu, initial, horizon, seed):
    # Bit for bit, and as Python floats, so csv_rows and the segments CSV
    # print the oracle's values.
    params = OnOffParams(lam, mu)
    segments = sample_trajectory(params, initial, horizon, seed).segments
    assert segments == scalar_trajectory(params, initial, horizon, scalar_draws(seed)).segments
    assert all(type(seg.start) is float and type(seg.duration) is float for seg in segments)


@settings(max_examples=300, deadline=None)
@given(**_PATH_CASE)
def test_sample_on_time_equals_sampled_trajectory(lam, mu, initial, horizon, seed):
    # The core without segments gives the total and last state of the
    # trajectory it builds with them.
    params = OnOffParams(lam, mu)
    traj = sample_trajectory(params, initial, horizon, seed)
    on_time, final_on = _path(lam, mu, initial is NodeState.ON, horizon, random.Random(seed).random)
    assert (on_time, NodeState.ON if final_on else NodeState.OFF) == (
        total_on_time(traj),
        traj.segments[-1].state,
    )


@settings(max_examples=300, deadline=None)
@given(**_PATH_CASE)
def test_single_monte_carlo_run_is_the_scalar_path(lam, mu, initial, horizon, seed):
    # Monte Carlo at one path reads its generator as one sampled trajectory does.
    params = OnOffParams(lam, mu)
    runs = monte_carlo_on_times(params, initial, horizon, 1, seed)
    assert runs[0] == total_on_time(scalar_trajectory(params, initial, horizon, scalar_draws(seed)))


_NODE = st.tuples(
    _RATES,
    _RATES,
    st.floats(min_value=0.01, max_value=1.0),  # k / capacity: small values never die
    st.floats(min_value=0.0, max_value=0.99),  # f_init
)


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.lists(_NODE, min_size=1, max_size=12),
    period=st.floats(min_value=1e-3, max_value=20.0),
    n_rounds=st.integers(min_value=0, max_value=6),
    threshold=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_node_paths_are_each_nodes_scalar_periods(nodes, period, n_rounds, threshold, seed):
    # Node i (in sorted order) reads consecutive HELLO periods from
    # random.Random(f"{seed}:{i}"), its state carried over; per round the
    # residuals and deaths must be the oracle's, period ON times added left
    # to right, bit for bit.  The ids are listed in reverse, and from eleven
    # nodes on "N10" sorts before "N2", so sorted order is not list order.
    ids = [f"N{i}" for i in reversed(range(len(nodes)))]
    setups = {
        nid: NodeSetup(SodModel(ratio, 1.0, 1.0, f_init), OnOffParams(lam, mu))
        for nid, (lam, mu, ratio, f_init) in zip(ids, nodes)
    }
    config = ScenarioConfig(setups, frozenset(), HelloCodec(0.0, 1.0, 8), period, 1.0, 1.0, threshold,
                            period * n_rounds, (seed,))
    order = sorted(ids)
    draws = {nid: scalar_draws(f"{seed}:{i}") for i, nid in enumerate(order)}
    state = dict.fromkeys(order, NodeState.ON)
    active = dict.fromkeys(order, 0.0)
    alive = list(order)
    expected = []
    for round_index in range(n_rounds + 1):
        if round_index:
            for nid in alive:
                traj = scalar_trajectory(setups[nid].activity, state[nid], period, draws[nid])
                state[nid] = traj.segments[-1].state
                active[nid] += total_on_time(traj)
        sod = {nid: sod_continuous(setups[nid].model, active[nid]) for nid in alive}
        dead = [nid for nid in alive if 1.0 - sod[nid] <= threshold]
        expected.append(({nid: 1.0 - sod[nid] for nid in alive}, [(nid, sod[nid], active[nid]) for nid in dead]))
        alive = [nid for nid in alive if nid not in dead]
    assert list(_node_paths(config, seed, n_rounds)) == expected


@pytest.mark.parametrize("stuck", [False, True], ids=["all-moving", "one-absorbed"])
def test_zero_draws_are_drawn_again(stuck):
    # A zero uniform (probability 2**-53) would make a zero-length sojourn;
    # the core draws again until it is positive, as the scalar loop does.
    # With ``stuck`` the OFF state cannot be left (mu = 0), so the path takes
    # no draw for it and stays OFF to the horizon.
    values = [0.0, 0.0, 1.0 - math.exp(-0.4), 0.9, 0.5]
    calls = []

    def rand():
        calls.append(values[len(calls)])
        return calls[-1]

    mu = 0.0 if stuck else 1.0
    segments = []
    on_time, final_on = _path(1.0, mu, True, 3.0, rand, segments)
    draws = iter([-math.log(1.0 - u) for u in values])
    oracle = tuple(Segment(*s) for s in scalar_sojourns(OnOffParams(1.0, mu), NodeState.ON, 3.0, draws))
    assert tuple(segments) == oracle
    assert calls == (values[:3] if stuck else values)
    assert [seg.state for seg in segments] == [NodeState.ON, NodeState.OFF] + [NodeState.ON] * (not stuck)
    assert (on_time, final_on) == (total_on_time(Trajectory(3.0, oracle)), not stuck)


def test_monte_carlo_bit_stream_is_pinned():
    # Recorded when Monte Carlo moved to the scalar core on random.Random;
    # any change to the draws, their order, the clipping or the summation
    # moves this hash.
    runs = monte_carlo_on_times(OnOffParams(1.0, 3.0), NodeState.ON, 4.0, 2000, 7)
    assert hashlib.sha256(runs.tobytes()).hexdigest() == (
        "a148e859aa0c1d74825d20480cbd3700f0c3e3452e3aa51e302d9182720ed5b8"
    )
