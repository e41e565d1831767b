"""Tests for the ON/OFF activity chain: sampling and bookkeeping."""

import hashlib
import math

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
    _lockstep,
    buffered_draws,
    monte_carlo_on_times,
    on_times_lockstep,
    sample_trajectory,
    total_on_time,
)


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_monte_carlo_rejects_bad_horizon(horizon):
    # The batched loop would never finish a path on a NaN horizon.
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
    # KS test of the first ON sojourn (lam = 1) against Exp(1) over 1e5 paths,
    # the first step of one lockstep batch; a sojourn is censored only past
    # the horizon 30, with probability e^-30.
    n = 100_000
    rng = np.random.default_rng(0)
    steps = _lockstep(np.full(n, 1.0), np.full(n, 0.01), np.ones(n, dtype=bool), 30.0,
                      lambda paths: rng.standard_exponential(paths.size))
    _, _, _, first = next(steps)
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
    """Standard exponentials from ``default_rng(seed)``, one scalar call per value."""
    return iter(np.random.default_rng(seed).standard_exponential, None)


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


def stream_draw(streams):
    """A ``draw`` for ``on_times_lockstep``: path ``p`` reads ``streams[p]``."""
    return lambda paths: np.array([next(streams[p]) for p in paths.tolist()])


def one_path(params, initial, horizon, draws):
    """``on_times_lockstep`` on the single path ``(params, initial)``."""
    on_time, final_on = on_times_lockstep(
        np.array([params.lam]), np.array([params.mu]), np.array([initial is NodeState.ON]),
        horizon, stream_draw([draws]),
    )
    return on_time.tolist()[0], NodeState.ON if final_on[0] else NodeState.OFF


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
    # Bit for bit, and as Python floats: an np.float64 would print as
    # np.float64(...) under numpy 2 and change csv_rows and the segments CSV.
    params = OnOffParams(lam, mu)
    segments = sample_trajectory(params, initial, horizon, seed).segments
    assert segments == scalar_trajectory(params, initial, horizon, scalar_draws(seed)).segments
    assert all(type(seg.start) is float and type(seg.duration) is float for seg in segments)


@settings(max_examples=300, deadline=None)
@given(**_PATH_CASE)
def test_sample_on_time_equals_sampled_trajectory(lam, mu, initial, horizon, seed):
    # The core's two readers agree: totals and last state against segments.
    params = OnOffParams(lam, mu)
    traj = sample_trajectory(params, initial, horizon, seed)
    assert one_path(params, initial, horizon, scalar_draws(seed)) == (
        total_on_time(traj),
        traj.segments[-1].state,
    )


@settings(max_examples=300, deadline=None)
@given(**_PATH_CASE)
def test_single_monte_carlo_run_is_the_scalar_path(lam, mu, initial, horizon, seed):
    # Monte Carlo, at one path, draws one value per numpy call: the scalar
    # draws of its generator.
    params = OnOffParams(lam, mu)
    batched = monte_carlo_on_times(params, initial, horizon, 1, seed)
    assert batched[0] == total_on_time(scalar_trajectory(params, initial, horizon, scalar_draws(seed)))


_PATH = st.tuples(_RATES, _RATES, st.sampled_from(NodeState), st.integers(min_value=0, max_value=2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(
    paths=st.lists(_PATH, min_size=1, max_size=8),
    horizons=st.lists(st.floats(min_value=1e-3, max_value=20.0), min_size=1, max_size=4),
)
def test_lockstep_paths_equal_their_scalar_trajectories(paths, horizons):
    # Each path reads consecutive periods from one stream, its state carried
    # over, as a scenario node does; per period the core must give the
    # scalar trajectory's total and last state bit for bit.
    lam = np.array([p[0] for p in paths])
    mu = np.array([p[1] for p in paths])
    on = np.array([p[2] is NodeState.ON for p in paths])
    streams = [scalar_draws(p[3]) for p in paths]
    oracle_streams = [scalar_draws(p[3]) for p in paths]
    states = [p[2] for p in paths]
    for horizon in horizons:
        on_time, on = on_times_lockstep(lam, mu, on, horizon, stream_draw(streams))
        for i, (path_lam, path_mu, _, _) in enumerate(paths):
            traj = scalar_trajectory(OnOffParams(path_lam, path_mu), states[i], horizon, oracle_streams[i])
            states[i] = traj.segments[-1].state
            assert on_time.tolist()[i] == total_on_time(traj)
            assert on[i] == (states[i] is NodeState.ON)


@pytest.mark.parametrize("stuck", [False, True], ids=["all-moving", "one-absorbed"])
def test_zero_draws_are_drawn_again(stuck):
    # A zero draw (probability about 2**-53) would make a zero-length
    # sojourn; the core draws again for that path alone until it is
    # positive, as the scalar loop does.  With ``stuck``, a third path that
    # never leaves ON takes the branch where some paths draw nothing.
    values = {0: [0.0, 0.0, 0.4, 5.0], 1: [0.7, 5.0]}
    calls = []

    def draw(paths):
        calls.append(paths.tolist())
        return np.array([values[p].pop(0) for p in paths.tolist()])

    lam, mu, on = [1.0, 2.0], [1.0, 1.0], [True, True]
    if stuck:
        lam, mu, on = lam + [0.0], mu + [1.0], on + [True]
    on_time, final_on = on_times_lockstep(np.array(lam), np.array(mu), np.array(on), 3.0, draw)
    assert calls == [[0, 1], [0], [0], [0, 1]]
    assert on_time.tolist() == [0.4, 0.35] + [3.0] * stuck
    assert final_on.tolist() == [False, False] + [True] * stuck
    scalar = list(scalar_sojourns(OnOffParams(1.0, 1.0), NodeState.ON, 3.0, iter([0.0, 0.0, 0.4, 5.0])))
    assert [s[2] for s in scalar] == [0.4, 2.6]


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
    data=st.data(),
)
def test_buffered_draws_are_each_generators_scalar_draws(seeds, data):
    # Whatever subsets of paths ask, and however often, path p reads its own
    # generator's scalar draws in order, across block refills.
    draw = buffered_draws([np.random.default_rng(seed) for seed in seeds])
    scalar = [np.random.default_rng(seed) for seed in seeds]
    subsets = st.lists(st.integers(min_value=0, max_value=len(seeds) - 1), unique=True).map(sorted)
    for paths in data.draw(st.lists(subsets, max_size=80)):
        values = draw(np.array(paths, dtype=np.intp))
        assert values.tolist() == [scalar[p].standard_exponential() for p in paths]


def test_monte_carlo_bit_stream_is_pinned():
    # Recorded when Monte Carlo began drawing all paths from one generator;
    # any change to the draws, their order, the clipping or the summation
    # moves this hash.
    runs = monte_carlo_on_times(OnOffParams(1.0, 3.0), NodeState.ON, 4.0, 2000, 7)
    assert hashlib.sha256(runs.tobytes()).hexdigest() == (
        "eab82891f9d3e9830365e26f9c2a27786adac10258e844b99aac79babf5c5a6a"
    )
