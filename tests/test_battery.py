"""Tests for the exponential state-of-discharge model and its modulated variant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from onoffnet.activity import (
    NodeState,
    OnOffParams,
    Segment,
    Trajectory,
    monte_carlo_on_times,
    sample_trajectory,
    total_on_time,
)
from onoffnet.battery import (
    BatteryState,
    SodModel,
    active_time_at,
    advance,
    discharge_current,
    predict_lifetime,
    sod_continuous,
    sod_modulated,
)
from onoffnet.occupancy import OccupancySpec, on_time_cdf, on_time_density


MODEL = SodModel(peak_current=1.0, tau=2.0, capacity=4.0)


def test_model_validation():
    with pytest.raises(ValueError):
        SodModel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SodModel(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        SodModel(1.0, 1.0, 1.0, initial_sod=1.0)


# --- discharge current -----------------------------------------------------


def test_current_at_zero_is_peak():
    assert discharge_current(SodModel(2.0, 5.0, 1.0), 0.0) == 2.0


def test_current_at_tau():
    assert discharge_current(SodModel(1.0, 3.0, 1.0), 3.0) == pytest.approx(
        0.36787944117144233, rel=1e-15
    )


def test_current_frozen_value():
    assert discharge_current(SodModel(2.0, 5.0, 1.0), 10.0) == pytest.approx(
        0.2706705664732254, rel=1e-12
    )


def test_current_rejects_negative_time():
    with pytest.raises(ValueError):
        discharge_current(MODEL, -1.0)


def test_current_is_capacity_scaled_sod_derivative():
    # I(a) = C_N * d/da sod_continuous(a) before saturation, by central
    # differences at interior points.
    model = SodModel(1.5, 3.0, 10.0, initial_sod=0.1)
    h = 1e-5 * model.tau
    for a in (0.1, 0.7, 2.4, 9.0):
        derivative = (sod_continuous(model, a + h) - sod_continuous(model, a - h)) / (2 * h)
        assert model.capacity * derivative == pytest.approx(
            discharge_current(model, a), rel=1e-6
        )


# --- continuous discharge ----------------------------------------------------


def test_sod_starts_at_initial():
    model = SodModel(1.0, 2.0, 4.0, initial_sod=0.25)
    assert sod_continuous(model, 0.0) == 0.25


def test_sod_frozen_value_matches_quadrature():
    assert sod_continuous(MODEL, 2.0) == pytest.approx(0.3160602794142788, rel=1e-12)
    integral, _ = quad(lambda u: discharge_current(MODEL, u) / MODEL.capacity, 0.0, 2.0,
                       epsabs=1e-13, epsrel=1e-13)
    assert sod_continuous(MODEL, 2.0) == pytest.approx(integral, abs=1e-10)


def test_sod_asymptote():
    assert sod_continuous(MODEL, 1e9) == pytest.approx(0.5, rel=1e-15)
    hungry = SodModel(2.0, 3.0, 1.0)  # asymptote would be 6, saturates at 1
    assert sod_continuous(hungry, 1e9) == 1.0


def test_sod_monotone_and_capped():
    model = SodModel(5.0, 1.0, 2.0, initial_sod=0.3)
    values = [sod_continuous(model, a) for a in np.linspace(0.0, 10.0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.3 <= v <= 1.0 for v in values)


def test_sod_rejects_negative_time():
    with pytest.raises(ValueError):
        sod_continuous(MODEL, -0.5)


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: sod_continuous(MODEL, NAN),
        lambda: discharge_current(MODEL, NAN),
        lambda: advance(BatteryState(MODEL, 0.0, 0.0), NAN),
        lambda: Trajectory(2.0, (Segment(NodeState.ON, 0.0, NAN), Segment(NodeState.OFF, 1.0, 1.0))),
        lambda: Trajectory(2.0, (Segment(NodeState.ON, 0.0, 1.0), Segment(NodeState.OFF, NAN, 1.0))),
        lambda: on_time_density(OccupancySpec(OnOffParams(0.5, 1.0), 2.0), NAN),
        lambda: on_time_cdf(OccupancySpec(OnOffParams(0.5, 1.0), 2.0), NAN),
        lambda: on_time_cdf(OccupancySpec(OnOffParams(0.5, 1.0), 2.0), [0.5, NAN]),
    ],
    ids=["sod_continuous", "discharge_current", "advance", "segment-duration", "segment-start",
         "on_time_density", "on_time_cdf", "on_time_cdf-array"],
)
def test_nan_is_rejected_at_the_boundary(call):
    # Every range check is written so that NaN fails it; a NaN never turns
    # into an exhausted battery (sod 1.0) or a nan density.
    with pytest.raises(ValueError):
        call()


# --- modulated discharge -------------------------------------------------------


def test_modulated_all_off_keeps_initial():
    model = SodModel(1.0, 2.0, 4.0, initial_sod=0.2)
    traj = Trajectory(5.0, (Segment(NodeState.OFF, 0.0, 5.0),))
    state = sod_modulated(model, traj)
    assert state.sod == 0.2
    assert state.active_time == 0.0


def test_modulated_equals_continuous_at_equal_active_time():
    traj = Trajectory(
        3.0,
        (
            Segment(NodeState.ON, 0.0, 1.0),
            Segment(NodeState.OFF, 1.0, 1.0),
            Segment(NodeState.ON, 2.0, 1.0),
        ),
    )
    state = sod_modulated(MODEL, traj)
    assert state.sod == sod_continuous(MODEL, 2.0)
    assert state.active_time == 2.0


def test_modulated_invariant_to_off_placement():
    # Same total ON time, different OFF placement: bit-identical final sod.
    a = Trajectory(
        6.0,
        (
            Segment(NodeState.ON, 0.0, 1.5),
            Segment(NodeState.OFF, 1.5, 3.0),
            Segment(NodeState.ON, 4.5, 1.5),
        ),
    )
    b = Trajectory(
        6.0,
        (
            Segment(NodeState.OFF, 0.0, 1.5),
            Segment(NodeState.ON, 1.5, 3.0),
            Segment(NodeState.OFF, 4.5, 1.5),
        ),
    )
    assert total_on_time(a) == total_on_time(b) == 3.0
    assert sod_modulated(MODEL, a).sod == sod_modulated(MODEL, b).sod


def test_modulated_matches_segmentwise_quadrature():
    # Piecewise integration over the ON segments of a sampled trajectory
    # agrees with the closed form at the trajectory's total ON time.
    traj = sample_trajectory(OnOffParams(0.8, 1.2), NodeState.ON, 12.0, 21)
    active = 0.0
    consumed = 0.0
    for seg in traj.segments:
        if seg.state is NodeState.ON:
            part, _ = quad(
                lambda u: discharge_current(MODEL, u) / MODEL.capacity,
                active,
                active + seg.duration,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            consumed += part
            active += seg.duration
    state = sod_modulated(MODEL, traj)
    assert state.sod == pytest.approx(MODEL.initial_sod + consumed, abs=1e-9)
    assert state.active_time == pytest.approx(total_on_time(traj), rel=1e-12)


def test_active_time_at_walks_the_plateaus():
    traj = Trajectory(
        4.0,
        (
            Segment(NodeState.ON, 0.0, 1.0),
            Segment(NodeState.OFF, 1.0, 2.0),
            Segment(NodeState.ON, 3.0, 1.0),
        ),
    )
    assert active_time_at(traj, 0.0) == 0.0
    assert active_time_at(traj, 0.5) == 0.5
    assert active_time_at(traj, 2.0) == 1.0  # inside the OFF plateau
    assert active_time_at(traj, 3.5) == 1.5
    assert active_time_at(traj, 4.0) == 2.0
    with pytest.raises(ValueError):
        active_time_at(traj, 4.5)


def active_time_oracle(traj, wall_time):
    """Reference walk, left to right: an ON segment ended by ``wall_time`` adds its duration, one under way its overlap."""
    active = 0.0
    for seg in traj.segments:
        if seg.state is NodeState.ON:
            if wall_time >= seg.start + seg.duration:
                active += seg.duration
            elif wall_time > seg.start:
                active += wall_time - seg.start
    return active


def scripted_trajectory(first, durations):
    # Starts telescope, as in every trajectory sample_trajectory and
    # --segments build: each start is the previous start plus its duration.
    segments = []
    start = 0.0
    state = first
    for duration in durations:
        segments.append(Segment(state, start, duration))
        start += duration
        state = NodeState.OFF if state is NodeState.ON else NodeState.ON
    return Trajectory(start, tuple(segments))


SCRIPTS = {
    "first": st.sampled_from(NodeState),
    "durations": st.lists(
        st.floats(min_value=1e-9, max_value=50.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), **SCRIPTS)
def test_active_time_at_equals_segment_walk(data, first, durations):
    traj = scripted_trajectory(first, durations)
    segments, horizon = traj.segments, traj.horizon
    edges = [seg.start for seg in segments] + [seg.start + seg.duration for seg in segments]
    inside = data.draw(st.lists(st.floats(min_value=0.0, max_value=horizon), max_size=20))
    for wall_time in [w for w in edges if w <= horizon] + inside:
        assert active_time_at(traj, wall_time) == active_time_oracle(traj, wall_time)


@settings(max_examples=300, deadline=None)
@given(**SCRIPTS)
def test_active_time_at_horizon_is_total_on_time_scripted(first, durations):
    # One ledger: the whole trace's active time is the total, bit for bit,
    # and that total is the left-to-right sum of the ON durations.
    traj = scripted_trajectory(first, durations)
    on = 0.0
    for seg in traj.segments:
        if seg.state is NodeState.ON:
            on += seg.duration
    assert active_time_at(traj, traj.horizon) == total_on_time(traj) == on


def test_active_time_at_horizon_is_total_on_time_sampled():
    # Adding each finished ON segment as (start + duration) - start instead
    # ends 182 of these 200 traces one or more ulps away from the total.
    params = OnOffParams(1.0, 2.0)
    for seed in range(200):
        traj = sample_trajectory(params, NodeState.ON, 500.0, seed)
        total = total_on_time(traj)
        assert active_time_at(traj, 500.0) == total
        assert monte_carlo_on_times(params, NodeState.ON, 500.0, 1, seed)[0] == total


def test_active_time_at_equals_segment_walk_on_a_long_sampled_trace():
    traj = sample_trajectory(OnOffParams(1.0, 2.0), NodeState.ON, 500.0, 1)
    times = np.unique(np.concatenate([np.linspace(0.0, 500.0, 500), [s.start for s in traj.segments]]))
    for wall_time in times:
        assert active_time_at(traj, float(wall_time)) == active_time_oracle(traj, float(wall_time))


def test_advance_accumulates_functionally():
    state = BatteryState(MODEL, MODEL.initial_sod, 0.0)
    later = advance(state, 1.0)
    final = advance(later, 1.0)
    assert state.active_time == 0.0  # untouched
    assert final.active_time == 2.0
    assert final.sod == sod_continuous(MODEL, 2.0)


# --- lifetime prediction ---------------------------------------------------------


def test_lifetime_never_reaches_asymptote_boundary():
    assert predict_lifetime(MODEL, 0.5) == math.inf  # asymptote exactly 0.5


def test_lifetime_frozen_value_matches_bisection():
    model = SodModel(1.0, 2.0, 1.0)
    life = predict_lifetime(model, 0.5)
    assert life == pytest.approx(0.5753641449035618, rel=1e-12)
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sod_continuous(model, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert life == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_lifetime_vanishes_near_initial_sod():
    model = SodModel(1.0, 2.0, 1.0, initial_sod=0.1)
    assert predict_lifetime(model, 0.1 + 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_lifetime_round_trip():
    model = SodModel(2.0, 1.5, 2.0, initial_sod=0.05)
    for threshold in (0.1, 0.5, 0.9, 1.0):
        life = predict_lifetime(model, threshold)
        if math.isfinite(life):
            assert sod_continuous(model, life) == pytest.approx(threshold, abs=1e-10)


def test_lifetime_rejects_threshold_outside_range():
    model = SodModel(1.0, 1.0, 1.0, initial_sod=0.3)
    with pytest.raises(ValueError):
        predict_lifetime(model, 0.3)
    with pytest.raises(ValueError):
        predict_lifetime(model, 1.1)

