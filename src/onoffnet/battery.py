"""Exponential state-of-discharge model and its ON/OFF-modulated variant.

The state of discharge ``F`` (0 = full, 1 = exhausted) grows by integrating
the discharge current over the capacity:

    F(t) = F_init + int_0^t I_sod(u) / C_N du,      I_sod(t) = K * exp(-t/tau)

which closes to ``F(t) = F_init + (K*tau/C_N) * (1 - exp(-t/tau))``, saturated
at 1.  The decay clock of the current advances only while the node is ON:
discharging against an activity trajectory plateaus during OFF segments and
rejoins the continuous curve at equal cumulative active time, so any two
trajectories with the same total ON time end at the identical state of
discharge.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from .activity import NodeState, Trajectory, total_on_time


class _SodFields(NamedTuple):
    peak_current: float
    tau: float
    capacity: float
    initial_sod: float = 0.0


class SodModel(_SodFields):
    """Discharge-current parameters: ``I_sod(a) = peak_current * exp(-a/tau)``.

    ``a`` is cumulative active (ON) time.  ``capacity`` is the nominal charge
    capacity scaling current into discharge fraction; ``initial_sod`` is the
    starting state of discharge.
    """

    __slots__ = ()

    def __new__(cls, peak_current: float, tau: float, capacity: float, initial_sod: float = 0.0) -> SodModel:
        for name, value in (
            ("peak_current", peak_current),
            ("tau", tau),
            ("capacity", capacity),
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 <= initial_sod < 1.0:
            raise ValueError(f"initial_sod must lie in [0, 1), got {initial_sod!r}")
        return super().__new__(cls, peak_current, tau, capacity, initial_sod)

    @classmethod
    def _make(cls, fields) -> SodModel:
        return cls(*fields)  # so that _replace validates


class BatteryState(NamedTuple):
    """Snapshot of a battery: current state of discharge and active time spent.

    Values are evolved functionally; operations hand back new states, never
    mutate.  ``sod`` never decreases (no recovery during OFF) and never
    exceeds 1.
    """

    model: SodModel
    sod: float
    active_time: float


def discharge_current(model: SodModel, active_time: float) -> float:
    """Instantaneous discharge current after ``active_time`` of ON time."""
    if not active_time >= 0.0:
        raise ValueError(f"active_time must be >= 0, got {active_time!r}")
    return model.peak_current * math.exp(-active_time / model.tau)


def sod_continuous(model: SodModel, elapsed: float) -> float:
    """State of discharge after ``elapsed`` of uninterrupted activity.

    Closed form ``min(1, F_init + (K*tau/C_N)*(1 - exp(-elapsed/tau)))``;
    monotone non-decreasing with asymptote ``F_init + K*tau/C_N``.
    """
    if not elapsed >= 0.0:  # NaN fails it too
        raise ValueError(f"elapsed must be >= 0, got {elapsed!r}")
    drained = model.peak_current * model.tau / model.capacity * -math.expm1(-elapsed / model.tau)
    return min(1.0, model.initial_sod + drained)


def sod_modulated(model: SodModel, traj: Trajectory) -> BatteryState:
    """Discharge along an activity trajectory: drain while ON, plateau while OFF.

    The decay clock advances only during ON segments, so the final state
    equals the continuous curve evaluated at the trajectory's total ON time.
    """
    active = total_on_time(traj)
    return BatteryState(model, sod_continuous(model, active), active)


def advance(state: BatteryState, on_time: float) -> BatteryState:
    """Consume ``on_time`` further active time on top of an existing state."""
    if not on_time >= 0.0:
        raise ValueError(f"on_time must be >= 0, got {on_time!r}")
    active = state.active_time + on_time
    return BatteryState(state.model, sod_continuous(state.model, active), active)


def active_time_at(traj: Trajectory, wall_time: float) -> float:
    """Cumulative ON time accrued by wall-clock ``wall_time`` within the trajectory.

    Bisects for the last segment starting before ``wall_time`` and adds its
    overlap to the ON time accrued before it; O(log segments).  An ON segment
    that has ended by ``wall_time`` adds its whole duration, so the result
    reads ``traj.on_time_before`` at every segment end.  At the horizon it is
    ``total_on_time(traj)`` bit for bit when the last segment's duration is
    ``horizon - start`` or its end does not pass the horizon, as in every
    trajectory that ``sample_trajectory`` and ``discharge --segments`` build.
    """
    if not 0.0 <= wall_time <= traj.horizon:
        raise ValueError(f"wall_time must lie in [0, {traj.horizon}]")
    i = bisect.bisect_left(traj.segments, wall_time, key=lambda seg: seg.start) - 1
    if i < 0:
        return 0.0
    seg = traj.segments[i]
    active = traj.on_time_before[i]
    if seg.state is NodeState.ON:
        active += seg.duration if wall_time >= seg.start + seg.duration else wall_time - seg.start
    return active


def predict_lifetime(model: SodModel, exhaustion_threshold: float) -> float:
    """Active time until the state of discharge reaches the threshold.

    Closed-form inverse of the continuous curve; ``math.inf`` when the
    asymptote never strictly exceeds the threshold.
    """
    if not model.initial_sod < exhaustion_threshold <= 1.0:
        raise ValueError(
            f"exhaustion_threshold must lie in ({model.initial_sod}, 1], "
            f"got {exhaustion_threshold!r}"
        )
    frac = (exhaustion_threshold - model.initial_sod) * model.capacity / (
        model.peak_current * model.tau
    )
    if frac >= 1.0:
        return math.inf
    return -model.tau * math.log1p(-frac)

