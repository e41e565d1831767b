"""Two-state ON/OFF activity model of a network node.

A node alternates between an active state (ON, battery draining) and an idle
state (OFF, no drain).  Sojourns are exponential: the chain leaves ON at rate
``lam`` and OFF at rate ``mu``, so a sojourn of length ``d`` survives with
probability ``exp(-rate * d)``.  A sampled path is an alternating sequence of
timed segments tiling ``[0, horizon]``; the total time spent ON over the
window is the random quantity whose law :mod:`onoffnet.occupancy` describes.

Sampling reads the standard library's Mersenne Twister (``random.Random``)
and needs no numpy.  Every sojourn is ``-log(1 - u) / rate`` for one uniform
``u = random()``, worked out here rather than by ``expovariate`` so that the
bytes rest on ``math.log`` alone, and a sojourn that comes out zero is drawn
again.  ``GENERATOR_ID`` is recorded in output file headers so archived runs
name the bit stream they were produced with.

There is one sampling loop, the private ``_path``: it steps one path through
its sojourns and returns the path's total ON time and final state.  It has
three readers: ``sample_trajectory`` keeps each sojourn as a segment,
``monte_carlo_on_times`` runs every path from one generator, and the
scenario runs each node, period after period, from its own generator.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # annotations only: monte_carlo_on_times imports numpy (see cli)
    import numpy as np

GENERATOR_ID = "python-random-mt19937"

# Tolerance for the tiling checks below; segment arithmetic is carried out in
# float64, so consecutive starts can drift by a few ulps from exact telescoping.
_TILE_TOL = 1e-12


class NodeState(Enum):
    ON = "ON"
    OFF = "OFF"


class _OnOffFields(NamedTuple):
    lam: float
    mu: float


class OnOffParams(_OnOffFields):
    """Transition rates of the activity chain.

    ``lam`` is the intensity of leaving ON, ``mu`` the intensity of leaving
    OFF.
    """

    __slots__ = ()

    def __new__(cls, lam: float, mu: float) -> OnOffParams:
        for name, value in (("lam", lam), ("mu", mu)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        return super().__new__(cls, lam, mu)

    @classmethod
    def _make(cls, fields) -> OnOffParams:
        # namedtuple's own _make, which _replace calls, skips __new__ and so the checks.
        return cls(*fields)


class Segment(NamedTuple):
    state: NodeState
    start: float
    duration: float


class Trajectory:
    """Alternating ON/OFF segments tiling ``[0, horizon]`` exactly.

    Construction validates the tiling (first start 0, contiguous starts, total
    duration equal to the horizon within ``1e-12`` relative), strict state
    alternation and strictly positive durations.  ``on_time_before[i]`` is
    the ON time accrued before segment ``i``, and its last entry the total:
    each ON segment adds its duration, left to right, as ``_path`` adds.
    Trajectories compare by horizon and segments.
    """

    __slots__ = ("horizon", "segments", "on_time_before")

    def __init__(self, horizon: float, segments: tuple[Segment, ...]) -> None:
        _check_horizon(horizon)
        if not segments:
            raise ValueError("a trajectory needs at least one segment")
        tol = _TILE_TOL * max(1.0, horizon)
        # Each check below is one that a NaN start or duration fails.
        if not abs(segments[0].start) <= tol:
            raise ValueError("first segment must start at 0")
        expected_start = 0.0
        on_time = 0.0
        on_time_before = []
        for i, seg in enumerate(segments):
            if not seg.duration > 0.0:
                raise ValueError(f"segment {i} has non-positive duration {seg.duration!r}")
            if not abs(seg.start - expected_start) <= tol:
                raise ValueError(f"segment {i} does not continue the previous one")
            if i > 0 and seg.state is segments[i - 1].state:
                raise ValueError(f"segments {i - 1} and {i} do not alternate states")
            on_time_before.append(on_time)
            expected_start = seg.start + seg.duration
            if seg.state is NodeState.ON:
                on_time += seg.duration
        if not abs(expected_start - horizon) <= tol:
            raise ValueError("segments do not tile the horizon")
        self.horizon = horizon
        self.segments = segments
        self.on_time_before = (*on_time_before, on_time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.horizon, self.segments) == (other.horizon, other.segments)

    def __hash__(self) -> int:
        return hash((self.horizon, self.segments))

    def csv_rows(self) -> list[str]:
        """Rows ``segment_index,state,start,duration`` (no header)."""
        return [
            f"{i},{seg.state.value},{seg.start!r},{seg.duration!r}"
            for i, seg in enumerate(self.segments)
        ]


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")


def _path(
    lam: float,
    mu: float,
    on: bool,
    horizon: float,
    rand: Callable[[], float],
    segments: list[Segment] | None = None,
) -> tuple[float, bool]:
    """Step one path over ``[0, horizon]``; return its total ON time and final state.

    The path leaves ON at rate ``lam`` and OFF at rate ``mu`` and starts ON
    where ``on`` is true.  Each sojourn is ``-log(1 - rand()) / rate``, and a
    zero sojourn is drawn again.  A state the path cannot leave (rate 0) runs
    out the horizon without a draw, and the last sojourn is clipped at the
    horizon (censored, not resampled).  ON sojourns are added left to right.
    Each sojourn is appended to ``segments``, if given.
    """
    _check_horizon(horizon)
    log = math.log
    on_time = start = 0.0
    while True:
        rate = lam if on else mu
        duration = math.inf
        if rate:
            duration = 0.0
            while duration <= 0.0:
                duration = -log(1.0 - rand()) / rate
        end = start + duration
        done = end >= horizon
        length = horizon - start if done else duration
        if on:
            on_time += length
        if segments is not None:
            segments.append(Segment(NodeState.ON if on else NodeState.OFF, start, length))
        if done:
            return on_time, on
        on, start = not on, end


def _uniforms(seed: int) -> Callable[[], float]:
    """``random.Random(seed).random``; a negative seed, which it would fold onto ``-seed``, is refused."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    import random  # here, not at the top: the figure commands never sample
    return random.Random(seed).random


def sample_trajectory(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    seed: int,
) -> Trajectory:
    """Sample one activity path over ``[0, horizon]``.

    Sojourn durations are exponential with the leaving rate of the current
    state; the final sojourn is clipped at the horizon (censored, not
    resampled).  ``_path`` drawing from ``random.Random(seed)``, as
    ``monte_carlo_on_times`` does, so ``monte_carlo_on_times(params, initial,
    horizon, 1, seed)`` is this path's ``total_on_time``.  Deterministic in
    ``(params, initial, horizon, seed)``.
    """
    segments: list[Segment] = []
    _path(params.lam, params.mu, initial is NodeState.ON, horizon, _uniforms(seed), segments)
    return Trajectory(horizon, tuple(segments))


def total_on_time(traj: Trajectory) -> float:
    """Total duration spent ON; in ``[0, horizon]``.  The last entry of ``traj.on_time_before``."""
    return traj.on_time_before[-1]


def monte_carlo_on_times(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    n_runs: int,
    base_seed: int,
) -> np.ndarray:
    """Total ON times of ``n_runs`` independent trajectories, as an array.

    ``_path`` run ``n_runs`` times, every path drawing, in path order, from
    one ``random.Random(base_seed)``.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    import numpy as np
    lam, mu, on, rand = params.lam, params.mu, initial is NodeState.ON, _uniforms(base_seed)
    return np.array([_path(lam, mu, on, horizon, rand)[0] for _ in range(n_runs)])
