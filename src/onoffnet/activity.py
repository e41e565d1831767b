"""Two-state ON/OFF activity model of a network node.

A node alternates between an active state (ON, battery draining) and an idle
state (OFF, no drain).  Sojourns are exponential: the chain leaves ON at rate
``lam`` and OFF at rate ``mu``, so a sojourn of length ``d`` survives with
probability ``exp(-rate * d)``.  A sampled path is an alternating sequence of
timed segments tiling ``[0, horizon]``; the total time spent ON over the
window is the random quantity whose law :mod:`onoffnet.occupancy` describes.

Sampling draws from numpy's PCG64 generator.  Every sojourn is
``rng.standard_exponential() / rate`` from a long-lived ``Generator``, and a
draw that comes out zero is drawn again.  ``GENERATOR_ID`` is recorded in
output file headers so archived runs name the bit stream they were produced
with.  One path is drawn by the private generator ``_sojourns`` from an
``exponential_stream``, which draws in blocks the values scalar calls give.
``sample_trajectory`` seeds a stream and builds validated segments from its
sojourns, while ``sample_on_time`` (used by the scenario loop, one stream per
node) keeps only the total ON time and the final state of the same path.  ``monte_carlo_on_times`` steps all of its
paths together, one array of draws per sojourn, from one generator; with a
single path it consumes the stream exactly as ``sample_on_time`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

GENERATOR_ID = "numpy-pcg64"

# Tolerance for the tiling checks below; segment arithmetic is carried out in
# float64, so consecutive starts can drift by a few ulps from exact telescoping.
_TILE_TOL = 1e-12

# Draws per refill of an exponential stream.  A node keeps at most this many
# unread floats; larger blocks add little speed and grow the scenario's memory.
_BLOCK = 32


class NodeState(Enum):
    ON = "ON"
    OFF = "OFF"

    @property
    def other(self) -> "NodeState":
        return NodeState.OFF if self is NodeState.ON else NodeState.ON


@dataclass(frozen=True)
class OnOffParams:
    """Transition rates of the activity chain.

    ``lam`` is the intensity of leaving ON, ``mu`` the intensity of leaving
    OFF.
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        for name, value in (("lam", self.lam), ("mu", self.mu)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def leaving_rate(self, state: NodeState) -> float:
        """Rate at which the chain leaves ``state`` (the negated generator diagonal)."""
        return self.lam if state is NodeState.ON else self.mu


@dataclass(frozen=True)
class Segment:
    state: NodeState
    start: float
    duration: float


@dataclass(frozen=True)
class Trajectory:
    """Alternating ON/OFF segments tiling ``[0, horizon]`` exactly.

    Construction validates the tiling (first start 0, contiguous starts, total
    duration equal to the horizon within ``1e-12`` relative), strict state
    alternation and strictly positive durations.  ``on_time_before[i]`` is
    the ON time accrued before segment ``i``: each ON segment adds
    ``(start + duration) - start``, left to right.
    """

    horizon: float
    segments: tuple[Segment, ...]
    on_time_before: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if not self.segments:
            raise ValueError("a trajectory needs at least one segment")
        tol = _TILE_TOL * max(1.0, self.horizon)
        if abs(self.segments[0].start) > tol:
            raise ValueError("first segment must start at 0")
        expected_start = 0.0
        on_time = 0.0
        on_time_before = []
        for i, seg in enumerate(self.segments):
            if seg.duration <= 0.0:
                raise ValueError(f"segment {i} has non-positive duration {seg.duration!r}")
            if abs(seg.start - expected_start) > tol:
                raise ValueError(f"segment {i} does not continue the previous one")
            if i > 0 and seg.state is self.segments[i - 1].state:
                raise ValueError(f"segments {i - 1} and {i} do not alternate states")
            on_time_before.append(on_time)
            expected_start = seg.start + seg.duration
            if seg.state is NodeState.ON:
                on_time += expected_start - seg.start
        if abs(expected_start - self.horizon) > tol:
            raise ValueError("segments do not tile the horizon")
        object.__setattr__(self, "on_time_before", tuple(on_time_before))

    def csv_rows(self) -> list[str]:
        """Rows ``segment_index,state,start,duration`` (no header)."""
        return [
            f"{i},{seg.state.value},{seg.start!r},{seg.duration!r}"
            for i, seg in enumerate(self.segments)
        ]


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")


def exponential_stream(rng: np.random.Generator) -> Iterator[float]:
    """Standard exponential draws from ``rng``, refilled ``_BLOCK`` at a time.

    Yields, as Python floats, exactly the values of repeated scalar
    ``rng.standard_exponential()`` calls in their order, at a fraction of
    the cost; ``rng`` runs up to ``_BLOCK - 1`` draws ahead of the reader.
    """
    while True:
        yield from rng.standard_exponential(_BLOCK).tolist()


def _sojourns(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    draws: Iterator[float],
) -> Iterator[tuple[NodeState, float, float]]:
    """Yield ``(state, start, duration)`` for each sojourn tiling ``[0, horizon]``.

    The scalar sampling loop, reading standard exponentials from ``draws``;
    ``monte_carlo_on_times`` is its batched twin.  The law is described in
    ``sample_trajectory``.
    """
    _check_horizon(horizon)
    state, other = initial, initial.other
    rate, other_rate = params.leaving_rate(state), params.leaving_rate(other)
    elapsed = 0.0
    while elapsed < horizon:
        if rate == 0.0:
            yield state, elapsed, horizon - elapsed
            return
        duration = 0.0
        while duration <= 0.0:
            duration = next(draws) / rate
        if elapsed + duration >= horizon:
            yield state, elapsed, horizon - elapsed
            return
        yield state, elapsed, duration
        elapsed += duration
        state, other, rate, other_rate = other, state, other_rate, rate


def sample_trajectory(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    seed: int,
) -> Trajectory:
    """Sample one activity path over ``[0, horizon]``.

    Sojourn durations are exponential with the leaving rate of the current
    state; the final sojourn is clipped at the horizon (censored, not
    resampled).  Deterministic in ``(params, initial, horizon, seed)``.
    """
    draws = exponential_stream(np.random.default_rng(seed))
    segments = tuple(Segment(*sojourn) for sojourn in _sojourns(params, initial, horizon, draws))
    return Trajectory(horizon, segments)


def sample_on_time(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    draws: Iterator[float],
) -> tuple[float, NodeState]:
    """Total ON time and final state of one path read from ``draws``.

    Equal, bit for bit, to ``total_on_time(t)`` and ``t.segments[-1].state``
    for ``t = sample_trajectory(params, initial, horizon, seed)`` when
    ``draws`` is ``exponential_stream(default_rng(seed))``, without building
    or validating the segments.
    """
    on_time = 0.0
    state = initial
    for state, _, duration in _sojourns(params, initial, horizon, draws):
        if state is NodeState.ON:
            on_time += duration
    return on_time, state


def total_on_time(traj: Trajectory) -> float:
    """Total duration spent ON; in ``[0, horizon]``.

    Added left to right in a plain loop, as ``sample_on_time`` does, because
    ``sum()`` compensates rounding from Python 3.12 on and would make the
    result depend on the interpreter version.
    """
    on_time = 0.0
    for seg in traj.segments:
        if seg.state is NodeState.ON:
            on_time += seg.duration
    return on_time


def monte_carlo_on_times(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    n_runs: int,
    base_seed: int,
) -> np.ndarray:
    """Total ON times of ``n_runs`` independent trajectories.

    All paths are drawn from one ``default_rng(base_seed)``.  They start in
    the same state and alternate in lockstep, so every unfinished path shares
    the current leaving rate: each sojourn is one array of draws, clipped at
    the horizon, after which the finished paths drop out.  Arithmetic per
    path is that of ``sample_on_time``, and ``n_runs=1`` gives its value.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    _check_horizon(horizon)
    rng = np.random.default_rng(base_seed)
    on_times = np.empty(n_runs)
    paths = np.arange(n_runs)  # indices of the unfinished paths
    elapsed = np.zeros(n_runs)
    on_time = np.zeros(n_runs)
    state = initial
    while paths.size:
        rate = params.leaving_rate(state)
        if rate == 0.0:
            on_times[paths] = on_time + (horizon - elapsed) if state is NodeState.ON else on_time
            break
        duration = rng.standard_exponential(paths.size) / rate
        redraw = np.flatnonzero(duration <= 0.0)
        while redraw.size:
            duration[redraw] = rng.standard_exponential(redraw.size) / rate
            redraw = redraw[duration[redraw] <= 0.0]
        done = elapsed + duration >= horizon
        if state is NodeState.ON:
            on_time += np.where(done, horizon - elapsed, duration)
        on_times[paths[done]] = on_time[done]
        running = ~done
        paths, elapsed, on_time = paths[running], (elapsed + duration)[running], on_time[running]
        state = state.other
    return on_times
