"""Two-state ON/OFF activity model of a network node.

A node alternates between an active state (ON, battery draining) and an idle
state (OFF, no drain).  Sojourns are exponential: the chain leaves ON at rate
``lam`` and OFF at rate ``mu``, so a sojourn of length ``d`` survives with
probability ``exp(-rate * d)``.  A sampled path is an alternating sequence of
timed segments tiling ``[0, horizon]``; the total time spent ON over the
window is the random quantity whose law :mod:`onoffnet.occupancy` describes.

Sampling draws from numpy's PCG64 generator.  Every sojourn is a standard
exponential draw divided by the leaving rate, and a draw that comes out zero
is drawn again.  numpy is imported by the sampling functions when first
called, not with this module, so code that only builds or reads trajectories
(a scripted discharge, say) never loads it.  ``GENERATOR_ID`` is recorded in output file headers so
archived runs name the bit stream they were produced with.

There is one sampling loop, the private step generator ``_lockstep``: it
steps many independent paths together, one sojourn per step, each path with
its own rates and start state, and reads its draws from a callable.  It has
two readers.  ``on_times_lockstep`` keeps only each path's total ON time and
final state; ``monte_carlo_on_times`` feeds it from one generator and the
scenario from one generator per node, through ``buffered_draws``.
``sample_trajectory`` runs one path and builds a segment per step.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:  # annotations only: functions that build arrays import numpy (see cli)
    import numpy as np

GENERATOR_ID = "numpy-pcg64"

# Tolerance for the tiling checks below; segment arithmetic is carried out in
# float64, so consecutive starts can drift by a few ulps from exact telescoping.
_TILE_TOL = 1e-12

# Draws per refill of a path's generator in ``buffered_draws``.  A node keeps at
# most this many unread floats; larger blocks add little speed and grow the
# scenario's memory.
_BLOCK = 32


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
    the ON time accrued before segment ``i``: each ON segment adds
    ``(start + duration) - start``, left to right.  Trajectories compare by
    horizon and segments.
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
                on_time += expected_start - seg.start
        if not abs(expected_start - horizon) <= tol:
            raise ValueError("segments do not tile the horizon")
        self.horizon = horizon
        self.segments = segments
        self.on_time_before = tuple(on_time_before)

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


def buffered_draws(rngs: list[np.random.Generator]) -> Callable[[np.ndarray], np.ndarray]:
    """A ``draw`` for ``on_times_lockstep`` in which path ``p`` reads ``rngs[p]``.

    Each generator is read ``_BLOCK`` values per refill, and path ``p`` gets
    exactly the values of repeated scalar ``rngs[p].standard_exponential()``
    calls in their order; only the refills cost a Python step per path.
    """
    import numpy as np
    block = np.empty((len(rngs), _BLOCK))
    used = np.full(len(rngs), _BLOCK)  # values of each row already handed out

    def draw(paths: np.ndarray) -> np.ndarray:
        spent = paths[used[paths] == _BLOCK]
        for p in spent.tolist():
            block[p] = rngs[p].standard_exponential(_BLOCK)
        used[spent] = 0
        values = block[paths, used[paths]]
        used[paths] += 1
        return values

    return draw


def _lockstep(
    lam: np.ndarray,
    mu: np.ndarray,
    on: np.ndarray,
    horizon: float,
    draw: Callable[[np.ndarray], np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Step independent paths over ``[0, horizon]`` together, one sojourn each.

    Path ``i`` leaves ON at rate ``lam[i]`` and OFF at rate ``mu[i]``, and
    starts ON where ``on[i]`` is true.  Each step yields ``(paths, now_on,
    start, length)``: the indices of the unfinished paths, in increasing
    order, and for each its state, the sojourn's start and its length, the
    last sojourn clipped at the horizon (censored, not resampled).
    ``draw(paths)`` returns one standard exponential for each listed path
    index, in the listed order, and a sojourn is that draw divided by the
    leaving rate; zero draws are drawn again the same way.  A path finishes
    at its first sojourn that reaches the horizon, or at once in a state it
    cannot leave (rate 0), without a draw.
    """
    import numpy as np
    _check_horizon(horizon)
    now_on = np.array(on, dtype=bool)
    paths = np.arange(now_on.size)
    start = np.zeros(now_on.size)
    while paths.size:
        rate = np.where(now_on, lam[paths], mu[paths])
        # A path that cannot leave its state runs out the horizon in it.
        moving = rate.nonzero()[0]
        duration = np.full(paths.size, math.inf)
        duration[moving] = draw(paths[moving]) / rate[moving]
        redraw = moving[duration[moving] <= 0.0]
        while redraw.size:
            duration[redraw] = draw(paths[redraw]) / rate[redraw]
            redraw = redraw[duration[redraw] <= 0.0]
        end = start + duration
        done = end >= horizon
        yield paths, now_on, start, np.where(done, horizon - start, duration)
        running = ~done
        paths, now_on, start = paths[running], ~now_on[running], end[running]


def sample_trajectory(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    seed: int,
) -> Trajectory:
    """Sample one activity path over ``[0, horizon]``.

    Sojourn durations are exponential with the leaving rate of the current
    state; the final sojourn is clipped at the horizon (censored, not
    resampled).  ``_lockstep`` on one path, drawing from
    ``default_rng(seed)`` as ``monte_carlo_on_times`` does, so
    ``monte_carlo_on_times(params, initial, horizon, 1, seed)`` is this
    path's ``total_on_time``.  Deterministic in ``(params, initial, horizon,
    seed)``.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    steps = _lockstep(
        np.array([params.lam]),
        np.array([params.mu]),
        np.array([initial is NodeState.ON]),
        horizon,
        lambda paths: rng.standard_exponential(paths.size),
    )
    segments = tuple(
        Segment(NodeState.ON if now_on[0] else NodeState.OFF, start.item(), length.item())
        for _, now_on, start, length in steps
    )
    return Trajectory(horizon, segments)


def total_on_time(traj: Trajectory) -> float:
    """Total duration spent ON; in ``[0, horizon]``.

    Added left to right in a plain loop, as ``on_times_lockstep`` adds per
    path, because ``sum()`` compensates rounding from Python 3.12 on and
    would make the result depend on the interpreter version.
    """
    on_time = 0.0
    for seg in traj.segments:
        if seg.state is NodeState.ON:
            on_time += seg.duration
    return on_time


def on_times_lockstep(
    lam: np.ndarray,
    mu: np.ndarray,
    on: np.ndarray,
    horizon: float,
    draw: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Total ON time and final state of independent paths over ``[0, horizon]``.

    The paths and draws are those of ``_lockstep``; each path's ON sojourns
    are added left to right.  Returns ``(on_time, final_on)``.
    """
    import numpy as np
    on_time = np.zeros(len(on))
    final_on = np.array(on, dtype=bool)
    for paths, now_on, _, length in _lockstep(lam, mu, on, horizon, draw):
        on_time[paths] += np.where(now_on, length, 0.0)
        final_on[paths] = now_on
    return on_time, final_on


def monte_carlo_on_times(
    params: OnOffParams,
    initial: NodeState,
    horizon: float,
    n_runs: int,
    base_seed: int,
) -> np.ndarray:
    """Total ON times of ``n_runs`` independent trajectories.

    ``on_times_lockstep`` with every path drawing, in path order, from one
    ``default_rng(base_seed)``.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    import numpy as np
    rng = np.random.default_rng(base_seed)
    return on_times_lockstep(
        np.full(n_runs, params.lam),
        np.full(n_runs, params.mu),
        np.full(n_runs, initial is NodeState.ON),
        horizon,
        lambda paths: rng.standard_exponential(paths.size),
    )[0]
