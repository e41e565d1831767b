"""Closed-form law of the total ON time of the two-state activity chain.

Over a window ``[0, t]`` a node with ON-leaving rate ``lam`` and OFF-leaving
rate ``mu`` accumulates a random total active time ``T``.  Multiplying the
exponential sojourn-survival factors along an alternating path and keeping
only the envelope ``exp(-mu*(t-T)) * exp(-lam*T)`` yields, after normalising
over ``[0, t]``, a one-parameter family of densities in ``x = mu - lam``:

    f(theta) = x * exp(x*theta) / (exp(x*t) - 1),      theta in [0, t]

with cumulative distribution ``(exp(x*theta) - 1) / (exp(x*t) - 1)`` and mean

    E[T] = t - 1/x + t/(exp(x*t) - 1).

All three expressions have a removable singularity at ``x = 0`` where the
family degenerates to the uniform density ``1/t`` (cdf ``theta/t``, mean
``t/2``); below ``|x|*t = 1e-8`` the limit branch is returned explicitly.
A plus-signed variant of the mean, ``t + 1/x + t/(exp(x*t) - 1)``, circulates
as well but blows up like ``2/x`` as ``x -> 0`` instead of tending to ``t/2``;
the minus-signed form above is the one consistent with the defining integral
``int theta*f(theta) dtheta`` (the regression tests pin this down).

Numerical care: for ``x > 0`` the density is evaluated as
``x * exp(x*(theta-t)) / (1 - exp(-x*t))``, which is algebraically identical
but keeps every exponent non-positive, so nothing overflows however large
``x*t`` grows; ``x < 0`` is reduced to the positive case through the mirror
identity ``f(theta; -x) = f(t-theta; x)``.

The envelope drops path-multiplicity factors, so it only approximates the
true occupation-time law.  :func:`exact_occupation_distribution` computes the
true law by dynamic programming on a fine slot grid, including the atoms at
``T = 0`` and ``T = t`` contributed by paths that never switch (the
continuous density cannot carry them, so they are reported separately), and
:func:`closed_form_gap` measures the total-variation distance between
the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .activity import NodeState, OnOffParams

# |x|*t below this threshold is treated as the removable singularity at x = 0.
_LIMIT_EPS = 1e-8

# exp() overflows just above 709; branch before feeding it such exponents.
_EXP_OVERFLOW = 700.0

# 32-point Gauss-Legendre on [-1, 1] for ``quad``; built on first use, as most commands never integrate.
_gauss_rule = functools.cache(lambda: np.polynomial.legendre.leggauss(32))


@dataclass(frozen=True)
class OccupancySpec:
    """Activity rates plus the observation window ``[0, horizon]``."""

    params: OnOffParams
    horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")

    @property
    def rate_gap(self) -> float:
        """The net rate ``x = mu - lam`` that parameterises the whole family."""
        return self.params.mu - self.params.lam


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """On-time density sampled on a strictly increasing grid over ``[0, t]``."""

    spec: OccupancySpec
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if self.grid.size < 2:
            raise ValueError("a curve needs at least two grid points")
        if not np.all(np.diff(self.grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be >= 0")

    def mass(self) -> float:
        """Trapezoid integral over the grid; ~1 for a well-resolved full curve."""
        widths = np.diff(self.grid)
        return float(np.sum(widths * (self.values[1:] + self.values[:-1]) / 2.0))

    def csv_lines(self) -> list[str]:
        """Self-describing CSV: ``#`` parameter header then ``theta,density`` rows."""
        p = self.spec.params
        lines = [
            f"# lambda={p.lam!r} mu={p.mu!r} horizon={self.spec.horizon!r} x={self.spec.rate_gap!r}",
            "theta,density",
        ]
        lines.extend(f"{float(th)!r},{float(v)!r}" for th, v in zip(self.grid, self.values))
        return lines


def _check_theta(theta: np.ndarray, horizon: float) -> None:
    if np.any(theta < 0.0) or np.any(theta > horizon):
        raise ValueError(f"theta must lie in [0, {horizon}]")


def _density_positive_gap(x: float, t: float, theta: np.ndarray) -> np.ndarray:
    # x > 0; exponents are all <= 0 so this never overflows.
    return x * np.exp(x * (theta - t)) / -math.expm1(-x * t)


def on_time_density(spec: OccupancySpec, theta):
    """Density of the total ON time at ``theta``; scalar or array argument.

    Strictly positive on ``[0, t]``; uniform ``1/t`` at the singular point
    ``x = 0``; endpoint value ``x/(1 - exp(-x*t))``, which tends to ``x``
    (from above) as ``t`` grows: total exhaustion becomes the likeliest
    outcome the longer the window.
    """
    arr = np.asarray(theta, dtype=float)
    t = spec.horizon
    _check_theta(arr, t)
    x = spec.rate_gap
    if abs(x) * t < _LIMIT_EPS:
        out = np.full_like(arr, 1.0 / t)
    elif x > 0.0:
        out = _density_positive_gap(x, t, arr)
    else:
        out = _density_positive_gap(-x, t, t - arr)
    return float(out) if arr.ndim == 0 else out


def on_time_cdf(spec: OccupancySpec, theta):
    """Cumulative on-time law ``(exp(x*theta) - 1)/(exp(x*t) - 1)``.

    Strictly increasing from 0 at ``theta = 0`` to 1 at ``theta = t``;
    ``theta/t`` in the ``x -> 0`` limit.
    """
    arr = np.asarray(theta, dtype=float)
    t = spec.horizon
    _check_theta(arr, t)
    x = spec.rate_gap
    if abs(x) * t < _LIMIT_EPS:
        out = arr / t
    elif x > 0.0:
        out = np.exp(x * (arr - t)) * np.expm1(-x * arr) / math.expm1(-x * t)
    else:
        # Mirror: F(theta; x) = 1 - F(t - theta; -x).
        mirrored = t - arr
        out = 1.0 - np.exp(-x * (mirrored - t)) * np.expm1(x * mirrored) / math.expm1(x * t)
    return float(out) if arr.ndim == 0 else out


def mean_on_time(spec: OccupancySpec) -> float:
    """Mean total ON time ``t - 1/x + t/(exp(x*t) - 1)``; ``t/2`` at ``x = 0``.

    Always in ``(0, t)``: increasing in ``x`` with asymptotes ``1/|x|`` for
    strongly negative ``x`` and ``t - 1/x`` for strongly positive ``x``.
    """
    t = spec.horizon
    x = spec.rate_gap
    if abs(x) * t < _LIMIT_EPS:
        return t / 2.0
    if x * t > _EXP_OVERFLOW:
        return t - 1.0 / x
    return t - 1.0 / x + t / math.expm1(x * t)


def doubling_edges(scale: float, length: float) -> np.ndarray:
    """Offsets ``0, s, 3s, 7s, ...`` below ``length``: panels doubling in width from 0."""
    # Counted in logs, as length/scale may overflow when |x|*t does.
    count = max(1, math.ceil(math.log2(length) - math.log2(scale)) + 1)
    edges = np.ldexp(scale, np.arange(count)) - scale
    return edges[edges < length]


def quad(spec: OccupancySpec, g, breakpoints=()) -> float:
    """``E[g(T)]``, the integral of ``g(theta) * f(theta)`` over ``[0, t]``.

    ``g`` maps an array of ON times to an array.  Composite 32-point
    Gauss-Legendre on panels of widths ``1/|x|, 2/|x|, 4/|x|, ...`` from the
    end where the density peaks resolves its spike however large ``|x|*t``
    grows (one panel when ``|x|*t <= 1``); ``breakpoints`` cut them further.
    """
    t, x = spec.horizon, spec.rate_gap
    rate = abs(x)
    # Work in the depth below the peak end, so no digits go to t - depth there.
    edges = doubling_edges(1.0 / rate, t) if rate * t > 1.0 else np.zeros(1)
    cuts = [t - b if x > 0.0 else b for b in breakpoints if 0.0 < b < t]
    edges = np.unique(np.concatenate([edges, cuts, [t]]))
    nodes, weights = _gauss_rule()
    half = np.diff(edges)[:, None] / 2.0
    depth = edges[:-1, None] + half * (1.0 + nodes)
    if rate * t < _LIMIT_EPS:
        density = 1.0 / t
    else:
        density = rate * np.exp(-rate * depth) / -math.expm1(-rate * t)
    theta = t - depth if x > 0.0 else depth
    return float(np.sum(half * weights * density * g(theta)))


def density_curve(spec: OccupancySpec, n_points: int) -> DensityCurve:
    """Evaluate the density on a uniform ``n_points`` grid spanning ``[0, t]``."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points!r}")
    grid = np.linspace(0.0, spec.horizon, n_points)
    return DensityCurve(spec, grid, on_time_density(spec, grid))


@dataclass(frozen=True, eq=False)
class OccupationLaw:
    """Exact law of the total ON time on a slot grid of width ``step``.

    ``pmf[k]`` is the probability of ``on_times[k] = k*step`` total ON time.
    The boundary entries are the never-switching atoms: ``atom_zero`` (all
    OFF) and ``atom_full`` (all ON), which exist in the true law but not in
    the continuous closed form.
    """

    spec: OccupancySpec
    step: float
    initial: NodeState
    on_times: np.ndarray
    pmf: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.dot(self.pmf, self.on_times))

    @property
    def atom_zero(self) -> float:
        return float(self.pmf[0])

    @property
    def atom_full(self) -> float:
        return float(self.pmf[-1])

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Aggregate the pmf into histogram bins (right edge closed)."""
        masses, _ = np.histogram(self.on_times, bins=edges, weights=self.pmf)
        return masses


def exact_occupation_distribution(
    spec: OccupancySpec,
    step: float,
    initial: NodeState = NodeState.ON,
) -> OccupationLaw:
    """True occupation-time law by dynamic programming over time slots.

    Time is cut into ``t/step`` slots; per slot the chain switches with
    probability ``1 - exp(-lam*step)`` from ON and ``1 - exp(-mu*step)`` from
    OFF, and the joint distribution over (current state, number of ON slots)
    is propagated exactly.  Total mass is conserved to 1e-9.  Unlike the
    closed form, the result conditions on the initial state.
    """
    t = spec.horizon
    if not (0.0 < step <= t / 100.0):
        raise ValueError(f"step must satisfy 0 < step <= horizon/100, got {step!r}")
    n = int(round(t / step))
    h = t / n
    p = -math.expm1(-spec.params.lam * h)
    q = -math.expm1(-spec.params.mu * h)
    on = np.zeros(n + 1)
    off = np.zeros(n + 1)
    if initial is NodeState.ON:
        on[0] = 1.0
    else:
        off[0] = 1.0
    shifted = np.empty(n + 1)
    for _ in range(n):
        # An ON slot bumps the count by one before the end-of-slot transition.
        shifted[0] = 0.0
        shifted[1:] = on[:-1]
        on, off = shifted * (1.0 - p) + off * q, shifted * p + off * (1.0 - q)
    pmf = on + off
    total = float(pmf.sum())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"occupation law lost probability mass: sum={total!r}")
    return OccupationLaw(spec, h, initial, np.linspace(0.0, t, n + 1), pmf)


def closed_form_gap(law: OccupationLaw) -> float:
    """Total-variation distance between the exact law and the closed form.

    The closed-form density is binned onto the law's slot grid (cdf
    differences over ``k*step +- step/2`` cells), so both sides live on the
    same discrete support.  Nonzero in general: the closed form carries no
    boundary atoms and ignores path multiplicity.
    """
    t = law.spec.horizon
    n = law.on_times.size - 1
    edges = np.empty(n + 2)
    edges[0] = 0.0
    edges[1:-1] = (np.arange(n) + 0.5) * law.step
    edges[-1] = t
    cdf = on_time_cdf(law.spec, edges)
    closed_masses = np.diff(cdf)
    return 0.5 * float(np.abs(law.pmf - closed_masses).sum())
