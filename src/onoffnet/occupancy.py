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

The density and the mean take and return Python floats and are evaluated
with :mod:`math`, so the figure curves (:func:`density_curve`, a list per
curve) need no numpy and their bytes do not depend on the SIMD kernels numpy
would pick on a given host.  The cdf, the quadrature and the exact law work
on numpy arrays and import numpy when first called.

The envelope drops path-multiplicity factors, so it only approximates the
true occupation-time law.  That law is known in closed form (Pedler 1971,
J. Appl. Prob. 8(2)): from an ON start, with ``a = lam*s``, ``b = mu*(t-s)``
and ``pi_k(m) = exp(-m) m^k/k!``, ``T`` has the density

    lam sum_j pi_j(a) pi_j(b) + mu sum_j pi_{j+1}(a) pi_j(b),   s in (0, t)

and the atom ``exp(-lam*t)`` at ``T = t``, and mean
``mu t/(lam+mu) + lam (1 - exp(-(lam+mu) t))/(lam+mu)^2``; from an OFF start
``T`` is ``t`` minus the ON-start ``T`` of the swapped rates.  The density
is evaluated in Bessel form, ``e^{-(sqrt(a)-sqrt(b))^2} (lam i0e(z) + mu
sqrt(a/b) i1e(z))`` with ``z = 2 sqrt(ab)``, at a cost that does not grow
with the rates: below ``z = 20`` the scaled Bessel functions are power
series in ``ab`` summed by Horner, from ``z = 20`` on the Hankel expansion.
There is no term budget.
:func:`exact_occupation_distribution` integrates it over cells of a fine
grid, the never-switching atoms included (the continuous envelope cannot
carry them, so they are also reported separately), and
:func:`closed_form_gap` measures the total-variation distance between
the two.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .activity import NodeState, OnOffParams, _check_horizon

if TYPE_CHECKING:  # annotations only: functions that build arrays import numpy (see cli)
    import numpy as np

# |x|*t below this threshold is treated as the removable singularity at x = 0.
_LIMIT_EPS = 1e-8

# Below this |x|*t the mean is its Taylor series: the series' first omitted
# term and the closed form's cancellation are both below 5e-14 relative here.
_SERIES_LIMIT = 1e-2

# exp() overflows just above 709; branch before feeding it such exponents.
_EXP_OVERFLOW = 700.0


# Array elements per block of the exact density's evaluation.
_BLOCK_ELEMENTS = 1 << 12


# The exact density's Bessel functions are power series below this z and
# the Hankel expansion, to 20 terms, from it on.
_HANKEL_FROM = 20.0

# validate compares the exact law with the closed form over horizon/4096 cells.
_LAW_CELLS = 4096


class _SpecFields(NamedTuple):
    params: OnOffParams
    horizon: float


class OccupancySpec(_SpecFields):
    """Activity rates plus the observation window ``[0, horizon]``."""

    __slots__ = ()

    def __new__(cls, params: OnOffParams, horizon: float) -> OccupancySpec:
        _check_horizon(horizon)
        return super().__new__(cls, params, horizon)

    @classmethod
    def _make(cls, fields) -> OccupancySpec:
        return cls(*fields)  # so that _replace validates

    @property
    def rate_gap(self) -> float:
        """The net rate ``x = mu - lam`` that parameterises the whole family."""
        return self.params.mu - self.params.lam


def _uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced floats from ``lo`` to ``hi``: ``np.linspace(lo, hi, n).tolist()``."""
    step = (hi - lo) / (n - 1)
    if step == 0.0:  # a subnormal range: linspace scales i/(n-1) by the range instead
        return [lo + i / (n - 1) * (hi - lo) for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


def on_time_density(spec: OccupancySpec, theta: float) -> float:
    """Density of the total ON time at the scalar ``theta``, evaluated with ``math``.

    Strictly positive on ``[0, t]``; uniform ``1/t`` at the singular point
    ``x = 0``; endpoint value ``x/(1 - exp(-x*t))``, which tends to ``x``
    (from above) as ``t`` grows: total exhaustion becomes the likeliest
    outcome the longer the window.
    """
    t = spec.horizon
    if not 0.0 <= theta <= t:
        raise ValueError(f"theta must lie in [0, {t}]")
    x = spec.rate_gap
    if abs(x) * t < _LIMIT_EPS:
        return 1.0 / t
    if x < 0.0:
        # Mirror: f(theta; x) = f(t - theta; -x).
        x, theta = -x, t - theta
    # Exponents are <= 0 (-inf, where x*t overflows), so exp() never overflows.
    return x * math.exp(x * (theta - t)) / -math.expm1(-x * t)


def on_time_cdf(spec: OccupancySpec, theta):
    """Cumulative on-time law ``(exp(x*theta) - 1)/(exp(x*t) - 1)``.

    Strictly increasing from 0 at ``theta = 0`` to 1 at ``theta = t``;
    ``theta/t`` in the ``x -> 0`` limit.  Scalar or array argument.
    """
    import numpy as np
    arr = np.asarray(theta, dtype=float)
    t = spec.horizon
    if not (np.all(arr >= 0.0) and np.all(arr <= t)):
        raise ValueError(f"theta must lie in [0, {t}]")
    x = spec.rate_gap
    # Exponents that overflow to -inf, where x*t does, give exp() = 0 and expm1() = -1.
    with np.errstate(over="ignore"):
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
    For ``x < 0`` it is evaluated as ``1/|x| - t/(exp(|x|*t) - 1)``, and
    below ``|x|*t = 1e-2`` as the Taylor series
    ``t/2 + x t^2/12 - x^3 t^4/720``, as the closed form cancels digits there.
    """
    t = spec.horizon
    x = spec.rate_gap
    z = abs(x) * t
    if z < _LIMIT_EPS:
        return t / 2.0
    if z < _SERIES_LIMIT:
        return t / 2.0 + x * t * t / 12.0 - x**3 * t**4 / 720.0
    if z > _EXP_OVERFLOW:
        return t - 1.0 / x if x > 0.0 else -1.0 / x
    if x > 0.0:
        return t - 1.0 / x + t / math.expm1(z)
    return -1.0 / x - t / math.expm1(z)


def doubling_edges(scale: float, length: float) -> np.ndarray:
    """Offsets ``0, s, 3s, 7s, ...`` below ``length``: panels doubling in width from 0."""
    import numpy as np
    # Counted in logs, as length/scale may overflow when |x|*t does.
    count = max(1, math.ceil(math.log2(length) - math.log2(scale)) + 1)
    edges = np.ldexp(scale, np.arange(count)) - scale
    return edges[edges < length]


def sorted_distinct(*parts) -> np.ndarray:
    """The distinct values of ``parts`` in increasing order: ``np.unique(np.concatenate(parts))``.

    The same sort-then-compare-neighbours algorithm, and so the same bytes,
    but without ``np.unique``'s ``np.ma.is_masked`` check, which imports
    ``numpy.ma`` (about 15 ms) into every command that merges quadrature panels.
    """
    import numpy as np
    values = np.sort(np.concatenate(parts, axis=None))
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _panel_rule(edges: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite ``points``-point Gauss-Legendre on the panels between ``edges``.

    Returns ``(nodes, weights)`` with one row per panel: ``sum(weights * f(nodes))``
    integrates ``f`` from ``edges[0]`` to ``edges[-1]``.
    """
    import numpy as np
    unit_nodes, unit_weights = np.polynomial.legendre.leggauss(points)
    half = np.diff(edges)[:, None] / 2.0
    return edges[:-1, None] + half * (1.0 + unit_nodes), half * unit_weights


def quad(spec: OccupancySpec, g) -> float:
    """``E[g(T)]``, the integral of ``g(theta) * f(theta)`` over ``[0, t]``.

    ``g`` maps an array of ON times to an array.  Composite 32-point
    Gauss-Legendre on panels of widths ``1/|x|, 2/|x|, 4/|x|, ...`` from the
    end where the density peaks resolves its spike however large ``|x|*t``
    grows (one panel when ``|x|*t <= 1``).
    """
    import numpy as np
    t, x = spec.horizon, spec.rate_gap
    rate = abs(x)
    if rate * t < _LIMIT_EPS:
        # The uniform limit, as the mean of g(t u) over u in [0, 1]: a 1/t
        # would overflow for a subnormal t.
        unit, weight = _panel_rule(np.array([0.0, 1.0]), 32)
        depth, density = t * unit, 1.0
    else:
        # Work in the depth below the peak end, so no digits go to t - depth there.
        edges = doubling_edges(1.0 / rate, t) if rate * t > 1.0 else np.zeros(1)
        depth, weight = _panel_rule(np.append(edges, t), 32)
        # rate*depth may overflow to inf, where exp() rightly gives 0.
        with np.errstate(over="ignore"):
            density = rate * np.exp(-rate * depth) / -math.expm1(-rate * t)
    theta = t - depth if x > 0.0 else depth
    return float(np.sum(weight * density * g(theta)))


def density_curve(spec: OccupancySpec, n_points: int) -> tuple[list[float], list[float]]:
    """``(grid, values)``: the density on a uniform ``n_points`` grid spanning ``[0, t]``.

    Both are lists of floats, so no numpy is loaded; the grid has the values of
    ``np.linspace(0, t, n_points)``, and each value is one :func:`on_time_density`.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points!r}")
    grid = _uniform_grid(0.0, spec.horizon, n_points)
    return grid, [on_time_density(spec, theta) for theta in grid]


class OccupationLaw:
    """Exact law of the total ON time, as masses of ``_LAW_CELLS`` cells.

    ``pmf[k]`` is the probability that the total ON time lies in the cell
    ``[edges[k], edges[k+1]]`` around ``on_times[k] = k*h``, where
    ``h = t/_LAW_CELLS`` and ``edges = [0, h/2, 3*h/2, ..., t - h/2, t]``.
    The end cells carry the never-switching atoms ``atom_zero`` (all OFF)
    and ``atom_full`` (all ON), which exist in the true law but not in the
    continuous closed form.  ``mean`` and the atoms are exact, not read off
    the cells.  Laws compare by identity.
    """

    __slots__ = ("spec", "initial", "on_times", "edges", "pmf")

    def __init__(
        self,
        spec: OccupancySpec,
        initial: NodeState,
        on_times: np.ndarray,
        edges: np.ndarray,
        pmf: np.ndarray,
    ) -> None:
        self.spec = spec
        self.initial = initial
        self.on_times = on_times
        self.edges = edges
        self.pmf = pmf

    @property
    def mean(self) -> float:
        p, t = self.spec.params, self.spec.horizon
        if self.initial is NodeState.ON:
            return _on_start_mean(p.lam, p.mu, t)
        return t - _on_start_mean(p.mu, p.lam, t)

    @property
    def atom_zero(self) -> float:
        return math.exp(-self.spec.params.mu * self.spec.horizon) if self.initial is NodeState.OFF else 0.0

    @property
    def atom_full(self) -> float:
        return math.exp(-self.spec.params.lam * self.spec.horizon) if self.initial is NodeState.ON else 0.0


def _on_start_mean(lam: float, mu: float, t: float) -> float:
    """``E[T]`` from an ON start: ``mu t/(lam+mu) + lam (1 - e^{-(lam+mu) t})/(lam+mu)^2``."""
    if lam == 0.0:
        return t  # never leaves ON
    total = lam + mu
    z = total * t
    if math.isinf(z):  # e^{-z} is 0; dividing first keeps t*mu from overflowing
        return mu / total * t + lam / total / total
    # (1 - e^{-z})/z with z = (lam+mu) t, formed so that tiny rates do not underflow.
    ratio = -math.expm1(-z) / z if z > 0.0 else 1.0
    return t * (mu + lam * ratio) / total


def _scaled_bessel(z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``i0e(z)`` and ``i1e(z)/sqrt(x)`` at ``z = 2 sqrt(x)``: the exponentially scaled Bessel functions.

    Below ``z = 20`` they are ``e^{-z}`` times the power series
    ``sum_j x^j/(j!)^2`` and ``sum_j x^j/(j!(j+1)!)``, summed by Horner up to
    the first term below 1e-17 of the sum at the largest ``x`` (at most 36
    terms).  From ``z = 20`` on they are the Hankel expansion (Abramowitz
    and Stegun 9.7.1) to 20 terms.  Both regimes are within 3e-15 of scipy's
    ``i0e`` and ``i1e``.
    """
    import numpy as np
    i0, i1 = np.empty_like(z), np.empty_like(z)
    series = z < _HANKEL_FROM
    if series.any():
        xs = x[series]
        terms, term, total, x_max = 0, 1.0, 1.0, float(xs.max())
        while term > 1e-17 * total:
            terms += 1
            term *= x_max / (terms * terms)
            total += term
        s0, s1 = np.zeros_like(xs), np.zeros_like(xs)
        for j in range(terms, -1, -1):
            square = math.factorial(j) ** 2
            s0 *= xs
            s0 += 1.0 / square
            s1 *= xs
            s1 += 1.0 / (square * (j + 1))
        scale = np.exp(-z[series])
        i0[series] = s0 * scale
        i1[series] = s1 * scale
    hankel = ~series
    if hankel.any():
        zs = z[hankel]
        w = 1.0 / zs
        h0, h1 = np.zeros_like(zs), np.zeros_like(zs)
        for k in range(19, -1, -1):
            # The coefficient of z^-k is prod((2i-1)^2 - 4 nu^2 for i = 1..k) / (k! 8^k).
            scale = math.factorial(k) * 8**k
            h0 *= w
            h0 += math.prod((2 * i - 1) ** 2 for i in range(1, k + 1)) / scale
            h1 *= w
            h1 += math.prod((2 * i - 1) ** 2 - 4 for i in range(1, k + 1)) / scale
        scale = 1.0 / np.sqrt(2.0 * math.pi * zs)
        i0[hankel] = h0 * scale
        i1[hankel] = h1 * (2.0 * w * scale)  # sqrt(x) = z/2
    return i0, i1


def _on_start_density(lam: float, mu: float, s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density of ``T`` from an ON start at ``s`` and at its mirror ``r = t - s``, both in ``(0, t)``.

    With ``a = lam*s``, ``b = mu*r`` and ``pi_k(m) = e^{-m} m^k/k!`` it is
    ``lam sum_j pi_j(a) pi_j(b) + mu sum_j pi_{j+1}(a) pi_j(b)``: the path
    ends OFF after ``j+1`` ON sojourns, or ON after ``j+1`` OFF sojourns.
    In Bessel form that is ``e^{-(sqrt(a)-sqrt(b))^2} (lam i0e(z) + mu a
    i1e(z)/sqrt(ab))`` with ``z = 2 sqrt(ab)``; the exponent is a square, so
    no digits cancel between ``a + b`` and ``z``.  The Bessel terms depend on
    ``s`` and ``r`` only through ``ab = lam mu s r``, so one evaluation of
    them serves both points: at ``r`` only the exponential and ``a = lam*r``
    differ.  Both ``s`` and ``r`` are passed so that neither is computed as
    a difference of nearby values.  Points go in blocks of
    ``_BLOCK_ELEMENTS``, so the temporaries stay small.  A zero rate leaves
    one term: ``lam e^{-a}`` when ``mu = 0``, and nothing when ``lam = 0``;
    these are taken directly, so that an ``a`` that overflows cannot turn
    ``0 * inf`` into NaN.
    """
    import numpy as np
    if lam == 0.0:
        return np.zeros_like(s), np.zeros_like(r)
    if mu == 0.0:
        with np.errstate(over="ignore"):
            return lam * np.exp(-lam * s), lam * np.exp(-lam * r)
    at_s, at_r = np.empty_like(s), np.empty_like(r)
    # Where lam*s or mu*r overflows the density turns NaN, which the law's mass check refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, s.size, _BLOCK_ELEMENTS):
            block = slice(lo, lo + _BLOCK_ELEMENTS)
            a, b = lam * s[block], mu * r[block]
            root_a, root_b = np.sqrt(a), np.sqrt(b)
            i0, i1 = _scaled_bessel(2.0 * root_a * root_b, a * b)
            i0 *= lam
            i1 *= mu
            at_s[block] = np.exp(-(root_a - root_b) ** 2) * (i0 + a * i1)
            a = lam * r[block]
            at_r[block] = np.exp(-(np.sqrt(a) - np.sqrt(mu * s[block])) ** 2) * (i0 + a * i1)
    return at_s, at_r


def exact_occupation_distribution(spec: OccupancySpec, initial: NodeState) -> OccupationLaw:
    """Exact occupation-time law (Pedler 1971) on ``_LAW_CELLS`` cells of ``[0, t]``.

    From an ON start, ``T`` has the atom ``e^{-lam*t}`` at ``t`` and the
    density of :func:`_on_start_density` on ``(0, t)``; from an OFF start it
    is ``t`` minus ``T`` of an ON start with the rates swapped.  Each cell
    mass is a 12-point Gauss-Legendre sum, on panels cut further at
    boundary layers of width ``1/max(lam, mu)`` at both ends of the window,
    where the density can be a spike narrower than a cell, and about its
    mode where that is narrower than a cell.  Each node ``s`` of the half
    window ``[0, t/2]`` also serves its mirror ``t - s``.  Total mass is
    checked to 1e-9.  Unlike the closed form, the law depends on the
    initial state.
    """
    import numpy as np
    t = spec.horizon
    n = _LAW_CELLS
    h = t / n
    if h * n != t:  # a subnormal t/n is rounded, and its cells would not tile [0, t]
        raise ValueError(f"horizon {t!r} is too small to cut into {n} exact cells")
    lam, mu = spec.params.lam, spec.params.mu
    if initial is NodeState.OFF:
        lam, mu = mu, lam
    cell_edges = np.concatenate([[0.0], (np.arange(n) + 0.5) * h, [t]])
    # Cells of the half window [0, t/2]; the other half is their mirror image,
    # so every node is held as its distance to the nearer end of the window
    # and neither s nor t - s loses digits to a subtraction.
    edges = np.append(cell_edges[:n // 2 + 1], t / 2.0)
    rate = max(lam, mu)
    cuts = [edges]
    if rate * t > 1.0:
        cuts.append(doubling_edges(1.0 / rate, t / 2.0))
    # Where both rates switch within the window, the density is close to a
    # normal law about its mode s = mu t/(lam+mu), of variance
    # 2 lam mu t/(lam+mu)^3; once that is narrower than a cell, panels also
    # double out from the mode.
    if min(lam, mu) * t > 1.0:
        rates = lam + mu
        width = math.sqrt(2.0 * (lam / rates) * (mu / rates) * (t / rates))
        if width < h:
            mode, offsets = t * min(lam, mu) / rates, doubling_edges(width, t / 2.0)
            cuts.append(np.clip(np.concatenate([mode - offsets, mode + offsets]), 0.0, t / 2.0))
    panels = sorted_distinct(*cuts)
    near, weight = _panel_rule(panels, 12)
    cell = np.repeat(np.searchsorted(edges, panels[:-1], side="right") - 1, near.shape[1])
    near, weight = near.ravel(), weight.ravel()
    at_near, at_far = _on_start_density(lam, mu, near, t - near)
    at_near *= weight
    at_far *= weight
    pmf = np.bincount(cell, at_near, n + 1)
    pmf += np.bincount(n - cell, at_far, n + 1)
    pmf[n] += math.exp(-lam * t)
    if initial is NodeState.OFF:
        pmf = pmf[::-1]
    # Fails (NaN included) only where lam*t and mu*t are both beyond about 1e15: the
    # exponent's rounding then shows at the scale of the density's width.
    total = float(pmf.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"occupation law lost probability mass: sum={total!r}; "
                         "the rates times the horizon are beyond the law's floating-point resolution")
    return OccupationLaw(spec, initial, np.linspace(0.0, t, n + 1), cell_edges, pmf)


def closed_form_gap(law: OccupationLaw) -> float:
    """Total-variation distance between the exact law and the closed form.

    The closed-form density is binned onto the law's cells (cdf differences
    over ``law.edges``), so both sides live on the same support.  Nonzero in
    general: the closed form carries no boundary atoms and ignores path
    multiplicity.
    """
    import numpy as np
    closed_masses = np.diff(on_time_cdf(law.spec, law.edges))
    return 0.5 * float(np.abs(law.pmf - closed_masses).sum())
