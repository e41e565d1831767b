"""Tests for the closed-form on-time law and the exact occupation-time law.

Frozen expected values were computed beforehand with 30-digit mpmath
arithmetic and independent quadrature; the quadrature oracles are repeated
here at float precision via scipy.  The exact law is checked against a slot
dynamic program, against scipy's Bessel functions and against Monte Carlo.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

from onoffnet.activity import NodeState, OnOffParams, monte_carlo_on_times
from onoffnet.cli import main
from onoffnet.occupancy import (
    _LAW_CELLS,
    OccupancySpec,
    closed_form_gap,
    density_curve,
    _on_start_density,
    doubling_edges,
    exact_occupation_distribution,
    mean_on_time,
    on_time_cdf,
    on_time_density,
    sorted_distinct,
    _uniform_grid,
)
from onoffnet.occupancy import quad as density_quad


def spec_of(lam: float, mu: float, t: float) -> OccupancySpec:
    return OccupancySpec(OnOffParams(lam, mu), t)


# A modest rate/horizon grid exercised by the property tests below; the
# acceptance suite runs the full grid with its stated tolerances.
GRID = [
    (lam, mu, t)
    for lam in (0.0, 0.5, 3.0)
    for mu in (0.0, 0.1, 1.0)
    for t in (0.5, 10.0)
]


# --- envelope ---------------------------------------------------------------
# The density is the path envelope exp(-mu*(t-theta)) * exp(-lam*theta) scaled
# by C = (mu - lam)/(exp(-lam*t) - exp(-mu*t)).


def envelope(lam: float, mu: float, t: float, theta: float) -> float:
    return math.exp(-mu * (t - theta)) * math.exp(-lam * theta)


def test_constant_frozen_values():
    # C at two rate sets, frozen from 30-digit arithmetic.
    for (lam, mu, t), c in (((0.5, 1.0, 2.0), 2.1501292676641858), ((0.0, 1.0, 1.0), 1.5819767068693264)):
        for theta in (0.0, 0.3 * t, t):
            assert on_time_density(spec_of(lam, mu, t), theta) == pytest.approx(
                c * envelope(lam, mu, t, theta), rel=1e-12
            )


@pytest.mark.parametrize("lam,mu,t", GRID)
def test_constant_inverts_envelope_integral(lam, mu, t):
    # 1/C is the integral of the envelope over [0, t], so density times that
    # integral gives back the envelope everywhere.
    integral, _ = quad(lambda th: envelope(lam, mu, t, th), 0.0, t, epsabs=1e-13, epsrel=1e-13)
    spec = spec_of(lam, mu, t)
    for theta in np.linspace(0.0, t, 7):
        assert on_time_density(spec, theta) * integral == pytest.approx(
            envelope(lam, mu, t, theta), rel=1e-9
        )


# --- density --------------------------------------------------------------


def test_density_uniform_limit():
    spec = spec_of(0.7, 0.7, 10.0)
    for theta in (0.0, 3.3, 10.0):
        assert on_time_density(spec, theta) == 0.1


def test_density_frozen_value():
    assert on_time_density(spec_of(0.0, 1.0, 1.0), 1.0) == pytest.approx(
        1.5819767068693264, rel=1e-12
    )


def test_density_endpoint_tends_to_one_for_unit_gap():
    # At x=1 the endpoint density x/(1 - exp(-x*t)) approaches 1 from above;
    # by t=50 the excess exp(-50) sits below float resolution.
    assert on_time_density(spec_of(0.0, 1.0, 5.0), 5.0) > 1.0
    assert on_time_density(spec_of(0.0, 1.0, 50.0), 50.0) == pytest.approx(1.0, abs=1e-3)


def test_density_rejects_theta_outside_window():
    spec = spec_of(0.2, 0.8, 2.0)
    with pytest.raises(ValueError):
        on_time_density(spec, -0.01)
    with pytest.raises(ValueError):
        on_time_density(spec, 2.01)


@pytest.mark.parametrize("lam,mu,t", GRID)
def test_density_positive_and_normalized(lam, mu, t):
    spec = spec_of(lam, mu, t)
    grid = np.linspace(0.0, t, 101)
    assert all(on_time_density(spec, th) > 0.0 for th in grid)
    mass, _ = quad(lambda th: on_time_density(spec, th), 0.0, t, epsabs=1e-12, epsrel=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("lam,mu,t", GRID)
def test_density_rate_swap_mirrors_curve(lam, mu, t):
    spec = spec_of(lam, mu, t)
    swapped = spec_of(mu, lam, t)
    grid = np.linspace(0.0, t, 57)
    direct = [on_time_density(spec, th) for th in grid]
    mirrored = [on_time_density(swapped, th) for th in t - grid]
    assert direct == pytest.approx(mirrored, rel=1e-12)


def test_density_no_overflow_for_huge_rate_gap():
    spec = spec_of(0.0, 2000.0, 5.0)
    assert on_time_density(spec, 0.0) >= 0.0  # underflows cleanly, no exception
    assert on_time_density(spec, 5.0) == pytest.approx(2000.0, rel=1e-12)


# --- cdf -------------------------------------------------------------------


def test_cdf_endpoints():
    for lam, mu, t in GRID:
        spec = spec_of(lam, mu, t)
        assert on_time_cdf(spec, 0.0) == 0.0
        assert on_time_cdf(spec, t) == pytest.approx(1.0, rel=1e-12)


def test_cdf_frozen_value():
    assert on_time_cdf(spec_of(0.0, 1.0, 1.0), 0.5) == pytest.approx(
        0.37754066879814544, rel=1e-12
    )


def test_cdf_matches_integrated_density():
    spec = spec_of(0.0, 1.0, 1.0)
    mass, _ = quad(lambda th: on_time_density(spec, th), 0.0, 0.5, epsabs=1e-12, epsrel=1e-12)
    assert on_time_cdf(spec, 0.5) == pytest.approx(mass, abs=1e-9)


@pytest.mark.parametrize("lam,mu,t", GRID)
def test_cdf_strictly_increasing(lam, mu, t):
    spec = spec_of(lam, mu, t)
    grid = np.linspace(0.0, t, 200)
    values = on_time_cdf(spec, grid)
    assert np.all(np.diff(values) > 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("lam,mu,t", [(0.3, 1.2, 2.0), (2.0, 0.4, 5.0), (0.0, 1.0, 1.0)])
def test_cdf_derivative_matches_density(lam, mu, t):
    spec = spec_of(lam, mu, t)
    h = 1e-6 * t
    for theta in np.linspace(0.1 * t, 0.9 * t, 9):
        derivative = (on_time_cdf(spec, theta + h) - on_time_cdf(spec, theta - h)) / (2 * h)
        assert derivative == pytest.approx(on_time_density(spec, theta), rel=1e-5)


def test_cdf_rejects_theta_outside_window():
    with pytest.raises(ValueError):
        on_time_cdf(spec_of(0.1, 0.2, 1.0), 1.5)


# --- mean -------------------------------------------------------------------


def test_mean_uniform_case_is_half_horizon():
    assert mean_on_time(spec_of(2.0, 2.0, 10.0)) == 5.0


def test_mean_frozen_values():
    assert mean_on_time(spec_of(0.0, 1.0, 10.0)) == pytest.approx(9.000454019910097, rel=1e-12)
    assert mean_on_time(spec_of(0.0, 0.4, 1.0)) == pytest.approx(0.5332447817197364, rel=1e-12)


@pytest.mark.parametrize("lam,mu,t", GRID)
def test_mean_matches_quadrature(lam, mu, t):
    spec = spec_of(lam, mu, t)
    integral, _ = quad(lambda th: th * on_time_density(spec, th), 0.0, t,
                       epsabs=1e-13, epsrel=1e-13)
    assert mean_on_time(spec) == pytest.approx(integral, rel=1e-8)
    assert 0.0 < mean_on_time(spec) < t


def test_mean_sign_variant_diverges_at_small_gap():
    # The plus-signed variant t + 1/x + t/(exp(x*t)-1) blows up like 2/x as
    # x -> 0; the implemented minus-signed form tends to t/2 as the defining
    # integral requires.  Regression-pins the correct sign.
    t = 10.0
    for x in (1e-6, -1e-6):
        variant = t + 1.0 / x + t / math.expm1(x * t)
        assert abs(variant - t / 2.0) > 1e5
        assert mean_on_time(spec_of(0.0, x, t) if x > 0 else spec_of(-x, 0.0, t)) == pytest.approx(
            t / 2.0, abs=1e-4
        )


@pytest.mark.parametrize(
    "lam,t,expected",
    [(1e8, 100.0, 1e-8), (1e300, 1e10, 1e-300), (1e-5, 1.0, 0.5 - 1e-5 / 12.0 + 1e-15 / 720.0)],
)
def test_mean_keeps_digits_for_negative_and_small_gaps(lam, t, expected):
    # For x < 0 the mean is 1/|x| - t/(e^{|x| t} - 1); t - 1/x + t/(e^{x t} - 1)
    # gave 9.99999372e-9 and 0.0 for the first two.  Near x = 0 the closed
    # form cancels digits and the Taylor series t/2 + x t^2/12 - x^3 t^4/720
    # takes over.
    assert mean_on_time(spec_of(lam, 0.0, t)) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_limits_continuity_across_singularity():
    # density, cdf and mean all converge to the uniform-case values at |x|=1e-6.
    t = 10.0
    uniform = spec_of(1.0, 1.0, t)
    for x in (1e-6, -1e-6):
        spec = spec_of(1.0, 1.0 + x, t)
        assert on_time_density(spec, 3.0) == pytest.approx(on_time_density(uniform, 3.0), rel=1e-4)
        assert on_time_cdf(spec, 3.0) == pytest.approx(on_time_cdf(uniform, 3.0), rel=1e-4)
        assert mean_on_time(spec) == pytest.approx(mean_on_time(uniform), rel=1e-4)


# --- quadrature against the density -------------------------------------------


def test_doubling_edges():
    assert doubling_edges(1.0, 10.0).tolist() == [0.0, 1.0, 3.0, 7.0]
    assert doubling_edges(0.5, 3.5).tolist() == [0.0, 0.5, 1.5]
    assert doubling_edges(2.0, 1.0).tolist() == [0.0]
    huge = doubling_edges(1e-300, 1e10)  # length/scale overflows a float
    assert huge.size == 1030 and huge[-1] < 1e10 and np.all(np.diff(huge) > 0.0)


@pytest.mark.parametrize("lam,mu,t", GRID + [(1.0, 3.0, 4.0), (0.2, 1.0, 5.0), (0.5, 0.5, 6.0)])
def test_quad_mass_and_mean(lam, mu, t):
    spec = spec_of(lam, mu, t)
    assert density_quad(spec, np.ones_like) == pytest.approx(1.0, rel=1e-13)
    assert density_quad(spec, lambda th: th) == pytest.approx(mean_on_time(spec), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(1e-3, 1e3),
    log_gap=st.floats(-10.0, 6.0),
    positive=st.booleans(),
)
def test_quad_mean_matches_closed_form_up_to_huge_gaps(t, log_gap, positive):
    # |x|*t spans 1e-10 .. 1e6: the uniform limit, the Taylor branch of the
    # mean, one panel, and a spike of width 1/|x| at either end of the window.
    spec = spec_of(0.0, 10.0 ** log_gap / t, t) if positive else spec_of(10.0 ** log_gap / t, 0.0, t)
    assert density_quad(spec, lambda th: th) == pytest.approx(mean_on_time(spec), rel=1e-9)


@pytest.mark.parametrize("t", [5e-324, 2.0**-1040, 1e-310])
def test_quad_uniform_limit_at_subnormal_horizons(t):
    # The uniform density 1/t overflows for these horizons; the limit is
    # integrated on [0, 1] instead, so mass and mean stay finite.
    spec = spec_of(1.0, 1.0, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mass = density_quad(spec, np.ones_like)
        mean = density_quad(spec, lambda th: th)
    assert mass == pytest.approx(1.0, rel=1e-13)
    assert 0.0 <= mean <= t
    if t > 1e-320:  # 5e-324 has one bit: its half rounds to 0
        assert mean == pytest.approx(t / 2.0, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40), min_size=1, max_size=4
    )
)
def test_sorted_distinct_is_np_unique(parts):
    arrays = [np.asarray(part, dtype=float) for part in parts]
    expected = np.unique(np.concatenate(arrays))
    got = sorted_distinct(*arrays)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()  # signed zeros included


# Finite floats of every magnitude, and ranges so narrow that their step is 0.
_grid_ends = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-50, 50).map(lambda k: k * 5e-324)


@settings(max_examples=500, deadline=None)
@given(lo=_grid_ends, hi=_grid_ends, n=st.integers(2, 300))
def test_uniform_grid_is_linspace(lo, hi, n):
    with np.errstate(all="ignore"):  # a range wider than the largest float overflows
        expected = np.linspace(lo, hi, n)
    got = np.array(_uniform_grid(lo, hi, n))
    assert got.tobytes() == expected.tobytes()  # signed zeros, and NaN where the range overflows


# --- curves -----------------------------------------------------------------


def test_curve_uniform_values():
    _, values = density_curve(spec_of(1.0, 1.0, 1.0), 5)
    assert all(value == 1.0 for value in values)


def test_curve_endpoint_ordering_in_rate_gap():
    t = 10.0
    endpoints = [
        density_curve(spec_of(0.0, x, t), 101)[1][-1] for x in (0.4, 0.6, 0.8, 1.0)
    ]
    assert all(a < b for a, b in zip(endpoints, endpoints[1:]))


def test_curve_rejects_single_point():
    with pytest.raises(ValueError):
        density_curve(spec_of(0.0, 1.0, 1.0), 1)


def test_curve_csv_lines_are_parseable(tmp_path):
    out = tmp_path / "single.csv"
    args = ["--lambda", "0.5", "--mu", "1.0", "--horizon", "2.0", "--points", "101", "--out", str(out)]
    assert main(["density", *args]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "# lambda=0.5 mu=1.0 horizon=2.0 x=0.5"
    assert lines[2] == "theta,density"
    theta, value = lines[3].split(",")
    assert float(theta) == 0.0
    assert float(value) == density_curve(spec_of(0.5, 1.0, 2.0), 101)[1][0]


# --- exact occupation law ----------------------------------------------------


def dp_occupation_pmf(spec: OccupancySpec, step: float, initial: NodeState) -> np.ndarray:
    """Occupation-time pmf on the slot grid ``k*step`` by dynamic programming.

    Time is cut into ``t/step`` slots; per slot the chain switches with
    probability ``1 - exp(-lam*step)`` from ON and ``1 - exp(-mu*step)`` from
    OFF, and the joint distribution over (current state, number of ON slots)
    is propagated exactly.  It shares no arithmetic with the closed form of
    the law and is off from it by O(step).
    """
    t = spec.horizon
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
    return on + off


@pytest.mark.parametrize("slots", [_LAW_CELLS])  # one DP slot per cell of the law
@pytest.mark.parametrize("initial", [NodeState.ON, NodeState.OFF], ids=["on", "off"])
@pytest.mark.parametrize("lam,mu,t", [(1.0, 3.0, 4.0), (0.2, 1.0, 5.0), (0.5, 0.5, 6.0), (3.0, 3.0, 10.0)])
def test_exact_law_matches_dp_oracle(lam, mu, t, initial, slots):
    # The DP is off by O(step); both bounds were fixed at (lam+mu)*step
    # before measuring, which gave 0.09-0.69 of step for TV and 0.13-0.94 of
    # step for the mean.
    spec = spec_of(lam, mu, t)
    step = t / slots
    law = exact_occupation_distribution(spec, initial)
    dp = dp_occupation_pmf(spec, step, initial)
    assert 0.5 * float(np.abs(dp - law.pmf).sum()) <= (lam + mu) * step
    assert abs(float(np.dot(dp, law.on_times)) - law.mean) <= (lam + mu) * step


def bessel_density(lam: float, mu: float, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The ON-start density at ``s`` in ``(0, t)``, given ``r = t - s``, through scipy's scaled Bessel functions.

    ``e^{-(sqrt(a) - sqrt(b))^2} (lam i0e(z) + sqrt(lam mu s/r) i1e(z))``, with
    ``a = lam s``, ``b = mu r`` and ``z = 2 sqrt(ab)``.  The exponent
    ``z - a - b`` is formed as a square, as it loses every digit to
    cancellation once ``a + b`` is large.
    """
    a, b = lam * s, mu * r
    z = 2.0 * np.sqrt(a * b)
    return np.exp(-(np.sqrt(a) - np.sqrt(b)) ** 2) * (lam * special.i0e(z) + np.sqrt(lam * mu * s / r) * special.i1e(z))


@pytest.mark.parametrize("lam,mu,t", [(1.0, 3.0, 4.0), (0.2, 1.0, 5.0), (0.5, 0.5, 6.0), (3.0, 3.0, 10.0)])
def test_exact_density_matches_bessel_form(lam, mu, t):
    s = np.linspace(0.0, t, 403)[1:-1]
    r = t - s
    at_s, at_r = _on_start_density(lam, mu, s, r)
    assert at_s == pytest.approx(bessel_density(lam, mu, s, r), rel=1e-13, abs=0.0)
    assert at_r == pytest.approx(bessel_density(lam, mu, r, s), rel=1e-13, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    z=st.one_of(st.floats(1e-3, 40.0), st.floats(1e-3, 1e6)),
    gap=st.floats(-25.0, 25.0),
    s=st.floats(0.01, 100.0),
    r=st.floats(0.01, 100.0),
)
@example(z=20.0, gap=0.0, s=1.0, r=1.0)
@example(z=19.999999999999996, gap=0.0, s=1.0, r=1.0)
@example(z=1e6, gap=-3.0, s=2.0, r=0.5)
def test_exact_density_matches_bessel_form_in_both_regimes(z, gap, s, r):
    # The rates put a = lam*s and b = mu*r at sqrt(a) - sqrt(b) = gap and
    # 2 sqrt(ab) = z, on both sides of the series/Hankel switch at z = 20.
    # Values below 1e-300 are compared absolutely: near the subnormal range
    # they carry too few digits for a relative bound.
    root_a = (gap + math.sqrt(gap * gap + 2.0 * z)) / 2.0
    lam, mu = root_a**2 / s, (root_a - gap) ** 2 / r
    at_s, at_r = _on_start_density(lam, mu, np.array([s]), np.array([r]))
    assert at_s == pytest.approx(bessel_density(lam, mu, np.array([s]), np.array([r])), rel=1e-13, abs=1e-300)
    assert at_r == pytest.approx(bessel_density(lam, mu, np.array([r]), np.array([s])), rel=1e-13, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 10.0), mu=st.floats(0.0, 10.0), t=st.floats(0.1, 10.0))
def test_exact_law_is_normalised_and_mirrors_under_rate_swap(lam, mu, t):
    spec, swapped = spec_of(lam, mu, t), spec_of(mu, lam, t)
    on = exact_occupation_distribution(spec, NodeState.ON)
    off = exact_occupation_distribution(spec, NodeState.OFF)
    assert float(on.pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(on.pmf >= 0.0)
    mirror = exact_occupation_distribution(swapped, NodeState.ON)
    assert off.pmf.tolist() == mirror.pmf[::-1].tolist()
    assert off.mean == pytest.approx(t - mirror.mean, rel=1e-12, abs=1e-12 * t)
    assert (off.atom_zero, off.atom_full) == (mirror.atom_full, mirror.atom_zero)


RATES = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))


@settings(max_examples=40, deadline=None)
@given(lam=RATES, mu=RATES, t=st.floats(0.1, 10.0))
def test_exact_law_is_invariant_under_power_of_two_rescaling(lam, mu, t):
    # Doubling both rates and halving the horizon scales every node and
    # weight by a power of two and leaves a = lam*s and b = mu*(t - s) as
    # they are, so the cell masses are bit-equal and the mean halves exactly.
    # That holds while no product is subnormal, where scaling rounds: a rate
    # of 1e-266 gives cell masses near 1e-312, so rates are 0 or >= 1e-3.
    for initial in (NodeState.ON, NodeState.OFF):
        law = exact_occupation_distribution(spec_of(lam, mu, t), initial)
        rescaled = exact_occupation_distribution(spec_of(2.0 * lam, 2.0 * mu, t / 2.0), initial)
        assert rescaled.pmf.tolist() == law.pmf.tolist()
        assert rescaled.mean == law.mean / 2.0


@pytest.mark.parametrize("initial", [NodeState.ON, NodeState.OFF], ids=["on", "off"])
@pytest.mark.parametrize("lam,mu,t", [(0.0, 1e8, 100.0), (50.0, 80.0, 20.0)])
def test_exact_law_keeps_mass_at_spikes_and_large_rates(lam, mu, t, initial):
    # (0, 1e8, 100) from OFF is a spike of width 1e-8 at T = t, inside one
    # cell; (50, 80, 20) reaches z = 2 sqrt(ab) = 1,265, where the density
    # takes the Hankel expansion.
    law = exact_occupation_distribution(spec_of(lam, mu, t), initial)
    assert float(law.pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(law.pmf >= 0.0)
    assert abs(float(np.dot(law.pmf, law.on_times)) - law.mean) <= t / _LAW_CELLS


@pytest.mark.parametrize("rate", [0.0, 5e-324, 1e-300])
def test_exact_law_mean_and_atoms_at_vanishing_rates(rate):
    # Neither start state ever switches: T = t from ON, T = 0 from OFF.
    spec = spec_of(rate, rate, 2.0)
    on = exact_occupation_distribution(spec, NodeState.ON)
    off = exact_occupation_distribution(spec, NodeState.OFF)
    assert (on.mean, on.atom_full, on.pmf[-1]) == (2.0, 1.0, 1.0)
    assert (off.mean, off.atom_zero, off.pmf[0]) == (0.0, 1.0, 1.0)


@pytest.mark.parametrize("initial", [NodeState.ON, NodeState.OFF], ids=["on", "off"])
@pytest.mark.parametrize("lam,mu,t", [(200.0, 200.0, 100.0), (1e7, 1e7, 100.0), (2e7, 9000.0, 1.0)])
def test_exact_law_needs_no_term_budget(lam, mu, t, initial):
    # At (200, 200, 100) z = 2 sqrt(ab) reaches 2e4: a Poisson-product sum
    # needs about 10,000 terms per point there, the Bessel form at most 36.
    # In the other two the density's mode is narrower than a cell (1.6e-3 and
    # 6.7e-6 wide, against cells of 0.024 and 2.4e-4); without panels that
    # double out from it their mass is off by 7e-8 and 0.23.
    law = exact_occupation_distribution(spec_of(lam, mu, t), initial)
    assert float(law.pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(law.pmf >= 0.0)
    assert abs(float(np.dot(law.pmf, law.on_times)) - law.mean) <= t / _LAW_CELLS


def test_exact_law_refuses_rates_beyond_its_float_resolution():
    # With lam*t = mu*t = 1e30 the density's width, 1/(2 sqrt(lam)) here, is
    # below what the rounding of its exponent resolves, and the mass check fails.
    with pytest.raises(ValueError, match="lost probability mass"):
        exact_occupation_distribution(spec_of(1e30, 1e30, 1.0), NodeState.ON)


def test_exact_law_absorbing_on_puts_all_mass_at_horizon():
    law = exact_occupation_distribution(spec_of(0.0, 2.0, 4.0), NodeState.ON)
    assert law.atom_full == pytest.approx(1.0, abs=1e-12)
    assert law.mean == pytest.approx(4.0, abs=1e-12)


def test_exact_law_conserves_mass():
    law = exact_occupation_distribution(spec_of(1.0, 3.0, 4.0), NodeState.ON)
    assert float(law.pmf.sum()) == pytest.approx(1.0, abs=1e-9)
    assert np.all(law.pmf >= 0.0)


@pytest.mark.parametrize("t", [5e-324, 1e-310, 2.0**-1015 + 2.0**-1067])
def test_exact_law_refuses_horizons_too_small_for_exact_cells(t):
    # Each cell edge is an exact multiple of t/4096 only where that quotient
    # is not rounded; a power of two as small as 2**-1040 is still cut exactly.
    with pytest.raises(ValueError, match="exact cells"):
        exact_occupation_distribution(spec_of(1.0, 1.0, t), NodeState.ON)
    law = exact_occupation_distribution(spec_of(1.0, 1.0, 2.0**-1040), NodeState.OFF)
    assert law.edges[-2] == 2.0**-1040 - 2.0**-1053 and law.pmf[0] == 1.0


def test_exact_law_atoms_match_no_switch_probabilities():
    # Mass at T=t is the probability of never leaving ON: exp(-lam*t) up to
    # the O(step) discretisation of the first switch.
    lam, t = 1.0, 4.0
    law = exact_occupation_distribution(spec_of(lam, 3.0, t), NodeState.ON)
    assert law.atom_zero == 0.0  # starting ON always accrues at least one slot
    assert law.atom_full == pytest.approx(math.exp(-lam * t), rel=1e-2)
    off_law = exact_occupation_distribution(spec_of(lam, 3.0, t), NodeState.OFF)
    assert off_law.atom_zero == pytest.approx(math.exp(-3.0 * t), rel=1e-2)


def test_exact_law_mean_matches_monte_carlo():
    spec = spec_of(1.0, 3.0, 4.0)
    law = exact_occupation_distribution(spec, NodeState.ON)
    samples = monte_carlo_on_times(spec.params, NodeState.ON, 4.0, 20_000, 3)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - law.mean) < 3.0 * stderr


def test_exact_law_differs_from_closed_form():
    # The closed form is an envelope approximation; its gap to the true law
    # is genuinely nonzero and the initial state matters.
    spec = spec_of(0.2, 1.0, 5.0)
    law_on = exact_occupation_distribution(spec, NodeState.ON)
    law_off = exact_occupation_distribution(spec, NodeState.OFF)
    gap_on = closed_form_gap(law_on)
    gap_off = closed_form_gap(law_off)
    assert 0.0 < gap_on < 1.0
    assert 0.0 < gap_off < 1.0
    assert gap_on != pytest.approx(gap_off, rel=1e-3)


def test_law_cells_and_exact_bin_masses():
    lam, mu, t = 1.0, 3.0, 4.0
    law = exact_occupation_distribution(spec_of(lam, mu, t), NodeState.ON)
    h = t / _LAW_CELLS
    assert law.edges[0] == 0.0 and law.edges[-1] == t
    assert law.edges.size == law.pmf.size + 1 == _LAW_CELLS + 2
    assert np.all(np.diff(law.edges[1:-1]) == h)
    assert np.all(law.edges[1:-1] == law.on_times[:-1] + h / 2)
    # A run of cells holds the integral of the density over its span, which
    # scipy's Bessel form gives with its own quadrature.
    cum = np.concatenate([[0.0], np.cumsum(law.pmf)])
    for lo, hi in [(1, 7), (7, 150), (150, _LAW_CELLS)]:
        mass, _ = quad(lambda s: float(bessel_density(lam, mu, np.array([s]), np.array([t - s]))[0]), law.edges[lo],
                       law.edges[hi], epsabs=1e-14, epsrel=1e-12)
        assert cum[hi] - cum[lo] == pytest.approx(mass, rel=1e-10, abs=1e-15)


def equiprobable_bins(law, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell edges over [0, horizon] that cut the exact law into ~equal-mass bins, and their masses."""
    cum = np.concatenate([[0.0], np.cumsum(law.pmf)])
    targets = np.arange(1, n_bins) / n_bins
    index = np.unique(np.concatenate([[0], np.searchsorted(cum[1:], targets) + 1, [law.pmf.size]]))
    return law.edges[index], np.diff(cum[index])


def test_exact_law_agrees_with_monte_carlo_in_distribution():
    spec = spec_of(1.0, 3.0, 4.0)
    law = exact_occupation_distribution(spec, NodeState.ON)
    samples = monte_carlo_on_times(spec.params, NodeState.ON, 4.0, 20_000, 5)
    edges, masses = equiprobable_bins(law, 15)
    observed, _ = np.histogram(samples, bins=edges)
    expected = masses * samples.size
    assert np.all(expected > 5.0)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = stats.chi2.sf(chi2, len(expected) - 1)
    assert p_value > 0.001
