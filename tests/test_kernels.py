"""Kernel evaluation, dominating bounds, and the power-difference inequality."""

import math
from functools import partial

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from semsim import (
    KernelParams,
    builtin_dampening,
    builtin_hurst,
    check_fund_ineq,
    dominating_kernel,
    lambda_gamma,
    sigma,
)

from _scans import (
    HURST_FAMILIES,
    TIME_REG_CONSTANT,
    calibration,
    growth_violations,
    lipschitz_violations,
    time_reg_violations,
)


def _params(hurst, dampening=None, horizon=2.5):
    return KernelParams(hurst=hurst, dampening=dampening, horizon=horizon)


def test_sigma_is_one_for_exponent_half():
    p = _params(builtin_hurst("constant", [0.5]))
    for t, s, x in [(1.0, 0.0, 0.0), (2.5, 2.4999, -17.0), (0.01, 0.005, 3.0)]:
        assert sigma(p, t, s, x) == 1.0


def test_sigma_boundary_exponent():
    p = _params(builtin_hurst("constant", [1.0]))
    assert sigma(p, 1.25, 1.0, 0.0) == 0.5


def test_sigma_dampening_factor():
    h = builtin_hurst("constant", [0.7])
    plain = _params(h)
    damped = _params(h, builtin_dampening("constant", [2.0]))
    t, s, x = 1.5, 0.5, 4.0
    assert sigma(damped, t, s, x) == pytest.approx(
        sigma(plain, t, s, x) * math.exp(-2.0), rel=1e-15
    )


def test_zero_dampening_matches_undampened():
    h = builtin_hurst("bell")
    plain = _params(h)
    zero = _params(h, builtin_dampening("constant", [0.0]))
    for t, s, x in [(1.0, 0.3, 0.2), (2.2, 2.1, -5.0), (0.5, 0.0, 1.0)]:
        assert sigma(zero, t, s, x) == sigma(plain, t, s, x)


@pytest.mark.parametrize("t,s", [(1.0, 1.0), (0.5, 0.7), (1.0, -0.1), (3.0, 1.0)])
def test_sigma_rejects_bad_times(t, s):
    p = _params(builtin_hurst("constant", [0.5]))
    with pytest.raises(ValueError):
        sigma(p, t, s, 0.0)


def test_sigma_positive_and_finite():
    rng = np.random.default_rng(21)
    p = _params(builtin_hurst("rough_at_origin"))
    for _ in range(500):
        s, t = np.sort(rng.uniform(0.0, 2.5, 2))
        if t - s < 1e-12:
            continue
        value = sigma(p, t, s, rng.uniform(-10, 10))
        assert math.isfinite(value) and value > 0.0


def test_dominating_kernel_flat_case():
    p = _params(builtin_hurst("constant", [0.5]), horizon=7.0)
    for t, s in [(1.0, 0.5), (6.9, 0.0), (0.2, 0.1)]:
        assert dominating_kernel(p, t, s) == 1.0


def test_dominating_kernel_spread_case():
    h = builtin_hurst("trig", [0.5, 0.25, 1.0])  # bounds 0.25, 0.75
    p = _params(h, horizon=1.0)
    assert dominating_kernel(p, 0.5, 0.25) == pytest.approx(2.0, rel=1e-14)


def test_dominating_kernel_rejects_order():
    p = _params(builtin_hurst("constant", [0.5]))
    with pytest.raises(ValueError):
        dominating_kernel(p, 0.5, 0.5)


@pytest.mark.parametrize("name", sorted(HURST_FAMILIES), ids=str)
def test_growth_bound_scan(name):
    bad, n = growth_violations(HURST_FAMILIES[name], 20_000, seed=101)
    assert bad == 0 and n > 15_000


@pytest.mark.parametrize("name", sorted(HURST_FAMILIES), ids=str)
def test_state_lipschitz_bound_scan(name):
    hurst = HURST_FAMILIES[name]
    if hurst.lip_x == 0.0:
        pytest.skip("state-independent family, difference vanishes identically")
    bad, n = lipschitz_violations(hurst, 20_000, seed=202)
    assert bad == 0 and n > 15_000


@pytest.mark.parametrize("name", sorted(HURST_FAMILIES), ids=str)
def test_time_regularity_bound_scan(name):
    bad, n = time_reg_violations(HURST_FAMILIES[name], name, 20_000, seed=303)
    assert bad == 0 and n > 45_000


def test_calibration_script_proposes_at_most_the_frozen_constants():
    # One generator drawn in the order of the script's main().
    rng = np.random.default_rng(calibration.RNG_SEED)
    hursts = calibration.HURSTS
    growth = [calibration.growth_ratio(h, rng) for h in hursts.values()]
    lipschitz = [calibration.lipschitz_ratio(h, rng) for h in hursts.values() if h.lip_x != 0.0]
    proposed = {
        name: calibration.round_up(4.0 * max(calibration.time_reg_ratio(h, damp, rng)
                                              for damp in calibration.DAMPS.values()))
        for name, h in hursts.items()
    }
    # The relative slack of the scans in _scans: for constant Hurst sigma^2
    # equals the dominating kernel, and the ratio rounds to 1 + 2 ulp.
    assert max(growth) <= 1.0 + 1e-9
    assert max(lipschitz) <= 1.0 + 1e-9
    assert proposed.keys() == TIME_REG_CONSTANT.keys()
    assert all(proposed[name] <= TIME_REG_CONSTANT[name] for name in proposed), proposed


def test_calibration_script_flags_ratios_above_the_slack():
    assert calibration.RELATIVE_SLACK == 1e-9
    # The constant family's growth ratio is printed in full and passes.
    assert calibration.format_ratio(1.0000000000000004) == "1.0000000000000004"
    assert "EXCEEDS" in calibration.format_ratio(1.0 + 2e-9)


@pytest.mark.parametrize("name", ["bell", "trig", "rough_at_origin"])
def test_bounds_on_arrays_match_scalar_calls(name):
    # numpy's vectorized power on arrays may round differently from the C
    # pow behind a float's **, by a few ulp.
    p = _params(HURST_FAMILIES[name])
    gamma = p.hurst.h_star
    rng = np.random.default_rng(404)
    s, tp, t = np.sort(rng.uniform(0.0, 2.5, (3, 20_000)), axis=0)
    keep = (tp - s > 1e-12) & (t - tp > 1e-12)
    s, tp, t = s[keep], tp[keep], t[keep]
    pairs = [
        (dominating_kernel(p, t, s), [dominating_kernel(p, a, b) for a, b in zip(t, s)]),
        (lambda_gamma(p, t, tp, s, gamma),
         [lambda_gamma(p, a, b, c, gamma) for a, b, c in zip(t, tp, s)]),
    ]
    for on_array, one_by_one in pairs:
        one_by_one = np.array(one_by_one)
        assert on_array.shape == one_by_one.shape
        assert np.all(np.abs(on_array - one_by_one) <= 4.0 * np.spacing(one_by_one))


def test_bounds_on_arrays_reject_one_pair_out_of_order():
    p = _params(builtin_hurst("constant", [0.6]))
    t = np.array([0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        dominating_kernel(p, t, np.array([0.1, 1.0, 0.3]))
    with pytest.raises(ValueError):
        lambda_gamma(p, t, np.array([0.4, 1.2, 1.5]), np.array([0.1, 0.2, 0.3]), 0.3)


def test_lambda_gamma_zero_gap():
    p = _params(builtin_hurst("constant", [0.6]))
    assert lambda_gamma(p, 0.5, 0.5, 0.1, 0.3) == 0.0


def test_lambda_gamma_formula():
    p = _params(builtin_hurst("constant", [0.6]))
    t, tp, s, g = 2.0, 1.5, 0.5, 0.4
    expected = (t - tp) ** g * (tp - s) ** (-1.0 + 0.6 - g / 2.0)
    assert lambda_gamma(p, t, tp, s, g) == pytest.approx(expected, rel=1e-15)
    assert lambda_gamma(p, t, tp, s, g, 3.0) == pytest.approx(3.0 * expected, rel=1e-15)


def test_lambda_gamma_domain_errors():
    p = _params(builtin_hurst("constant", [0.4]))
    with pytest.raises(ValueError):
        lambda_gamma(p, 2.0, 1.5, 0.5, 0.8)  # gamma == 2 h_star
    with pytest.raises(ValueError):
        lambda_gamma(p, 2.0, 1.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        lambda_gamma(p, 1.0, 1.5, 0.5, 0.3)  # t' > t
    with pytest.raises(ValueError):
        lambda_gamma(p, 2.0, 0.4, 0.5, 0.3)  # t' < s
    with pytest.raises(ValueError):
        lambda_gamma(p, 2.0, 1.5, 0.5, 0.3, constant=0.0)


def test_lambda_gamma_integral_closed_form():
    """The s-integral over [0, t'] has an elementary antiderivative; an
    adaptive quadrature with the algebraic endpoint weight must agree."""
    p = _params(builtin_hurst("constant", [0.6]))
    h_star, gamma, c = 0.6, 0.5, 1.7
    t, tp = 2.0, 1.2
    closed = c * tp ** (h_star - gamma / 2.0) * (t - tp) ** gamma / (h_star - gamma / 2.0)
    exponent = -1.0 + h_star - gamma / 2.0
    numeric, _ = scipy.integrate.quad(
        lambda s: c * (t - tp) ** gamma, 0.0, tp, weight="alg", wvar=(0.0, exponent)
    )
    assert numeric == pytest.approx(closed, rel=1e-10)
    # and the integrand really is lambda_gamma
    assert lambda_gamma(p, t, tp, 0.3, gamma, c) == pytest.approx(
        c * (t - tp) ** gamma * (tp - 0.3) ** exponent, rel=1e-14
    )


def test_fund_ineq_alpha_zero():
    assert check_fund_ineq(2.0, 1.0, 0.0, 0.5)


def test_fund_ineq_reference_point():
    # |2^-0.5 - 1| = 0.2929 against 2^0 * 0.5 * 1 * 1 = 0.5
    assert check_fund_ineq(2.0, 1.0, -0.5, 1.0)


def test_fund_ineq_coefficient_exponent_matters():
    """For alpha in (0,1) the |alpha| factor must carry the beta exponent:
    at beta = 0 the raw |alpha| coefficient is falsified while the
    implemented |alpha|**beta form holds."""
    u, v, alpha, beta = 1.0, 1e-4, 0.5, 0.0
    lhs = abs(u**alpha - v**alpha)
    naive_rhs = abs(alpha) * (u - v) ** (alpha + beta * (1 - alpha)) * v ** (-beta * (1 - alpha))
    assert lhs > naive_rhs
    assert check_fund_ineq(u, v, alpha, beta)


@pytest.mark.parametrize("u,v,alpha,beta", [
    (1.0, 1.0, -0.5, 0.5),
    (1.0, 2.0, -0.5, 0.5),
    (1.0, 0.0, -0.5, 0.5),
    (1.0, -1.0, -0.5, 0.5),
    (2.0, 1.0, -0.5, 1.5),
    (2.0, 1.0, -0.5, -0.1),
    (2.0, 1.0, 1.0, 0.5),
    (2.0, 1.0, 1.7, 0.5),
    (2.0, 1.0, float("nan"), 0.5),
])
def test_fund_ineq_rejects_bad_domain(u, v, alpha, beta):
    with pytest.raises(ValueError):
        check_fund_ineq(u, v, alpha, beta)


@given(
    v=st.floats(min_value=1e-6, max_value=2.4),
    gap=st.floats(min_value=1e-9, max_value=2.5),
    alpha=st.floats(min_value=-3.0, max_value=0.999),
    beta=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_fund_ineq_holds_on_valid_domain(v, gap, alpha, beta):
    if alpha >= 1.0:
        return
    assert check_fund_ineq(v + gap, v, alpha, beta)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(hurst=builtin_hurst("bell"), dampening=None, horizon=0.0)
    with pytest.raises(ValueError):
        KernelParams(hurst=builtin_hurst("bell"), dampening=None, horizon=float("inf"))
    with pytest.raises(ValueError):
        KernelParams(hurst=builtin_hurst("bell"), dampening=None, horizon="2.5")


@pytest.mark.parametrize("bad", ["1.0", True, None, math.inf, math.nan],
                         ids=["str", "bool", "None", "inf", "nan"])
def test_rejects_arguments_that_are_not_finite_reals(bad):
    params = _params(builtin_hurst("constant", [0.75]))
    for function, names, valid in [
        (partial(sigma, params), ("t", "s", "x"), (1.0, 0.5, 0.0)),
        (partial(lambda_gamma, params, 1.0, 0.5, 0.25), ("gamma", "constant"), (0.5, 1.0)),
        (check_fund_ineq, ("u", "v", "alpha", "beta"), (2.0, 1.0, 0.5, 0.5)),
    ]:
        for i, name in enumerate(names):
            args = list(valid)
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                function(*args)
