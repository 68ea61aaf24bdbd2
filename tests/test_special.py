"""Tests for the Mittag-Leffler series and the Gronwall envelope.

The Mittag-Leffler checks lean on two classical closed forms: E_1(z) = e^z and
E_{1/2}(z) = e^{z^2} erfc(-z).  The envelope is additionally cross-checked
against the renewal integral equation it solves,

    u(t) = a + g * int_0^t (t-s)^(beta-1) u(s) ds,

whose unique solution is u(t) = a * E_beta(g * Gamma(beta) * t^beta).  The
integral is evaluated with an algebraic-endpoint-weight quadrature so the
singular factor (t-s)^(beta-1) is handled by the rule, not by the integrand.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from semsim import MittagLefflerError, gronwall_bound, mittag_leffler, special


class TestMittagLeffler:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    def test_zero_argument_is_one(self, beta):
        assert mittag_leffler(0.0, beta=beta) == 1.0

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_beta_one_is_exponential(self, z):
        assert mittag_leffler(z, beta=1.0) == pytest.approx(math.exp(z), rel=1e-10)

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.5])
    def test_beta_half_closed_form(self, z):
        expected = math.exp(z * z) * erfc(-z)
        assert mittag_leffler(z, beta=0.5) == pytest.approx(expected, rel=1e-4)

    def test_known_value_beta_half_at_one(self):
        # e * erfc(-1) = 5.00898...
        assert mittag_leffler(1.0, beta=0.5) == pytest.approx(5.0089800989552, rel=1e-4)

    def test_at_least_one_and_monotone(self):
        for beta in (0.3, 0.6, 0.9):
            zs = np.linspace(0.0, 4.0, 17)
            vals = [mittag_leffler(z, beta=beta) for z in zs]
            assert all(v >= 1.0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            mittag_leffler(-0.1, beta=0.5)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            mittag_leffler(1.0, beta=beta)

    @pytest.mark.parametrize(("z", "beta"), [(19.5, 0.05), (710.0, 1.0)], ids=["term", "sum"])
    def test_overflow_is_infinite(self, z, beta):
        # A term of E_0.05(19.5) is past the float range; every term of
        # E_1(710) = e**710 is finite, but their sum is not.
        assert mittag_leffler(z, beta) == math.inf

    @pytest.mark.parametrize(("z", "beta"), [
        # Its terms peak near 1e262 and fall below 1e-12 only at k = 16,737.
        (math.gamma(0.1) * 1e-7 ** 0.1, 0.1),
        (1.0, 0.05), (5.0, 0.3), (2.5, 0.5), (40.0, 1.0), (0.001, 0.7),
    ], ids=["past-the-budget", "1-0.05", "5-0.3", "2.5-0.5", "40-1", "0.001-0.7"])
    def test_sum_is_final_once_a_term_is_below_half_an_ulp(self, z, beta):
        # The series summed left to right until a term is below the
        # tolerance, however many terms that takes: the same bits, within
        # the series' budget of 10,000 terms.
        log_z, total = math.log(z), 0.0
        for k in range(10 ** 5):
            term = math.exp(k * log_z - math.lgamma(k * beta + 1.0))
            total += term
            if term < 1e-12:
                break
        assert math.isfinite(total)
        assert mittag_leffler(z, beta) == total

    def test_truncation_error_carries_state(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_TERMS", 5)
        with pytest.raises(MittagLefflerError) as excinfo:
            mittag_leffler(50.0, beta=0.3)
        err = excinfo.value
        assert err.terms_used == 5
        assert err.partial_sum > 0.0
        assert isinstance(err, ArithmeticError)


class TestGronwallBound:
    @pytest.mark.parametrize(
        ("a", "g", "t"), [(1.0, 1.0, 1.0), (2.5, 0.3, 2.0), (0.7, 4.0, 0.25)]
    )
    def test_beta_one_is_exponential_envelope(self, a, g, t):
        assert gronwall_bound(a, g, 1.0, t) == pytest.approx(a * math.exp(g * t), rel=1e-10)

    def test_zero_initial_value(self):
        assert gronwall_bound(0.0, 3.0, 0.5, 2.0) == 0.0

    def test_overflowing_envelope(self):
        # The envelope of a convergence study for h_star = 0.05 at T = 1.
        assert gronwall_bound(1.0, 1.0, 0.05, 1.0) == math.inf
        assert gronwall_bound(0.0, 1.0, 0.05, 1.0) == 0.0

    def test_zero_time_returns_initial_value(self):
        assert gronwall_bound(1.7, 3.0, 0.5, 0.0) == 1.7

    def test_monotone_in_time(self):
        ts = np.linspace(0.0, 2.0, 9)
        vals = [gronwall_bound(1.0, 1.0, 0.6, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        ("a", "g", "beta", "t"),
        [
            (-1.0, 1.0, 0.5, 1.0),
            (1.0, -1.0, 0.5, 1.0),
            (1.0, 1.0, 0.0, 1.0),
            (1.0, 1.0, 1.5, 1.0),
            (1.0, 1.0, 0.5, -1.0),
            (float("nan"), 1.0, 0.5, 1.0),
        ],
    )
    def test_rejects_bad_inputs(self, a, g, beta, t):
        with pytest.raises(ValueError):
            gronwall_bound(a, g, beta, t)

    def test_solves_renewal_equation(self):
        # u(t) = a + g * int_0^t (t-s)^(beta-1) u(s) ds with the singular
        # weight delegated to the quadrature rule (weight='alg' integrates
        # f(s) * (t-s)^wvar[1] * s^wvar[0] over [0, t]).
        beta, a, g, t = 0.6, 2.0, 1.5, 1.3
        lam = g * math.gamma(beta)

        def u(s):
            return a * mittag_leffler(lam * s**beta, beta=beta)

        integral, _ = quad(u, 0.0, t, weight="alg", wvar=(0.0, beta - 1.0), limit=200)
        lhs = a + g * integral
        rhs = gronwall_bound(a, g, beta, t)
        assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("bad", ["1.0", True, None, math.inf, math.nan],
                         ids=["str", "bool", "None", "inf", "nan"])
def test_rejects_arguments_that_are_not_finite_reals(bad):
    for function, names, valid in [
        (mittag_leffler, ("z", "beta"), (1.0, 0.5)),
        (gronwall_bound, ("a", "g", "beta", "t"), (1.0, 1.0, 0.5, 1.0)),
    ]:
        for i, name in enumerate(names):
            args = list(valid)
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                function(*args)
