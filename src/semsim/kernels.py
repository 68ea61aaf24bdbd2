"""Volterra kernels and the comparison bounds used to control them.

The base kernel is ``sigma(t, s, x) = (t - s)**(h(t, x) - 1/2)``, singular
on the diagonal whenever ``h < 1/2``.  The dampened variant multiplies in
``exp(-f(t, x) * (t - s))``.  The formula is written once, in
:func:`kernel_values`, which evaluates it on arrays; :func:`sigma` is
``kernel_values`` at one point, after its time-pair check.  That formula
is the reference the tests compare the solver's own batched kernel
against (through ``sigma``, and in ulps through ``kernel_values``; the
solver builds each term as one ``exp`` of a tabled ``log``) and the
kernel the inequality scans sample (through ``kernel_values``).  The
remaining operations are the analytic comparison tools: a state-free
dominating kernel, the two-time comparison kernel ``lambda_gamma``, and
the power-difference inequality used to prove kernel regularity.  The two
comparison kernels take float or array times, so the inequality scans of
``scripts/calibrate_bounds.py`` draw both sides of every bound from this
module; ``sigma`` and ``check_fund_ineq`` take one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DampeningFunction, HurstFunction
from .randomness import _as_real

__all__ = [
    "KernelParams",
    "sigma",
    "kernel_values",
    "dominating_kernel",
    "lambda_gamma",
    "check_fund_ineq",
]

# Comparisons tolerate one part in 1e12 of rounding on each side.
_INEQ_SLACK = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Kernel family: Hurst function, optional dampening, horizon ``T``."""

    hurst: HurstFunction
    dampening: DampeningFunction | None
    horizon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _as_real(self.horizon, "horizon"))
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")


def _check_time_pair(params: KernelParams, t, s) -> None:
    if not np.all((0.0 <= s) & (s < t) & (t <= params.horizon)):
        raise ValueError(f"need 0 <= s < t <= {params.horizon}, got s={s!r}, t={t!r}")


def sigma(params: KernelParams, t: float, s: float, x: float) -> float:
    """Evaluate the (possibly dampened) kernel at ``(t, s, x)``.

    Requires ``0 <= s < t <= horizon``.  This is :func:`kernel_values` at
    one point, so the Hurst exponent is clipped by the one rule of
    :meth:`~semsim.model.HurstFunction.evaluate`.  Always finite and
    positive: the exponent lies in ``[h_star, h_sup]``, and the dampening
    factor is ``exp`` of a finite nonpositive argument.
    """
    t, s, x = map(_as_real, (t, s, x), ("t", "s", "x"))
    _check_time_pair(params, t, s)
    return float(kernel_values(params.hurst, params.dampening, t, s, x))


def kernel_values(hurst: HurstFunction, dampening: DampeningFunction | None, t, s, x) -> np.ndarray:
    """The kernel ``sigma(t, s, x)`` on arrays broadcast together.

    ``gap**(h - 1/2)``, times ``exp(-f * gap)`` when there is a
    dampening, where ``gap = t - s``.  The Hurst values are those of
    :meth:`~semsim.model.HurstFunction.evaluate`, in ``[h_star, h_sup]``:
    clipped silently with the bits of ``np.clip``, unless the function is
    a built-in, which stays in range.  No time pair is checked: ``t - s``
    must be positive wherever the value is used.
    """
    gap = t - s
    value = gap ** (np.asarray(hurst.evaluate(t, x), dtype=np.float64) - 0.5)
    if dampening is not None:
        value = value * np.exp(-np.asarray(dampening.evaluate(t, x), dtype=np.float64) * gap)
    return value


def dominating_kernel(params: KernelParams, t, s):
    """State-free bound ``T**(2*(h_sup - h_star)) * (t - s)**(2*h_star - 1)``.

    Dominates ``sigma(t, s, x)**2`` uniformly in ``x`` for horizons
    ``T >= 1`` (the regime every bound here is stated in).  ``t`` and
    ``s`` are floats or arrays broadcast together, and every pair must
    satisfy ``0 <= s < t <= horizon``: one pair out of order raises
    ``ValueError``.  On arrays numpy's vectorized ``power`` may round a
    value a few ulp away from the scalar call's.
    """
    _check_time_pair(params, t, s)
    h = params.hurst
    spread = 2.0 * (h.h_sup - h.h_star)
    return params.horizon ** spread * (t - s) ** (2.0 * h.h_star - 1.0)


def lambda_gamma(
    params: KernelParams,
    t,
    t_prime,
    s,
    gamma: float,
    constant: float = 1.0,
):
    """Two-time comparison kernel ``C * (t - t')**gamma * (t' - s)**(-1 + h_star - gamma/2)``.

    Defined for ``0 <= s < t' <= t <= horizon`` (the value is 0 when
    ``t == t'``) and ``0 < gamma < 2 * h_star``; the exponent condition
    keeps the ``s`` integral finite:

        integral over s in [0, t'] = C * (t - t')**gamma
                                       * t'**(h_star - gamma/2) / (h_star - gamma/2)

    ``constant`` is the multiplicative prefactor ``C`` (default 1).  The
    times are floats or arrays broadcast together, as in
    :func:`dominating_kernel`, and every triple must be in that order.
    """
    gamma, constant = _as_real(gamma, "gamma"), _as_real(constant, "constant")
    h_star = params.hurst.h_star
    if not constant > 0.0:
        raise ValueError(f"constant must be positive, got {constant!r}")
    if not 0.0 < gamma < 2.0 * h_star:
        raise ValueError(f"gamma must lie in (0, 2*h_star) = (0, {2.0 * h_star}), got {gamma!r}")
    if not np.all((0.0 <= s) & (s < t_prime) & (t_prime <= t) & (t <= params.horizon)):
        raise ValueError(
            f"need 0 <= s < t' <= t <= {params.horizon}, got s={s!r}, t'={t_prime!r}, t={t!r}"
        )
    return constant * (t - t_prime) ** gamma * (t_prime - s) ** (-1.0 + h_star - gamma / 2.0)


def check_fund_ineq(u: float, v: float, alpha: float, beta: float) -> bool:
    """Check the power-difference inequality at one parameter tuple.

    For ``u > v > 0`` and ``beta`` in ``[0, 1]``:

    * ``alpha <= 0``:
      ``|u**a - v**a| <= 2**(1-b) * |a|**b * |u-v|**b * v**(a-b)``
    * ``alpha`` in ``(0, 1)``:
      ``|u**a - v**a| <= |a|**b * |u-v|**(a + b*(1-a)) * v**(-b*(1-a))``

    Both follow by interpolating the mean-value bound against the crude
    one; the interpolation exponent ``b`` appears on the ``|a|`` factor in
    both branches.  Comparison grants a relative slack of 1e-12 plus an
    absolute allowance of a few ulps of the power terms: at ``b = 1`` the
    bound degenerates to the first-order mean-value term, so for ``u``
    close to ``v`` the true margin is quadratic in the gap and smaller
    than the cancellation noise of the subtraction on the left.
    """
    u, v, alpha, beta = map(_as_real, (u, v, alpha, beta), ("u", "v", "alpha", "beta"))
    if not u > v > 0.0:
        raise ValueError(f"need u > v > 0, got u={u!r}, v={v!r}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if not alpha < 1.0:
        raise ValueError(f"alpha must satisfy alpha <= 0 or 0 < alpha < 1, got {alpha!r}")
    ua = u ** alpha
    va = v ** alpha
    lhs = abs(ua - va)
    a = abs(alpha)
    if alpha <= 0.0:
        rhs = 2.0 ** (1.0 - beta) * a ** beta * (u - v) ** beta * v ** (alpha - beta)
    else:
        rhs = a ** beta * (u - v) ** (alpha + beta * (1.0 - alpha)) * v ** (-beta * (1.0 - alpha))
    noise = 4.0 * math.ulp(max(ua, va))
    return lhs <= rhs * (1.0 + _INEQ_SLACK) + noise
