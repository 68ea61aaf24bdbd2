"""Mittag-Leffler evaluation and the associated comparison bound.

``E_beta(z) = sum_k z**k / Gamma(k * beta + 1)`` is the growth envelope
that closes the fractional comparison argument: a nonnegative ``u`` with
``u(t) <= a + g * integral((t - s)**(beta - 1) * u(s), 0, t)`` satisfies
``u(t) <= a * E_beta(g * Gamma(beta) * t**beta)``.  For ``beta = 1`` this
collapses to the classical exponential envelope ``a * exp(g * t)``.  The
series stops at a term below ``_TOLERANCE`` (``1e-12``) and gives up after
``_MAX_TERMS`` (10,000) terms.
"""

from __future__ import annotations

import math

from .randomness import _as_real

__all__ = ["MittagLefflerError", "mittag_leffler", "gronwall_bound"]

_TOLERANCE = 1e-12
_MAX_TERMS = 10_000


class MittagLefflerError(ArithmeticError):
    """Series did not reach ``_TOLERANCE`` within ``_MAX_TERMS`` terms.

    Carries the partial sum accumulated so far in ``partial_sum`` and the
    number of terms taken in ``terms_used``.
    """

    def __init__(self, message: str, partial_sum: float, terms_used: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used


def mittag_leffler(z: float, beta: float) -> float:
    """Evaluate ``E_beta(z)`` by its power series.

    Terms are computed in log space, ``exp(k * log(z) - math.lgamma(k *
    beta + 1))``, to keep large ``k`` stable, and accumulation stops once a
    term falls below ``_TOLERANCE`` or below ``2**-54`` times the sum.  The
    terms rise and then fall, so the second test can only fire past their
    peak, and such a term and every later one lie below half an ulp of the
    sum: the sum is final.  Once a term or the sum overflows the float
    range the result is ``math.inf``.  Taking ``_MAX_TERMS`` terms without
    stopping raises :class:`MittagLefflerError` with the partial sum
    attached.  Intended for ``z >= 0`` (the comparison-bound regime);
    negative ``z`` is rejected because the alternating series cancels
    catastrophically.
    """
    z, beta = _as_real(z, "z"), _as_real(beta, "beta")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if not z >= 0.0:
        raise ValueError(f"z must be finite and nonnegative, got {z!r}")
    if z == 0.0:
        return 1.0
    log_z = math.log(z)
    total = 0.0
    for k in range(_MAX_TERMS):
        log_term = k * log_z - math.lgamma(k * beta + 1.0)
        try:
            term = math.exp(log_term)
        except OverflowError:
            return math.inf
        total += term
        if term < _TOLERANCE or term < total * 2.0 ** -54 or total == math.inf:
            return total
    raise MittagLefflerError(
        f"series for E_{beta}({z}) did not converge within {_MAX_TERMS} terms",
        partial_sum=total,
        terms_used=_MAX_TERMS,
    )


def gronwall_bound(a: float, g: float, beta: float, t: float) -> float:
    """Envelope ``a * E_beta(g * Gamma(beta) * t**beta)``.

    Bounds any nonnegative solution of the fractional integral inequality
    with constant term ``a``, factor ``g`` and kernel exponent ``beta - 1``.
    At ``beta = 1`` it reduces to ``a * exp(g * t)``.  It is ``math.inf``
    when ``a > 0`` and the Mittag-Leffler value overflows, and ``a`` when
    ``a`` or ``t`` is 0.
    """
    a, g, beta, t = map(_as_real, (a, g, beta, t), ("a", "g", "beta", "t"))
    if not (a >= 0.0 and g >= 0.0):
        raise ValueError(f"need a >= 0 and g >= 0, got a={a!r}, g={g!r}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if t == 0.0 or a == 0.0:
        return a
    argument = g * math.gamma(beta) * t ** beta
    return a * mittag_leffler(argument, beta)
