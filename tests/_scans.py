"""Randomized inequality scans shared by the kernel tests.

Frozen constants sit at or above the proposals of
``scripts/calibrate_bounds.py`` (coarse scan of 10^4 tuples at horizon
2.5, then rounded up with a 4x margin); the tests here verify them on
independent, larger scans.
"""

import numpy as np

from semsim import builtin_dampening, builtin_hurst, kernel_values

HORIZON = 2.5

HURST_FAMILIES = {
    "constant": builtin_hurst("constant", [0.75]),
    "smooth_at_origin": builtin_hurst("smooth_at_origin"),
    "rough_at_origin": builtin_hurst("rough_at_origin"),
    "bell": builtin_hurst("bell"),
    "trig": builtin_hurst("trig", [0.6, 0.2, 1.0]),
}

DAMP_CASES = (
    None,
    builtin_dampening("constant", [1.0]),
    builtin_dampening("bell"),
)

# Frozen time-regularity prefactors, one per Hurst family (see module
# docstring; worst observed coarse-scan ratios were 0.07 to 0.65).
TIME_REG_CONSTANT = {
    "constant": 0.5,
    "smooth_at_origin": 1.5,
    "rough_at_origin": 3.0,
    "bell": 1.5,
    "trig": 0.5,
}

# Pairs closer than this are excluded: the log factor and the singular
# power are floating-point hazards there, not mathematical content.
MIN_GAP = 1e-12


def _draw_pairs(rng, n):
    s = rng.uniform(0.0, HORIZON, n)
    t = rng.uniform(0.0, HORIZON, n)
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    keep = hi - lo > MIN_GAP
    return lo[keep], hi[keep]


def _dominating(hurst, t, s):
    spread = 2.0 * (hurst.h_sup - hurst.h_star)
    return HORIZON**spread * (t - s) ** (2.0 * hurst.h_star - 1.0)


def growth_violations(hurst, n_tuples, seed):
    """Count draws where sigma^2 exceeds the state-free dominating kernel."""
    rng = np.random.default_rng(seed)
    s, t = _draw_pairs(rng, n_tuples)
    x = rng.uniform(-10.0, 10.0, s.size)
    lhs = kernel_values(hurst, None, t, s, x) ** 2
    rhs = _dominating(hurst, t, s)
    return int(np.sum(lhs > rhs * (1.0 + 1e-9))), s.size


def lipschitz_violations(hurst, n_tuples, seed):
    """Count draws violating the squared state-Lipschitz bound.

    The prefactor is the fixed recipe 4 * lip_x^2 * max(1, T^(2*spread)),
    not a calibrated value.
    """
    rng = np.random.default_rng(seed)
    s, t = _draw_pairs(rng, n_tuples)
    x = rng.uniform(-10.0, 10.0, s.size)
    y = rng.uniform(-10.0, 10.0, s.size)
    keep = np.abs(x - y) > 1e-9
    s, t, x, y = s[keep], t[keep], x[keep], y[keep]
    lhs = (kernel_values(hurst, None, t, s, x) - kernel_values(hurst, None, t, s, y)) ** 2
    spread = 2.0 * (hurst.h_sup - hurst.h_star)
    prefactor = 4.0 * hurst.lip_x**2 * max(1.0, HORIZON**spread)
    rhs = prefactor * _dominating(hurst, t, s) * np.log(t - s) ** 2 * (x - y) ** 2
    return int(np.sum(lhs > rhs * (1.0 + 1e-9) + 1e-300)), s.size


def time_reg_violations(hurst, name, n_tuples, seed):
    """Count draws violating the frozen two-time regularity bound.

    Checked at gamma = h_star against C * (t-t')^gamma *
    (t'-s)^(-1+h_star-gamma/2) * (1+x^2), jointly over the undampened
    kernel and two dampened variants.
    """
    rng = np.random.default_rng(seed)
    constant = TIME_REG_CONSTANT[name]
    gamma = hurst.h_star
    total_violations = 0
    total_samples = 0
    for damp in DAMP_CASES:
        triple = np.sort(rng.uniform(0.0, HORIZON, (3, n_tuples)), axis=0)
        s, tp, t = triple[0], triple[1], triple[2]
        keep = (tp - s > MIN_GAP) & (t - tp > MIN_GAP)
        s, tp, t = s[keep], tp[keep], t[keep]
        x = rng.uniform(-10.0, 10.0, s.size)
        lhs = (kernel_values(hurst, damp, t, s, x) - kernel_values(hurst, damp, tp, s, x)) ** 2
        lam = (t - tp) ** gamma * (tp - s) ** (-1.0 + hurst.h_star - gamma / 2.0)
        rhs = constant * lam * (1.0 + x * x)
        total_violations += int(np.sum(lhs > rhs * (1.0 + 1e-9)))
        total_samples += s.size
    return total_violations, total_samples
