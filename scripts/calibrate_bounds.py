"""Calibrate the frozen constants used by the kernel inequality scans.

The test suite asserts three families of bounds by randomized scan:

* growth: sigma(t, s, x)^2 <= dominating_kernel(t, s)
* state Lipschitz: |sigma(t,s,x) - sigma(t,s,y)|^2
      <= C_lip * dominating_kernel(t,s) * log(t-s)^2 * (x-y)^2
  with the fixed recipe C_lip = 4 * lip_x^2 * max(1, T^(2*(h_sup-h_star)))
* time regularity: |sigma(t,s,x) - sigma(t',s,x)|^2
      <= C_time * (t-t')^gamma * (t'-s)^(-1+h_star-gamma/2) * (1 + x^2)
  at gamma = h_star, with C_time calibrated here.

This script draws a coarse scan per built-in Hurst family, prints the
observed worst ratios in full, flagging a growth or Lipschitz ratio above
the scans' relative slack ``1 + RELATIVE_SLACK``, and proposes frozen
constants with a 4x safety margin.  The frozen values live in
``TIME_REG_CONSTANT`` in tests/_scans.py, at or above what the script
proposes; the kernel tests verify them on a larger independent scan and
check that the script's proposals do not exceed them.  Those scans load
this file and draw through its ``*_terms`` functions, so the draws are
written once, here.  Both sides of every bound come from ``semsim``: the
kernel from ``kernel_values``, the bounds from ``dominating_kernel`` and
``lambda_gamma``, all evaluated on arrays of draws.

Run:  python scripts/calibrate_bounds.py
"""

from __future__ import annotations

import numpy as np

from semsim import (KernelParams, builtin_dampening, builtin_hurst, dominating_kernel,
                    kernel_values, lambda_gamma)

HORIZON = 2.5
COARSE = 10_000
RNG_SEED = 913
# Pairs closer than this are excluded: the log factor and the singular
# power are floating-point hazards there, not mathematical content.
MIN_GAP = 1e-12
# The scans in tests/_scans.py pass a ratio up to 1 + RELATIVE_SLACK: for
# constant Hurst sigma^2 equals the dominating kernel, and rounding leaves
# the ratio an ulp or two above 1.
RELATIVE_SLACK = 1e-9

HURSTS = {
    "constant": builtin_hurst("constant", [0.75]),
    "smooth_at_origin": builtin_hurst("smooth_at_origin"),
    "rough_at_origin": builtin_hurst("rough_at_origin"),
    "bell": builtin_hurst("bell"),
    "trig": builtin_hurst("trig", [0.6, 0.2, 1.0]),
}

DAMPS = {
    "none": None,
    "constant_1": builtin_dampening("constant", [1.0]),
    "bell": builtin_dampening("bell"),
}


def draw_times(rng, n):
    """Ordered time pairs ``s < t`` on ``[0, HORIZON]``, at least ``MIN_GAP`` apart."""
    s = rng.uniform(0.0, HORIZON, n)
    t = rng.uniform(0.0, HORIZON, n)
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    keep = hi - lo > MIN_GAP
    return lo[keep], hi[keep]


def growth_terms(h, rng, n):
    """``sigma^2`` and the dominating kernel on ``n`` draws."""
    s, t = draw_times(rng, n)
    x = rng.uniform(-10.0, 10.0, s.shape[0])
    params = KernelParams(h, None, HORIZON)
    return kernel_values(h, None, t, s, x) ** 2, dominating_kernel(params, t, s)


def lipschitz_terms(h, rng, n):
    """Both sides of the squared state-Lipschitz bound on ``n`` draws."""
    s, t = draw_times(rng, n)
    x = rng.uniform(-10.0, 10.0, s.shape[0])
    y = rng.uniform(-10.0, 10.0, s.shape[0])
    keep = np.abs(x - y) > 1e-9
    s, t, x, y = s[keep], t[keep], x[keep], y[keep]
    lhs = (kernel_values(h, None, t, s, x) - kernel_values(h, None, t, s, y)) ** 2
    params = KernelParams(h, None, HORIZON)
    # The recipe's T^(2 (h_sup - h_star)) is the dominating kernel at unit gap.
    c_lip = 4.0 * h.lip_x ** 2 * max(1.0, dominating_kernel(params, 1.0, 0.0))
    return lhs, c_lip * dominating_kernel(params, t, s) * np.log(t - s) ** 2 * (x - y) ** 2


def time_reg_terms(h, damp, rng, n):
    """The squared two-time difference, ``lambda_gamma`` and ``1 + x^2`` on ``n`` draws.

    At gamma = h_star, where the bound is ``C_time * lambda_gamma * (1 + x^2)``.
    """
    s, tp, t = np.sort(rng.uniform(0.0, HORIZON, (3, n)), axis=0)
    keep = (tp - s > MIN_GAP) & (t - tp > MIN_GAP)
    s, tp, t = s[keep], tp[keep], t[keep]
    x = rng.uniform(-10.0, 10.0, s.shape[0])
    gamma = h.h_star
    lhs = (kernel_values(h, damp, t, s, x) - kernel_values(h, damp, tp, s, x)) ** 2
    return lhs, lambda_gamma(KernelParams(h, damp, HORIZON), t, tp, s, gamma), 1.0 + x * x


def growth_ratio(h, rng):
    lhs, dom = growth_terms(h, rng, COARSE)
    return float(np.max(lhs / dom))


def lipschitz_ratio(h, rng):
    lhs, rhs = lipschitz_terms(h, rng, COARSE)
    keep = rhs > 0.0
    return float(np.max(lhs[keep] / rhs[keep]))


def time_reg_ratio(h, damp, rng):
    lhs, lam, weight = time_reg_terms(h, damp, rng, COARSE)
    return float(np.max(lhs / (lam * weight)))


def format_ratio(ratio):
    """The ratio in full, flagged when it exceeds ``1 + RELATIVE_SLACK``."""
    flag = "  EXCEEDS 1 + RELATIVE_SLACK" if ratio > 1.0 + RELATIVE_SLACK else ""
    return f"{ratio!r}{flag}"


def round_up(v):
    import math
    if v <= 0:
        return 1.0
    exp = math.floor(math.log10(v))
    lead = v / 10 ** exp
    return float(math.ceil(lead * 10) / 10 * 10 ** exp)


def main():
    rng = np.random.default_rng(RNG_SEED)
    print(f"horizon T = {HORIZON}, coarse scan n = {COARSE}\n")
    print(f"growth: worst sigma^2 / dominating ratio (must stay <= 1 + {RELATIVE_SLACK})")
    for name, h in HURSTS.items():
        print(f"  {name:18s} {format_ratio(growth_ratio(h, rng))}")
    print(f"\nstate Lipschitz with recipe constant (ratio must stay <= 1 + {RELATIVE_SLACK})")
    for name, h in HURSTS.items():
        if h.lip_x == 0.0:
            print(f"  {name:18s} skipped (lip_x = 0, difference is identically 0)")
            continue
        print(f"  {name:18s} {format_ratio(lipschitz_ratio(h, rng))}")
    print("\ntime regularity at gamma = h_star: worst ratio and proposed frozen C (4x margin)")
    for name, h in HURSTS.items():
        worst = 0.0
        for dname, damp in DAMPS.items():
            worst = max(worst, time_reg_ratio(h, damp, rng))
        print(f"  {name:18s} worst={worst:.4f}  frozen C_time = {round_up(4.0 * worst)}")


if __name__ == "__main__":
    main()
