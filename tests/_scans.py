"""Randomized inequality scans shared by the kernel tests.

The draws come from ``scripts/calibrate_bounds.py``, loaded here as
``calibration``, which evaluates both sides of each bound with
``semsim.kernels`` (``kernel_values``, ``dominating_kernel`` and
``lambda_gamma`` on arrays); a scan counts the draws whose ratio exceeds
``1 + RELATIVE_SLACK``.  Frozen constants sit at or above the proposals
of that script (coarse scan of 10^4 tuples at horizon 2.5, then rounded
up with a 4x margin); the tests here verify them on independent, larger
scans.
"""

import importlib.util
from pathlib import Path

import numpy as np


def _load_calibration():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_bounds.py"
    spec = importlib.util.spec_from_file_location("calibrate_bounds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calibration = _load_calibration()

HURST_FAMILIES = calibration.HURSTS

# Frozen time-regularity prefactors, one per Hurst family (see module
# docstring; worst observed coarse-scan ratios were 0.07 to 0.65).
TIME_REG_CONSTANT = {
    "constant": 0.5,
    "smooth_at_origin": 1.5,
    "rough_at_origin": 3.0,
    "bell": 1.5,
    "trig": 0.5,
}

_SLACK = 1.0 + calibration.RELATIVE_SLACK


def growth_violations(hurst, n_tuples, seed):
    """Count draws where sigma^2 exceeds the state-free dominating kernel."""
    lhs, rhs = calibration.growth_terms(hurst, np.random.default_rng(seed), n_tuples)
    return int(np.sum(lhs > rhs * _SLACK)), lhs.size


def lipschitz_violations(hurst, n_tuples, seed):
    """Count draws violating the squared state-Lipschitz bound.

    The prefactor is the fixed recipe 4 * lip_x^2 * max(1, T^(2*spread)),
    not a calibrated value.
    """
    lhs, rhs = calibration.lipschitz_terms(hurst, np.random.default_rng(seed), n_tuples)
    return int(np.sum(lhs > rhs * _SLACK + 1e-300)), lhs.size


def time_reg_violations(hurst, name, n_tuples, seed):
    """Count draws violating the frozen two-time regularity bound.

    Checked at gamma = h_star against C * (t-t')^gamma *
    (t'-s)^(-1+h_star-gamma/2) * (1+x^2), jointly over the undampened
    kernel and two dampened variants.
    """
    rng = np.random.default_rng(seed)
    constant = TIME_REG_CONSTANT[name]
    total_violations = 0
    total_samples = 0
    for damp in calibration.DAMPS.values():
        lhs, lam, weight = calibration.time_reg_terms(hurst, damp, rng, n_tuples)
        total_violations += int(np.sum(lhs > constant * lam * weight * _SLACK))
        total_samples += lhs.size
    return total_violations, total_samples
