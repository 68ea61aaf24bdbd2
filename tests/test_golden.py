"""Golden SHA-256 fingerprints of the example outputs and of direct solves.

The identity and thread-invariance tests cannot see a change that moves
every bit the same way, such as replacing ``np.power`` by ``exp(log)``:
both sides of each comparison would move together.  These digests can.
They pin the bytes of every data file each ``configs/*.json`` command
writes, at one and at two worker processes, and the raw float64 bytes of
six direct ``simulate_discrete`` runs:

- ``bell`` Hurst with ``bell`` dampening on T = 10, N = 4096.  Every path
  starts at x = 0 where bell gives h = 1 exactly, so the kernel exponent
  there is 1/2, an exponent on which ``np.power`` takes a separate fast
  path when its exponent operand is a scalar or a stride-0 broadcast, so
  the form of that operand shows in the bits.
- ``trig`` Hurst with constant dampening on an exact-node grid, where the
  dampening comes from the state-free row tabled by node distance.
- constant Hurst 0.75 on the inexact grid T = 10, N = 1000, where the
  state-free row is built for each column.
- constant Hurst 0.75 with ``bell`` dampening, on the exact grid T = 1,
  N = 512 and on the inexact grid T = 10, N = 1000: the state-dependent
  dampening times the tabled, then the per-column, power.
- constant Hurst 0.75 with constant dampening 0.8 on T = 10, N = 1000,
  where both constant factors are built for each column.
No example config reaches the last three.

The digests hold for one numpy/scipy build: ``randomness`` documents that
the C library's ``log`` behind its inverse normal CDF may move in the last
ulp across builds, and so may ``power``, ``exp`` and ``sin``.  On another
build the tests skip; regenerate the digests there with the same code to
use them.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
import scipy

from semsim import (
    Seed,
    SimulationConfig,
    builtin_dampening,
    builtin_hurst,
    make_grid,
    sample_brownian,
    simulate_discrete,
)
from semsim.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

PINNED_BUILD = ("2.4.6", "1.17.1")

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != PINNED_BUILD,
    reason=f"digests pinned for numpy/scipy {PINNED_BUILD}",
)

CONFIG_DIGESTS = {
    "acf_baseline": ("acf.csv", "149da79101eb68e47b37f33b3c6b1cf5e37aba2143e161d950497c60a8f539f7"),
    "acf_clustering": ("acf.csv", "90724d2c308204f9e53bad16bf83af4f8f3b984046735819241cffb203c92b5e"),
    "bell_trajectory": ("paths.csv", "55058a11b24adef2d8dddf509eb54a1f9bb4180cc6b2e49d74f02bda8616a815"),
    "converge_degenerate": ("convergence.json", "78534e15299f122e249befd987adaf3103f9518bcadb9c8285bed1457be6e02a"),
    "converge_trig": ("convergence.json", "829c4eb5e42e422aeb238a6a5b59bd46a68f43110949f6b442c0fedb82f30b7c"),
    "gamma_comparison_f0": ("paths.csv", "7acd71f659214ea3c68e8d97317b55dad7bfe7d2476c6cc878f5fa8174f2767b"),
    "gamma_comparison_f05": ("paths.csv", "903ab6e46546fbc1feb913bc7a51de870a774f8ee8d4268dde851be4d9b24eb2"),
    "gamma_comparison_f1": ("paths.csv", "23e0701bd955d7238b208a2ab9e69feea0716984452b95a1f0b3f15241edc777"),
    "gamma_comparison_f10": ("paths.csv", "1dbfbb3b5577e27b616d88f9d0f6d1a9991356af7806216b42082d3435b5f60b"),
    "holder_brownian": ("holder.json", "9524596944be87834e3c5e8e5159d659036e3855fe326e38a17eb0220d2ff121"),
    "moments_gaussian": ("moments.csv", "7880915d391534a0701532a2e273a667988b535095e8a7148397f1039a5eee31"),
    "rough_trajectory": ("paths.csv", "2c832f18bd872f0a67194b74c771d12472c489d816ca13480e2144d44d60bda2"),
    "smooth_trajectory": ("paths.csv", "3ba2746dc505d588208a0f6ebe357430b4565e602a6fb8a4ef418a629b68de8f"),
    "trig_trajectory": ("paths.csv", "c02691a01216508f01ea698b96325e0f5a1f75a67f5c72ce3044d530b5dc54af"),
}

# name -> (T, N, hurst, dampening, seed of the driving increments, digest)
DIRECT_RUNS = {
    "bell-bell-T10-N4096": (
        10.0, 4096, ("bell", []), ("bell", []), 4096,
        "2353999ca78abfea97ce209728adb5ae2b20669e49a63c3717681ef4eeec5475",
    ),
    "trig-constdamp-T1-N512": (
        1.0, 512, ("trig", [0.6, 0.2, 1.0]), ("constant", [1.0]), 512,
        "099cc5fcfd4eb2e3060f5e8f5ec629dcad9a274205ff58c71b05575769256331",
    ),
    "constant075-T10-N1000": (
        10.0, 1000, ("constant", [0.75]), None, 1000,
        "7c4f1e2f26fe50770c624b4103ed8bdcb8d19774707452f58e90253a7ce79c8b",
    ),
    "constant075-bell-T1-N512": (
        1.0, 512, ("constant", [0.75]), ("bell", []), 512,
        "3b22572c397c75d97d8fbb6949cf500b2357b2c805b7fbcc3a16e178010df29d",
    ),
    "constant075-bell-T10-N1000": (
        10.0, 1000, ("constant", [0.75]), ("bell", []), 1000,
        "b0b9dc9fede0d4ef2eb72f902362b0ff9f5aab5f22fa938b089566e137877b3c",
    ),
    "constant075-constdamp-T10-N1000": (
        10.0, 1000, ("constant", [0.75]), ("constant", [0.8]), 1000,
        "80115e3e7f1764c2c2e048846d938abc843168b53406cef927748dbd70aa4e67",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(CONFIG_DIGESTS)


@pytest.mark.parametrize("stem", sorted(CONFIG_DIGESTS))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_config_data_file_digest(stem, threads, tmp_path):
    config_path = CONFIG_DIR / f"{stem}.json"
    raw = json.loads(config_path.read_text())
    command = next((c for c in ("converge", "holder", "acf", "moments") if c in raw), "simulate")
    assert main([command, "--config", str(config_path), "--output-dir", str(tmp_path),
                 "--threads", threads]) == 0
    data_files = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    name, digest = CONFIG_DIGESTS[stem]
    assert data_files == [name]
    assert _sha256((tmp_path / name).read_bytes()) == digest


@pytest.mark.parametrize("name", sorted(DIRECT_RUNS))
def test_direct_solve_digest(name):
    horizon, steps, hurst, dampening, seed, digest = DIRECT_RUNS[name]
    grid = make_grid(horizon, steps)
    config = SimulationConfig(
        grid=grid,
        hurst=builtin_hurst(*hurst),
        dampening=None if dampening is None else builtin_dampening(*dampening),
        seed=Seed(seed),
    )
    path = simulate_discrete(config, sample_brownian(Seed(seed), grid))
    assert _sha256(path.values.tobytes()) == digest
