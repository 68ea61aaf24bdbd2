"""Golden SHA-256 fingerprints of the example outputs and of direct solves.

The identity and thread-invariance tests cannot see a change that moves
every bit the same way, such as building a kernel term as ``exp(log)``
instead of ``power`` times ``exp``: both sides of each comparison would
move together.  These digests can.  They pin the bytes of every data file
each ``configs/*.json`` command writes, at one and at two worker
processes, and the raw float64 bytes of six direct ``simulate_discrete``
runs:

- ``bell`` Hurst with ``bell`` dampening on T = 10, N = 4096.  Every path
  starts at x = 0 where bell gives h = 1 exactly, so node 0's Hurst
  exponent is 1/2, and both exponents of every column are built from the
  state.
- ``trig`` Hurst with constant dampening on an exact-node grid, where the
  dampening exponent comes from the state-free row.
- constant Hurst 0.75 on the inexact grid T = 10, N = 1000, summed by the
  diagonal loop over the tabled kernel, whose distances are the node
  times.
- constant Hurst 0.75 with ``bell`` dampening, on the exact grid T = 1,
  N = 512 and on the inexact grid T = 10, N = 1000: the state-dependent
  dampening exponent plus the tabled Hurst exponent.
- constant Hurst 0.75 with constant dampening 0.8 on T = 10, N = 1000,
  where both exponents are in the tabled row and the diagonal loop sums.
No example config reaches the last three.

``CUSTOM_RUNS`` are three-path ``monte_carlo`` batches solved with custom
evaluators whose values are not float64 arrays: a Python float, a float32
array and an int array, and one Hurst function declaring ``lip_t > 0``.

The digests hold for one numpy version and one SIMD class, the targets
numpy finds on the running CPU, as ``manifest.json`` records both:
``randomness`` documents that the C library's ``log`` behind its inverse
normal CDF may move in the last ulp across builds, and numpy's ``exp``,
``log`` and ``sin`` round some inputs differently in their AVX2 and
AVX-512 kernels.  scipy plays no part: the data path imports none.
``PINS`` holds the digests of each ``(numpy version, SIMD targets found)``
pinned so far.  Setting ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"`` leaves numpy the ``X86_V3`` targets only, so on a host that
finds AVX-512 one test runs this module again in a new process with that
variable, and both classes are checked there.  On a version or class with
no pins the digest tests skip; regenerate the digests there with the same
code to use them.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from semsim import (
    DampeningFunction,
    HurstFunction,
    Seed,
    SimulationConfig,
    builtin_dampening,
    builtin_hurst,
    make_grid,
    monte_carlo,
    sample_brownian,
    simulate_discrete,
)
from semsim import engine
from semsim.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

CONFIG_FILES = {
    "acf_baseline": "acf.csv",
    "acf_clustering": "acf.csv",
    "bell_trajectory": "paths.csv",
    "converge_degenerate": "convergence.json",
    "converge_trig": "convergence.json",
    "gamma_comparison_f0": "paths.csv",
    "gamma_comparison_f05": "paths.csv",
    "gamma_comparison_f1": "paths.csv",
    "gamma_comparison_f10": "paths.csv",
    "holder_brownian": "holder.json",
    "moments_gaussian": "moments.csv",
    "rough_trajectory": "paths.csv",
    "smooth_trajectory": "paths.csv",
    "trig_trajectory": "paths.csv",
}

# name -> (T, N, hurst, dampening, seed of the driving increments)
DIRECT_RUNS = {
    "bell-bell-T10-N4096": (10.0, 4096, ("bell", []), ("bell", []), 4096),
    "trig-constdamp-T1-N512": (1.0, 512, ("trig", [0.6, 0.2, 1.0]), ("constant", [1.0]), 512),
    "constant075-T10-N1000": (10.0, 1000, ("constant", [0.75]), None, 1000),
    "constant075-bell-T1-N512": (1.0, 512, ("constant", [0.75]), ("bell", []), 512),
    "constant075-bell-T10-N1000": (10.0, 1000, ("constant", [0.75]), ("bell", []), 1000),
    "constant075-constdamp-T10-N1000": (
        10.0, 1000, ("constant", [0.75]), ("constant", [0.8]), 1000,
    ),
}


def _python_float(t, x):
    return 0.3


def _float32_rough(t, x):
    return (0.1 + 0.4 / (1.0 + np.square(x))).astype(np.float32)


def _int_steps(t, x):
    return (np.abs(x) > 0.5).astype(np.int64)


def _time_dependent_bell(t, x):
    return 0.55 + 0.1 * np.cos(t) + 0.3 / (1.0 + x * x)


# name -> (hurst, dampening)
CUSTOM_RUNS = {
    "bell-floatdamp": (
        builtin_hurst("bell", []),
        DampeningFunction(_python_float, growth_C=0.3, lip_t=0.0, lip_x=0.0),
    ),
    "floathurst-constdamp": (
        HurstFunction(_python_float, h_star=0.2, h_sup=0.4, lip_t=0.0, lip_x=0.0),
        builtin_dampening("constant", [0.8]),
    ),
    "float32hurst-undampened": (
        HurstFunction(_float32_rough, h_star=0.1, h_sup=0.5, lip_t=0.0, lip_x=0.8),
        None,
    ),
    "constant075-intdamp": (
        builtin_hurst("constant", [0.75]),
        DampeningFunction(_int_steps, growth_C=1.0, lip_t=0.0, lip_x=0.0),
    ),
    "float32hurst-intdamp": (
        HurstFunction(_float32_rough, h_star=0.1, h_sup=0.5, lip_t=0.0, lip_x=0.8),
        DampeningFunction(_int_steps, growth_C=1.0, lip_t=0.0, lip_x=0.0),
    ),
    "timehurst-bell": (
        HurstFunction(_time_dependent_bell, h_star=0.45, h_sup=0.95, lip_t=0.1, lip_x=0.6),
        builtin_dampening("bell", []),
    ),
}

# (numpy version, SIMD targets found) -> the digest of each config's data
# file, of each direct run and of each custom run.
PINS = {
    ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): {
        "acf_baseline": "0ec081a3ac4dfed180ac1bc1973816164a26bb16e29345b691346d08a069d855",
        "acf_clustering": "931908dadeb1c9b8364ac4d701316f963ebaa94feac4a739297293d84e573969",
        "bell_trajectory": "980005c222e206d331ee53b2ebb85c87dd4b6efb22e4392cdd47938c20e5190c",
        "converge_degenerate": "78534e15299f122e249befd987adaf3103f9518bcadb9c8285bed1457be6e02a",
        "converge_trig": "5c728f677e168bae90ff5ec25af4f68ecb774b5a2f926bc2d201ca374b55ab51",
        "gamma_comparison_f0": "b9ec04b697449a83a954ba5e79a87fc241cc671715dcf958bbd4d97e96af02b5",
        "gamma_comparison_f05": "38313356b8edb6d20c91eaf479000b2cde48d3d11da9d112da32d76e044228eb",
        "gamma_comparison_f1": "9f686bace0bc550c39c656c57f7aafc0037bea07ab134b81f6b0cb5b2437100d",
        "gamma_comparison_f10": "afae148317ed56db426bef2a2198f3f0bb456d4a6665b15ff3295f9195cb6dde",
        "holder_brownian": "9524596944be87834e3c5e8e5159d659036e3855fe326e38a17eb0220d2ff121",
        "moments_gaussian": "f07eb0239c11754f5b5e81222bfd55d8efdc03a93ea0efaf6355940dfec26439",
        "rough_trajectory": "757b51d6be1cfba9823b466ddcfbf7590eb79cbf53a3d9090926d822ae55e07e",
        "smooth_trajectory": "c092564036f48231ab3a8efdfc31ae3dd8baebd735c80c7445d39ee0bb6f5429",
        "trig_trajectory": "c51042a84a736f15fc0fee3bf7f2f95b1f72c82b361eea01554cdb90397c67a2",
        "bell-bell-T10-N4096": "6ca640c9281066d193be75af9c3cd3b18f8a084167c3edc8923234ea560091af",
        "trig-constdamp-T1-N512": "cd269b49324a25d278073cea2917350fd16f037dc424bae9edaf0e3307c378e7",
        "constant075-T10-N1000": "4713bc63d3d8177c6e4380b7f76b5951df44ebf970d4b54e64e2796696259a16",
        "constant075-bell-T1-N512": "44244497902452d83c054ab5adb4019130c036935e8fb44c3e097d9063ba69da",
        "constant075-bell-T10-N1000": "6e26c3662ee31319918367ae186fe490dd8809b7049ff704b2df5f328ff9586a",
        "constant075-constdamp-T10-N1000": "7ab89df03784577694cc12ea3610f53652737006418df8aa2db3bf7057b32a9a",
        "bell-floatdamp": "98877b1fa43ed00042b9165252768256accb7d11fbd370311845e2e77abec852",
        "floathurst-constdamp": "a2471fa0458447057c7fd527aedf551884cdbde783ef5170632a9556eb96483d",
        "float32hurst-undampened": "064638a36ad4772a028cf8030e1c34f46b2f2c1bf1bd57a283bdad1ec4c2d0d2",
        "constant075-intdamp": "bc06b2e3806c47b0ad7e02f1cb49b96c3f1babcedd19c22eb3b2222144f7646a",
        "float32hurst-intdamp": "30074451a584a40f812bcdcfc948569e98fb3cd3112815cc0e9ce17707a975bf",
        "timehurst-bell": "ea65253bbd84b5c3e4240e8676d8b06116bb4bb10505e94480937714d26c518a",
    },
    ("2.4.6", ("X86_V3",)): {
        "acf_baseline": "572132735bb0c9baa2f1beff2549814f79d3e15f107323a6e59db16a8604d273",
        "acf_clustering": "f70f7b4f1a56a6e8915f89241d50b5685e259838873b8ebb49a4a672730ea543",
        "bell_trajectory": "0c77548555415dd9f147b07808e8274accaafcb398a2a04c5a5fcacd1126614e",
        "converge_degenerate": "78534e15299f122e249befd987adaf3103f9518bcadb9c8285bed1457be6e02a",
        "converge_trig": "0402b9d56340baab23818f2b952bf4d186c114a68c20890f8b85301abbfb6ae1",
        "gamma_comparison_f0": "5784487141f0f612e8692a486a00feecd725429c1c24fb728b4174e9eee6d46e",
        "gamma_comparison_f05": "2f83abae70132d500f0122af7d5c6b2e8ad9ff707c1ef159da1e9f13ab4bda92",
        "gamma_comparison_f1": "2f599444fbccc1a2001961cedcce1133abd00c1e241952d97cb4e3d4501c7cdd",
        "gamma_comparison_f10": "14e977e59ad09cd07a41ac76e7e3e69292a4f1bddc90ea2b149b26051cf47a92",
        "holder_brownian": "9524596944be87834e3c5e8e5159d659036e3855fe326e38a17eb0220d2ff121",
        "moments_gaussian": "981570f974883cbef796574aed4281227491f3970b3e7f5989d9225e6b969b03",
        "rough_trajectory": "1fa428a8c93b3b9c14d3b56b7765d5e4cd72597281deea0cacba23a0af826f42",
        "smooth_trajectory": "4bdfac8e57ce523928f2ff93cd4d94b7296b61b8de8aff5c901c016d61f3e54a",
        "trig_trajectory": "5d862e97f7fd8c6023255dc9a39d344a307cfcffe0ae8573361c6560eea88db9",
        "bell-bell-T10-N4096": "bcc72abf388fc4970f4f437538ce06afc2754e040bcccecd4891c34dfe703daf",
        "constant075-T10-N1000": "48b21bb2475875aa95d9cbea62610c4a824e413df0169a0eb5e82e439860e677",
        "constant075-bell-T1-N512": "ef477e212ad9c3960180f079488d6ed4d27419acbb048fa0e493600dc06908ac",
        "constant075-bell-T10-N1000": "26f0733123753d43314f5128a8f756f6b448f4812ea8e6e6910c6f4cbd7d6bb3",
        "constant075-constdamp-T10-N1000": "7f1dd645bb3fd0f140c19e1ea38b5f02d17fd95a9d90670dfb59a771190df9ae",
        "trig-constdamp-T1-N512": "54c53fc41f090abeaef6bbf94c700c984b118c2082577d57e4b3248c3b1e94fe",
        "bell-floatdamp": "0bd27771514a3758ba6bb8339b8c0932dd07a459f7d7e1345213fe714e32de6c",
        "constant075-intdamp": "a15c5be5dcef7efe77cb03396cd001bfe818bc53c783db2830438bac6a7a311a",
        "float32hurst-intdamp": "ffea19b5cd1b545e5e41104d73a987896d34739fb4675c2684bc626011e04a3e",
        "float32hurst-undampened": "417f44206d44f955ea1ef7c6f1b75b51ca70d3ffdaedc985b8dcbaf359fd09b0",
        "floathurst-constdamp": "6574a2e18cb5762f7edca83ae0947fce820af47cca160c4967c8f476e917e75c",
        "timehurst-bell": "fba7daee2d31faa865b12f28c99a2e543e281ebe36938e1308c2acbdbef83787",
    },
}

BUILD = (np.__version__, tuple(np.show_config(mode="dicts")["SIMD Extensions"]["found"]))
DIGESTS = PINS.get(BUILD, {})

pinned = pytest.mark.skipif(
    BUILD not in PINS,
    reason=f"no digests pinned for numpy {BUILD[0]} with SIMD targets {list(BUILD[1])}",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(CONFIG_FILES)


def test_every_class_pins_every_run():
    runs = {*CONFIG_FILES, *DIRECT_RUNS, *CUSTOM_RUNS}
    for build, digests in PINS.items():
        assert set(digests) == runs, build


@pinned
@pytest.mark.parametrize("stem", sorted(CONFIG_FILES))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_config_data_file_digest(stem, threads, tmp_path, monkeypatch):
    # With no floor, two threads fork a worker on every config.
    monkeypatch.setattr(engine, "_POOL_STATES", 0)
    config_path = CONFIG_DIR / f"{stem}.json"
    raw = json.loads(config_path.read_text())
    command = next((c for c in ("converge", "holder", "acf", "moments") if c in raw), "simulate")
    assert main([command, "--config", str(config_path), "--output-dir", str(tmp_path),
                 "--threads", threads]) == 0
    data_files = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    name, digest = CONFIG_FILES[stem], DIGESTS[stem]
    assert data_files == [name]
    assert _sha256((tmp_path / name).read_bytes()) == digest


def _direct_digest(name):
    horizon, steps, hurst, dampening, seed = DIRECT_RUNS[name]
    grid = make_grid(horizon, steps)
    config = SimulationConfig(
        grid=grid,
        hurst=builtin_hurst(*hurst),
        dampening=None if dampening is None else builtin_dampening(*dampening),
        seed=Seed(seed),
    )
    path = simulate_discrete(config, sample_brownian(Seed(seed), grid))
    return _sha256(path.values.tobytes())


@pinned
@pytest.mark.parametrize("name", sorted(DIRECT_RUNS))
def test_direct_solve_digest(name):
    assert _direct_digest(name) == DIGESTS[name]


def _custom_digest(name):
    hurst, dampening = CUSTOM_RUNS[name]
    config = SimulationConfig(grid=make_grid(1.0, 128), hurst=hurst, dampening=dampening,
                              seed=Seed(4242), n_paths=3)
    return _sha256(monte_carlo(config).values.tobytes())


@pinned
@pytest.mark.parametrize("name", sorted(CUSTOM_RUNS))
def test_custom_evaluator_digest(name):
    assert _custom_digest(name) == DIGESTS[name]


@pytest.mark.skipif(
    "X86_V4" not in BUILD[1] or (BUILD[0], ("X86_V3",)) not in PINS,
    reason="numpy finds no AVX-512 targets here, or the X86_V3 class has no pins",
)
def test_digests_of_the_x86_v3_class():
    # Under this variable numpy finds the X86_V3 targets only.  It acts
    # only on the process it is set in, so this module runs again in a new
    # one, without this test.
    this = pathlib.Path(__file__).resolve()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(this),
         "-k", "not test_digests_of_the_x86_v3_class"],
        cwd=this.parent.parent,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = result.stdout.strip().splitlines()[-1]
    assert "passed" in summary and "skipped" not in summary, summary
