"""Grid construction, seed derivation, Brownian sampling, coarsening.

The load-bearing facts here are exactness facts: node differences on
friendly grids, lattice quantization of increments, and the bitwise prefix-sum
coupling between refinement levels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal
from scipy.special import ndtri as scipy_ndtri

from semsim import (
    QUANTUM,
    BrownianIncrements,
    Seed,
    TimeGrid,
    coarsen,
    derive_path_seed,
    make_grid,
    sample_brownian,
    sample_brownian_block,
)
from semsim.randomness import _ndtri, _path_keys

from _exact import differences_are_distances


def test_make_grid_quarter_steps():
    grid = make_grid(1.0, 4)
    assert grid.dt == 0.25
    assert_array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert make_grid(1.0, np.int64(4)) == grid
    assert type(make_grid(1.0, np.int64(4)).steps) is int


def test_make_grid_single_step():
    grid = make_grid(1.0, 1)
    assert_array_equal(grid.nodes, [0.0, 1.0])


def test_make_grid_fractional_dt():
    assert make_grid(2.5, 100).dt == 0.025


@pytest.mark.parametrize(
    "horizon,steps",
    [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3), (1.0, 2.5),
     (1.0, float("inf")), (1.0, float("-inf")), (1.0, float("nan")),
     # A horizon is a finite int or float: not a flag, a string or an int
     # past the float range.
     (True, 4), ("1.0", 4), pytest.param(10**400, 4, id="10**400-4")],
)
def test_make_grid_rejects_bad_inputs(horizon, steps):
    with pytest.raises(ValueError):
        make_grid(horizon, steps)


def test_grid_endpoint_within_one_ulp():
    for horizon, steps in [(1.0, 4), (2.5, 100), (10.0, 1000), (0.7, 13), (3.0, 7)]:
        end = make_grid(horizon, steps).nodes[-1]
        assert abs(end - horizon) <= math.ulp(horizon)


def test_node_differences_are_distances_on_dyadic_grids():
    for horizon in (0.5, 1.0, 2.0, 2.5, 3.0, 10.0):
        grid = make_grid(horizon, 1024)
        assert differences_are_distances(grid)
        t = grid.nodes
        for k, i in [(1024, 512), (1000, 1), (513, 512), (700, 137)]:
            assert t[k] - t[i] == t[k - i]


def test_node_differences_are_not_distances_for_decimal_step():
    assert not differences_are_distances(make_grid(1.0, 1000))


def test_grid_nodes_read_only():
    grid = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0


def test_seed_range_validation():
    Seed(0)
    Seed(2**64 - 1)
    assert Seed(np.uint64(2**64 - 1)).value == 2**64 - 1
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(3.9)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="seed value"):
            Seed(bad)
    # True == 1, but a flag is not a seed.
    with pytest.raises(ValueError, match="seed value"):
        Seed(True)
    with pytest.raises(ValueError, match="seed value"):
        Seed("5")


def test_derive_path_seed_golden_values():
    # Master 0 reproduces the published SplitMix64 reference sequence
    # (outputs of the generator seeded with 0), because index k advances
    # the state k+1 times before finalizing.
    assert derive_path_seed(Seed(0), 0).value == 0xE220A8397B1DCDAF
    assert derive_path_seed(Seed(0), 1).value == 0x6E789E6AA1B965F4
    assert derive_path_seed(Seed(12345), 0).value == 2454886589211414944
    assert derive_path_seed(Seed(12345), 7).value == 7959005890829367068
    assert derive_path_seed(Seed(2**64 - 1), 3).value == 7862637804313477842


def _splitmix64_key(master, index):
    """The stream key of one path in Python integers, the definition the uint64 code follows."""
    mask = 2**64 - 1
    z = (master + 0x9E3779B97F4A7C15 * (index + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("master", [0, 12345, 2**64 - 1])
def test_vectorised_keys_match_integer_splitmix64(master):
    keys = _path_keys(master, 0, 10_000).tolist()
    assert keys == [_splitmix64_key(master, i) for i in range(10_000)]
    assert keys == [derive_path_seed(Seed(master), i).value for i in range(10_000)]
    # Blocks starting past 0, and indices whose pre-mix value wraps 2**64.
    assert _path_keys(master, 4_096, 4_100).tolist() == keys[4_096:4_100]
    assert derive_path_seed(Seed(master), 2**70).value == _splitmix64_key(master, 2**70)


def test_derive_path_seed_deterministic_and_injective():
    master = Seed(424242)
    first = [derive_path_seed(master, i).value for i in range(10_000)]
    second = [derive_path_seed(master, i).value for i in range(10_000)]
    assert first == second
    assert len(set(first)) == len(first)


def test_derive_path_seed_distinct_masters():
    keys = {derive_path_seed(Seed(m), 0).value for m in range(10_000)}
    assert len(keys) == 10_000


def test_derive_path_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_path_seed(Seed(1), -1)


def test_sample_brownian_reproducible():
    grid = make_grid(1.0, 256)
    a = sample_brownian(Seed(7), grid)
    b = sample_brownian(Seed(7), grid)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.seed_provenance == (7, 0)


def test_sample_brownian_distinct_seeds():
    grid = make_grid(1.0, 256)
    a = sample_brownian(Seed(7), grid)
    b = sample_brownian(Seed(8), grid)
    assert not np.array_equal(a.values, b.values)


def test_sample_brownian_shape_and_flags():
    grid = make_grid(2.0, 31)
    incr = sample_brownian(Seed(3), grid)
    assert incr.values.shape == (31,)
    assert incr.values.dtype == np.float64
    assert not incr.values.flags.writeable


@pytest.mark.parametrize("master", [0, 2**64 - 1])
@pytest.mark.parametrize(("start", "stop"), [(0, 1), (3, 40), (1_000, 1_064)])
def test_block_rows_equal_single_path_samples(master, start, stop):
    grid = make_grid(2.5, 100)
    block = sample_brownian_block(Seed(master), grid, start, stop)
    assert block.shape == (stop - start, 100) and block.dtype == np.float64
    rows = [sample_brownian(derive_path_seed(Seed(master), i), grid).values
            for i in range(start, stop)]
    assert block.tobytes() == np.stack(rows).tobytes()


def test_block_sampler_bounds():
    grid = make_grid(1.0, 8)
    assert sample_brownian_block(Seed(1), grid, 5, 5).shape == (0, 8)
    for start, stop in [(-1, 2), (3, 2)]:
        with pytest.raises(ValueError):
            sample_brownian_block(Seed(1), grid, start, stop)


class _TopWordPhilox:
    """A stand-in for ``np.random.Philox`` whose every raw word is ``2**64 - 1``."""

    def __init__(self, key=0):
        self.state = {"state": {"key": np.zeros(2, dtype=np.uint64)}}

    def random_raw(self, n):
        return np.full(n, 2**64 - 1, dtype=np.uint64)


def test_top_word_gives_a_finite_increment(monkeypatch):
    # The top code's centred value rounds to 1.0, where the inverse CDF is
    # +inf; it maps to the largest double below 1 instead.
    monkeypatch.setattr(np.random, "Philox", _TopWordPhilox)
    grid = make_grid(1.0, 4)
    block = sample_brownian_block(Seed(1), grid, 0, 2)
    top = _ndtri(np.array([1.0 - 2.0 ** -53]))[0]
    assert math.isfinite(top) and top > 8.0
    assert_array_equal(block, np.rint(top * math.sqrt(grid.dt) / QUANTUM) * QUANTUM)


def test_increments_are_lattice_multiples():
    grid = make_grid(2.5, 512)
    incr = sample_brownian(Seed(11), grid)
    quanta = incr.values / QUANTUM
    assert_array_equal(quanta, np.rint(quanta))


def test_sample_statistics_at_scale():
    grid = make_grid(1.0, 100_000)
    v = sample_brownian(Seed(314159), grid).values
    dt = grid.dt
    assert abs(v.mean()) <= 4.0 * math.sqrt(dt / v.size)
    assert abs(v.var(ddof=1) - dt) <= 0.05 * dt
    z = v / math.sqrt(dt)
    kurt = np.mean(z**4) / np.mean(z**2) ** 2
    assert 2.8 <= kurt <= 3.2


def _lattice_increments(values, horizon):
    values = np.asarray(values, dtype=np.float64)
    grid = make_grid(horizon, values.size)
    return BrownianIncrements(grid=grid, values=values, seed_provenance=(0, 0))


def test_coarsen_pairwise_sums():
    incr = _lattice_increments([1 * QUANTUM, 2 * QUANTUM, -5 * QUANTUM, 3 * QUANTUM], 1.0)
    out = coarsen(incr, 2)
    assert_array_equal(out.values, [3 * QUANTUM, -2 * QUANTUM])
    assert out.grid.steps == 2
    assert out.seed_provenance == (0, 0)


def test_coarsen_factor_one_is_identity():
    incr = sample_brownian(Seed(5), make_grid(1.0, 16))
    assert coarsen(incr, 1) is incr


def test_coarsen_full_collapse():
    incr = sample_brownian(Seed(5), make_grid(1.0, 64))
    out = coarsen(incr, 64)
    assert out.values.shape == (1,)
    # total displacement is preserved exactly on the lattice
    assert out.values[0] == np.cumsum(incr.values)[-1]


def test_coarsen_rejects_non_divisor():
    incr = sample_brownian(Seed(5), make_grid(1.0, 10))
    with pytest.raises(ValueError):
        coarsen(incr, 3)
    with pytest.raises(ValueError):
        coarsen(incr, 0)


def test_brownian_increments_shape_validation():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        BrownianIncrements(grid=grid, values=np.zeros(3), seed_provenance=(0, 0))
    with pytest.raises(ValueError):
        BrownianIncrements(grid=grid, values=np.zeros(4, dtype=np.float32), seed_provenance=(0, 0))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       factor=st.sampled_from([2, 4, 8, 16, 32]))
@settings(max_examples=25, deadline=None)
def test_prefix_sum_coupling_is_bitwise(seed, factor):
    """Brownian values at shared nodes agree bitwise between a fine grid
    and any coarsening of it; this is the foundation of the coupled
    refinement studies."""
    fine = sample_brownian(Seed(seed), make_grid(1.0, 256))
    coarse = coarsen(fine, factor)
    fine_prefix = np.cumsum(fine.values)
    coarse_prefix = np.cumsum(coarse.values)
    shared = fine_prefix[factor - 1 :: factor]
    assert coarse_prefix.tobytes() == shared.tobytes()


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_coarsen_composes(seed):
    fine = sample_brownian(Seed(seed), make_grid(2.5, 192))
    two_step = coarsen(coarsen(fine, 4), 2)
    one_step = coarsen(fine, 8)
    assert two_step.values.tobytes() == one_step.values.tobytes()


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_all_increments_quantized(seed):
    v = sample_brownian(Seed(seed), make_grid(3.0, 64)).values
    assert np.all(v == np.rint(v / QUANTUM) * QUANTUM)


# ---- the inverse normal CDF against scipy's Cephes ndtri -------------------

def _assert_bitwise_ndtri(y):
    ours, theirs = _ndtri(y), scipy_ndtri(y)
    assert ours.shape == theirs.shape
    assert_array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def _uniforms(codes):
    """The sampler's uniforms of 53-bit lattice codes."""
    return (np.asarray(codes, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0 ** -53


def test_ndtri_matches_scipy_on_random_codes():
    rng = np.random.default_rng(20261018)
    _assert_bitwise_ndtri(_uniforms(rng.integers(0, 2**53, size=1_000_000, dtype=np.uint64)))


def test_ndtri_matches_scipy_on_extreme_codes():
    codes = np.arange(100_000, dtype=np.uint64)
    _assert_bitwise_ndtri(_uniforms(codes))
    top = _uniforms(np.uint64(2**53 - 1) - codes)
    _assert_bitwise_ndtri(top)
    # The top code rounds to u = 1 exactly.
    assert top[0] == 1.0 and _ndtri(top[:1])[0] == np.inf


@pytest.mark.parametrize("edge", [math.exp(-2.0), math.exp(-32.0)],
                         ids=["central-tail", "tail-far-tail"])
def test_ndtri_matches_scipy_across_branch_edges(edge):
    # exp(-2) separates the central and tail approximations, exp(-32)
    # (x = 8) the two tail ones; both sides, near 0 and near 1.
    below = [edge]
    above = [edge]
    for _ in range(2_000):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    y = np.array(below + above)
    y = np.concatenate([y, 1.0 - y, y * 0.999, y * 1.001])
    _assert_bitwise_ndtri(y)


def test_ndtri_matches_scipy_deep_in_the_tail():
    # Only x >= 8 reaches the P2/Q2 approximation, where a wrong
    # coefficient (such as the often quoted Q2[5] = 3.28079399065131891300E-4
    # for 3.28014464682127739104E-4) would show.
    rng = np.random.default_rng(7)
    y = np.exp(rng.uniform(math.log(1e-300), math.log(1e-14), size=100_000))
    _assert_bitwise_ndtri(y)
    _assert_bitwise_ndtri(1.0 - y)


def test_ndtri_special_values():
    y = np.array([0.0, -0.0, 1.0, 0.5, -1e-300, -1.0, 1.0 + 2**-52, 2.0,
                  np.inf, -np.inf, np.nan, 5e-324])
    ours = _ndtri(y)
    assert_array_equal(ours, scipy_ndtri(y))
    assert_array_equal(ours[:3], [-np.inf, -np.inf, np.inf])
    assert ours[3] == 0.0 and not np.signbit(ours[3])
    assert np.isnan(ours[4:11]).all()
    # Shapes are kept, including 0-d and empty inputs.
    assert _ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
    assert _ndtri(np.float64(0.975)) == scipy_ndtri(0.975)
    assert _ndtri(np.empty((0, 4))).shape == (0, 4)


_GRID = make_grid(1.0, 8)
_INCR = sample_brownian(Seed(1), _GRID)
_COUNT_USES = {
    "steps": lambda n: make_grid(1.0, n),
    "path_index": lambda n: derive_path_seed(Seed(1), n),
    "start": lambda n: sample_brownian_block(Seed(1), _GRID, n, 4).tobytes(),
    "stop": lambda n: sample_brownian_block(Seed(1), _GRID, 0, n).tobytes(),
    "factor": lambda n: coarsen(_INCR, n).values.tobytes(),
}


@pytest.mark.parametrize("value", [2.0, np.int64(2), 2.5, 1.9, float("nan"), float("inf"),
                                   float("-inf"), True])
@pytest.mark.parametrize("name", list(_COUNT_USES))
def test_counts_are_integers_or_errors(name, value):
    # A value equal to its int() is that int; any other raises, never truncated.
    use = _COUNT_USES[name]
    if value == 2:
        assert use(value) == use(2)
    else:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            use(value)
