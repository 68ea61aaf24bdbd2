"""End-to-end tests for the batch front end.

Every config is written to a temp directory and driven through ``main`` the
way a shell would call it; outputs are reparsed and compared bitwise against
the in-process API, which is what the byte-determinism contract promises.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import semsim
from semsim import (
    Seed,
    SimulationConfig,
    acf_abs_increments,
    builtin_hurst,
    estimate_holder,
    estimate_moment,
    make_grid,
    monte_carlo,
)
from semsim import __version__
from semsim.cli import ConfigError, _atomic_write, _csv_fields, main, parse_config

from _exact import scheme_weights

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "process": "sem",
    "hurst": {"name": "trig", "params": [0.6, 0.2, 1.0]},
    "T": 1.0,
    "N": 16,
    "seed": 12345,
    "n_paths": 2,
}


def _repr_fields(block):
    """The reference for ``_csv_fields``: each node's states, ``repr`` by ``repr``."""
    return [",".join(map(repr, states.tolist())) for states in block.T]


def _repr_csv(grid, matrix):
    """The bytes of ``paths.csv`` for ``matrix`` on ``grid``, by ``repr``."""
    t = grid.nodes
    lines = ["t," + ",".join(f"path_{i}" for i in range(matrix.shape[0]))]
    lines += [repr(float(t[k])) + "," + row for k, row in enumerate(_repr_fields(matrix))]
    return ("\n".join(lines) + "\n").encode()


def _write_config(tmp_path, overrides=None, drop=(), name="config.json"):
    raw = {k: v for k, v in BASE.items() if k not in drop}
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path), raw


class TestParseConfig:
    def test_round_trips_through_echo(self):
        cfg = parse_config(dict(BASE))
        assert parse_config(cfg.echo) == cfg

    @pytest.mark.parametrize(
        ("overrides", "drop", "fragment"),
        [
            ({"bogus": 1}, (), "unknown key"),
            ({}, ("seed",), "missing required key: seed"),
            ({"process": "brownian"}, (), "process must be"),
            ({"dampening": {"name": "constant", "params": [1.0]}}, (), "only valid"),
            ({"process": "sem_gamma"}, (), "requires a dampening"),
            ({"T": True}, (), "T must be"),
            ({"T": -1.0}, (), "T must be"),
            ({"N": 0}, (), "N must be"),
            ({"N": 16.0}, (), "N must be"),
            ({"seed": -1}, (), "seed must be"),
            ({"seed": 2**64}, (), "seed must be"),
            ({"n_paths": 0}, (), "n_paths must be"),
            ({"hurst": {"name": "constant"}}, (), "hurst"),
            ({"hurst": {"name": "constant", "params": [1.5]}}, (), "hurst"),
            ({"hurst": {"name": "constant", "params": ["x"]}}, (), "params"),
            ({"hurst": {"name": "constant", "params": [0.5], "extra": 1}}, (), "unknown key"),
            ({"converge": {"n_levels": 2, "refine_factor": 2}}, (), "n_levels"),
            ({"converge": {"n_levels": 3, "refine_factor": 1}}, (), "refine_factor"),
            ({"holder": {"q": 0}}, (), "holder.q"),
            ({"holder": {"q": 2.0, "lags": [1, 2]}}, (), "holder.lags"),
            ({"holder": {"q": 2.0, "lags": [1, 4, 2]}}, (), "holder.lags"),
            ({"holder": {"q": 2.0, "lags": [1, 2, 8]}}, (), "holder.lags"),
            ({"acf": {"max_lag": 0}}, (), "acf.max_lag"),
            ({"acf": {"max_lag": 8}}, (), "acf.max_lag"),
            ({"moments": {"p": [], "nodes": [0]}}, (), "moments.p"),
            ({"moments": {"p": [-1.0], "nodes": [0]}}, (), "moments.p"),
            ({"moments": {"p": [2.0], "nodes": [17]}}, (), "moments.nodes"),
            ({"moments": {"p": [2.0]}}, (), "moments.nodes"),
            # JSON's NaN and Infinity, and integers past the float range,
            # are not numbers a config may use.
            ({"T": float("inf")}, (), "T must be"),
            ({"T": float("-inf")}, (), "T must be"),
            ({"T": float("nan")}, (), "T must be"),
            ({"hurst": {"name": "constant", "params": [float("nan")]}}, (), "params"),
            ({"holder": {"q": float("inf")}}, (), "holder.q"),
            ({"moments": {"p": [float("inf")], "nodes": [0]}}, (), "moments.p"),
            ({"T": 10**400}, (), "T must be"),
            # The default lags of N = 8 are (1, 2), too few for a fit.
            ({"holder": {"q": 2.0}, "N": 8}, (), "holder.lags"),
        ],
    )
    def test_rejections(self, overrides, drop, fragment):
        raw = {k: v for k, v in BASE.items() if k not in drop}
        raw.update(overrides)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(raw)

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config([1, 2, 3])

    def test_simulation_config_is_built_once(self):
        cfg = parse_config(dict(BASE))
        assert cfg.simulation_config() is cfg.simulation_config()

    def test_parser_commands_are_the_handlers(self):
        from semsim import cli

        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(subparsers.choices) == list(cli._COMMANDS)

    def test_sem_gamma_builds_dampening(self):
        raw = dict(BASE)
        raw["process"] = "sem_gamma"
        raw["dampening"] = {"name": "constant", "params": [0.5]}
        dampening = parse_config(raw).simulation_config().dampening
        assert dampening is not None
        assert dampening.constant_value == 0.5


class TestSimulateCommand:
    def test_end_to_end_matches_api_bitwise(self, tmp_path, capsys):
        config_path, raw = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out)]) == 0
        assert "simulate: wrote paths.csv and manifest.json" in capsys.readouterr().out

        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "t,path_0,path_1"
        assert len(lines) == raw["N"] + 2

        expected = monte_carlo(
            SimulationConfig(
                grid=make_grid(1.0, 16),
                hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
                seed=Seed(12345),
                n_paths=2,
            )
        ).values
        for k, line in enumerate(lines[1:]):
            t_str, a_str, b_str = line.split(",")
            assert float(t_str) == k / 16
            assert float(a_str) == expected[0, k]
            assert float(b_str) == expected[1, k]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "semsim"
        assert manifest["version"] == __version__
        assert manifest["command"] == "simulate"
        assert manifest["config"] == raw
        assert manifest["files"] == ["paths.csv"]
        assert manifest["threads"] == 1
        assert manifest["exact_nodes"] is True
        assert manifest["seed_rule"] == "splitmix64-philox-ndtri-v1"
        assert isinstance(manifest["wall_seconds"], float)
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert manifest["numpy"] == {"version": np.__version__, "simd": simd}

    @pytest.mark.parametrize(("steps", "exact"), [(1000, False), (1024, True)])
    def test_manifest_says_whether_grid_nodes_are_exact(self, tmp_path, steps, exact):
        config_path, _ = _write_config(tmp_path, {"T": 10.0, "N": steps})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exact_nodes"] is exact

    def test_manifest_names_the_simd_targets_of_the_run(self, tmp_path):
        # The targets numpy dispatches to are those of the running process:
        # with the AVX-512 ones switched off in its environment, the
        # manifest lists none of them.
        config_path, _ = _write_config(tmp_path)
        out = tmp_path / "out"
        package_root = str(pathlib.Path(semsim.__file__).resolve().parent.parent)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "semsim.cli", "simulate", "--config", config_path,
             "--output-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        simd = json.loads((out / "manifest.json").read_text())["numpy"]["simd"]
        assert not any(t == "X86_V4" or t.startswith("AVX512") for t in simd), simd

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path, monkeypatch):
        # With no pool floor, two threads run a pool on the small config.
        monkeypatch.setattr(semsim.engine, "_POOL_STATES", 0)
        config_path, _ = _write_config(tmp_path)
        outputs = []
        for label, extra in (("a", []), ("b", []), ("c", ["--threads", "2"])):
            out = tmp_path / label
            assert main(["simulate", "--config", config_path, "--output-dir", str(out)] + extra) == 0
            outputs.append((out / "paths.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("hurst", [{"name": "constant", "params": [0.7]},
                                       {"name": "bell", "params": []}],
                             ids=["tabled", "state-dependent"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blockwise_csv_matches_columnwise_formatter(self, tmp_path, monkeypatch, hurst,
                                                        threads):
        # Under a budget of 2**14 states, N = 128 makes blocks of at most 128
        # paths, so 257 paths are three blocks of 85 or 86 for one thread and
        # four of 64 or 65 for two: every block's fields must join into the
        # rows of the whole ensemble.
        monkeypatch.setattr(semsim.engine, "_BLOCK_STATES", 2 ** 14)
        steps, n_paths = 128, 2 * 128 + 1
        config_path, _ = _write_config(tmp_path, {"hurst": hurst, "N": steps,
                                                  "n_paths": n_paths})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out),
                     "--threads", str(threads)]) == 0
        matrix = monte_carlo(SimulationConfig(
            grid=make_grid(1.0, steps),
            hurst=builtin_hurst(hurst["name"], hurst["params"]),
            seed=Seed(12345),
            n_paths=n_paths,
        )).values
        assert (out / "paths.csv").read_bytes() == _repr_csv(make_grid(1.0, steps), matrix)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_csv_rows_mixing_fixed_and_exponent_notation(self, tmp_path, monkeypatch, threads):
        # On a horizon of 1e-6 the states are of order 1e-4, so most rows
        # mix values repr writes in fixed notation with ones below 1e-4,
        # which it writes with an exponent; node 0 is all zeros.  Blocks of
        # 10 paths make four blocks, solved by a pool at two threads.
        monkeypatch.setattr(semsim.engine, "_BLOCK_STATES", 640)
        monkeypatch.setattr(semsim.engine, "_POOL_STATES", 0)
        grid, n_paths = make_grid(1e-6, 64), 40
        config_path, _ = _write_config(tmp_path, {"T": 1e-6, "N": 64, "n_paths": n_paths})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out),
                     "--threads", str(threads)]) == 0
        matrix = monte_carlo(SimulationConfig(
            grid=grid, hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]), seed=Seed(12345),
            n_paths=n_paths,
        )).values
        small = (np.abs(matrix) < 1e-4) & (matrix != 0.0)
        fixed = np.abs(matrix) >= 1e-4
        assert (matrix[:, 0] == 0.0).all()
        assert (small.any(axis=0) & fixed.any(axis=0)).sum() >= 32
        assert (out / "paths.csv").read_bytes() == _repr_csv(grid, matrix)


def _bits_to_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# Zeros, the least subnormal and normal doubles, every power of two from
# 2**-14 to 2**53 (so each irregularly spaced double of [1e-4, 1e16), the
# range repr writes in fixed notation), the doubles on both sides of 1e-4
# and 1e16, where repr switches notation, and a few short decimals.
EDGE_VALUES = [
    0.0, 5e-324, 2.0 ** -1022, *(2.0 ** e for e in range(-14, 54)),
    *(float(np.nextafter(v, to)) for v in (1e-4, 1e16) for to in (0.0, np.inf)), 1e-4, 1e16,
    9999999999999998.0, 0.1, 0.5, 1.25, 1.0, 2.0 ** 52, 123456789012345.0,
]


class TestCsvFields:
    """``_csv_fields`` writes ``repr``'s bytes for every double, in any block shape."""

    @pytest.mark.parametrize("shape", ["one node", "one path"])
    def test_edge_values(self, shape):
        values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        block = values[:, None] if shape == "one node" else values[None, :]
        assert _csv_fields(block) == _repr_fields(block)

    @seed(2026)
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=120),
           n_paths=st.integers(1, 5))
    def test_any_finite_double(self, bits, n_paths):
        # Raw bit patterns: zeros, subnormals, values past 1e16 and below
        # 1e-4, which repr writes itself, among the fixed range's.
        values = [v for v in map(_bits_to_float, bits) if math.isfinite(v)]
        n_paths = min(n_paths, max(1, len(values)))
        block = np.array(values[:len(values) // n_paths * n_paths]).reshape(n_paths, -1)
        assert _csv_fields(block) == _repr_fields(block)

    @seed(2027)
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),
                           min_size=1, max_size=120),
           negative=st.lists(st.booleans(), min_size=120, max_size=120),
           n_paths=st.integers(1, 5))
    def test_doubles_of_the_fixed_range(self, values, negative, n_paths):
        values = [-v if minus else v for v, minus in zip(values, negative)]
        n_paths = min(n_paths, len(values))
        block = np.array(values[:len(values) // n_paths * n_paths]).reshape(n_paths, -1)
        assert _csv_fields(block) == _repr_fields(block)

    @pytest.mark.parametrize("chunk", [1, 3, 64, 4096])
    def test_chunks_of_any_size(self, monkeypatch, chunk):
        # 7 paths of 600 nodes: chunks of one node, or of 9 or 585 nodes
        # and a last shorter one.
        from semsim import cli

        monkeypatch.setattr(cli, "_CHUNK", chunk)
        rng = np.random.default_rng(2028)
        block = rng.standard_normal((7, 600)) * 10.0 ** rng.uniform(-6, 18, (7, 600))
        block[:, 0] = 0.0
        assert _csv_fields(block) == _repr_fields(block)


class TestAnalysisCommands:
    def test_converge_degenerate_flag(self, tmp_path):
        config_path, _ = _write_config(
            tmp_path,
            overrides={
                "hurst": {"name": "constant", "params": [0.5]},
                "N": 8,
                "converge": {"n_levels": 3, "refine_factor": 2},
            },
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", config_path, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["flag"] == "degenerate_exact"
        assert payload["degenerate"] is True
        assert payload["fitted_slope"] is None
        assert payload["envelope_constant"] is None
        assert payload["sup_mse"] == [0.0, 0.0, 0.0]

    def test_converge_regular_flag(self, tmp_path):
        config_path, _ = _write_config(
            tmp_path,
            overrides={"N": 8, "converge": {"n_levels": 3, "refine_factor": 2}},
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", config_path, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["flag"] == "ok"
        assert payload["fitted_slope"] > 0.0
        assert payload["theoretical_rate_bound"] == pytest.approx(0.8)
        assert len(payload["dt_levels"]) == 3

    @pytest.mark.parametrize("hurst", ["bell", "rough_at_origin"])
    def test_converge_with_an_overflowing_envelope(self, tmp_path, hurst):
        # h_star = 0.05 puts the report's comparison envelope past the float
        # range, once every path has been solved.
        config_path, _ = _write_config(
            tmp_path,
            overrides={"hurst": {"name": hurst, "params": []}, "n_paths": 8,
                       "converge": {"n_levels": 3, "refine_factor": 2}},
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", config_path, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["flag"] == "ok"
        assert payload["envelope_constant"] is None
        assert math.isfinite(payload["fitted_slope"])

    def test_converge_with_a_long_envelope_series(self, tmp_path):
        # h_star = 0.1 at T = 1e-7 makes the envelope E_0.1(1.898...), whose
        # terms fall below the series' absolute tolerance only after about
        # 16,700 of them, past its budget of 10,000; the sum is final after
        # about 8,100.
        config_path, _ = _write_config(
            tmp_path,
            overrides={"hurst": {"name": "trig", "params": [0.3, 0.2, 1.0]}, "T": 1e-7,
                       "N": 8, "n_paths": 4, "converge": {"n_levels": 3, "refine_factor": 2}},
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", config_path, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["flag"] == "ok"
        assert math.isfinite(payload["envelope_constant"])
        assert payload["envelope_constant"] > 0.0

    def test_converge_thread_counts_are_byte_identical(self, tmp_path):
        # Base N = 64 with three levels puts the reference on N = 512: the
        # 40 seeds fit one block of up to 2**16 // 512 = 128, and --threads 2
        # splits them into two of 20, the first run in this process and the
        # second in a pool of one worker.
        config_path, _ = _write_config(
            tmp_path,
            overrides={"N": 64, "n_paths": 40, "converge": {"n_levels": 3, "refine_factor": 2}},
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["converge", "--config", config_path, "--output-dir", str(out),
                         "--threads", threads]) == 0
            outputs.append((out / "convergence.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["flag"] == "ok"

    def test_holder_output(self, tmp_path):
        config_path, _ = _write_config(
            tmp_path, overrides={"N": 64, "holder": {"q": 2.0}}
        )
        out = tmp_path / "out"
        assert main(["holder", "--config", config_path, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "holder.json").read_text())
        assert payload["q"] == 2.0
        assert payload["lags"] == [1, 2, 4, 8, 16]
        assert len(payload["per_path"]) == 2
        assert {"path", "exponent", "r_squared"} <= set(payload["per_path"][0])
        exponents = [row["exponent"] for row in payload["per_path"]]
        assert payload["median_exponent"] == pytest.approx(float(np.median(exponents)))

    def test_acf_output(self, tmp_path):
        config_path, _ = _write_config(
            tmp_path, overrides={"N": 32, "acf": {"max_lag": 5}}
        )
        out = tmp_path / "out"
        assert main(["acf", "--config", config_path, "--output-dir", str(out)]) == 0
        lines = (out / "acf.csv").read_text().splitlines()
        assert lines[0] == "lag,value"
        assert lines[1] == "0,1.0"
        assert len(lines) == 7
        for line in lines[2:]:
            _, value = line.split(",")
            assert abs(float(value)) <= 1.0

    def test_moments_output(self, tmp_path):
        config_path, _ = _write_config(
            tmp_path,
            overrides={"moments": {"p": [0.0, 2.0], "nodes": [0, 16]}},
        )
        out = tmp_path / "out"
        assert main(["moments", "--config", config_path, "--output-dir", str(out)]) == 0
        lines = (out / "moments.csv").read_text().splitlines()
        assert lines[0] == "node,p,value,std_error"
        assert lines[1] == "0,0.0,1.0,0.0"
        assert len(lines) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["moments.csv"]


    @pytest.mark.parametrize("command", ["holder", "acf", "moments"])
    def test_commands_reduce_blocks_without_monte_carlo(self, tmp_path, monkeypatch, command):
        # Every command hands simulate_blocks a finish, so each block is
        # reduced in its task and the parent never holds the path matrix.
        from semsim import cli, engine

        def forbidden(*args, **kwargs):
            raise AssertionError("monte_carlo must not be called")

        finishes = []
        blocks = cli.simulate_blocks
        monkeypatch.setattr(engine, "monte_carlo", forbidden)
        monkeypatch.setattr(cli, "monte_carlo", forbidden, raising=False)
        monkeypatch.setattr(cli, "simulate_blocks",
                            lambda sim, threads, finish=None: finishes.append(finish)
                            or blocks(sim, threads, finish))
        config_path, _ = _write_config(tmp_path, {
            "N": 64, "holder": {"q": 2.0}, "acf": {"max_lag": 5},
            "moments": {"p": [1.0, 2.0], "nodes": [0, 32, 64]},
        })
        assert main([command, "--config", config_path, "--output-dir", str(tmp_path)]) == 0
        assert len(finishes) == 1 and finishes[0] is not None

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", ["holder", "acf", "moments"])
    def test_blockwise_outputs_match_api_bitwise(self, tmp_path, monkeypatch, command, threads):
        # Under a budget of 2**14 states, N = 128 makes blocks of at most 128
        # paths, so 257 paths are three blocks for one thread and four for
        # two; the blocks' results must join into the statistics of the
        # whole ensemble.
        monkeypatch.setattr(semsim.engine, "_BLOCK_STATES", 2 ** 14)
        steps, n_paths, nodes, ps = 128, 2 * 128 + 1, [0, 1, 64, 128], [0.5, 2.0]
        config_path, _ = _write_config(tmp_path, {
            "N": steps, "n_paths": n_paths, "holder": {"q": 1.5, "lags": [1, 2, 4, 8]},
            "acf": {"max_lag": 7}, "moments": {"p": ps, "nodes": nodes},
        })
        out = tmp_path / "out"
        assert main([command, "--config", config_path, "--output-dir", str(out),
                     "--threads", str(threads)]) == 0
        ensemble = monte_carlo(SimulationConfig(
            grid=make_grid(1.0, steps),
            hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
            seed=Seed(12345),
            n_paths=n_paths,
        ))
        if command == "acf":
            series = [acf_abs_increments(p, max_lag=7) for p in ensemble.paths]
            mean = np.mean([s.values for s in series], axis=0)
            lines = ["lag,value"] + [f"{lag},{float(v)!r}" for lag, v in enumerate(mean)]
            assert (out / "acf.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        elif command == "moments":
            lines = ["node,p,value,std_error"]
            for node in nodes:
                for p in ps:
                    est = estimate_moment(ensemble, p=p, node=node)
                    lines.append(f"{node},{p!r},{est.value!r},{est.std_error!r}")
            assert (out / "moments.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        else:
            estimates = [estimate_holder(p, q=1.5, lags=[1, 2, 4, 8]) for p in ensemble.paths]
            payload = json.loads((out / "holder.json").read_text())
            assert payload["per_path"] == [
                {"path": i, "exponent": e.exponent, "r_squared": e.r_squared}
                for i, e in enumerate(estimates)
            ]
            assert payload["median_exponent"] == float(np.median([e.exponent for e in estimates]))

    def test_moments_match_their_exact_gaussian_expectation(self, tmp_path):
        # A constant Hurst value and no dampening: X[k] = sum_j C[k, j] dB[j]
        # is Gaussian with variance sigma_k^2 = dt sum_j C[k, j]^2, so
        # E|X[k]|^p = (2 sigma_k^2)^(p/2) Gamma((p + 1)/2) / sqrt(pi).  The
        # bound |z| <= 4 and the config's seed were fixed before the first run.
        config_path = CONFIG_DIR / "moments_gaussian.json"
        raw = json.loads(config_path.read_text())
        assert raw["hurst"] == {"name": "constant", "params": [0.75]}
        assert "dampening" not in raw
        out = tmp_path / "out"
        assert main(["moments", "--config", str(config_path), "--output-dir", str(out)]) == 0
        grid = make_grid(raw["T"], raw["N"])
        variances = grid.dt * np.sum(scheme_weights(grid, 0.75) ** 2, axis=1)
        rows = [line.split(",") for line in (out / "moments.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(raw["moments"]["nodes"]) * len(raw["moments"]["p"])
        for node, p, value, std_error in rows:
            node, p, value, std_error = int(node), float(p), float(value), float(std_error)
            if p == 0.0:
                assert (value, std_error) == (1.0, 0.0)
                continue
            exact = ((2.0 * variances[node]) ** (p / 2) * math.gamma((p + 1) / 2)
                     / math.sqrt(math.pi))
            assert abs(value - exact) <= 4.0 * std_error, (node, p, (value - exact) / std_error)


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def chunks():
            yield "a,b\n"
            raise RuntimeError("chunk failed")

        (tmp_path / "paths.csv").write_text("old\n")
        with pytest.raises(RuntimeError, match="chunk failed"):
            _atomic_write(str(tmp_path), "paths.csv", chunks())
        assert sorted(os.listdir(tmp_path)) == ["paths.csv"]
        # The file written before is untouched.
        assert (tmp_path / "paths.csv").read_text() == "old\n"


class TestBlockSplit:
    @pytest.mark.parametrize(("command", "name", "steps", "solved_on"), [
        ("simulate", "paths.csv", 64, 64),
        ("acf", "acf.csv", 64, 64),
        ("converge", "convergence.json", 16, 128),
    ], ids=["simulate", "acf", "converge"])
    def test_data_files_do_not_depend_on_the_split(self, tmp_path, monkeypatch, command, name,
                                                   steps, solved_on):
        # Budgets of 2**10, 2**14 and 2**16 states at one and two threads
        # cut the 40 paths (or seeds, solved on the study's reference grid)
        # into between one and six blocks; every data file must be the
        # same bytes.  With no pool floor, two threads run a pool.
        from semsim import engine

        monkeypatch.setattr(engine, "_POOL_STATES", 0)
        config_path, _ = _write_config(tmp_path, {
            "N": steps, "n_paths": 40, "acf": {"max_lag": 5},
            "converge": {"n_levels": 3, "refine_factor": 2},
        })
        outputs, splits = set(), set()
        for budget in (2 ** 10, 2 ** 14, 2 ** 16):
            monkeypatch.setattr(engine, "_BLOCK_STATES", budget)
            for threads in (1, 2):
                splits.add(tuple(engine._block_bounds(40, solved_on, threads)[0]))
                out = tmp_path / f"{budget}-{threads}"
                assert main([command, "--config", config_path, "--output-dir", str(out),
                             "--threads", str(threads)]) == 0
                outputs.add((out / name).read_bytes())
        assert len(splits) >= 4
        assert len(outputs) == 1


class TestHandlers:
    def test_each_handler_returns_the_file_main_writes(self, tmp_path):
        # A handler writes nothing: it returns its file's name and text, one
        # string or its chunks, and main writes that file and the manifest.
        from semsim import cli

        config_path, raw = _write_config(tmp_path, {
            "converge": {"n_levels": 3, "refine_factor": 2}, "holder": {"q": 2.0},
            "acf": {"max_lag": 3}, "moments": {"p": [1.0, 2.0], "nodes": [0, 16]},
        })
        config = parse_config(raw)
        for command, handler in cli._COMMANDS.items():
            out = tmp_path / command
            assert main([command, "--config", config_path, "--output-dir", str(out)]) == 0
            name, text = handler(config, cli._section(config, command), 1)
            text = text if isinstance(text, str) else "".join(text)
            assert sorted(p.name for p in out.iterdir()) == sorted([name, "manifest.json"])
            assert json.loads((out / "manifest.json").read_text())["files"] == [name]
            assert (out / name).read_bytes() == text.encode()


class TestExitCodes:
    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_content(self, tmp_path, capsys):
        config_path, _ = _write_config(tmp_path, overrides={"N": 0})
        assert main(["simulate", "--config", config_path]) == 2
        assert "N must be" in capsys.readouterr().err

    def test_missing_section_for_command(self, tmp_path, capsys):
        config_path, _ = _write_config(tmp_path)
        assert main(["converge", "--config", config_path]) == 2
        assert "no 'converge' section" in capsys.readouterr().err

    def test_section_is_looked_up_once(self, tmp_path, monkeypatch):
        from semsim import cli

        calls = []
        lookup = cli._section
        monkeypatch.setattr(cli, "_section", lambda *args: calls.append(args) or lookup(*args))
        config_path, _ = _write_config(tmp_path, {"acf": {"max_lag": 3}})
        assert main(["acf", "--config", config_path, "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_output_dir_collision_is_runtime_error(self, tmp_path, capsys):
        config_path, _ = _write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        assert main(["simulate", "--config", config_path, "--output-dir", str(blocker)]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x.json"])
        assert excinfo.value.code == 2


class TestThreadResolution:
    def test_env_variable_sets_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEM_THREADS", "3")
        config_path, _ = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 3

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEM_THREADS", "3")
        config_path, _ = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--output-dir", str(out),
                     "--threads", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1

    def test_invalid_env_value_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEM_THREADS", "many")
        config_path, _ = _write_config(tmp_path)
        assert main(["simulate", "--config", config_path]) == 2
        assert "SEM_THREADS" in capsys.readouterr().err

    def test_nonpositive_threads_rejected(self, tmp_path, capsys):
        config_path, _ = _write_config(tmp_path)
        assert main(["simulate", "--config", config_path, "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err


class TestStartup:
    def test_loading_a_config_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy's import alone cost
        # about 330 ms and 25 MB before a config was parsed.
        config = CONFIG_DIR / "bell_trajectory.json"
        package_root = str(pathlib.Path(semsim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        script = (
            "import sys, semsim\n"
            "from semsim import cli\n"
            f"cli.load_config({str(config)!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
