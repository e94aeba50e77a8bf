"""CLI behavior: determinism, artifacts, manifests, exit codes."""

import ctypes
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchcs import cli
from branchcs.cli import main
from branchcs.grid import full_measurements, invert_full, sample_indices
from branchcs.matio import read_matrix, write_matrix
from branchcs.models import model_from_config
from helpers import traced_peak

HSC_CONFIG = {
    "model": "hsc",
    "rates": {"rho": 0.125, "nu": 0.104, "mu": 0.147},
    "t": 1.0,
    "init": [1, 0],
}

BDS_CONFIG = {
    "model": "bds",
    "rates": {"gamma": 0.016, "sigma": 0.004, "delta": 0.019},
    "t": 0.35,
    "init": [1, 0],
}


@pytest.fixture
def hsc_config(tmp_path):
    path = tmp_path / "hsc.json"
    path.write_text(json.dumps(HSC_CONFIG))
    return str(path)


@pytest.fixture
def bds_config(tmp_path):
    path = tmp_path / "bds.json"
    path.write_text(json.dumps(BDS_CONFIG))
    return str(path)


class TestSolve:
    def test_writes_matrix_and_manifest(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["solve", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "16"]) == 0
        s = read_matrix(out / "S_full.bpm")
        assert s.shape == (16, 16)
        assert s.sum() == pytest.approx(1.0, abs=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["pgf_evals"] == 144  # N (N/2 + 1) at N = 16
        assert manifest["tool_version"]

    @pytest.mark.parametrize("n", [2, 4, 16, 512])
    @pytest.mark.parametrize("init", [(1, 0), (2, 3), (0, 2)])
    @pytest.mark.parametrize("config", [HSC_CONFIG, BDS_CONFIG], ids=["hsc", "bds"])
    def test_writes_the_full_grids_inversion(self, tmp_path, config, init, n):
        # solve builds and inverts only the N x (N/2 + 1) half, with the same bits
        config = {**config, "init": list(init)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path),
                     "--n", str(n)]) == 0
        want = invert_full(full_measurements(model_from_config(config), n))
        assert read_matrix(tmp_path / "S_full.bpm").tobytes() == want.tobytes()

    def test_holds_the_half_grid_and_s_only(self, tmp_path, hsc_config):
        # the half grid is about S's bytes; the N x N grid and a copy of its half
        # (4.0 S's) are never made
        argv = ["solve", "--config", hsc_config, "--out-dir", str(tmp_path), "--n", "512"]
        assert main(argv) == 0  # a first run outside the trace
        rc, peak = traced_peak(lambda: main(argv))
        assert rc == 0
        assert peak <= 2.25 * read_matrix(tmp_path / "S_full.bpm").nbytes

    def test_csv_format(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["solve", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "16", "--format", "csv"]) == 0
        data = np.loadtxt(out / "S_full.csv", delimiter=",")
        assert data.shape == (16, 16)


class TestRecover:
    def test_cs_hsc_512_is_pinned(self, tmp_path, hsc_config, hsc_model):
        """The benchmark's cs-hsc-512: N=512, default M=88, seeds 0-4.  Its sweep
        counts, convergence and errors."""
        truth = tmp_path / "S_true.bpm"
        write_matrix(truth, invert_full(full_measurements(hsc_model, 512)))
        want = {0: (206, 0.005229), 1: (201, 0.002919), 2: (207, 0.006020),
                3: (182, 0.007045), 4: (197, 0.003540)}
        for seed, (sweeps, err) in want.items():
            out = tmp_path / f"s{seed}"
            assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                         "--n", "512", "--seed", str(seed), "--truth", str(truth)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["m"] == 88
            assert (manifest["iterations"], manifest["converged"]) == (sweeps, True)
            assert float(f"{manifest['metrics']['eps_rel_l2']:.4g}") == err

    def test_deterministic_output(self, tmp_path, hsc_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                         "--n", "32", "--m", "20", "--seed", "5"]) == 0
            outs.append((out / "S_hat.bpm").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_counts_pgf_evals(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "32", "--m", "20"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pgf_evals"] == 400
        assert manifest["solver"] == "admm"
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == len(report["history"])

    @pytest.mark.parametrize("solver", ["admm", "pgd"])
    def test_report_sums_up_s_hat(self, tmp_path, hsc_config, solver):
        out = tmp_path / "out"
        assert main(["recover", "--config", hsc_config, "--out-dir", str(out), "--n", "32",
                     "--m", "20", "--solver", solver, "--max-iter", "50"]) == 0
        report = json.loads((out / "report.json").read_text())
        s_hat = read_matrix(out / "S_hat.bpm")
        # the new keys come after the old ones, which keep their order
        assert list(report) == ["iterations", "converged", "wall_time", "max_imag", "history",
                                "s_hat", "stop_reason", "row_ffts"]
        assert report["row_ffts"] > 0
        # recover stops at the first sweep that meets its stopping rule
        assert report["stop_reason"] == ("tolerance" if report["converged"] else "max_iter")
        assert report["s_hat"] == {"total_mass": float(s_hat.sum()),
                                   "min_entry": float(s_hat.min()),
                                   "max_imag": report["max_imag"]}
        assert abs(report["s_hat"]["total_mass"] - 1.0) < 0.05  # close to a distribution

    def test_truth_metric(self, tmp_path, hsc_config):
        solve_out = tmp_path / "solve"
        main(["solve", "--config", hsc_config, "--out-dir", str(solve_out), "--n", "32"])
        out = tmp_path / "rec"
        assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "32", "--m", "20",
                     "--truth", str(solve_out / "S_full.bpm")]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0 <= manifest["metrics"]["eps_rel_l2"] < 1.0

    def test_thread_count_leaves_output_bytes_unchanged(self, tmp_path, hsc_config,
                                                        small_blocks):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                         "--n", "32", "--m", "20", "--seed", "5", "--threads", threads]) == 0
            outs.append((out / "S_hat.bpm").read_bytes())
        assert outs[0] == outs[1]

    def test_no_thread_is_started(self, tmp_path, hsc_config, small_blocks, monkeypatch):
        # --threads is accepted and ignored: every solver runs on the calling thread
        runs = [("recover", "--n", "32", "--m", "20", "--seed", "5"),
                ("recover", "--n", "32", "--m", "20", "--seed", "5", "--solver", "pgd"),
                ("bench", "--n-list", "16", "--trials", "2", "--max-iter", "20")]

        def outputs(threads):
            got = []
            for i, argv in enumerate(runs):
                out = tmp_path / f"{i}t{threads}"
                assert main([*argv, "--config", hsc_config, "--out-dir", str(out),
                             "--threads", threads]) == 0
                if argv[0] == "recover":
                    got.append((out / "S_hat.bpm").read_bytes())
                else:  # bench.csv's errors; its wall times vary
                    got.append(np.loadtxt(out / "bench.csv", delimiter=",", skiprows=1,
                                          usecols=4).tolist())
            return got

        def no_thread(self):
            raise AssertionError("a thread was started")

        want = outputs("1")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert outputs("2") == want

    def test_pgd_solver(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["recover", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "32", "--m", "20", "--solver", "pgd",
                     "--max-iter", "2000"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver"] == "pgd"


class TestSweepAndBench:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([HSC_CONFIG, BDS_CONFIG]), st.integers(1, 8), st.data())
    def test_subgrids_are_the_full_grids_entries(self, config, log_n, data):
        # sweep's and bench's J x J, read off the half grid, and their exact S
        n = 2 ** log_n
        model = model_from_config({**config, "init": [2, 3]})
        m = data.draw(st.integers(1, n))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
        edges = data.draw(st.booleans())

        def draw(n, m, seed):  # J, with 0 and N/2 in it if edges
            idx = sample_indices(n, m, seed)
            return np.union1d(idx, [0, n // 2]) if edges else idx

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "sample_indices", draw)
            s, subgrids = cli._exact_and_subgrids(model, n, m, seeds)
        full = full_measurements(model, n)
        assert s.tobytes() == invert_full(full).tobytes()
        for seed, ms in zip(seeds, subgrids, strict=True):
            idx = draw(n, m, seed)
            assert ms.seed == seed and ms.indices.tolist() == idx.tolist()
            assert ms.b.tobytes() == full[np.ix_(idx, idx)].tobytes()

    def test_sweep_beta_csv(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["sweep", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "32", "--m", "20", "--param", "beta",
                     "--grid", "0.01:1:3:log"]) == 0
        lines = (out / "sweep_beta.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,eps_rel_l2,iterations,wall_time"
        assert len(lines) == 4

    def test_sweep_lambda_explicit_grid(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["sweep", "--config", hsc_config, "--out-dir", str(out),
                     "--n", "32", "--m", "20", "--param", "lambda",
                     "--grid", "0.5,1.0"]) == 0
        lines = (out / "sweep_lambda.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_bench_csv(self, tmp_path, hsc_config):
        out = tmp_path / "out"
        assert main(["bench", "--config", hsc_config, "--out-dir", str(out),
                     "--n-list", "16", "--trials", "2"]) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,solver,m,")
        assert len(lines) == 3  # header + pgd + admm


class TestOracleCommand:
    def test_oracle_output(self, tmp_path, bds_config):
        out = tmp_path / "out"
        assert main(["oracle", "--config", bds_config, "--out-dir", str(out),
                     "--n-trunc", "8"]) == 0
        s = read_matrix(out / "S_oracle.bpm")
        assert s.shape == (8, 8)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truncation_mass"] < 1e-6


def test_one_process_runs_commands_in_turn(tmp_path, hsc_config):
    # the parser is built once per process; a usage error between two runs
    # leaves the second solve as the first
    def run(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    solve = ["solve", "--config", hsc_config, "--n", "16", "--out-dir"]
    assert run(solve + [str(tmp_path / "a")]) == 0
    assert run(["recover", "--config", hsc_config, "--out-dir", str(tmp_path / "r"),
                "--n", "16", "--solver", "bogus"]) == 1
    assert run(solve + [str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "S_full.bpm").read_bytes()
            == (tmp_path / "b" / "S_full.bpm").read_bytes())


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_repeated_solves_fault_in_no_new_pages(tmp_path):
    # each op's grid-sized blocks come back from the heap: without the
    # allocator thresholds glibc mmapped them afresh, about 1500 faults an op.
    # A fresh process, as larger blocks freed by other tests raise the threshold.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HSC_CONFIG))
    argv = ["solve", "--config", str(cfg), "--out-dir", str(tmp_path), "--n", "512"]
    code = "\n".join([
        "import resource, branchcs.cli",
        "faults = []",
        "for _ in range(4):",
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        f"    assert branchcs.cli.main({argv!r}) == 0",
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        "print(faults)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    faults = json.loads(out.stdout.splitlines()[-1])
    assert max(faults[1:]) <= 64, f"minor faults per op: {faults}"


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path), "--n", "16"]) == 1

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad),
                     "--out-dir", str(tmp_path), "--n", "16"]) == 1

    def test_unknown_argument_is_usage_error(self, hsc_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", hsc_config, "--out-dir", str(tmp_path),
                  "--n", "16", "--bogus"])
        assert exc.value.code == 1

    def test_critical_rates_solve_to_a_distribution(self, tmp_path):
        # gamma = delta used to raise; the closed form now runs through the limit
        cfg = dict(BDS_CONFIG, rates={"gamma": 0.02, "sigma": 0.004, "delta": 0.02})
        path = tmp_path / "critical.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path), "--n", "16"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        s = read_matrix(tmp_path / "S_full.bpm")
        assert abs(manifest["total_mass"] - 1.0) < 1e-8
        assert s.min() > -1e-12

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "17"],                 # not a power of two
        ["recover", "--n", "48"],
        ["recover", "--n", "64", "--m", "80"],  # more samples than grid points
        ["sweep", "--n", "64", "--m", "80", "--param", "beta", "--grid", "1"],
    ], ids=["solve", "recover", "m-above-n", "sweep-m-above-n"])
    def test_bad_grid_size_is_usage_error(self, hsc_config, tmp_path, argv):
        assert main(argv + ["--config", hsc_config, "--out-dir", str(tmp_path)]) == 1

    def test_mismatched_truth_is_usage_error(self, hsc_config, tmp_path):
        truth = tmp_path / "row.bpm"
        write_matrix(truth, np.ones((1, 32)))
        for path in (truth, tmp_path / "missing.bpm"):
            assert main(["recover", "--config", hsc_config, "--out-dir", str(tmp_path),
                         "--n", "32", "--m", "20", "--truth", str(path)]) == 1
        assert not (tmp_path / "S_hat.bpm").exists()  # rejected before the solve

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 0.0], ids=["nan", "inf", "all-zero"])
    def test_a_truth_with_no_finite_error_is_usage_error(self, hsc_config, tmp_path, capsys,
                                                         monkeypatch, entry):
        # eps_rel_l2 would be nan or inf, and manifest.json would hold NaN or Infinity
        truth = tmp_path / "truth.bpm"
        s = np.zeros((16, 16))
        s[3, 4] = entry
        write_matrix(truth, s)
        monkeypatch.setattr(cli, "sampled_measurements", None)  # rejected before any PGF work
        assert main(["recover", "--config", hsc_config, "--out-dir", str(tmp_path),
                     "--n", "16", "--truth", str(truth)]) == 1
        assert "--truth" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv, work", [
        (["solve", "--n", "512"], "full_measurements"),
        (["recover", "--n", "512"], "sampled_measurements"),
        (["oracle", "--n-trunc", "257"], "oracle_transition_matrix"),
    ], ids=["solve", "recover", "oracle"])
    def test_csv_above_its_limit_is_refused_before_any_work(self, hsc_config, tmp_path, capsys,
                                                           monkeypatch, argv, work):
        # the CSV writer's 256 x 256 limit was met only once the matrix was made
        monkeypatch.setattr(cli, work, None)  # a call would raise TypeError
        assert main(argv + ["--format", "csv", "--config", hsc_config,
                            "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--format csv" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "16", "--param", "beta", "--grid", "1:2"],
        ["sweep", "--n", "16", "--param", "beta", "--grid", "1:2:3:4:log"],
        ["sweep", "--n", "16", "--param", "beta", "--grid", "0.1:1:2:foo"],
        ["sweep", "--n", "16", "--param", "beta", "--grid=-1,1"],
        ["recover", "--n", "16", "--solver", "pgd", "--max-iter", "0"],
        ["recover", "--n", "16", "--beta", "-1"],
        ["bench", "--n-list", "16", "--trials", "0"],
        ["bench", "--n-list", "16", "--max-iter", "0"],
        ["bench", "--n-list", "128,100"],
        ["recover", "--n", "16", "--threads", "0"],
        ["recover", "--n", "16", "--solver", "pgd", "--lam", "-1"],
        ["recover", "--n", "16", "--solver", "pgd", "--lam", "nan"],
        ["recover", "--n", "16", "--lam", "nan"],
        ["recover", "--n", "16", "--beta", "inf"],
        ["recover", "--n", "16", "--beta", "nan"],
        ["recover", "--n", "16", "--eps-abs", "-1"],
        ["recover", "--n", "16", "--eps-rel", "nan"],
        ["sweep", "--n", "16", "--param", "lambda", "--grid", "nan"],
        ["recover", "--n", "16", "--solver", "pgd", "--beta", "-1"],
        ["recover", "--n", "16", "--solver", "pgd", "--eps-abs", "5"],
        ["recover", "--n", "16", "--solver", "pgd", "--eps-rel", "0.1"],
    ], ids=["grid-two-fields", "grid-five-fields", "grid-scale", "grid-negative-beta",
            "pgd-max-iter-0", "negative-beta", "trials-0", "bench-max-iter-0",
            "bench-n-not-power-of-two", "threads-0", "pgd-negative-lambda", "pgd-nan-lambda",
            "nan-lambda", "inf-beta", "nan-beta", "negative-eps-abs", "nan-eps-rel",
            "grid-nan-lambda", "pgd-beta", "pgd-eps-abs", "pgd-eps-rel"])
    def test_bad_argument_value_is_usage_error(self, hsc_config, tmp_path, monkeypatch,
                                               capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("PGF grid computed before the arguments were checked")

        monkeypatch.setattr(cli, "full_measurements", no_work)
        monkeypatch.setattr(cli, "sampled_measurements", no_work)
        assert main(argv + ["--config", hsc_config, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [["recover"], ["sweep", "--param", "beta", "--grid", "1"]],
                             ids=["recover", "sweep"])
    def test_a_negative_seed_is_a_usage_error_naming_it(self, hsc_config, tmp_path, monkeypatch,
                                                        capsys, command):
        # numpy's sampler raised "expected non-negative integer", which names no flag
        def no_work(*args, **kwargs):
            raise AssertionError("PGF values computed before --seed was checked")

        monkeypatch.setattr(cli, "full_measurements", no_work)
        monkeypatch.setattr(cli, "sampled_measurements", no_work)
        assert main(command + ["--n", "16", "--seed", "-1", "--config", hsc_config,
                               "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1.5", "inf"])
    def test_bad_oracle_tol_is_usage_error(self, hsc_config, tmp_path, capsys, tol):
        assert main(["oracle", "--config", hsc_config, "--out-dir", str(tmp_path),
                     "--n-trunc", "6", "--tol", tol]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, name", [
        (["sweep", "--n", "16", "--param", "beta", "--grid", "1:2:0"], "--grid"),
        (["sweep", "--n", "16", "--param", "beta", "--grid", ","], "--grid"),
        (["sweep", "--n", "16", "--param", "beta", "--grid", "1:2:x"], "--grid"),
        (["sweep", "--n", "16", "--param", "beta", "--grid", "a,b"], "--grid"),
        (["oracle", "--n-trunc", "0"], "n_trunc"),
        (["oracle", "--n-trunc", "-3"], "n_trunc"),
        (["recover", "--n", "16", "--m", "0"], "--m"),
        (["sweep", "--n", "16", "--m", "0", "--param", "beta", "--grid", "1"], "--m"),
        (["bench", "--n-list", "a"], "--n-list"),
        (["bench", "--n-list", "16,"], "--n-list"),
        (["sweep", "--n", "16", "--param", "beta", "--grid", "0:1:3"], "--grid"),
    ], ids=["grid-num-0", "grid-empty-values", "grid-num-not-an-integer", "grid-not-numbers",
            "n-trunc-0", "n-trunc-negative", "recover-m-0", "sweep-m-0", "n-list-not-numbers",
            "n-list-empty-value", "grid-log-from-0"])
    def test_a_count_below_one_is_a_usage_error_naming_it(self, hsc_config, tmp_path, capsys,
                                                          monkeypatch, argv, name):
        # a sweep over no points wrote an empty CSV and exited 0, a --grid that
        # float() or int() could not read was reported in their words, and the
        # oracle's errors for a box of no states named neither it nor its flag;
        # --m 0 gave the penalty's "math domain error", and a log --grid from 0
        # numpy's error, in place of their flags
        def no_work(*args, **kwargs):
            raise AssertionError("PGF values computed before the arguments were checked")

        monkeypatch.setattr(cli, "full_measurements", no_work)
        monkeypatch.setattr(cli, "sampled_measurements", no_work)
        out = tmp_path / "out"
        assert main(argv + ["--config", hsc_config, "--out-dir", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err
        assert not any(out.iterdir())  # no table, matrix or manifest

    @pytest.mark.parametrize("change, key", [
        ({"model": None}, "model"),
        ({"rates": None}, "rates"),
        ({"t": None}, "'t'"),
        ({"init": None}, "init"),
        ({"rates": {"rho": 0.125, "mu": 0.147}}, "nu"),
        ({"rates": {"rho": 0.125, "nu": "fast", "mu": 0.147}}, "nu"),
        ({"t": float("inf")}, "t must be finite"),
        ({"init": [1.7, 0]}, "init"),
        ({"init": [True, 0]}, "init"),
        ({"t": "1.0"}, "t must be a number"),
        ({"t": True}, "t must be a number"),
        ({"t": "abc"}, "t must be a number"),
        ({"rates": {"rho": True, "nu": 0.104, "mu": 0.147}}, "rho must be a number"),
    ], ids=["no-model", "no-rates", "no-t", "no-init", "no-rate", "string-rate", "infinite-t",
            "fractional-init", "boolean-init", "string-t", "boolean-t", "non-numeric-t",
            "boolean-rate"])
    def test_config_schema_error_is_usage_error(self, tmp_path, capsys, change, key):
        cfg = {k: v for k, v in {**HSC_CONFIG, **change}.items() if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path),
                     "--n", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


def test_solve_and_recover_load_no_scipy(tmp_path):
    # branchcs runs on numpy alone: no command, the oracle included, pays scipy's start-up
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HSC_CONFIG))
    common = f"'--config', {str(cfg)!r}, '--out-dir', {str(tmp_path)!r}"
    code = "\n".join([
        "import sys, branchcs, branchcs.cli",
        f"assert branchcs.cli.main(['solve', {common}, '--n', '16']) == 0",
        f"assert branchcs.cli.main(['recover', {common}, '--n', '16', '--max-iter', '5']) == 0",
        f"assert branchcs.cli.main(['oracle', {common}, '--n-trunc', '6']) == 0",
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "print(loaded)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


# The CLI contract: each manifest's keys in order, and the stdout line.
CONTRACT = {
    "solve": (["--n", "16"],
              ["n", "pgf_evals", "outputs", "total_mass"],
              r"wrote {out}/S_full\.bpm \(total mass \d+\.\d{{6}}\)"),
    "recover": (["--n", "16", "--max-iter", "20", "--truth", "{truth}"],
                ["n", "m", "seed", "solver", "solver_config", "pgf_evals", "outputs",
                 "metrics", "iterations", "converged"],
                r"wrote {out}/S_hat\.bpm: \d+ iterations, converged=(True|False), "
                r"eps_rel_l2=\S+"),
    "sweep": (["--n", "16", "--param", "beta", "--grid", "0.1,1", "--max-iter", "20"],
              ["n", "m", "seed", "param", "grid", "outputs"],
              r"wrote {out}/sweep_beta\.csv \(2 points\)"),
    "bench": (["--n-list", "16", "--trials", "1", "--max-iter", "20"],
              ["n_list", "trials", "outputs"],
              r"wrote {out}/bench\.csv"),
    "oracle": (["--n-trunc", "6"],
               ["n_trunc", "truncation_mass", "outputs"],
               r"wrote {out}/S_oracle\.bpm \(truncation mass \S+\)"),
}


@pytest.mark.parametrize("command", list(CONTRACT))
def test_manifest_keys_and_stdout_line(tmp_path, hsc_config, capsys, command):
    flags, fields, line = CONTRACT[command]
    out = tmp_path / "out"
    truth = tmp_path / "truth.bpm"
    write_matrix(truth, np.eye(16))
    argv = [command, "--config", hsc_config, "--out-dir", str(out)]
    assert main(argv + [f.format(truth=truth) for f in flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["command", "config", *fields, "tool_version", "timestamp"]
    assert manifest["command"] == command
    stdout = capsys.readouterr().out
    assert re.fullmatch(line.format(out=re.escape(str(out))) + "\n", stdout)
