"""Command-line interface: subcommands, outputs, and exit codes."""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lswhittle
from lswhittle import asymptotics, mcharness, simulator, whittle
from lswhittle.cli import _workers, main

BASE_CFG = """\
d.coeffs = 0.15, 0.20
sigma.coeffs = 0.5, 0.3
ma.coeffs = 0.5
ma.sign = -1
mc.T = 128
mc.seed = 7
mc.reps = 2
plan.N = 32
plan.S = 48
"""

FN_CFG = """\
d.coeffs = 0.2, 0.1
sigma.coeffs = 0.7, 0.1
mc.T = 96
mc.seed = 3
mc.reps = 2
plan.N = 32
plan.S = 32
grid.N = 30:34:2
grid.S = 32:64:32
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CFG)
    return str(path)


@pytest.fixture
def fn_cfg(tmp_path):
    path = tmp_path / "fn.cfg"
    path.write_text(FN_CFG)
    return str(path)


class TestSimulate:
    def test_writes_series(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code = main(["simulate", "--config", base_cfg, "--out", str(out)])
        assert code == 0
        assert "wrote 128 observations" in capsys.readouterr().out
        y = simulator.read_series_csv(out)
        assert len(y) == 128

    def test_matches_library_call(self, base_cfg, tmp_path):
        out = tmp_path / "y.csv"
        assert main(["simulate", "--config", base_cfg, "--out", str(out),
                     "--t", "40", "--seed", "9", "--rep", "2"]) == 0
        from lswhittle import configfile
        model, theta = configfile.build_model(configfile.load_config(base_cfg))
        want = simulator.simulate_path(
            model, theta, simulator.SimConfig(T=40, seed=9, replication=2))
        np.testing.assert_array_equal(simulator.read_series_csv(out), want)

    def test_missing_out_is_usage_error(self, base_cfg, tmp_path, capsys):
        dump = tmp_path / "eff.cfg"
        assert main(["simulate", "--config", base_cfg,
                     "--dump-config", str(dump)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not dump.exists()  # refused before anything ran

    def test_missing_config(self, capsys):
        assert main(["simulate", "--out", "/tmp/x.csv"]) == 2
        assert main(["simulate", "--config", "/nonexistent.cfg",
                     "--out", "/tmp/x.csv"]) == 2

    def test_infeasible_parameters_exit_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d.coeffs = 0.3, 0.3\nsigma.coeffs = 1.0\n"
                       "mc.T = 16\nmc.seed = 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "y.csv")]) == 3

    def test_pinned_log_link_curve_exit_3(self, tmp_path):
        # d(u) = exp(-2u) is pinned at exp(0) = 1 at u = 0, above D_HIGH
        cfg = tmp_path / "pinned.cfg"
        cfg.write_text("d.link = log\nd.intercept = false\nd.coeffs = -2\n"
                       "sigma.coeffs = 1.0\nmc.T = 16\nmc.seed = 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "y.csv")]) == 3

    def test_kernel_too_large_to_allocate_exits_2(self, base_cfg, tmp_path,
                                                  monkeypatch, capsys):
        def no_room(kernel):
            raise MemoryError(f"Unable to allocate the {kernel.T} x "
                              f"{kernel.T} covariance kernel")

        monkeypatch.setattr(simulator.CovKernel, "matrix", no_room)
        out = tmp_path / "y.csv"
        assert main(["simulate", "--config", base_cfg, "--t", "200000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate the 200000 x 200000")
        assert "Traceback" not in err
        assert not out.exists()

    # each run-setting flag, with a value that keeps BASE_CFG's plan valid
    @pytest.mark.parametrize("flag, key, value", [
        ("t", "mc.T", "176"), ("seed", "mc.seed", "9"), ("reps", "mc.reps", "1"),
        ("n", "plan.N", "80"), ("s", "plan.S", "24")],
        ids=["t", "seed", "reps", "n", "s"])
    def test_dump_config_reflects_overrides(self, base_cfg, tmp_path, flag,
                                            key, value):
        dump = tmp_path / "eff.cfg"
        assert main(["mc", "--config", base_cfg, "--threads", "1",
                     f"--{flag}", value, "--dump-config", str(dump)]) == 0
        from lswhittle import configfile
        want = dict(configfile.load_config(base_cfg), **{key: value})
        assert configfile.load_config(dump) == want


class TestEstimate:
    def test_fit_and_report(self, base_cfg, tmp_path, capsys):
        series = tmp_path / "y.csv"
        assert main(["simulate", "--config", base_cfg, "--out",
                     str(series), "--t", "512", "--seed", "42"]) == 0
        fit_csv = tmp_path / "fit.csv"
        code = main(["estimate", "--config", base_cfg, "--data", str(series),
                     "--n", "104", "--s", "34", "--out", str(fit_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged:" in out
        assert "asymptotic_sd" in out
        lines = fit_csv.read_text().strip().split("\n")
        assert lines[0] == "param,estimate"
        assert len(lines) == 6

    def test_infeasible_fit_prints_nan_sds(self, base_cfg, tmp_path,
                                           monkeypatch, capsys):
        # a fit that ends outside the box (d(1) = 0.55) reports converged
        # false, and Gamma refuses its theta, so the SD column is NaN
        def outside_fit(data, model, plan, taper):
            return whittle.FitResult(
                theta=model.make_params([0.15, 0.40, 0.5, 0.3, 0.5]),
                objective=0.0, iterations=0, evaluations=0, converged=False,
                plan=plan)
        series = tmp_path / "y.csv"
        assert main(["simulate", "--config", base_cfg, "--out",
                     str(series)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(whittle, "estimate", outside_fit)
        assert main(["estimate", "--config", base_cfg,
                     "--data", str(series)]) == 0
        captured = capsys.readouterr()
        assert "note: asymptotic SDs unavailable" in captured.err
        assert "converged: false" in captured.out
        rows = captured.out.strip().split("\n")[-5:]
        assert all(row.split()[-1] == "nan" for row in rows)

    def test_invalid_plan_exits_4(self, base_cfg, tmp_path):
        series = tmp_path / "y.csv"
        main(["simulate", "--config", base_cfg, "--out", str(series),
              "--t", "512"])
        assert main(["estimate", "--config", base_cfg, "--data", str(series),
                     "--n", "105", "--s", "35"]) == 4

    def test_auto_plan_substitutes(self, base_cfg, tmp_path, capsys):
        series = tmp_path / "y.csv"
        main(["simulate", "--config", base_cfg, "--out", str(series),
              "--t", "512"])
        code = main(["estimate", "--config", base_cfg, "--data", str(series),
                     "--n", "105", "--s", "35", "--auto-plan"])
        assert code == 0
        err = capsys.readouterr().err
        assert "N=104" in err and "S=34" in err

    def test_dump_periodogram(self, base_cfg, tmp_path):
        series = tmp_path / "y.csv"
        main(["simulate", "--config", base_cfg, "--out", str(series)])
        pg_csv = tmp_path / "pg.csv"
        assert main(["estimate", "--config", base_cfg, "--data", str(series),
                     "--dump-periodogram", str(pg_csv)]) == 0
        lines = pg_csv.read_text().strip().split("\n")
        assert lines[0] == "block,u,freq,ordinate"
        assert len(lines) == 1 + 3 * 16  # M=3 blocks, N=32 -> 16 ordinates

    def test_data_of_overflowing_scale_exits_2(self, base_cfg, tmp_path,
                                               capsys):
        series = tmp_path / "y.csv"
        assert main(["simulate", "--config", base_cfg, "--out",
                     str(series)]) == 0
        huge = tmp_path / "huge.csv"
        data = simulator.read_series_csv(series) * 1e160
        simulator.write_series_csv(data, huge)
        capsys.readouterr()
        out = tmp_path / "fit.csv"
        assert main(["estimate", "--config", base_cfg, "--data", str(huge),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: data of scale {np.max(np.abs(data)):.3g} overflow")
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_missing_data_file(self, base_cfg):
        assert main(["estimate", "--config", base_cfg,
                     "--data", "/nonexistent.csv"]) == 2


class TestMC:
    def test_table_output(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["mc", "--config", base_cfg, "--threads", "1",
                     "--example", "sec4", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert stdout.strip().split("\n") == lines
        assert lines[0] == "param,true,mean_est,emp_sd,theo_sd,n_converged,n_total"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[0] == "theta1_0"
        assert last[6] == "2"

    def test_quadrature_fallback_without_example(self, base_cfg, capsys):
        assert main(["mc", "--config", base_cfg, "--threads", "1"]) == 0
        assert "theo_sd" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg", [BASE_CFG.replace("ma.sign = -1",
                                                      "ma.sign = 1"),
                                     FN_CFG], ids=["sign", "length"])
    def test_family_mismatch_exits_2_before_any_fit(self, cfg, tmp_path,
                                                     monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(mcharness, "_run_fits", no_fit)
        path = tmp_path / "case.cfg"
        path.write_text(cfg)
        assert main(["mc", "--config", str(path), "--threads", "1",
                     "--example", "sec4"]) == 2
        assert "catalog model" in capsys.readouterr().err

    def test_missing_reps_errors(self, tmp_path):
        cfg = tmp_path / "norep.cfg"
        cfg.write_text("d.coeffs = 0.2\nsigma.coeffs = 1.0\nmc.T = 64\n"
                       "mc.seed = 1\nplan.N = 32\nplan.S = 32\n")
        assert main(["mc", "--config", str(cfg), "--threads", "1"]) == 2


class TestGrid:
    def test_grid_output(self, fn_cfg, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--config", fn_cfg, "--threads", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,S,M,mse,reps"
        # T=96: (30,S): 66 % 32, 66 % 64 -> none; (32,32): 64 % 32 = 0;
        # (32,64): 64 % 64 = 0; (34,S): 62 % 32, 62 % 64 -> none
        cells = {tuple(map(int, row.split(",")[:2])) for row in lines[1:]}
        assert cells == {(32, 32), (32, 64)}

    def test_missing_ranges_exit_2(self, base_cfg):
        assert main(["grid", "--config", base_cfg, "--threads", "1"]) == 2

    def test_empty_grid_exits_4(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("d.coeffs = 0.2, 0.1\nsigma.coeffs = 0.7, 0.1\n"
                       "mc.T = 97\nmc.seed = 3\nmc.reps = 2\n"
                       "grid.N = 30:34:2\ngrid.S = 64:64\n")
        assert main(["grid", "--config", str(cfg), "--threads", "1"]) == 4


class TestGamma:
    def test_closed_form_with_sds(self, capsys):
        code = main(["gamma", "--example", "sec4",
                     "--theta", "0.15,0.20,0.5,0.3,0.5", "--t", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sec4 Fisher matrix" in out
        gamma = asymptotics.gamma_closed("sec4", (0.15, 0.2, 0.5, 0.3, 0.5))
        sd = asymptotics.asymptotic_se(gamma, 512).sd
        for name, value in zip(gamma.names, sd):
            assert f"{name:<12} {value:.6g}" in out

    def test_both_methods_print_two_matrices(self, capsys):
        code = main(["gamma", "--example", "example2",
                     "--theta", "0.15,0.2,0.5,0.3", "--method", "both"])
        assert code == 0
        out = capsys.readouterr().out
        assert "example2 Fisher matrix" in out
        assert "quadrature Fisher matrix" in out

    def test_matrix_csv(self, tmp_path):
        out = tmp_path / "gamma.csv"
        # values starting with '-' need the --theta=... form
        assert main(["gamma", "--example", "example3",
                     "--theta=-2.0,0.5,0.2,-0.3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("param,")

    def test_config_route_uses_quadrature(self, base_cfg, capsys):
        assert main(["gamma", "--config", base_cfg]) == 0
        assert "quadrature Fisher matrix" in capsys.readouterr().out

    def test_infeasible_theta_exits_3(self):
        assert main(["gamma", "--example", "sec4",
                     "--theta", "0.3,0.25,0.5,0.3,0.5"]) == 3
        assert main(["gamma", "--example", "harmonic",
                     "--theta", "5.0,0,0,1.0"]) == 3

    def test_feasibility_tolerance_at_d_high(self, capsys):
        # d(1) = alpha0 + alpha1 lands 1e-13 past D_HIGH = 0.499 (within
        # FEASIBILITY_TOL) or 1e-9 past it (refused)
        assert main(["gamma", "--example", "sec4",
                     "--theta", "0.3,0.1990000000001,0.5,0.3,0.5"]) == 0
        assert main(["gamma", "--example", "sec4",
                     "--theta", "0.3,0.199000001,0.5,0.3,0.5"]) == 3
        capsys.readouterr()

    def test_singular_gamma_exits_3(self, capsys):
        # a2 == a3 cancels example5's AR and MA factors
        assert main(["gamma", "--example", "example5",
                     "--theta", "0.3,0.5,0.5", "--t", "512"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert "Fisher matrix" not in captured.out

    def test_config_route_closed_form(self, base_cfg, capsys):
        assert main(["gamma", "--config", base_cfg, "--method", "closed"]) == 0
        out = capsys.readouterr().out
        model = asymptotics.catalog_model("sec4")
        gamma = asymptotics.gamma_exact(model, (0.15, 0.20, 0.5, 0.3, 0.5))
        assert out.startswith("exact Fisher matrix")
        for row in gamma.matrix:
            assert "  " + " ".join(f"{v:>12.6g}" for v in row) in out

    def test_usage_errors(self):
        assert main(["gamma"]) == 2  # neither --example nor --config
        assert main(["gamma", "--example", "sec4"]) == 2  # no theta

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_nonpositive_t_exits_2(self, t, capsys):
        assert main(["gamma", "--example", "sec4", "--theta",
                     "0.15,0.20,0.5,0.3,0.5", f"--t={t}"]) == 2
        assert "T must be >= 1" in capsys.readouterr().err


class TestNonFiniteNumbers:
    """nan, inf and overflowing tokens exit 2 naming their key, before any
    curve is evaluated."""

    @pytest.mark.parametrize("theta", ["0.15,0.2,0.5,0.3,1e999",
                                       "0.15,0.2,nan,0.3,0.5",
                                       "-inf,0.2,0.5,0.3,0.5"])
    def test_theta_flag(self, theta, capsys):
        assert main(["gamma", "--example", "sec4", f"--theta={theta}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --theta: expected comma-separated "
                              "finite numbers")
        assert "Warning" not in err

    @pytest.mark.parametrize("line,key", [
        ("d.coeffs = nan, 0.20", "d.coeffs"),
        ("d.coeffs = 0.15, 1e999", "d.coeffs"),
        ("d.basis = harmonic\nd.freqs = inf\nd.coeffs = 0.2, 0.01", "d.freqs"),
    ])
    def test_config_value(self, tmp_path, line, key, capsys):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(line + "\nsigma.coeffs = 0.5, 0.3\n")
        assert main(["gamma", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: expected comma-separated "
                              "finite numbers")
        assert "Warning" not in err


class TestWorkers:
    @pytest.mark.parametrize("threads,want", [(None, 2), (3, 3), (0, 1),
                                              (-1, 1)])
    def test_flag_overrides_environment(self, monkeypatch, threads, want):
        monkeypatch.setenv("LSW_THREADS", "2")
        assert _workers(argparse.Namespace(threads=threads)) == want


def cli_env() -> dict:
    """The environment with this package's source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(lswhittle.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    return env


def run_cli(args):
    """Run ``python -m lswhittle.cli`` as its own process."""
    return subprocess.run([sys.executable, "-m", "lswhittle.cli", *args],
                          capture_output=True, text=True, env=cli_env())


class TestNegativeSeeds:
    @pytest.mark.parametrize("flag", ["--seed=-3", "--rep=-1"])
    def test_simulate_exits_2(self, base_cfg, tmp_path, flag):
        proc = run_cli(["simulate", "--config", base_cfg,
                        "--out", str(tmp_path / "y.csv"), flag])
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_mc_exits_2(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(BASE_CFG.replace("mc.seed = 7", "mc.seed = -1"))
        proc = run_cli(["mc", "--config", str(cfg), "--threads", "1"])
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout


class TestPathErrors:
    @pytest.mark.parametrize("which", ["--out", "--config"])
    def test_directory_exits_2(self, base_cfg, tmp_path, which):
        paths = {"--config": base_cfg, "--out": str(tmp_path / "y.csv"),
                 which: str(tmp_path)}
        proc = run_cli(["simulate", "--config", paths["--config"],
                        "--out", paths["--out"]])
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout


def processes_with(marker: str) -> list:
    """Pids whose command line contains marker (pool workers inherit it)."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if marker in cmdline.read_bytes().replace(b"\0", b" ").decode():
                found.append(cmdline.parent.name)
        except OSError:
            pass
    return found


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_ends_grid_and_its_workers(tmp_path):
    # 72 cells of 100 fits each: left alone, the grid runs on for 6.8-7.3 s
    # after both workers appear (2-core host), so an exit with status 0
    # means the signal was ignored.  More fits would cost every repetition:
    # the exit waits for the fits already queued to the workers.  SIGTERM
    # goes out as soon as both workers appear, while the pool may still be
    # starting; a handler firing there is a rare race, so it is repeated.
    cfg = tmp_path / "long.cfg"
    cfg.write_text("d.coeffs = 0.2, 0.1\nsigma.coeffs = 0.7, 0.1\n"
                   "mc.T = 256\nmc.seed = 3\nmc.reps = 100\n"
                   "grid.N = 16:64:2\ngrid.S = 1:4\n")
    marker = str(cfg)
    for _ in range(20):
        proc = subprocess.Popen(
            [sys.executable, "-m", "lswhittle.cli", "grid", "--config", marker,
             "--threads", "2"],
            env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(processes_with(marker)) < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(processes_with(marker)) >= 3, "no pool workers were started"
            proc.terminate()
            _, err = proc.communicate(timeout=30)
            assert (proc.returncode, err) == (128 + signal.SIGTERM, b"")
            deadline = time.monotonic() + 5
            while processes_with(marker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert processes_with(marker) == []
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_installed(self, base_cfg, tmp_path):
        # The entry point declared in pyproject.toml, run as its own process
        # the way the wrapper pip generates runs it, so the check needs no
        # install step.  Where an installed script is on PATH it runs too.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["lswhittle"]
        module, func = target.split(":")
        env = cli_env()
        launchers = [[sys.executable, "-c",
                      f"import sys; from {module} import {func}; "
                      f"sys.exit({func}())"]]
        script = shutil.which("lswhittle")
        if script is not None:
            launchers.append([script])
        out = tmp_path / "y.csv"
        for command in launchers:
            proc = subprocess.run(
                command + ["simulate", "--config", base_cfg,
                           "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, (command, proc.stderr)
            assert "wrote 128 observations" in proc.stdout, command
