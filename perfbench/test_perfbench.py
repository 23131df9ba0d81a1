"""Tests of the benchmark itself: every check must reject a wrong output.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lswhittle import asymptotics, mcharness, simulator, spectral, whittle  # noqa: E402

SEC4 = workloads.SEC4
THETA = workloads.TABLE_THETA


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_argmin_check_rejects_a_perturbed_fit():
    plan = spectral.make_plan(512, 104, 34)
    taper = spectral.taper_weights("cosine", plan.N)
    path = mcharness.simulate_paths(SEC4, THETA, 512, 1, seed=7)[0]
    fit = whittle.estimate(path, SEC4, plan, taper).theta.values
    assert not checks.objective_not_minimal(oracles.naive_whittle, SEC4, fit,
                                            THETA, path, plan, taper)
    perturbed = fit + np.array([0.1, -0.1, 0.05, 0.0, 0.1])
    assert checks.objective_not_minimal(oracles.naive_whittle, SEC4,
                                        perturbed, THETA, path, plan, taper)


def synthetic_table(rng, converged):
    est = THETA + 0.05 * rng.standard_normal((len(converged), len(THETA)))
    used = est[converged]
    return mcharness.MCTable(
        names=SEC4.param_names(), true=THETA.copy(),
        mean_est=used.mean(axis=0), emp_sd=used.std(axis=0, ddof=1),
        theo_sd=np.ones(len(THETA)), n_converged=int(converged.sum()),
        n_total=len(converged), plan=spectral.make_plan(512, 104, 34),
        seed=1, estimates=est, converged=converged)


def test_table_check_rejects_moments_that_do_not_follow():
    rng = np.random.default_rng(3)
    table = synthetic_table(rng, np.array([True, False, True, True, False]))
    assert checks.table_errors(table, THETA) == []
    est = table.estimates.copy()
    est[2, 1] += 1e-9
    assert checks.table_errors(dataclasses.replace(table, estimates=est),
                               THETA)
    assert checks.table_errors(
        dataclasses.replace(table, n_converged=table.n_converged - 1), THETA)
    est = table.estimates.copy()
    est[1, 0] = np.nan
    assert checks.table_errors(dataclasses.replace(table, estimates=est),
                               THETA)


def test_kernel_check_rejects_a_wrong_entry():
    K = simulator.make_kernel(SEC4, THETA, 64).matrix()
    positions = [(s, t) for s in range(64) for t in range(s + 1)]
    assert checks.kernel_entry_errors(K, THETA, positions) == []
    for s, t in ((40, 7), (7, 40), (0, 0)):
        bad = K.copy()
        bad[s, t] *= 1.0 + 1e-9
        errors = checks.kernel_entry_errors(bad, THETA, positions)
        assert [(e[0], e[1]) for e in errors] == [(max(s, t), min(s, t))]


def test_reconstruction_check_rejects_a_wrong_factor():
    kernel = simulator.make_kernel(SEC4, THETA, 64)
    K = kernel.matrix()
    state = simulator.innovations_decompose(kernel)
    rows = range(64)
    assert checks.reconstruction_errors(state.coeffs, state.variances, K,
                                        rows) == []
    v = state.variances.copy()
    v[10] *= 1.0 + 1e-6
    assert checks.reconstruction_errors(state.coeffs, v, K, rows)
    L = state.coeffs.copy()
    L[3, 5] = 1e-12
    assert checks.reconstruction_errors(L, state.variances, K, rows)


def test_path_check_rejects_one_changed_bit():
    paths = mcharness.simulate_paths(SEC4, THETA, 64, 3, seed=5)
    digests = checks.row_digests(paths)
    assert checks.mismatched_rows(digests, checks.row_digests(paths.copy())) \
        == []
    bad = paths.copy()
    bad[1, 17] = np.nextafter(bad[1, 17], np.inf)
    assert checks.mismatched_rows(digests, checks.row_digests(bad)) == [1]


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_fisher_check_rejects_a_matrix_off_by_1e_6(family):
    theta = workloads.sample_theta(family, np.random.default_rng(11))
    quad = asymptotics.gamma_quadrature(asymptotics.catalog_model(family),
                                        theta).matrix
    closed = asymptotics.gamma_closed(family, theta).matrix
    assert not checks.fisher_mismatch(quad, closed)
    off = closed.copy()
    off[-1, 0] += 1e-6
    assert checks.fisher_mismatch(quad, off)


def test_sd_check_rejects_a_wrong_sd():
    gamma = asymptotics.gamma_closed("sec4", THETA)
    sd = asymptotics.asymptotic_se(gamma, 512).sd
    assert not checks.sd_mismatch(sd, gamma.matrix, 512)
    sd[2] *= 1.0 + 1e-6
    assert checks.sd_mismatch(sd, gamma.matrix, 512)


def test_grid_check_rejects_a_row_with_the_wrong_m():
    cells = [(92, 30), (104, 34), (128, 48)]
    rows = [(92, 30, 15, 0.1, 4), (104, 34, 13, 0.2, 4), (128, 48, 9, 0.3, 4)]
    assert checks.grid_row_errors(rows, 512, cells, 4) == []
    for i, row in ((1, (104, 34, 12, 0.2, 4)), (2, (128, 48, 9, np.nan, 4)),
                   (0, (92, 30, 15, -0.1, 4)), (0, (92, 34, 15, 0.1, 4)),
                   (2, (128, 48, 9, 0.3, 3))):
        bad = list(rows)
        bad[i] = row
        assert checks.grid_row_errors(bad, 512, cells, 4) == [i]
    assert checks.grid_row_errors(rows[:2], 512, cells, 4)


def test_sampled_fisher_points_are_feasible():
    rng = np.random.default_rng(0)
    for family in workloads.FAMILIES:
        for _ in range(50):
            asymptotics.gamma_closed(family,
                                     workloads.sample_theta(family, rng))


def test_tracer_spans_nest_and_uninstall():
    tracer = tracing.Tracer()
    original = mcharness.innovations_decompose
    tracer.install()
    try:
        assert mcharness.innovations_decompose is not original
        mcharness.simulate_paths(SEC4, THETA, 64, 2, seed=1)
    finally:
        tracer.uninstall()
    assert mcharness.innovations_decompose is original
    assert simulator.CovKernel.matrix.__name__ == "matrix"
    by_name = {s["name"]: s for s in tracer.spans}
    top = by_name["mcharness.simulate_paths"]
    assert by_name["simulator.innovations_decompose"]["parent"] == top["id"]
    assert (by_name["simulator.CovKernel.matrix"]["parent"]
            == by_name["simulator.innovations_decompose"]["id"])
    assert by_name["simulator.paths_from_state"]["rows"] == 2
    total = sum(tracing.self_seconds(tracer.spans).values())
    assert total == pytest.approx(top["end"] - top["start"], rel=1e-9)


def test_scaled_throughput_follows_the_program_not_the_host():
    rounds, refs = [0.50, 0.52, 0.49, 0.55], [0.0070, 0.0066, 0.0068, 0.0071]
    base = reference.scaled_throughput(8, rounds, refs)
    assert base == pytest.approx(8 / 0.51 * 0.0069 / reference.NOMINAL_S)
    # A host twice as slow lengthens rounds and reference alike.
    slow = reference.scaled_throughput(8, [2 * t for t in rounds],
                                       [2 * t for t in refs])
    assert slow == pytest.approx(base, rel=1e-12)
    # A program twice as slow on the same host halves the figure.
    assert reference.scaled_throughput(
        8, [2 * t for t in rounds], refs) == pytest.approx(base / 2)


def test_reference_computation_repeats_exactly():
    assert reference.Reference().run() == reference.Reference().run()


def test_parallel_reference_times_each_sample_and_stops_its_pool():
    with reference.ParallelReference(2) as ref:
        times = ref.sample(3)
        workers = list(ref.pool._processes.values())
    assert len(times) == 3 and all(t > 0 for t in times)
    assert len(workers) == 2 and not any(p.is_alive() for p in workers)


def test_negative_seed_is_rejected_with_a_message():
    proc = run_bench("--workload", "mc_table", "--seed", "-3",
                     "--seconds", "1")
    assert proc.returncode == 2
    assert "seed must be a non-negative integer, got -3" in proc.stderr
    assert proc.stdout == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "fisher_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def processes_with(marker: str) -> list:
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if marker in cmdline.read_bytes().replace(b"\0", b" ").decode():
                found.append(cmdline.parent.name)
        except OSError:
            pass
    return found


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_stops_the_run_and_its_pool_workers():
    seed = str(900000 + os.getpid())
    marker = f"--seed {seed} "
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "plan_grid",
         "--seed", seed, "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(processes_with(marker)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(processes_with(marker)) >= 2, "no pool worker was started"
        proc.terminate()
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
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


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_reports_every_metric(trace):
    proc = run_bench("--workload", "fisher_sweep", "--seed", "4",
                     "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
