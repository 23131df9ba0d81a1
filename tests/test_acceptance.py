"""End-to-end acceptance checks.

Each test prints exactly one ``ACn ...: PASS|FAIL`` line (shown in the
pytest -rA summary) and then asserts the same condition, so a red test and
its printed line always agree.  Expensive artifacts (the 200-replication
table, the MSE grid, the fidelity paths) are computed once in module-scoped
fixtures and shared with the determinism check.
"""
import math
import re

import numpy as np
import pytest

from lswhittle import BasisSpec, asymptotics, mcharness, simulator, spectral, whittle
from lswhittle.cli import main
from lswhittle.spectral import nearest_valid_plan

from oracles import arfima01_acv, naive_whittle

SEED = 20260814
TRUTH = np.array([0.15, 0.20, 0.5, 0.3, 0.5])


def table_model():
    return asymptotics.catalog_model("sec4")


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fidelity_runs():
    """Two independent regenerations of the 2000-path fidelity table."""
    model = table_model()
    theta = np.array([0.15, 0.0, 0.5, 0.0, 0.5])
    kernel = simulator.make_kernel(model, theta, 64)
    analytic = kernel.matrix()[0, :6]

    def one_run():
        paths = mcharness.simulate_paths(model, theta, 64, 2000, seed=SEED)
        rows = []
        for k in range(6):
            per_path = np.mean(paths[:, : 64 - k] * paths[:, k:], axis=1)
            emp = float(per_path.mean())
            se = float(per_path.std(ddof=1) / math.sqrt(len(per_path)))
            rows.append((k, emp, float(analytic[k]), se))
        csv = "lag,empirical,analytic,mc_se\n" + "".join(
            f"{k},{emp:.17g},{ana:.17g},{se:.17g}\n"
            for k, emp, ana, se in rows)
        return rows, csv

    return one_run(), one_run()


@pytest.fixture(scope="module")
def table_runs():
    """200-replication tables at workers 1 and 2 (identical by design)."""
    model = table_model()
    plan = mcharness.nearest_plan(512, 105, 35)
    out = {}
    for workers in (1, 2):
        config = mcharness.MCConfig(model=model, theta=TRUTH, T=512,
                                    plan=plan, reps=200, seed=SEED,
                                    workers=workers, family="sec4")
        table = mcharness.run_mc(config)
        out[workers] = (table, mcharness.mc_table_csv(table))
    return out


@pytest.fixture(scope="module")
def grid_runs():
    """Paired-seed MSE grids at workers 1 and 2."""
    model = table_model()
    theta = np.array([0.20, 0.25, 0.5, 0.3, 0.5])
    out = {}
    for workers in (1, 2):
        grid = mcharness.mse_grid(model, theta, T=512,
                                  n_values=range(85, 136),
                                  s_values=range(20, 51), reps=50,
                                  seed=SEED, workers=workers)
        out[workers] = (grid, mcharness.mse_grid_csv(grid))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _cli_sds(t: int, capsys) -> dict:
    code = main(["gamma", "--example", "sec4",
                 "--theta", "0.15,0.20,0.5,0.3,0.5", "--t", str(t)])
    assert code == 0
    out = capsys.readouterr().out
    sds = {}
    for line in out.splitlines():
        m = re.match(r"\s+(\w+)\s+([0-9.eE+-]+)$", line)
        if m:
            sds[m.group(1)] = float(m.group(2))
    return sds


def test_ac1_fisher_se_reproduction(capsys):
    targets = {
        512: (0.115, 0.119, 0.035, 0.069, 0.109),
        1024: (0.081, 0.084, 0.025, 0.049, 0.077),
    }
    names = table_model().param_names()
    worst = 0.0
    for t, wanted in targets.items():
        sds = _cli_sds(t, capsys)
        for name, want in zip(names, wanted):
            worst = max(worst, abs(sds[name] - want))
    ok = worst <= 5e-4
    report("AC1 closed-form SD columns at T=512/1024", ok,
           f"max deviation {worst:.2e} vs tolerance 5e-4")
    assert ok


def _sample_theta(family: str, rng) -> tuple:
    if family == "example2":
        d0, d1 = rng.uniform(0.02, 0.48, size=2)
        b0 = rng.uniform(0.2, 1.5)
        b_end = rng.uniform(0.05, 1.5)
        return (d0, d1 - d0, b0, b_end - b0)
    if family == "example3":
        d0, d1 = rng.uniform(0.02, 0.45, size=2)
        return (math.log(d0), math.log(d1 / d0),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    if family == "harmonic":
        return (rng.uniform(0.15, 0.35), rng.uniform(-0.05, 0.05),
                rng.uniform(-0.05, 0.05), rng.uniform(0.2, 2.0))
    if family == "example5":
        return (rng.uniform(0.02, 0.48), rng.uniform(-0.9, 0.9),
                rng.uniform(-0.9, 0.9))
    d0, d1 = rng.uniform(0.02, 0.48, size=2)
    b0 = rng.uniform(0.2, 1.5)
    b_end = rng.uniform(0.05, 1.5)
    return (d0, d1 - d0, b0, b_end - b0, rng.uniform(-0.9, 0.9))


def test_ac2_closed_vs_quadrature_random_sweep():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for family in ("example2", "example3", "harmonic", "example5", "sec4"):
        model = asymptotics.catalog_model(family)
        for _ in range(20):
            theta = _sample_theta(family, rng)
            closed = asymptotics.gamma_closed(family, theta)
            quadr = asymptotics.gamma_quadrature(model, theta)
            worst = max(worst,
                        float(np.abs(closed.matrix - quadr.matrix).max()))
    ok = worst <= 1e-5
    report("AC2 closed vs quadrature, 5 families x 20 random points", ok,
           f"max entry deviation {worst:.2e} vs tolerance 1e-5")
    assert ok


def test_ac3_average_variance_identity():
    bases = [BasisSpec("polynomial", degree=q) for q in range(6)]
    bases.append(BasisSpec("harmonic", freqs=(1.0, 2.0, 3.0)))
    worst = 0.0
    for basis in bases:
        got = asymptotics.average_variance_check(basis)
        worst = max(worst, abs(got - 6.0 * basis.size / math.pi ** 2))
    u = np.linspace(0.0, 1.0, 101)
    linear = BasisSpec("polynomial", degree=1)
    profile = asymptotics.dhat_variance_profile(
        asymptotics.gamma_d_block(linear), linear, u)
    wanted = (24.0 / math.pi ** 2) * (1.0 - 3.0 * u + 3.0 * u ** 2)
    worst_profile = float(np.abs(profile - wanted).max())
    ok = worst <= 1e-8 and worst_profile <= 1e-8
    report("AC3 average-variance identity and linear profile", ok,
           f"trace dev {worst:.2e}, profile dev {worst_profile:.2e}, "
           f"tolerance 1e-8")
    assert ok


def test_ac4_covariance_kernel_oracle():
    model = table_model()
    worst = 0.0
    for d in (0.1, 0.3, 0.45):
        for vt in (0.0, 0.4, -0.4):
            theta = (d, 0.0, 1.0, 0.0, vt)
            for k in range(51):
                got = simulator.covariance(model, theta, k + 1, 1, 64)
                want = arfima01_acv(d, vt, k)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    report("AC4 covariance kernel vs stationary oracle", ok,
           f"max relative deviation {worst:.2e} vs tolerance 1e-10")
    assert ok


def test_ac5_simulation_fidelity(fidelity_runs):
    rows, _ = fidelity_runs[0]
    worst = 0.0
    for k, emp, ana, se in rows:
        worst = max(worst, abs(emp - ana) / se)
    ok = worst <= 3.0
    report("AC5 simulation fidelity, 2000 paths, lags 0..5", ok,
           f"max |emp-analytic| = {worst:.2f} MC SEs vs tolerance 3")
    assert ok


def test_ac6_objective_oracle():
    rng = np.random.default_rng(SEED)
    model = table_model()
    worst = 0.0
    sizes = [8, 105, 256]
    for i in range(25):
        n = sizes[i % 3]
        multi = i % 5 == 0 and n >= 16
        s = n // 2 if multi else 1
        t = (s * 2 + n) if multi else n
        plan = spectral.make_plan(t, n, s)
        data = rng.standard_normal(t)
        theta = _sample_theta("sec4", rng)
        taper = spectral.taper_weights("cosine" if i % 2 else "uniform", n)
        pg = spectral.local_periodogram(data, plan, taper)
        obj = whittle.WhittleObjective(pg, model)
        got = obj(theta)
        want = naive_whittle(model, theta, data, plan, taper)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    report("AC6 FFT objective vs direct double loops, 25 pairs", ok,
           f"max relative deviation {worst:.2e} vs tolerance 1e-12")
    assert ok


def test_ac7_replication_moment_bands(table_runs):
    table, _ = table_runs[1]
    ref_mean = np.array([0.130, 0.177, 0.497, 0.299, 0.473])
    ref_sd = np.array([0.117, 0.146, 0.045, 0.089, 0.106])
    half = 3.0 * table.theo_sd / math.sqrt(200.0) + np.abs(ref_mean - TRUTH)
    mean_ok = np.abs(table.mean_est - ref_mean) <= half
    sd_ok = np.abs(table.emp_sd - ref_sd) <= 0.35 * ref_sd
    bad = [
        f"{name} mean {est:.4f} outside [{lo:.4f},{hi:.4f}]"
        for name, est, lo, hi, okay in zip(
            table.names, table.mean_est, ref_mean - half,
            ref_mean + half, mean_ok)
        if not okay
    ] + [
        f"{name} SD {sd:.4f} vs {want:.3f} +-35%"
        for name, sd, want, okay in zip(
            table.names, table.emp_sd, ref_sd, sd_ok)
        if not okay
    ]
    ok = bool(np.all(mean_ok) and np.all(sd_ok))
    detail = (f"{table.n_converged}/200 converged; "
              + ("all bands met" if ok else "; ".join(bad)))
    report("AC7 desk-scale replication moments vs reference bands", ok, detail)
    assert ok


def test_ac8_mse_basin(grid_runs):
    grid, _ = grid_runs[1]
    mse = {(n, s): val for n, s, _, val, _ in grid.rows}
    near = nearest_valid_plan(512, 105, 35)
    floor = min(mse.values())
    argmin = min(mse, key=mse.get)
    ratio = mse[near] / floor
    ok = ratio <= 1.25
    report("AC8 MSE basin contains the recommended cell", ok,
           f"cell {near} mse {mse[near]:.4f} vs grid min {floor:.4f} at "
           f"{argmin}, ratio {ratio:.3f} vs tolerance 1.25")
    assert ok


def test_ac9_consistency_trend():
    model = table_model()
    results = {}
    for t, (n, s) in ((512, (105, 35)), (1024, (200, 45))):
        plan = mcharness.nearest_plan(t, n, s)
        config = mcharness.MCConfig(model=model, theta=TRUTH, T=t, plan=plan,
                                    reps=100, seed=SEED, workers=1,
                                    family="sec4")
        results[t] = mcharness.total_mse(mcharness.run_mc(config))
    ok = results[1024] < results[512]
    report("AC9 paired-seed MSE shrinks from T=512 to T=1024", ok,
           f"mse(512) {results[512]:.4f} vs mse(1024) {results[1024]:.4f}")
    assert ok


def test_ac10_worker_determinism(fidelity_runs, table_runs, grid_runs):
    same5 = fidelity_runs[0][1] == fidelity_runs[1][1]
    same7 = table_runs[1][1] == table_runs[2][1]
    same8 = grid_runs[1][1] == grid_runs[2][1]
    ok = same5 and same7 and same8
    report("AC10 byte-identical CSVs across worker counts", ok,
           f"fidelity {same5}, table {same7}, grid {same8}")
    assert ok
