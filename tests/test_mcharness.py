"""Monte Carlo harness: plan substitution, tables, MSE grid, parallel safety."""
import tracemalloc

import numpy as np
import pytest

from lswhittle import (BasisSpec, ConfigError, CurveSpec, ModelSpec,
                       PlanError, mcharness, simulator, spectral, whittle)

POLY0 = BasisSpec("polynomial", 0)
POLY1 = BasisSpec("polynomial", 1)


def fn_model():
    return ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1))


def ma_model():
    return ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1),
                     ma=(CurveSpec(POLY0, sign=-1),))


THETA_MA = np.array([0.15, 0.20, 0.5, 0.3, 0.5])


class TestNearestPlan:
    def test_valid_plan_unchanged(self):
        plan = mcharness.nearest_plan(652, 256, 4)
        assert (plan.N, plan.S, plan.M) == (256, 4, 100)

    def test_substitutes_nearest(self):
        plan = mcharness.nearest_plan(512, 105, 35)
        assert (plan.N, plan.S, plan.M) == (104, 34, 13)
        plan = mcharness.nearest_plan(1024, 200, 45)
        assert (plan.N, plan.S, plan.M) == (196, 46, 19)

    def test_full_length_block(self):
        plan = mcharness.nearest_plan(128, 128, 30)
        assert plan.M == 1

    def test_out_of_range_n_raises(self):
        with pytest.raises(PlanError):
            mcharness.nearest_plan(64, 65, 1)


class TestSimulatePaths:
    def test_rows_match_single_path_api(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.7, 0.1]
        paths = mcharness.simulate_paths(model, theta, 32, 3, seed=5)
        assert paths.shape == (3, 32)
        for rep in range(3):
            single = simulator.simulate_path(
                model, theta, simulator.SimConfig(T=32, seed=5,
                                                  replication=rep))
            np.testing.assert_array_equal(paths[rep], single)

    def test_peak_memory_below_two_matrices(self):
        # The kernel is filled and factored in place and the paths come
        # from one product, so the traced peak stays near one T x T array.
        T = 2048
        tracemalloc.start()
        try:
            mcharness.simulate_paths(ma_model(), THETA_MA, T, 50, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * T * T * 8


class TestMCConfig:
    def test_rejects_zero_reps(self):
        plan = spectral.make_plan(64, 32, 16)
        with pytest.raises(ValueError):
            mcharness.MCConfig(model=fn_model(), theta=np.zeros(4), T=64,
                               plan=plan, reps=0, seed=1)

    def test_rejects_plan_length_mismatch(self):
        plan = spectral.make_plan(64, 32, 16)
        with pytest.raises(PlanError):
            mcharness.MCConfig(model=fn_model(), theta=np.zeros(4), T=128,
                               plan=plan, reps=2, seed=1)


class TestRunMC:
    def test_single_replication_equals_direct_fit(self):
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        config = mcharness.MCConfig(model=model, theta=THETA_MA, T=256,
                                    plan=plan, reps=1, seed=31,
                                    family="sec4")
        table = mcharness.run_mc(config)
        path = simulator.simulate_path(
            model, THETA_MA, simulator.SimConfig(T=256, seed=31,
                                                 replication=0))
        taper = spectral.taper_weights("cosine", 64)
        fit = whittle.estimate(path, model, plan, taper)
        np.testing.assert_array_equal(table.estimates[0], fit.theta.values)
        assert table.n_total == 1
        if fit.converged:
            np.testing.assert_array_equal(table.mean_est, fit.theta.values)
            np.testing.assert_array_equal(table.emp_sd, np.zeros(5))

    def test_moments_use_converged_fits_only(self):
        # seed 11 at this size yields 2 converged of 6, so the moment
        # columns must come from those two rows alone
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        config = mcharness.MCConfig(model=model, theta=THETA_MA, T=256,
                                    plan=plan, reps=6, seed=11,
                                    family="sec4")
        table = mcharness.run_mc(config)
        used = table.estimates[table.converged]
        assert table.n_converged == int(table.converged.sum())
        assert 2 <= table.n_converged < 6
        np.testing.assert_allclose(table.mean_est, used.mean(axis=0))
        np.testing.assert_allclose(table.emp_sd, used.std(axis=0, ddof=1))

    def test_closed_and_quadrature_sds_agree(self):
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        kwargs = dict(model=model, theta=THETA_MA, T=256, plan=plan, reps=1,
                      seed=31)
        closed = mcharness.run_mc(mcharness.MCConfig(family="sec4", **kwargs))
        quadr = mcharness.run_mc(mcharness.MCConfig(**kwargs))
        np.testing.assert_allclose(closed.theo_sd, quadr.theo_sd, rtol=1e-8)

    def test_worker_count_does_not_change_results(self):
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        tables = []
        for workers in (1, 2):
            config = mcharness.MCConfig(model=model, theta=THETA_MA, T=256,
                                        plan=plan, reps=4, seed=31,
                                        workers=workers, family="sec4")
            tables.append(mcharness.run_mc(config))
        assert mcharness.mc_table_csv(tables[0]) == \
            mcharness.mc_table_csv(tables[1])
        np.testing.assert_array_equal(tables[0].estimates,
                                      tables[1].estimates)

    def test_table_csv_layout(self):
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        config = mcharness.MCConfig(model=model, theta=THETA_MA, T=256,
                                    plan=plan, reps=2, seed=31, family="sec4")
        table = mcharness.run_mc(config)
        lines = mcharness.mc_table_csv(table).strip().split("\n")
        assert lines[0] == "param,true,mean_est,emp_sd,theo_sd,n_converged,n_total"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == table.names[0]
        assert float(first[1]) == 0.15
        assert first[5] == str(table.n_converged)
        assert first[6] == "2"


class TestTotalMSE:
    def test_matches_direct_average(self):
        model = ma_model()
        plan = spectral.make_plan(256, 64, 48)
        config = mcharness.MCConfig(model=model, theta=THETA_MA, T=256,
                                    plan=plan, reps=4, seed=31, family="sec4")
        table = mcharness.run_mc(config)
        err = table.estimates - THETA_MA[None, :]
        want = np.mean(np.sum(err ** 2, axis=1))
        assert mcharness.total_mse(table) == pytest.approx(want, rel=1e-15)


class TestValidCells:
    def test_filters_to_divisible_cells(self):
        cells = mcharness.valid_cells(512, [100, 104, 105], [34, 40])
        assert cells == [(104, 34)]

    def test_empty_grid_raises(self):
        with pytest.raises(PlanError):
            mcharness.valid_cells(512, [105], [34])

    def test_degenerate_single_cell(self):
        assert mcharness.valid_cells(64, [64], [7]) == [(64, 7)]


class TestMSEGrid:
    def test_grid_rows_and_pairing(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.7, 0.1]
        grid = mcharness.mse_grid(model, theta, T=128, n_values=[32, 40],
                                  s_values=[32, 44], reps=3, seed=9)
        cells = [(r[0], r[1]) for r in grid.rows]
        assert cells == [(32, 32), (40, 44)]  # 96 % 44 and 88 % 32 != 0
        ms = {(32, 32): 4, (40, 44): 3}
        for n, s, m, mse, reps in grid.rows:
            assert m == ms[(n, s)]
            assert reps == 3
            assert np.isfinite(mse) and mse > 0.0

    def test_grid_reuses_paired_paths(self):
        # Same seed, same cell -> the one-cell grid must reproduce the
        # matching cell of a larger grid exactly.
        model = fn_model()
        theta = [0.2, 0.1, 0.7, 0.1]
        big = mcharness.mse_grid(model, theta, T=128, n_values=[32, 40],
                                 s_values=[32, 44], reps=3, seed=9)
        small = mcharness.mse_grid(model, theta, T=128, n_values=[40],
                                   s_values=[44], reps=3, seed=9)
        big_cell = [r for r in big.rows if (r[0], r[1]) == (40, 44)][0]
        assert small.rows[0] == big_cell

    def test_grid_worker_invariance(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.7, 0.1]
        grids = [
            mcharness.mse_grid(model, theta, T=128, n_values=[32],
                               s_values=[32, 44], reps=4, seed=9,
                               workers=w)
            for w in (1, 2)
        ]
        assert mcharness.mse_grid_csv(grids[0]) == \
            mcharness.mse_grid_csv(grids[1])

    def test_grid_csv_layout(self):
        model = fn_model()
        grid = mcharness.mse_grid(model, [0.2, 0.1, 0.7, 0.1], T=96,
                                  n_values=[32], s_values=[32], reps=2,
                                  seed=3)
        lines = mcharness.mse_grid_csv(grid).strip().split("\n")
        assert lines[0] == "N,S,M,mse,reps"
        assert len(lines) == 2
        n, s, m, mse, reps = lines[1].split(",")
        assert (int(n), int(s), int(m), int(reps)) == (32, 32, 3, 2)
        assert float(mse) > 0.0


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LSW_THREADS", "3")
        assert mcharness.default_workers() == 3
        monkeypatch.setenv("LSW_THREADS", "0")
        assert mcharness.default_workers() == 1
        monkeypatch.setenv("LSW_THREADS", "abc")
        with pytest.raises(ConfigError, match="LSW_THREADS"):
            mcharness.default_workers()
        monkeypatch.delenv("LSW_THREADS")
        assert mcharness.default_workers() >= 1


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestPoolSize:
    def test_capped_by_reps_and_cpus(self, monkeypatch):
        monkeypatch.setattr(mcharness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        model = fn_model()
        plan = spectral.make_plan(64, 32, 16)
        paths = mcharness.simulate_paths(model, [0.2, 0.1, 0.7, 0.1], 64, 3,
                                         seed=4)
        want, _ = mcharness._run_fits(paths, model, plan, "cosine", 1)
        for cpus, workers, size in ((8, 64, 3), (2, 64, 2), (8, 2, 2)):
            monkeypatch.setattr(mcharness.os, "cpu_count", lambda: cpus)
            got, _ = mcharness._run_fits(paths, model, plan, "cosine",
                                         workers)
            assert RecordingPool.sizes[-1] == size
            np.testing.assert_array_equal(got, want)
        # one usable CPU (or an unknown count) fits in-process, no pool
        monkeypatch.setattr(mcharness.os, "cpu_count", lambda: None)
        mcharness._run_fits(paths, model, plan, "cosine", 64)
        assert len(RecordingPool.sizes) == 3
