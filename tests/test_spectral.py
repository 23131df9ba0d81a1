"""Tests for block plans, tapers, and the local periodogram."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lswhittle import errors, simulator, spectral, tvmodel

from oracles import naive_periodogram


class TestBlockPlan:
    def test_standard_plan(self):
        # (T-N)/S + 1 = (652-256)/4 + 1 = 100 blocks.
        plan = spectral.make_plan(652, 256, 4)
        assert plan.M == 100
        first = plan.block_slice(0)
        last = plan.block_slice(99)
        assert (first.start, first.stop) == (0, 256)
        assert (last.start, last.stop) == (396, 652)  # covers final point

    def test_single_block_when_n_equals_t(self):
        plan = spectral.make_plan(128, 128, 7)
        assert plan.M == 1
        assert plan.block_slice(0) == slice(0, 128)

    def test_midpoints_increasing_in_unit_interval(self):
        plan = spectral.make_plan(512, 104, 34)
        u = plan.u
        assert np.all(np.diff(u) > 0)
        assert 0.0 < u[0] < u[-1] < 1.0
        # u_j = (jS + floor(N/2)) / T.
        j = np.arange(plan.M)
        np.testing.assert_allclose(u, (34 * j + 52) / 512, rtol=0, atol=0)

    def test_indivisible_raises_with_suggestion(self):
        with pytest.raises(errors.PlanError) as err:
            spectral.make_plan(512, 105, 35)
        assert "N=104" in str(err.value) and "S=34" in str(err.value)

    def test_rejects_bad_sizes(self):
        with pytest.raises(errors.PlanError):
            spectral.make_plan(100, 101, 1)  # N > T
        with pytest.raises(errors.PlanError):
            spectral.make_plan(100, 1, 1)  # N too short
        with pytest.raises(errors.PlanError):
            spectral.make_plan(100, 50, 0)  # S < 1


class TestNearestValidPlan:
    def test_valid_plan_is_fixed_point(self):
        assert spectral.nearest_valid_plan(652, 256, 4) == (256, 4)

    def test_frozen_examples(self):
        # by brute-force minimization of |dN| + |dS|.
        assert spectral.nearest_valid_plan(512, 105, 35) == (104, 34)
        assert spectral.nearest_valid_plan(1024, 200, 45) == (196, 46)

    def test_s_equal_one_fallback(self):
        # S' = 1 accepts any N, so the search always terminates.
        n2, s2 = spectral.nearest_valid_plan(101, 100, 100)
        assert (101 - n2) % s2 == 0

    def test_matches_brute_force(self):
        for T, N, S in [(300, 77, 13), (512, 105, 35), (97, 40, 9)]:
            got = spectral.nearest_valid_plan(T, N, S)
            best = min(
                ((n2, s2) for n2 in range(2, T + 1)
                 for s2 in range(1, 2 * S + T) if (T - n2) % s2 == 0),
                key=lambda c: (abs(c[0] - N) + abs(c[1] - S), c[0], c[1]),
            )
            assert got == best

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_is_brute_force_argmin(self, data):
        T = data.draw(st.integers(2, 200), label="T")
        N = data.draw(st.integers(2, T), label="N")
        S = data.draw(st.integers(1, 2 * T), label="S")
        # (T, S) is valid at distance |T - N|, so no optimum has S' > S + T
        n2 = np.arange(2, T + 1)[:, None]
        s2 = np.arange(1, S + T + 1)[None, :]
        cost = np.where((T - n2) % s2 == 0,
                        np.abs(n2 - N) + np.abs(s2 - S), np.iinfo(np.int64).max)
        # the first row-major minimum has the smallest N', then the smallest S'
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        assert spectral.nearest_valid_plan(T, N, S) == (n2[i, 0], s2[0, j])


class TestTaper:
    def test_cosine_endpoints_and_peak(self):
        t = spectral.taper_weights("cosine", 64)
        assert t.weights[0] == 0.0
        assert t.weights[32] == pytest.approx(1.0, abs=1e-15)
        assert np.all(t.weights >= 0.0)

    def test_cosine_power_sum(self):
        # sum of sin^4(pi s/N) over a full period is exactly 3N/8
        # for N >= 3 (the oscillatory terms cancel over whole cycles).
        for n in (3, 8, 64, 105, 256):
            t = spectral.taper_weights("cosine", n)
            assert t.h2 == pytest.approx(3.0 * n / 8.0, rel=1e-13)

    def test_cosine_symmetry(self):
        # h[s] mirrors h[N-s] for s = 1..N-1; h[0] = 0 stands alone.
        for n in (8, 15, 106):
            h = spectral.taper_weights("cosine", n).weights
            s = np.arange(1, n)
            np.testing.assert_allclose(h[s], h[n - s], rtol=0, atol=1e-12)

    def test_uniform(self):
        t = spectral.taper_weights("uniform", 17)
        assert np.all(t.weights == 1.0)
        assert t.h1 == 17.0 and t.h2 == 17.0

    def test_unknown_kind(self):
        for kind in ("hamming", "cosine_bell"):
            with pytest.raises(ValueError):
                spectral.taper_weights(kind, 16)


def lsfn_model():
    poly1 = tvmodel.BasisSpec("polynomial", 1)
    return tvmodel.ModelSpec(d=tvmodel.CurveSpec(poly1),
                             sigma=tvmodel.CurveSpec(poly1))


class TestLocalPeriodogram:
    def test_zero_data_gives_zero_ordinates(self):
        plan = spectral.make_plan(64, 32, 16)
        taper = spectral.taper_weights("cosine", 32)
        pg = spectral.local_periodogram(np.zeros(64), plan, taper)
        assert pg.ordinates.shape == (3, 16)
        assert np.all(pg.ordinates == 0.0)

    def test_pure_cosine_concentrates_at_its_frequency(self):
        # For y_s = cos(2 pi k0 s / N) with a uniform taper the
        # transform at lam_{k0} is N/2, so the ordinate is
        # (N/2)^2 / (2 pi N) = N / (8 pi); every other ordinate vanishes.
        n, k0 = 64, 8
        plan = spectral.make_plan(n, n, 1)
        taper = spectral.taper_weights("uniform", n)
        y = np.cos(2.0 * np.pi * k0 * np.arange(n) / n)
        pg = spectral.local_periodogram(y, plan, taper)
        assert pg.ordinates[0, k0 - 1] == pytest.approx(n / (8.0 * np.pi),
                                                        rel=1e-12)
        rest = np.delete(pg.ordinates[0], k0 - 1)
        assert np.max(np.abs(rest)) < 1e-12

    def test_frequencies_exclude_zero(self):
        for n in (9, 10):
            plan = spectral.make_plan(n, n, 1)
            taper = spectral.taper_weights("cosine", n)
            pg = spectral.local_periodogram(np.ones(n), plan, taper)
            assert pg.freqs[0] == pytest.approx(2.0 * np.pi / n)
            assert len(pg.freqs) == n // 2
            assert pg.freqs[-1] <= np.pi + 1e-15

    @pytest.mark.parametrize("n", [8, 12, 105, 106, 256])
    def test_matches_direct_transform(self, n):
        # FFT path against the O(N^2) definition, odd and even N alike.
        rng = np.random.default_rng(n)
        s, m = max(1, n // 3), 3
        t = s * (m - 1) + n
        data = rng.standard_normal(t)
        plan = spectral.make_plan(t, n, s)
        taper = spectral.taper_weights("cosine", n)
        pg = spectral.local_periodogram(data, plan, taper)
        ks = [0, len(pg.freqs) // 2, len(pg.freqs) - 1]
        for j in (0, m - 1):
            block = data[plan.block_slice(j)]
            want = naive_periodogram(block, taper.weights, pg.freqs[ks])
            np.testing.assert_allclose(pg.ordinates[j, ks], want, rtol=1e-10)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(96)
        plan = spectral.make_plan(96, 32, 32)
        taper = spectral.taper_weights("cosine", 32)
        base = spectral.local_periodogram(data, plan, taper).ordinates
        scaled = spectral.local_periodogram(3.0 * data, plan, taper).ordinates
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_rejects_length_mismatch(self):
        plan = spectral.make_plan(64, 32, 16)
        taper = spectral.taper_weights("cosine", 32)
        with pytest.raises(ValueError):
            spectral.local_periodogram(np.zeros(63), plan, taper)
        with pytest.raises(ValueError):
            spectral.local_periodogram(np.zeros((8, 8)), plan, taper)

    def test_rejects_taper_length_mismatch(self):
        plan = spectral.make_plan(64, 32, 16)
        taper = spectral.taper_weights("cosine", 16)
        with pytest.raises(ValueError):
            spectral.local_periodogram(np.zeros(64), plan, taper)

    def test_low_frequency_slope_recovers_memory(self):
        # Block- and replication-averaged ordinates of a constant-d process
        # follow log I ~ -2d log(2 sin lam/2) at low frequencies.
        model = lsfn_model()
        theta = np.array([0.3, 0.0, 1.0, 0.0])
        kernel = simulator.make_kernel(model, theta, 2048)
        state = simulator.innovations_decompose(kernel)
        paths = simulator.paths_from_state(state, seed=99, replications=50)
        plan = spectral.make_plan(2048, 256, 128)
        taper = spectral.taper_weights("cosine", 256)
        mean_ord = np.zeros(256 // 2)
        for row in paths:
            pg = spectral.local_periodogram(row, plan, taper)
            mean_ord += pg.ordinates.mean(axis=0) / len(paths)
        k = slice(1, 32)  # skip k=1 (taper leakage), stay below N/8
        x = np.log(2.0 * np.sin(pg.freqs[k] / 2.0))
        slope = np.polyfit(x, np.log(mean_ord[k]), 1)[0]
        assert slope == pytest.approx(-0.6, abs=0.1)


class TestPeriodogramCsv:
    def test_round_trip_layout(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.standard_normal(40)
        plan = spectral.make_plan(40, 10, 15)
        taper = spectral.taper_weights("cosine", 10)
        pg = spectral.local_periodogram(data, plan, taper)
        path = tmp_path / "pg.csv"
        spectral.write_periodogram_csv(pg, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "block,u,freq,ordinate"
        assert len(lines) == 1 + plan.M * len(pg.freqs)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(plan.u[0])
        assert float(first[2]) == pytest.approx(pg.freqs[0])
        assert float(first[3]) == pytest.approx(pg.ordinates[0, 0])
