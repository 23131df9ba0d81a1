"""Config grammar: parsing, validation, model construction, ranges."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lswhittle import ConfigError, configfile

BASE = """\
# memory curve
d.coeffs = 0.15, 0.20

sigma.coeffs = 0.5, 0.3
ma.coeffs = 0.5
ma.sign = -1
mc.T = 512
mc.seed = 7
mc.reps = 4
plan.N = 104
plan.S = 34
"""


class TestParse:
    def test_parses_keys_skips_comments_and_blanks(self):
        cfg = configfile.parse_config_text(BASE)
        assert cfg["d.coeffs"] == "0.15, 0.20"
        assert cfg["mc.T"] == "512"
        assert "plan.N" in cfg and len(cfg) == 9

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            configfile.parse_config_text("d.coeffs = 0.1\nd.color = red\n")
        assert "line 2" in str(err.value) and "d.color" in str(err.value)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            configfile.parse_config_text("mc.T = 8\nmc.T = 9\n")
        assert "line 2" in str(err.value) and "duplicate" in str(err.value)

    def test_empty_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            configfile.parse_config_text("mc.T =\n")
        assert "line 1" in str(err.value)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as err:
            configfile.parse_config_text("plan\n")
        assert "line 1" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            configfile.load_config(tmp_path / "nope.cfg")
        assert "not found" in str(err.value)

    def test_dump_round_trip(self):
        cfg = configfile.parse_config_text(BASE)
        text = configfile.dump_config(cfg)
        assert configfile.parse_config_text(text) == cfg
        assert text == configfile.dump_config(configfile.parse_config_text(text))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(sorted(configfile.known_keys())),
        st.text(min_size=1).filter(
            lambda v: v == v.strip() and len(v.splitlines()) == 1)))
    def test_dump_round_trip_property(self, cfg):
        # any non-empty, stripped, one-line values over the known keys
        assert configfile.parse_config_text(configfile.dump_config(cfg)) == cfg


class TestBuildModel:
    def test_base_model_shape(self):
        model, params = configfile.build_model(configfile.parse_config_text(BASE))
        assert model.param_names() == ("alpha0", "alpha1", "beta0", "beta1",
                                       "theta1_0")
        assert model.ma[0].sign == -1
        assert model.d.basis.degree == 1  # inferred from two coefficients
        np.testing.assert_allclose(params.values, [0.15, 0.2, 0.5, 0.3, 0.5])

    def test_harmonic_curve(self):
        text = ("d.basis = harmonic\nd.freqs = 1.0, 2.0\n"
                "d.coeffs = 0.25, 0.05, -0.04\nsigma.coeffs = 0.8\n")
        model, params = configfile.build_model(configfile.parse_config_text(text))
        assert model.d.basis.kind == "harmonic"
        assert model.d.basis.freqs == (1.0, 2.0)
        assert model.sigma.basis.degree == 0

    def test_log_links_and_no_intercept(self):
        text = ("d.link = log\nd.coeffs = -2.0, 0.5\n"
                "sigma.coeffs = 1.0\n"
                "ar.intercept = false\nar.coeffs = 0.3\nar.sign = 1\n")
        model, _ = configfile.build_model(configfile.parse_config_text(text))
        assert model.d.link == "log"
        assert not model.ar[0].basis.intercept
        assert model.ar[0].basis.degree == 1  # one slope coefficient

    def test_explicit_degree_overrides_inference(self):
        text = "d.degree = 2\nd.coeffs = 0.2, 0.0, 0.0\nsigma.coeffs = 1.0\n"
        model, _ = configfile.build_model(configfile.parse_config_text(text))
        assert model.d.basis.degree == 2

    def test_coefficient_count_mismatch(self):
        text = "d.degree = 2\nd.coeffs = 0.2, 0.0\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError) as err:
            configfile.build_model(configfile.parse_config_text(text))
        assert "2 values" in str(err.value) and "needs 3" in str(err.value)

    def test_missing_required_curves(self):
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text("d.coeffs = 0.2\n"))
        with pytest.raises(ConfigError):
            configfile.build_model({})

    def test_missing_coeffs_in_present_section(self):
        text = "d.coeffs = 0.2\nsigma.link = log\n"
        with pytest.raises(ConfigError) as err:
            configfile.build_model(configfile.parse_config_text(text))
        assert "sigma.coeffs" in str(err.value)

    def test_sign_only_on_arma(self):
        text = "d.coeffs = 0.2\nd.sign = -1\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(text))

    def test_freqs_only_on_harmonic(self):
        text = "d.coeffs = 0.2\nd.freqs = 1.0\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(text))

    def test_harmonic_needs_freqs(self):
        text = "d.basis = harmonic\nd.coeffs = 0.2\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(text))

    def test_unknown_basis_and_link(self):
        bad_basis = "d.basis = spline\nd.coeffs = 0.2\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(bad_basis))
        bad_link = "d.link = logit\nd.coeffs = 0.2\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(bad_link))

    def test_non_numeric_coeffs(self):
        text = "d.coeffs = 0.2, x\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError):
            configfile.build_model(configfile.parse_config_text(text))


    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_numbers_name_their_key(self, token):
        text = f"d.coeffs = 0.2, {token}\nsigma.coeffs = 1.0\n"
        with pytest.raises(ConfigError, match="^d.coeffs: expected "
                           "comma-separated finite numbers"):
            configfile.build_model(configfile.parse_config_text(text))


class TestSettings:
    def test_require_int_override_wins(self):
        cfg = configfile.parse_config_text(BASE)
        assert configfile.require_int(cfg, "mc.T") == 512
        with pytest.raises(ConfigError) as err:
            configfile.require_int(cfg, "grid.N")
        assert "grid.N" in str(err.value)

    def test_require_int_rejects_garbage(self):
        with pytest.raises(ConfigError):
            configfile.require_int({"mc.T": "twelve"}, "mc.T")


class TestParseRange:
    def test_full_form(self):
        assert configfile.parse_range("85:135:10", "grid.N") == \
            [85, 95, 105, 115, 125, 135]

    def test_default_step(self):
        assert configfile.parse_range("3:6", "grid.S") == [3, 4, 5, 6]

    def test_step_overshoot_keeps_inside(self):
        assert configfile.parse_range("1:10:4", "grid.N") == [1, 5, 9]

    def test_rejects_malformed(self):
        for bad in ("5", "1:2:3:4", "a:b", "10:5", "1:9:0"):
            with pytest.raises(ConfigError):
                configfile.parse_range(bad, "grid.N")
