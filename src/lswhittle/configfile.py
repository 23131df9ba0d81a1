"""Plain-text key=value configuration grammar.

One `key = value` pair per line; blank lines and lines starting with '#'
are ignored.  Curve sections d.*, sigma.*, ar.*, ma.* describe the model
(basis, link, coefficients); mc.*, plan.*, grid.* carry run settings.
Unknown and duplicate keys are rejected so typos cannot silently change a
run.
"""
from __future__ import annotations

import math
import os

from .errors import ConfigError
from .tvmodel import BasisSpec, CurveSpec, ModelSpec, ParamVector

CURVE_NAMES = ("d", "sigma", "ar", "ma")
CURVE_FIELDS = ("basis", "degree", "freqs", "link", "coeffs", "intercept", "sign")
SETTING_KEYS = ("mc.reps", "mc.seed", "mc.T", "plan.N", "plan.S",
                "grid.N", "grid.S")


def known_keys() -> set:
    keys = {f"{c}.{f}" for c in CURVE_NAMES for f in CURVE_FIELDS}
    keys.update(SETTING_KEYS)
    return keys


def parse_config_text(text: str) -> dict:
    """Parse config text to an ordered {key: raw string value} mapping."""
    out = {}
    allowed = known_keys()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: dict) -> str:
    """Canonical text form; parse(dump(cfg)) == cfg."""
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


def _floats(value: str, key: str) -> tuple:
    """Comma-separated finite numbers: nan, inf and overflows are refused."""
    try:
        out = tuple(float(tok) for tok in value.split(",") if tok.strip())
        if all(map(math.isfinite, out)):
            return out
    except ValueError:
        pass
    raise ConfigError(f"{key}: expected comma-separated finite numbers, "
                      f"got {value!r}")


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _curve_from_config(cfg: dict, name: str, is_arma: bool):
    """(CurveSpec, coeffs) for one curve section, or None when absent."""
    present = any(f"{name}.{f}" in cfg for f in CURVE_FIELDS)
    if not present:
        return None
    key = f"{name}.coeffs"
    if key not in cfg:
        raise ConfigError(f"missing {key}")
    coeffs = _floats(cfg[key], key)
    kind = cfg.get(f"{name}.basis", "polynomial")
    link = cfg.get(f"{name}.link", "identity")
    intercept = _bool(cfg.get(f"{name}.intercept", "true"), f"{name}.intercept")
    sign = 1
    if f"{name}.sign" in cfg:
        if not is_arma:
            raise ConfigError(f"{name}.sign only applies to ar/ma curves")
        sign = _int(cfg[f"{name}.sign"], f"{name}.sign")
    try:
        if kind == "polynomial":
            if f"{name}.freqs" in cfg:
                raise ConfigError(f"{name}.freqs only applies to harmonic bases")
            if f"{name}.degree" in cfg:
                degree = _int(cfg[f"{name}.degree"], f"{name}.degree")
            else:
                degree = len(coeffs) - 1 if intercept else len(coeffs)
            basis = BasisSpec("polynomial", degree=degree, intercept=intercept)
        elif kind == "harmonic":
            if f"{name}.freqs" not in cfg:
                raise ConfigError(f"harmonic basis needs {name}.freqs")
            freqs = _floats(cfg[f"{name}.freqs"], f"{name}.freqs")
            basis = BasisSpec("harmonic", freqs=freqs, intercept=intercept)
        else:
            raise ConfigError(f"{name}.basis: unknown kind {kind!r}")
        spec = CurveSpec(basis=basis, link=link, sign=sign)
    except ValueError as exc:
        raise ConfigError(f"{name}.*: {exc}")
    if len(coeffs) != spec.size:
        raise ConfigError(
            f"{name}.coeffs has {len(coeffs)} values, basis needs {spec.size}"
        )
    return spec, coeffs


def build_model(cfg: dict):
    """(ModelSpec, ParamVector) from the curve sections of a config."""
    d = _curve_from_config(cfg, "d", is_arma=False)
    sigma = _curve_from_config(cfg, "sigma", is_arma=False)
    if d is None or sigma is None:
        raise ConfigError("config must define both d.* and sigma.* curves")
    ar = _curve_from_config(cfg, "ar", is_arma=True)
    ma = _curve_from_config(cfg, "ma", is_arma=True)
    try:
        model = ModelSpec(
            d=d[0], sigma=sigma[0],
            ar=(ar[0],) if ar else (),
            ma=(ma[0],) if ma else (),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    coeffs = d[1] + sigma[1] + (ar[1] if ar else ()) + (ma[1] if ma else ())
    return model, ParamVector(coeffs, model.param_names())


def require_int(cfg: dict, key: str) -> int:
    if key not in cfg:
        raise ConfigError(f"missing {key} (set it in the config or on the command line)")
    return _int(cfg[key], key)


def parse_range(value: str, key: str) -> list:
    """lo:hi:step (inclusive of hi when the step lands on it)."""
    parts = value.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"{key}: expected lo:hi:step, got {value!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ConfigError(f"{key}: expected integers in lo:hi:step, got {value!r}")
    if step < 1 or hi < lo:
        raise ConfigError(f"{key}: need lo <= hi and step >= 1")
    return list(range(lo, hi + 1, step))
