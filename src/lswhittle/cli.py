"""Command-line front end: simulate / estimate / mc / grid / gamma.

Exit codes: 0 success, 2 configuration, usage or file errors and arrays too
large to allocate, 3 infeasible parameters or non-positive-definite
matrices, 4 invalid block plans or empty grids (each error class's
``exit_code``), 143 on SIGTERM.
"""
from __future__ import annotations

import argparse
import signal
import sys

import numpy as np

from . import asymptotics, configfile, mcharness, simulator, spectral, whittle
from .asymptotics import CATALOG_IDS
from .errors import (ConfigError, InfeasibleParameterError, LswhittleError,
                     NotPositiveDefiniteError, PlanError)

# run-setting flag -> (config key it overrides, help text)
SETTING_FLAGS = {
    "t": ("mc.T", "series length"),
    "seed": ("mc.seed", "base seed"),
    "reps": ("mc.reps", "replications"),
    "n": ("plan.N", "block length"),
    "s": ("plan.S", "block shift"),
}


def _add_common(sub, *settings):
    sub.add_argument("--config", help="key=value model/run configuration file")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--dump-config",
                     help="write the effective configuration to this path")
    for flag in settings:
        key, what = SETTING_FLAGS[flag]
        sub.add_argument(f"--{flag}", type=int, help=f"{what} (overrides {key})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lswhittle",
        description="Simulation and blockwise Whittle inference for "
                    "locally stationary long-memory processes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="write one exact simulated path")
    _add_common(p, "t", "seed")
    p.add_argument("--rep", type=int, default=0, help="replication index")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("estimate", help="fit the model to a series CSV")
    _add_common(p, "n", "s")
    p.add_argument("--data", required=True, help="input series CSV (t,value)")
    p.add_argument("--taper", choices=("cosine", "uniform"), default="cosine")
    p.add_argument("--auto-plan", action="store_true",
                   help="substitute the nearest valid plan when (N,S) is invalid")
    p.add_argument("--dump-periodogram", help="write block,u,freq,ordinate CSV")
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("mc", help="Monte Carlo replication table")
    _add_common(p, "t", "seed", "reps", "n", "s")
    p.add_argument("--taper", choices=("cosine", "uniform"), default="cosine")
    p.add_argument("--threads", type=int, help="worker processes "
                   "(default: LSW_THREADS or the CPU count)")
    p.add_argument("--example", choices=CATALOG_IDS,
                   help="catalog id for closed-form theoretical SDs")
    p.set_defaults(func=cmd_mc)

    p = subs.add_parser("grid", help="empirical MSE over an (N, S) grid")
    _add_common(p, "t", "seed", "reps")
    p.add_argument("--taper", choices=("cosine", "uniform"), default="cosine")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_grid)

    p = subs.add_parser("gamma", help="Fisher matrix and standard errors")
    _add_common(p)
    p.add_argument("--example", choices=CATALOG_IDS,
                   help="closed-form catalog family")
    p.add_argument("--theta", help="comma-separated parameter values")
    p.add_argument("--t", type=int, help="sample size for the SD column")
    p.add_argument("--method", choices=("closed", "quadrature", "both"),
                   help="default: closed for --example, quadrature for --config")
    p.set_defaults(func=cmd_gamma)
    return parser


def _load(args) -> dict:
    """The config file's mapping with the run-setting flags merged in."""
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = configfile.load_config(args.config)
    for flag, (key, _) in SETTING_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = str(value)
    return cfg


def _dump_effective(args, cfg: dict) -> None:
    if args.dump_config:
        with open(args.dump_config, "w") as fh:
            fh.write(configfile.dump_config(cfg))


def _workers(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    return mcharness.default_workers()


def cmd_simulate(args) -> int:
    if not args.out:
        raise ConfigError("--out is required for simulate")
    cfg = _load(args)
    model, theta = configfile.build_model(cfg)
    t = configfile.require_int(cfg, "mc.T")
    seed = configfile.require_int(cfg, "mc.seed")
    _dump_effective(args, cfg)
    y = simulator.simulate_path(model, theta,
                                simulator.SimConfig(T=t, seed=seed,
                                                    replication=args.rep))
    simulator.write_series_csv(y, args.out)
    print(f"wrote {t} observations to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load(args)
    model, _ = configfile.build_model(cfg)
    data = simulator.read_series_csv(args.data)
    t = len(data)
    n = configfile.require_int(cfg, "plan.N")
    s = configfile.require_int(cfg, "plan.S")
    try:
        plan = spectral.make_plan(t, n, s)
    except PlanError:
        if not args.auto_plan:
            raise
        plan = mcharness.nearest_plan(t, n, s)
        print(f"note: using nearest valid plan N={plan.N}, S={plan.S}",
              file=sys.stderr)
        cfg.update({"plan.N": str(plan.N), "plan.S": str(plan.S)})
    _dump_effective(args, cfg)
    taper = spectral.taper_weights(args.taper, plan.N)
    if args.dump_periodogram:
        pg = spectral.local_periodogram(data, plan, taper)
        spectral.write_periodogram_csv(pg, args.dump_periodogram)
    fit = whittle.estimate(data, model, plan, taper)
    try:
        gamma = asymptotics.gamma_exact(model, fit.theta)
        sd = asymptotics.asymptotic_se(gamma, t).sd
    except (InfeasibleParameterError, NotPositiveDefiniteError) as exc:
        print(f"note: asymptotic SDs unavailable ({exc})", file=sys.stderr)
        sd = np.full(model.n_params, np.nan)
    print(whittle.fit_summary(fit))
    print("param          estimate        asymptotic_sd")
    for name, est, s_ in zip(fit.theta.names, fit.theta.values, sd):
        print(f"{name:<12} {est:>14.6g} {s_:>14.6g}")
    if args.out:
        whittle.write_fit_csv(fit, args.out)
    return 0


def cmd_mc(args) -> int:
    cfg = _load(args)
    model, theta = configfile.build_model(cfg)
    t = configfile.require_int(cfg, "mc.T")
    seed = configfile.require_int(cfg, "mc.seed")
    reps = configfile.require_int(cfg, "mc.reps")
    n = configfile.require_int(cfg, "plan.N")
    s = configfile.require_int(cfg, "plan.S")
    _dump_effective(args, cfg)
    config = mcharness.MCConfig(
        model=model, theta=theta.values, T=t, plan=spectral.make_plan(t, n, s),
        reps=reps, seed=seed, workers=_workers(args), taper=args.taper,
        family=args.example or "",
    )
    table = mcharness.run_mc(config)
    csv = mcharness.mc_table_csv(table)
    print(csv, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    return 0


def cmd_grid(args) -> int:
    cfg = _load(args)
    model, theta = configfile.build_model(cfg)
    t = configfile.require_int(cfg, "mc.T")
    seed = configfile.require_int(cfg, "mc.seed")
    reps = configfile.require_int(cfg, "mc.reps")
    if "grid.N" not in cfg or "grid.S" not in cfg:
        raise ConfigError("grid needs grid.N and grid.S ranges (lo:hi:step)")
    n_values = configfile.parse_range(cfg["grid.N"], "grid.N")
    s_values = configfile.parse_range(cfg["grid.S"], "grid.S")
    _dump_effective(args, cfg)
    grid = mcharness.mse_grid(model, theta.values, t, n_values, s_values,
                              reps, seed, workers=_workers(args),
                              taper=args.taper)
    csv = mcharness.mse_grid_csv(grid)
    print(csv, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    return 0


def _print_gamma(gamma, label: str) -> None:
    print(f"{label} Fisher matrix ({', '.join(gamma.names)}):")
    for row in gamma.matrix:
        print("  " + " ".join(f"{v:>12.6g}" for v in row))


def cmd_gamma(args) -> int:
    if not args.example and not args.config:
        raise ConfigError("gamma needs --example or --config")
    method = args.method or ("closed" if args.example else "quadrature")
    if args.config:
        model, params = configfile.build_model(
            configfile.load_config(args.config))
    if args.theta:
        theta = configfile._floats(args.theta, "--theta")
    elif args.config:
        theta = params.values
    else:
        raise ConfigError("gamma needs --theta (or a config with coefficients)")
    if args.example:
        model = asymptotics.catalog_model(args.example)

    results = []
    if method in ("closed", "both"):
        results.append(asymptotics.gamma_closed(args.example, theta)
                       if args.example else asymptotics.gamma_exact(model, theta))
    if method in ("quadrature", "both"):
        results.append(asymptotics.gamma_quadrature(model, theta))

    for gamma in results:
        _print_gamma(gamma, gamma.provenance)
        if args.t is not None:
            se = asymptotics.asymptotic_se(gamma, args.t)
            print(f"asymptotic SD at T={args.t}:")
            for name, sd in zip(se.names, se.sd):
                print(f"  {name:<12} {sd:.6g}")
    if args.out and results:
        asymptotics.write_gamma_csv(results[0], args.out)
    return 0


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds the command, so a process pool shuts down with it
    sys.exit(128 + signal.SIGTERM)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return args.func(args)
    except (LswhittleError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
