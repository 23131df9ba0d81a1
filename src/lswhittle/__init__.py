"""Exact simulation and blockwise Whittle inference for locally
stationary Gaussian long-memory processes."""

from .asymptotics import (GammaMatrix, SEReport, asymptotic_se,
                          average_variance_check, catalog_model,
                          dhat_variance_profile, gamma_closed, gamma_d_block,
                          gamma_exact, gamma_quadrature, gram_closed,
                          gram_quadrature, lambda_mesh, write_gamma_csv)
from .configfile import (build_model, dump_config, known_keys, load_config,
                         parse_config_text, parse_range)
from .errors import (ConfigError, InfeasibleParameterError, LswhittleError,
                     NotPositiveDefiniteError, PlanError)
from .mcharness import (MCConfig, MCTable, MSEGrid, default_workers,
                        mc_table_csv, mse_grid, mse_grid_csv, nearest_plan,
                        run_mc, simulate_paths, total_mse, valid_cells)
from .simulator import (CovKernel, InnovationsState, SimConfig, covariance,
                        innovations_decompose, make_kernel, paths_from_state,
                        read_series_csv, rng_for, simulate_path,
                        write_series_csv)
from .spectral import (BlockPlan, LocalPeriodogram, Taper, local_periodogram,
                       make_plan, nearest_valid_plan, taper_weights,
                       write_periodogram_csv)
from .tvmodel import (BasisSpec, ConstraintReport, CurveSpec, ModelSpec,
                      ParamVector, curve_values, log_spectral_gradient_grid,
                      require_feasible, spectral_density, validate_params)
from .whittle import (FitResult, WhittleObjective, estimate, fit_summary,
                      starting_point, write_fit_csv)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "BlockPlan", "ConfigError", "ConstraintReport", "CovKernel",
    "CurveSpec", "FitResult", "GammaMatrix", "InfeasibleParameterError",
    "InnovationsState", "LocalPeriodogram", "LswhittleError", "MCConfig",
    "MCTable", "MSEGrid", "ModelSpec", "NotPositiveDefiniteError",
    "ParamVector", "PlanError", "SEReport", "SimConfig", "Taper",
    "WhittleObjective", "asymptotic_se", "average_variance_check",
    "build_model", "catalog_model", "covariance", "curve_values",
    "default_workers", "dhat_variance_profile", "dump_config", "estimate",
    "fit_summary", "gamma_closed", "gamma_d_block", "gamma_exact",
    "gamma_quadrature", "gram_closed", "gram_quadrature",
    "innovations_decompose", "known_keys", "lambda_mesh", "load_config",
    "local_periodogram", "log_spectral_gradient_grid", "make_kernel",
    "make_plan", "mc_table_csv", "mse_grid", "mse_grid_csv", "nearest_plan",
    "nearest_valid_plan", "parse_config_text", "parse_range",
    "paths_from_state", "read_series_csv", "require_feasible", "rng_for",
    "run_mc", "simulate_path", "simulate_paths", "spectral_density",
    "starting_point", "taper_weights", "total_mse", "valid_cells",
    "validate_params", "write_fit_csv", "write_gamma_csv",
    "write_periodogram_csv", "write_series_csv",
]
