"""Simulation and analysis laboratory for one-dimensional dispersive
shallow-water (Serre/Green-Naghdi) dam-break flows.
"""
from .core import (ConfigError, Grid, SimConfig, Snapshot, State,
                   analytic_totals, apply_dirichlet, format_config,
                   initial_depth, parse_config_file, parse_config_text,
                   smoothed_dambreak_ic, take_snapshot)
from .diagnostics import (DiagnosticsRecord, bore_means, classify_structure,
                          conservation_error, diagnose, l1_difference,
                          leading_wave, oscillation_amplitude, totals)
from .reference import (RootBracketError, SwweSolution, WhithamPrediction,
                        solve_swwe_dambreak, swwe_profile, whitham_leading_wave)
from .solvers import SolverError, run_to, step

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "Grid", "SimConfig", "Snapshot", "State",
    "analytic_totals", "apply_dirichlet", "format_config", "initial_depth",
    "parse_config_file", "parse_config_text", "smoothed_dambreak_ic",
    "take_snapshot",
    "DiagnosticsRecord", "bore_means", "classify_structure",
    "conservation_error", "diagnose", "l1_difference", "leading_wave",
    "oscillation_amplitude", "totals",
    "RootBracketError", "SwweSolution", "WhithamPrediction",
    "solve_swwe_dambreak", "swwe_profile", "whitham_leading_wave",
    "SolverError", "run_to", "step",
]
