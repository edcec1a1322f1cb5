"""Bayesian optimization over the network hyperparameter space."""

from .space import SearchSpace, TrialConfig, decode, default_space, encode
from .sobol import sample_sobol, sobol_points
from .gp import GPSurrogate, fit_gp, incumbent_value, propose_next
from .optimize import (
    Leaderboard,
    TrialResult,
    make_trial_evaluator,
    run_bo,
    run_parallel_bo,
    select_top_k,
)

__all__ = [
    "SearchSpace", "TrialConfig", "decode", "default_space", "encode",
    "sample_sobol", "sobol_points", "GPSurrogate", "fit_gp",
    "incumbent_value", "propose_next",
    "Leaderboard", "TrialResult", "make_trial_evaluator", "run_bo",
    "run_parallel_bo", "select_top_k",
]
