"""Deep-ensemble CHF regression with uncertainty quantification,
Bayesian hyperparameter search, and agent-driven pipeline orchestration."""

from .dataset import (Dataset, Normalizer, SliceSpec, SplitDataset,
                      fit_normalizer, generate_synthetic, load_csv, split)
from .ensemble import (Ensemble, EnsemblePrediction, interval, load_ensemble,
                       save_ensemble, train_ensemble)
from .errors import AutoductError
from .evaluation import (aggregate_trials, evaluate_model, evaluate_slices,
                         mape, rmse, rmspe)
from .hpo import (SearchSpace, TrialConfig, default_space, run_bo,
                  run_parallel_bo, select_top_k)
from .neural_net import ActivationKind, MLPConfig, TrainConfig, train
from .report_export import export_report

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Normalizer", "SliceSpec", "SplitDataset", "fit_normalizer",
    "generate_synthetic", "load_csv", "split", "Ensemble",
    "EnsemblePrediction", "interval", "load_ensemble",
    "save_ensemble", "train_ensemble", "AutoductError", "aggregate_trials",
    "evaluate_model", "evaluate_slices", "mape", "rmse", "rmspe",
    "SearchSpace", "TrialConfig", "default_space", "run_bo",
    "run_parallel_bo", "select_top_k", "ActivationKind", "MLPConfig",
    "TrainConfig", "train", "export_report", "__version__",
]
