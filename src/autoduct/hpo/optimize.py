"""Search orchestration: quasi-random warmup, surrogate-guided
proposals, multi-run merging, and top-k selection.

One run is one loop over trials i: the i-th quasi-random configuration
while i < n_sobol, else the proposal of a surrogate fitted to trials
0..i-1. A finished trial is encoded once, into row i of the run's input
array, beside its RMSE (NaN if diverged). A diverged trial's objective
is twice the worst successful RMSE so far (1e6 while none has
succeeded), recomputed at every fit, so the surrogate learns to avoid
the region without handling infinities.

Several independent runs use distinct scramble seeds and are merged into
one leaderboard; the best k configurations across all runs seed the
final ensemble.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .. import evaluation, neural_net
from ..dataset import Normalizer, SplitDataset
from ..errors import DivergedLoss, InsufficientTrials, IoFailure
from ..rng import derive_seed
from .gp import fit_gp, propose_next
from .sobol import sample_sobol
from .space import ENCODED_DIM, TrialConfig, encode

# objective assigned to a diverged trial when no trial has succeeded yet
_FALLBACK_PENALTY = 1e6
_PENALTY_FACTOR = 2.0

Evaluator = Callable[[TrialConfig], "TrialResult"]


@dataclass(frozen=True)
class TrialResult:
    config: TrialConfig
    rmse: float | None          # physical units; None when diverged
    status: str                 # "ok" | "diverged"
    wall_time_s: float = field(compare=False, default=0.0)

    def __post_init__(self):
        if self.status not in ("ok", "diverged"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "ok":
            if self.rmse is None or not math.isfinite(self.rmse) or self.rmse < 0:
                raise ValueError(f"ok trial needs a finite non-negative RMSE, got {self.rmse}")

    def sort_key(self) -> tuple:
        rmse = self.rmse if self.status == "ok" else math.inf
        return (rmse, self.config.run_id, self.config.trial_id)

    def to_dict(self) -> dict:
        return {"run_id": self.config.run_id, "trial_id": self.config.trial_id,
                "origin": self.config.origin, "config": self.config.to_dict(),
                "objective": self.rmse, "status": self.status,
                "wall_time_s": self.wall_time_s}


@dataclass(frozen=True)
class Leaderboard:
    results: tuple[TrialResult, ...]

    def ok_results(self) -> list[TrialResult]:
        return [r for r in self.results if r.status == "ok"]

    def best(self) -> TrialResult:
        ok = self.ok_results()
        if not ok:
            raise InsufficientTrials("no successful trials on the board")
        return min(ok, key=TrialResult.sort_key)


def _objective_for_gp(rmse: np.ndarray) -> np.ndarray:
    """Objectives for the surrogate: `rmse` with each NaN (a diverged
    trial) replaced by the divergence penalty of these trials."""
    ok = ~np.isnan(rmse)
    penalty = _PENALTY_FACTOR * rmse[ok].max() if ok.any() else _FALLBACK_PENALTY
    return np.where(ok, rmse, penalty)


def _append_log(log_path: Path | None, result: TrialResult) -> None:
    if log_path is None:
        return
    try:
        with log_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot append to trial log {log_path}: {exc}") from exc


def run_bo(n_sobol: int, n_bo: int, evaluator: Evaluator, seed: int, run_id: int = 0,
           log_path: str | Path | None = None) -> Leaderboard:
    """One optimization run; trials are numbered 0..n_sobol+n_bo-1 in
    evaluation order."""
    if n_sobol < 2:
        raise ValueError("need at least two warmup points to fit the surrogate")
    if n_bo < 0:
        raise ValueError("surrogate-stage budget must be non-negative")
    log_path = Path(log_path) if log_path is not None else None

    warmup = sample_sobol(n_sobol, shift_seed=derive_seed(seed, "sobol-init"))
    x = np.empty((n_sobol + n_bo, ENCODED_DIM))
    rmse = np.empty(n_sobol + n_bo)
    results: list[TrialResult] = []
    for i in range(n_sobol + n_bo):
        if i < n_sobol:
            cfg = warmup[i]
        else:
            gp = fit_gp(x[:i], _objective_for_gp(rmse[:i]))
            cfg = propose_next(gp, seed=derive_seed(seed, f"propose:{i - n_sobol}"))
        cfg = replace(cfg, trial_id=i, run_id=run_id)
        result = replace(evaluator(cfg), config=cfg)
        results.append(result)
        _append_log(log_path, result)
        x[i] = encode(cfg)
        rmse[i] = result.rmse if result.status == "ok" else np.nan
    return Leaderboard(tuple(results))


def run_parallel_bo(evaluator: Evaluator, n_sobol: int, n_bo: int, seeds: list[int],
                    log_path: str | Path | None = None) -> Leaderboard:
    """One independent run per seed, merged into one board. Run i has
    run id i and seed seeds[i]; seeds must be pairwise distinct so the
    runs explore differently."""
    if not seeds:
        raise ValueError("need at least one run")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"run seeds must be pairwise distinct, got {seeds}")

    return Leaderboard(tuple(
        result for run_id, seed in enumerate(seeds)
        for result in run_bo(n_sobol, n_bo, evaluator, seed=seed,
                             run_id=run_id, log_path=log_path).results))


def select_top_k(board: Leaderboard, k: int) -> list[TrialConfig]:
    """The k configurations with the lowest validation RMSE; ties keep
    board order (run id, then trial id)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ok = sorted(board.ok_results(), key=TrialResult.sort_key)
    if len(ok) < k:
        raise InsufficientTrials(f"need {k} successful trials, board has {len(ok)}")
    return [r.config for r in ok[:k]]


def trial_to_configs(tc: TrialConfig, input_dim: int, epochs: int, patience: int,
                     seed: int) -> tuple[neural_net.MLPConfig, neural_net.TrainConfig]:
    mlp = neural_net.MLPConfig(input_dim=input_dim, hidden_layers=tc.hidden_layers,
                               hidden_units=tc.hidden_units, activation=tc.activation,
                               dropout_rate=tc.dropout_rate)
    train = neural_net.TrainConfig(learning_rate=tc.learning_rate,
                                   weight_decay=tc.weight_decay,
                                   batch_size=tc.batch_size, epochs=epochs,
                                   seed=seed, patience=patience)
    return mlp, train


def make_trial_evaluator(splits: SplitDataset, normalizer: Normalizer,
                         epochs: int, patience: int, base_seed: int) -> Evaluator:
    """Evaluator that trains one network per configuration and scores it
    by validation RMSE in physical units.

    Total by construction: training divergence becomes a diverged-status
    result instead of an exception. The per-trial seed is derived from
    (base_seed, run id, trial id) so re-running a board is reproducible.
    """
    val_x = splits.validation.features
    val_y = splits.validation.targets

    def evaluate(tc: TrialConfig) -> TrialResult:
        started = time.perf_counter()
        seed = derive_seed(base_seed, f"trial:{tc.run_id}:{tc.trial_id}")
        mlp_cfg, train_cfg = trial_to_configs(tc, input_dim=val_x.shape[1],
                                              epochs=epochs, patience=patience,
                                              seed=seed)
        try:
            params, _ = neural_net.train(splits, normalizer, mlp_cfg, train_cfg)
        except DivergedLoss:
            return TrialResult(tc, None, "diverged",
                               time.perf_counter() - started)
        mu, _ = neural_net.predict_batch(params, mlp_cfg, normalizer, val_x)
        return TrialResult(tc, evaluation.rmse(val_y, mu), "ok",
                           time.perf_counter() - started)

    return evaluate
