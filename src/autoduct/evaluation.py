"""Error metrics, ratio analysis, slice predictions, and multi-run
statistics.

Metric definitions (targets y, predicted means yhat, n points):

    RMSE  = sqrt( (1/n) sum (y - yhat)^2 )          [kW/m^2]
    MAPE  = (100/n) sum |(y - yhat) / y|            [%]
    RMSPE = 100 sqrt( (1/n) sum ((y - yhat)/y)^2 )  [%]

Percentage metrics are undefined at y = 0 and raise ZeroTarget naming
the offending index; conforming data cannot trigger this (the target
envelope starts at 50). Ratio analysis reports yhat/y with the inside
fraction taken over the closed interval [0.5, 2.0].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, SliceSpec, build_slice_grid
from .ensemble import Ensemble, EnsemblePrediction, interval
from .errors import EmptyInput, LengthMismatch, ZeroTarget

# default band level: the probability mass of mean +/- 2 sigma
TWO_SIGMA_LEVEL = 0.9544997361036416

RATIO_INSIDE_BOUNDS = (0.5, 2.0)

# The one table of metric columns, in the order metrics.csv and
# metrics.json hold them: MetricsReport field -> column name. A task
# document selects among POINT_METRICS by field name; the ratio columns
# are always reported.
METRIC_COLUMNS = {"rmse": "rmse_kw_m2", "mape": "mape_pct", "rmspe": "rmspe_pct",
                  "ratio_mean": "ratio_mean", "ratio_std": "ratio_std",
                  "ratio_inside_frac": "ratio_inside_frac"}
POINT_METRICS = ("rmse", "mape", "rmspe")


@dataclass(frozen=True)
class MetricsReport:
    split_label: str
    n: int
    rmse: float
    mape: float
    rmspe: float
    ratio_mean: float
    ratio_std: float
    ratio_inside_frac: float

    def to_dict(self) -> dict:
        return {"split": self.split_label, "n": self.n,
                **{column: getattr(self, field) for field, column in METRIC_COLUMNS.items()}}


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise LengthMismatch(f"targets {y.shape} vs predictions {yhat.shape}")
    if y.size == 0:
        raise EmptyInput("metrics need at least one point")
    return y, yhat


def rmse(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def _relative_residuals(y: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    zero = np.nonzero(y == 0.0)[0]
    if zero.size:
        raise ZeroTarget(int(zero[0]))
    return (y - yhat) / y


def mape(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(100.0 * np.mean(np.abs(_relative_residuals(y, yhat))))


def rmspe(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(100.0 * np.sqrt(np.mean(_relative_residuals(y, yhat) ** 2)))


@dataclass(frozen=True)
class RatioAnalysis:
    ratios: np.ndarray
    mean: float
    std: float
    inside_frac: float


def ratio_analysis(y, yhat) -> RatioAnalysis:
    y, yhat = _paired(y, yhat)
    zero = np.nonzero(y == 0.0)[0]
    if zero.size:
        raise ZeroTarget(int(zero[0]))
    ratios = yhat / y
    lo, hi = RATIO_INSIDE_BOUNDS
    inside = float(np.mean((ratios >= lo) & (ratios <= hi)))
    return RatioAnalysis(ratios=ratios, mean=float(ratios.mean()),
                         std=float(ratios.std()), inside_frac=inside)


@dataclass(frozen=True)
class ModelEvaluation:
    report: MetricsReport
    predictions: EnsemblePrediction
    dataset: Dataset
    level: float


def evaluate_model(ens: Ensemble, ds: Dataset, level: float = TWO_SIGMA_LEVEL,
                   split_label: str = "test") -> ModelEvaluation:
    """Point metrics plus the per-point mixture moments. The level rides
    along for band rendering by the exporters."""
    if not ds.has_targets:
        raise ValueError("evaluation needs a dataset with targets")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {level}")
    preds = ens.predict(ds.features)
    yhat = preds.mean
    y = ds.targets
    ratios = ratio_analysis(y, yhat)
    report = MetricsReport(split_label=split_label, n=len(ds),
                           rmse=rmse(y, yhat), mape=mape(y, yhat),
                           rmspe=rmspe(y, yhat), ratio_mean=ratios.mean,
                           ratio_std=ratios.std, ratio_inside_frac=ratios.inside_frac)
    return ModelEvaluation(report, preds, ds, level)


@dataclass(frozen=True)
class SliceResult:
    spec: SliceSpec
    grid: Dataset
    predictions: EnsemblePrediction
    band_lo: np.ndarray
    band_hi: np.ndarray


@dataclass(frozen=True)
class SliceReport:
    results: tuple[SliceResult, ...]
    level: float


def evaluate_slices(ens: Ensemble, specs: list[SliceSpec],
                    level: float = TWO_SIGMA_LEVEL) -> SliceReport:
    """Mean and total-uncertainty band along each slice grid."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {level}")
    results = []
    for spec in specs:
        grid = build_slice_grid(spec)
        preds = ens.predict(grid.features)
        band_lo, band_hi = interval(preds, level)
        results.append(SliceResult(spec, grid, preds, band_lo, band_hi))
    return SliceReport(tuple(results), level)


@dataclass(frozen=True)
class TrialStats:
    """Robustness summary over N independent agent runs."""

    n_runs: int
    avg_rmse: float | None
    min_rmse: float | None
    max_rmse: float | None
    completed_zero_errors: int
    completed_one_error: int
    completed_two_plus_errors: int
    failures: int
    avg_total_tokens: float

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_trials(run_reports: list[dict]) -> TrialStats:
    """Collapse final run reports into the robustness table.

    A run counts as a failure when its status is not "completed"; error
    buckets partition the completed runs by total error count, so the
    four counts always sum to N.
    """
    if not run_reports:
        raise EmptyInput("need at least one run report")
    rmses = []
    buckets = [0, 0, 0]
    failures = 0
    tokens = []
    for report in run_reports:
        tokens.append(float(report.get("tokens", {}).get("total", 0)))
        if report.get("status") != "completed":
            failures += 1
            continue
        errors = int(report.get("errors", {}).get("total", 0))
        buckets[min(errors, 2)] += 1
        metrics = report.get("metrics") or {}
        if METRIC_COLUMNS["rmse"] in metrics:
            rmses.append(float(metrics[METRIC_COLUMNS["rmse"]]))
    return TrialStats(
        n_runs=len(run_reports),
        avg_rmse=float(np.mean(rmses)) if rmses else None,
        min_rmse=min(rmses) if rmses else None,
        max_rmse=max(rmses) if rmses else None,
        completed_zero_errors=buckets[0],
        completed_one_error=buckets[1],
        completed_two_plus_errors=buckets[2],
        failures=failures,
        avg_total_tokens=float(np.mean(tokens)),
    )


def format_trial_table(stats: TrialStats, label: str) -> str:
    """Fixed-layout text rendering of TrialStats."""
    def num(v) -> str:
        return "n/a" if v is None else f"{v:.1f}"

    rows = [
        ("Average RMSE (kW/m^2)", num(stats.avg_rmse)),
        ("Minimum RMSE (kW/m^2)", num(stats.min_rmse)),
        ("Maximum RMSE (kW/m^2)", num(stats.max_rmse)),
        ("Completed without error", str(stats.completed_zero_errors)),
        ("Completed with one error", str(stats.completed_one_error)),
        ("Completed with two or more errors", str(stats.completed_two_plus_errors)),
        ("Failed runs", str(stats.failures)),
        ("Average token usage", f"{stats.avg_total_tokens:.1f}"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"Robustness over {stats.n_runs} runs ({label})"]
    lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines) + "\n"
