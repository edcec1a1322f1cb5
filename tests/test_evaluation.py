import math

import numpy as np
import pytest

from autoduct.dataset import SliceSpec, build_slice_grid
from autoduct.errors import EmptyInput, LengthMismatch, ZeroTarget
from autoduct.evaluation import (RATIO_INSIDE_BOUNDS, TWO_SIGMA_LEVEL,
                                 TrialStats, aggregate_trials, evaluate_model,
                                 evaluate_slices, format_trial_table, mape,
                                 ratio_analysis, rmse, rmspe)
from autoduct.stats import central_interval_z


def _brute_force_metrics(y, yhat):
    n = len(y)
    sq = sum((a - b) ** 2 for a, b in zip(y, yhat))
    rel = [(a - b) / a for a, b in zip(y, yhat)]
    return (math.sqrt(sq / n),
            100.0 * sum(abs(r) for r in rel) / n,
            100.0 * math.sqrt(sum(r * r for r in rel) / n))


def test_metrics_match_scalar_recomputation():
    rng = np.random.default_rng(7)
    y = rng.uniform(50.0, 16000.0, size=137)
    yhat = y * rng.uniform(0.6, 1.6, size=137)
    ref_rmse, ref_mape, ref_rmspe = _brute_force_metrics(y.tolist(), yhat.tolist())
    assert rmse(y, yhat) == pytest.approx(ref_rmse, rel=1e-12)
    assert mape(y, yhat) == pytest.approx(ref_mape, rel=1e-12)
    assert rmspe(y, yhat) == pytest.approx(ref_rmspe, rel=1e-12)


def test_metrics_worked_example():
    y = [100.0, 200.0]
    yhat = [110.0, 180.0]
    # both relative errors are exactly 10 percent
    assert mape(y, yhat) == pytest.approx(10.0, abs=1e-12)
    assert rmspe(y, yhat) == pytest.approx(10.0, abs=1e-12)
    assert rmse(y, yhat) == pytest.approx(math.sqrt((100.0 + 400.0) / 2.0))


def test_perfect_predictions_are_all_zero():
    y = np.array([123.0, 456.0, 789.0])
    assert rmse(y, y) == 0.0
    assert mape(y, y) == 0.0
    assert rmspe(y, y) == 0.0


def test_percentage_metrics_flag_zero_target():
    y = np.array([100.0, 0.0, 50.0])
    yhat = np.array([90.0, 10.0, 55.0])
    with pytest.raises(ZeroTarget) as err:
        mape(y, yhat)
    assert err.value.index == 1
    with pytest.raises(ZeroTarget):
        rmspe(y, yhat)
    # rmse has no division and must not care
    assert np.isfinite(rmse(y, yhat))


def test_metric_input_validation():
    with pytest.raises(LengthMismatch):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        mape(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(EmptyInput):
        rmspe([], [])


def test_two_sigma_level_closed_form():
    # P(|Z| <= 2) = erf(2 / sqrt(2)) = erf(sqrt(2))
    assert TWO_SIGMA_LEVEL == pytest.approx(math.erf(math.sqrt(2.0)), abs=1e-15)
    assert central_interval_z(TWO_SIGMA_LEVEL) == pytest.approx(2.0, abs=1e-12)


# --- ratio analysis ----------------------------------------------------------

def test_ratio_interval_endpoints_count_as_inside():
    y = np.full(4, 100.0)
    yhat = np.array([50.0, 200.0, 49.999, 200.001])
    analysis = ratio_analysis(y, yhat)
    assert RATIO_INSIDE_BOUNDS == (0.5, 2.0)
    np.testing.assert_allclose(analysis.ratios,
                               np.array([0.5, 2.0, 0.49999, 2.00001]))
    assert analysis.inside_frac == pytest.approx(0.5)


def test_ratio_moments_match_numpy():
    rng = np.random.default_rng(11)
    y = rng.uniform(100.0, 1000.0, size=60)
    yhat = y * rng.uniform(0.7, 1.4, size=60)
    analysis = ratio_analysis(y, yhat)
    ratios = yhat / y
    assert analysis.mean == pytest.approx(ratios.mean(), rel=1e-14)
    assert analysis.std == pytest.approx(ratios.std(), rel=1e-14)


def test_ratio_analysis_validation():
    y = np.array([1.0, 2.0])
    with pytest.raises(LengthMismatch):
        ratio_analysis(y, np.ones(3))
    with pytest.raises(ZeroTarget) as err:
        ratio_analysis(np.array([5.0, 0.0]), y)
    assert err.value.index == 1


# --- model evaluation --------------------------------------------------------

def test_evaluate_model_report_matches_direct_metrics(tiny_ensemble, tiny_splits):
    ds = tiny_splits.test
    me = evaluate_model(tiny_ensemble, ds, level=0.9, split_label="holdout")
    yhat = me.predictions.mean
    direct = tiny_ensemble.predict(ds.features)
    np.testing.assert_array_equal(yhat, direct.mean)

    assert me.report.split_label == "holdout"
    assert me.report.n == len(ds)
    assert me.report.rmse == pytest.approx(rmse(ds.targets, yhat), rel=1e-14)
    assert me.report.mape == pytest.approx(mape(ds.targets, yhat), rel=1e-14)
    assert me.report.rmspe == pytest.approx(rmspe(ds.targets, yhat), rel=1e-14)
    assert me.level == 0.9

    doc = me.report.to_dict()
    assert set(doc) == {"split", "n", "rmse_kw_m2", "mape_pct", "rmspe_pct",
                        "ratio_mean", "ratio_std", "ratio_inside_frac"}
    assert doc["rmse_kw_m2"] == me.report.rmse


def test_evaluate_model_validation(tiny_ensemble, tiny_splits):
    ds = tiny_splits.test
    with pytest.raises(ValueError, match="level"):
        evaluate_model(tiny_ensemble, ds, level=1.0)
    from autoduct.dataset import Dataset
    bare = Dataset(ds.features, None, "grid")
    with pytest.raises(ValueError, match="targets"):
        evaluate_model(tiny_ensemble, bare)


# --- slice evaluation --------------------------------------------------------

_SPEC = SliceSpec(slice_id="s1", varying="G", lo=100.0, hi=4000.0, count=21,
                  constants={"D": 0.008, "L": 6.0, "P": 10000.0, "X": 0.1})


def test_evaluate_slices_band_is_z_times_total_std(tiny_ensemble):
    report = evaluate_slices(tiny_ensemble, [_SPEC], level=0.8)
    assert report.level == 0.8
    (result,) = report.results
    assert result.spec is _SPEC
    grid = build_slice_grid(_SPEC)
    np.testing.assert_array_equal(result.grid.features, grid.features)

    z = central_interval_z(0.8)
    mean = result.predictions.mean
    total = result.predictions.total_var
    np.testing.assert_allclose(result.band_lo, mean - z * np.sqrt(total),
                               rtol=1e-14)
    np.testing.assert_allclose(result.band_hi, mean + z * np.sqrt(total),
                               rtol=1e-14)
    assert np.all(result.band_hi >= result.band_lo)


def test_evaluate_slices_level_domain(tiny_ensemble):
    with pytest.raises(ValueError):
        evaluate_slices(tiny_ensemble, [_SPEC], level=0.0)


# --- robustness aggregation --------------------------------------------------

def _report(status="completed", errors=0, rmse_val=None, tokens=300):
    doc = {"status": status, "errors": {"total": errors},
           "tokens": {"total": tokens}, "metrics": {}}
    if rmse_val is not None:
        doc["metrics"]["rmse_kw_m2"] = rmse_val
    return doc


def test_aggregate_trials_buckets_partition_runs():
    reports = [
        _report(errors=0, rmse_val=400.0, tokens=300),
        _report(errors=0, rmse_val=500.0, tokens=300),
        _report(errors=1, rmse_val=600.0, tokens=400),
        _report(errors=2, rmse_val=700.0, tokens=500),
        _report(errors=5, rmse_val=800.0, tokens=700),
        _report(status="failed", errors=3, tokens=600),
    ]
    stats = aggregate_trials(reports)
    assert stats.n_runs == 6
    assert stats.completed_zero_errors == 2
    assert stats.completed_one_error == 1
    assert stats.completed_two_plus_errors == 2
    assert stats.failures == 1
    total = (stats.completed_zero_errors + stats.completed_one_error
             + stats.completed_two_plus_errors + stats.failures)
    assert total == stats.n_runs
    assert stats.avg_rmse == pytest.approx(600.0)
    assert stats.min_rmse == 400.0
    assert stats.max_rmse == 800.0
    # failed runs still spent tokens
    assert stats.avg_total_tokens == pytest.approx((300 + 300 + 400 + 500
                                                    + 700 + 600) / 6)


def test_aggregate_trials_handles_missing_metrics():
    stats = aggregate_trials([_report(status="failed"), _report(status="failed")])
    assert stats.avg_rmse is None
    assert stats.min_rmse is None
    assert stats.max_rmse is None
    assert stats.failures == 2
    with pytest.raises(EmptyInput):
        aggregate_trials([])


def test_trial_stats_round_trip_keys():
    stats = aggregate_trials([_report(rmse_val=321.0)])
    doc = stats.to_dict()
    assert doc["n_runs"] == 1
    assert doc["avg_rmse"] == 321.0
    assert doc["completed_zero_errors"] == 1
    assert set(doc) == {"n_runs", "avg_rmse", "min_rmse", "max_rmse",
                        "completed_zero_errors", "completed_one_error",
                        "completed_two_plus_errors", "failures",
                        "avg_total_tokens"}


def test_format_trial_table_layout():
    stats = aggregate_trials([_report(rmse_val=432.1, tokens=300),
                              _report(status="failed", tokens=500)])
    text = format_trial_table(stats, "injected faults at runs 1")
    lines = text.splitlines()
    assert lines[0] == "Robustness over 2 runs (injected faults at runs 1)"
    assert len(lines) == 9
    assert any("Average RMSE (kW/m^2)" in l and "432.1" in l for l in lines)
    assert any("Failed runs" in l and l.rstrip().endswith("1") for l in lines)
    assert any("Average token usage" in l and "400.0" in l for l in lines)
    assert text.endswith("\n")
    # the label column is aligned: every value starts at the same offset
    offsets = {len(l) - len(l.lstrip()) for l in lines[1:]}
    assert offsets == {2}


def test_format_trial_table_renders_missing_rmse_as_na():
    stats = aggregate_trials([_report(status="failed")])
    text = format_trial_table(stats, "all faults")
    assert "n/a" in text
