"""Acceptance suite: one test per shipping criterion, AC1 through AC11.

Each test carries its own independent oracle (brute-force recomputation,
finite differences, Monte Carlo, or hardcoded reference tables) so a
regression in the library cannot hide behind a shared helper. Budgets
are reduced where the criterion allows it; tolerances are pinned.

Run `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines.
"""

import json
import math
import statistics

import numpy as np
import pytest

from autoduct import cli
from autoduct.agents import (FaultInjector, ProjectContext, ScriptedPlanner,
                             TaskExecutor, run_multi_agent, run_react)
from autoduct.dataset import (BLIND_SLICES, SyntheticConfig, build_slice_grid,
                              fit_normalizer, generate_synthetic, split)
from autoduct.ensemble import _moments, interval, train_ensemble
from autoduct.errors import StageExhausted
from autoduct.evaluation import evaluate_slices, mape, rmse, rmspe
from autoduct.hpo import (default_space, make_trial_evaluator,
                          run_parallel_bo, select_top_k)
from autoduct.hpo.gp import _ei_arrays
from autoduct.hpo.sobol import sobol_points
from autoduct.neural_net import ActivationKind, MLPConfig, TrainConfig, init_params

from reference_mlp import backward, fd_gradient
from test_hpo_optimize import run_bests

MC_DRAWS = 1_000_000


# --- AC1: variance decomposition ------------------------------------------------

def test_ac01_variance_decomposition_identity():
    rng = np.random.default_rng(1001)
    mc_checked = 0
    for i in range(1000):
        m = int(rng.integers(1, 33))
        mus = rng.normal(0.0, 10.0, size=m)
        vs = rng.lognormal(0.0, 1.0, size=m)
        ep = _moments(mus[None, :], vs[None, :])

        assert ep.total_var == pytest.approx(
            ep.aleatory_var + ep.epistemic_var, rel=1e-12)
        # second central moment of the equal-weight mixture, recomputed
        mix_var = float(np.mean(vs) + np.mean(mus**2) - np.mean(mus)**2)
        assert ep.total_var == pytest.approx(mix_var, rel=1e-12)

        if i % 50 == 0:
            idx = rng.integers(m, size=MC_DRAWS)
            draws = mus[idx] + np.sqrt(vs[idx]) * rng.standard_normal(MC_DRAWS)
            assert abs(float(draws.var()) - ep.total_var) < 0.01 * ep.total_var
            mc_checked += 1
    assert mc_checked == 20


# --- AC2: analytic gradients ------------------------------------------------------

def test_ac02_gradients_match_finite_differences():
    kinds = list(ActivationKind)
    rng = np.random.default_rng(42)
    for i in range(20):
        cfg = MLPConfig(input_dim=int(rng.integers(2, 6)),
                        hidden_layers=int(rng.integers(1, 3)),
                        hidden_units=int(rng.integers(4, 9)),
                        activation=kinds[i % len(kinds)],
                        dropout_rate=0.0)
        p = init_params(cfg, seed=int(rng.integers(0, 10_000)))
        for arr in p.arrays():
            arr += rng.normal(0.0, 0.3, size=arr.shape)
        n = int(rng.integers(3, 7))
        x = rng.normal(0.0, 1.0, size=(n, cfg.input_dim))
        y = rng.normal(0.0, 1.0, size=n)

        analytic = backward(p, cfg, (x, y))
        # central differences of a per-row, plain-loop reference network
        numeric = fd_gradient(p, cfg, x, y)
        for ga, gn in zip(analytic.arrays(), numeric):
            scale = max(float(np.max(np.abs(ga))), 1e-12)
            assert float(np.max(np.abs(ga - gn))) / scale <= 1e-4, \
                f"gradient mismatch for {cfg.activation}"


# --- AC3: calibration on synthetic data ----------------------------------------

@pytest.fixture(scope="module")
def calibration_run():
    train_ds = generate_synthetic(SyntheticConfig(n=5000, seed=21))
    held_out = generate_synthetic(SyntheticConfig(n=10_000, seed=22))
    splits = split(train_ds, (0.85, 0.10, 0.05), seed=1)
    normalizer = fit_normalizer(splits.train)
    kinds = (ActivationKind.RELU, ActivationKind.GELU, ActivationKind.SOFTPLUS,
             ActivationKind.SELU, ActivationKind.ELU)
    configs = []
    for i, kind in enumerate(kinds):
        mlp = MLPConfig(input_dim=5, hidden_layers=2, hidden_units=32,
                        activation=kind, dropout_rate=0.0)
        tc = TrainConfig(learning_rate=3e-3, weight_decay=1e-5, batch_size=256,
                         epochs=300, seed=300 + i, patience=40)
        configs.append((mlp, tc))
    ens = train_ensemble(splits, normalizer, configs)
    return ens, held_out


def test_ac03_interval_coverage_on_held_out_data(calibration_run):
    ens, held_out = calibration_run
    assert len(ens.members) == 5
    preds = ens.predict(held_out.features)
    y = held_out.targets

    lo, hi = interval(preds, 0.95)
    coverage = np.mean((lo <= y) & (y <= hi))
    assert 0.90 <= coverage <= 0.98, f"coverage {coverage:.4f} outside [0.90, 0.98]"

    yhat = preds.mean
    assert rmse(y, yhat) < float(y.std())


# --- AC4: BO against plain quasi-random search ----------------------------------

def test_ac04_bo_matches_or_beats_sobol(tiny_splits, tiny_normalizer):
    evaluator = make_trial_evaluator(tiny_splits, tiny_normalizer,
                                     epochs=6, patience=3, base_seed=0)
    space = default_space()
    seeds = [0, 1, 2, 3, 4]
    bo = run_parallel_bo(space, evaluator, n_sobol=16, n_bo=32,
                         seeds=seeds)
    sobol_only = run_parallel_bo(space, evaluator, n_sobol=48,
                                 n_bo=0, seeds=seeds)
    assert len(bo.results) == 240
    assert len(sobol_only.results) == 240

    bo_median = statistics.median(r.rmse for r in run_bests(bo).values())
    sobol_median = statistics.median(r.rmse for r in run_bests(sobol_only).values())
    assert bo_median <= sobol_median, \
        f"BO median {bo_median:.2f} worse than Sobol {sobol_median:.2f}"

    top = select_top_k(bo, 15)
    assert len(top) == 15
    assert len({(c.run_id, c.trial_id) for c in top}) == 15
    assert len({c.assignment() for c in top}) == 15


# --- AC5: Sobol and EI oracles ----------------------------------------------------

# primitive-polynomial parameters (s, a, initial m) for dimensions 2..5
_JOE_KUO_HEAD = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)),
                 (3, 2, (1, 1, 1)))


def _independent_sobol_5d(n, bits=32):
    tables = [[1 << (bits - k) for k in range(1, bits + 1)]]   # van der Corput
    for s, a, m_init in _JOE_KUO_HEAD:
        m = list(m_init)
        for k in range(s, bits):
            new = m[k - s] ^ (m[k - s] << s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    new ^= m[k - j] << j
            m.append(new)
        tables.append([m[k] << (bits - 1 - k) for k in range(bits)])

    points = np.empty((n, 5))
    for i in range(1, n + 1):
        code = i ^ (i >> 1)
        for d in range(5):
            acc = 0
            k = 0
            g = code
            while g:
                if g & 1:
                    acc ^= tables[d][k]
                g >>= 1
                k += 1
            points[i - 1, d] = acc / 2.0**bits
    return points


def test_ac05_sobol_and_ei_oracles():
    np.testing.assert_array_equal(sobol_points(5, 8), _independent_sobol_5d(8))

    rng = np.random.default_rng(55)
    for _ in range(20):
        mu = float(rng.normal(0.0, 1.0))
        sigma = float(rng.uniform(0.05, 1.0))
        incumbent = float(rng.normal(0.0, 1.0))
        closed = float(_ei_arrays(np.array([mu]), np.array([sigma**2]),
                                  incumbent)[0])
        # antithetic pairs: 10^6 improvement draws with much lower variance
        z = rng.standard_normal(MC_DRAWS // 2)
        improvements = (np.maximum(incumbent - (mu + sigma * z), 0.0)
                        + np.maximum(incumbent - (mu - sigma * z), 0.0))
        mc = float(np.mean(improvements) / 2.0)
        assert abs(closed - mc) < 1e-3

    # zero posterior variance reduces EI to the hinge
    hinge = float(_ei_arrays(np.array([0.3]), np.array([0.0]), 1.0)[0])
    assert hinge == pytest.approx(0.7)


# --- AC6: supervisor loop trace fidelity ---------------------------------------

def _run_multi(ctx, recipe, injector=None, **kwargs):
    planner = ScriptedPlanner(recipe)
    executor = TaskExecutor(ctx, injector=injector)
    outcome = run_multi_agent("CHF regression pipeline", planner, executor, **kwargs)
    return outcome, planner


def test_ac06_supervisor_trace_fidelity(agent_workspace, drill_recipe):
    outcome, planner = _run_multi(agent_workspace("clean"), drill_recipe)
    tune_cycles = sum(1 for c in planner.calls if c.purpose == "patch")
    assert outcome.report["status"] == "completed"
    assert tune_cycles == 0

    injector = FaultInjector.from_spec("stage=evaluate,attempt=1")
    outcome, planner = _run_multi(agent_workspace("one_fault"), drill_recipe,
                                  injector=injector)
    tune_cycles = sum(1 for c in planner.calls if c.purpose == "patch")
    assert outcome.report["status"] == "completed"
    assert tune_cycles == 1
    assert outcome.report["errors"]["total"] == 1

    injector = FaultInjector.from_spec("stage=evaluate,attempts=1-3")
    with pytest.raises(StageExhausted) as err:
        _run_multi(agent_workspace("exhausted"), drill_recipe,
                   injector=injector, max_retries=3)
    assert err.value.stage == "evaluation_execution"
    assert err.value.error_count == 3


# --- AC7: ReAct loop trace fidelity ----------------------------------------------

def test_ac07_react_trace_fidelity(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    injector = FaultInjector.from_spec("stage=evaluate,attempt=1")
    executor = TaskExecutor(ctx, injector=injector)
    outcome = run_react("CHF regression pipeline", planner, executor)

    steps = outcome.transcript.history
    error_indices = [i for i, s in enumerate(steps)
                     if s.observation.startswith("error:")]
    assert len(error_indices) == 1
    assert steps[error_indices[0] + 1].action == "patch_task"
    assert outcome.report["status"] == "completed"

    window = outcome.transcript.window_size
    for call in planner.calls:
        if call.purpose == "directive":
            assert call.prompt.count(" | action: ") <= window


# --- AC8: trial harness report layout --------------------------------------------

def test_ac08_trial_harness_buckets_and_layout(tmp_path, capsys):
    ws = tmp_path / "harness"
    code = cli.main(["trials", "--workspace", str(ws), "--synthetic", "150",
                     "--seed", "5", "--n", "10", "--fault-runs", "2,5,8",
                     "--members", "2", "--layers", "1", "--units", "8",
                     "--epochs", "6", "--patience", "3", "--batch", "64"])
    assert code == 0

    doc = json.loads((ws / "trials.json").read_text())
    stats = doc["stats"]
    assert stats["n_runs"] == 10
    assert stats["completed_zero_errors"] == 7
    assert stats["completed_one_error"] == 3
    assert stats["completed_two_plus_errors"] == 0
    assert stats["failures"] == 0
    for key in ("avg_rmse", "min_rmse", "max_rmse"):
        assert math.isfinite(stats[key])
    assert stats["min_rmse"] <= stats["avg_rmse"] <= stats["max_rmse"]
    assert stats["avg_total_tokens"] > 0

    table = (ws / "trials.txt").read_text()
    for row in ("Average RMSE (kW/m^2)", "Minimum RMSE (kW/m^2)",
                "Maximum RMSE (kW/m^2)", "Completed without error",
                "Completed with one error", "Completed with two or more errors",
                "Failed runs", "Average token usage"):
        assert row in table
    assert "Robustness over 10 runs" in table


# --- AC9: metric oracles ----------------------------------------------------------

def test_ac09_metric_oracles():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(5, 200))
        y = rng.uniform(50.0, 16000.0, size=n)
        yhat = y * rng.uniform(0.5, 2.0, size=n)
        ref_rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / n)
        rel = [(a - b) / a for a, b in zip(y, yhat)]
        ref_mape = 100.0 * sum(abs(r) for r in rel) / n
        ref_rmspe = 100.0 * math.sqrt(sum(r * r for r in rel) / n)
        assert rmse(y, yhat) == pytest.approx(ref_rmse, rel=1e-12)
        assert mape(y, yhat) == pytest.approx(ref_mape, rel=1e-12)
        assert rmspe(y, yhat) == pytest.approx(ref_rmspe, rel=1e-12)

    assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)


# --- AC10: resume and determinism -------------------------------------------------

def test_ac10_resume_and_byte_identical_reports(agent_workspace, drill_recipe):
    interrupted = agent_workspace("interrupted")
    outcome, _ = _run_multi(interrupted, drill_recipe,
                            stop_after_stage="training_execution")
    assert outcome.report is None

    resumed_ctx = ProjectContext(interrupted.workspace, run_id="run-t")
    resumed, _ = _run_multi(resumed_ctx, drill_recipe, resume=True)

    straight, _ = _run_multi(agent_workspace("straight"), drill_recipe)
    assert resumed.report["metrics"] == straight.report["metrics"]

    _run_multi(agent_workspace("twin"), drill_recipe)
    siblings = interrupted.workspace.parent
    for name in ("report.json", "report.txt"):
        a = (siblings / "straight" / "report" / name).read_bytes()
        b = (siblings / "twin" / "report" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# --- AC11: slice protocol ----------------------------------------------------------

_EXPECTED_SLICES = (
    ("1", "L", 0.0, 20.0, {"D": 8.01e-3, "P": 9806.0, "G": 1000.0, "X": 0.587}),
    ("2", "L", 0.0, 20.0, {"D": 8.11e-3, "P": 2009.0, "G": 752.2, "X": 0.756}),
    ("3", "P", 0.0, 20000.0, {"D": 8.00e-3, "L": 0.998, "G": 2006.0, "X": 0.140}),
    ("4", "P", 0.0, 20000.0, {"D": 13.40e-3, "L": 3.658, "G": 2040.2, "X": 0.378}),
    ("5", "X", -0.5, 1.0, {"D": 8.14e-3, "L": 1.943, "P": 9831.0, "G": 1519.5}),
    ("6", "D", 0.0, 16.0e-3, {"L": 6.000, "P": 9807.0, "G": 1003.3, "X": 0.529}),
    ("7", "G", 0.0, 8000.0, {"D": 8.00e-3, "L": 1.570, "P": 12750.0, "X": 0.144}),
    ("8", "G", 0.0, 8000.0, {"D": 10.00e-3, "L": 4.966, "P": 16000.0, "X": 0.343}),
)


def test_ac11_slice_protocol(tiny_ensemble):
    assert len(BLIND_SLICES) == 8
    for spec, (sid, varying, lo, hi, constants) in zip(BLIND_SLICES,
                                                       _EXPECTED_SLICES):
        assert spec.slice_id == sid
        assert spec.varying == varying
        assert spec.lo == lo and spec.hi == hi
        assert spec.count == 101
        assert spec.constants == constants

        grid = build_slice_grid(spec)
        varying_col = grid.column(varying)
        assert varying_col[0] == lo and varying_col[-1] == hi
        for name, value in constants.items():
            assert np.all(grid.column(name) == value)

    report = evaluate_slices(tiny_ensemble, list(BLIND_SLICES), level=0.95)
    for result in report.results:
        means = result.predictions.mean
        assert np.all(np.isfinite(means))
        widths = result.band_hi - result.band_lo
        assert np.all(np.isfinite(widths))
        assert np.all(widths >= 0.0)
