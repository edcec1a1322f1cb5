import json
import math

import numpy as np
import pytest

from autoduct.dataset import fit_normalizer
from autoduct.errors import InsufficientTrials
from autoduct.hpo import optimize
from autoduct.hpo.gp import fit_gp
from autoduct.hpo.optimize import (Leaderboard, TrialResult, _objective_for_gp,
                                   make_trial_evaluator, run_bo,
                                   run_parallel_bo, select_top_k,
                                   trial_to_configs)
from autoduct.hpo.space import TrialConfig, default_space, encode
from autoduct.neural_net import ActivationKind

SPACE = default_space()


def _smooth_evaluator(tc):
    """Deterministic stand-in objective: no training involved."""
    rmse = (abs(math.log10(tc.learning_rate) + 3.0)
            + 0.01 * tc.hidden_units
            + 0.5 * tc.dropout_rate)
    return TrialResult(tc, rmse, "ok")


def _diverging_evaluator(bad_ids):
    def evaluate(tc):
        if tc.trial_id in bad_ids:
            return TrialResult(tc, None, "diverged")
        return _smooth_evaluator(tc)
    return evaluate


def _mk(run_id, trial_id, rmse, status="ok", origin="sobol"):
    tc = TrialConfig(1e-3, 1e-3, 0.1, 128, 6, 16, ActivationKind.RELU,
                     trial_id=trial_id, run_id=run_id, origin=origin)
    return TrialResult(tc, rmse, status)


# --- result and board ------------------------------------------------------------

def test_trial_result_validation():
    tc = TrialConfig(1e-3, 1e-3, 0.1, 128, 6, 16, ActivationKind.RELU)
    with pytest.raises(ValueError):
        TrialResult(tc, None, "ok")
    with pytest.raises(ValueError):
        TrialResult(tc, float("nan"), "ok")
    with pytest.raises(ValueError):
        TrialResult(tc, -1.0, "ok")
    with pytest.raises(ValueError):
        TrialResult(tc, 1.0, "crashed")
    TrialResult(tc, None, "diverged")      # allowed


def test_leaderboard_ordering_and_best():
    board = Leaderboard((_mk(0, 0, 3.0), _mk(0, 1, 1.0),
                         _mk(0, 2, None, "diverged"), _mk(1, 0, 2.0)))
    ordered = sorted(board.results, key=TrialResult.sort_key)
    assert [r.rmse for r in ordered] == [1.0, 2.0, 3.0, None]
    assert board.best().rmse == 1.0
    assert len(board.ok_results()) == 3


def test_leaderboard_best_requires_success():
    board = Leaderboard((_mk(0, 0, None, "diverged"),))
    with pytest.raises(InsufficientTrials):
        board.best()


def run_bests(board: Leaderboard) -> dict[int, TrialResult]:
    """Each run's best ok trial, by `TrialResult.sort_key`."""
    bests: dict[int, TrialResult] = {}
    for r in board.ok_results():
        run = r.config.run_id
        if run not in bests or r.sort_key() < bests[run].sort_key():
            bests[run] = r
    return bests


def test_run_bests_picks_per_run_minimum():
    board = Leaderboard((_mk(0, 0, 3.0), _mk(0, 1, 1.5), _mk(1, 0, 2.0),
                         _mk(1, 1, None, "diverged"), _mk(2, 0, None, "diverged")))
    bests = run_bests(board)
    assert set(bests) == {0, 1}
    assert bests[0].rmse == 1.5
    assert bests[1].rmse == 2.0


def test_divergence_penalty_rule():
    # NaN marks a diverged trial
    objectives = _objective_for_gp(np.array([4.0, np.nan, 10.0]))
    assert objectives.tolist() == [4.0, 20.0, 10.0]     # twice the worst success
    assert _objective_for_gp(np.array([np.nan])).tolist() == [1e6]


# --- single run -----------------------------------------------------------------------

def test_run_bo_structure_and_reproducibility(tmp_path):
    log = tmp_path / "trials.jsonl"
    board = run_bo(SPACE, n_sobol=4, n_bo=3, evaluator=_smooth_evaluator,
                   seed=5, run_id=2, log_path=log)
    assert len(board.results) == 7
    assert [r.config.trial_id for r in board.results] == list(range(7))
    assert all(r.config.run_id == 2 for r in board.results)
    assert [r.config.origin for r in board.results] == ["sobol"] * 4 + ["bo"] * 3

    again = run_bo(SPACE, n_sobol=4, n_bo=3, evaluator=_smooth_evaluator,
                   seed=5, run_id=2)
    assert [r.to_dict() for r in again.results] == [r.to_dict() for r in board.results]

    lines = log.read_text().strip().split("\n")
    assert len(lines) == 7
    assert [json.loads(l)["trial_id"] for l in lines] == list(range(7))


def test_run_bo_encodes_each_trial_once_into_its_fits(monkeypatch):
    # every fit sees the earlier trials' encoded rows, in trial order, and
    # their penalized objectives; each trial is encoded exactly once
    fits, encoded = [], []

    def spy_fit_gp(x, y):
        fits.append((x.copy(), y.copy()))
        return fit_gp(x, y)

    def spy_encode(tc, space):
        encoded.append(tc)
        return encode(tc, space)

    monkeypatch.setattr(optimize, "fit_gp", spy_fit_gp)
    monkeypatch.setattr(optimize, "encode", spy_encode)
    board = run_bo(SPACE, n_sobol=4, n_bo=3, evaluator=_diverging_evaluator({2}),
                   seed=11)
    results = board.results
    assert [r.status for r in results].count("diverged") == 1
    assert encoded == [r.config for r in results]
    assert [len(x) for x, _ in fits] == [4, 5, 6]
    for x, y in fits:
        earlier = results[:len(x)]
        assert np.array_equal(x, np.array([encode(r.config, SPACE) for r in earlier]))
        ok_rmses = [r.rmse for r in earlier if r.status == "ok"]
        assert y.tolist() == [r.rmse if r.status == "ok" else 2.0 * max(ok_rmses)
                              for r in earlier]


# (trial id, origin, learning rate, weight decay, dropout, batch size, hidden
# layers, hidden units, activation, validation RMSE) of run_bo on the tiny
# splits, recorded with the per-candidate decode/encode proposal loop and the
# per-dimension marginal-likelihood gradient
_GOLDEN_TRAJECTORY = [
    (0, "sobol", 0.0043676977230186435, 0.002695821553059712, 0.22960322429426014,
     256, 6, 8, "elu", 1188.1653429907683),
    (1, "sobol", 0.0013811872935870152, 0.0008524936273041153, 0.004603224294260144,
     256, 7, 8, "gelu", 566.7948470362912),
    (2, "sobol", 0.00013811872935870154, 0.008524936273041153, 0.15460322429426013,
     512, 7, 48, "leaky_relu", 3663.693511754699),
    (3, "sobol", 0.0002456136925593174, 0.00047939239609452375, 0.26710322429426014,
     512, 7, 8, "softplus", 566.4370656625135),
    (4, "sobol", 0.002456136925593174, 0.004793923960945238, 0.11710322429426014,
     256, 7, 48, "elu", 835.3399534395952),
    (5, "sobol", 0.007766986930117939, 0.00015159718646243035, 0.19210322429426013,
     256, 7, 64, "softplus", 688.2602905599615),
    (6, "bo", 0.00011374779561246666, 0.008575855472103391, 0.13856927859596907,
     128, 7, 8, "gelu", 720.8328186559789),
    (7, "bo", 0.00011811746889031676, 0.00024656385882548983, 0.022528806421905755,
     512, 7, 96, "selu", 3449.823262529156),
    (8, "bo", 0.001186202178822577, 0.0002480314645392714, 0.2846917079295963,
     512, 7, 24, "softplus", 610.4759786958053),
    (9, "bo", 0.00014167681973763525, 0.0010782244464855354, 0.007587545039132237,
     512, 7, 32, "softplus", 845.8985277229303),
]


def test_run_bo_golden_trajectory(tiny_splits, tiny_normalizer):
    evaluator = make_trial_evaluator(tiny_splits, tiny_normalizer, epochs=2,
                                     patience=2, base_seed=0)
    board = run_bo(SPACE, n_sobol=6, n_bo=4, evaluator=evaluator, seed=7)
    got = [(r.config.trial_id, r.config.origin, *r.config.assignment()[:-1],
            r.config.activation.value, r.rmse) for r in board.results]
    assert got == _GOLDEN_TRAJECTORY


def test_run_bo_seed_changes_warmup():
    a = run_bo(SPACE, 4, 0, _smooth_evaluator, seed=1)
    b = run_bo(SPACE, 4, 0, _smooth_evaluator, seed=2)
    assert [r.config.assignment() for r in a.results] \
        != [r.config.assignment() for r in b.results]


def test_run_bo_budget_validation():
    with pytest.raises(ValueError):
        run_bo(SPACE, 1, 3, _smooth_evaluator, seed=0)
    with pytest.raises(ValueError):
        run_bo(SPACE, 4, -1, _smooth_evaluator, seed=0)


def test_run_bo_survives_diverged_trials():
    board = run_bo(SPACE, 4, 2, _diverging_evaluator({1, 4}), seed=3)
    statuses = [r.status for r in board.results]
    assert statuses[1] == "diverged"
    assert statuses[4] == "diverged"
    assert len(board.ok_results()) == 4
    board.best()        # still defined


def test_run_bo_all_warmup_diverged_still_proposes():
    board = run_bo(SPACE, n_sobol=2, n_bo=1,
                   evaluator=_diverging_evaluator({0, 1}), seed=7)
    assert len(board.results) == 3
    assert board.results[2].config.origin == "bo"


# --- merged runs -------------------------------------------------------------------------

def test_run_parallel_bo_merges_runs(tmp_path):
    log = tmp_path / "all.jsonl"
    board = run_parallel_bo(SPACE, _smooth_evaluator, n_sobol=3,
                            n_bo=1, seeds=[10, 11, 12], log_path=log)
    assert len(board.results) == 12
    assert sorted({r.config.run_id for r in board.results}) == [0, 1, 2]
    assert len(log.read_text().strip().split("\n")) == 12
    # distinct seeds must explore differently
    per_run = {run: [r.config.assignment() for r in board.results
                     if r.config.run_id == run] for run in (0, 1, 2)}
    assert per_run[0] != per_run[1]


def test_run_parallel_bo_seed_validation():
    with pytest.raises(ValueError):
        run_parallel_bo(SPACE, _smooth_evaluator, n_sobol=2, n_bo=0, seeds=[5, 5])
    with pytest.raises(ValueError):
        run_parallel_bo(SPACE, _smooth_evaluator, n_sobol=2, n_bo=0, seeds=[])


# --- selection ------------------------------------------------------------------------------

def test_select_top_k_orders_and_counts():
    board = Leaderboard((_mk(0, 0, 5.0), _mk(0, 1, 1.0), _mk(1, 0, 3.0),
                         _mk(1, 1, None, "diverged"), _mk(2, 0, 2.0)))
    top = select_top_k(board, 3)
    assert len(top) == 3
    assert [t.trial_id for t in top] == [1, 0, 0]
    assert [t.run_id for t in top] == [0, 2, 1]


def test_select_top_k_keeps_duplicates():
    # two runs can land on the same assignment; both must survive selection
    board = Leaderboard((_mk(0, 0, 1.0), _mk(1, 0, 1.0), _mk(2, 0, 2.0)))
    top = select_top_k(board, 2)
    assert top[0].assignment() == top[1].assignment()
    assert (top[0].run_id, top[1].run_id) == (0, 1)


def test_select_top_k_validation():
    board = Leaderboard((_mk(0, 0, 1.0), _mk(0, 1, None, "diverged")))
    with pytest.raises(InsufficientTrials):
        select_top_k(board, 2)
    with pytest.raises(ValueError):
        select_top_k(board, 0)


# --- real evaluator ---------------------------------------------------------------------------

def test_trial_to_configs_mapping():
    tc = TrialConfig(2e-3, 5e-4, 0.2, 256, 7, 48, ActivationKind.ELU)
    mlp, train = trial_to_configs(tc, input_dim=5, epochs=40, patience=8, seed=123)
    assert (mlp.input_dim, mlp.hidden_layers, mlp.hidden_units) == (5, 7, 48)
    assert mlp.activation == ActivationKind.ELU
    assert mlp.dropout_rate == 0.2
    assert (train.learning_rate, train.weight_decay) == (2e-3, 5e-4)
    assert (train.batch_size, train.epochs, train.patience, train.seed) \
        == (256, 40, 8, 123)


def test_make_trial_evaluator_trains_and_scores(tiny_splits):
    norm = fit_normalizer(tiny_splits.train)
    evaluate = make_trial_evaluator(tiny_splits, norm, epochs=3, patience=3,
                                    base_seed=0)
    tc = TrialConfig(3e-3, 1e-4, 0.0, 128, 6, 8, ActivationKind.RELU,
                     trial_id=0, run_id=0)
    result = evaluate(tc)
    assert result.status == "ok"
    assert math.isfinite(result.rmse) and result.rmse > 0
    # reproducible: the per-trial seed depends only on (base seed, ids)
    assert evaluate(tc).rmse == result.rmse


def test_make_trial_evaluator_absorbs_divergence(tiny_splits):
    norm = fit_normalizer(tiny_splits.train)
    evaluate = make_trial_evaluator(tiny_splits, norm, epochs=3, patience=3,
                                    base_seed=0)
    wild = TrialConfig(1e80, 1e-4, 0.0, 128, 6, 8, ActivationKind.RELU,
                       trial_id=1, run_id=0)
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(wild)
    assert result.status == "diverged"
    assert result.rmse is None
