import base64
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from autoduct import cli
from autoduct.dataset import (Normalizer, SyntheticConfig, fit_normalizer,
                              generate_synthetic, split, write_csv)
from autoduct.ensemble import (Ensemble, EnsembleMember, EnsemblePrediction,
                               _moments, interval, load_ensemble, save_ensemble,
                               train_ensemble)
from autoduct.errors import (CorruptArtifact, DivergedLoss, EmptyEnsemble,
                             VersionMismatch)
from autoduct.neural_net import (ActivationKind, MLPConfig, Parameters, TrainConfig,
                                 init_params, predict_batch, train, train_stack)

IDENTITY = Normalizer(np.zeros(5), np.ones(5), 0.0, 1.0)


def _random_members(rng, m):
    """One input's member Gaussians, drawn member by member: (mus, vars)."""
    pairs = [(float(rng.normal(0, 3)), float(rng.uniform(0.1, 5.0)))
             for _ in range(m)]
    return tuple(np.array(column) for column in zip(*pairs))


def _one_input(mus, vars_):
    """Mixture moments of one input's members, as a one-row prediction."""
    return _moments(np.array([mus], dtype=np.float64), np.array([vars_], dtype=np.float64))


# --- mixture moments -----------------------------------------------------------

def test_aggregate_matches_mixture_moment_identity():
    # total variance must equal the mixture's exact second central moment
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        mus, vs = _random_members(rng, m)
        ep = _one_input(mus, vs)
        mean = mus.mean()
        second_moment = np.mean(vs + mus**2)
        assert ep.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert ep.aleatory_var == pytest.approx(vs.mean(), rel=1e-12)
        assert ep.epistemic_var == pytest.approx(np.mean((mus - mean) ** 2),
                                                 rel=1e-12, abs=1e-15)
        assert ep.total_var == pytest.approx(second_moment - mean**2,
                                             rel=1e-9, abs=1e-12)
        assert ep.total_var == ep.aleatory_var + ep.epistemic_var


def test_aggregate_matches_monte_carlo():
    rng = np.random.default_rng(7)
    member_mus, member_vars = np.array([-1.0, 2.0, 0.5]), np.array([0.5, 1.5, 0.2])
    ep = _one_input(member_mus, member_vars)
    n = 500_000
    idx = rng.integers(0, len(member_mus), size=n)
    mus = member_mus[idx]
    sds = np.sqrt(member_vars[idx])
    draws = rng.normal(mus, sds)
    assert draws.mean() == pytest.approx(ep.mean, abs=0.01)
    assert draws.var() == pytest.approx(ep.total_var, rel=0.01)


def test_aggregate_single_member_passthrough():
    ep = _one_input([3.0], [0.7])
    np.testing.assert_array_equal(ep.mean, [3.0])
    np.testing.assert_array_equal(ep.aleatory_var, [0.7])
    np.testing.assert_array_equal(ep.epistemic_var, [0.0])
    np.testing.assert_array_equal(ep.total_var, [0.7])


def test_aggregate_validation():
    with pytest.raises(EmptyEnsemble):
        train_ensemble(None, None, [])
    with pytest.raises(ValueError):
        _one_input([float("nan")], [1.0])


# --- intervals ---------------------------------------------------------------------

def _one_row(mean, aleatory, epistemic):
    return EnsemblePrediction(mean=np.array([mean]), aleatory_var=np.array([aleatory]),
                              epistemic_var=np.array([epistemic]),
                              total_var=np.array([aleatory + epistemic]))


def test_interval_worked_example():
    # level 0.95, mean 1, total variance 4 -> ~(-2.92, 4.92)
    lo, hi = interval(_one_row(1.0, 4.0, 0.0), 0.95)
    assert lo.shape == hi.shape == (1,)
    assert lo[0] == pytest.approx(-2.9199, abs=1e-3)
    assert hi[0] == pytest.approx(4.9199, abs=1e-3)


def test_interval_symmetry_and_monotonicity():
    ep = _one_row(2.0, 1.0, 0.5)
    lo68, hi68 = interval(ep, 0.68)
    lo95, hi95 = interval(ep, 0.95)
    assert hi68[0] - ep.mean[0] == pytest.approx(ep.mean[0] - lo68[0], rel=1e-12)
    assert lo95[0] < lo68[0] < hi68[0] < hi95[0]


def test_interval_level_domain():
    ep = _one_row(1.0, 1.0, 0.0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            interval(ep, bad)


# --- ensemble container ---------------------------------------------------------------

def test_ensemble_requires_members():
    with pytest.raises(EmptyEnsemble):
        Ensemble((), IDENTITY)


def test_ensemble_rejects_mixed_input_dims():
    cfg_a = MLPConfig(5, 1, 4, ActivationKind.RELU)
    cfg_b = MLPConfig(4, 1, 4, ActivationKind.RELU)
    members = (EnsembleMember(init_params(cfg_a, 0), cfg_a, 0, "a"),
               EnsembleMember(init_params(cfg_b, 1), cfg_b, 1, "b"))
    with pytest.raises(ValueError):
        Ensemble(members, IDENTITY)
    with pytest.raises(ValueError, match="members take 4 inputs, the normalizer 5"):
        Ensemble(members[1:], IDENTITY)


def _assert_predictions_equal(a, b):
    for f in fields(EnsemblePrediction):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_member_prediction_order_and_aggregation(tiny_ensemble, tiny_splits):
    raw = tiny_splits.test.features[:3]
    ep = tiny_ensemble.predict(raw)
    assert ep.mean.shape == ep.total_var.shape == (3,)
    # member j's outputs are column j of the (N, M) stack the moments reduce
    columns = [predict_batch(member.params, member.config, tiny_ensemble.normalizer, raw)
               for member in tiny_ensemble.members]
    member_means = np.column_stack([mu for mu, _ in columns])
    member_vars = np.column_stack([var for _, var in columns])
    _assert_predictions_equal(ep, _moments(member_means, member_vars))

    for i in range(3):
        row = _one_input(member_means[i], member_vars[i])
        for f in fields(EnsemblePrediction):
            assert np.array_equal(getattr(ep, f.name)[i:i + 1], getattr(row, f.name))
    # single-row matmuls may take a different BLAS path, so allow float slack
    one = tiny_ensemble.predict(raw[0])
    assert one.mean.shape == (1,)
    assert one.mean[0] == pytest.approx(ep.mean[0], rel=1e-12)
    assert one.total_var[0] == pytest.approx(ep.total_var[0], rel=1e-12)


def _traced_excess(ens, raw):
    """Ensemble.predict's traced peak minus the bytes of what it returns
    and of the two (N, M) float64 member arrays its moments reduce."""
    tracemalloc.start()
    try:
        ep = ens.predict(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    members = 2 * len(raw) * ens.size * 8
    return peak - members - sum(getattr(ep, f.name).nbytes for f in fields(EnsemblePrediction))


def test_predict_memory_is_bounded_by_a_row_block(tiny_ensemble, tiny_splits):
    # the transient beyond the returned arrays is set by one row block, not
    # by the row count
    one_block = _traced_excess(tiny_ensemble, np.resize(tiny_splits.test.features,
                                                        (4096, 5)))
    ten_blocks = _traced_excess(tiny_ensemble, np.resize(tiny_splits.test.features,
                                                         (10 * 4096 + 1, 5)))
    assert ten_blocks <= 2 * one_block


def _per_row_predict(ens, raw):
    """The per-row path that Ensemble.predict replaced, kept as an oracle:
    one Gaussian per member per row, transposed, aggregated row by row."""
    per_member = []
    for m in ens.members:
        mu, var = predict_batch(m.params, m.config, ens.normalizer, raw)
        per_member.append([(float(a), float(b)) for a, b in zip(mu, var)])
    rows = []
    for member_preds in zip(*per_member):
        mus = np.array([mu for mu, _ in member_preds])
        vars_ = np.array([var for _, var in member_preds])
        mean = float(mus.mean())
        aleatory = float(vars_.mean())
        epistemic = float(((mus - mean) ** 2).mean())
        rows.append((mean, aleatory, epistemic, aleatory + epistemic))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("m", [1, 3, 5, 8, 15, 32])
def test_predict_is_bit_identical_to_per_row_aggregation(m, tiny_normalizer):
    # eight or more members is where summing an (M, N) stack over axis 0
    # would stop matching the per-row pairwise sums
    raw = generate_synthetic(SyntheticConfig(n=2000, seed=77)).features
    kinds = list(ActivationKind)
    members = []
    for j in range(m):
        cfg = MLPConfig(5, 1 + j % 2, 8, kinds[j % len(kinds)])
        members.append(EnsembleMember(init_params(cfg, 500 + j), cfg, 500 + j, "init"))
    ens = Ensemble(tuple(members), tiny_normalizer)

    got = ens.predict(raw)
    expect = _per_row_predict(ens, raw)
    for f, want in zip(fields(EnsemblePrediction), expect):
        assert np.array_equal(getattr(got, f.name), want), f.name


@pytest.mark.parametrize("head_row", [0, 1])
def test_predict_rejects_non_finite_member_output(head_row, tiny_ensemble, tiny_splits):
    # a NaN head weight makes one member's mean (row 0) or variance (row 1)
    # NaN for every input
    broken = tiny_ensemble.members[1]
    params = broken.params.copy()
    params.head_w[head_row, 0] = np.nan
    members = list(tiny_ensemble.members)
    members[1] = EnsembleMember(params, broken.config, broken.seed, broken.provenance)
    ens = Ensemble(tuple(members), tiny_ensemble.normalizer)
    with pytest.raises(ValueError, match="finite"):
        ens.predict(tiny_splits.test.features[:4])


# --- training --------------------------------------------------------------------------

def _member_configs(count, lr=3e-3):
    cfgs = []
    for i in range(count):
        cfgs.append((MLPConfig(5, 1, 6, ActivationKind.RELU),
                     TrainConfig(lr, 0.0, 64, epochs=3, seed=100 + i, patience=3)))
    return cfgs


def test_train_ensemble_distinct_seed_gate(tiny_splits, tiny_normalizer):
    cfgs = _member_configs(2)
    bad = [cfgs[0], (cfgs[1][0], TrainConfig(3e-3, 0.0, 64, epochs=3, seed=100,
                                             patience=3))]
    with pytest.raises(ValueError, match="distinct"):
        train_ensemble(tiny_splits, tiny_normalizer, bad)


def test_train_ensemble_empty_gate(tiny_splits, tiny_normalizer):
    with pytest.raises(EmptyEnsemble):
        train_ensemble(tiny_splits, tiny_normalizer, [])


def test_train_ensemble_tags_failing_member(tiny_splits, tiny_normalizer):
    cfgs = _member_configs(3)
    cfgs[1] = (cfgs[1][0], TrainConfig(1e80, 0.0, 64, epochs=3, seed=101, patience=3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedLoss) as err:
        train_ensemble(tiny_splits, tiny_normalizer, cfgs)
    assert err.value.member_index == 1


def test_train_ensemble_members_differ(tiny_splits, tiny_normalizer):
    ens = train_ensemble(tiny_splits, tiny_normalizer, _member_configs(2))
    a, b = ens.members
    assert not np.array_equal(a.params.hidden_w[0], b.params.hidden_w[0])
    assert ens.size == 2
    assert a.provenance == "seed=100"


# Members of one stack: every activation in turn, dropout, weight decay, a
# short last batch on the 288 training rows, and a patience of 1 so that
# members stop at different epochs and leave the stack one by one.
def _stack_members(count, units=8, layers=2, dropout=0.2, seed0=300):
    kinds = list(ActivationKind)
    return [(MLPConfig(5, layers, units, kinds[i % len(kinds)], dropout_rate=dropout),
             TrainConfig(3e-2, 1e-3, 40, epochs=12, seed=seed0 + i, patience=1))
            for i in range(count)]


def _train_alone(splits, norm, members):
    return [train(splits, norm, mlp, tc) for mlp, tc in members]


@pytest.mark.parametrize("count", [1, 3, 5, 8])
def test_stacked_training_is_bit_identical_to_training_alone(tiny_splits,
                                                             tiny_normalizer, count):
    assert len(tiny_splits.train) % 40 != 0
    members = _stack_members(count)
    ens = train_ensemble(tiny_splits, tiny_normalizer, members)
    alone = _train_alone(tiny_splits, tiny_normalizer, members)
    for member, (params, _) in zip(ens.members, alone):
        assert np.array_equal(member.params.flat, params.flat)
    if count > 1:
        assert len({len(history.val_losses) for _, history in alone}) > 1


def test_train_stack_returns_each_members_history(tiny_splits, tiny_normalizer):
    members = _stack_members(5)
    stacked = train_stack(tiny_splits, tiny_normalizer, members)
    alone = _train_alone(tiny_splits, tiny_normalizer, members)
    assert [h for _, h in stacked] == [h for _, h in alone]
    for (a, _), (b, _) in zip(stacked, alone):
        assert np.array_equal(a.flat, b.flat)


def test_members_of_two_shapes_train_in_two_stacks_in_member_order(tiny_splits,
                                                                   tiny_normalizer):
    wide = _stack_members(3, seed0=400)
    narrow = _stack_members(3, units=5, layers=1, dropout=0.0, seed0=500)
    members = [wide[0], narrow[0], narrow[1], wide[1], wide[2], narrow[2]]
    ens = train_ensemble(tiny_splits, tiny_normalizer, members)
    assert [m.config for m in ens.members] == [mlp for mlp, _ in members]
    assert [m.seed for m in ens.members] == [tc.seed for _, tc in members]
    alone = _train_alone(tiny_splits, tiny_normalizer, members)
    for member, (params, _) in zip(ens.members, alone):
        assert np.array_equal(member.params.flat, params.flat)
    # train_stack itself takes the mixed list and answers in member order
    stacked = train_stack(tiny_splits, tiny_normalizer, members)
    assert [h for _, h in stacked] == [h for _, h in alone]
    for (a, _), (b, _) in zip(stacked, alone):
        assert np.array_equal(a.flat, b.flat)


def test_stacked_divergence_raises_what_training_in_order_raises():
    splits = split(generate_synthetic(SyntheticConfig(n=120, seed=5)),
                   (0.72, 0.18, 0.10), seed=1)
    norm = fit_normalizer(splits.train)

    def exploding(kind, seed):
        return (MLPConfig(5, 1, 8, kind),
                TrainConfig(3e76, 0.0, 32, epochs=30, seed=seed, patience=30))

    # member 0 trains in a stack of its own; members 1-3 share one
    members = [(MLPConfig(5, 1, 8, ActivationKind.RELU),
                TrainConfig(1e-2, 0.0, 32, epochs=3, seed=7, patience=3)),
               exploding(ActivationKind.SOFTPLUS, 2),
               exploding(ActivationKind.RELU, 1),
               exploding(ActivationKind.GELU, 0)]
    diverged_at = {}
    with np.errstate(all="ignore"):
        for i, (mlp, tc) in enumerate(members):
            try:
                train(splits, norm, mlp, tc)
            except DivergedLoss as exc:
                diverged_at[i] = exc.epoch
        # member 1 diverges, but later than member 2 does
        assert 0 not in diverged_at and diverged_at[2] < diverged_at[1]
        with pytest.raises(DivergedLoss) as err:
            train_ensemble(splits, norm, members)
    assert err.value.member_index == 1
    assert err.value.epoch == diverged_at[1]


def test_a_later_stack_below_a_known_divergence_still_trains_and_raises_first():
    # members [X0, Y1, X2] of two shapes: X's stack trains first, and X2
    # diverges in it at an early epoch; Y1 ranks below X2, so its stack must
    # still train, and its later divergence is the one training in order
    # raises
    splits = split(generate_synthetic(SyntheticConfig(n=120, seed=5)),
                   (0.72, 0.18, 0.10), seed=1)
    norm = fit_normalizer(splits.train)

    def x(seed):
        return (MLPConfig(5, 2, 4, ActivationKind.RELU),
                TrainConfig(1e50, 0.0, 32, epochs=5, seed=seed, patience=5))

    y1 = (MLPConfig(5, 1, 8, ActivationKind.SOFTPLUS),
          TrainConfig(3e76, 0.0, 32, epochs=5, seed=8, patience=5))
    members = [x(0), y1, x(2)]
    diverged_at = {}
    with np.errstate(all="ignore"):
        for i, (mlp, tc) in enumerate(members):
            try:
                train(splits, norm, mlp, tc)
            except DivergedLoss as exc:
                diverged_at[i] = exc.epoch
        assert 0 not in diverged_at and diverged_at[2] < diverged_at[1]
        for fit in (train_stack, train_ensemble):
            with pytest.raises(DivergedLoss) as err:
                fit(splits, norm, members)
            assert err.value.member_index == 1, fit.__name__
            assert err.value.epoch == diverged_at[1], fit.__name__
            # reordered, Y ranks above X's diverging member: training in
            # order never reaches it, so its later divergence is not raised
            with pytest.raises(DivergedLoss) as err:
                fit(splits, norm, [x(0), x(2), y1])
            assert err.value.member_index == 1, fit.__name__
            assert err.value.epoch == diverged_at[2], fit.__name__


# --- persistence -------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, tiny_ensemble):
    # -0.0 and subnormals are the bits a decimal round trip is most likely to lose
    first = tiny_ensemble.members[0]
    flat = first.params.flat.copy()
    flat[:3] = [-0.0, 5e-324, -1e-310]
    ens = Ensemble((EnsembleMember(Parameters(first.config, flat), first.config,
                                   first.seed, first.provenance),
                    *tiny_ensemble.members[1:]), tiny_ensemble.normalizer)
    out = tmp_path / "ens"
    save_ensemble(ens, out)
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    again = load_ensemble(out)
    assert again.size == ens.size
    assert again.normalizer.to_dict() == ens.normalizer.to_dict()
    for orig, back in zip(ens.members, again.members):
        assert back.config == orig.config
        assert back.seed == orig.seed
        assert back.provenance == orig.provenance
        assert back.params.flat.tobytes() == orig.params.flat.tobytes()
        for a, b in zip(orig.params.arrays(), back.params.arrays()):
            assert np.array_equal(a, b)


def test_a_failed_save_leaves_the_previous_manifest_whole(tmp_path, tiny_ensemble,
                                                           monkeypatch):
    out = tmp_path / "ens"
    save_ensemble(tiny_ensemble, out)
    before = (out / "manifest.json").read_bytes()
    (tmp_path / "plain").write_text("x")        # the mode a plain open() gives

    def cut_short(doc, fh, **kwargs):
        fh.write('{\n  "format_version": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", cut_short)
    with pytest.raises(OSError, match="no space left"):
        save_ensemble(tiny_ensemble, out)
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_bytes() == before
    monkeypatch.undo()

    save_ensemble(tiny_ensemble, out)
    assert (out / "manifest.json").read_bytes() == before
    assert (out / "manifest.json").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_load_rejects_wrong_version(tmp_path, tiny_ensemble):
    out = tmp_path / "ens"
    save_ensemble(tiny_ensemble, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = 999
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionMismatch):
        load_ensemble(out)


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(CorruptArtifact):
        load_ensemble(tmp_path / "nowhere")


def test_load_rejects_empty_member_list(tmp_path, tiny_ensemble):
    out = tmp_path / "ens"
    save_ensemble(tiny_ensemble, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["members"] = []
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifact):
        load_ensemble(out)


def test_loaded_ensemble_predicts_identically(tmp_path, tiny_ensemble, tiny_splits):
    out = tmp_path / "ens"
    save_ensemble(tiny_ensemble, out)
    again = load_ensemble(out)
    raw = tiny_splits.test.features[:5]
    _assert_predictions_equal(again.predict(raw), tiny_ensemble.predict(raw))


def test_manifest_bytes_are_identical_across_processes(tmp_path, tiny_ensemble):
    # a load and save in each of two processes (different hash seeds) gives
    # back the bytes that this process saved
    ref = tmp_path / "ref"
    save_ensemble(tiny_ensemble, ref)
    src = str(Path(cli.__file__).resolve().parents[1])
    for hash_seed in ("0", "123"):
        out = tmp_path / f"copy-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from autoduct.ensemble import *; "
             "save_ensemble(load_ensemble(sys.argv[1]), sys.argv[2])", str(ref), str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (out / "manifest.json").read_bytes() == (ref / "manifest.json").read_bytes()


def _reencoded(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _flat(doc):
    return np.frombuffer(base64.b64decode(doc["parameters"]), dtype="<f8")


# each changes one leaf of a valid manifest; every one must be refused
_MANIFEST_MUTATIONS = {
    "seed as a string": lambda m: m["members"][0].update(seed=str(m["members"][0]["seed"])),
    "seed as a bool": lambda m: m["members"][1].update(seed=True),
    "provenance as a number": lambda m: m["members"][0].update(provenance=3),
    "parameters as a list": lambda m: m["members"][0].update(
        parameters=[float(v) for v in _flat(m["members"][0])]),
    "config as a string": lambda m: m["members"][2].update(config="relu"),
    "members as an object": lambda m: m.update(members={"0": m["members"][0]}),
    "a target shift as a bool": lambda m: m["normalizer"].update(target_shift=True),
    "a feature scale as a string": lambda m: m["normalizer"]["feature_scale"].__setitem__(
        1, str(m["normalizer"]["feature_scale"][1])),
    "NaN bytes": lambda m: m["members"][1].update(
        parameters=_reencoded([*_flat(m["members"][1])[:-1], np.nan])),
    "infinite bytes": lambda m: m["members"][0].update(
        parameters=_reencoded([np.inf, *_flat(m["members"][0])[1:]])),
    # a lenient decoder would skip the character and load the same bytes
    "bad base64": lambda m: m["members"][0].update(
        parameters=m["members"][0]["parameters"][:12] + "!" + m["members"][0]["parameters"][12:]),
    "one parameter short": lambda m: m["members"][0].update(
        parameters=_reencoded(_flat(m["members"][0])[:-1])),
    "one parameter over": lambda m: m["members"][2].update(
        parameters=_reencoded([*_flat(m["members"][2]), 0.0])),
    "a wider layer": lambda m: m["members"][0]["config"].update(hidden_units=13),
    "another input width": lambda m: m["members"][0]["config"].update(input_dim=4),
    "missing seed": lambda m: m["members"][0].pop("seed"),
    "missing parameters": lambda m: m["members"][1].pop("parameters"),
    "missing activation": lambda m: m["members"][0]["config"].pop("activation"),
    "missing target scale": lambda m: m["normalizer"].pop("target_scale"),
    "missing normalizer": lambda m: m.pop("normalizer"),
    "no members": lambda m: m.update(members=[]),
    "an extra member field": lambda m: m["members"][0].update(file="member_000.json"),
    "an extra top-level field": lambda m: m.update(members_dir="."),
    "target scale 0": lambda m: m["normalizer"].update(target_scale=0),
    "target scale -1": lambda m: m["normalizer"].update(target_scale=-1.0),
    "an infinite target shift": lambda m: m["normalizer"].update(target_shift=float("inf")),
    "a NaN feature shift": lambda m: m["normalizer"]["feature_shift"].__setitem__(0, float("nan")),
    "a zero feature scale": lambda m: m["normalizer"]["feature_scale"].__setitem__(4, 0.0),
    "four feature shifts": lambda m: m["normalizer"]["feature_shift"].pop(),
    "four feature scales": lambda m: m["normalizer"]["feature_scale"].pop(),
    "format version 1": lambda m: m.update(format_version=1),
    "format version 3": lambda m: m.update(format_version=3),
    "format version as a string": lambda m: m.update(format_version="2"),
}


@pytest.mark.parametrize("mutation", sorted(_MANIFEST_MUTATIONS))
def test_a_one_leaf_change_to_the_manifest_is_refused(tmp_path, capsys, tiny_ensemble,
                                                        tiny_dataset, mutation):
    out = tmp_path / "ens"
    save_ensemble(tiny_ensemble, out)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    _MANIFEST_MUTATIONS[mutation](manifest)
    manifest_path.write_text(json.dumps(manifest))
    expected = VersionMismatch if mutation.startswith("format version") else CorruptArtifact
    with pytest.raises(expected) as err:
        load_ensemble(out)
    assert type(err.value) is expected and str(manifest_path) in str(err.value)

    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    report_dir = tmp_path / "eval"
    assert cli.main(["evaluate", "--ensemble", str(out), "--data", str(data),
                     "--out-dir", str(report_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err.value}\n"
    assert not report_dir.exists()


def test_a_version_1_directory_is_refused_naming_its_version(tmp_path, capsys,
                                                              tiny_ensemble, tiny_dataset):
    # the layout that version 1 wrote: a manifest naming one file per member,
    # each with its own copy of the normalizer and its arrays as shape/data lists
    out = tmp_path / "ens"
    out.mkdir()
    normalizer = tiny_ensemble.normalizer.to_dict()
    entries = []
    for i, m in enumerate(tiny_ensemble.members):
        def pack(a):
            return {"shape": list(a.shape), "data": a.ravel().tolist()}
        arrays = {"hidden_w": [pack(w) for w in m.params.hidden_w],
                  "hidden_b": [pack(b) for b in m.params.hidden_b],
                  "head_w": pack(m.params.head_w), "head_b": pack(m.params.head_b)}
        name = f"member_{i:03d}.json"
        (out / name).write_text(json.dumps({"format_version": 1, "config": m.config.to_dict(),
                                            "normalizer": normalizer, "parameters": arrays}))
        entries.append({"file": name, "seed": m.seed, "provenance": m.provenance})
    (out / "manifest.json").write_text(json.dumps(
        {"format_version": 1, "normalizer": normalizer, "members": entries}, indent=2))
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    assert cli.main(["evaluate", "--ensemble", str(out), "--data", str(data),
                     "--out-dir", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unsupported ensemble format 1 in {out / 'manifest.json'}\n"
    assert not (tmp_path / "eval").exists()
