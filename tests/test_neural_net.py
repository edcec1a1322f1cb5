import hashlib
import json
import math

import numpy as np
import pytest

from autoduct import neural_net
from autoduct.dataset import (Normalizer, SyntheticConfig, fit_normalizer,
                              generate_synthetic, split)
from autoduct.errors import (CorruptArtifact, DimensionMismatch, DivergedLoss,
                             LengthMismatch, VersionMismatch)
from autoduct.neural_net import (_ACTIVATIONS, VAR_FLOOR, ActivationKind,
                                 MLPConfig, TrainConfig, _forward_batch,
                                 _make_masks, _nll_arrays, backward,
                                 init_params, params_from_doc, params_to_doc,
                                 predict_batch, train)

from reference_mlp import fd_gradient, forward_row

ALL_KINDS = list(ActivationKind)
IDENTITY = Normalizer(np.zeros(5), np.ones(5), 0.0, 1.0)


def _zeroed(cfg):
    p = init_params(cfg, 0)
    for a in p.arrays():
        a[...] = 0.0
    return p


def _array_row(p, cfg, x, masks=None):
    """(mu, var) of one input row through the array path."""
    mu, var, _, _, _ = _forward_batch(p, cfg, np.asarray(x)[None, :], masks)
    return float(mu[0]), float(var[0])


def _row_masks(cfg, rng):
    """Dropout masks for one row, drawn from `rng`."""
    return _make_masks(cfg, 1, [rng])[:, 0]


# --- activations ------------------------------------------------------------

def test_activation_reference_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    act = {k: _ACTIVATIONS[k][0] for k in ALL_KINDS}

    assert np.array_equal(act[ActivationKind.RELU](x), np.maximum(x, 0))
    assert np.allclose(act[ActivationKind.LEAKY_RELU](x),
                       np.where(x > 0, x, 0.01 * x), rtol=1e-15)
    lam, alpha = 1.0507009873554805, 1.6732632423543772
    assert np.allclose(act[ActivationKind.SELU](x),
                       lam * np.where(x > 0, x, alpha * (np.exp(x) - 1)),
                       rtol=1e-12)
    assert np.allclose(act[ActivationKind.ELU](x),
                       np.where(x > 0, x, np.exp(x) - 1), rtol=1e-12)
    c, b = math.sqrt(2.0 / math.pi), 0.044715
    expected_gelu = [0.5 * v * (1 + math.tanh(c * (v + b * v**3))) for v in x]
    assert np.allclose(act[ActivationKind.GELU](x), expected_gelu, rtol=1e-12)
    assert np.allclose(act[ActivationKind.SOFTPLUS](x), np.log1p(np.exp(x)),
                       rtol=1e-12)


def test_softplus_overflow_safe():
    act = _ACTIVATIONS[ActivationKind.SOFTPLUS][0]
    big = np.array([800.0, -800.0])
    out = act(big)
    assert out[0] == 800.0
    assert out[1] == 0.0
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_activation_derivative_matches_finite_difference(kind):
    act, dact = _ACTIVATIONS[kind]
    x = np.linspace(-3.0, 3.0, 61)
    x = x[np.abs(x) > 1e-3]        # stay clear of the relu-family kink
    h = 1e-6
    fd = (act(x + h) - act(x - h)) / (2 * h)
    assert np.allclose(dact(x), fd, rtol=1e-6, atol=1e-8)


def test_softplus_derivative_is_sigmoid():
    _, dact = _ACTIVATIONS[ActivationKind.SOFTPLUS]
    x = np.linspace(-10, 10, 41)
    assert np.allclose(dact(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


# --- configuration ----------------------------------------------------------

def test_mlp_config_validation():
    MLPConfig(5, 2, 16, ActivationKind.RELU, 0.3)
    with pytest.raises(ValueError):
        MLPConfig(0, 2, 16, ActivationKind.RELU)
    with pytest.raises(ValueError):
        MLPConfig(5, 0, 16, ActivationKind.RELU)
    with pytest.raises(ValueError):
        MLPConfig(5, 2, 16, ActivationKind.RELU, 0.31)
    with pytest.raises(ValueError):
        MLPConfig(5, 2, 16, ActivationKind.RELU, -0.01)


def test_config_dict_round_trip():
    cfg = MLPConfig(5, 3, 24, ActivationKind.SELU, 0.15)
    assert MLPConfig.from_dict(cfg.to_dict()) == cfg
    tc = TrainConfig(3e-3, 1e-5, 64, epochs=50, seed=7, patience=12)
    assert TrainConfig.from_dict(tc.to_dict()) == tc


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(0.0, 1e-5, 64)
    with pytest.raises(ValueError):
        TrainConfig(1e-3, -1e-5, 64)
    with pytest.raises(ValueError):
        TrainConfig(1e-3, 1e-5, 0)


# --- initialization ----------------------------------------------------------

def test_init_params_he_scaling():
    cfg = MLPConfig(128, 2, 256, ActivationKind.RELU)
    p = init_params(cfg, 3)
    assert p.hidden_w[0].shape == (256, 128)
    assert p.hidden_w[1].shape == (256, 256)
    assert p.head_w.shape == (2, 256)
    assert p.hidden_w[0].std() == pytest.approx(math.sqrt(2.0 / 128), rel=0.05)
    assert p.hidden_w[1].std() == pytest.approx(math.sqrt(2.0 / 256), rel=0.05)
    assert np.all(p.hidden_b[0] == 0.0)
    assert np.all(p.head_b == 0.0)


def test_init_params_deterministic():
    cfg = MLPConfig(5, 2, 8, ActivationKind.GELU)
    a, b = init_params(cfg, 42), init_params(cfg, 42)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    c = init_params(cfg, 43)
    assert not np.array_equal(a.hidden_w[0], c.hidden_w[0])


# --- forward ------------------------------------------------------------------

def test_forward_zero_network_variance():
    cfg = MLPConfig(5, 2, 8, ActivationKind.RELU)
    p = _zeroed(cfg)
    mu, var = _array_row(p, cfg, np.ones(5))
    assert mu == 0.0
    assert var == pytest.approx(math.log(2.0) + VAR_FLOOR, rel=1e-12)


def test_forward_variance_floor():
    cfg = MLPConfig(2, 1, 4, ActivationKind.RELU)
    p = _zeroed(cfg)
    p.head_b[1] = -60.0        # drives softplus to ~1e-26
    _, var = _array_row(p, cfg, np.zeros(2))
    assert var >= VAR_FLOOR
    assert var == pytest.approx(VAR_FLOOR, rel=1e-9)


def test_forward_shape_check():
    cfg = MLPConfig(5, 1, 4, ActivationKind.RELU)
    p = init_params(cfg, 0)
    with pytest.raises(DimensionMismatch):
        predict_batch(p, cfg, IDENTITY, np.zeros(4))


def test_forward_dropout_modes():
    cfg = MLPConfig(3, 2, 32, ActivationKind.GELU, dropout_rate=0.3)
    p = init_params(cfg, 1)
    x = np.array([0.3, -0.2, 0.9])
    eval_a = _array_row(p, cfg, x)
    eval_b = _array_row(p, cfg, x)
    assert eval_a == eval_b                      # inference is deterministic
    t1 = _array_row(p, cfg, x, _row_masks(cfg, np.random.default_rng(0)))
    t2 = _array_row(p, cfg, x, _row_masks(cfg, np.random.default_rng(1)))
    assert t1 != t2                              # masks actually fire
    t1_again = _array_row(p, cfg, x, _row_masks(cfg, np.random.default_rng(0)))
    assert t1 == t1_again
    # without dropout there is nothing to draw
    plain = MLPConfig(3, 1, 8, ActivationKind.RELU)
    assert _make_masks(plain, 1, [np.random.default_rng(0)]) is None


def test_dropout_inverted_scaling_preserves_mean():
    # average over many masks should approach the no-dropout output
    cfg = MLPConfig(3, 1, 64, ActivationKind.RELU, dropout_rate=0.2)
    p = init_params(cfg, 5)
    x = np.array([0.5, -1.0, 0.25])
    clean, _ = _array_row(p, cfg, x)
    rng = np.random.default_rng(9)
    draws = [_array_row(p, cfg, x, _row_masks(cfg, rng))[0] for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(clean, abs=0.05 * max(1.0, abs(clean)))


# --- loss ----------------------------------------------------------------------

def test_nll_loss_hand_computed():
    expected = 0.25 + 0.5 * math.log(2.0)
    assert _nll_arrays(np.array([1.0]), np.array([2.0]), np.array([0.0])) == \
        pytest.approx(expected, rel=1e-15)
    expected2 = 0.5 * (expected + 0.5 * 4.0)      # second term: (2-0)^2/2, log 1 = 0
    assert _nll_arrays(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                       np.array([0.0, 2.0])) == pytest.approx(expected2, rel=1e-15)
    # a stack of networks gets one loss each
    stacked = _nll_arrays(np.array([[1.0, 0.0], [1.0, 0.0]]),
                          np.array([[2.0, 1.0], [2.0, 1.0]]), np.array([0.0, 2.0]))
    assert stacked.shape == (2,)
    assert stacked[0] == stacked[1] == pytest.approx(expected2, rel=1e-15)


# --- gradients ------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_backward_matches_finite_difference(kind):
    cfg = MLPConfig(3, 2, 4, kind)
    p = init_params(cfg, 17)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    analytic = backward(p, cfg, (x, y))
    fd = fd_gradient(p, cfg, x, y)
    for a, f in zip(analytic.arrays(), fd):
        scale = max(np.max(np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f)) / scale < 1e-4


def test_backward_validation():
    cfg = MLPConfig(3, 1, 4, ActivationKind.RELU)
    p = init_params(cfg, 0)
    with pytest.raises(DimensionMismatch):
        backward(p, cfg, (np.zeros((2, 4)), np.zeros(2)))
    with pytest.raises(LengthMismatch):
        backward(p, cfg, (np.zeros((0, 3)), np.zeros(0)))


# --- training ---------------------------------------------------------------------

def _small_splits(n=120, seed=0):
    ds = generate_synthetic(SyntheticConfig(n=n, seed=seed))
    return split(ds, (0.72, 0.18, 0.10), seed=1)


def test_train_deterministic():
    splits = _small_splits()
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 1, 8, ActivationKind.RELU)
    tc = TrainConfig(3e-3, 1e-5, 32, epochs=5, seed=7, patience=10)
    p1, h1 = train(splits, norm, cfg, tc)
    p2, h2 = train(splits, norm, cfg, tc)
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)
    assert h1.train_losses == h2.train_losses
    assert h1.val_losses == h2.val_losses

    p3, _ = train(splits, norm, cfg, TrainConfig(3e-3, 1e-5, 32, epochs=5,
                                                 seed=8, patience=10))
    assert not np.array_equal(p1.hidden_w[0], p3.hidden_w[0])


def test_train_loss_decreases():
    splits = _small_splits(n=300, seed=2)
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 2, 16, ActivationKind.GELU)
    tc = TrainConfig(3e-3, 0.0, 32, epochs=30, seed=0, patience=30)
    _, hist = train(splits, norm, cfg, tc)
    assert hist.val_losses[hist.best_epoch] < hist.val_losses[0]
    assert hist.val_losses[hist.best_epoch] == min(hist.val_losses)


def test_train_early_stopping_semantics():
    splits = _small_splits(n=80, seed=5)
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 1, 16, ActivationKind.RELU)
    tc = TrainConfig(1e-2, 0.0, 64, epochs=2000, seed=3, patience=5)
    _, hist = train(splits, norm, cfg, tc)
    assert len(hist.val_losses) < 2000
    # run ends exactly patience + 1 epochs after the last improvement
    assert len(hist.val_losses) == hist.best_epoch + 1 + tc.patience + 1


def test_train_best_snapshot_returned():
    splits = _small_splits(n=150, seed=9)
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 1, 8, ActivationKind.SOFTPLUS)
    tc = TrainConfig(5e-3, 0.0, 64, epochs=25, seed=1, patience=25)
    params, hist = train(splits, norm, cfg, tc)
    x_val = norm.transform_features(splits.validation.features)
    y_val = norm.transform_targets(splits.validation.targets)
    mu, var, _, _, _ = _forward_batch(params, cfg, x_val, None)
    assert _nll_arrays(mu, var, y_val) == pytest.approx(
        hist.val_losses[hist.best_epoch], rel=1e-12)


def test_train_diverges_on_huge_learning_rate():
    # Adam steps are bounded by lr, so the rate must be large enough that
    # squaring the exploded mean head overflows float64
    splits = _small_splits(n=100, seed=3)
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 2, 16, ActivationKind.RELU)
    tc = TrainConfig(1e80, 0.0, 16, epochs=50, seed=0, patience=50)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedLoss) as err:
        train(splits, norm, cfg, tc)
    assert 0 <= err.value.epoch < 50


def test_decoupled_decay_single_step():
    # after exactly one optimizer step the wd run differs from the wd=0 run
    # by lr * wd * theta0 on weight matrices and not at all on biases
    splits = _small_splits(n=60, seed=1)
    norm = fit_normalizer(splits.train)
    cfg = MLPConfig(5, 2, 6, ActivationKind.ELU)
    theta0 = init_params(cfg, 11)
    lr, wd = 1e-3, 0.2
    base = TrainConfig(lr, 0.0, 1000, epochs=1, seed=11, patience=5)
    with_wd = TrainConfig(lr, wd, 1000, epochs=1, seed=11, patience=5)
    p_plain, _ = train(splits, norm, cfg, base)
    p_decay, _ = train(splits, norm, cfg, with_wd)
    for l in range(cfg.hidden_layers):
        assert np.allclose(p_plain.hidden_w[l] - p_decay.hidden_w[l],
                           lr * wd * theta0.hidden_w[l], rtol=1e-10, atol=1e-15)
        assert np.array_equal(p_plain.hidden_b[l], p_decay.hidden_b[l])
    assert np.allclose(p_plain.head_w - p_decay.head_w,
                       lr * wd * theta0.head_w, rtol=1e-10, atol=1e-15)
    assert np.array_equal(p_plain.head_b, p_decay.head_b)


# Parameters and loss curves of small dropout + decay runs, pinned so that
# a change to the training step's layout or arithmetic shows up as a
# different number: (activation, sha256 of the returned parameter bytes,
# train_losses, val_losses).
_TRAIN_GOLDEN = [
    ("relu", "8d3e9d939bd7c86c70f527c65dd627dc5784f6fa20a0402fb73058347fab5f8a",
     [2643.5208628465784, 3.5042529439098558, 14.338279777502786,
      31.594304419103324, 4.29180263230558],
     [1.1226661156860627, 0.48117497887194627, 0.36504121660657046,
      0.34655169124979623, 0.35712602557818424]),
    ("leaky_relu", "843bd8c25418139f0537246e851e1d14eb7c989f2ac936f217dc0df3610bf421",
     [0.5699173334869925, 0.5206444564416468, 0.5097139157982082,
      0.4547814585156981, 0.4556807543903819],
     [0.031052043675106243, 0.005321721190704306, -0.0027007702625471697,
      -0.015550927436936318, -0.028937894373997974]),
    ("gelu", "1becba257c7b55a4fed605c9a7581d17e1dcf566fd4106d0274cb706bc0863d9",
     [5.175405224837666, 1.4120020582603066, 0.7897126886635973,
      0.8822136177110601, 1.131040034437262],
     [0.568263519791405, 0.37653338475771597, 0.308181414837953,
      0.27633070771255674, 0.27182124286990605]),
    ("selu", "07857193fd188072935dfba4c1619d3b5ddee07996007d00874918573d209289",
     [2551.5031170203315, 46.4441059841394, 82.13103031588088,
      66.26053030044243, 8.914095993664947],
     [33.65795997872122, 24.01462971870959, 19.635073049426477,
      17.12289343781413, 15.538383808359432]),
    ("elu", "7ab8127fb4f1fef6454de5c19058a8af7c8bf6c5b1b23be1e855893b7cc6ac6a",
     [1.2859076398298095, 0.8379919113400469, 0.8897056450414307,
      0.7934146771346964, 0.27964881682239895],
     [-0.04385127696753165, -0.05485337079778181, -0.07045492425511571,
      -0.09529527397208692, -0.12022469081402723]),
    ("softplus", "51a46a80a18d1e302062f49e0cbc6728c96f4a6dec57aa3c9811e7ae6d29f348",
     [1.6234479522609395, 1.3058777808034197, 1.2172632446345848,
      1.0783920765349306, 0.9576419062361768],
     [1.1267294088391746, 0.9219767425524983, 0.8238798725695162,
      0.7704565550836967, 0.7037101943727057]),
]


def test_train_golden_and_one_forward_per_step(monkeypatch):
    splits = _small_splits(n=60, seed=4)
    norm = fit_normalizer(splits.train)
    n_train = len(splits.train)
    batch_size = 10
    assert n_train % batch_size != 0          # a short last batch is covered
    calls = []
    real_forward = neural_net._forward_batch

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(neural_net, "_forward_batch", counting_forward)
    for i, (kind, digest, train_losses, val_losses) in enumerate(_TRAIN_GOLDEN):
        calls.clear()
        cfg = MLPConfig(5, 2, 6, ActivationKind(kind), dropout_rate=0.2)
        tc = TrainConfig(1e-2, 0.05, batch_size, epochs=5, seed=20 + i, patience=5)
        p, hist = train(splits, norm, cfg, tc)
        got = hashlib.sha256(b"".join(a.tobytes() for a in p.arrays())).hexdigest()
        assert got == digest, kind
        assert hist.train_losses == train_losses, kind
        assert hist.val_losses == val_losses, kind
        epochs = len(hist.val_losses)
        steps = epochs * math.ceil(n_train / batch_size)
        # one forward per mini-batch step plus one validation pass per epoch
        assert len(calls) == steps + epochs, kind


# --- prediction on raw units --------------------------------------------------------

def test_predict_batch_applies_normalizer(tiny_splits, tiny_normalizer):
    cfg = MLPConfig(5, 1, 8, ActivationKind.RELU)
    p = init_params(cfg, 0)
    raw = tiny_splits.test.features[:4]
    got_mu, got_var = predict_batch(p, cfg, tiny_normalizer, raw)
    assert got_mu.shape == got_var.shape == (4,)
    z = tiny_normalizer.transform_features(raw)
    for pred_mu, pred_var, row in zip(got_mu, got_var, z):
        inner_mu, inner_var = forward_row(p, cfg, row)
        mu = tiny_normalizer.inverse_target_mean(np.array([inner_mu]))[0]
        var = tiny_normalizer.inverse_target_var(np.array([inner_var]))[0]
        assert pred_mu == pytest.approx(mu, rel=1e-12)
        assert pred_var == pytest.approx(var, rel=1e-12)


# row counts on both sides of each block boundary; N = 4096k + 1 would leave a
# one-row tail with fixed-size blocks
_BLOCK_NS = (0, 1, 7, 4095, 4096, 4097, 4098, 4101, 4103, 4111, 8191, 8193, 8195,
             12289, 16385, 20000, 40001)


def test_row_blocks_are_near_equal_and_cover_the_rows():
    for n in (*_BLOCK_NS, 2, 4096 * 10 + 1):
        blocks = neural_net._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes) <= 4096
        if n > 4096:
            assert min(sizes) >= 2048


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_predict_batch_blocks_match_one_unblocked_pass(kind):
    # the oracle is one _forward_batch over every row through the normalizer
    rng = np.random.default_rng(13)
    norm = Normalizer(np.array([8e-3, 2.0, 1e4, 2e3, 0.1]),
                      np.array([4e-3, 3.0, 5e3, 1.5e3, 0.3]), 3000.0, 1500.0)
    raw_all = rng.normal(size=(max(_BLOCK_NS), 5)) * norm.feature_scale + norm.feature_shift
    for (layers, units), sizes in (((2, 16), _BLOCK_NS), ((3, 1), _BLOCK_NS),
                                   ((7, 96), (4097, 8193))):
        cfg = MLPConfig(5, layers, units, kind)
        p = init_params(cfg, 3)
        for n in sizes:
            raw = raw_all[:n]
            mu, var = predict_batch(p, cfg, norm, raw)
            ref_mu, ref_var, _, _, _ = neural_net._forward_batch(
                p, cfg, norm.transform_features(raw), None)
            assert mu.tobytes() == norm.inverse_target_mean(ref_mu).tobytes(), (cfg, n)
            assert var.tobytes() == norm.inverse_target_var(ref_var).tobytes(), (cfg, n)


def test_predict_batch_writes_into_out_views(tiny_splits, tiny_normalizer):
    cfg = MLPConfig(5, 2, 8, ActivationKind.GELU)
    p = init_params(cfg, 1)
    raw = tiny_splits.test.features
    cols = np.full((len(raw), 3), -1.0)
    got = predict_batch(p, cfg, tiny_normalizer, raw, out=(cols[:, 2], cols[:, 0]))
    assert got[0].base is cols and got[1].base is cols
    mu, var = predict_batch(p, cfg, tiny_normalizer, raw)
    assert np.array_equal(cols[:, 2], mu) and np.array_equal(cols[:, 0], var)
    assert np.all(cols[:, 1] == -1.0)


# --- serialization ---------------------------------------------------------------------

def test_params_doc_round_trip_bit_exact():
    cfg = MLPConfig(5, 2, 8, ActivationKind.SELU, 0.1)
    p = init_params(cfg, 13)
    norm = IDENTITY
    doc = params_to_doc(p, cfg, norm)
    wire = json.loads(json.dumps(doc))        # force a real serialization pass
    p2, cfg2, norm2 = params_from_doc(wire)
    assert cfg2 == cfg
    assert norm2.to_dict() == norm.to_dict()
    for a, b in zip(p.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def test_params_doc_version_gate():
    cfg = MLPConfig(2, 1, 4, ActivationKind.RELU)
    doc = params_to_doc(init_params(cfg, 0), cfg, IDENTITY)
    doc["format_version"] = 99
    with pytest.raises(VersionMismatch):
        params_from_doc(doc)


def test_params_doc_corruption_detected():
    cfg = MLPConfig(2, 1, 4, ActivationKind.RELU)
    good = params_to_doc(init_params(cfg, 0), cfg, IDENTITY)

    missing = json.loads(json.dumps(good))
    del missing["parameters"]
    with pytest.raises(CorruptArtifact):
        params_from_doc(missing)

    poisoned = json.loads(json.dumps(good))
    poisoned["parameters"]["head_w"]["data"][0] = float("nan")
    with pytest.raises(CorruptArtifact):
        params_from_doc(json.loads(json.dumps(poisoned).replace("NaN", "null")))

    misshapen = json.loads(json.dumps(good))
    misshapen["parameters"]["head_b"]["shape"] = [3]
    misshapen["parameters"]["head_b"]["data"].append(0.0)
    with pytest.raises(CorruptArtifact):
        params_from_doc(misshapen)

    dropped = json.loads(json.dumps(good))
    del dropped["parameters"]["hidden_w"][0]
    del dropped["parameters"]["hidden_b"][0]

    # (4, 2) -> (2, 4): same element count, so only the layout check sees it
    transposed = json.loads(json.dumps(good))
    transposed["parameters"]["hidden_w"][0]["shape"] = [2, 4]

    extra_bias = json.loads(json.dumps(good))
    extra_bias["parameters"]["hidden_b"].append(good["parameters"]["hidden_b"][0])

    for doc in (dropped, transposed, extra_bias):
        with pytest.raises(CorruptArtifact):
            params_from_doc(doc)
