import base64
import hashlib
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from autoduct import neural_net
from autoduct.dataset import (Normalizer, SyntheticConfig, fit_normalizer,
                              generate_synthetic, split)
from autoduct.errors import (CorruptArtifact, DimensionMismatch, DivergedLoss,
                             LengthMismatch)
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


def _forward(p, cfg, x, masks=None):
    """_forward_batch without gradients, on a workspace built for x's rows."""
    ws = neural_net._Workspace(cfg, p.flat.shape[:-1], x.shape[-2])
    return _forward_batch(p, cfg, x, masks, ws)


def _nll(mu, var, y):
    """_nll_arrays with its terms in new arrays of the broadcast shape."""
    shape = np.broadcast_shapes(mu.shape, var.shape, y.shape)
    return _nll_arrays(mu, var, y,
                       SimpleNamespace(**{k: np.empty(shape) for k in ("sq", "v2", "t", "u")}))


def _array_row(p, cfg, x, masks=None):
    """(mu, var) of one input row through the array path."""
    mu, var = _forward(p, cfg, np.asarray(x)[None, :], masks)
    return float(mu[0]), float(var[0])


def _row_masks(cfg, rng):
    """Dropout masks for one row, drawn from `rng`."""
    shape = (cfg.hidden_layers, 1, 1, cfg.hidden_units)
    return _make_masks(cfg, [rng], np.empty(shape))[:, 0]


def _kernel(kind, x, grad=False):
    """(value, derivative) of `kind`'s activation kernel on fresh buffers,
    the derivative None unless `grad`."""
    x = np.array(x, dtype=np.float64)
    h, d, s = (np.empty_like(x) for _ in range(3))
    _ACTIVATIONS[kind](x.copy(), h, d if grad else None, s, np.empty(x.shape, bool))
    return h, d if grad else None


def _value(kind):
    return lambda x: _kernel(kind, x)[0]


def _deriv(kind):
    return lambda x: _kernel(kind, x, grad=True)[1]


# --- activations ------------------------------------------------------------

def test_activation_reference_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    act = {k: _value(k) for k in ALL_KINDS}

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
    act = _value(ActivationKind.SOFTPLUS)
    big = np.array([800.0, -800.0])
    out = act(big)
    assert out[0] == 800.0
    assert out[1] == 0.0
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_activation_derivative_matches_finite_difference(kind):
    act, dact = _value(kind), _deriv(kind)
    x = np.linspace(-3.0, 3.0, 61)
    x = x[np.abs(x) > 1e-3]        # stay clear of the relu-family kink
    h = 1e-6
    fd = (act(x + h) - act(x - h)) / (2 * h)
    assert np.allclose(dact(x), fd, rtol=1e-6, atol=1e-8)


def test_softplus_derivative_is_sigmoid():
    dact = _deriv(ActivationKind.SOFTPLUS)
    x = np.linspace(-10, 10, 41)
    assert np.allclose(dact(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


# The plain numpy expressions the kernels replace, operand for operand: a
# kernel must reproduce their bits, NaN and overflow included.
_LAM, _ALPHA, _C, _B = 1.0507009873554805, 1.6732632423543772, 0.7978845608028654, 0.044715


def _plain_sigmoid(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _plain_gelu_deriv(x):
    x2 = x * x
    t = np.tanh(_C * (x + _B * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _C * (1.0 + 3.0 * _B * x2)


_PLAIN = {
    ActivationKind.RELU: (lambda x: np.maximum(x, 0.0),
                          lambda x: (x > 0).astype(np.float64)),
    ActivationKind.LEAKY_RELU: (lambda x: np.where(x > 0, x, 0.01 * x),
                                lambda x: np.where(x > 0, 1.0, 0.01)),
    ActivationKind.GELU: (
        lambda x: 0.5 * x * (1.0 + np.tanh(_C * (x + _B * (x * x * x)))),
        _plain_gelu_deriv),
    ActivationKind.SELU: (
        lambda x: _LAM * np.where(x > 0, x, _ALPHA * np.expm1(x)),
        lambda x: _LAM * np.where(x > 0, 1.0, _ALPHA * np.exp(x))),
    ActivationKind.ELU: (lambda x: np.where(x > 0, x, np.expm1(x)),
                         lambda x: np.where(x > 0, 1.0, np.exp(x))),
    ActivationKind.SOFTPLUS: (
        lambda x: np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), _plain_sigmoid),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_activation_kernels_keep_the_bits_of_the_plain_expressions(kind):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(size=200) * 4.0, rng.normal(size=50) * 1e3,
                        [0.0, -0.0, 1e-310, -1e-310, 800.0, -800.0,
                         np.inf, -np.inf, np.nan]]).reshape(-1, 7)
    plain_value, plain_deriv = _PLAIN[kind]
    with np.errstate(all="ignore"):
        value, deriv = _kernel(kind, x, grad=True)
        value_alone, _ = _kernel(kind, x)
        expected = plain_value(x), plain_deriv(x)
    assert value.tobytes() == expected[0].tobytes()
    assert value_alone.tobytes() == expected[0].tobytes()
    assert deriv.tobytes() == expected[1].tobytes()


def _wide_inputs():
    """About 22k normal draws at several scales, plus subnormals, +-0, the
    values where exp and expm1 overflow (+-709, +-710), +-inf and NaN."""
    rng = np.random.default_rng(17)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         709.0, -709.0, 709.78, 710.0, -710.0, 745.2, -745.2,
         np.inf, -np.inf, np.nan],
        rng.normal(size=20000) * 3.0, rng.normal(size=1500) * 300.0,
        rng.normal(size=500) * 1e-300])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_activation_kernels_keep_the_bits_on_wide_inputs(kind):
    # the value alone and the value with its derivative; the kernel is also
    # free to overwrite its input when it writes a derivative
    x = _wide_inputs().reshape(-1, 3)
    plain_value, plain_deriv = _PLAIN[kind]
    with np.errstate(all="ignore"):
        value, deriv = _kernel(kind, x, grad=True)
        value_alone, _ = _kernel(kind, x)
        expected = plain_value(x), plain_deriv(x)
    assert value.tobytes() == expected[0].tobytes()
    assert value_alone.tobytes() == expected[0].tobytes()
    assert deriv.tobytes() == expected[1].tobytes()


def test_each_kernel_keeps_its_bits_on_the_rows_of_a_mixed_stack():
    # one stack row per activation, each kernel bound by the workspace to its
    # row slice, with and without the derivative
    kinds = ALL_KINDS
    x = np.stack([_wide_inputs()[:6000].reshape(-1, 3)] * len(kinds))
    runs = neural_net._activation_runs(kinds)
    assert len(runs) == len(kinds)
    n = x.shape[1]
    cfg = MLPConfig(5, 1, x.shape[2], kinds[0])
    w = neural_net._Workspace(cfg, (len(kinds),), n, n, runs).at(n)
    assert len(w.acts) == len(w.grad_acts[0]) == len(kinds)
    with np.errstate(all="ignore"):
        w.a[...] = x
        for act in w.grad_acts[0]:
            act()
        h, d = w.post[0].copy(), w.dacts[0].copy()
        w.a[...] = x
        for act in w.acts:
            act()
        h_alone = w.post[0]
        for kind, rows in runs:
            plain_value, plain_deriv = _PLAIN[kind]
            assert h[rows].tobytes() == plain_value(x[rows]).tobytes(), kind
            assert h_alone[rows].tobytes() == plain_value(x[rows]).tobytes(), kind
            assert d[rows].tobytes() == plain_deriv(x[rows]).tobytes(), kind


@pytest.mark.parametrize("rate", [0.05, 0.2, 0.3])
def test_dropout_masks_are_the_plain_expression(rate):
    # each generator draws its network's layers in order; the masks are
    # (draws < keep) / keep of exactly those draws
    cfg = MLPConfig(5, 3, 24, ActivationKind.RELU, dropout_rate=rate)
    keep = 1.0 - rate
    shape = (cfg.hidden_layers, 4, 37, cfg.hidden_units)
    masks = _make_masks(cfg, [np.random.default_rng(seed) for seed in range(4)],
                        np.empty(shape))
    draws = np.empty(shape)
    for r in range(4):
        rng = np.random.default_rng(r)
        for layer in range(cfg.hidden_layers):
            draws[layer, r] = rng.random(size=shape[2:])
    assert masks.tobytes() == ((draws < keep) / keep).tobytes()


@pytest.mark.parametrize("rate", [0.01, 0.07, 0.1, 0.3])
@pytest.mark.parametrize("members", [1, 3])
def test_workspace_dropout_masks_are_the_plain_expression(rate, members):
    # the training step's masks, compared in the workspace's bool buffer
    # and scaled into its float one, are (draws < keep) / keep byte for
    # byte: for full batches and the short last batch, whose views share
    # those buffers, and for a stack of one, which has no row axis
    cfg = MLPConfig(5, 3, 24, ActivationKind.RELU, dropout_rate=rate)
    keep = 1.0 - rate
    lead = (members,) if members > 1 else ()
    ws = neural_net._Workspace(cfg, lead, rows=20, batch_rows=32)
    rngs = [np.random.default_rng(seed) for seed in range(members)]
    plain = [np.random.default_rng(seed) for seed in range(members)]
    for n in (32, 32, 7):
        w = ws.at(n)
        masks = _make_masks(cfg, rngs, w.masks, w.kept)
        assert masks is w.masks and w.kept.dtype == bool
        draws = np.empty((cfg.hidden_layers, members, n, cfg.hidden_units))
        for r, rng in enumerate(plain):
            for layer in range(cfg.hidden_layers):
                draws[layer, r] = rng.random(size=(n, cfg.hidden_units))
        assert masks.tobytes() == ((draws < keep) / keep).tobytes()

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
    assert _make_masks(plain, [np.random.default_rng(0)], None) is None


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
    assert _nll(np.array([1.0]), np.array([2.0]), np.array([0.0])) == \
        pytest.approx(expected, rel=1e-15)
    expected2 = 0.5 * (expected + 0.5 * 4.0)      # second term: (2-0)^2/2, log 1 = 0
    assert _nll(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                np.array([0.0, 2.0])) == pytest.approx(expected2, rel=1e-15)
    # a stack of networks gets one loss each
    stacked = _nll(np.array([[1.0, 0.0], [1.0, 0.0]]),
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


@pytest.mark.parametrize("shape", [(5, 64, 16), (64, 16), (3, 61, 7), (61, 3),
                                   (5, 64, 2), (64, 2), (2, 4096, 96)])
def test_einsum_column_sums_are_the_plain_column_sums(shape):
    # what the bias gradients rely on: from two columns up (the U = 2 shapes
    # are the head's dout), einsum's column sums have the bytes of
    # sum(axis=-2) on finite values of widely spread magnitudes
    rng = np.random.default_rng(shape[-1])
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    assert np.einsum("...bu->...u", a).tobytes() == a.sum(axis=-2).tobytes()


@pytest.mark.parametrize("units", [1, 2, 16])
@pytest.mark.parametrize("members", [1, 5], ids=["stack_of_one", "stack_of_five"])
def test_bias_gradients_are_the_plain_column_sums(units, members):
    # the bias gradients of a step are sum(axis=-2) of dout and of the last
    # da left in the workspace, byte for byte; units = 1 is the
    # hidden_units == 1 guard, where sum adds one contiguous column pairwise
    # and einsum would not
    cfg = MLPConfig(5, 1, units, ActivationKind.GELU)
    lead = (members,) if members > 1 else ()
    theta = np.stack([init_params(cfg, 30 + i).flat for i in range(members)])
    p = neural_net.Parameters(cfg, theta if lead else theta[0])
    rng = np.random.default_rng(units)
    n = 61
    x, y = rng.normal(size=(n, 5)), rng.normal(size=lead + (n,))
    ws = neural_net._Workspace(cfg, lead, n, n)
    mu, var = _forward_batch(p, cfg, x, None, ws, grad=True)
    _nll_arrays(mu, var, y, ws.at(n))
    grads = neural_net.Parameters(cfg, np.empty_like(p.flat))
    neural_net._backward_batch(p, cfg, x, y, None, ws, grads)
    w = ws.at(n)
    assert grads.head_b.tobytes() == w.dout.sum(axis=-2).tobytes()
    assert grads.hidden_b[0].tobytes() == w.a.sum(axis=-2).tobytes()


@pytest.mark.parametrize("kinds", [
    [ActivationKind.GELU],
    [ActivationKind.GELU] * 2 + [ActivationKind.RELU] * 2 + [ActivationKind.SOFTPLUS],
], ids=["stack_of_one", "stack_of_five"])
def test_contiguous_head_matches_the_column_view_forms(kinds):
    # mu, var and dout from the contiguous head columns, against the head
    # as (n, 2) column views: the bias added in place, softplus on the
    # stride-2 raw column, and dmu and draw written straight into dout
    cfg = MLPConfig(5, 2, 16, kinds[0])
    lead = () if len(kinds) == 1 else (len(kinds),)
    rng = np.random.default_rng(8)
    theta = np.stack([init_params(cfg, 40 + i).flat for i in range(len(kinds))])
    theta[:, -2:] = rng.normal(size=(len(kinds), 2))        # nonzero head biases
    p = neural_net.Parameters(cfg, theta if lead else theta[0])
    n = 61
    x, y = rng.normal(size=(n, 5)), rng.normal(size=lead + (n,))
    ws = neural_net._Workspace(cfg, lead, n, n, neural_net._activation_runs(kinds))
    mu, var = _forward_batch(p, cfg, x, None, ws, grad=True)
    mu, var = mu.copy(), var.copy()
    w = ws.at(n)
    _nll_arrays(mu, var, y, w)
    neural_net._backward_batch(p, cfg, x, y, None, ws,
                               neural_net.Parameters(cfg, np.empty_like(p.flat)))

    out = np.matmul(w.post[-1], p.head_w.swapaxes(-1, -2))
    out += p.head_b[..., None, :]
    ref_var, sig, t = (np.empty(lead + (n,)) for _ in range(3))
    neural_net._softplus(out[..., 1], ref_var, sig, t, None)
    ref_var += VAR_FLOOR
    assert mu.tobytes() == out[..., 0].copy().tobytes()
    assert var.tobytes() == ref_var.tobytes()
    dout = np.empty(lead + (n, 2))
    dmu, draw = dout[..., 0], dout[..., 1]
    np.subtract(out[..., 0], y, out=dmu)
    dmu /= ref_var
    dmu /= n
    np.negative(np.square(np.subtract(y, out[..., 0])), out=draw)
    draw /= np.square(ref_var) * 2.0
    draw += np.divide(1.0, np.multiply(ref_var, 2.0))
    draw /= n
    draw *= sig
    assert w.dout.tobytes() == dout.tobytes()


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
    mu, var = _forward(params, cfg, x_val)
    assert _nll(mu, var, y_val) == pytest.approx(
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



# Stacked runs, pinned the same way: a change that moves a member both when
# it trains stacked and when it trains alone passes the identity tests in
# test_ensemble.py but not these. The first stack has the pipeline recipe's
# shape (relu/gelu/softplus/relu/gelu, 2x16, batch 64, no dropout); the
# second has dropout and a patience of 1, so its members stop at 9, 9, 9, 4,
# 3 and 6 epochs and the stack shrinks three times. Each entry: sha256 of
# every member's parameter bytes in member order, then each member's
# (train_losses, val_losses).
_STACK_GOLDEN = (
    "b4050255c8043b73dd37c88cf1342f34acc652da603083c3bf593bf4597d781e",
    [
     ([0.4058959396430153, 0.2604554299005748, 0.1491047314877706, 0.05142296793231759],
      [0.2662737495986345, 0.16036697471190495, 0.06568273512405882,
       -0.015161115828413254]),
     ([4.823480649280237, 2.8965803832143333, 1.5355480145952602, 1.121491010716283],
      [1.9897299660177454, 1.265780318535673, 0.9748639590838852, 0.8051437596112273]),
     ([4.071352304094074, 1.8126214729805368, 1.033169107745695, 0.7392709169051926],
      [2.2554303226470296, 1.1460045160443555, 0.745122299003751, 0.5952670980115612]),
     ([4.6109102920669685, 2.0312590948378415, 1.2631729982692723, 0.9721375155328545],
      [2.0755813759726465, 1.2340262773489636, 0.91788547997896, 0.7650750812426655]),
     ([0.8509147212304682, 0.4599716109903369, 0.3562077859248028, 0.2844599804159969],
      [0.626412990363534, 0.4387759613470985, 0.3344818339414022, 0.2656695144771275]),
    ])
_SHRINKING_STACK_GOLDEN = (
    "b3b4271080fdd3b0c48f84da3e3b061677b8d4073a246c81cec9ec764a41e847",
    [
     ([1.740663046499893, 0.3682341331674185, 0.3065656337722939, 0.2949688263252223,
       0.2109344193627157, 0.22793566264388143, 0.0575961015386718,
       0.10124757429214104, -0.003067891410550447],
      [0.2546792952692098, 0.24087264869667477, 0.2168264667934578,
       0.17574394932915516, 0.10953505620033274, 0.013323568621372645,
       -0.07265298574769677, -0.1275522603127165, -0.1763228086505374]),
     ([17.909547976296185, 3.210223746382743, 2.2920401570433295, 1.2511272786970684,
       1.2135152263277353, 1.175630805833374, 1.2462781714157993, 0.9495898634960623,
       0.9039381457895092],
      [1.8322369865523684, 1.4164414973326744, 0.8182702174321685, 0.67159000035815,
       0.6852458744018884, 0.6600142477863483, 0.6412002824724271, 0.6399880556511379,
       0.6344078973483429]),
     ([51.70563074219163, 7.430822265522709, 1.4102928087690394, 1.288703269415215,
       1.0336635427655896, 0.8699887852316418, 0.8320113262981381, 0.9488405304760585,
       0.8018023223756865],
      [0.8662201255437613, 0.7908142370876197, 0.6641963507170473, 0.5621096744608862,
       0.5245280033523492, 0.5114021190385188, 0.5015336018452746, 0.4879325016997653,
       0.4769334136474431]),
     ([14902.415554850466, 20.341521918822167, 1.2606805086306165, 1.1057226209841184],
      [1.0240098024793862, 0.9170017690246248, 0.9258576945705556, 0.9370668763946127]),
     ([19.274942742510277, 0.5901890923724311, 0.47506982775028767],
      [0.43797839915555786, 0.474411730756642, 0.47534137376325325]),
     ([1.6993253678289246, 0.5513174409268639, 0.4951842385781068, 0.42609953183296245,
       0.48846070625788784, 0.42138333305559317],
      [0.5309273869664436, 0.4829534591614121, 0.43086937413076964, 0.3361232250349064,
       0.38599566407869235, 0.3542097395399488]),
    ])


_PIPELINE_STACK = [ActivationKind.RELU, ActivationKind.GELU, ActivationKind.SOFTPLUS,
                   ActivationKind.RELU, ActivationKind.GELU]
_SHRINKING_STACK = [ActivationKind.LEAKY_RELU, ActivationKind.SELU, ActivationKind.ELU,
                    ActivationKind.SOFTPLUS, ActivationKind.GELU, ActivationKind.RELU]


@pytest.mark.parametrize("golden, members", [
    (_STACK_GOLDEN,
     [(MLPConfig(5, 2, 16, kind),
       TrainConfig(3e-3, 1e-5, 64, epochs=4, seed=100 + i, patience=10))
      for i, kind in enumerate(_PIPELINE_STACK)]),
    (_SHRINKING_STACK_GOLDEN,
     [(MLPConfig(5, 3, 10, kind, dropout_rate=0.2),
       TrainConfig(3e-2, 1e-3, 50, epochs=9, seed=700 + i, patience=1))
      for i, kind in enumerate(_SHRINKING_STACK)]),
], ids=["pipeline_shape", "shrinking_dropout"])
def test_train_stack_golden(tiny_splits, tiny_normalizer, golden, members):
    digest, curves = golden
    batch_size = members[0][1].batch_size
    assert len(tiny_splits.train) % batch_size != 0    # a short last batch
    results = neural_net.train_stack(tiny_splits, tiny_normalizer, members)
    got = hashlib.sha256(b"".join(p.flat.tobytes() for p, _ in results)).hexdigest()
    assert [(h.train_losses, h.val_losses) for _, h in results] == [
        (list(t), list(v)) for t, v in curves]
    assert got == digest


def _training_memory(splits, norm, members, monkeypatch):
    """Trains `members` as one stack under tracemalloc and returns (the
    largest rise above its start of any mini-batch step, taken from one
    step's forward pass to the next within an epoch; the number of numpy
    data blocks alive at each epoch's validation pass)."""
    real_forward = neural_net._forward_batch
    numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    step_rise, alive, step_start = [0], [], [None]

    def traced_forward(*args, **kwargs):
        if kwargs.get("grad"):
            if step_start[0] is not None:
                step_rise[0] = max(step_rise[0],
                                   tracemalloc.get_traced_memory()[1] - step_start[0])
            tracemalloc.reset_peak()
            step_start[0] = tracemalloc.get_traced_memory()[0]
        else:
            step_start[0] = None
            alive.append(len(tracemalloc.take_snapshot().filter_traces(numpy_data).traces))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(neural_net, "_forward_batch", traced_forward)
    tracemalloc.start()
    try:
        neural_net.train_stack(splits, norm, members)
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return step_rise[0], alive


def _training_peak(splits, norm, members):
    """How far traced memory rises above its start while training."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        neural_net.train_stack(splits, norm, members)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# numpy's ufunc machinery buffers up to 8,192 elements of a broadcast
# operand (the bias adds) inside one call, so each case has more elements
# than that in one (M, batch, units) buffer: a step that allocated any array
# of that size would show, numpy's capped scratch does not.
@pytest.mark.parametrize("kinds, dropout, batch_size, units", [
    ([ActivationKind.GELU], 0.0, 128, 128),
    (_PIPELINE_STACK, 0.2, 64, 48),
], ids=["stack_of_one", "stack_of_five"])
def test_training_steps_allocate_nothing(tiny_splits, tiny_normalizer, monkeypatch,
                                         kinds, dropout, batch_size, units):
    def members(epochs):
        return [(MLPConfig(5, 2, units, kind, dropout_rate=dropout),
                 TrainConfig(3e-3, 1e-5, batch_size, epochs=epochs, seed=60 + i,
                             patience=epochs))
                for i, kind in enumerate(kinds)]

    # every step, dropout masks included, writes into the workspace that
    # training allocated up front
    buffer = len(kinds) * batch_size * units * 8
    assert buffer > 8192 * 8
    step_rise, alive = _training_memory(tiny_splits, tiny_normalizer, members(8),
                                        monkeypatch)
    assert step_rise < buffer
    # the first epoch leaves its validation results behind; none after it
    assert len(alive) == 8 and len(set(alive[1:])) == 1
    short = _training_peak(tiny_splits, tiny_normalizer, members(2))
    long = _training_peak(tiny_splits, tiny_normalizer, members(8))
    assert abs(long - short) < buffer

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
            ref_mu, ref_var = _forward(p, cfg, norm.transform_features(raw))
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
    # the bits that a decimal round trip is most likely to lose
    p.flat[:4] = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, np.nextafter(1.0, 2.0)]
    wire = json.loads(json.dumps(params_to_doc(p, cfg)))   # a real serialization pass
    p2, cfg2 = params_from_doc(wire)
    assert cfg2 == cfg
    assert p2.flat.tobytes() == p.flat.tobytes()
    assert np.signbit(p2.flat[0]) and p2.flat[1] == 5e-324
    for a, b in zip(p.arrays(), p2.arrays()):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_params_doc_corruption_detected():
    cfg = MLPConfig(2, 1, 4, ActivationKind.RELU)
    good = params_to_doc(init_params(cfg, 0), cfg)
    flat = np.frombuffer(base64.b64decode(good["parameters"]), dtype="<f8")

    def with_buffer(values):
        return {**good, "parameters": base64.b64encode(
            np.asarray(values, dtype="<f8").tobytes()).decode("ascii")}

    # (4, 2) -> (2, 4) would keep the element count; (4, 2) -> (3, 2) does not
    narrower = json.loads(json.dumps(good))
    narrower["config"]["hidden_units"] = 3
    cases = {
        "no parameters": {"config": good["config"]},
        "no config": {"parameters": good["parameters"]},
        "a list of floats": {**good, "parameters": [float(x) for x in flat]},
        "not base64": {**good, "parameters": good["parameters"][:-4] + "!!!!"},
        "one value short": with_buffer(flat[:-1]),
        "one value over": with_buffer([*flat, 0.0]),
        "a cut byte": {**good, "parameters": base64.b64encode(
            base64.b64decode(good["parameters"])[:-1]).decode("ascii")},
        "NaN": with_buffer([np.nan, *flat[1:]]),
        "infinity": with_buffer([*flat[:-1], -np.inf]),
        "another layout": narrower,
        "an unknown activation": {**good, "config": {**good["config"], "activation": "tanh"}},
    }
    for doc in cases.values():
        with pytest.raises(CorruptArtifact, match="malformed parameter document"):
            params_from_doc(doc)
