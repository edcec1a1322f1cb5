"""Feedforward network with a heteroscedastic Gaussian head, written
directly against numpy.

Architecture: a stack of identical fully connected hidden layers

    h_l = act(W_l h_{l-1} + b_l),   l = 1..L,  h_0 = x,

followed by two linear heads on the last hidden state: one for the
predicted mean and one for the raw variance, which is mapped through
softplus and floored to keep it strictly positive,

    mu  = w_mu . h_L + b_mu
    var = softplus(w_raw . h_L + b_raw) + VAR_FLOOR.

Training minimizes the Gaussian negative log-likelihood (constant term
dropped)

    loss = mean_i [ (y_i - mu_i)^2 / (2 var_i) + log(var_i) / 2 ]

by mini-batch gradient descent with adaptive moment estimates and
decoupled weight decay. Gradients are computed analytically
(``backward`` is the public entry point); the test suite checks them
against central finite differences of a per-row reference network. A
network's parameters are views into one flat float64 buffer, all
weight matrices first and all biases after, so the AdamW update is one
vector operation and weight decay is one slice.

There is one training loop, ``train_stack``. It trains M networks that
differ only in activation and seed as one stack: their parameters are
the rows of one (M, P) buffer, each step gathers every network's
mini-batch into an (M, B, d) array, runs each layer as one stacked
matmul and each activation on its own rows, and updates all rows with
one AdamW step. The step's forward pass keeps each layer's activation
derivative, so the backward pass recomputes none. Every network draws
its batch order and dropout masks from its own generator and leaves the
stack when it stops early, so each result is bit-identical to training
that network alone. ``train`` is the M = 1 case.

Inference (``predict_batch``) runs one network at a time, in near-equal
row blocks of at most ``dataset._BLOCK_ROWS`` rows, and keeps only the
current layer; its memory is bounded by a block, not by the row count.
A row's result does not depend on the block it falls in: the blocks
are near-equal, so none has a single row unless the input does (numpy
computes a one-row matmul as a matrix-vector product, whose bits can
differ), and the bytes equal one pass over all rows.

Activation constants (fixed, from the original publications of each
unit): LeakyReLU negative slope 0.01; SELU lambda 1.0507009873554805 and
alpha 1.6732632423543772; GELU in its tanh form with coefficients
sqrt(2/pi) and 0.044715, its cube computed as (x * x) * x; ELU alpha 1.0.
The ReLU derivative at exactly 0 is taken as 0.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dataset import _BLOCK_ROWS, Normalizer, SplitDataset
from .errors import (
    CorruptArtifact,
    DimensionMismatch,
    DivergedLoss,
    LengthMismatch,
    VersionMismatch,
)

VAR_FLOOR = 1e-6        # on the normalized target scale
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PARAMS_FORMAT_VERSION = 1

_LEAKY_SLOPE = 0.01
_SELU_LAMBDA = 1.0507009873554805
_SELU_ALPHA = 1.6732632423543772
_GELU_C = 0.7978845608028654    # sqrt(2/pi)
_GELU_B = 0.044715


class ActivationKind(Enum):
    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    GELU = "gelu"
    SELU = "selu"
    ELU = "elu"
    SOFTPLUS = "softplus"


def _softplus(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # overflow-safe: softplus(x) = max(x, 0) + log1p(exp(-|x|)); `e` is
    # exp(-|x|) when the caller already has it
    if e is None:
        e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e)


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # both branches divide by 1 + exp(-|x|), which never overflows
    if e is None:
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _softplus_and_deriv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.exp(-np.abs(x))
    return _softplus(x, e), _sigmoid(x, e)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_B * (x * x * x))))


def _gelu_and_deriv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the same value as _gelu, keeping x^2 and the tanh for the derivative
    x2 = x * x
    t = np.tanh(_GELU_C * (x + _GELU_B * (x2 * x)))
    half_x = 0.5 * x
    one_t = 1.0 + t
    return (half_x * one_t,
            0.5 * one_t + half_x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_B * x2))


def _gelu_deriv(x: np.ndarray) -> np.ndarray:
    return _gelu_and_deriv(x)[1]


_ACTIVATIONS = {
    ActivationKind.RELU: (
        lambda x: np.maximum(x, 0.0),
        lambda x: (x > 0).astype(np.float64),
    ),
    ActivationKind.LEAKY_RELU: (
        lambda x: np.where(x > 0, x, _LEAKY_SLOPE * x),
        lambda x: np.where(x > 0, 1.0, _LEAKY_SLOPE),
    ),
    ActivationKind.GELU: (_gelu, _gelu_deriv),
    ActivationKind.SELU: (
        lambda x: _SELU_LAMBDA * np.where(x > 0, x, _SELU_ALPHA * np.expm1(x)),
        lambda x: _SELU_LAMBDA * np.where(x > 0, 1.0, _SELU_ALPHA * np.exp(x)),
    ),
    ActivationKind.ELU: (
        lambda x: np.where(x > 0, x, np.expm1(x)),
        lambda x: np.where(x > 0, 1.0, np.exp(x)),
    ),
    ActivationKind.SOFTPLUS: (_softplus, _sigmoid),
}


def _value_and_deriv(act, dact):
    return lambda x: (act(x), dact(x))


# what a training forward pass applies: (value, derivative) together, GELU
# and softplus sharing their tanh and exp between the two
_ACTIVATION_GRADS = {kind: _value_and_deriv(*pair) for kind, pair in _ACTIVATIONS.items()}
_ACTIVATION_GRADS[ActivationKind.GELU] = _gelu_and_deriv
_ACTIVATION_GRADS[ActivationKind.SOFTPLUS] = _softplus_and_deriv


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    hidden_layers: int
    hidden_units: int
    activation: ActivationKind
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be at least 1")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be at least 1")
        if not 0.0 <= self.dropout_rate <= 0.3:
            raise ValueError("dropout_rate must lie in [0, 0.3]")

    def to_dict(self) -> dict:
        return {"input_dim": self.input_dim, "hidden_layers": self.hidden_layers,
                "hidden_units": self.hidden_units,
                "activation": self.activation.value,
                "dropout_rate": self.dropout_rate}

    @classmethod
    def from_dict(cls, doc: dict) -> "MLPConfig":
        return cls(input_dim=int(doc["input_dim"]),
                   hidden_layers=int(doc["hidden_layers"]),
                   hidden_units=int(doc["hidden_units"]),
                   activation=ActivationKind(doc["activation"]),
                   dropout_rate=float(doc["dropout_rate"]))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    weight_decay: float
    batch_size: int
    epochs: int = 300
    seed: int = 0
    patience: int = 30

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "weight_decay": self.weight_decay,
                "batch_size": self.batch_size, "epochs": self.epochs,
                "seed": self.seed, "patience": self.patience}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return cls(learning_rate=float(doc["learning_rate"]),
                   weight_decay=float(doc["weight_decay"]),
                   batch_size=int(doc["batch_size"]), epochs=int(doc["epochs"]),
                   seed=int(doc["seed"]), patience=int(doc["patience"]))


def _param_shapes(cfg: MLPConfig) -> list[tuple[int, ...]]:
    """The parameter layout, in buffer order: W_1..W_L, head_w, then
    b_1..b_L, head_b. Weight matrices are (units out, units in)."""
    fan_in = [cfg.input_dim] + [cfg.hidden_units] * (cfg.hidden_layers - 1)
    return ([(cfg.hidden_units, f) for f in fan_in] + [(2, cfg.hidden_units)]
            + [(cfg.hidden_units,)] * cfg.hidden_layers + [(2,)])


class Parameters:
    """Weights of one network: contiguous views into the buffer ``flat``
    (zeros unless given), laid out by ``_param_shapes`` with the weight
    matrices in ``flat[:n_weights]``. head_w rows: 0 = mean head, 1 = raw
    variance head. Also the container for gradients, which share the layout.

    A 2-D ``flat`` of shape (M, P) holds a stack of M networks, one per
    row; every view then has a leading axis of length M."""

    def __init__(self, cfg: MLPConfig, flat: np.ndarray | None = None):
        shapes = _param_shapes(cfg)
        sizes = [math.prod(s) for s in shapes]
        self._cfg = cfg
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        lead = self.flat.shape[:-1]
        ends = np.cumsum(sizes)
        views = [self.flat[..., e - n:e].reshape(lead + s)
                 for e, n, s in zip(ends, sizes, shapes)]
        layers = cfg.hidden_layers
        self.hidden_w = views[:layers]
        self.head_w = views[layers]
        self.hidden_b = views[layers + 1:-1]
        self.head_b = views[-1]
        self.n_weights = int(ends[layers])

    def arrays(self) -> list[np.ndarray]:
        return [*self.hidden_w, *self.hidden_b, self.head_w, self.head_b]

    def copy(self) -> "Parameters":
        return Parameters(self._cfg, self.flat.copy())


@dataclass(frozen=True)
class TrainHistory:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    wall_time_s: float = field(compare=False)


def init_params(cfg: MLPConfig, seed: int) -> Parameters:
    """Gaussian weights scaled by sqrt(2 / fan_in), drawn in the order
    W_1..W_L, head_w; zero biases."""
    rng = np.random.default_rng(seed)
    p = Parameters(cfg)
    for w in [*p.hidden_w, p.head_w]:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return p


def _make_masks(cfg: MLPConfig, n: int,
                rngs: list[np.random.Generator]) -> np.ndarray | None:
    """Inverted dropout masks for a stack of networks, one generator each,
    as a (hidden_layers, len(rngs), n, units) array already divided by the
    keep probability. Each network draws its layers' masks in layer order
    from its own generator."""
    if cfg.dropout_rate == 0.0:
        return None
    keep = 1.0 - cfg.dropout_rate
    draws = np.empty((cfg.hidden_layers, len(rngs), n, cfg.hidden_units))
    for r, rng in enumerate(rngs):
        for layer in draws[:, r]:
            rng.random(out=layer)
    return np.divide(draws < keep, keep, out=draws)


def _activate(a: np.ndarray, runs, grad: bool):
    """Each run's activation on its rows of `a`: (values, derivatives),
    the derivatives None unless `grad`."""
    def one(kind, x):
        return _ACTIVATION_GRADS[kind](x) if grad else (_ACTIVATIONS[kind][0](x), None)

    if len(runs) == 1:
        return one(runs[0][0], a)
    parts = [one(kind, a[rows]) for kind, rows in runs]
    return (np.concatenate([h for h, _ in parts]),
            np.concatenate([d for _, d in parts]) if grad else None)


def _forward_batch(p: Parameters, cfg: MLPConfig, x: np.ndarray,
                   masks: np.ndarray | None, runs=None, grad: bool = False):
    """Returns (mu, var, sig, dacts, post).

    x has shape (n, input_dim), and masks[l] is hidden layer l's (n, units)
    dropout mask. For a stack of M networks, p holds (M, ...) views, x may
    also be (M, n, input_dim), and masks and outputs gain the leading M
    axis. `runs` lists (activation, row slice) pairs covering the stack in
    order; by default cfg.activation applies to every row. With `grad`,
    the post list holds one (n, units) array per hidden layer after
    dropout, index 0 being x itself, dacts each hidden layer's activation
    derivative and sig the sigmoid of the raw variance head, which is all
    _backward_batch needs; otherwise all three are None and only the
    current layer is kept.
    """
    runs = runs or ((cfg.activation, slice(None)),)
    dacts = [] if grad else None
    post = [x] if grad else None
    h = x
    for l in range(cfg.hidden_layers):
        a = h @ p.hidden_w[l].swapaxes(-1, -2) + p.hidden_b[l][..., None, :]
        h, d = _activate(a, runs, grad)
        if masks is not None:
            h = h * masks[l]
        if grad:
            dacts.append(d)
            post.append(h)
    out = h @ p.head_w.swapaxes(-1, -2) + p.head_b[..., None, :]
    mu = out[..., 0]
    raw = out[..., 1]
    if grad:
        e = np.exp(-np.abs(raw))
        return mu, _softplus(raw, e) + VAR_FLOOR, _sigmoid(raw, e), dacts, post
    return mu, _softplus(raw) + VAR_FLOOR, None, None, None


def _nll_arrays(mu: np.ndarray, var: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean NLL over the last axis: one value per network of a stack."""
    return np.mean((y - mu) ** 2 / (2.0 * var) + 0.5 * np.log(var), axis=-1)


def _backward_batch(p: Parameters, cfg: MLPConfig, y: np.ndarray,
                    masks: np.ndarray | None, cache: tuple,
                    grads: Parameters) -> None:
    """Writes the NLL gradient into `grads`, given the `cache` that
    _forward_batch returned with `grad` for this batch and these masks.
    Stacked networks get one gradient row each."""
    mu, var, sig, dacts, post = cache
    n = y.shape[-1]

    # d loss / d mu and d loss / d raw-variance-head output
    dmu = (mu - y) / var / n
    dvar = (-((y - mu) ** 2) / (2.0 * var**2) + 1.0 / (2.0 * var)) / n
    draw = dvar * sig

    dout = np.stack([dmu, draw], axis=-1)           # (..., n, 2)
    np.matmul(dout.swapaxes(-1, -2), post[-1], out=grads.head_w)
    dout.sum(axis=-2, out=grads.head_b)

    delta = dout @ p.head_w                          # gradient w.r.t. h_L
    for l in range(cfg.hidden_layers - 1, -1, -1):
        if masks is not None:
            delta = delta * masks[l]
        da = delta * dacts[l]
        np.matmul(da.swapaxes(-1, -2), post[l], out=grads.hidden_w[l])
        da.sum(axis=-2, out=grads.hidden_b[l])
        if l:
            delta = da @ p.hidden_w[l]


def backward(p: Parameters, cfg: MLPConfig,
             batch: tuple[np.ndarray, np.ndarray]) -> Parameters:
    """Analytic gradient of the mean NLL over a (features, targets) batch,
    without dropout or weight decay: training applies its own masks and
    decays the weights in the AdamW update."""
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise DimensionMismatch(f"expected batch of shape (n, {cfg.input_dim})")
    if x.shape[0] == 0:
        raise LengthMismatch("batch must be non-empty")
    grads = Parameters(cfg, np.empty_like(p.flat))
    _backward_batch(p, cfg, y, None, _forward_batch(p, cfg, x, None, grad=True), grads)
    return grads


def stack_key(mlp: MLPConfig, tc: TrainConfig) -> tuple:
    """What networks must share to train as one stack: everything but the
    activation and the seed."""
    return (mlp.input_dim, mlp.hidden_layers, mlp.hidden_units, mlp.dropout_rate,
            replace(tc, seed=0))


def _activation_runs(kinds: list[ActivationKind]) -> list[tuple[ActivationKind, slice]]:
    """(activation, row slice) runs of a stack whose rows have `kinds`."""
    runs, start = [], 0
    for kind, group in itertools.groupby(kinds):
        stop = start + len(list(group))
        runs.append((kind, slice(start, stop)))
        start = stop
    return runs


def train(splits: SplitDataset, normalizer: Normalizer, mlp: MLPConfig,
          tc: TrainConfig) -> tuple[Parameters, TrainHistory]:
    """Mini-batch AdamW on the negative log-likelihood: train_stack with
    one network. Raises DivergedLoss when the loss or the parameters stop
    being finite."""
    [(params, history)] = train_stack(splits, normalizer, [(mlp, tc)])
    return params, history


def train_stack(splits: SplitDataset, normalizer: Normalizer,
                members: list[tuple[MLPConfig, TrainConfig]]
                ) -> list[tuple[Parameters, TrainHistory]]:
    """Mini-batch AdamW on the negative log-likelihood, for networks that
    share a stack_key, all in one loop.

    Weight decay is decoupled: applied directly in the update step, not
    through the loss gradient. Each network gets back the snapshot with
    its lowest validation NLL, and stops once validation fails to improve
    for more than `patience` consecutive epochs. Every network keeps its
    own initial weights, batch order and dropout masks, so each result is
    bit-identical to training that network alone. Returns one
    (parameters, history) pair per member, in order.

    When members diverge, raises the DivergedLoss of the lowest-indexed
    one, the error that training them one after another raises first;
    its `member_index` is that member's position in `members`.
    """
    if not members:
        raise ValueError("need at least one network to train")
    if len({stack_key(mlp, tc) for mlp, tc in members}) != 1:
        raise ValueError("stacked networks must share their shape and every "
                         "training setting but the seed")
    if len(splits.train) == 0 or len(splits.validation) == 0:
        raise ValueError("train and validation splits must be non-empty")
    started = time.perf_counter()
    cfg, tc = members[0]

    x_train = normalizer.transform_features(splits.train.features)
    y_train = normalizer.transform_targets(splits.train.targets)
    x_val = normalizer.transform_features(splits.validation.features)
    y_val = normalizer.transform_targets(splits.validation.targets)

    # row r of the stack is member rows[r]; rows are grouped by activation
    # so each activation runs on one slice
    rows = sorted(range(len(members)), key=lambda i: members[i][0].activation.value)
    theta = np.stack([init_params(members[i][0], members[i][1].seed).flat for i in rows])
    # distinct stream from init_params' so batching noise is not tied to
    # the initial weights
    rngs = [np.random.default_rng((int(members[i][1].seed) + 0x9E3779B9) % 2**64)
            for i in rows]
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_theta = theta.copy()
    best_val = np.full(len(rows), np.inf)
    step = 0

    def views():
        # rebuilt only when the stack shrinks: the index that selects its
        # rows, the parameter and gradient views, and the activation runs.
        # A stack of one drops its row axis, because plain 2-D matmuls
        # cost less than a stack of one.
        lead = 0 if len(rows) == 1 else slice(None)
        return (lead, Parameters(cfg, theta[lead]),
                Parameters(cfg, np.empty_like(theta[lead])),
                _activation_runs([members[i][0].activation for i in rows]))

    lead, params, grads, runs = views()
    n_w = params.n_weights

    n = x_train.shape[0]
    train_losses: list[list[float]] = [[] for _ in members]
    val_losses: list[list[float]] = [[] for _ in members]
    best_epoch = [0] * len(members)
    stale = [0] * len(members)
    results: dict[int, tuple[Parameters, TrainHistory]] = {}
    failed: tuple[int, DivergedLoss] | None = None

    for epoch in range(tc.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        epoch_loss = np.zeros(len(rows))
        finite = np.ones(len(rows), dtype=bool)
        for start in range(0, n, tc.batch_size):
            idx = order[lead, start:start + tc.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            masks = _make_masks(cfg, idx.shape[-1], rngs)
            if masks is not None:
                masks = masks[:, lead]
            cache = _forward_batch(params, cfg, xb, masks, runs, grad=True)
            batch_loss = _nll_arrays(cache[0], cache[1], yb)
            finite &= np.isfinite(batch_loss)
            epoch_loss += batch_loss * idx.shape[-1]
            _backward_batch(params, cfg, yb, masks, cache, grads)

            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            g = grads.flat                  # broadcasts over a stack of one
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            if tc.weight_decay:
                update[:, :n_w] += tc.weight_decay * theta[:, :n_w]
            theta -= tc.learning_rate * update

        mu, var, _, _, _ = _forward_batch(params, cfg, x_val, None, runs)
        val_loss = np.atleast_1d(_nll_arrays(mu, var, y_val))
        # a network whose batch loss, parameters or validation loss stopped
        # being finite this epoch diverged in it
        diverged = ~(finite & np.isfinite(theta).all(axis=1) & np.isfinite(val_loss))
        done = np.zeros(len(rows), dtype=bool)
        for r, i in enumerate(rows):
            if diverged[r]:
                if failed is None or i < failed[0]:
                    failed = (i, DivergedLoss(epoch))
                continue
            train_losses[i].append(float(epoch_loss[r] / n))
            val_losses[i].append(float(val_loss[r]))
            if val_loss[r] < best_val[r]:
                best_val[r] = val_loss[r]
                best_theta[r] = theta[r]
                best_epoch[i] = epoch
                stale[i] = 0
            else:
                stale[i] += 1
            done[r] = stale[i] > tc.patience or epoch == tc.epochs - 1
            if done[r]:
                results[i] = (Parameters(members[i][0], best_theta[r].copy()),
                              TrainHistory(train_losses[i], val_losses[i], best_epoch[i],
                                           time.perf_counter() - started))

        # finished and diverged networks leave the stack, and so does every
        # network indexed above a diverged one: training the members in
        # order would never reach it
        keep = ~(diverged | done)
        if failed is not None:
            keep &= np.array(rows) < failed[0]
        if not keep.any():
            break
        if not keep.all():
            theta, m, v, best_theta = (a[keep] for a in (theta, m, v, best_theta))
            best_val = best_val[keep]
            rows = [i for i, k in zip(rows, keep) if k]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
            lead, params, grads, runs = views()

    if failed is not None:
        index, exc = failed
        exc.member_index = index
        raise exc
    return [results[i] for i in range(len(members))]


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of near-equal blocks of at most _BLOCK_ROWS
    rows covering n rows; once n > _BLOCK_ROWS every block has at least
    _BLOCK_ROWS // 2 rows, so none is left with one row."""
    blocks = max(1, -(-n // _BLOCK_ROWS))
    bounds = [n * b // blocks for b in range(blocks + 1)]
    return list(zip(bounds, bounds[1:]))


def predict_batch(p: Parameters, cfg: MLPConfig, normalizer: Normalizer,
                  raw_inputs: np.ndarray,
                  out: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Inference on raw (physical-unit) inputs: (mu, var) arrays of shape
    (N,), mapped back through the target affine transform, variances by
    its square. Runs in row blocks (see the module docstring); `out`, when
    given, is the pair of (N,) arrays, views included, that receive mu
    and var, and is returned."""
    raw_inputs = np.asarray(raw_inputs, dtype=np.float64)
    if raw_inputs.ndim == 1:
        raw_inputs = raw_inputs[None, :]
    if raw_inputs.shape[1] != cfg.input_dim:
        raise DimensionMismatch(f"expected inputs of width {cfg.input_dim}")
    n = raw_inputs.shape[0]
    mu_out, var_out = out if out is not None else (np.empty(n), np.empty(n))
    for start, stop in _row_blocks(n):
        x = normalizer.transform_features(raw_inputs[start:stop])
        mu, var, _, _, _ = _forward_batch(p, cfg, x, None)
        mu_out[start:stop] = normalizer.inverse_target_mean(mu)
        var_out[start:stop] = normalizer.inverse_target_var(var)
    return mu_out, var_out


# --- serialization --------------------------------------------------------

def params_to_doc(p: Parameters, cfg: MLPConfig, normalizer: Normalizer) -> dict:
    """Versioned JSON-ready document. Floats keep full precision (shortest
    round-trip decimal form), so load(dump(p)) is bit-exact."""
    def pack(a: np.ndarray) -> dict:
        return {"shape": list(a.shape), "data": [float(x) for x in a.ravel()]}

    return {
        "format_version": PARAMS_FORMAT_VERSION,
        "config": cfg.to_dict(),
        "normalizer": normalizer.to_dict(),
        "parameters": {
            "hidden_w": [pack(w) for w in p.hidden_w],
            "hidden_b": [pack(b) for b in p.hidden_b],
            "head_w": pack(p.head_w),
            "head_b": pack(p.head_b),
        },
    }


def params_from_doc(doc: dict) -> tuple[Parameters, MLPConfig, Normalizer]:
    version = doc.get("format_version")
    if version != PARAMS_FORMAT_VERSION:
        raise VersionMismatch(f"unsupported parameter format {version!r}")
    try:
        cfg = MLPConfig.from_dict(doc["config"])
        normalizer = Normalizer.from_dict(doc["normalizer"])
        block = doc["parameters"]
        params = Parameters(cfg)
        entries = [*block["hidden_w"], *block["hidden_b"], block["head_w"], block["head_b"]]
        shapes = [tuple(e["shape"]) for e in entries]
        if shapes != [a.shape for a in params.arrays()]:
            raise CorruptArtifact(f"parameter shapes {shapes} do not match the config")
        for entry, a in zip(entries, params.arrays()):
            a[...] = np.array(entry["data"], dtype=np.float64).reshape(a.shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"malformed parameter document: {exc}") from exc
    if not np.all(np.isfinite(params.flat)):
        raise CorruptArtifact("malformed parameter document: non-finite parameter entry")
    return params, cfg, normalizer
