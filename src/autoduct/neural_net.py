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
decoupled weight decay. Gradients are computed analytically in
``backward``; the test suite checks them against central finite
differences. Each training step runs one forward pass, whose cache the
backward pass reuses. A network's parameters are views into one flat
float64 buffer, all weight matrices first and all biases after, so the
AdamW update is one vector operation and weight decay is one slice.

Activation constants (fixed, from the original publications of each
unit): LeakyReLU negative slope 0.01; SELU lambda 1.0507009873554805 and
alpha 1.6732632423543772; GELU in its tanh form with coefficients
sqrt(2/pi) and 0.044715; ELU alpha 1.0. The ReLU derivative at exactly 0
is taken as 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import Normalizer, SplitDataset
from .errors import (
    CorruptArtifact,
    DimensionMismatch,
    DivergedLoss,
    LengthMismatch,
    NonPositiveVariance,
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


def _softplus(x: np.ndarray) -> np.ndarray:
    # overflow-safe: softplus(x) = max(x, 0) + log1p(exp(-|x|))
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_B * x**3)))


def _gelu_deriv(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_B * x**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_B * x**2)


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
    variance head. Also the container for gradients, which share the layout."""

    def __init__(self, cfg: MLPConfig, flat: np.ndarray | None = None):
        shapes = _param_shapes(cfg)
        sizes = [math.prod(s) for s in shapes]
        self._cfg = cfg
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        ends = np.cumsum(sizes)
        views = [self.flat[e - n:e].reshape(s) for e, n, s in zip(ends, sizes, shapes)]
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
class GaussianPrediction:
    mu: float
    var: float


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


def _make_masks(cfg: MLPConfig, n: int, rng: np.random.Generator) -> list[np.ndarray] | None:
    """Inverted dropout masks, one per hidden layer, already divided by
    the keep probability."""
    if cfg.dropout_rate == 0.0:
        return None
    keep = 1.0 - cfg.dropout_rate
    return [(rng.random((n, cfg.hidden_units)) < keep) / keep
            for _ in range(cfg.hidden_layers)]


def _forward_batch(p: Parameters, cfg: MLPConfig, x: np.ndarray,
                   masks: list[np.ndarray] | None):
    """Returns (mu, var, raw, pre_activations, post_dropout_activations).

    x has shape (n, input_dim); raw is the variance head before softplus;
    the activation lists hold one (n, units) array per hidden layer, with
    index 0 of the post list being x itself.
    """
    act, _ = _ACTIVATIONS[cfg.activation]
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    h = x
    for l in range(cfg.hidden_layers):
        a = h @ p.hidden_w[l].T + p.hidden_b[l]
        h = act(a)
        if masks is not None:
            h = h * masks[l]
        pre.append(a)
        post.append(h)
    out = h @ p.head_w.T + p.head_b
    mu = out[:, 0]
    raw = out[:, 1]
    var = _softplus(raw) + VAR_FLOOR
    return mu, var, raw, pre, post


def forward(p: Parameters, cfg: MLPConfig, x: np.ndarray, training_mode: bool = False,
            rng: np.random.Generator | None = None) -> GaussianPrediction:
    """Evaluate one normalized input vector.

    Dropout fires only in training mode; the masks use inverted scaling so
    inference applies no correction. Training mode with dropout draws its
    masks from `rng`, which must then be given: there is no unseeded
    fallback.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.input_dim,):
        raise DimensionMismatch(f"expected input of shape ({cfg.input_dim},), got {x.shape}")
    masks = None
    if training_mode and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an explicit rng")
        masks = _make_masks(cfg, 1, rng)
    mu, var, _, _, _ = _forward_batch(p, cfg, x[None, :], masks)
    return GaussianPrediction(float(mu[0]), float(var[0]))


def nll_loss(preds: list[GaussianPrediction], targets: list[float]) -> float:
    """Mean negative log-likelihood, constant term omitted."""
    if len(preds) != len(targets):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(targets)} targets")
    if not preds:
        raise LengthMismatch("need at least one sample")
    total = 0.0
    for pred, y in zip(preds, targets):
        if pred.var <= 0:
            raise NonPositiveVariance(f"variance {pred.var} is not positive")
        total += (y - pred.mu) ** 2 / (2.0 * pred.var) + 0.5 * np.log(pred.var)
    return float(total / len(preds))


def _nll_arrays(mu: np.ndarray, var: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((y - mu) ** 2 / (2.0 * var) + 0.5 * np.log(var)))


def _backward_batch(p: Parameters, cfg: MLPConfig, y: np.ndarray,
                    masks: list[np.ndarray] | None, cache: tuple,
                    grads: Parameters) -> None:
    """Writes the NLL gradient into `grads`, given the `cache` that
    _forward_batch returned for this batch and these masks."""
    mu, var, raw, pre, post = cache
    n = y.shape[0]
    _, dact = _ACTIVATIONS[cfg.activation]

    # d loss / d mu and d loss / d raw-variance-head output
    dmu = (mu - y) / var / n
    dvar = (-((y - mu) ** 2) / (2.0 * var**2) + 1.0 / (2.0 * var)) / n
    draw = dvar * _sigmoid(raw)

    dout = np.stack([dmu, draw], axis=1)            # (n, 2)
    np.matmul(dout.T, post[-1], out=grads.head_w)
    dout.sum(axis=0, out=grads.head_b)

    delta = dout @ p.head_w                          # gradient w.r.t. h_L
    for l in range(cfg.hidden_layers - 1, -1, -1):
        if masks is not None:
            delta = delta * masks[l]
        da = delta * dact(pre[l])
        np.matmul(da.T, post[l], out=grads.hidden_w[l])
        da.sum(axis=0, out=grads.hidden_b[l])
        delta = da @ p.hidden_w[l]


def backward(p: Parameters, cfg: MLPConfig, batch: tuple[np.ndarray, np.ndarray],
             weight_decay: float = 0.0) -> Parameters:
    """Analytic gradient of nll_loss over a (features, targets) batch,
    plus weight_decay * W on every weight matrix (never on biases).
    Dropout is not applied here; training replays its own masks
    internally."""
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise DimensionMismatch(f"expected batch of shape (n, {cfg.input_dim})")
    if x.shape[0] == 0:
        raise LengthMismatch("batch must be non-empty")
    grads = Parameters(cfg, np.empty_like(p.flat))
    _backward_batch(p, cfg, y, None, _forward_batch(p, cfg, x, None), grads)
    if weight_decay:
        grads.flat[:p.n_weights] += weight_decay * p.flat[:p.n_weights]
    return grads


def train(splits: SplitDataset, normalizer: Normalizer, mlp: MLPConfig,
          tc: TrainConfig) -> tuple[Parameters, TrainHistory]:
    """Mini-batch AdamW on the negative log-likelihood.

    Weight decay is decoupled: applied directly in the update step, not
    through the loss gradient. The parameters returned are the snapshot
    with the lowest validation NLL; training stops once validation fails
    to improve for more than `patience` consecutive epochs.
    """
    if len(splits.train) == 0 or len(splits.validation) == 0:
        raise ValueError("train and validation splits must be non-empty")
    started = time.perf_counter()

    x_train = normalizer.transform_features(splits.train.features)
    y_train = normalizer.transform_targets(splits.train.targets)
    x_val = normalizer.transform_features(splits.validation.features)
    y_val = normalizer.transform_targets(splits.validation.targets)

    params = init_params(mlp, tc.seed)
    # distinct stream from init_params' so batching noise is not tied to
    # the initial weights
    rng = np.random.default_rng((int(tc.seed) + 0x9E3779B9) % 2**64)
    theta = params.flat
    grads = Parameters(mlp, np.empty_like(theta))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    n_w = params.n_weights
    step = 0

    n = x_train.shape[0]
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_theta = theta.copy()
    best_epoch = 0
    stale = 0

    for epoch in range(tc.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            masks = _make_masks(mlp, xb.shape[0], rng)
            cache = _forward_batch(params, mlp, xb, masks)
            batch_loss = _nll_arrays(cache[0], cache[1], yb)
            if not np.isfinite(batch_loss):
                raise DivergedLoss(epoch)
            epoch_loss += batch_loss * xb.shape[0]
            _backward_batch(params, mlp, yb, masks, cache, grads)

            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            g = grads.flat
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            if tc.weight_decay:
                update[:n_w] += tc.weight_decay * theta[:n_w]
            theta -= tc.learning_rate * update

        if not np.all(np.isfinite(theta)):
            raise DivergedLoss(epoch)
        train_losses.append(epoch_loss / n)
        mu, var, _, _, _ = _forward_batch(params, mlp, x_val, None)
        val_loss = _nll_arrays(mu, var, y_val)
        if not np.isfinite(val_loss):
            raise DivergedLoss(epoch)
        val_losses.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_theta[...] = theta
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > tc.patience:
                break

    history = TrainHistory(train_losses, val_losses, best_epoch,
                           time.perf_counter() - started)
    return Parameters(mlp, best_theta), history


def predict_batch(p: Parameters, cfg: MLPConfig, normalizer: Normalizer,
                  raw_inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference on raw (physical-unit) inputs: (mu, var) arrays of shape
    (N,), mapped back through the target affine transform, variances by
    its square."""
    raw_inputs = np.asarray(raw_inputs, dtype=np.float64)
    if raw_inputs.ndim == 1:
        raw_inputs = raw_inputs[None, :]
    if raw_inputs.shape[1] != cfg.input_dim:
        raise DimensionMismatch(f"expected inputs of width {cfg.input_dim}")
    x = normalizer.transform_features(raw_inputs)
    mu, var, _, _, _ = _forward_batch(p, cfg, x, None)
    return normalizer.inverse_target_mean(mu), normalizer.inverse_target_var(var)


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
