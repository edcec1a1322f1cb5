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
decoupled weight decay. Gradients are computed analytically; the test
suite checks them against central finite differences of a per-row
reference network. A network's parameters are views into one flat
float64 buffer, all weight matrices first and all biases after, so the
AdamW update is one vector operation and weight decay touches one
leading span.

There is one training loop, ``train_stack``, and it takes any list of
networks. Those that differ only in activation and seed (one
``stack_key``) train as one stack, and the stacks train in the order of
their first member. A stack of M networks holds their parameters as the
rows of one (M, P) buffer; each step gathers every network's mini-batch
into an (M, B, d) array, runs each layer as one stacked matmul and each
activation on its own rows, and updates all rows with one AdamW step.
The step's forward pass keeps each layer's activation derivative, so the
backward pass recomputes none. Every network draws its batch order and
dropout masks from its own generator and leaves the stack when it stops
early, so each result is bit-identical to training that network alone,
and a divergence is raised as training them one after another would
raise it. ``train`` is the one-network case.

Training workspace: ``train_stack`` allocates every array a step uses
once per stack, in a ``_Workspace``: the gathered batch, one
pre-activation buffer shared by all layers (backward reuses it), each
layer's output and activation derivative, the head, the loss terms,
``dout`` and ``delta``, the dropout masks and their bool comparison, and
one AdamW temporary (the spent gradient is the other). It rebuilds them
only when the stack shrinks. The batches, the short last batch and the
per-epoch validation pass take views of the row count they need from the
same buffers, and every step writes into them with ``out=`` and in-place
ufuncs. At these small shapes each ufunc costs about its call overhead,
so what a step reuses is made once: ``Parameters`` makes its biases'
broadcast views when it is built, and each workspace view binds every
layer's activation kernels to their runs of stack rows when it is first
asked for. The head's mean and raw-variance columns are contiguous
arrays, each its column of the (..., n, 2) head matmul plus its bias, so
softplus, the loss and the head's gradient arithmetic run on contiguous
operands; two copies fill ``dout`` for the head's matmuls and bias sum.
Bias gradients sum rows with ``einsum``, which gives ``sum(axis=-2)``'s
bits from two columns up; a one-column sum stays ``sum``, which adds it
pairwise.
Each activation is a kernel that writes its value,
and its derivative when asked, into given buffers, with the bits of the
plain numpy expression it replaces. The piecewise units (leaky ReLU,
ELU, SELU, softplus's derivative) select without masks, by arithmetic
forms that are exact on each side of the kink; the forms and why each is
exact are given at the kernels.

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

import base64
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from types import SimpleNamespace

import numpy as np

from .dataset import _BLOCK_ROWS, Normalizer, SplitDataset
from .errors import (
    CorruptArtifact,
    DimensionMismatch,
    DivergedLoss,
)

VAR_FLOOR = 1e-6        # on the normalized target scale
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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


# Activation kernels: kernel(x, h, d, s, mask) writes act(x) into h and,
# when d is not None, act'(x) into d. s (float) and mask (bool) are scratch
# of x's shape; only ReLU uses mask, and it may be None for the others.
# With d, a kernel may also overwrite x. Each kernel's bits equal those of
# the plain numpy expression in its comment, -0.0, subnormals, overflow
# and NaN included. A masked select (np.where, or np.copyto with where=)
# costs more than a transcendental once the mask is random, so the
# piecewise units select by arithmetic that is exact on each side of the
# kink: comparisons give 0.0 / 1.0, and max / min / copysign pick an
# operand without rounding.

def _relu(x, h, d, s, mask):
    # max(x, 0); (x > 0) as 0.0 / 1.0. The comparison goes through a bool
    # array: written straight into the float d it is cast in a buffered
    # loop, about 5% slower at every shape the search space draws
    np.maximum(x, 0.0, out=h)
    if d is not None:
        np.greater(x, 0.0, out=mask)
        np.copyto(d, mask)


def _leaky_relu(x, h, d, s, mask):
    # where(x > 0, x, slope * x) as max(x, slope * x): with 0 < slope < 1,
    # slope * x is below x for x > 0 and at or above it otherwise, and at
    # x = +-0 both operands are the same signed zero.
    # where(x > 0, 1, slope) as max(float(x > 0), slope)
    np.multiply(x, _LEAKY_SLOPE, out=h)
    np.maximum(x, h, out=h)
    if d is not None:
        np.greater(x, 0.0, out=d)
        np.maximum(d, _LEAKY_SLOPE, out=d)


def _exponential_linear(x, h, d, s, mask, alpha=None, scale=None):
    # ELU, or SELU given alpha and scale:
    # scale * where(x > 0, x, alpha * expm1(x)) as
    #   scale * copysign(max(x, 0) + min(alpha * expm1(x), 0), x):
    # one of the two terms is 0 on each side of the kink, so the sum adds
    # nothing to the other; only at x = -0.0 can the sum lose the sign
    # (SIMD max / min may return +0 for (-0, 0)), and copysign restores it.
    # scale * where(x > 0, 1, alpha * exp(x)) as
    #   scale * ((alpha + (1 - alpha) * float(x > 0)) * exp(min(x, 0))):
    # 1 - alpha is exact (Sterbenz), so alpha + (1 - alpha) is exactly 1,
    # and exp(min(x, 0)) is exp(0) = 1 for x > 0. ELU's factor is 1.
    np.expm1(x, out=s)
    if alpha is not None:
        s *= alpha
    np.minimum(s, 0.0, out=s)
    np.maximum(x, 0.0, out=h)
    h += s
    np.copysign(h, x, out=h)
    if scale is not None:
        h *= scale
    if d is None:
        return
    np.minimum(x, 0.0, out=s)
    if alpha is None:
        np.exp(s, out=d)
    else:
        np.greater(x, 0.0, out=d)
        d *= 1.0 - alpha
        d += alpha
        d *= np.exp(s, out=s)
    if scale is not None:
        d *= scale


def _gelu(x, h, d, s, mask):
    # no select: the plain expression's operands in its order
    # (0.5 * x) * (1 + t) with t = tanh(c * (x + b * ((x * x) * x)));
    # 0.5 * (1 + t) + (0.5 * x) * (1 - t * t) * c * (1 + (3 * b) * (x * x))
    np.multiply(x, 0.5, out=h)
    np.multiply(x, x, out=s)
    t = s if d is None else d
    np.multiply(s, x, out=t)
    t *= _GELU_B
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if d is not None:
        np.multiply(t, t, out=x)
        np.subtract(1.0, x, out=x)
        x *= h
        x *= _GELU_C
        s *= 3.0 * _GELU_B
        s += 1.0
        x *= s
    t += 1.0
    h *= t
    if d is not None:
        d *= 0.5
        d += x


def _softplus(x, h, d, s, mask):
    # overflow-safe: max(x, 0) + log1p(e) with e = exp(-|x|); the
    # derivative, the sigmoid, divides by 1 + e, which never overflows:
    # where(x >= 0, 1 / (1 + e), e / (1 + e)) as max(float(x >= 0), e) / (1 + e):
    # 0 <= e <= 1, so the max picks 1 for x >= 0 and e otherwise; a NaN
    # compares false and its e is NaN, which max propagates
    np.abs(x, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.maximum(x, 0.0, out=h)
    if d is None:
        h += np.log1p(s, out=s)
        return
    np.log1p(s, out=d)
    h += d
    np.greater_equal(x, 0.0, out=d)
    np.maximum(d, s, out=d)
    s += 1.0
    d /= s


_ACTIVATIONS = {
    ActivationKind.RELU: _relu,
    ActivationKind.LEAKY_RELU: _leaky_relu,
    ActivationKind.GELU: _gelu,
    ActivationKind.SELU: lambda x, h, d, s, mask: _exponential_linear(
        x, h, d, s, mask, _SELU_ALPHA, _SELU_LAMBDA),
    ActivationKind.ELU: _exponential_linear,
    ActivationKind.SOFTPLUS: _softplus,
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
    epochs: int
    seed: int
    patience: int

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
        # the biases as broadcast operands of a pass over (..., n, ...)
        # rows, made once: a view costs about as much as a small add
        self.hidden_b_rows = [b[..., None, :] for b in self.hidden_b]
        self.head_b_cols = (self.head_b[..., 0, None], self.head_b[..., 1, None])

    def arrays(self) -> list[np.ndarray]:
        return [*self.hidden_w, *self.hidden_b, self.head_w, self.head_b]

    def copy(self) -> "Parameters":
        return Parameters(self._cfg, self.flat.copy())


@dataclass(frozen=True)
class TrainHistory:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def init_params(cfg: MLPConfig, seed: int) -> Parameters:
    """Gaussian weights scaled by sqrt(2 / fan_in), drawn in the order
    W_1..W_L, head_w; zero biases."""
    rng = np.random.default_rng(seed)
    p = Parameters(cfg)
    for w in [*p.hidden_w, p.head_w]:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return p


class _Workspace:
    """Preallocated arrays for the passes of one network (`lead` = ()) or
    a stack of M networks (`lead` = (M,)), so that a pass allocates none.

    Each array is a view, for the row count a pass needs, into a flat
    buffer sized for the most rows that use it: passes without gradients
    (validation, inference blocks) of up to `rows` rows and, when
    `batch_rows`, training steps of up to `batch_rows` rows. A training
    run's batches, its short last batch and its validation pass thereby
    share one arena. The layers share one pre-activation buffer `a`; a pass
    without gradients also writes every layer's output into one buffer,
    post[0]. The head's mean and raw variance columns are contiguous arrays,
    apart from its (n, 2) matmul result. Only a workspace for training
    steps holds the loss terms. `runs` lists (activation, row slice) pairs
    covering the stack in order; by default cfg.activation applies to every
    row. The views for each row count, and each layer's activation kernels
    bound to their rows of those views, are made once and kept."""

    def __init__(self, cfg: MLPConfig, lead: tuple[int, ...], rows: int,
                 batch_rows: int = 0, runs=None):
        self._cfg, self._lead, self._batch_rows = cfg, tuple(lead), batch_rows
        self._runs = runs or ((cfg.activation, slice(None)),)
        self._views: dict[int, SimpleNamespace] = {}
        width = math.prod(self._lead) * max(rows, batch_rows)
        batch = math.prod(self._lead) * batch_rows
        loss = width if batch_rows else 0
        units, layers = cfg.hidden_units, cfg.hidden_layers
        self._flat = {name: np.empty(size, dtype) for name, size, dtype in (
            ("a", width * units, float), ("s", width * units, float),
            ("mask", width * units, bool), ("post0", width * units, float),
            ("out", width * 2, float),
            ("var", width, float), ("t", width, float),
            *((name, loss, float) for name in ("u", "sq", "v2")),
            ("x", batch * cfg.input_dim, float), ("y", batch, float), ("sig", batch, float),
            *((f"post{l}", batch * units, float) for l in range(1, layers)),
            *((f"dact{l}", batch * units, float) for l in range(layers)),
            ("delta", batch * units, float), ("dout", batch * 2, float),
            *((name, batch * units * layers if cfg.dropout_rate else 0, dtype)
              for name, dtype in (("draws", float), ("kept", bool))))}

    def at(self, n: int) -> SimpleNamespace:
        """The views for a pass of n rows; the gradient ones only when n
        fits a training step."""
        w = self._views.get(n)
        if w is None:
            w = self._views[n] = self._make_views(n)
        return w

    def _make_views(self, n: int) -> SimpleNamespace:
        cfg, lead = self._cfg, self._lead

        def view(name, *tail, shape=None):
            shape = shape or (*lead, n, *tail)
            return self._flat[name][:math.prod(shape)].reshape(shape)

        def bind(h, d):
            # each run's kernel on its rows of a, h (and d), s and mask; a
            # single run takes the whole arrays, as a stack of one has no
            # row axis to slice
            arrays = (w.a, h, d, w.s, w.mask)
            if len(self._runs) == 1:
                return [partial(_ACTIVATIONS[self._runs[0][0]], *arrays)]
            return [partial(_ACTIVATIONS[kind], *(None if v is None else v[rows]
                                                  for v in arrays))
                    for kind, rows in self._runs]

        units, layers = cfg.hidden_units, cfg.hidden_layers
        # the head's contiguous mean and raw variance take the first rows of
        # s and a, which a pass is done with once its last hidden layer is:
        # neither the loss nor the backward pass writes s, and raw is spent
        # once softplus has read it
        w = SimpleNamespace(a=view("a", units), s=view("s", units),
                            mask=view("mask", units), out=view("out", 2),
                            post=[view("post0", units)], mu=view("s"), raw=view("a"),
                            var=view("var"), t=view("t"))
        w.out_mu, w.out_raw = w.out[..., 0], w.out[..., 1]
        w.acts = bind(w.post[0], None)
        if self._batch_rows:
            w.u, w.sq, w.v2 = view("u"), view("sq"), view("v2")
        if n <= self._batch_rows:
            w.x, w.y, w.sig = view("x", cfg.input_dim), view("y"), view("sig")
            w.post += [view(f"post{l}", units) for l in range(1, layers)]
            w.dacts = [view(f"dact{l}", units) for l in range(layers)]
            w.grad_acts = [bind(h, d) for h, d in zip(w.post, w.dacts)]
            w.delta, w.dout = view("delta", units), view("dout", 2)
            w.dout_t = w.dout.swapaxes(-1, -2)
            w.dout_mu, w.dout_raw = w.dout[..., 0], w.dout[..., 1]
            shape = (layers, *(lead or (1,)), n, units)
            w.masks = view("draws", shape=shape) if cfg.dropout_rate else None
            w.kept = view("kept", shape=shape) if cfg.dropout_rate else None
        return w


def _make_masks(cfg: MLPConfig, rngs: list[np.random.Generator],
                out: np.ndarray | None, kept: np.ndarray | None = None) -> np.ndarray | None:
    """Inverted dropout masks for a stack of networks, one generator each,
    already divided by the keep probability; None without dropout. `out` is
    a float array of shape (hidden_layers, len(rngs), n, units) that
    receives the masks and is returned; `kept`, a bool array of its shape,
    takes the comparison (allocated when not given). Each network draws
    its layers' masks in layer order from its own generator."""
    if cfg.dropout_rate == 0.0:
        return None
    keep = 1.0 - cfg.dropout_rate
    for r, rng in enumerate(rngs):
        for layer in out[:, r]:
            rng.random(out=layer)
    # (draws < keep) / keep: exactly 1 / keep where kept, +0.0 elsewhere
    kept = np.less(out, keep, out=kept)
    np.multiply(kept, 1.0 / keep, out=out)
    return out


def _forward_batch(p: Parameters, cfg: MLPConfig, x: np.ndarray,
                   masks: np.ndarray | None, ws: _Workspace,
                   grad: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Returns (mu, var): views into the workspace `ws`, valid until its
    next pass.

    x has shape (n, input_dim), and masks[l] is hidden layer l's (n, units)
    dropout mask. For a stack of M networks, p holds (M, ...) views, x may
    also be (M, n, input_dim), and masks and outputs gain the leading M
    axis; each row takes the activation of its run in `ws`. With `grad`,
    the workspace keeps each hidden layer's output after dropout, its
    activation derivative and the sigmoid of the raw variance head, which
    is all _backward_batch needs; otherwise every layer reuses one buffer.
    """
    w = ws.at(x.shape[-2])
    h = x
    for l in range(cfg.hidden_layers):
        np.matmul(h, p.hidden_w[l].swapaxes(-1, -2), out=w.a)
        w.a += p.hidden_b_rows[l]
        h = w.post[l if grad else 0]
        for act in w.grad_acts[l] if grad else w.acts:
            act()
        if masks is not None:
            h *= masks[l]
    np.matmul(h, p.head_w.swapaxes(-1, -2), out=w.out)
    # each head column leaves the (n, 2) result as a contiguous array with
    # its bias added, so everything after runs on contiguous operands
    np.add(w.out_mu, p.head_b_cols[0], out=w.mu)
    np.add(w.out_raw, p.head_b_cols[1], out=w.raw)
    _softplus(w.raw, w.var, w.sig if grad else None, w.t, None)
    w.var += VAR_FLOOR
    return w.mu, w.var


def _nll_arrays(mu: np.ndarray, var: np.ndarray, y: np.ndarray,
                w: SimpleNamespace) -> np.ndarray:
    """Mean NLL over the last axis: one value per network of a stack. The
    terms are written into the workspace views `w`, and (y - mu)**2 and
    2 var stay in w.sq and w.v2 for _backward_batch."""
    # (y - mu)**2 / (2 var) + 0.5 log(var)
    np.subtract(y, mu, out=w.sq)
    np.square(w.sq, out=w.sq)
    np.multiply(var, 2.0, out=w.v2)
    np.divide(w.sq, w.v2, out=w.t)
    np.log(var, out=w.u)
    w.u *= 0.5
    w.t += w.u
    # np.mean's own sum and division, without its Python wrapper
    return np.add.reduce(w.t, axis=-1) / w.t.shape[-1]


def _sum_rows(a: np.ndarray, out: np.ndarray) -> None:
    """a.sum(axis=-2, out=out), bit for bit. With two or more columns that
    sum runs down each column in row order, as einsum does at less cost;
    a single column it sums as one contiguous, pairwise sum, which einsum
    does not."""
    if a.shape[-1] > 1:
        np.einsum("...bu->...u", a, out=out)
    else:
        a.sum(axis=-2, out=out)


def _backward_batch(p: Parameters, cfg: MLPConfig, x: np.ndarray, y: np.ndarray,
                    masks: np.ndarray | None, ws: _Workspace,
                    grads: Parameters) -> None:
    """Writes the NLL gradient into `grads`, from the workspace that
    _forward_batch filled with `grad` for this batch (x, y) and these masks,
    and in which _nll_arrays then left its terms. Stacked networks get one
    gradient row each."""
    n = y.shape[-1]
    w = ws.at(n)

    # d loss / d mu = (mu - y) / var / n and d loss / d raw-variance-head
    # output = (-(y - mu)**2 / (2 var**2) + 1 / (2 var)) / n * sigmoid(raw),
    # as contiguous columns, then copied into dout for the head's gradients.
    # They take the loss terms' buffers u and (y - mu)**2's sq, which are
    # spent once the loss is summed; draw overwrites sq in place
    dmu, draw = w.u, w.sq
    np.subtract(w.mu, y, out=dmu)
    dmu /= w.var
    dmu /= n
    np.square(w.var, out=w.t)
    w.t *= 2.0
    np.negative(w.sq, out=draw)
    draw /= w.t
    np.divide(1.0, w.v2, out=w.t)
    draw += w.t
    draw /= n
    draw *= w.sig
    np.copyto(w.dout_mu, dmu)
    np.copyto(w.dout_raw, draw)

    np.matmul(w.dout_t, w.post[-1], out=grads.head_w)
    _sum_rows(w.dout, grads.head_b)
    np.matmul(w.dout, p.head_w, out=w.delta)         # gradient w.r.t. h_L
    da = w.a                                         # free once forward is done
    for l in range(cfg.hidden_layers - 1, -1, -1):
        if masks is not None:
            w.delta *= masks[l]
        np.multiply(w.delta, w.dacts[l], out=da)
        np.matmul(da.swapaxes(-1, -2), w.post[l - 1] if l else x, out=grads.hidden_w[l])
        _sum_rows(da, grads.hidden_b[l])
        if l:
            np.matmul(da, p.hidden_w[l], out=w.delta)


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
    """Mini-batch AdamW on the negative log-likelihood for any list of
    networks. Members that share a stack_key train as one stack, and the
    stacks train in the order of their first member.

    Weight decay is decoupled: applied directly in the update step, not
    through the loss gradient. Each network gets back the snapshot with
    its lowest validation NLL, and stops once validation fails to improve
    for more than `patience` consecutive epochs. Every network keeps its
    own initial weights, batch order and dropout masks, so each result is
    bit-identical to training that network alone. Returns one
    (parameters, history) pair per member, in order.

    When members diverge, raises the DivergedLoss of the lowest-indexed
    one, the error that training them one after another raises first;
    its `member_index` is that member's position in `members`. Once a
    member is known to have diverged, no member indexed above it trains
    further: training in order would never reach it.
    """
    if not members:
        raise ValueError("need at least one network to train")
    if len(splits.train) == 0 or len(splits.validation) == 0:
        raise ValueError("train and validation splits must be non-empty")
    data = (normalizer.transform_features(splits.train.features),
            normalizer.transform_targets(splits.train.targets),
            normalizer.transform_features(splits.validation.features),
            normalizer.transform_targets(splits.validation.targets))
    stacks: dict[tuple, list[int]] = {}
    for i, (mlp, tc) in enumerate(members):
        stacks.setdefault(stack_key(mlp, tc), []).append(i)
    results: dict[int, tuple[Parameters, TrainHistory]] = {}
    failed: DivergedLoss | None = None
    for indices in stacks.values():
        # training in order never reaches a member above a known divergence
        indices = [i for i in indices if failed is None or i < failed.member_index]
        if indices:
            failed = _train_one_stack(data, members, indices, results) or failed
    if failed is not None:
        raise failed
    return [results[i] for i in range(len(members))]


def _train_one_stack(data: tuple[np.ndarray, ...],
                     members: list[tuple[MLPConfig, TrainConfig]], indices: list[int],
                     results: dict[int, tuple[Parameters, TrainHistory]]
                     ) -> DivergedLoss | None:
    """Trains members[i], for each i in `indices` (one stack_key), as one
    stack on the normalized (x_train, y_train, x_val, y_val) and puts each
    result in `results` under i. Returns the lowest-indexed member's
    DivergedLoss, or None when no member diverged."""
    cfg, tc = members[indices[0]]
    x_train, y_train, x_val, y_val = data

    # row r of the stack is member rows[r]; rows are grouped by activation
    # so each activation runs on one slice
    rows = sorted(indices, key=lambda i: members[i][0].activation.value)
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

    n = x_train.shape[0]
    batch_rows = min(tc.batch_size, n)
    n_w = Parameters(cfg, theta[0]).n_weights

    def views():
        # rebuilt only when the stack shrinks: the index that selects its
        # rows, the parameter and gradient views, the workspace of every
        # pass with its activation runs bound, and the AdamW temporary. A
        # stack of one drops its row axis, because plain 2-D matmuls cost
        # less than a stack of one.
        lead = 0 if len(rows) == 1 else slice(None)
        runs = _activation_runs([members[i][0].activation for i in rows])
        return (lead, Parameters(cfg, theta[lead]),
                Parameters(cfg, np.empty_like(theta[lead])),
                _Workspace(cfg, theta[lead].shape[:-1], len(x_val), batch_rows, runs),
                np.empty_like(theta))

    lead, params, grads, ws, t1 = views()

    train_losses: dict[int, list[float]] = {i: [] for i in rows}
    val_losses: dict[int, list[float]] = {i: [] for i in rows}
    best_epoch = dict.fromkeys(rows, 0)
    stale = dict.fromkeys(rows, 0)
    failed: DivergedLoss | None = None

    for epoch in range(tc.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        epoch_loss = np.zeros(len(rows))
        finite = np.ones(len(rows), dtype=bool)
        for start in range(0, n, tc.batch_size):
            idx = order[lead, start:start + tc.batch_size]
            w = ws.at(idx.shape[-1])
            # mode="clip" gathers straight into out; the indices are valid
            np.take(x_train, idx, axis=0, out=w.x, mode="clip")
            np.take(y_train, idx, out=w.y, mode="clip")
            masks = _make_masks(cfg, rngs, w.masks, w.kept)
            if masks is not None:
                masks = masks[:, lead]
            mu, var = _forward_batch(params, cfg, w.x, masks, ws, grad=True)
            batch_loss = _nll_arrays(mu, var, w.y, w)
            finite &= np.isfinite(batch_loss)
            epoch_loss += batch_loss * idx.shape[-1]
            _backward_batch(params, cfg, w.x, w.y, masks, ws, grads)

            # AdamW, each step of
            # theta -= lr * ((m / bias1) / (sqrt(v / bias2) + eps) + wd * theta)
            # in place, on the gradient viewed in theta's shape; once v is
            # updated the gradient is spent, and its buffer is the second
            # temporary t2
            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            g = grads.flat.reshape(theta.shape)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=t1)
            v *= ADAM_BETA2
            v += np.multiply(np.square(g, out=t1), 1.0 - ADAM_BETA2, out=t1)
            t2 = g
            np.divide(m, bias1, out=t1)
            np.sqrt(np.divide(v, bias2, out=t2), out=t2)
            t2 += ADAM_EPS
            t1 /= t2
            if tc.weight_decay:
                # the weights decay and the biases do not: a bias adds +0,
                # which moves none of its bits, as a bias starts at +0 and
                # only -0 - (+0) gives -0
                np.multiply(theta, tc.weight_decay, out=t2)
                t2[:, n_w:] = 0.0
                t1 += t2
            t1 *= tc.learning_rate
            theta -= t1

        mu, var = _forward_batch(params, cfg, x_val, None, ws)
        val_loss = np.atleast_1d(_nll_arrays(mu, var, y_val, ws.at(len(x_val))))
        # a network whose batch loss, parameters or validation loss stopped
        # being finite this epoch diverged in it
        diverged = ~(finite & np.isfinite(theta).all(axis=1) & np.isfinite(val_loss))
        done = np.zeros(len(rows), dtype=bool)
        for r, i in enumerate(rows):
            if diverged[r]:
                if failed is None or i < failed.member_index:
                    failed = DivergedLoss(epoch)
                    failed.member_index = i
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
                              TrainHistory(train_losses[i], val_losses[i], best_epoch[i]))

        # finished and diverged networks leave the stack, and so does every
        # network indexed above a diverged one: training the members in
        # order would never reach it
        keep = ~(diverged | done)
        if failed is not None:
            keep &= np.array(rows) < failed.member_index
        if not keep.any():
            break
        if not keep.all():
            theta, m, v, best_theta = (a[keep] for a in (theta, m, v, best_theta))
            best_val = best_val[keep]
            rows = [i for i, k in zip(rows, keep) if k]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
            lead, params, grads, ws, t1 = views()

    return failed


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
    blocks = _row_blocks(n)
    ws = _Workspace(cfg, p.flat.shape[:-1], max(stop - start for start, stop in blocks))
    for start, stop in blocks:
        x = normalizer.transform_features(raw_inputs[start:stop])
        mu, var = _forward_batch(p, cfg, x, None, ws)
        mu_out[start:stop] = normalizer.inverse_target_mean(mu)
        var_out[start:stop] = normalizer.inverse_target_var(var)
    return mu_out, var_out


# --- serialization --------------------------------------------------------

def params_to_doc(p: Parameters, cfg: MLPConfig) -> dict:
    """JSON-ready document of one network: its config, and its flat buffer
    as base64 of the little-endian float64 bytes, so that
    params_from_doc(params_to_doc(p, cfg)) is bit-exact, -0.0 and
    subnormals included."""
    raw = p.flat.astype("<f8", copy=False).tobytes()
    return {"config": cfg.to_dict(), "parameters": base64.b64encode(raw).decode("ascii")}


def params_from_doc(doc: dict) -> tuple[Parameters, MLPConfig]:
    """Rebuild a network from params_to_doc's document: the layout comes
    from the config, and the buffer must hold exactly its parameter count
    of finite values."""
    try:
        cfg = MLPConfig.from_dict(doc["config"])
        raw = base64.b64decode(doc["parameters"], validate=True)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptArtifact(f"malformed parameter document: {exc}") from exc
    # the closed form of sum(prod(shape) for shape in _param_shapes(cfg)),
    # checked before a config that no buffer matches allocates anything
    units = cfg.hidden_units
    count = units * (cfg.input_dim + (cfg.hidden_layers - 1) * units
                     + cfg.hidden_layers + 2) + 2
    if len(raw) != 8 * count:
        raise CorruptArtifact(f"malformed parameter document: {len(raw)} bytes "
                              f"where the config needs {count} float64 values")
    params = Parameters(cfg, np.frombuffer(raw, dtype="<f8").astype(np.float64))
    if not np.all(np.isfinite(params.flat)):
        raise CorruptArtifact("malformed parameter document: non-finite parameter entry")
    return params, cfg
