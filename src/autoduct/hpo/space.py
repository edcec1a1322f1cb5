"""Hyperparameter search space and its unit-cube embedding.

The space has seven dimensions: three continuous (learning rate and
weight decay on a log scale, dropout rate linear) and four categorical
(batch size, hidden layer count, hidden width, activation). For the
Gaussian-process surrogate each configuration is embedded in a unit
hypercube: the continuous dimensions become single coordinates in [0, 1]
and each categorical dimension becomes a one-hot block, giving

    3 + 3 + 2 + 7 + 6 = 21

coordinates for the default space. Decoding accepts any point of the
cube (one-hot blocks need not be exact) and snaps each block to the
choice with the largest weight, ties to the lowest index. canonicalize
applies decode-then-encode to a whole matrix of cube points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import OutOfDomain
from ..neural_net import ActivationKind

_ACTIVATION_ORDER = (
    ActivationKind.RELU,
    ActivationKind.LEAKY_RELU,
    ActivationKind.GELU,
    ActivationKind.SELU,
    ActivationKind.ELU,
    ActivationKind.SOFTPLUS,
)


@dataclass(frozen=True)
class SearchSpace:
    learning_rate: tuple[float, float] = (1e-4, 1e-2)   # log-uniform
    weight_decay: tuple[float, float] = (1e-4, 1e-2)    # log-uniform
    dropout_rate: tuple[float, float] = (0.0, 0.3)      # uniform
    batch_sizes: tuple[int, ...] = (128, 256, 512)
    hidden_layers: tuple[int, ...] = (6, 7)
    hidden_units: tuple[int, ...] = (8, 16, 24, 32, 48, 64, 96)
    activations: tuple[ActivationKind, ...] = _ACTIVATION_ORDER

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "dropout_rate"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} bounds must satisfy lo < hi")
        if self.learning_rate[0] <= 0 or self.weight_decay[0] <= 0:
            raise ValueError("log-uniform bounds must be positive")
        for name in ("batch_sizes", "hidden_layers", "hidden_units", "activations"):
            if not getattr(self, name):
                raise ValueError(f"{name} must offer at least one choice")

    @property
    def encoded_dim(self) -> int:
        return 3 + len(self.batch_sizes) + len(self.hidden_layers) \
            + len(self.hidden_units) + len(self.activations)

    def _blocks(self) -> list[tuple[int, tuple]]:
        """(start offset, choices) for each categorical block."""
        blocks = []
        offset = 3
        for choices in (self.batch_sizes, self.hidden_layers,
                        self.hidden_units, self.activations):
            blocks.append((offset, choices))
            offset += len(choices)
        return blocks


def default_space() -> SearchSpace:
    return SearchSpace()


@dataclass(frozen=True)
class TrialConfig:
    learning_rate: float
    weight_decay: float
    dropout_rate: float
    batch_size: int
    hidden_layers: int
    hidden_units: int
    activation: ActivationKind
    trial_id: int = -1
    run_id: int = -1
    origin: str = "sobol"

    def __post_init__(self):
        if self.origin not in ("sobol", "bo"):
            raise ValueError(f"origin must be 'sobol' or 'bo', got {self.origin!r}")

    def assignment(self) -> tuple:
        """The seven hyperparameter values, without bookkeeping fields."""
        return (self.learning_rate, self.weight_decay, self.dropout_rate,
                self.batch_size, self.hidden_layers, self.hidden_units,
                self.activation)

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate,
                "weight_decay": self.weight_decay,
                "dropout_rate": self.dropout_rate,
                "batch_size": self.batch_size,
                "hidden_layers": self.hidden_layers,
                "hidden_units": self.hidden_units,
                "activation": self.activation.value,
                "trial_id": self.trial_id, "run_id": self.run_id,
                "origin": self.origin}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrialConfig":
        return cls(learning_rate=float(doc["learning_rate"]),
                   weight_decay=float(doc["weight_decay"]),
                   dropout_rate=float(doc["dropout_rate"]),
                   batch_size=int(doc["batch_size"]),
                   hidden_layers=int(doc["hidden_layers"]),
                   hidden_units=int(doc["hidden_units"]),
                   activation=ActivationKind(doc["activation"]),
                   trial_id=int(doc["trial_id"]), run_id=int(doc["run_id"]),
                   origin=str(doc["origin"]))


@dataclass(frozen=True)
class EncodedPoint:
    """Canonical cube embedding of a TrialConfig: continuous coords in
    [0, 1], categorical blocks exactly one-hot."""

    coords: np.ndarray
    space: SearchSpace = field(default_factory=default_space)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        _check_points(coords[None], self.space, one_hot=True)


# (field name, log scale) of the continuous coordinates 0, 1, 2
_CONTINUOUS = (("learning_rate", True), ("weight_decay", True), ("dropout_rate", False))


def _check_points(points: np.ndarray, space: SearchSpace, one_hot: bool) -> None:
    """Rows of `points` (m, encoded_dim) lie in the unit cube; with one_hot,
    every categorical block of every row also sums to 1."""
    if points.ndim != 2 or points.shape[1] != space.encoded_dim:
        raise OutOfDomain(f"expected {space.encoded_dim} coordinates")
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise OutOfDomain("coordinates must lie in the unit cube")
    for offset, choices in space._blocks() if one_hot else ():
        if np.any(np.abs(points[:, offset:offset + len(choices)].sum(axis=1) - 1.0) > 1e-9):
            raise OutOfDomain("one-hot block does not sum to 1")


def _continuous_to_unit(value: float, bounds: tuple[float, float],
                        log: bool, name: str) -> float:
    lo, hi = bounds
    if not lo <= value <= hi:
        raise OutOfDomain(f"{name}={value} outside [{lo}, {hi}]")
    if log:
        return math.log(value / lo) / math.log(hi / lo)
    return (value - lo) / (hi - lo)


def _unit_to_continuous(u: float, bounds: tuple[float, float], log: bool) -> float:
    lo, hi = bounds
    if log:
        return lo * (hi / lo) ** u
    return lo + u * (hi - lo)


def encode(tc: TrialConfig, space: SearchSpace | None = None) -> EncodedPoint:
    space = space or default_space()
    coords = np.zeros(space.encoded_dim)
    for col, (name, log) in enumerate(_CONTINUOUS):
        coords[col] = _continuous_to_unit(getattr(tc, name), getattr(space, name), log, name)
    values = (tc.batch_size, tc.hidden_layers, tc.hidden_units, tc.activation)
    for (offset, choices), value in zip(space._blocks(), values):
        try:
            coords[offset + choices.index(value)] = 1.0
        except ValueError:
            raise OutOfDomain(f"{value!r} is not one of {choices}") from None
    return EncodedPoint(coords, space)


def decode(point: EncodedPoint | np.ndarray,
           space: SearchSpace | None = None) -> TrialConfig:
    """Map a cube point back to a configuration.

    Accepts either a canonical EncodedPoint or a raw coordinate array
    (e.g. a quasi-random sample); categorical blocks are resolved by
    argmax with ties going to the lowest index.
    """
    if isinstance(point, EncodedPoint):
        coords, space = point.coords, point.space
    else:
        space = space or default_space()
        coords = np.asarray(point, dtype=np.float64)
        _check_points(coords[None], space, one_hot=False)

    choice_values = []
    for offset, choices in space._blocks():
        block = coords[offset:offset + len(choices)]
        choice_values.append(choices[int(np.argmax(block))])
    batch, layers, units, activation = choice_values
    continuous = {name: _unit_to_continuous(float(coords[col]), getattr(space, name), log)
                  for col, (name, log) in enumerate(_CONTINUOUS)}
    return TrialConfig(**continuous, batch_size=batch, hidden_layers=layers,
                       hidden_units=units, activation=activation)


def canonicalize(raw: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Row i equals encode(decode(raw[i], space), space).coords: the
    continuous columns make the same round trip through physical values
    and each one-hot block snaps to its argmax, ties to the lowest index.
    Raises OutOfDomain where decode or EncodedPoint would."""
    raw = np.asarray(raw, dtype=np.float64)
    _check_points(raw, space, one_hot=False)
    out = np.zeros_like(raw)
    for col, (name, log) in enumerate(_CONTINUOUS):
        lo, hi = getattr(space, name)
        value = _unit_to_continuous(raw[:, col], (lo, hi), log)
        if not np.all((lo <= value) & (value <= hi)):
            raise OutOfDomain(f"{name} outside [{lo}, {hi}]")
        out[:, col] = np.log(value / lo) / math.log(hi / lo) if log \
            else (value - lo) / (hi - lo)
    rows = np.arange(raw.shape[0])
    for offset, choices in space._blocks():
        out[rows, offset + np.argmax(raw[:, offset:offset + len(choices)], axis=1)] = 1.0
    _check_points(out, space, one_hot=True)
    return out
