"""Hyperparameter search space and its unit-cube embedding.

The space has seven dimensions: three continuous (learning rate and
weight decay on a log scale, dropout rate linear) and four categorical
(batch size, hidden layer count, hidden width, activation). For the
Gaussian-process surrogate each configuration is embedded in a unit
hypercube: the continuous dimensions become single coordinates in [0, 1]
and each categorical dimension becomes a one-hot block, giving

    3 + 3 + 2 + 7 + 6 = 21

coordinates (ENCODED_DIM). The space is fixed: its seven ranges are
the module constants below. encode returns a configuration's
(ENCODED_DIM,) row; a search stacks its trials' rows into one matrix.
Decoding accepts any point of the cube (one-hot blocks need not be
exact) and snaps each block to the choice with the largest weight, ties
to the lowest index. canonicalize applies decode-then-encode to a whole
matrix of cube points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import OutOfDomain
from ..neural_net import ActivationKind


LEARNING_RATE = (1e-4, 1e-2)     # log-uniform
WEIGHT_DECAY = (1e-4, 1e-2)      # log-uniform
DROPOUT_RATE = (0.0, 0.3)        # uniform
BATCH_SIZES = (128, 256, 512)
HIDDEN_LAYERS = (6, 7)
HIDDEN_UNITS = (8, 16, 24, 32, 48, 64, 96)
ACTIVATIONS = tuple(ActivationKind)

_CATEGORICAL = (BATCH_SIZES, HIDDEN_LAYERS, HIDDEN_UNITS, ACTIVATIONS)
ENCODED_DIM = 3 + sum(len(choices) for choices in _CATEGORICAL)
# (start offset, choices) of each categorical block, after the three
# continuous coordinates: offsets 3, 6, 8 and 15
_BLOCKS = tuple(zip(accumulate((len(c) for c in _CATEGORICAL[:-1]), initial=3),
                    _CATEGORICAL))


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


# (field name, bounds, log scale) of the continuous coordinates 0, 1, 2
_CONTINUOUS = (("learning_rate", LEARNING_RATE, True),
               ("weight_decay", WEIGHT_DECAY, True),
               ("dropout_rate", DROPOUT_RATE, False))


def _check_points(points: np.ndarray) -> None:
    """Rows of `points` (m, ENCODED_DIM) lie in the unit cube."""
    if points.ndim != 2 or points.shape[1] != ENCODED_DIM:
        raise OutOfDomain(f"expected {ENCODED_DIM} coordinates")
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise OutOfDomain("coordinates must lie in the unit cube")


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


def encode(tc: TrialConfig) -> np.ndarray:
    """The (ENCODED_DIM,) cube row of a configuration: continuous
    coordinates in [0, 1], each categorical block exactly one-hot."""
    coords = np.zeros(ENCODED_DIM)
    for col, (name, bounds, log) in enumerate(_CONTINUOUS):
        coords[col] = _continuous_to_unit(getattr(tc, name), bounds, log, name)
    values = (tc.batch_size, tc.hidden_layers, tc.hidden_units, tc.activation)
    for (offset, choices), value in zip(_BLOCKS, values):
        try:
            coords[offset + choices.index(value)] = 1.0
        except ValueError:
            raise OutOfDomain(f"{value!r} is not one of {choices}") from None
    return coords


def decode(point: np.ndarray) -> TrialConfig:
    """Map a cube point (an encoded row or any point of the cube, e.g. a
    quasi-random sample) back to a configuration; categorical blocks are
    resolved by argmax with ties going to the lowest index."""
    coords = np.asarray(point, dtype=np.float64)
    _check_points(coords[None])
    choice_values = []
    for offset, choices in _BLOCKS:
        block = coords[offset:offset + len(choices)]
        choice_values.append(choices[int(np.argmax(block))])
    batch, layers, units, activation = choice_values
    continuous = {name: _unit_to_continuous(float(coords[col]), bounds, log)
                  for col, (name, bounds, log) in enumerate(_CONTINUOUS)}
    return TrialConfig(**continuous, batch_size=batch, hidden_layers=layers,
                       hidden_units=units, activation=activation)


def canonicalize(raw: np.ndarray) -> np.ndarray:
    """Row i equals encode(decode(raw[i])): the continuous
    columns make the same round trip through physical values and each
    one-hot block snaps to its argmax, ties to the lowest index. Raises
    OutOfDomain where decode or encode would."""
    raw = np.asarray(raw, dtype=np.float64)
    _check_points(raw)
    out = np.zeros_like(raw)
    for col, (name, bounds, log) in enumerate(_CONTINUOUS):
        lo, hi = bounds
        value = _unit_to_continuous(raw[:, col], bounds, log)
        if not np.all((lo <= value) & (value <= hi)):
            raise OutOfDomain(f"{name} outside [{lo}, {hi}]")
        out[:, col] = np.log(value / lo) / math.log(hi / lo) if log \
            else (value - lo) / (hi - lo)
    rows = np.arange(raw.shape[0])
    for offset, choices in _BLOCKS:
        out[rows, offset + np.argmax(raw[:, offset:offset + len(choices)], axis=1)] = 1.0
    return out
