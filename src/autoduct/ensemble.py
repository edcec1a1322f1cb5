"""Deep ensembles of independently trained Gaussian-output networks.

Each of the M members emits a Gaussian N(mu_m, var_m) for an input x.
The ensemble prediction is the equally weighted mixture of those
Gaussians; its first two moments give the reported point estimate and
uncertainty split:

    mean      = (1/M) sum_m mu_m
    aleatory  = (1/M) sum_m var_m              (mean member variance)
    epistemic = (1/M) sum_m (mu_m - mean)^2    (spread of member means)
    total     = aleatory + epistemic           (law of total variance)

Members may have heterogeneous architectures; aggregation only requires
each member to produce a Gaussian in the same target units. Training
them is `neural_net.train_stack`'s: it groups members into stacks and
raises a divergence as training them in order would. `train_ensemble`
only checks the member list and wraps the results.

Predictions are columnar: `Ensemble.predict` writes the member outputs
for N inputs into C-contiguous (N, M) working arrays, one row per input,
and the EnsemblePrediction it returns holds the four moments as (N,)
arrays. Each moment is a reduction over axis 1, so every row is summed
in member order with the same pairwise summation as a one-dimensional
array of the M values.

On disk an ensemble is one document, <dir>/manifest.json: the format
version, the normalizer once, and for each member its seed, provenance,
config and parameters, the network's flat float64 buffer as base64 of
its little-endian bytes (``neural_net.params_to_doc``). The layout comes
from the config, so a load is bit-exact and checks only the element
count and finiteness. Any other document, an older format version
included, is refused with an error that names the manifest. A save
replaces the manifest atomically, so a failed save leaves the previous
one whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural_net
from .atomic import read_json, write_json
from .dataset import Normalizer, SplitDataset
from .errors import CorruptArtifact, EmptyEnsemble, VersionMismatch
from .neural_net import MLPConfig, Parameters, TrainConfig
from .stats import central_interval_z

ENSEMBLE_FORMAT_VERSION = 2


@dataclass(frozen=True)
class EnsembleMember:
    params: Parameters
    config: MLPConfig
    seed: int
    provenance: str


@dataclass(frozen=True)
class EnsemblePrediction:
    """Mixture moments of N inputs, as (N,) arrays."""

    mean: np.ndarray
    aleatory_var: np.ndarray
    epistemic_var: np.ndarray
    total_var: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    members: tuple[EnsembleMember, ...]
    normalizer: Normalizer

    def __post_init__(self):
        if not self.members:
            raise EmptyEnsemble("ensemble needs at least one member")
        dims = {m.config.input_dim for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"members disagree on input dimension: {sorted(dims)}")
        width = self.normalizer.feature_shift.size
        if dims != {width}:
            raise ValueError(f"members take {min(dims)} inputs, the normalizer {width}")

    @property
    def size(self) -> int:
        return len(self.members)

    def predict(self, raw_inputs: np.ndarray) -> EnsemblePrediction:
        raw_inputs = np.atleast_2d(np.asarray(raw_inputs, dtype=np.float64))
        # rows are inputs: reducing an (M, N) stack over axis 0 instead would
        # add the members in a different order once M >= 8
        shape = (raw_inputs.shape[0], self.size)
        member_means, member_vars = np.empty(shape), np.empty(shape)
        for j, m in enumerate(self.members):
            neural_net.predict_batch(m.params, m.config, self.normalizer, raw_inputs,
                                     out=(member_means[:, j], member_vars[:, j]))
        return _moments(member_means, member_vars)


def train_ensemble(splits: SplitDataset, normalizer: Normalizer,
                   member_configs: list[tuple[MLPConfig, TrainConfig]]) -> Ensemble:
    """Train every member independently with its own seed, through
    `neural_net.train_stack`, and tag each `seed=N`.

    Seeds must be pairwise distinct, otherwise two members would be
    identical and contribute nothing. A divergence propagates as
    train_stack raises it: the lowest-indexed failing member's
    DivergedLoss, with its `member_index`.
    """
    if not member_configs:
        raise EmptyEnsemble("need at least one member config")
    seeds = [tc.seed for _, tc in member_configs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"member seeds must be pairwise distinct, got {seeds}")
    trained = neural_net.train_stack(splits, normalizer, member_configs)
    members = tuple(EnsembleMember(params, mlp_cfg, train_cfg.seed, f"seed={train_cfg.seed}")
                    for (params, _), (mlp_cfg, train_cfg) in zip(trained, member_configs))
    return Ensemble(members, normalizer)


def _moments(member_means: np.ndarray, member_vars: np.ndarray) -> EnsemblePrediction:
    """Moments of the equally weighted Gaussian mixture in each row of
    C-contiguous (N, M) member arrays.

    Epistemic variance uses the population form (divide by M), so the
    decomposition aleatory + epistemic reproduces the mixture's second
    central moment exactly.
    """
    if not (np.all(np.isfinite(member_means)) and np.all(np.isfinite(member_vars))):
        raise ValueError("member predictions must be finite")
    mean = member_means.mean(axis=1)
    aleatory = member_vars.mean(axis=1)
    epistemic = ((member_means - mean[:, None]) ** 2).mean(axis=1)
    return EnsemblePrediction(mean=mean, aleatory_var=aleatory,
                              epistemic_var=epistemic,
                              total_var=aleatory + epistemic)


def interval(ep: EnsemblePrediction, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Central interval under a Gaussian approximation of the mixture:
    mean +/- z(level) * sqrt(total_var), as (lo, hi) arrays."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {level}")
    half = central_interval_z(level) * np.sqrt(ep.total_var)
    return (ep.mean - half, ep.mean + half)


# --- persistence ----------------------------------------------------------

_MEMBER_KEYS = {"config", "parameters", "provenance", "seed"}


def save_ensemble(ens: Ensemble, path: str | Path) -> None:
    """Write the ensemble as one document, <path>/manifest.json: the
    format version, the normalizer once, and per member its seed,
    provenance, config and parameters (``neural_net.params_to_doc``),
    replacing any previous manifest atomically (``atomic.write_json``)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "normalizer": ens.normalizer.to_dict(),
        "members": [{**neural_net.params_to_doc(m.params, m.config),
                     "seed": m.seed, "provenance": m.provenance} for m in ens.members],
    }
    write_json(path / "manifest.json", manifest)


def load_ensemble(path: str | Path) -> Ensemble:
    """Read the manifest that save_ensemble wrote. Any other document
    raises VersionMismatch (another format version) or CorruptArtifact,
    and either names the manifest."""
    manifest_path = Path(path) / "manifest.json"
    manifest = read_json(manifest_path, CorruptArtifact)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != ENSEMBLE_FORMAT_VERSION:
        raise VersionMismatch(f"unsupported ensemble format {version!r} in {manifest_path}")
    try:
        if set(manifest) != {"format_version", "normalizer", "members"}:
            raise ValueError(f"top-level keys {sorted(manifest)}")
        entries = manifest["members"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("no members listed")
        members = []
        for entry in entries:
            if set(entry) != _MEMBER_KEYS:
                raise ValueError(f"member keys {sorted(entry)}, expected {sorted(_MEMBER_KEYS)}")
            if type(entry["seed"]) is not int or type(entry["provenance"]) is not str:
                raise ValueError("a member's seed must be an integer and its "
                                 "provenance a string")
            params, cfg = neural_net.params_from_doc(entry)
            members.append(EnsembleMember(params, cfg, entry["seed"], entry["provenance"]))
        return Ensemble(tuple(members), Normalizer.from_dict(manifest["normalizer"]))
    except (CorruptArtifact, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptArtifact(f"malformed manifest {manifest_path}: {exc}") from exc
