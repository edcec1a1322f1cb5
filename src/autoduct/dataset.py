"""Tabular regression data handling for heat-flux style measurements.

Covers CSV ingestion, range validation against the reference measurement
envelope, reproducible train/validation/test splitting, z-score
normalization, synthetic data generation with a documented response
surface, and construction of single-feature "slice" evaluation grids.

All containers are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .atomic import read_json, write_atomic
from .errors import (
    CorruptArtifact,
    DegenerateFeature,
    EmptyFile,
    FractionSumInvalid,
    MalformedCsv,
    MissingColumn,
    NonFiniteValue,
)
from .rng import SplitMix64

FEATURE_NAMES = ("D", "L", "P", "G", "X")
TARGET_NAME = "CHF"

# Reference envelope of the measurement campaign this tooling targets:
# diameter [m], heated length [m], pressure [kPa], mass flux [kg/m^2/s],
# equilibrium quality [-], heat flux [kW/m^2].
REFERENCE_ENVELOPE = {
    "D": (2e-3, 16e-3),
    "L": (0.05, 20.0),
    "P": (100.0, 20000.0),
    "G": (8.2, 7964.0),
    "X": (-0.497, 0.999),
    "CHF": (50.0, 16339.3),
}

# Rows per block when writing tables and in inference (neural_net): enough
# to amortise the per-call cost, small enough to keep transient memory low.
_BLOCK_ROWS = 4096


class Dataset:
    """Ordered, immutable collection of observations.

    Features are held as an (n, 5) float array in the fixed column order
    (D, L, P, G, X); targets are either an (n,) array or None for
    input-only grids.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray | None,
                 provenance: str):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"features must be (n, {len(FEATURE_NAMES)})")
        if features.shape[0] == 0:
            raise ValueError("dataset must be non-empty")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if targets is not None:
            targets = np.asarray(targets, dtype=np.float64)
            if targets.shape != (features.shape[0],):
                raise ValueError("targets must be a vector matching feature rows")
            if not np.all(np.isfinite(targets)):
                raise ValueError("targets contain non-finite values")
            targets.setflags(write=False)
        features.setflags(write=False)
        self.features = features
        self.targets = targets
        self.provenance = provenance

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def has_targets(self) -> bool:
        return self.targets is not None

    def column(self, name: str) -> np.ndarray:
        if name == TARGET_NAME:
            if self.targets is None:
                raise ValueError("dataset has no targets")
            return self.targets
        return self.features[:, FEATURE_NAMES.index(name)]

    def subset(self, indices: np.ndarray, provenance: str) -> "Dataset":
        targets = None if self.targets is None else self.targets[indices]
        return Dataset(self.features[indices], targets, provenance)


@dataclass(frozen=True)
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset


@dataclass(frozen=True)
class RangeEntry:
    """Range check for one column: how many values fall outside the
    reference envelope, plus the observed extrema."""

    outside: int
    observed_min: float
    observed_max: float
    envelope: tuple[float, float]


@dataclass(frozen=True)
class RangeReport:
    entries: dict[str, RangeEntry]

    @property
    def total_violations(self) -> int:
        return sum(e.outside for e in self.entries.values())

    @property
    def ok(self) -> bool:
        return self.total_violations == 0


def load_csv(path: str | Path, require_target: bool = True) -> Dataset:
    """Read a comma-separated file with header D,L,P,G,X[,CHF].

    Rows are kept in file order. Extra columns are ignored. A missing CHF
    column is accepted only when require_target is False (input-only
    grids). A header that names one of these columns twice is malformed.
    A leading UTF-8 byte-order mark is skipped.

    The rows of a seekable file are first read by numpy's C reader
    (`np.loadtxt`), fed as a line generator. The generator refuses the
    read at a line that numpy could read differently from the csv module
    plus `float()`: one holding a `"` (a comma split ignores quoting), a
    NUL, or one of \\x1c-\\x1f (numpy strips these as whitespace, `float()`
    does not), or one longer than `csv.field_size_limit()`. It checks a
    batch of lines at a time, so it may refuse a few lines early. The
    read is kept only when it has at least one row and every value is
    finite. In every other case (a refused line, a cell numpy cannot
    parse, a non-finite value, no rows, or a file that cannot seek) the
    rows are parsed again, cell by cell from the first data row, by
    `_parse_rows`, the csv module plus `float()`: the reference for what
    the fast read may accept, which raises every row error.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        except csv.Error as exc:
            raise _malformed(path, reader, exc) from None
        header = [h.strip() for h in header]
        for name in FEATURE_NAMES:
            if name not in header:
                raise MissingColumn(path, name)
        has_target = TARGET_NAME in header
        if require_target and not has_target:
            raise MissingColumn(path, TARGET_NAME)
        for name in FEATURE_NAMES + (TARGET_NAME,):
            if header.count(name) > 1:
                raise MalformedCsv(f"{path}: column {name!r} appears more than "
                                   f"once in the header")
        names = FEATURE_NAMES + ((TARGET_NAME,) if has_target else ())
        cols = [header.index(name) for name in names]

        table = None
        if fh.seekable():
            table = _parse_plain_rows(fh, cols)
            if table is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
        if table is None:
            table = _parse_rows(reader, path, cols, names)

    if not has_target:
        return Dataset(table, None, provenance=str(path))
    return Dataset(np.ascontiguousarray(table[:, :-1]), table[:, -1].copy(),
                   provenance=str(path))


# A quote, which a comma split ignores; a NUL, which the csv module
# refuses before Python 3.11; and \x1c-\x1f, which numpy strips from a
# cell as whitespace and `float()` does not.
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'
# Characters per batch of lines that `_plain_lines` checks at once.
_BATCH_CHARS = 1 << 16


def _plain_lines(fh: TextIO, limit: int):
    """Yield the lines left in `fh`, and raise ValueError first if a batch
    of them holds a `_NOT_PLAIN` character or a line longer than `limit`,
    so no field can exceed csv's field size limit."""
    while lines := fh.readlines(_BATCH_CHARS):
        batch = "".join(lines)
        if max(map(len, lines)) > limit or any(c in batch for c in _NOT_PLAIN):
            raise ValueError("a line numpy could read differently from csv")
        yield from lines


def _parse_plain_rows(fh: TextIO, cols: list[int]) -> np.ndarray | None:
    """The columns `cols` of the rest of `fh` as numpy's C reader parses
    them, or None where only `_parse_rows` can decide."""
    try:
        with warnings.catch_warnings():
            # no rows is a case for _parse_rows, not a warning to the user
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(_plain_lines(fh, csv.field_size_limit()), delimiter=",",
                               comments=None, quotechar=None, usecols=cols, ndmin=2,
                               dtype=np.float64)
    except ValueError:  # a refused line, a cell numpy cannot parse, a decode error
        return None
    if len(table) and np.isfinite(table).all():
        return table
    return None


def _parse_rows(reader, path: Path, cols: list[int],
                names: tuple[str, ...]) -> np.ndarray:
    """Parse the rows left in `reader`, one cell at a time in file order,
    into an (n, len(cols)) array; the file's first error is raised. A bad
    cell raises `NonFiniteValue` naming its data row (blank rows count)
    and column, a line the csv module cannot parse `MalformedCsv` naming
    its line, and no non-blank row `EmptyFile`."""
    def cells():
        try:
            for row_number, row in enumerate(reader, start=1):
                if any(map(str.strip, row)):
                    for col, name in zip(cols, names):
                        yield _parse_value(row, path, row_number, col, name)
        except csv.Error as exc:
            raise _malformed(path, reader, exc) from None
    values = np.fromiter(cells(), np.float64)
    if not len(values):
        raise EmptyFile(f"{path} has no data rows")
    return values.reshape(-1, len(cols))


def _malformed(path: Path, reader, exc: csv.Error) -> MalformedCsv:
    return MalformedCsv(f"{path}: malformed CSV at line {reader.line_num}: {exc}")


def _parse_value(row: list[str], path: Path, row_number: int, col: int,
                 name: str) -> float:
    try:
        value = float(row[col])
    except (ValueError, IndexError):
        raise NonFiniteValue(path, row_number, name) from None
    if not math.isfinite(value):
        raise NonFiniteValue(path, row_number, name)
    return value


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back out in the canonical column order, full
    float64 precision, with the CRLF row ends that `csv.writer` writes.
    The file is replaced atomically (`atomic.write_atomic`): a failed
    write leaves the previous file as it was."""
    write_atomic(path, lambda fh: write_csv_text(ds, fh))


def write_csv_text(ds: Dataset, fh: TextIO) -> None:
    """Write the text of write_csv's file to the text file `fh`, which
    must not translate newlines."""
    if ds.has_targets:
        names = FEATURE_NAMES + (TARGET_NAME,)
        table = np.column_stack([ds.features, ds.targets])
    else:
        names, table = FEATURE_NAMES, ds.features
    fh.write(",".join(names) + "\r\n")
    _write_rows(fh, ",".join(["%.17g"] * len(names)) + "\r\n", table)


def _write_rows(fh: TextIO, template: str, table: np.ndarray) -> None:
    """Write `template % row` for each row of a 2-D float array.

    Shared by the package's table writers. One `%` operation renders a
    block of rows, so the per-value work runs in C. `"%.17g" % v` and
    `f"{v:.17g}"` (likewise `.6g`) give the same bytes for every float.
    Literal text in `template` must have `%` escaped as `%%`.
    """
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def validate_ranges(ds: Dataset) -> RangeReport:
    """Count, per column, how many values fall outside the reference
    envelope. Purely diagnostic; never mutates or rejects data."""
    entries: dict[str, RangeEntry] = {}
    names = list(FEATURE_NAMES) + ([TARGET_NAME] if ds.has_targets else [])
    for name in names:
        values = ds.column(name)
        lo, hi = REFERENCE_ENVELOPE[name]
        outside = int(np.count_nonzero((values < lo) | (values > hi)))
        entries[name] = RangeEntry(outside, float(values.min()),
                                   float(values.max()), (lo, hi))
    return RangeReport(entries)


def split(ds: Dataset, fractions: tuple[float, float, float],
          seed: int) -> SplitDataset:
    """Shuffle-and-cut split.

    The order is a SplitMix64 Fisher-Yates permutation (see rng module),
    so the same (dataset, fractions, seed) always yields the same member
    lists on any platform. Sizes are floor(n*f_train) and floor(n*f_val);
    the remainder goes to test.
    """
    f_train, f_val, f_test = fractions
    if min(fractions) < 0 or abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise FractionSumInvalid(f"fractions {fractions} must be non-negative and sum to 1")
    n = len(ds)
    order = SplitMix64(seed).permutation(n)
    # 1e-9 slack absorbs float representation error in n*f (e.g. 1000*0.72)
    n_train = int(math.floor(n * f_train + 1e-9))
    n_val = int(math.floor(n * f_val + 1e-9))
    tag = ds.provenance
    return SplitDataset(
        train=ds.subset(order[:n_train], f"{tag}#train"),
        validation=ds.subset(order[n_train:n_train + n_val], f"{tag}#validation"),
        test=ds.subset(order[n_train + n_val:], f"{tag}#test"),
    )


@dataclass(frozen=True)
class Normalizer:
    """Per-column affine transform fitted on the training split only.

    z-score standardization: shift is the column mean, scale the
    population standard deviation. The target is handled the same way.
    """

    feature_shift: np.ndarray
    feature_scale: np.ndarray
    target_shift: float
    target_scale: float

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.feature_shift) / self.feature_scale

    def transform_targets(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.target_shift) / self.target_scale

    def inverse_target_mean(self, mu: np.ndarray) -> np.ndarray:
        return np.asarray(mu, dtype=np.float64) * self.target_scale + self.target_shift

    def inverse_target_var(self, var: np.ndarray) -> np.ndarray:
        # affine law: Var(aY + b) = a^2 Var(Y)
        return np.asarray(var, dtype=np.float64) * self.target_scale**2

    def to_dict(self) -> dict:
        return {
            "feature_shift": [float(v) for v in self.feature_shift],
            "feature_scale": [float(v) for v in self.feature_scale],
            "target_shift": float(self.target_shift),
            "target_scale": float(self.target_scale),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Normalizer":
        """Inverse of to_dict. Raises ValueError unless the document holds
        a finite shift and a finite positive scale for each of the
        len(FEATURE_NAMES) feature columns and for the target."""
        shift, scale = doc["feature_shift"], doc["feature_scale"]
        t_shift, t_scale = doc["target_shift"], doc["target_scale"]
        values = [*shift, *scale, t_shift, t_scale]
        if not all(type(v) in (int, float) for v in values):
            raise ValueError("normalizer entries must be numbers")
        if len(shift) != len(FEATURE_NAMES) or len(scale) != len(FEATURE_NAMES):
            raise ValueError(f"normalizer needs {len(FEATURE_NAMES)} feature shifts and scales")
        if not (np.all(np.isfinite(values)) and min(*scale, t_scale) > 0):
            raise ValueError("normalizer shifts must be finite and its scales "
                             "finite and positive")
        return cls(np.array(shift, dtype=np.float64), np.array(scale, dtype=np.float64),
                   float(t_shift), float(t_scale))


def fit_normalizer(train: Dataset) -> Normalizer:
    if not train.has_targets:
        raise ValueError("normalizer requires a training split with targets")
    shift = train.features.mean(axis=0)
    scale = train.features.std(axis=0)
    for name, s in zip(FEATURE_NAMES, scale):
        if s == 0.0:
            raise DegenerateFeature(name)
    t_scale = float(train.targets.std())
    if t_scale == 0.0:
        raise DegenerateFeature(TARGET_NAME)
    return Normalizer(shift, scale, float(train.targets.mean()), t_scale)


# --- synthetic data -------------------------------------------------------

# Smooth response surface used by the synthetic generator. Power-law growth
# in mass flux and pressure, decreasing trend in quality and heated length,
# weak inverse dependence on diameter. Values stay well inside the
# reference envelope for inputs inside the envelope.
ORACLE_FORMULA = ("chf0 = 150 + 1200*(G/1000)^0.55*(P/10000)^0.30"
                  "*(1-0.45*X)*(1+0.25*exp(-L/2))*(0.008/D)^0.1")
NOISE_FORMULA = "sigma = noise_scale*(0.05*chf0 + 10)"


def synthetic_oracle(features: np.ndarray) -> np.ndarray:
    """Noise-free response surface, vectorized over (n, 5) inputs."""
    f = np.asarray(features, dtype=np.float64)
    d, l, p, g, x = (f[:, i] for i in range(5))
    return (150.0
            + 1200.0
            * (g / 1000.0) ** 0.55
            * (p / 10000.0) ** 0.30
            * (1.0 - 0.45 * x)
            * (1.0 + 0.25 * np.exp(-l / 2.0))
            * (0.008 / d) ** 0.1)


def synthetic_noise_std(features: np.ndarray, noise_scale: float) -> np.ndarray:
    """Input-dependent noise level matching NOISE_FORMULA."""
    return noise_scale * (0.05 * synthetic_oracle(features) + 10.0)


@dataclass(frozen=True)
class SyntheticConfig:
    n: int
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample count must be at least 1")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be non-negative")


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Draw inputs inside the reference envelope (P and G log-uniform, the
    rest uniform), evaluate the documented oracle, add heteroscedastic
    Gaussian noise, and clamp the target to the reference envelope.

    One SplitMix64 stream: n uniforms per column, then n normals; powers
    of P and G on libm, per element (see rng). Fully determined by cfg;
    the provenance records the oracle and noise law for tests to recompute.
    """
    gen = SplitMix64(cfg.seed)
    rows = np.empty((cfg.n, len(FEATURE_NAMES)))
    for j, name in enumerate(FEATURE_NAMES):
        lo, hi = REFERENCE_ENVELOPE[name]
        u = gen.uniforms(cfg.n)
        rows[:, j] = (np.fromiter((lo * (hi / lo) ** v for v in memoryview(u)), np.float64, cfg.n)
                      if name in ("P", "G") else lo + u * (hi - lo))
    oracle = synthetic_oracle(rows)
    noise = gen.normals(cfg.n) * synthetic_noise_std(rows, cfg.noise_scale)
    lo, hi = REFERENCE_ENVELOPE[TARGET_NAME]
    targets = np.clip(oracle + noise, lo, hi)
    provenance = (f"synthetic:seed={cfg.seed},n={cfg.n},"
                  f"noise_scale={cfg.noise_scale!r},{ORACLE_FORMULA},{NOISE_FORMULA}")
    return Dataset(rows, targets, provenance)


# --- slice grids ----------------------------------------------------------

@dataclass(frozen=True)
class SliceSpec:
    """Grid definition that varies one feature over (lo, hi) while holding
    the other four at fixed values."""

    slice_id: str
    varying: str
    lo: float
    hi: float
    count: int
    constants: dict[str, float]

    def __post_init__(self):
        # the id names the slice's files, slice_<id>.csv and .svg
        sid = str(self.slice_id)
        if sid in ("", ".", "..") or "/" in sid or "\\" in sid:
            raise ValueError(f"slice id {sid!r} cannot name a file")
        if self.varying not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {self.varying!r}")
        if not self.lo < self.hi:
            raise ValueError("lo must be strictly below hi")
        if self.count < 2:
            raise ValueError("point count must be at least 2")
        expected = set(FEATURE_NAMES) - {self.varying}
        if set(self.constants) != expected:
            raise ValueError(f"constants must cover exactly {sorted(expected)}")
        for name, v in self.constants.items():
            if not math.isfinite(v):
                raise ValueError(f"constant {name} is not finite")

    def to_dict(self) -> dict:
        return {"slice_id": self.slice_id, "varying": self.varying,
                "lo": self.lo, "hi": self.hi, "count": self.count,
                "constants": dict(self.constants)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SliceSpec":
        return cls(slice_id=str(doc["slice_id"]), varying=doc["varying"],
                   lo=float(doc["lo"]), hi=float(doc["hi"]),
                   count=int(doc["count"]),
                   constants={k: float(v) for k, v in doc["constants"].items()})


def build_slice_grid(spec: SliceSpec) -> Dataset:
    """Input-only grid: `count` equally spaced values of the varying
    feature (endpoints exact), constants copied bit-for-bit."""
    values = np.linspace(spec.lo, spec.hi, spec.count)
    rows = np.empty((spec.count, len(FEATURE_NAMES)))
    for j, name in enumerate(FEATURE_NAMES):
        rows[:, j] = values if name == spec.varying else spec.constants[name]
    return Dataset(rows, None, provenance=f"slice:{spec.slice_id}:{spec.varying}")


def _slice(slice_id, varying, lo, hi, **constants) -> SliceSpec:
    return SliceSpec(slice_id=slice_id, varying=varying, lo=lo, hi=hi,
                     count=101, constants=constants)


# Standard blind-test grids: each varies one feature across (and beyond)
# the training envelope while pinning the rest. Diameters are stored in
# meters.
BLIND_SLICES = (
    _slice("1", "L", 0.0, 20.0, D=8.01e-3, P=9806.0, G=1000.0, X=0.587),
    _slice("2", "L", 0.0, 20.0, D=8.11e-3, P=2009.0, G=752.2, X=0.756),
    _slice("3", "P", 0.0, 20000.0, D=8.00e-3, L=0.998, G=2006.0, X=0.140),
    _slice("4", "P", 0.0, 20000.0, D=13.40e-3, L=3.658, G=2040.2, X=0.378),
    _slice("5", "X", -0.5, 1.0, D=8.14e-3, L=1.943, P=9831.0, G=1519.5),
    _slice("6", "D", 0.0, 16.0e-3, L=6.000, P=9807.0, G=1003.3, X=0.529),
    _slice("7", "G", 0.0, 8000.0, D=8.00e-3, L=1.570, P=12750.0, X=0.144),
    _slice("8", "G", 0.0, 8000.0, D=10.00e-3, L=4.966, P=16000.0, X=0.343),
)


def check_slice_ids(specs: list[SliceSpec]) -> list[SliceSpec]:
    """The specs, unless two share an id (compared as text, so 1 and "1"
    collide): the second's files would silently replace the first's."""
    seen: set[str] = set()
    for spec in specs:
        sid = str(spec.slice_id)
        if sid in seen:
            raise ValueError(f"duplicate slice id {sid!r}")
        seen.add(sid)
    return specs


def load_slice_specs(path: str | Path) -> list[SliceSpec]:
    """Read slice specs from a JSON document: either a list of spec
    objects or {"slices": [...]}. A document of another shape, a spec
    that fails validation, or two specs with one id, raises
    CorruptArtifact naming the file."""
    doc = read_json(path, CorruptArtifact)
    try:
        if isinstance(doc, dict):
            doc = doc["slices"]
        return check_slice_ids([SliceSpec.from_dict(entry) for entry in doc])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CorruptArtifact(f"malformed slice-spec file {path}: {exc}") from exc
