import csv
import io
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoduct import dataset
from autoduct.dataset import (BLIND_SLICES, FEATURE_NAMES, REFERENCE_ENVELOPE,
                              Dataset, Normalizer, SliceSpec, SyntheticConfig,
                              build_slice_grid, check_slice_ids, fit_normalizer,
                              generate_synthetic, load_csv, load_slice_specs,
                              split, synthetic_noise_std, synthetic_oracle,
                              validate_ranges, write_csv)
from autoduct.dataset import _parse_rows
import reference_rng
from autoduct.errors import (AutoductError, CorruptArtifact, DegenerateFeature,
                             EmptyFile, FractionSumInvalid, MalformedCsv,
                             MissingColumn, NonFiniteValue)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# --- CSV I/O ----------------------------------------------------------------

def test_load_csv_happy(tmp_path):
    p = _write(tmp_path / "d.csv",
               "D,L,P,G,X,CHF\n0.008,1.0,10000,2000,0.1,1500\n0.01,2.0,5000,1000,0.5,800\n")
    ds = load_csv(p)
    assert len(ds) == 2
    assert ds.features[0, 0] == 0.008
    assert ds.targets[1] == 800.0


def test_load_csv_column_order_irrelevant(tmp_path):
    p = _write(tmp_path / "d.csv",
               "CHF,X,G,P,L,D\n1500,0.1,2000,10000,1.0,0.008\n")
    ds = load_csv(p)
    assert ds.features[0].tolist() == [0.008, 1.0, 10000.0, 2000.0, 0.1]
    assert ds.targets[0] == 1500.0


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path / "d.csv", "D,L,P,G\n1,2,3,4\n")
    with pytest.raises(MissingColumn):
        load_csv(p)


def test_load_csv_missing_target_optional(tmp_path):
    p = _write(tmp_path / "d.csv", "D,L,P,G,X\n0.008,1,10000,2000,0.1\n")
    ds = load_csv(p, require_target=False)
    assert not ds.has_targets
    with pytest.raises(MissingColumn):
        load_csv(p, require_target=True)


def test_load_csv_non_finite(tmp_path):
    p = _write(tmp_path / "d.csv", "D,L,P,G,X,CHF\n0.008,nan,10000,2000,0.1,1500\n")
    with pytest.raises(NonFiniteValue) as err:
        load_csv(p)
    assert "L" in str(err.value)


def test_load_csv_empty(tmp_path):
    p = _write(tmp_path / "d.csv", "D,L,P,G,X,CHF\n")
    with pytest.raises(EmptyFile):
        load_csv(p)


def test_csv_round_trip_bit_exact(tmp_path, tiny_dataset):
    p = tmp_path / "rt.csv"
    write_csv(tiny_dataset, p)
    again = load_csv(p)
    assert np.array_equal(again.features, tiny_dataset.features)
    assert np.array_equal(again.targets, tiny_dataset.targets)


def test_load_csv_skips_utf8_bom(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfD,L,P,G,X,CHF\r\n0.008,1.0,10000,2000,0.1,1500\r\n"
                  b"0.01,2.0,5000,1000,0.5,800\r\n")
    ds = load_csv(p)
    assert ds.features.tolist() == [[0.008, 1.0, 10000.0, 2000.0, 0.1],
                                    [0.01, 2.0, 5000.0, 1000.0, 0.5]]
    assert ds.targets.tolist() == [1500.0, 800.0]


_GOOD_ROW = "0.008,1.0,10000,2000,0.1,1500"


@pytest.mark.parametrize("rows, row, column", [
    (["0.008,nan,10000,2000,0.1,1500"], 1, "L"),
    (["0.008,1.0,10000,2000,0.1,inf"], 1, "CHF"),
    (["abc,1.0,10000,2000,0.1,1500"], 1, "D"),
    (["0.008,1.0,1e400,2000,0.1,1500"], 1, "P"),
    ([_GOOD_ROW, "", "0.008,1.0,10000,x,0.1,1500"], 3, "G"),
    ([_GOOD_ROW, "  ,\t, ", "0.008,1.0,10000,2000,,1500"], 3, "X"),
    (["0.008,1.0,10000"], 1, "G"),
    (["0.008,1.0,10000,2000,0.1"], 1, "CHF"),
    # the first bad cell wins: row order, then D, L, P, G, X, CHF
    ([_GOOD_ROW, "0.008,1.0,10000,2000,0.1,-inf", "nan,1.0,10000,2000,0.1,1500"],
     2, "CHF"),
    (["nan,nan,10000,2000,0.1,1500"], 1, "D"),
    # the second 4096-row block, with a blank row counted in the first
    ([_GOOD_ROW] * 9 + [""] + [_GOOD_ROW] * 4989 + ["0.008,1.0,NaN,2000,0.1,1500"]
     + [_GOOD_ROW] * 10, 5000, "P"),
])
def test_load_csv_names_first_bad_cell(tmp_path, rows, row, column):
    p = _write(tmp_path / "bad.csv", "D,L,P,G,X,CHF\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonFiniteValue) as err:
        load_csv(p)
    assert (err.value.row, err.value.column) == (row, column)


# one cell over the csv module's default field size limit (131,072 characters)
_OVERSIZED_ROW = "0.008,1.0,10000,2000,0.1," + "1" * 140_000


@pytest.mark.parametrize("lines, line", [
    (["D,L,P,G,X,CHF"] + [_GOOD_ROW] * 5 + [_OVERSIZED_ROW] + [_GOOD_ROW] * 3, 7),
    (["D,L,P,G,X,CHF," + "h" * 140_000, _GOOD_ROW], 1),
])
def test_load_csv_oversized_field_is_malformed_csv(tmp_path, lines, line):
    p = _write(tmp_path / "big.csv", "\n".join(lines) + "\n")
    with pytest.raises(MalformedCsv) as err:
        load_csv(p)
    message = str(err.value)
    assert str(p) in message
    assert f"line {line}:" in message
    assert "field larger than field limit" in message


@pytest.mark.parametrize("rows, row, column", [
    # both lines among the first rows
    ([_GOOD_ROW, "0.008,1.0,10000,2000,nan,1500"] + [_GOOD_ROW] * 7 + [_OVERSIZED_ROW],
     2, "X"),
    # the bad cell near row 4,000, the oversized line near row 5,000
    ([_GOOD_ROW] * 3999 + ["0.008,1.0,10000,x,0.1,1500"] + [_GOOD_ROW] * 1000
     + [_OVERSIZED_ROW] + [_GOOD_ROW] * 3, 4000, "G"),
    # both lines past row 4,096
    ([_GOOD_ROW] * 4500 + ["0.008,inf,10000,2000,0.1,1500"] + [_GOOD_ROW] * 99
     + [_OVERSIZED_ROW] + [_GOOD_ROW] * 3, 4501, "L"),
])
def test_load_csv_bad_cell_before_malformed_line_wins(tmp_path, rows, row, column):
    # the earlier row is reported, wherever the two lines fall in the file
    p = _write(tmp_path / "big.csv", "D,L,P,G,X,CHF\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonFiniteValue) as err:
        load_csv(p)
    assert (err.value.row, err.value.column) == (row, column)


def test_load_csv_parses_cells_as_float_does(tmp_path):
    cells = [" 1.5 ", "1_000", "+2", "-0.0", "5e-324", "1.7976931348623157e308"]
    p = _write(tmp_path / "d.csv", "D,L,P,G,X,CHF\n" + ",".join(cells) + "\n")
    ds = load_csv(p)
    expected = np.array([float(c) for c in cells])
    got = np.append(ds.features[0], ds.targets[0])
    assert got.tobytes() == expected.tobytes()


def _awkward_dataset(targets):
    """More rows than one 4096-row block, with awkward floats in place."""
    rng = np.random.default_rng(5)
    n = 4096 + 904
    features = rng.uniform(0.001, 2000.0, size=(n, len(FEATURE_NAMES)))
    features[1::7] = np.round(features[1::7])
    features[0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 2.0]
    features[4095] = [0.1, -1.7976931348623157e308, -5e-324, 1e16, 123456789.0]
    features[4096] = [1.0, 0.0, 3.0, 1e-300, 0.30000000000000004]
    y = None
    if targets:
        y = rng.uniform(50.0, 16000.0, size=n)
        y[::5] = np.round(y[::5])
        y[2] = 0.1
    return Dataset(features, y)


def _csv_writer_oracle(ds: Dataset) -> bytes:
    """The former write_csv: csv.writer with one f-string per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if ds.has_targets:
        writer.writerow(list(FEATURE_NAMES) + ["CHF"])
        for i in range(len(ds)):
            writer.writerow([f"{v:.17g}" for v in ds.features[i]]
                            + [f"{ds.targets[i]:.17g}"])
    else:
        writer.writerow(list(FEATURE_NAMES))
        for i in range(len(ds)):
            writer.writerow([f"{v:.17g}" for v in ds.features[i]])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("targets", [True, False])
def test_write_csv_matches_csv_writer_oracle(tmp_path, targets):
    ds = _awkward_dataset(targets=targets)
    p = tmp_path / "w.csv"
    write_csv(ds, p)
    assert p.read_bytes() == _csv_writer_oracle(ds)


@pytest.mark.parametrize("targets", [True, False])
def test_write_load_round_trip_is_bit_exact(tmp_path, targets):
    ds = _awkward_dataset(targets=targets)
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    again = load_csv(p, require_target=targets)
    assert again.features.flags.c_contiguous
    assert again.features.tobytes() == ds.features.tobytes()
    if targets:
        assert again.targets.flags.c_contiguous
        assert again.targets.tobytes() == ds.targets.tobytes()
    else:
        assert not again.has_targets


# --- the C-reader fast path against its reference, _parse_rows -------------

def _table_bytes(ds: Dataset) -> bytes:
    return np.column_stack([ds.features, ds.targets]).tobytes()


def _outcome(read):
    """The bytes `read` returns, or the type and message of its error."""
    try:
        return read()
    except AutoductError as exc:
        return type(exc), str(exc)


def _reference_outcome(path):
    """`_parse_rows` alone on a file whose header `load_csv` accepts."""
    def read():
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            cols = [header.index(name) for name in _REQUIRED]
            return _parse_rows(reader, path, cols, tuple(_REQUIRED)).tobytes()
    return _outcome(read)


def _load_outcome(path):
    return _outcome(lambda: _table_bytes(load_csv(path)))


_REQUIRED = list(FEATURE_NAMES) + ["CHF"]
_OVER_LIMIT = "1" * 140_000        # over csv's default field limit (131,072)

_PLAIN_CELLS = st.tuples(
    st.text(alphabet=[" ", "\t", "\xa0", "\x0b", "\x0c", "　"], max_size=2),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
              st.integers(-10**6, 10**6).map(str)),
    st.sampled_from(["", " ", "\xa0"])).map("".join)
_ODD_CELLS = st.sampled_from([
    "+", "+1.5", "1_000", "١٢", "nan", "-inf", "inf", "1e400", "1e-400", "", " ", ".5",
    "5.", "\x1c1.5", "2\x1c", '"2.5"', '"1,5"', 'ab"c', "1#", "#", "\0", "1\x002",
    _OVER_LIMIT])


@st.composite
def _csv_files(draw):
    """Text of a CSV file with the required columns, in any order, among
    extra ones. A third of the files hold only padded numbers and empty
    lines, a third one odd cell among them, and the rest odd cells, lines
    and row widths anywhere."""
    odd = draw(st.sampled_from(["none", "one", "any"]))
    header = draw(st.permutations(_REQUIRED + draw(st.sampled_from(
        [[], ["note"], ["note", "e2"]]))))
    lead = draw(st.sampled_from([[], ["n"]] + ([['"a,b"'], ['"x\ny"']] if odd == "any"
                                               else [])))
    if lead:
        header = ["name"] + header
    cells = st.one_of(_PLAIN_CELLS, _ODD_CELLS) if odd == "any" else _PLAIN_CELLS
    kinds = ["row", "row", "row", "blank"] + (["space", "commas"] if odd == "any" else [])
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            width = len(header) - len(lead) + draw(st.integers(-(odd == "any"), 2))
            row = draw(st.lists(cells, min_size=width, max_size=width))
            if odd == "one":
                row[draw(st.integers(0, width - 1))] = draw(_ODD_CELLS)
                odd = "none"
            lines.append(",".join(lead + row))
        else:
            lines.append({"blank": "", "space": " \t", "commas": ",,,"}[kind])
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@given(_csv_files())
@settings(max_examples=150, deadline=None)
def test_load_csv_matches_its_reference_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    assert _load_outcome(path) == _reference_outcome(path)


_HEADER = "D,L,P,G,X,CHF"


@pytest.mark.parametrize("text", [
    # a NUL in an unused column, which csv accepts or refuses by version
    f"{_HEADER},note\n{_GOOD_ROW},a\0b\n",
    # an over-limit field, in an unused column and as a zero-padded number
    f"{_HEADER},note\n{_GOOD_ROW}\n{_GOOD_ROW},{_OVER_LIMIT}\n",
    f"{_HEADER}\n0.008,1.0,10000,2000,0.1,{'0' * 140_000}1500\n",
    # padding that numpy strips and float() does not
    f"{_HEADER}\n{_GOOD_ROW}\x1c\n",
], ids=["nul-unused", "over-limit-unused", "over-limit-number",
        "x1c-padding"])
def test_load_csv_matches_its_reference_on_lines_numpy_could_misread(tmp_path, text):
    path = tmp_path / "d.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    assert _load_outcome(path) == _reference_outcome(path)


def test_load_csv_reads_a_quoted_comma_as_csv_does(tmp_path):
    # a comma split would shift every column by one
    path = _write(tmp_path / "d.csv",
                  'n1,n2,D,L,P,G,X,CHF\n"x,y",7,0.01,1,10000,2000,0.1,1500\n')
    ds = load_csv(path)
    assert ds.features.tolist() == [[0.01, 1.0, 10000.0, 2000.0, 0.1]]
    assert ds.targets.tolist() == [1500.0]


def _count_reference_calls(monkeypatch) -> list:
    """Patch `_parse_rows` to record the path of each call; returns the record."""
    calls = []

    def spy(reader, path, cols, names):
        calls.append(path)
        return _parse_rows(reader, path, cols, names)

    monkeypatch.setattr(dataset, "_parse_rows", spy)
    return calls


@pytest.mark.parametrize("line", [
    '"0.008",1.0,10000,2000,0.1,1500',
    f"{_GOOD_ROW},a\0b",
    f"{_GOOD_ROW},{_OVER_LIMIT}",
    f"{_GOOD_ROW},\x1f",
], ids=["quote", "nul", "over-limit", "x1f"])
def test_lines_numpy_could_misread_go_to_the_reference(tmp_path, monkeypatch, line):
    # each line guard on its own, on any Python version
    path = _write(tmp_path / "d.csv", f"{_HEADER},note\n{_GOOD_ROW},n\n{line}\n")
    calls = _count_reference_calls(monkeypatch)
    _outcome(lambda: load_csv(path))
    assert calls == [path]


def test_load_csv_takes_the_fast_path_on_a_written_table(tmp_path, monkeypatch):
    ds = _awkward_dataset(targets=True)
    path = tmp_path / "w.csv"
    write_csv(ds, path)

    def refuse(*args):
        raise AssertionError("the reference parser ran")

    monkeypatch.setattr(dataset, "_parse_rows", refuse)
    assert _table_bytes(load_csv(path)) == _table_bytes(ds)


def test_load_csv_reads_a_fifo_through_the_reference(tmp_path, monkeypatch):
    text = f"{_HEADER}\n{_GOOD_ROW}\n0.01,2.0,5000,1000,0.5,800\n"
    plain = _write(tmp_path / "plain.csv", text)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    calls = _count_reference_calls(monkeypatch)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = _load_outcome(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _load_outcome(plain)
    assert calls == [fifo]          # the plain file took the fast path


@pytest.mark.parametrize("header, column", [
    ("D,L,P,G,X,CHF,CHF", "CHF"),
    ("D,L,P,G,X,CHF, D ", "D"),
    ("D,L,P,G,X,X", "X"),
])
def test_load_csv_refuses_a_duplicated_required_column(tmp_path, header, column):
    path = _write(tmp_path / "d.csv", f"{header}\n0.01,1,10000,2000,0.1,1500,9\n")
    with pytest.raises(MalformedCsv) as err:
        load_csv(path, require_target=False)
    assert str(err.value) == f"{path}: column {column!r} appears more than once in the header"


def test_write_csv_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "w.csv"
    write_csv(_awkward_dataset(targets=True), path)
    before = path.read_bytes()

    def cut(fh, template, table):
        fh.write((template * 2) % tuple(table[:2].ravel().tolist()))
        raise OSError("disk full")

    monkeypatch.setattr(dataset, "_write_rows", cut)
    with pytest.raises(OSError):
        write_csv(_awkward_dataset(targets=False), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.csv"]


# --- splitting ---------------------------------------------------------------

def test_split_paper_fractions_exact_counts():
    ds = generate_synthetic(SyntheticConfig(n=1000, seed=3))
    sp = split(ds, (0.72, 0.18, 0.10), seed=1)
    assert (len(sp.train), len(sp.validation), len(sp.test)) == (720, 180, 100)


def test_split_is_partition(tiny_dataset):
    sp = split(tiny_dataset, (0.72, 0.18, 0.10), seed=9)
    rows = np.vstack([sp.train.features, sp.validation.features, sp.test.features])
    assert rows.shape == tiny_dataset.features.shape
    # every original row appears exactly once
    original = {tuple(r) for r in tiny_dataset.features}
    recombined = [tuple(r) for r in rows]
    assert len(recombined) == len(set(recombined))
    assert set(recombined) == original


def test_split_deterministic(tiny_dataset):
    a = split(tiny_dataset, (0.72, 0.18, 0.10), seed=5)
    b = split(tiny_dataset, (0.72, 0.18, 0.10), seed=5)
    assert np.array_equal(a.train.features, b.train.features)
    c = split(tiny_dataset, (0.72, 0.18, 0.10), seed=6)
    assert not np.array_equal(a.train.features, c.train.features)


def test_split_fraction_validation(tiny_dataset):
    with pytest.raises(FractionSumInvalid):
        split(tiny_dataset, (0.8, 0.3, 0.1), seed=0)
    with pytest.raises(FractionSumInvalid):
        split(tiny_dataset, (0.5, 0.3, 0.1), seed=0)
    # non-finite fractions: NaN compares false against every bound
    for fractions in ((0.5, math.nan, 0.5), (math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
                      (math.inf, 0.0, 0.0), (1.0, -math.inf, math.inf)):
        with pytest.raises(FractionSumInvalid):
            split(tiny_dataset, fractions, seed=0)


@given(st.integers(min_value=10, max_value=300), st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_split_counts_floor_rule(n, seed):
    ds = generate_synthetic(SyntheticConfig(n=n, seed=seed))
    sp = split(ds, (0.72, 0.18, 0.10), seed=seed)
    assert len(sp.train) == int(math.floor(n * 0.72 + 1e-9))
    assert len(sp.validation) == int(math.floor(n * 0.18 + 1e-9))
    assert len(sp.train) + len(sp.validation) + len(sp.test) == n


@pytest.mark.parametrize("n, seed", [(10, 0), (11, 2**64 - 1), (157, 3), (2500, 11),
                                     (25000, 7)])
def test_split_order_equals_the_scalar_shuffle(n, seed):
    # the split's row order is today's scalar Fisher-Yates, bit for bit
    ds = Dataset(np.arange(5.0 * n).reshape(n, 5), np.arange(float(n)))
    sp = split(ds, (0.72, 0.18, 0.10), seed=seed)
    order = np.concatenate([s.features[:, 0] for s in (sp.train, sp.validation, sp.test)])
    assert order.tobytes() == (5.0 * reference_rng.split_order(n, seed)).tobytes()


# --- normalization -------------------------------------------------------------

def test_normalizer_round_trip(tiny_splits):
    norm = fit_normalizer(tiny_splits.train)
    x = tiny_splits.validation.features
    y = tiny_splits.validation.targets
    z = norm.transform_features(x)
    assert np.allclose(z * norm.feature_scale + norm.feature_shift, x,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(norm.inverse_target_mean(norm.transform_targets(y)), y,
                       rtol=1e-12, atol=1e-9)


def test_normalizer_standardizes_training_data(tiny_splits):
    norm = fit_normalizer(tiny_splits.train)
    z = norm.transform_features(tiny_splits.train.features)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_normalizer_variance_scale(tiny_splits):
    norm = fit_normalizer(tiny_splits.train)
    var = np.array([0.5, 2.0, 0.0])
    raw = norm.inverse_target_var(var)
    scale = (norm.inverse_target_mean(np.array([1.0]))[0]
             - norm.inverse_target_mean(np.array([0.0]))[0])
    assert np.allclose(raw, var * scale**2, rtol=1e-12)


def test_normalizer_degenerate_feature():
    rows = np.tile([0.008, 1.0, 8000.0, 900.0, 0.2], (10, 1))
    rows[:, 1] = np.linspace(0.1, 2, 10)     # only L varies
    ds = Dataset(rows, np.linspace(100, 200, 10))
    with pytest.raises(DegenerateFeature):
        fit_normalizer(ds)


def test_normalizer_dict_round_trip(tiny_normalizer):
    doc = tiny_normalizer.to_dict()
    again = Normalizer.from_dict(doc)
    assert again.to_dict() == doc


# --- synthetic generator --------------------------------------------------------

def test_synthetic_oracle_formula_reference():
    # independent recomputation of the documented closed form
    def oracle(D, L, P, G, X):
        return (150.0 + 1200.0 * (G / 1000.0) ** 0.55 * (P / 10000.0) ** 0.30
                * (1.0 - 0.45 * X) * (1.0 + 0.25 * math.exp(-L / 2.0))
                * (0.008 / D) ** 0.1)

    cases = [(0.008, 1.0, 10000.0, 1000.0, 0.0),
             (0.002, 0.05, 100.0, 10.0, -0.4),
             (0.016, 20.0, 20000.0, 7000.0, 0.9)]
    for d, l, p, g, x in cases:
        features = np.array([[d, l, p, g, x]])
        assert synthetic_oracle(features)[0] == pytest.approx(oracle(d, l, p, g, x),
                                                              rel=1e-12)


def test_synthetic_noise_positive_and_scales():
    features = np.array([[0.008, 1.0, 10000.0, 1000.0, 0.0]])
    clean = synthetic_oracle(features)[0]
    sd1 = synthetic_noise_std(features, 1.0)
    sd2 = synthetic_noise_std(features, 2.0)
    assert sd1[0] == pytest.approx(0.05 * clean + 10.0, rel=1e-12)
    assert sd2[0] == pytest.approx(2 * sd1[0], rel=1e-12)


def test_generate_synthetic_deterministic():
    a = generate_synthetic(SyntheticConfig(n=50, seed=4))
    b = generate_synthetic(SyntheticConfig(n=50, seed=4))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    c = generate_synthetic(SyntheticConfig(n=50, seed=5))
    assert not np.array_equal(a.targets, c.targets)


@pytest.mark.parametrize("n, noise_scale, seed", [
    (1, 1.0, 0), (2, 0.0, 2**64 - 1), (400, 1.0, 11), (401, 2.5, 5), (2500, 0.0, 5),
    (2500, 1.0, 12345)])
def test_generate_synthetic_equals_the_scalar_draws(n, noise_scale, seed):
    # the array draws give the table the scalar draws gave, byte for byte
    ds = generate_synthetic(SyntheticConfig(n=n, noise_scale=noise_scale, seed=seed))
    ref = reference_rng.generate_synthetic(n, noise_scale, seed)
    assert ds.features.tobytes() == ref.features.tobytes()
    assert ds.targets.tobytes() == ref.targets.tobytes()


def test_generate_synthetic_within_envelope(tiny_dataset):
    report = validate_ranges(tiny_dataset)
    assert report.ok


def test_validate_ranges_counts_violations():
    rows = np.array([
        [0.008, 1.0, 10000.0, 1000.0, 0.0],
        [0.020, 1.0, 10000.0, 1000.0, 0.0],      # D above envelope
        [0.008, 1.0, 30000.0, 1000.0, 2.0],      # P and X outside
    ])
    ds = Dataset(rows, np.array([1000.0, 1000.0, 99999.0]))
    report = validate_ranges(ds)
    assert not report.ok
    assert report.entries["D"].outside == 1
    assert report.entries["P"].outside == 1
    assert report.entries["X"].outside == 1
    assert report.entries["CHF"].outside == 1
    assert report.total_violations == 4


# --- slices ---------------------------------------------------------------------

def test_blind_slice_constants():
    # tabulated (id, varying, lo, hi, constants) with D in meters
    expected = {
        "1": ("L", 0.0, 20.0, {"D": 8.01e-3, "P": 9806.0, "G": 1000.0, "X": 0.587}),
        "2": ("L", 0.0, 20.0, {"D": 8.11e-3, "P": 2009.0, "G": 752.2, "X": 0.756}),
        "3": ("P", 0.0, 20000.0, {"D": 8.00e-3, "L": 0.998, "G": 2006.0, "X": 0.140}),
        "4": ("P", 0.0, 20000.0, {"D": 13.40e-3, "L": 3.658, "G": 2040.2, "X": 0.378}),
        "5": ("X", -0.5, 1.0, {"D": 8.14e-3, "L": 1.943, "P": 9831.0, "G": 1519.5}),
        "6": ("D", 0.0, 16.0e-3, {"L": 6.000, "P": 9807.0, "G": 1003.3, "X": 0.529}),
        "7": ("G", 0.0, 8000.0, {"D": 8.00e-3, "L": 1.570, "P": 12750.0, "X": 0.144}),
        "8": ("G", 0.0, 8000.0, {"D": 10.00e-3, "L": 4.966, "P": 16000.0, "X": 0.343}),
    }
    assert len(BLIND_SLICES) == 8
    for spec in BLIND_SLICES:
        varying, lo, hi, constants = expected[spec.slice_id]
        assert spec.varying == varying
        assert spec.lo == lo and spec.hi == hi
        assert spec.count == 101
        assert spec.constants == constants


def test_slice_grid_structure():
    spec = BLIND_SLICES[0]
    grid = build_slice_grid(spec)
    varying = grid.column(spec.varying)
    assert len(grid) == 101
    assert varying[0] == spec.lo and varying[-1] == spec.hi
    diffs = np.diff(varying)
    assert np.allclose(diffs, diffs[0], rtol=1e-9)
    for name, value in spec.constants.items():
        col = grid.column(name)
        assert np.all(col == value)        # bit-exact constants


def test_slice_spec_validation():
    base = dict(slice_id="s", varying="L", lo=0.0, hi=1.0, count=11,
                constants={"D": 0.008, "P": 1e4, "G": 1e3, "X": 0.1})
    SliceSpec(**base)
    with pytest.raises(ValueError):
        SliceSpec(**{**base, "varying": "Z"})
    with pytest.raises(ValueError):
        SliceSpec(**{**base, "lo": 2.0})
    with pytest.raises(ValueError):
        SliceSpec(**{**base, "count": 1})
    with pytest.raises(ValueError):
        SliceSpec(**{**base, "constants": {"D": 0.008, "P": 1e4, "G": 1e3}})
    with pytest.raises(ValueError):
        SliceSpec(**{**base, "constants": {**base["constants"], "L": 5.0}})


@pytest.mark.parametrize("slice_id", ["", ".", "..", "../evil", "a/b", "a\\b"])
def test_slice_id_that_cannot_name_a_file_is_refused(slice_id):
    with pytest.raises(ValueError, match="cannot name a file"):
        SliceSpec.from_dict({**BLIND_SLICES[0].to_dict(), "slice_id": slice_id})


def test_duplicate_slice_ids_are_refused(tmp_path):
    # ids are compared as text, so 1 and "1" collide
    first = BLIND_SLICES[0].to_dict()
    for ids, named in ((["a", "a"], "a"), ([1, "1"], "1")):
        p = tmp_path / "slices.json"
        p.write_text(json.dumps([{**first, "slice_id": ids[0]},
                                 {**BLIND_SLICES[1].to_dict(), "slice_id": ids[1]}]),
                     encoding="utf-8")
        with pytest.raises(CorruptArtifact) as err:
            load_slice_specs(p)
        assert str(err.value) == (f"malformed slice-spec file {p}: "
                                  f"duplicate slice id {named!r}")
    assert check_slice_ids(list(BLIND_SLICES)) == list(BLIND_SLICES)


def test_slice_specs_file_round_trip(tmp_path):
    p = tmp_path / "slices.json"
    p.write_text(json.dumps({"slices": [s.to_dict() for s in BLIND_SLICES]}),
                 encoding="utf-8")
    again = load_slice_specs(p)
    assert again == list(BLIND_SLICES)


@pytest.mark.parametrize("doc", [
    {"slices": [{"slice_id": "a", "varying": "G"}]},     # missing keys
    {"slices": 3},                                        # not a list
    {"other": []},                                        # no "slices" key
    [{**BLIND_SLICES[0].to_dict(), "constants": 3}],      # constants not a map
    [{**BLIND_SLICES[0].to_dict(), "varying": "Q"}],      # fails validation
])
def test_malformed_slice_specs_file_is_a_corrupt_artifact(tmp_path, doc):
    p = tmp_path / "slices.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorruptArtifact, match="malformed slice-spec file"):
        load_slice_specs(p)


# --- dataset container ------------------------------------------------------------

def test_dataset_immutable(tiny_dataset):
    with pytest.raises(ValueError):
        tiny_dataset.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        tiny_dataset.targets[0] = 99.0


def test_dataset_column_names(tiny_dataset):
    assert FEATURE_NAMES == ("D", "L", "P", "G", "X")
    for j, name in enumerate(FEATURE_NAMES):
        assert np.array_equal(tiny_dataset.column(name), tiny_dataset.features[:, j])
    with pytest.raises(ValueError):
        tiny_dataset.column("nope")


def test_envelope_reference_values():
    assert REFERENCE_ENVELOPE["D"] == (2e-3, 16e-3)
    assert REFERENCE_ENVELOPE["L"] == (0.05, 20.0)
    assert REFERENCE_ENVELOPE["P"] == (100.0, 20000.0)
    assert REFERENCE_ENVELOPE["G"] == (8.2, 7964.0)
    assert REFERENCE_ENVELOPE["X"] == (-0.497, 0.999)
    assert REFERENCE_ENVELOPE["CHF"] == (50.0, 16339.3)
