import itertools
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from autoduct import report_export
from autoduct.dataset import Dataset, SliceSpec, _write_rows, build_slice_grid
from autoduct.ensemble import EnsemblePrediction, interval
from autoduct.errors import IoFailure
from autoduct.evaluation import (MetricsReport, ModelEvaluation, SliceReport,
                                 SliceResult, evaluate_model, evaluate_slices)
from autoduct.report_export import (ERROR_BIN_EDGES, METRICS_HEADER,
                                    POINTS_HEADER, RATIO_BIN_EDGES,
                                    SLICE_HEADER, _STYLE, _c, _Canvas,
                                    export_report)

_SPEC = SliceSpec(slice_id="g_sweep", varying="G", lo=100.0, hi=4000.0,
                  count=25, constants={"D": 0.008, "L": 6.0, "P": 10000.0,
                                       "X": 0.1})


@pytest.fixture(scope="module")
def evaluation(tiny_ensemble, tiny_splits):
    return evaluate_model(tiny_ensemble, tiny_splits.test, level=0.9)


@pytest.fixture(scope="module")
def slice_report(tiny_ensemble):
    return evaluate_slices(tiny_ensemble, [_SPEC], level=0.9)


def _rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _elements(path, local_name):
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    return [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == local_name]


def test_export_writes_fixed_file_set(evaluation, slice_report, tmp_path):
    written = [Path(p) for p in export_report(evaluation, slice_report, tmp_path / "out")]
    assert [p.name for p in written] == ["metrics.csv", "predictions.csv",
                                         "parity.svg", "error_hist.svg",
                                         "ratio_hist.svg", "slice_g_sweep.csv",
                                         "slice_g_sweep.svg"]
    assert all(p.is_file() for p in written)

    bare = export_report(evaluation, None, tmp_path / "bare")
    assert [Path(p).name for p in bare] == ["metrics.csv", "predictions.csv",
                                      "parity.svg", "error_hist.svg",
                                      "ratio_hist.svg"]


def test_metrics_csv_round_trips(evaluation, tmp_path):
    export_report(evaluation, None, tmp_path)
    header, rows = _rows(tmp_path / "metrics.csv")
    assert header == METRICS_HEADER
    assert header == ("split,n,rmse_kw_m2,mape_pct,rmspe_pct,"
                      "ratio_mean,ratio_std,ratio_inside_frac")
    (row,) = rows
    r = evaluation.report
    assert row[0] == r.split_label
    assert int(row[1]) == r.n
    # 17 significant digits round-trip float64 exactly
    assert float(row[2]) == r.rmse
    assert float(row[3]) == r.mape
    assert float(row[4]) == r.rmspe
    assert float(row[5]) == r.ratio_mean
    assert float(row[6]) == r.ratio_std
    assert float(row[7]) == r.ratio_inside_frac


def test_predictions_csv_round_trips(evaluation, tmp_path):
    export_report(evaluation, None, tmp_path)
    header, rows = _rows(tmp_path / "predictions.csv")
    assert header == POINTS_HEADER
    assert header == "row,y_true,y_pred,aleatory_var,epistemic_var,total_var"
    assert len(rows) == len(evaluation.dataset)
    # `row` is the 0-based row of the scored table, written as an integer
    assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
    pred = evaluation.predictions
    for i, row in enumerate(rows):
        values = [float(v) for v in row[1:]]
        assert values[0] == evaluation.dataset.targets[i]
        assert values[1] == pred.mean[i]
        assert values[2] == pred.aleatory_var[i]
        assert values[3] == pred.epistemic_var[i]
        assert values[4] == pred.total_var[i]
        # exact round trip preserves the moment identity exactly
        assert values[4] == values[2] + values[3]


def test_double_export_is_byte_identical(evaluation, slice_report, tmp_path):
    first = export_report(evaluation, slice_report, tmp_path / "a")
    second = export_report(evaluation, slice_report, tmp_path / "b")
    for p1, p2 in zip(map(Path, first), map(Path, second)):
        assert p1.name == p2.name
        assert p1.read_bytes() == p2.read_bytes(), f"{p1.name} not reproducible"


def _parity_canvas(me):
    """The parity plot's canvas, rebuilt from the evaluation."""
    y = me.dataset.targets
    band_lo, band_hi = interval(me.predictions, me.level)
    lo = float(min(y.min(), band_lo.min()))
    hi = float(max(y.max(), band_hi.max()))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    return _Canvas(480, 480, (lo - pad, hi + pad), (lo - pad, hi + pad)), lo - pad, hi + pad


def test_parity_svg_structure(evaluation, tmp_path):
    export_report(evaluation, None, tmp_path)
    path = tmp_path / "parity.svg"
    n = len(evaluation.dataset)
    assert _elements(path, "circle") == []
    paths = {el.get("class"): el.get("d") for el in _elements(path, "path")}
    assert sorted(paths) == ["err", "pt"]
    bars = re.findall(r"M([^ ]+) ([^V]+)V([^M]+)", paths["err"])
    points = re.findall(r"M([^ ]+) ([^h]+)h0", paths["pt"])
    # the subpaths found spell out the whole path text, nothing else
    assert "".join(f"M{x} {lo}V{hi}" for x, lo, hi in bars) == paths["err"]
    assert "".join(f"M{x} {yh}h0" for x, yh in points) == paths["pt"]
    assert len(bars) == len(points) == n

    # each coordinate is the pixel of its value at 6 significant digits
    canvas, _, _ = _parity_canvas(evaluation)
    y = evaluation.dataset.targets
    band_lo, band_hi = interval(evaluation.predictions, evaluation.level)
    yhat = evaluation.predictions.mean
    for i in range(n):
        px = _c(canvas.x(float(y[i])))
        assert bars[i] == (px, _c(canvas.y(float(band_lo[i]))),
                           _c(canvas.y(float(band_hi[i]))))
        assert points[i] == (px, _c(canvas.y(float(yhat[i]))))
    refs = [el for el in _elements(path, "line") if el.get("class") == "ref"]
    assert len(refs) == 1             # the diagonal


def test_histogram_bin_edges_are_fixed():
    np.testing.assert_array_equal(ERROR_BIN_EDGES, np.linspace(-50.0, 50.0, 21))
    np.testing.assert_array_equal(RATIO_BIN_EDGES, np.linspace(0.0, 2.5, 26))


def test_error_histogram_bars_match_recomputed_counts(evaluation, tmp_path):
    export_report(evaluation, None, tmp_path)
    y = evaluation.dataset.targets
    yhat = evaluation.predictions.mean
    errors_pct = np.clip(100.0 * (yhat - y) / y, ERROR_BIN_EDGES[0],
                         ERROR_BIN_EDGES[-1])
    counts, _ = np.histogram(errors_pct, bins=ERROR_BIN_EDGES)
    bars = [el for el in _elements(tmp_path / "error_hist.svg", "rect")
            if el.get("class") == "bar"]
    assert len(bars) == int(np.count_nonzero(counts))

    ratios = np.clip(yhat / y, RATIO_BIN_EDGES[0], RATIO_BIN_EDGES[-1])
    rcounts, _ = np.histogram(ratios, bins=RATIO_BIN_EDGES)
    rbars = [el for el in _elements(tmp_path / "ratio_hist.svg", "rect")
             if el.get("class") == "bar"]
    assert len(rbars) == int(np.count_nonzero(rcounts))


def test_slice_csv_round_trips(evaluation, slice_report, tmp_path):
    result = slice_report.results[0]
    export_dir = tmp_path / "out"
    export_report(evaluation, slice_report, export_dir)
    header, rows = _rows(export_dir / "slice_g_sweep.csv")
    assert header == SLICE_HEADER
    assert len(rows) == _SPEC.count
    assert all(len(r) == len(SLICE_HEADER.split(",")) for r in rows)
    varying = result.grid.column("G")
    for i in (0, 12, 24):
        row = rows[i]
        assert row[0] == "g_sweep"
        assert row[1] == "G"
        assert float(row[2]) == varying[i]
        pred = result.predictions
        assert float(row[3]) == pred.mean[i]
        assert float(row[4]) == math.sqrt(pred.total_var[i])
        assert float(row[5]) == result.band_lo[i]
        assert float(row[6]) == result.band_hi[i]


def test_slice_svg_layers(evaluation, slice_report, tmp_path):
    export_report(evaluation, slice_report, tmp_path)
    path = tmp_path / "slice_g_sweep.svg"
    polygons = _elements(path, "polygon")
    assert [p.get("class") for p in polygons] == ["band"]
    polylines = _elements(path, "polyline")
    assert [p.get("class") for p in polylines] == ["mean"]
    # the band polygon closes the loop: one vertex per grid point, out and back
    points = polygons[0].get("points").split()
    assert len(points) == 2 * _SPEC.count


def test_all_svgs_parse_as_xml(evaluation, slice_report, tmp_path):
    written = export_report(evaluation, slice_report, tmp_path)
    for path in map(Path, written):
        if path.suffix == ".svg":
            root = ET.fromstring(path.read_text(encoding="utf-8"))
            assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_export_raises_io_failure_on_unwritable_target(evaluation, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    with pytest.raises(IoFailure, match="cannot create"):
        export_report(evaluation, None, blocker)


# --- byte oracles -------------------------------------------------------------
# The exporters render rows a block at a time through one `%` template. These
# render each value on its own; the exported bytes must equal theirs.

_AWKWARD = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 2.0, 1e16, -5e-324)


def _prediction(rng, n, scale):
    mean = scale * rng.uniform(0.8, 1.2, size=n)
    mean[::4] = np.round(mean[::4])
    aleatory = rng.uniform(1.0, 0.01 * scale**2, size=n)
    epistemic = rng.uniform(0.0, 0.001 * scale**2, size=n)
    aleatory[5], epistemic[6], epistemic[7] = 5e-324, -0.0, 0.1
    return EnsemblePrediction(mean, aleatory, epistemic, aleatory + epistemic)


@pytest.fixture(scope="module")
def awkward():
    """An evaluation and a slice, each longer than one 4096-row block, with
    awkward floats and `%` and `,` in the free-text labels."""
    rng = np.random.default_rng(17)
    n = 4096 + 1100
    features = rng.uniform(0.001, 5000.0, size=(n, 5))
    features[1::3] = np.round(features[1::3])
    features[0] = _AWKWARD[:5]
    features[4096] = _AWKWARD[2:]
    targets = rng.uniform(100.0, 9000.0, size=n)
    targets[::5] = np.round(targets[::5])
    dataset = Dataset(features, targets, "awkward")
    report = MetricsReport("test 100%s,x", n, -0.0, 5e-324, 1.7976931348623157e308,
                           0.1, 2.0, 1.0)
    me = ModelEvaluation(report, _prediction(rng, n, 3000.0), dataset, 0.9)

    spec = SliceSpec(slice_id="50%d,x", varying="G", lo=0.0, hi=8000.0, count=4500,
                     constants={"D": 0.008, "L": 6.0, "P": 10000.0, "X": -0.0})
    pred = _prediction(rng, spec.count, 2000.0)
    pred.mean[1], pred.mean[2] = -0.0, 5e-324
    lo, hi = interval(pred, 0.9)
    result = SliceResult(spec, build_slice_grid(spec), pred, lo, hi)
    return me, SliceReport((result,), 0.9)


def _csv_oracle(header, prefix, table):
    lines = [header] + [prefix + ",".join(f"{v:.17g}" for v in row)
                        for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parity_oracle(me):
    y = me.dataset.targets
    yhat = me.predictions.mean
    band_lo, band_hi = interval(me.predictions, me.level)
    canvas, lo, hi = _parity_canvas(me)
    parts = canvas.open_tag(_STYLE.replace(
        ".pt{fill:#1f5fa8;fill-opacity:0.55;stroke:none}",
        ".pt{fill:none;stroke:#1f5fa8;stroke-width:5;stroke-linecap:round;"
        "stroke-opacity:0.55}"))
    parts.append(f'<line class="ref" x1="{_c(canvas.x(lo))}" '
                 f'y1="{_c(canvas.y(lo))}" x2="{_c(canvas.x(hi))}" '
                 f'y2="{_c(canvas.y(hi))}"/>')
    bars = "".join(f"M{_c(canvas.x(float(y[i])))} {_c(canvas.y(float(band_lo[i])))}"
                   f"V{_c(canvas.y(float(band_hi[i])))}" for i in range(y.size))
    parts.append(f'<path class="err" d="{bars}"/>')
    points = "".join(f"M{_c(canvas.x(float(y[i])))} {_c(canvas.y(float(yhat[i])))}h0"
                     for i in range(y.size))
    parts.append(f'<path class="pt" d="{points}"/>')
    parts += canvas.ticks("measured [kW/m²]", "predicted [kW/m²]")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _slice_oracle(result):
    varying = result.grid.column(result.spec.varying)
    y_lo = float(result.band_lo.min())
    y_hi = float(result.band_hi.max())
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    canvas = _Canvas(560, 360, (float(varying[0]), float(varying[-1])),
                     (y_lo - pad, y_hi + pad))
    parts = canvas.open_tag()
    band = " ".join(f"{_c(canvas.x(float(v)))},{_c(canvas.y(float(b)))}"
                    for v, b in zip(varying, result.band_hi))
    band += " " + " ".join(f"{_c(canvas.x(float(v)))},{_c(canvas.y(float(b)))}"
                           for v, b in zip(varying[::-1], result.band_lo[::-1]))
    parts.append(f'<polygon class="band" points="{band}"/>')
    line = " ".join(f"{_c(canvas.x(float(v)))},{_c(canvas.y(float(m)))}"
                    for v, m in zip(varying, result.predictions.mean))
    parts.append(f'<polyline class="mean" points="{line}"/>')
    parts += canvas.ticks(f"slice {result.spec.slice_id}: {result.spec.varying}",
                          "CHF [kW/m²]")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _histogram_oracle(values, edges, label):
    counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
    canvas = _Canvas(480, 320, (float(edges[0]), float(edges[-1])),
                     (0.0, float(max(counts.max(), 1))))
    parts = canvas.open_tag()
    for i, count in enumerate(counts):
        if count == 0:
            continue
        x0 = canvas.x(float(edges[i]))
        x1 = canvas.x(float(edges[i + 1]))
        y1 = canvas.y(float(count))
        y0 = canvas.y(0.0)
        parts.append(f'<rect class="bar" x="{_c(x0)}" y="{_c(y1)}" '
                     f'width="{_c(x1 - x0)}" height="{_c(y0 - y1)}"/>')
    parts += canvas.ticks(label, "count")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def test_export_matches_per_value_oracles(awkward, tmp_path):
    me, slices = awkward
    export_report(me, slices, tmp_path)
    r = me.report
    metrics = ",".join([r.split_label, str(r.n)] + [
        f"{float(v):.17g}" for v in (r.rmse, r.mape, r.rmspe, r.ratio_mean,
                                     r.ratio_std, r.ratio_inside_frac)])
    assert (tmp_path / "metrics.csv").read_bytes() == \
        f"{METRICS_HEADER}\n{metrics}\n".encode("utf-8")

    preds = me.predictions
    lines = [POINTS_HEADER] + [
        f"{i}," + ",".join(f"{v:.17g}" for v in row) for i, row in enumerate(
            zip(me.dataset.targets.tolist(), preds.mean.tolist(),
                preds.aleatory_var.tolist(), preds.epistemic_var.tolist(),
                preds.total_var.tolist()))]
    assert (tmp_path / "predictions.csv").read_bytes() == \
        ("\n".join(lines) + "\n").encode("utf-8")

    assert (tmp_path / "parity.svg").read_bytes() == _parity_oracle(me)

    (result,) = slices.results
    columns = np.column_stack([result.grid.column("G"), result.predictions.mean,
                               np.sqrt(result.predictions.total_var), result.band_lo,
                               result.band_hi])
    assert (tmp_path / "slice_50%d,x.csv").read_bytes() == _csv_oracle(
        SLICE_HEADER, "50%d,x,G,", columns)
    # 4,500 grid points: each points list spans two 4096-row blocks
    assert (tmp_path / "slice_50%d,x.svg").read_bytes() == _slice_oracle(result)

    y, yhat = me.dataset.targets, preds.mean
    assert (tmp_path / "error_hist.svg").read_bytes() == _histogram_oracle(
        100.0 * (yhat - y) / y, ERROR_BIN_EDGES, "prediction error [%]")
    assert (tmp_path / "ratio_hist.svg").read_bytes() == _histogram_oracle(
        yhat / y, RATIO_BIN_EDGES, "predicted / measured")


# --- one atomic writer ----------------------------------------------------------

class _Cut(BaseException):
    """A write cut short, as by a kill or a full disk."""


def test_a_cut_export_leaves_every_file_as_it_was(evaluation, slice_report, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "out"
    before = {p.name: p.read_bytes()
              for p in map(Path, export_report(evaluation, slice_report, out))}
    templates = []

    def count_rows(fh, template, table):
        templates.append(template)
        _write_rows(fh, template, table)

    monkeypatch.setattr(report_export, "_write_rows", count_rows)
    export_report(evaluation, slice_report, tmp_path / "count")

    for cut_at in range(len(templates)):
        calls = itertools.count()

        def cut_rows(fh, template, table):
            # the cut_at-th table write stops halfway through its rows
            if next(calls) == cut_at:
                _write_rows(fh, template, table[:len(table) // 2])
                raise _Cut
            _write_rows(fh, template, table)

        monkeypatch.setattr(report_export, "_write_rows", cut_rows)
        with pytest.raises(_Cut):
            export_report(evaluation, slice_report, out)
        # no temp file is left, and each file has the first export's bytes
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, cut_at
    # each of the 7 files makes at least one table write, so each was cut
    assert len(templates) == 11


def test_export_raises_io_failure_when_a_file_cannot_be_written(evaluation, tmp_path):
    (tmp_path / "parity.svg").mkdir()
    with pytest.raises(IoFailure, match="cannot write .*parity.svg"):
        export_report(evaluation, None, tmp_path)
    assert list(tmp_path.glob(".*.tmp")) == []


def test_export_interns_no_file_name(evaluation, slice_report, tmp_path, monkeypatch):
    # pathlib interns every name it parses. The temp names, and the slice
    # file names, are new strings on each export, and each would take an
    # entry of CPython's interned-string table, which is reallocated each
    # time such entries fill it
    interned = []
    real = sys.intern
    monkeypatch.setattr(sys, "intern", lambda s: interned.append(s) or real(s))
    written = export_report(evaluation, slice_report, tmp_path)
    seen = set(interned)
    names = [Path(p).name for p in written]
    assert "slice_g_sweep.csv" in names
    assert not seen & set(names)
    assert not [s for s in seen if s.endswith(".tmp")]
