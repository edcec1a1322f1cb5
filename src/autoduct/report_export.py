"""Deterministic CSV and SVG rendering of evaluation results.

`export_report` builds one fixed-order list of (file name, writer) and
writes it in one loop, each file through `atomic.write_atomic`: a reader
sees the previous file or the new one, never a cut one, and a failed
write leaves no temp file behind. Each writer builds its own table when
it runs, so one file's table at a time is alive.

Every file is a pure function of the report content: numbers are
formatted at 17 significant digits in CSVs and 6 in SVG coordinates, no
timestamps or environment details are embedded, and element order is
fixed. Two exports of the same report are byte-identical.

`predictions.csv` holds no column that the scored table already holds:
each row names its 0-based row in that table (`row`), then the measured
CHF, the predicted mean and the three variances. `parity.svg` draws its
N error bars as one `<path class="err">` of `M x y V y'` subpaths and
its N points as one `<path class="pt">` of zero-length, round-capped
`M x y h0` segments, so each path's opacity applies to it as a whole.

CSV rows and every SVG coordinate list (the parity paths, the slice
band and mean, the histogram bars) are rendered a block of rows at a
time through one `%` row template (`dataset._write_rows`) and written
straight to the open file. The bytes are those of formatting each value
on its own with `f"{v:.17g}"` or `f"{v:.6g}"`.

The SVGs are static and self-contained (inline styling only) and share
one skeleton (`_svg`): the canvas open tag, the lines the body writes,
then the axis ticks and `</svg>`. Histogram bin edges are fixed so
figures from different runs are comparable: percent error uses 20 bins
over [-50, 50], ratio uses 25 bins over [0, 2.5]; values outside are
counted into the edge bins.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TextIO

import numpy as np

from .atomic import write_atomic
from .dataset import _write_rows
from .ensemble import interval
from .errors import IoFailure
from .evaluation import METRIC_COLUMNS, MetricsReport, ModelEvaluation, SliceResult

METRICS_HEADER = ",".join(["split", "n", *METRIC_COLUMNS.values()])
POINTS_HEADER = "row,y_true,y_pred,aleatory_var,epistemic_var,total_var"
SLICE_HEADER = "slice_id,varying_feature,varying_value,y_pred,total_std,band_lo,band_hi"

ERROR_BIN_EDGES = np.linspace(-50.0, 50.0, 21)
RATIO_BIN_EDGES = np.linspace(0.0, 2.5, 26)


def _row_template(prefix: str, columns: int) -> str:
    """CSV row template: literal `prefix`, then `columns` floats at 17
    significant digits."""
    return prefix.replace("%", "%%") + ",".join(["%.17g"] * columns) + "\n"


def export_report(me: ModelEvaluation, slices: tuple[SliceResult, ...],
                  directory: str | Path) -> list[str]:
    """Write the full file set, two files per slice result (none for
    `()`), and return the paths, as strings, in a fixed order."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {directory}: {exc}") from exc

    y, yhat = me.dataset.targets, me.predictions.mean
    files = [
        ("metrics.csv", lambda fh: _write_metrics_csv(fh, me.report)),
        ("predictions.csv", lambda fh: _write_predictions_csv(fh, me)),
        ("parity.svg", lambda fh: _write_parity_svg(fh, me)),
        ("error_hist.svg", lambda fh: _write_histogram_svg(
            fh, 100.0 * (yhat - y) / y, ERROR_BIN_EDGES, "prediction error [%]")),
        ("ratio_hist.svg", lambda fh: _write_histogram_svg(
            fh, yhat / y, RATIO_BIN_EDGES, "predicted / measured")),
    ]
    for result in slices:
        sid = result.spec.slice_id
        files += [(f"slice_{sid}.csv", partial(_write_slice_csv, result=result)),
                  (f"slice_{sid}.svg", partial(_write_slice_svg, result=result))]

    # each path a plain string: the slice file names are new strings on
    # every export, and pathlib would intern each one (see write_atomic)
    written: list[str] = []
    for name, write in files:
        path = os.path.join(directory, name)
        try:
            write_atomic(path, write)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written


def _write_metrics_csv(fh: TextIO, r: MetricsReport) -> None:
    fh.write(METRICS_HEADER + "\n")
    _write_rows(fh, _row_template(f"{r.split_label},{r.n},", len(METRIC_COLUMNS)),
                np.array([[getattr(r, field) for field in METRIC_COLUMNS]],
                         dtype=np.float64))


def _write_predictions_csv(fh: TextIO, me: ModelEvaluation) -> None:
    preds = me.predictions
    # `row` rides in the float table; `%d` renders it exactly below 2**53
    table = np.column_stack([np.arange(len(preds.mean), dtype=np.float64),
                             me.dataset.targets, preds.mean, preds.aleatory_var,
                             preds.epistemic_var, preds.total_var])
    fh.write(POINTS_HEADER + "\n")
    _write_rows(fh, "%d," + _row_template("", table.shape[1] - 1), table)


def _write_slice_csv(fh: TextIO, result: SliceResult) -> None:
    columns = [result.grid.column(result.spec.varying), result.predictions.mean,
               np.sqrt(result.predictions.total_var), result.band_lo, result.band_hi]
    fh.write(SLICE_HEADER + "\n")
    _write_rows(fh, _row_template(f"{result.spec.slice_id},{result.spec.varying},",
                                  len(columns)),
                np.column_stack(columns))


# --- SVG rendering --------------------------------------------------------

_CIRCLE_PT = ".pt{fill:#1f5fa8;fill-opacity:0.55;stroke:none}"
_STYLE = ("text{font-family:sans-serif;font-size:11px;fill:#333}"
          ".axis{stroke:#333;stroke-width:1;fill:none}"
          ".grid{stroke:#ddd;stroke-width:0.5}"
          ".ref{stroke:#888;stroke-width:1;stroke-dasharray:4 3;fill:none}"
          ".mean{stroke:#1f5fa8;stroke-width:1.5;fill:none}"
          ".band{fill:#1f5fa8;fill-opacity:0.18;stroke:none}"
          + _CIRCLE_PT +
          ".bar{fill:#1f5fa8;fill-opacity:0.7;stroke:#fff;stroke-width:0.5}"
          ".err{stroke:#1f5fa8;stroke-width:0.6;stroke-opacity:0.35}")
# parity.svg's points are zero-length segments whose round caps, 5 px
# wide, draw the old 2.5 px circles; the histograms and slice plots keep
# the stylesheet above byte for byte
_PARITY_STYLE = _STYLE.replace(
    _CIRCLE_PT, ".pt{fill:none;stroke:#1f5fa8;stroke-width:5;stroke-linecap:round;"
                "stroke-opacity:0.55}")


def _c(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    """Linear data-to-pixel mapping with a fixed margin box. `x` and `y`
    apply to arrays elementwise, giving the same doubles as per value."""

    def __init__(self, width: int, height: int, x_range: tuple[float, float],
                 y_range: tuple[float, float]):
        self.width, self.height = width, height
        self.margin_l, self.margin_r = 56, 16
        self.margin_t, self.margin_b = 16, 40
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi == self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi == self.y_lo:
            self.y_hi = self.y_lo + 1.0

    def x(self, v):
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.margin_l + frac * (self.width - self.margin_l - self.margin_r)

    def y(self, v):
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.height - self.margin_b - frac * (self.height - self.margin_t - self.margin_b)

    def open_tag(self, style: str = _STYLE) -> list[str]:
        return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
                f"<style>{style}</style>",
                f'<rect class="axis" x="{self.margin_l}" y="{self.margin_t}" '
                f'width="{self.width - self.margin_l - self.margin_r}" '
                f'height="{self.height - self.margin_t - self.margin_b}"/>']

    def ticks(self, x_label: str, y_label: str, count: int = 5) -> list[str]:
        parts = []
        for i in range(count):
            vx = self.x_lo + i * (self.x_hi - self.x_lo) / (count - 1)
            px = self.x(vx)
            py = self.height - self.margin_b
            parts.append(f'<line class="axis" x1="{_c(px)}" y1="{_c(py)}" '
                         f'x2="{_c(px)}" y2="{_c(py + 4)}"/>')
            parts.append(f'<text x="{_c(px)}" y="{_c(py + 16)}" '
                         f'text-anchor="middle">{vx:.4g}</text>')
            vy = self.y_lo + i * (self.y_hi - self.y_lo) / (count - 1)
            px = self.margin_l
            py = self.y(vy)
            parts.append(f'<line class="axis" x1="{_c(px - 4)}" y1="{_c(py)}" '
                         f'x2="{_c(px)}" y2="{_c(py)}"/>')
            parts.append(f'<text x="{_c(px - 7)}" y="{_c(py + 4)}" '
                         f'text-anchor="end">{vy:.4g}</text>')
        parts.append(f'<text x="{_c((self.margin_l + self.width - self.margin_r) / 2)}" '
                     f'y="{self.height - 6}" text-anchor="middle">{x_label}</text>')
        parts.append(f'<text x="12" y="{_c((self.margin_t + self.height - self.margin_b) / 2)}" '
                     f'text-anchor="middle" transform="rotate(-90 12 '
                     f'{_c((self.margin_t + self.height - self.margin_b) / 2)})">{y_label}</text>')
        return parts


@contextmanager
def _svg(fh: TextIO, canvas: _Canvas, x_label: str, y_label: str,
         style: str = _STYLE) -> Iterator[None]:
    """Every SVG's skeleton: the canvas open tag, then the lines the body
    writes inside the `with`, then the axis ticks and `</svg>`."""
    fh.write("\n".join(canvas.open_tag(style)) + "\n")
    yield
    fh.write("\n".join(canvas.ticks(x_label, y_label) + ["</svg>"]) + "\n")


def _write_points(fh: TextIO, x: np.ndarray, y: np.ndarray) -> None:
    """An SVG `points` list: `x,y` pairs joined by single spaces."""
    xy = np.column_stack([x, y])
    _write_rows(fh, "%.6g,%.6g ", xy[:-1])
    _write_rows(fh, "%.6g,%.6g", xy[-1:])


def _write_parity_svg(fh: TextIO, me: ModelEvaluation) -> None:
    y = me.dataset.targets
    yhat = me.predictions.mean
    band_lo, band_hi = interval(me.predictions, me.level)
    lo = float(min(y.min(), band_lo.min()))
    hi = float(max(y.max(), band_hi.max()))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    canvas = _Canvas(480, 480, (lo - pad, hi + pad), (lo - pad, hi + pad))
    with _svg(fh, canvas, "measured [kW/m²]", "predicted [kW/m²]", _PARITY_STYLE):
        fh.write(f'<line class="ref" x1="{_c(canvas.x(lo - pad))}" '
                 f'y1="{_c(canvas.y(lo - pad))}" x2="{_c(canvas.x(hi + pad))}" '
                 f'y2="{_c(canvas.y(hi + pad))}"/>\n<path class="err" d="')
        px = canvas.x(y)
        _write_rows(fh, "M%.6g %.6gV%.6g",
                    np.column_stack([px, canvas.y(band_lo), canvas.y(band_hi)]))
        fh.write('"/>\n<path class="pt" d="')
        _write_rows(fh, "M%.6g %.6gh0", np.column_stack([px, canvas.y(yhat)]))
        fh.write('"/>\n')


def _write_slice_svg(fh: TextIO, result: SliceResult) -> None:
    varying = result.grid.column(result.spec.varying)
    y_lo = float(result.band_lo.min())
    y_hi = float(result.band_hi.max())
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    canvas = _Canvas(560, 360, (float(varying[0]), float(varying[-1])),
                     (y_lo - pad, y_hi + pad))
    px = canvas.x(varying)
    with _svg(fh, canvas, f"slice {result.spec.slice_id}: {result.spec.varying}",
              "CHF [kW/m²]"):
        # the band runs out along its upper edge and back along its lower
        fh.write('<polygon class="band" points="')
        _write_points(fh, np.concatenate([px, px[::-1]]),
                      canvas.y(np.concatenate([result.band_hi, result.band_lo[::-1]])))
        fh.write('"/>\n<polyline class="mean" points="')
        _write_points(fh, px, canvas.y(result.predictions.mean))
        fh.write('"/>\n')


def _write_histogram_svg(fh: TextIO, values: np.ndarray, edges: np.ndarray,
                         label: str) -> None:
    counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
    canvas = _Canvas(480, 320, (float(edges[0]), float(edges[-1])),
                     (0.0, float(max(counts.max(), 1))))
    bar = counts != 0
    x0, x1 = canvas.x(edges[:-1][bar]), canvas.x(edges[1:][bar])
    top = canvas.y(counts[bar])
    with _svg(fh, canvas, label, "count"):
        _write_rows(fh, '<rect class="bar" x="%.6g" y="%.6g" width="%.6g" height="%.6g"/>\n',
                    np.column_stack([x0, top, x1 - x0, canvas.y(0.0) - top]))
