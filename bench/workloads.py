"""The three workloads: inputs made from a seed, one pass through the
documented CLI, and the checks on what a pass writes.

A workload never hands the program its seed: the seed only makes the
input tables (and, for `score`, the table the fixture ensemble is trained
on). Each pass writes into a fresh directory, which the benchmark checks
and then deletes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# P(|Z| <= 2): the level the CLI uses when none is given
TWO_SIGMA_LEVEL = math.erf(2.0 / math.sqrt(2.0))
BLIND_SLICE_COUNT = 8
PREDICTION_COLUMNS = ("y_true", "y_pred", "aleatory_var", "epistemic_var", "total_var")

SIZES = {
    # about 2 s per pass on a 2-vCPU host, so a run's median covers a dozen
    # or more passes
    "full": {
        "search": {"rows": 400, "sobol": 16, "bo": 8, "epochs": 3, "patience": 3,
                   "top_k": 5},
        "pipeline": {"rows": 2500, "members": 5, "epochs": 20},
        "score": {"rows": 20_000, "train_rows": 1000, "members": 5, "epochs": 20},
    },
    # for the benchmark's own tests: every code path, a fraction of the work
    "tiny": {
        "search": {"rows": 200, "sobol": 4, "bo": 2, "epochs": 2, "patience": 1,
                   "top_k": 2},
        "pipeline": {"rows": 600, "members": 2, "epochs": 2},
        "score": {"rows": 2000, "train_rows": 400, "members": 2, "epochs": 2},
    },
}

RunCli = Callable[[list[str]], int]


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit input seed for one table, independent across labels."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def digest_files(directory: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under `directory` matching one of `patterns`."""
    found = {p for pattern in patterns for p in directory.rglob(pattern) if p.is_file()}
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(found)}


@dataclass
class PassCheck:
    """What the checks found in one pass's outputs."""

    ops: int                    # operations attempted
    failed: int                 # operations failed
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    work: int = 0               # trials (search) or rows scored (score) per pass


def check_predictions(path: Path, level: float, problems: list[str]) -> dict[str, float]:
    """Identity, coverage and scoring checks on a predictions.csv.

    aleatory + epistemic must equal total to 1e-9 relative in every row.
    Coverage, NLL and RMSE are recomputed here from the written columns.
    """
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    y, mean, ale, epi, total = (data[:, header.index(c)] for c in PREDICTION_COLUMNS)
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    if not np.all(total > 0):
        problems.append(f"{path.name}: non-positive total variance")
    bad = np.abs(ale + epi - total) > 1e-9 * np.abs(total)
    if np.any(bad):
        problems.append(f"{path.name}: aleatory + epistemic != total in "
                        f"{int(bad.sum())} rows")
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    inside = np.abs(y - mean) <= z * np.sqrt(total)
    resid = y - mean
    return {
        "rows": len(y),
        "rmse_kw_m2": float(np.sqrt(np.mean(resid * resid))),
        "coverage_gap": abs(float(np.mean(inside)) - level),
        "mean_nll": float(np.mean(0.5 * np.log(2.0 * math.pi * total)
                                  + resid * resid / (2.0 * total))),
    }


def check_slices(directory: Path, level: float, problems: list[str]) -> int:
    """Each blind slice CSV must hold a band of y_pred +- z*total_std.
    Returns the number of slice rows."""
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    rows = 0
    for k in range(1, BLIND_SLICE_COUNT + 1):
        csv_path = directory / f"slice_{k}.csv"
        if not csv_path.is_file() or not (directory / f"slice_{k}.svg").is_file():
            problems.append(f"slice {k}: CSV or SVG missing")
            continue
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2,
                          usecols=(3, 4, 5, 6))
        pred, std, lo, hi = data.T
        half = z * std
        if not (np.allclose(lo, pred - half, rtol=1e-9, atol=1e-9)
                and np.allclose(hi, pred + half, rtol=1e-9, atol=1e-9)):
            problems.append(f"{csv_path.name}: band is not y_pred +- z*total_std")
        rows += len(pred)
    return rows


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class Workload:
    name = ""
    op_name = ""                # what one operation is, for fail_frac
    # output files compared byte for byte across passes
    compared = ("*.csv", "*.svg", "report.json", "metrics.json")

    def __init__(self, size: dict, seed: int, inputs: Path):
        self.size = size
        self.seed = seed
        self.inputs = inputs

    def setup(self, run_cli: RunCli) -> list[str]:
        """One set-up repetition: (re)make the inputs, then a small warm-up
        pass. Returns the problems found."""
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        self.inputs.mkdir(parents=True)
        problems = []
        for argv in self.setup_commands():
            code = run_cli(argv)
            if code != 0:
                problems.append(f"set-up command {argv[:2]} exited {code}")
        return problems

    def gen(self, label: str, rows: int) -> list[str]:
        return ["data", "gen", "--n", str(rows), "--seed",
                str(derive_seed(self.seed, label)),
                "--out", str(self.inputs / f"{label}.csv")]

    def setup_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def pass_argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, exit_code: int) -> PassCheck:
        raise NotImplementedError


class Search(Workload):
    """`autoduct tune`: one run of Sobol warm-up plus GP-guided trials."""

    name = "search"
    op_name = "trials"

    def _tune(self, out: Path, sobol: int, bo: int, epochs: int, patience: int,
              top_k: int) -> list[str]:
        return ["tune", "--data", str(self.inputs / "search.csv"), "--runs", "1",
                "--sobol", str(sobol), "--bo", str(bo), "--epochs", str(epochs),
                "--patience", str(patience), "--top-k", str(top_k),
                "--out-dir", str(out)]

    def setup_commands(self) -> list[list[str]]:
        return [self.gen("search", self.size["rows"]),
                self._tune(self.inputs / "warmup", 2, 1, 1, 1, 1)]

    def pass_argv(self, out: Path) -> list[str]:
        s = self.size
        return self._tune(out, s["sobol"], s["bo"], s["epochs"], s["patience"],
                          s["top_k"])

    def _check_trials(self, records: list[dict], topk: list[dict], budget: int,
                      problems: list[str]) -> list[dict]:
        """Trial ids 0..budget-1, valid statuses, and topk.json equal to the
        k best successful trials. Returns the successful trials, best first."""
        if [r["trial_id"] for r in records] != list(range(budget)):
            problems.append(f"trials.jsonl holds trials "
                            f"{[r['trial_id'] for r in records]}, "
                            f"expected 0..{budget - 1}")
        ok = []
        for r in records:
            if r["status"] == "ok":
                if not (isinstance(r["objective"], float)
                        and math.isfinite(r["objective"]) and r["objective"] >= 0):
                    problems.append(f"trial {r['trial_id']}: bad objective")
                else:
                    ok.append(r)
            elif r["status"] != "diverged":
                problems.append(f"trial {r['trial_id']}: status {r['status']!r}")
        ok.sort(key=lambda r: (r["objective"], r["run_id"], r["trial_id"]))
        best = ok[:self.size["top_k"]]
        want = [(r["run_id"], r["trial_id"]) for r in best]
        got = [(c["run_id"], c["trial_id"]) for c in topk]
        if got != want or len(set(got)) != self.size["top_k"]:
            problems.append(f"topk.json lists {got}, the best ok trials are {want}")
        elif topk != [r["config"] for r in best]:
            problems.append("topk.json configs differ from their trials")
        return ok

    def check(self, out: Path, exit_code: int) -> PassCheck:
        budget = self.size["sobol"] + self.size["bo"]
        result = PassCheck(ops=budget, failed=0)
        problems = result.problems
        if exit_code != 0:
            problems.append(f"tune exited {exit_code}")
        try:
            lines = (out / "trials.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            topk_bytes = (out / "topk.json").read_bytes()
            topk = json.loads(topk_bytes)["configs"]
            ok = self._check_trials(records, topk, budget, problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable search output: {exc}")
            result.failed = budget
            return result

        # wall_time_s is a measurement; everything else must repeat exactly
        stable = "".join(json.dumps({k: v for k, v in r.items() if k != "wall_time_s"},
                                    sort_keys=True) + "\n" for r in records)
        result.digests = {
            "trials.jsonl": hashlib.sha256(stable.encode()).hexdigest(),
            "topk.json": hashlib.sha256(topk_bytes).hexdigest(),
        }
        if ok:
            result.quality["hpo.best_val_rmse"] = ok[0]["objective"]
        result.work = len(records)
        if problems:
            result.failed = budget
        return result


class Pipeline(Workload):
    """`autoduct agent --mode multi --planner scripted`: model, train,
    evaluate and report in a fresh workspace."""

    name = "pipeline"
    op_name = "task documents"

    def _agent(self, workspace: Path, members: int, epochs: int) -> list[str]:
        return ["agent", "--workspace", str(workspace),
                "--data", str(self.inputs / "pipeline.csv"), "--mode", "multi",
                "--planner", "scripted", "--members", str(members),
                "--epochs", str(epochs), "--slices", "blind"]

    def setup_commands(self) -> list[list[str]]:
        return [self.gen("pipeline", self.size["rows"]),
                self._agent(self.inputs / "warmup", 1, 1)]

    def pass_argv(self, out: Path) -> list[str]:
        return self._agent(out, self.size["members"], self.size["epochs"])

    def check(self, out: Path, exit_code: int) -> PassCheck:
        result = PassCheck(ops=3, failed=0)
        problems = result.problems
        if exit_code != 0:
            problems.append(f"agent exited {exit_code}")
        report_dir = out / "report"
        try:
            report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
            errors = int(report["errors"]["total"])
            # every error result is followed by one retry of the document
            result.ops = 3 + errors
            result.failed = errors
            if report["status"] != "completed":
                problems.append(f"report status {report['status']!r}")
            quality = check_predictions(report_dir / "predictions.csv",
                                        report["level"], problems)
            if not _same(quality["rmse_kw_m2"], report["metrics"]["rmse_kw_m2"]):
                problems.append(f"report.json rmse {report['metrics']['rmse_kw_m2']} "
                                f"!= {quality['rmse_kw_m2']} from predictions.csv")
            check_slices(report_dir, report["level"], problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable pipeline output: {exc}")
            result.failed = result.ops
            return result
        result.digests = digest_files(report_dir, self.compared)
        result.quality = {f"evaluation.{k}": v for k, v in quality.items() if k != "rows"}
        if problems:
            result.failed = result.ops
        return result


class Score(Workload):
    """`autoduct evaluate` of a fixed ensemble on a large held-out table
    plus the blind slices, with the full report export."""

    name = "score"
    op_name = "evaluate calls"
    file_count = 5 + 2 * BLIND_SLICE_COUNT

    def _evaluate(self, table: str, out: Path) -> list[str]:
        return ["evaluate", "--ensemble", str(self.inputs / "fixture" / "ensemble"),
                "--data", str(self.inputs / f"{table}.csv"), "--out-dir", str(out),
                "--slices", "blind"]

    def setup_commands(self) -> list[list[str]]:
        s = self.size
        return [self.gen("heldout", s["rows"]),
                self.gen("train", s["train_rows"]),
                self.gen("warmup", 500),
                ["direct", "--workspace", str(self.inputs / "fixture"),
                 "--data", str(self.inputs / "train.csv"),
                 "--members", str(s["members"]), "--epochs", str(s["epochs"])],
                self._evaluate("warmup", self.inputs / "warmup")]

    def pass_argv(self, out: Path) -> list[str]:
        return self._evaluate("heldout", out)

    def check(self, out: Path, exit_code: int) -> PassCheck:
        result = PassCheck(ops=1, failed=0)
        problems = result.problems
        if exit_code != 0:
            problems.append(f"evaluate exited {exit_code}")
        try:
            written = len(list(out.iterdir()))
            if written != self.file_count:
                problems.append(f"{written} files written, expected {self.file_count}")
            quality = check_predictions(out / "predictions.csv", TWO_SIGMA_LEVEL, problems)
            if quality["rows"] != self.size["rows"]:
                problems.append(f"{quality['rows']} predictions for "
                                f"{self.size['rows']} rows")
            header, row = (out / "metrics.csv").read_text(encoding="utf-8").split()[:2]
            rmse = float(row.split(",")[header.split(",").index("rmse_kw_m2")])
            if not _same(quality["rmse_kw_m2"], rmse):
                problems.append(f"metrics.csv rmse {rmse} != {quality['rmse_kw_m2']} "
                                f"from predictions.csv")
            slice_rows = check_slices(out, TWO_SIGMA_LEVEL, problems)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable score output: {exc}")
            result.failed = 1
            return result
        result.digests = digest_files(out, self.compared)
        result.quality = {f"evaluation.{k}": v for k, v in quality.items() if k != "rows"}
        result.work = quality["rows"] + slice_rows
        if problems:
            result.failed = 1
        return result


WORKLOADS = {cls.name: cls for cls in (Search, Pipeline, Score)}
