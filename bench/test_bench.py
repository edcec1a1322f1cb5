"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the per-pass sum of self times may differ from the wall time measured
# around the pass by the cost of entering the root hook
SELF_SUM_TOLERANCE = 0.01       # relative
SELF_SUM_SLACK_S = 0.002        # absolute
ISSUE_METRICS = {
    "search": ("setup_s", "run_s", "trials_per_s", "peak_rss_mb", "fail_frac",
               "best_val_rmse"),
    "pipeline": ("setup_s", "run_s", "peak_rss_mb", "fail_frac", "test_rmse",
                 "coverage_gap", "mean_nll"),
    "score": ("setup_s", "run_s", "rows_scored_per_s", "peak_rss_mb", "fail_frac",
              "coverage_gap", "mean_nll"),
}


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return lines[:-1], json.loads(lines[-1])


def assert_declared(result: dict, kind: str) -> None:
    units = {e["name"]: e["unit"] for e in DECLARED[kind]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, list[str]]:
    return {w: bench(w, 1)[0] for w in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_metric_with_unit(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_declared(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[2] for line in lines if line.startswith(f"# {workload} ")}
    assert set(ISSUE_METRICS[workload]) <= printed


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_self_times_sum_to_pass_time(workload, traced_runs):
    doc = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed3-tiny.json")
                     .read_text(encoding="utf-8"))
    assert not doc["missing_hooks"]
    traced = [p for p in doc["passes"] if p["traced"]]
    assert len(traced) >= 2
    spans = doc["spans"]        # [name, tag, start, end, parent, pass id, counts]
    child: dict[int, float] = {}
    for s in spans:
        if s[4] >= 0:
            child[s[4]] = child.get(s[4], 0.0) + s[3] - s[2]
    for p in traced:
        self_sum = sum(s[3] - s[2] - child.get(i, 0.0)
                       for i, s in enumerate(spans) if s[5] == p["id"])
        assert abs(self_sum - p["wall_s"]) <= (SELF_SUM_TOLERANCE * p["wall_s"]
                                               + SELF_SUM_SLACK_S)


def test_traced_runs_cover_every_per_layer_metric(traced_runs):
    unreached = []
    for lines in traced_runs.values():
        line = next(x for x in lines if x.startswith("# per-layer metrics this workload"))
        unreached.append(set(line.split(": ", 1)[1].split(", ")))
    never = set.intersection(*unreached)
    assert never == set(), f"declared per-layer metrics no workload measures: {never}"
    for workload, lines in traced_runs.items():
        assert not any("NOT as predicted" in x for x in lines), workload


def test_traced_result_holds_the_per_layer_metrics():
    _, result = bench("search", 1)
    assert result["correct"]
    assert_declared(result, "per_layer")


def _corrupt(workload_cls, pass_index: int, damage, monkeypatch) -> None:
    """Damage a file of one pass's outputs before the checks read them."""
    original = workload_cls.check
    seen = []

    def check(self, out, exit_code):
        if len(seen) == pass_index:
            damage(out)
        seen.append(out)
        return original(self, out, exit_code)

    monkeypatch.setattr(workload_cls, "check", check)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def in_process(monkeypatch):
    for var in run.THREAD_VARS:       # run.main pins these; restore them after
        monkeypatch.delenv(var, raising=False)
    return ["--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny"]


def test_broken_variance_identity_is_caught(monkeypatch, capsys, in_process):
    def damage(out: Path) -> None:
        path = out / "predictions.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        cells = first.split(",")
        cells[-1] = repr(float(cells[-1]) * 1.01)     # total_var
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n",
                        encoding="utf-8")

    _corrupt(workloads.Score, 0, damage, monkeypatch)
    assert run.main(["--workload", "score", *in_process]) == 1
    result = _result(capsys)
    assert not result["correct"] and result["failed"] >= 1


def test_output_that_differs_between_passes_is_caught(monkeypatch, capsys, in_process):
    def damage(out: Path) -> None:
        path = out / "trials.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["config"]["hidden_units"] += 1
        path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n",
                        encoding="utf-8")

    _corrupt(workloads.Search, 1, damage, monkeypatch)
    assert run.main(["--workload", "search", *in_process]) == 1
    result = _result(capsys)
    assert not result["correct"] and result["failed"] >= 1


def test_missing_or_broken_hooks_never_stop_a_run():
    import autoduct.stats as stats
    original = stats.normal_cdf
    tracer = tracing.Tracer()
    hooks = (tracing.Hook("hpo.gone", "autoduct.hpo.gp", "removed_in_a_refactor"),
             tracing.Hook("stats.cdf", "autoduct.stats", "normal_cdf",
                          counts=lambda args, kwargs, result: 1 / 0))
    with tracing.Hooks(tracer, hooks):
        assert stats.normal_cdf(0.0) == 0.5
    assert stats.normal_cdf is original
    assert len(tracer.missing) == 2
    assert tracer.missing[0].startswith("missing hook autoduct.hpo.gp.removed_in_a_refactor")
    assert [s.name for s in tracer.spans] == ["stats.cdf"]


def test_no_sources_means_no_result():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
