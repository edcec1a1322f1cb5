import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from autoduct import cli
from autoduct.dataset import load_csv, write_csv

# keep every trained network tiny; these suffixes go on most commands
_FAST = ["--members", "2", "--layers", "1", "--units", "8", "--epochs", "4",
         "--patience", "2", "--batch", "64"]


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("autoduct ")
    assert "formats:" in out


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 1
    assert "usage:" in capsys.readouterr().out


def test_data_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["data", "gen", "--n", "50", "--seed", "3",
                     "--out", str(a)]) == 0
    assert cli.main(["data", "gen", "--n", "50", "--seed", "3",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_csv(a)) == 50
    assert "wrote 50 rows" in capsys.readouterr().out

    c = tmp_path / "c.csv"
    assert cli.main(["data", "gen", "--n", "50", "--seed", "4",
                     "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_data_validate_clean_and_doctored(tmp_path, capsys):
    path = tmp_path / "clean.csv"
    cli.main(["data", "gen", "--n", "40", "--seed", "1", "--out", str(path)])
    assert cli.main(["data", "validate", "--data", str(path)]) == 0
    assert "all values inside" in capsys.readouterr().out

    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[0] = "0.5"                 # tube diameter far outside the envelope
    lines[1] = ",".join(fields)
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join(lines) + "\n")
    assert cli.main(["data", "validate", "--data", str(doctored)]) == 2
    assert "outside the reference envelope" in capsys.readouterr().out


def test_data_split_counts(tmp_path, capsys):
    path = tmp_path / "d.csv"
    cli.main(["data", "gen", "--n", "50", "--seed", "2", "--out", str(path)])
    out_dir = tmp_path / "parts"
    assert cli.main(["data", "split", "--data", str(path),
                     "--fracs", "0.72,0.18,0.10", "--seed", "1",
                     "--out-dir", str(out_dir)]) == 0
    assert "split 50 rows into 36/9/5" in capsys.readouterr().out
    assert len(load_csv(out_dir / "train.csv")) == 36
    assert len(load_csv(out_dir / "validation.csv")) == 9
    assert len(load_csv(out_dir / "test.csv")) == 5


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "seed": 9}))
    a = tmp_path / "a.csv"
    assert cli.main(["data", "gen", "--config", str(cfg), "--out", str(a)]) == 0
    assert len(load_csv(a)) == 30

    b = tmp_path / "b.csv"
    assert cli.main(["data", "gen", "--config", str(cfg), "--n", "20",
                     "--out", str(b)]) == 0
    assert len(load_csv(b)) == 20


def test_missing_input_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert cli.main(["data", "validate", "--data", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_broken_config_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "z.csv"
    assert cli.main(["data", "gen", "--config", str(bad), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err

    gone = tmp_path / "gone.json"
    assert cli.main(["data", "gen", "--config", str(gone), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bad_fractions_are_an_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    cli.main(["data", "gen", "--n", "30", "--seed", "1", "--out", str(path)])
    code = cli.main(["data", "split", "--data", str(path),
                     "--fracs", "0.5,0.5", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "three comma-separated fractions" in capsys.readouterr().err


def test_direct_then_evaluate(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    out = capsys.readouterr().out
    assert "model:" in out and "train:" in out and "evaluate:" in out
    assert "rmse_kw_m2" in out

    report_dir = tmp_path / "eval"
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                     "--data", str(ws / "data.csv"), "--fracs", "0.72,0.18,0.10",
                     "--out-dir", str(report_dir), "--level", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "wrote 5 files" in out
    assert (report_dir / "metrics.csv").is_file()
    assert (report_dir / "parity.svg").is_file()


def test_evaluate_with_blind_slices(tmp_path, capsys, tiny_dataset):
    ws = tmp_path / "ws"
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    assert cli.main(["direct", "--workspace", str(ws), "--data", str(data),
                     *_FAST]) == 0
    capsys.readouterr()
    report_dir = tmp_path / "eval"
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                     "--data", str(data), "--fracs", "0.72,0.18,0.10",
                     "--out-dir", str(report_dir), "--slices", "blind"]) == 0
    out = capsys.readouterr().out
    assert "wrote 21 files" in out            # 5 common + 8 slices x 2
    assert (report_dir / "slice_1.csv").is_file()
    assert (report_dir / "slice_8.svg").is_file()


def test_agent_command_multi(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--mode", "multi", "--run-id", "cli-check",
                     *_FAST]) == 0
    out = capsys.readouterr().out
    assert "run cli-check (multi, planner scripted)" in out
    assert "status: completed" in out
    assert (ws / "report" / "report.json").is_file()


def test_agent_stop_then_resume(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    base = ["agent", "--workspace", str(ws), "--synthetic", "120",
            "--seed", "5", *_FAST]
    assert cli.main(base + ["--stop-after-stage", "training_execution"]) == 0
    assert "resume with --resume" in capsys.readouterr().out
    assert cli.main(base + ["--resume"]) == 0
    assert "status: completed" in capsys.readouterr().out


def test_agent_with_injected_fault(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--inject-fault", "stage=evaluate,attempt=1",
                     *_FAST]) == 0
    out = capsys.readouterr().out
    assert "errors total: 1 (recovered 1)" in out


def test_trials_command(tmp_path, capsys):
    ws = tmp_path / "trials_ws"
    assert cli.main(["trials", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--n", "3", "--fault-runs", "2",
                     *_FAST]) == 0
    out = capsys.readouterr().out
    assert "Robustness over 3 runs" in out

    doc = json.loads((ws / "trials.json").read_text())
    assert doc["stats"]["n_runs"] == 3
    assert doc["stats"]["completed_zero_errors"] == 2
    assert doc["stats"]["completed_one_error"] == 1
    assert doc["stats"]["failures"] == 0
    assert len(doc["runs"]) == 3
    assert (ws / "trials.txt").read_text().startswith("Robustness over 3 runs")
    assert (ws / "trial_002" / "report" / "report.json").is_file()


def test_tune_command(tmp_path, capsys, tiny_dataset):
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    out_dir = tmp_path / "tune"
    assert cli.main(["tune", "--data", str(data), "--runs", "2", "--sobol", "2",
                     "--bo", "1", "--top-k", "2", "--seed", "0",
                     "--epochs", "2", "--patience", "1",
                     "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "6 trials" in out
    assert "best validation RMSE" in out
    lines = (out_dir / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 6
    top = json.loads((out_dir / "topk.json").read_text())
    assert len(top["configs"]) == 2


_TINY_TUNE = ["--runs", "2", "--sobol", "2", "--bo", "1", "--top-k", "2",
              "--seed", "0", "--epochs", "2", "--patience", "1"]


def _stable_trials(path):
    """The lines of trials.jsonl without their wall-clock field."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}, sort_keys=True)
            for r in records]


def test_tune_twice_into_one_directory(tmp_path, tiny_dataset):
    # a second tune replaces the first one's log instead of appending to it
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    out_dir = tmp_path / "tune"
    argv = ["tune", "--data", str(data), *_TINY_TUNE, "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    first = _stable_trials(out_dir / "trials.jsonl")
    assert cli.main(argv) == 0
    second = _stable_trials(out_dir / "trials.jsonl")
    assert len(second) == 6          # 2 runs x (2 Sobol + 1 BO)
    assert second == first
    top = json.loads((out_dir / "topk.json").read_text())["configs"]
    by_id = {(r["run_id"], r["trial_id"]): r["config"] for r in map(json.loads, second)}
    assert all(by_id[(c["run_id"], c["trial_id"])] == c for c in top)


def test_tune_is_identical_across_processes(tmp_path, tiny_dataset):
    # BLAS thread count and hash seed must not reach the surrogate's results
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads, hash_seed in (("1", "0"), ("2", "123")):
        out_dir = tmp_path / f"tune-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "autoduct.cli", "tune", "--data", str(data),
             *_TINY_TUNE, "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(out_dir)
    a, b = outputs
    assert _stable_trials(a / "trials.jsonl") == _stable_trials(b / "trials.jsonl")
    assert (a / "topk.json").read_bytes() == (b / "topk.json").read_bytes()
