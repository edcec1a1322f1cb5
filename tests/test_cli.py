import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autoduct import cli
from autoduct.agents import ProjectContext
from autoduct.dataset import BLIND_SLICES, load_csv, write_csv

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


def test_unreadable_inputs_are_one_error_naming_the_file(tmp_path, capsys):
    # a missing, non-UTF-8, non-JSON or too deeply nested document: exit 1
    # with one line that names it, before any output is written
    files = {"bad": b"{bad", "latin1": b'{"n": "\xe9"}', "deep": b"[" * 100_000}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_bytes(content)
    empty = tmp_path / "no_ensemble"
    empty.mkdir()
    out = tmp_path / "out"
    cases = [(["data", "gen", "--config", str(tmp_path / f"{name}.json"), "--out", str(out)],
              tmp_path / f"{name}.json") for name in (*files, "gone")]
    cases += [(["evaluate", "--ensemble", str(empty), "--data", str(tmp_path / "d.csv"),
                "--slices", str(tmp_path / "deep.json"), "--out-dir", str(out)],
               tmp_path / "deep.json"),
              (["evaluate", "--ensemble", str(empty), "--data", str(tmp_path / "d.csv"),
                "--out-dir", str(out)], empty / "manifest.json")]
    for argv, path in cases:
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable {path}: ") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_agent_resume_without_metrics_is_one_error_naming_the_file(tmp_path, capsys, mode):
    # the report stage needs the evaluation's metrics.json: a resume that
    # finds it gone fails, leaving the stage failed and no report
    ws = tmp_path / "agent_ws"
    base = ["agent", "--workspace", str(ws), "--synthetic", "120", "--seed", "5",
            "--mode", mode, *_FAST]
    assert cli.main(base + ["--stop-after-stage", "evaluation_execution"]) == 0
    metrics = ws / "report" / "metrics.json"
    metrics.unlink()
    capsys.readouterr()
    assert cli.main(base + ["--resume"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: unreadable {metrics}: ") and err.count("\n") == 1, err
    assert "status: completed" not in out
    stage = json.loads((ws / "state.json").read_text())["stages"]["report_synthesis"]
    assert (stage["status"], stage["error_count"]) == ("failed", 0)
    assert not (ws / "report" / "report.json").exists()


def test_agent_refuses_a_role_symlinked_out_of_the_workspace(tmp_path, capsys):
    # every role path is resolved when the run's context is built, before
    # the dataset is staged: in `agent` as in `direct`, a report directory
    # linked out of the workspace ends the run there, with one error line
    # and no file written anywhere
    outside = tmp_path / "outside"
    outside.mkdir()
    for command in ("agent", "direct"):
        ws = tmp_path / command
        ws.mkdir()
        (ws / "report").symlink_to(outside, target_is_directory=True)
        assert cli.main([command, "--workspace", str(ws), "--synthetic", "120", *_FAST]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {outside.resolve()} is outside the workspace {ws.resolve()}\n"
        assert [p.name for p in ws.iterdir()] == ["report"]
    assert list(outside.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["agent", "direct", "outside"]


def test_bad_fractions_are_an_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    cli.main(["data", "gen", "--n", "30", "--seed", "1", "--out", str(path)])
    code = cli.main(["data", "split", "--data", str(path),
                     "--fracs", "0.5,0.5", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "three comma-separated fractions" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["data", "split", "--data", "{data}", "--fracs", "a,b,c", "--out-dir", "{out}"],
     "--fracs: expected three comma-separated fractions, got 'a,b,c'"),
    (["data", "split", "--data", "{data}", "--fracs", "0.5,nan,0.5", "--out-dir", "{out}"],
     "fractions (0.5, nan, 0.5) must be non-negative and sum to 1"),
    (["agent", "--workspace", "{out}", "--data", "{data}",
      "--inject-fault", "stage=train,attempt=x"],
     "fault clause 'stage=train,attempt=x': attempt takes whole numbers, got 'x'"),
    (["trials", "--workspace", "{out}", "--data", "{data}", "--n", "1",
      "--fault-runs", "1", "--fault-spec", "stage=train,attempts=1-y"],
     "fault clause 'stage=train,attempts=1-y': attempts takes whole numbers, got '1-y'"),
], ids=["fracs_not_numbers", "fracs_nan", "inject_fault_attempt", "trials_fault_spec"])
def test_malformed_flag_value_is_one_line_naming_it(tmp_path, capsys, argv, line):
    data = tmp_path / "d.csv"
    cli.main(["data", "gen", "--n", "30", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([a.format(data=data, out=out) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


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

    # the same settings from a config file, fracs as a JSON list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fracs": [0.72, 0.18, 0.10], "level": 0.9}))
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                     "--data", str(ws / "data.csv"), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "eval_cfg")]) == 0
    names = sorted(p.name for p in report_dir.iterdir() if p.name != "timings.json")
    for name in names:
        assert (tmp_path / "eval_cfg" / name).read_bytes() == \
            (report_dir / name).read_bytes(), name


def _prediction_rows(report_dir):
    """predictions.csv's `row` column and its y_true column, as read."""
    lines = (report_dir / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:2] == ["row", "y_true"]
    cells = [line.split(",") for line in lines[1:]]
    return [int(c[0]) for c in cells], np.array([float(c[1]) for c in cells])


def test_prediction_rows_join_back_to_the_scored_table(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "150",
                     "--seed", "5", *_FAST]) == 0
    data = ws / "data.csv"

    # with --fracs the scored table is the test split that `data split`
    # writes for the same fractions and seed
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"), "--data", str(data),
                     "--fracs", "0.72,0.18,0.10", "--split-seed", "1",
                     "--out-dir", str(tmp_path / "eval")]) == 0
    assert cli.main(["data", "split", "--data", str(data), "--fracs", "0.72,0.18,0.10",
                     "--seed", "1", "--out-dir", str(tmp_path / "parts")]) == 0
    capsys.readouterr()
    rows, y_true = _prediction_rows(tmp_path / "eval")
    test_chf = load_csv(tmp_path / "parts" / "test.csv").targets
    assert rows == list(range(len(test_chf)))
    assert np.array_equal(y_true.view(np.uint64), test_chf[rows].view(np.uint64))

    # without --fracs it is the --data file itself
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"), "--data", str(data),
                     "--out-dir", str(tmp_path / "eval_all")]) == 0
    rows, y_true = _prediction_rows(tmp_path / "eval_all")
    all_chf = load_csv(data).targets
    assert rows == list(range(len(all_chf)))
    assert np.array_equal(y_true.view(np.uint64), all_chf.view(np.uint64))


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


_MALFORMED_SLICE_FILES = ({"slices": [{"slice_id": "a", "varying": "G"}]},
                          {"slices": 3}, {"other": []}, ["not a spec"],
                          {"slices": [{"slice_id": "a", "varying": "G", "lo": 0,
                                       "hi": 1, "count": 3, "constants": 3}]})


def test_malformed_slice_file_is_an_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    capsys.readouterr()
    for i, doc in enumerate(_MALFORMED_SLICE_FILES):
        spec_file = tmp_path / f"slices_{i}.json"
        spec_file.write_text(json.dumps(doc), encoding="utf-8")
        agent_ws = tmp_path / f"agent_{i}"
        assert cli.main(["agent", "--workspace", str(agent_ws), "--synthetic", "120",
                         "--slices", str(spec_file), *_FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed slice-spec file {spec_file}"), err
        assert not agent_ws.exists()
        assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                         "--data", str(ws / "data.csv"), "--slices", str(spec_file),
                         "--out-dir", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed slice-spec file {spec_file}"), err
        assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("ids", [["a", "a"], [1, "1"], ["../evil"], ["a/b"], ["a\\b"],
                                 ["."], [".."], [""]])
def test_slice_ids_that_collide_or_name_no_file_fail_before_scoring(tmp_path, capsys,
                                                                    monkeypatch, ids):
    # a repeated id would let a slice's files replace another's, and a
    # path-like one writes outside the report or fails only after the
    # metrics are exported; both are refused with the file named, before
    # any scoring or training
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    capsys.readouterr()
    scored = []
    monkeypatch.setattr(cli, "evaluate_model", lambda *a, **k: scored.append(a))
    spec_file = tmp_path / "slices.json"
    spec_file.write_text(json.dumps([{**BLIND_SLICES[i].to_dict(), "slice_id": sid}
                                     for i, sid in enumerate(ids)]), encoding="utf-8")
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                     "--data", str(ws / "data.csv"), "--slices", str(spec_file),
                     "--out-dir", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed slice-spec file {spec_file}: "), err
    assert scored == [] and not (tmp_path / "eval").exists()
    agent_ws = tmp_path / "agent"
    assert cli.main(["agent", "--workspace", str(agent_ws), "--synthetic", "120",
                     "--slices", str(spec_file), *_FAST]) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed slice-spec file {spec_file}: ")
    assert not agent_ws.exists()


def test_agent_llm_planner_needs_credentials_and_endpoint(tmp_path, capsys,
                                                         monkeypatch):
    from autoduct.agents import planner as planner_mod

    requests_made = []
    monkeypatch.setattr(planner_mod, "_default_transport",
                        lambda *args: requests_made.append(args))
    monkeypatch.delenv("AUTODUCT_API_KEY", raising=False)
    base = ["agent", "--synthetic", "120", "--seed", "5", "--planner", "llm",
            "--model", "m", *_FAST]
    assert cli.main(base + ["--workspace", str(tmp_path / "a"),
                            "--endpoint", "http://127.0.0.1:9"]) == 1
    assert "AUTODUCT_API_KEY" in capsys.readouterr().err
    assert requests_made == []

    # the flags are checked before the dataset is staged or a trial directory made
    message = "--planner llm requires --endpoint and --model"
    assert cli.main(base + ["--workspace", str(tmp_path / "b")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b" / "data.csv").exists()
    assert cli.main(["trials", "--n", "2", *base[1:],
                     "--workspace", str(tmp_path / "c")]) == 1
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "c").glob("**/data.csv"))
    assert not list((tmp_path / "c").glob("trial_*"))


def test_agent_command_multi(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--mode", "multi", "--run-id", "cli-check",
                     *_FAST]) == 0
    out = capsys.readouterr().out
    assert "run cli-check (multi, planner scripted)" in out
    assert "status: completed" in out
    assert (ws / "report" / "report.json").is_file()


def test_agent_prints_the_resolved_report_path(tmp_path, capsys):
    # the printed path comes from the run's layout, resolved like every
    # path an error names, not from --workspace as typed
    real = tmp_path / "real"
    real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    assert cli.main(["agent", "--workspace", str(link), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"\nreport: {real.resolve() / 'report' / 'report.json'}\n")
    assert (real / "report" / "report.json").is_file()


def test_agent_stop_then_resume(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    base = ["agent", "--workspace", str(ws), "--synthetic", "120",
            "--seed", "5", *_FAST]
    assert cli.main(base + ["--stop-after-stage", "training_execution"]) == 0
    assert "resume with --resume" in capsys.readouterr().out
    assert cli.main(base + ["--resume"]) == 0
    assert "status: completed" in capsys.readouterr().out


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_agent_resume_refuses_another_table(tmp_path, capsys):
    # a resume continues on the staged data.csv: a --synthetic or --data
    # table with other bytes is one error naming the file and the flag,
    # with nothing written; the same table resumes to the end
    ws = tmp_path / "wr"
    first = ["agent", "--workspace", str(ws), "--synthetic", "600", "--members", "2",
             "--epochs", "2"]
    assert cli.main(first + ["--stop-after-stage", "training_execution"]) == 0
    staged = _tree(ws)
    other = tmp_path / "other.csv"
    other.write_bytes((ws / "data.csv").read_bytes() + b"0,0,0,0,0,0\r\n")
    for flags, flag in ((["--synthetic", "900", "--members", "3", "--epochs", "5"],
                         "--synthetic"),
                        (["--data", str(other)], "--data")):
        capsys.readouterr()
        assert cli.main(["agent", "--workspace", str(ws), *flags, "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(ws / "data.csv") in err and flag in err
        assert _tree(ws) == staged
    same = tmp_path / "same.csv"
    same.write_bytes((ws / "data.csv").read_bytes())
    shutil.copytree(ws, tmp_path / "wr2")
    assert cli.main(first + ["--resume"]) == 0
    assert cli.main(["agent", "--workspace", str(tmp_path / "wr2"), "--data", str(same),
                     "--members", "2", "--epochs", "2", "--resume"]) == 0
    assert "status: completed" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_agent_resume_gives_up_on_a_terminal_error_at_once(tmp_path, capsys, mode):
    # a version-1 ensemble cannot be mended by a retry: one error, not the
    # whole retry budget or step budget, and the message names the cause
    ws = tmp_path / "agent_ws"
    base = ["agent", "--workspace", str(ws), "--synthetic", "120", "--seed", "5",
            "--mode", mode, *_FAST]
    assert cli.main(base + ["--stop-after-stage", "training_execution"]) == 0
    manifest = ws / "ensemble" / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "format_version": 1}))
    capsys.readouterr()
    assert cli.main(base + ["--resume"]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'evaluation_execution' stopped on a terminal error, not retried "
        f"(error 1): VersionMismatch: unsupported ensemble format 1 in {manifest}\n")
    stage = json.loads((ws / "state.json").read_text())["stages"]["evaluation_execution"]
    assert (stage["status"], stage["error_count"]) == ("failed", 1)


@pytest.mark.parametrize("first, second", [("multi", "react"), ("react", "multi")])
def test_agent_resume_in_the_other_mode_is_an_error(tmp_path, capsys, first, second):
    ws = tmp_path / "agent_ws"
    base = ["agent", "--workspace", str(ws), "--synthetic", "120", "--seed", "5", *_FAST]
    assert cli.main(base + ["--mode", first, "--stop-after-stage",
                            "training_execution"]) == 0
    capsys.readouterr()
    saved = (ws / "state.json").read_bytes()
    assert cli.main(base + ["--mode", second, "--resume"]) == 1
    assert capsys.readouterr().err == (f"error: state belongs to a '{first}' run, "
                                       f"this loop is '{second}'\n")
    assert (ws / "state.json").read_bytes() == saved
    assert not (ws / "report").exists()


def test_agent_unknown_stop_stage_is_an_error(tmp_path, capsys):
    for mode in ("multi", "react"):
        ws = tmp_path / mode
        assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                         "--seed", "5", "--mode", mode,
                         "--stop-after-stage", "bogus", *_FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown stage 'bogus'")
        assert not (ws / "state.json").exists()


def test_agent_stop_stage_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stop_after_stage": "training_execution", "epochs": 3}))
    ws = tmp_path / "agent_ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--config", str(cfg), *_FAST]) == 0
    out = capsys.readouterr().out
    assert "stopped after stage training_execution; resume with --resume" in out
    state = json.loads((ws / "state.json").read_text())
    assert state["stages"]["evaluation_execution"]["status"] == "pending"
    # the config's epochs lose to the --epochs 4 given on the command line
    task = json.loads((ws / "training_task.json").read_text())
    assert task["payload"]["optimizer"]["epochs"] == 4


def test_agent_with_injected_fault(tmp_path, capsys):
    ws = tmp_path / "agent_ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", "--inject-fault", "stage=evaluate,attempt=1",
                     *_FAST]) == 0
    out = capsys.readouterr().out
    assert "errors total: 1 (recovered 1)" in out


def test_agent_workspace_is_identical_across_directories(tmp_path, capsys):
    # the planner prompts list role paths relative to the workspace, so the
    # task documents' prompt and patch digests do not depend on where the
    # run is made; the fault makes the training stage record a patch digest
    def contents(ws):
        files = {str(p.relative_to(ws)): p.read_bytes() for p in sorted(ws.rglob("*"))
                 if p.is_file() and p.name != "timings.json"}     # wall-clock sidecar
        state = json.loads(files.pop("state.json"))
        for stage in state["stages"].values():
            del stage["updated_at"]
        return files, state

    runs = []
    for where in ("one", "two/nested"):
        ws = tmp_path / where / "ws"
        assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                         "--seed", "5", "--inject-fault", "stage=train,attempt=1",
                         *_FAST]) == 0
        runs.append(contents(ws))
    capsys.readouterr()
    (a, a_state), (b, b_state) = runs
    assert b"patch_digest" in a["training_task.json"]
    assert b"prompt_digest" in a["evaluation_task.json"]
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name] == b[name], name
    assert a_state == b_state


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



@pytest.mark.parametrize("command", ["agent", "direct"])
def test_recipe_rejected_by_a_task_schema_fails_before_any_file(tmp_path, capsys,
                                                                command):
    # --level only reaches the evaluate stage's payload, after training
    ws = tmp_path / "ws"
    assert cli.main([command, "--workspace", str(ws), "--synthetic", "100",
                     "--level", "1.5", "--members", "2", "--epochs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluate payload invalid: 1.5 ") and err.count("\n") == 1, err
    assert not ws.exists()


def test_trials_checks_its_fault_flags_before_trial_one(tmp_path, capsys):
    ws = tmp_path / "trials_ws"
    base = ["trials", "--workspace", str(ws), "--synthetic", "100", "--n", "1"]
    assert cli.main([*base, "--fault-runs", "3", "--fault-spec", "bogus", *_FAST]) == 1
    assert capsys.readouterr().err == "error: --fault-runs 3 outside the runs 1..1\n"
    assert cli.main([*base, "--fault-runs", "1", "--fault-spec", "bogus", *_FAST]) == 1
    assert capsys.readouterr().err == "error: malformed fault clause 'bogus'\n"
    assert cli.main([*base, "--fault-runs", "one", *_FAST]) == 1
    assert "--fault-runs takes comma-separated run numbers" in capsys.readouterr().err
    assert not ws.exists()


@pytest.mark.parametrize("command, flags", [
    ("trials", ["--n", "2", "--max-retries", "0"]),
    ("agent", ["--mode", "react", "--max-steps", "0"]),
    ("agent", ["--max-retries", "-1"]),
])
def test_agent_loop_limits_are_checked_before_any_file(tmp_path, capsys, command, flags):
    ws = tmp_path / "ws"
    assert cli.main([command, "--workspace", str(ws), "--synthetic", "100",
                     *flags, *_FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[-2]} must be at least 1, got {flags[-1]}")
    assert err.count("\n") == 1
    assert not ws.exists() and list(tmp_path.iterdir()) == []

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


@pytest.mark.parametrize("flags, message", [
    (["--runs", "0"], "--runs must be at least 1, got 0"),
    (["--sobol", "1"], "--sobol must be at least 2, got 1"),
    (["--bo", "-1"], "--bo must be at least 0, got -1"),
    (["--epochs", "0"], "--epochs must be at least 1, got 0"),
    (["--patience", "-1"], "--patience must be at least 0, got -1"),
    (["--top-k", "0"], "--top-k must lie in 1..6 (runs x (sobol + bo)), got 0"),
    (["--top-k", "7"], "--top-k must lie in 1..6 (runs x (sobol + bo)), got 7"),
], ids=["runs", "sobol", "bo", "epochs", "patience", "top_k_0", "top_k_above_trials"])
def test_tune_usage_error_keeps_the_last_log(tmp_path, capsys, monkeypatch, tiny_dataset,
                                             flags, message):
    # the ranges are checked before the data is read or the log is emptied,
    # so a usage error evaluates no trial and leaves the last run's files
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    out_dir = tmp_path / "tune"
    argv = ["tune", "--data", str(data), *_TINY_TUNE, "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    log, top = (out_dir / "trials.jsonl").read_bytes(), (out_dir / "topk.json").read_bytes()
    assert log
    evaluated = []
    real_factory = cli.make_trial_evaluator

    def counting_factory(*args, **kwargs):
        evaluate = real_factory(*args, **kwargs)
        return lambda tc: evaluated.append(tc) or evaluate(tc)

    monkeypatch.setattr(cli, "make_trial_evaluator", counting_factory)
    assert cli.main(argv + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert evaluated == []
    assert (out_dir / "trials.jsonl").read_bytes() == log
    assert (out_dir / "topk.json").read_bytes() == top



def test_a_failed_topk_write_leaves_the_previous_file(tmp_path, capsys, monkeypatch,
                                                      tiny_dataset):
    data = tmp_path / "data.csv"
    write_csv(tiny_dataset, data)
    out_dir = tmp_path / "tune"
    argv = ["tune", "--data", str(data), *_TINY_TUNE, "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    top = (out_dir / "topk.json").read_bytes()
    names = sorted(p.name for p in out_dir.iterdir())

    def cut_short(doc, fh, **kwargs):
        fh.write('{\n  "configs": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", cut_short)
    assert cli.main(argv) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert (out_dir / "topk.json").read_bytes() == top
    assert sorted(p.name for p in out_dir.iterdir()) == names

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


def test_direct_and_agent_reports_are_identical_across_processes(tmp_path):
    # BLAS thread count and hash seed must not reach training, the ensemble's
    # moments or the exported bytes; `direct` writes no report.json, so a
    # scripted `agent` run covers that file
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads, hash_seed in (("1", "0"), ("2", "123")):
        cwd = tmp_path / f"run-{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command in ("direct", "agent"):
            done = subprocess.run(
                [sys.executable, "-m", "autoduct.cli", command, "--workspace", command,
                 "--synthetic", "200", "--seed", "5", "--slices", "blind", *_FAST],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        reports.append(cwd)
    def report_files(root):
        return sorted(str(p.relative_to(root)) for p in root.glob("*/report/*")
                      if p.name != "timings.json")      # wall-clock sidecar

    a, b = reports
    names = report_files(a)
    assert "agent/report/report.json" in names
    for kind in ("metrics.csv", "predictions.csv", "parity.svg", "slice_8.svg"):
        assert f"direct/report/{kind}" in names and f"agent/report/{kind}" in names
    assert report_files(b) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_evaluate_in_row_blocks_is_identical_across_processes(tmp_path, capsys):
    # 9,000 rows run in three row blocks; the BLAS thread count must not
    # reach the blocked inference or the exported bytes
    ws = tmp_path / "ws"
    data = tmp_path / "data.csv"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    assert cli.main(["data", "gen", "--n", "9000", "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads, hash_seed in (("1", "0"), ("2", "123")):
        out_dir = tmp_path / f"eval-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "autoduct.cli", "evaluate", "--ensemble",
             str(ws / "ensemble"), "--data", str(data), "--slices", "blind",
             "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(out_dir)
    a, b = outputs
    names = sorted(p.name for p in a.iterdir() if p.name != "timings.json")
    assert "predictions.csv" in names and "slice_8.svg" in names
    assert sorted(p.name for p in b.iterdir() if p.name != "timings.json") == names
    assert len((a / "predictions.csv").read_text().splitlines()) > 9000
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_data_validate_oversized_field_is_an_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("D,L,P,G,X,CHF\n0.008,1.0,10000,2000,0.1," + "1" * 140_000 + "\n")
    assert cli.main(["data", "validate", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "line 2" in err


@pytest.mark.parametrize("text, message", [
    ("D,L,P,G,CHF\n0.008,1.0,10000,2000,1500\n", "missing required column 'X'"),
    ("D,L,P,G,X,CHF\n0.008,nan,10000,2000,0.1,1500\n",
     "non-finite value at data row 1, column 'L'"),
    ("D,L,P,G,X,CHF,CHF\n0.01,1,10000,2000,0.1,1500,9\n",
     "column 'CHF' appears more than once in the header"),
])
def test_csv_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert cli.main(["data", "validate", "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_failed_staging_copy_keeps_the_previous_table(tmp_path, monkeypatch):
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / "data.csv").write_bytes(b"previous")
    table = tmp_path / "t.csv"
    table.write_bytes(b"D,L,P,G,X,CHF\r\n" + b"0.008,1,10000,2000,0.1,1500\r\n" * 500)
    args = argparse.Namespace(data=str(table), synthetic=None, seed=0)
    ctx = ProjectContext(workspace, run_id="r")

    def cut(src, dst):
        dst.write(src.read(100))
        raise OSError("disk full")

    monkeypatch.setattr(shutil, "copyfileobj", cut)
    with pytest.raises(OSError):
        cli._stage_dataset(args, ctx)
    assert (workspace / "data.csv").read_bytes() == b"previous"
    assert [p.name for p in workspace.iterdir()] == ["data.csv"]
    monkeypatch.undo()
    cli._stage_dataset(args, ctx)
    assert (workspace / "data.csv").read_bytes() == table.read_bytes()
    assert [p.name for p in workspace.iterdir()] == ["data.csv"]


_IMPORT_PROBE = """
import json, sys
from autoduct import cli
from autoduct.agents import PipelineRecipe
from autoduct.agents.tasks import TaskDocument, validate_document

heavy = ("requests", "jsonschema")
def loaded():
    return [name for name in heavy if name in sys.modules]

seen = {"import": loaded()}
data, ensemble, out = sys.argv[1:]
assert cli.main(["data", "gen", "--n", "400", "--seed", "3", "--out", data]) == 0
seen["data gen"] = loaded()
assert cli.main(["tune", "--data", data, "--runs", "1", "--sobol", "2", "--bo", "1",
                 "--top-k", "1", "--seed", "0", "--epochs", "2", "--patience", "1",
                 "--out-dir", out + "/tune"]) == 0
seen["tune"] = loaded()
assert cli.main(["evaluate", "--ensemble", ensemble, "--data", data,
                 "--out-dir", out + "/eval"]) == 0
seen["evaluate"] = loaded()
validate_document(TaskDocument(kind="model", payload=PipelineRecipe().payload_for("model"),
                               provenance={}))
seen["validate_document"] = loaded()
print(json.dumps(seen))
"""


def test_requests_and_jsonschema_load_only_when_used(tmp_path):
    # neither library is imported until a command needs it: requests for
    # the LLM planner, jsonschema for the first task-document validation
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "data.csv"),
         str(ws / "ensemble"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"import": [], "data gen": [], "tune": [], "evaluate": [],
                    "validate_document": ["jsonschema"]}


@pytest.mark.parametrize("doc", [{"epoch": 3}, {"epochs": [3]}, {"slices": ["a"]},
                                 {"members": True}, {"mode": "bogus"}],
                         ids=["unknown-key", "list-for-int", "list-for-path",
                              "bool-for-int", "bad-choice"])
def test_bad_config_value_is_an_error_before_any_file(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    ws = tmp_path / "ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    (key,) = doc
    assert err.startswith(f"error: config key {key!r} ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (ws / "data.csv").exists()


def test_evaluate_checks_slices_before_scoring(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    assert cli.main(["direct", "--workspace", str(ws), "--synthetic", "120",
                     "--seed", "5", *_FAST]) == 0
    capsys.readouterr()
    scored = []
    monkeypatch.setattr(cli, "evaluate_model", lambda *a, **k: scored.append(a))
    spec_file = tmp_path / "slices.json"
    spec_file.write_text(json.dumps({"slices": 3}), encoding="utf-8")
    assert cli.main(["evaluate", "--ensemble", str(ws / "ensemble"),
                     "--data", str(ws / "data.csv"), "--slices", str(spec_file),
                     "--out-dir", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err.startswith("error: malformed slice-spec file")
    assert scored == []


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_planner_failure_before_the_first_task_writes_no_state(tmp_path, capsys,
                                                              monkeypatch, mode):
    # with no API key the planner fails on its first request; no stage's
    # task was generated, so no stage leaves pending and no state is written
    from autoduct.agents import planner as planner_mod

    monkeypatch.setattr(planner_mod, "_default_transport", lambda *args: None)
    monkeypatch.delenv("AUTODUCT_API_KEY", raising=False)
    ws = tmp_path / "ws"
    assert cli.main(["agent", "--workspace", str(ws), "--synthetic", "120",
                     "--mode", mode, "--planner", "llm", "--endpoint",
                     "http://127.0.0.1:9", "--model", "m", *_FAST]) == 1
    assert "AUTODUCT_API_KEY" in capsys.readouterr().err
    assert (ws / "data.csv").is_file()
    assert not (ws / "state.json").exists()
