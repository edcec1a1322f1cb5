"""Every JSON document the program reads back goes through
`atomic.read_json`: a file that is missing, not UTF-8, not JSON or nested
too deep becomes one error of its reader's class that names the file."""

import re

import pytest

from autoduct import cli
from autoduct.agents import PipelineRecipe, ScriptedPlanner, TaskExecutor
from autoduct.agents.executor import ExecutionResult
from autoduct.agents.multi_agent import StageRun
from autoduct.agents.report import synthesize_report
from autoduct.agents.state import (STAGE_ORDER, WorkflowState, load_state,
                                   persist_state)
from autoduct.agents.tasks import TaskDocument
from autoduct.dataset import load_slice_specs
from autoduct.ensemble import load_ensemble
from autoduct.errors import CorruptArtifact, CorruptState

# the bytes of each kind of unreadable file; None leaves the file missing
_UNREADABLE = {
    "missing": None,
    "not-utf8": b'{"a": "\xff"}',
    "bad-json": b"{bad",
    "too-deep": b"[" * 100_000,
}


def _state_site(ctx):
    path = ctx.workspace / "state.json"
    return path, lambda: load_state(path)


def _ensemble_site(ctx):
    path = ctx.path("ensemble_dir") / "manifest.json"
    path.parent.mkdir()
    return path, lambda: load_ensemble(path.parent)


def _slices_site(ctx):
    path = ctx.workspace / "slices.json"
    return path, lambda: load_slice_specs(path)


def _config_site(ctx):
    path = ctx.workspace / "cfg.json"
    args = cli._build_parser().parse_args(["data", "gen", "--out", "x.csv"])
    return path, lambda: cli._config_defaults(args.command_parser, path)


def _report_metrics_site(ctx):
    path = ctx.path("report_dir") / "metrics.json"
    path.parent.mkdir()
    state = WorkflowState(run_id=ctx.run_id, mode="multi")
    return path, lambda: synthesize_report(ctx, state, ScriptedPlanner(PipelineRecipe()))


def _finished_report_site(ctx):
    # a finished run reloads its report.json instead of synthesizing it
    path = ctx.path("report_dir") / "report.json"
    path.parent.mkdir()
    state = WorkflowState(run_id=ctx.run_id, mode="multi")
    for stage in STAGE_ORDER:
        state.mark_done(stage)
    persist_state(state, ctx.path("state_file"))
    run = StageRun("multi", "t", ScriptedPlanner(PipelineRecipe()),
                   TaskExecutor(ctx), resume=True)
    return path, run.finish


def _direct_metrics_site(ctx, monkeypatch):
    # `direct` prints the metrics.json its evaluate task wrote; the three
    # tasks are stubbed out so only that read runs
    class Executor:
        def __init__(self, ctx):
            pass

        def execute(self, doc):
            return ExecutionResult(status="ok", action=doc.kind, log="stubbed")

    monkeypatch.setattr(cli, "TaskExecutor", Executor)
    monkeypatch.setattr(cli, "_stage_dataset", lambda args, workspace: None)
    path = ctx.path("report_dir") / "metrics.json"
    path.parent.mkdir()
    args = cli._build_parser().parse_args(["direct", "--workspace", str(ctx.workspace)])
    return path, lambda: cli.cmd_direct(args)


def _model_spec_site(ctx):
    path = ctx.path("model_spec")
    doc = TaskDocument(kind="train", payload=PipelineRecipe().payload_for("train"),
                       provenance={})
    return path, lambda: TaskExecutor(ctx)._run_train(doc)


_SITES = {
    "load_state": (_state_site, CorruptState),
    "load_ensemble": (_ensemble_site, CorruptArtifact),
    "load_slice_specs": (_slices_site, CorruptArtifact),
    "config": (_config_site, ValueError),
    "report_metrics": (_report_metrics_site, CorruptArtifact),
    "finished_report": (_finished_report_site, CorruptArtifact),
    "direct_metrics": (_direct_metrics_site, ValueError),
    "model_spec": (_model_spec_site, ValueError),
}


@pytest.mark.parametrize("content", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
@pytest.mark.parametrize("site", list(_SITES))
def test_every_reader_names_an_unreadable_file(agent_workspace, monkeypatch, site, content):
    make, error = _SITES[site]
    ctx = agent_workspace()
    path, read = (make(ctx, monkeypatch) if site == "direct_metrics" else make(ctx))
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(error, match=f"^unreadable {re.escape(str(path))}: ") as err:
        read()
    # the site's own class: never a raw OSError, JSONDecodeError,
    # UnicodeDecodeError or RecursionError
    assert type(err.value) is error


def test_structural_messages_name_the_file(agent_workspace):
    ctx = agent_workspace()
    state = ctx.workspace / "state.json"
    state.write_text("[]", encoding="utf-8")
    with pytest.raises(CorruptState, match=f"^state document {re.escape(str(state))} "):
        load_state(state)
    cfg = ctx.workspace / "cfg.json"
    cfg.write_text("[]", encoding="utf-8")
    _, read = _config_site(ctx)
    with pytest.raises(ValueError, match=f"^config file {re.escape(str(cfg))} "):
        read()


@pytest.mark.parametrize("spec, error, terminal", [
    ("{bad", "ValueError: unreadable {path}: ", False),
    ("[]", "ValueError: model spec {path} must hold a JSON object", False),
    ('{"version": 2, "input_dim": 5, "members": []}',
     "VersionMismatch: unsupported model spec version 2 in {path}", True),
    ('{"input_dim": 5, "members": []}',
     "VersionMismatch: unsupported model spec version None in {path}", True),
], ids=["unreadable", "not-an-object", "version-2", "no-version"])
def test_train_refuses_a_spec_it_cannot_read(agent_workspace, spec, error, terminal):
    # a file that is not a spec stays patchable (a patch may name another
    # file); a spec of another version is terminal
    ctx = agent_workspace()
    ctx.path("model_spec").write_text(spec, encoding="utf-8")
    doc = TaskDocument(kind="train", payload=PipelineRecipe().payload_for("train"),
                       provenance={})
    result = TaskExecutor(ctx).execute(doc)
    assert not result.ok
    assert result.first_line().startswith(error.format(path=ctx.path("model_spec")))
    assert result.terminal is terminal
    assert not ctx.path("ensemble_dir").exists()
