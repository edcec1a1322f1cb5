import itertools
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from autoduct.agents.context import ProjectContext
from autoduct.agents.executor import FaultInjector, TaskExecutor
from autoduct.agents.multi_agent import (AgentOutcome, generate_task,
                                         run_multi_agent, tune_task)
from autoduct.agents.planner import HttpPlanner, PlannerReply, ScriptedPlanner
from autoduct.agents.react import (OBSERVATION_LIMIT, WINDOW_SIZE, ReActStep,
                                   Transcript, act, observe, run_react)
from autoduct.agents.report import render_report
from autoduct.agents.state import STAGE_TASKS, load_state
from autoduct.errors import (AutoductError, CorruptArtifact, PlannerUnavailable,
                             SchemaInvalid, StageExhausted, StepBudgetExhausted,
                             TerminalStageError, UnknownTool)
from autoduct.neural_net import ActivationKind


def _multi(ctx, recipe, injector=None, **kwargs):
    planner = ScriptedPlanner(recipe)
    executor = TaskExecutor(ctx, injector=injector)
    outcome = run_multi_agent("CHF regression pipeline", planner, executor, **kwargs)
    return outcome, planner, executor


def _react(ctx, recipe, injector=None, **kwargs):
    planner = ScriptedPlanner(recipe)
    executor = TaskExecutor(ctx, injector=injector)
    outcome = run_react("CHF regression pipeline", planner, executor, **kwargs)
    return outcome, planner, executor


# --- building blocks -------------------------------------------------------------

def test_generate_task_provenance(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    doc = generate_task(planner, "model_generation", ctx)
    assert doc.kind == "model"
    assert doc.provenance["planner"] == "scripted"
    assert doc.provenance["stage"] == "model_generation"
    assert len(doc.provenance["prompt_digest"]) == 64


def test_tune_task_requires_log(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    doc = generate_task(planner, "model_generation", ctx)
    with pytest.raises(ValueError):
        tune_task(planner, doc, "   ")
    patched = tune_task(planner, doc, "RuntimeError: boom")
    assert patched.provenance["patch_count"] == 1
    assert patched.provenance["patched_by"] == "scripted"


# --- supervisor loop --------------------------------------------------------------

def test_multi_agent_fault_free(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    outcome, planner, executor = _multi(ctx, drill_recipe)
    report = outcome.report

    assert report["status"] == "completed"
    assert report["mode"] == "multi"
    assert report["run_id"] == "run-t"
    assert all(v == "done" for v in report["stages"].values())
    assert report["errors"]["total"] == 0
    assert report["recoveries"] == 0
    assert report["tokens"] == {"calls": 3, "prompt": 225, "completion": 75,
                                "total": 300}
    assert "rmse_kw_m2" in report["metrics"]
    assert outcome.transcript is None

    report_dir = ctx.path("report_dir")
    assert (report_dir / "report.json").is_file()
    assert (report_dir / "timings.json").is_file()
    assert (report_dir / "report.txt").read_text() == render_report(report)
    assert [r.status for r in executor.history] == ["ok", "ok", "ok"]


def test_multi_agent_recovers_from_injected_fault(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    injector = FaultInjector.from_spec("stage=evaluate,attempt=1")
    outcome, planner, executor = _multi(ctx, drill_recipe, injector=injector)
    report = outcome.report

    assert report["status"] == "completed"
    assert report["errors"]["total"] == 1
    assert report["errors"]["per_stage"]["evaluation_execution"] == 1
    assert report["recoveries"] == 1
    assert report["tokens"]["calls"] == 4          # three tasks, one patch
    assert report["tokens"]["total"] == 400
    statuses = [r.status for r in executor.history]
    assert statuses == ["ok", "ok", "error", "ok"]
    assert executor.history[2].injected_fault


def test_multi_agent_exhausts_persistent_fault(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    injector = FaultInjector.from_spec("stage=evaluate,attempts=1-3")
    planner = ScriptedPlanner(drill_recipe)
    executor = TaskExecutor(ctx, injector=injector)
    with pytest.raises(StageExhausted) as err:
        run_multi_agent("t", planner, executor, max_retries=3)
    assert err.value.stage == "evaluation_execution"
    assert err.value.error_count == 3
    # the message names the cause: the injected fault of the last attempt
    assert str(err.value).endswith(
        "last error: RuntimeError: injected fault armed for evaluate attempt 3")

    saved = load_state(ctx.path("state_file"))
    assert saved.status("evaluation_execution") == "failed"
    assert saved.error_count("evaluation_execution") == 3
    # two tunes: attempts 1 and 2 get patched, attempt 3 exhausts
    patch_calls = [c for c in planner.calls if c.purpose == "patch"]
    assert len(patch_calls) == 2


def test_multi_agent_gives_up_on_a_malformed_planner_reply(agent_workspace, drill_recipe,
                                                           monkeypatch):
    # an HTTP planner's patch reply whose usage is not an object is a
    # SchemaInvalid: the loop gives up and leaves the faulted stage failed,
    # not in progress
    monkeypatch.setenv("AUTODUCT_API_KEY", "sk-test")
    payloads = [drill_recipe.payload_for("model"), drill_recipe.payload_for("train")]
    replies = [(200, {"choices": [{"message": {"content": json.dumps(p)}}]})
               for p in payloads]
    replies.append((200, {"choices": [{"message": {"content": json.dumps(payloads[1])}}],
                          "usage": "n/a"}))
    planner = HttpPlanner("https://api.example.test/v1/", "planner-model",
                          transport=lambda *request: replies.pop(0), sleep=lambda s: None)
    ctx = agent_workspace()
    executor = TaskExecutor(ctx, FaultInjector.from_spec("stage=train,attempt=1"))
    with pytest.raises(SchemaInvalid, match="usage"):
        run_multi_agent("t", planner, executor)
    assert replies == []

    saved = load_state(ctx.path("state_file"))
    assert saved.status("training_execution") == "failed"
    assert saved.error_count("training_execution") == 1
    assert "in_progress" not in [s.status for s in saved.stages.values()]


def test_multi_agent_validates_retry_budget(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    with pytest.raises(ValueError):
        _multi(ctx, drill_recipe, max_retries=0)


def test_multi_agent_stop_and_resume(agent_workspace, drill_recipe, tmp_path):
    ctx = agent_workspace("interrupted")
    outcome, _, _ = _multi(ctx, drill_recipe,
                           stop_after_stage="training_execution")
    assert outcome.report is None
    assert outcome.state.is_done("training_execution")
    assert outcome.state.status("evaluation_execution") == "pending"

    # fresh context, planner, and executor: only the state file carries over
    from autoduct.agents.context import ProjectContext
    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    resumed, planner, _ = _multi(resumed_ctx, drill_recipe, resume=True)
    assert resumed.report["status"] == "completed"
    # the first two stages were skipped, so only the evaluate task was planned
    assert [c.purpose for c in planner.calls] == ["task:evaluation_execution"]

    clean_ctx = agent_workspace("uninterrupted")
    clean, _, _ = _multi(clean_ctx, drill_recipe)
    assert resumed.report["metrics"] == clean.report["metrics"]


def test_multi_agent_resume_rejects_foreign_state(agent_workspace, drill_recipe):
    ctx = agent_workspace("owned", run_id="run-a")
    _multi(ctx, drill_recipe, stop_after_stage="model_generation")
    from autoduct.agents.context import ProjectContext
    stranger = ProjectContext(ctx.workspace, run_id="run-b")
    with pytest.raises(ValueError, match="belongs to run"):
        _multi(stranger, drill_recipe, resume=True)


def test_multi_agent_reports_are_byte_identical(agent_workspace, drill_recipe):
    a = agent_workspace("left")
    b = agent_workspace("right")
    _multi(a, drill_recipe)
    _multi(b, drill_recipe)
    for name in ("report.json", "report.txt", "metrics.csv", "predictions.csv",
                 "parity.svg"):
        left = (a.path("report_dir") / name).read_bytes()
        right = (b.path("report_dir") / name).read_bytes()
        assert left == right, f"{name} differs between identical runs"


def test_multi_agent_finished_run_reloads_report(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    first, _, _ = _multi(ctx, drill_recipe)
    from autoduct.agents.context import ProjectContext
    again_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    again, planner, executor = _multi(again_ctx, drill_recipe, resume=True)
    assert again.report == first.report
    assert planner.calls == []
    assert executor.history == []


# --- react loop ------------------------------------------------------------------------

def test_react_fault_free_trace(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    outcome, planner, executor = _react(ctx, drill_recipe)
    report = outcome.report

    actions = [step.action for step in outcome.transcript.history]
    assert actions == ["generate_model", "execute_task",
                       "generate_training_task", "execute_task",
                       "generate_evaluation_task", "execute_task",
                       "finish_task"]
    assert report["status"] == "completed"
    assert report["mode"] == "react"
    assert report["steps"] == 7
    # 7 directives plus one task generation per stage
    assert report["tokens"] == {"calls": 10, "prompt": 750, "completion": 250,
                                "total": 1000}
    assert report["errors"]["total"] == 0


def test_react_recovers_from_injected_fault(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    injector = FaultInjector.from_spec("stage=evaluate,attempt=1")
    outcome, planner, _ = _react(ctx, drill_recipe, injector=injector)

    actions = [step.action for step in outcome.transcript.history]
    assert actions == ["generate_model", "execute_task",
                       "generate_training_task", "execute_task",
                       "generate_evaluation_task", "execute_task",
                       "patch_task", "execute_task", "finish_task"]
    errors = [s for s in outcome.transcript.history
              if s.observation.startswith("error:")]
    assert len(errors) == 1
    assert "injected fault" in errors[0].observation
    assert outcome.report["errors"]["total"] == 1
    assert outcome.report["recoveries"] == 1
    # 9 directives + 3 generations + 1 patch
    assert outcome.report["tokens"]["calls"] == 13
    assert outcome.report["tokens"]["total"] == 1300


def test_react_step_budget(agent_workspace, drill_recipe):
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    with pytest.raises(StepBudgetExhausted):
        run_react("t", planner, TaskExecutor(ctx), max_steps=3)
    saved = load_state(ctx.path("state_file"))
    assert not saved.is_done("evaluation_execution")
    with pytest.raises(ValueError):
        run_react("t", planner, TaskExecutor(ctx), max_steps=0)


def test_react_rejects_unknown_tool(agent_workspace, drill_recipe):
    class RogueDirectives(ScriptedPlanner):
        def _reply(self, request):
            if request.kind == "directive":
                reply, attempts = super()._reply(request)
                return type(reply)(payload={"thought": "t", "action": "explode",
                                            "args": {}},
                                   prompt_tokens=reply.prompt_tokens,
                                   completion_tokens=reply.completion_tokens), attempts
            return super()._reply(request)

    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    with pytest.raises(UnknownTool):
        run_react("t", RogueDirectives(drill_recipe), executor)
    assert executor.history == []        # nothing ran on a bad directive


def test_react_rejects_missing_action(agent_workspace, drill_recipe):
    class SilentDirectives(ScriptedPlanner):
        def _reply(self, request):
            reply, attempts = super()._reply(request)
            if request.kind == "directive":
                return type(reply)(payload={"thought": "hmm"},
                                   prompt_tokens=reply.prompt_tokens,
                                   completion_tokens=reply.completion_tokens), attempts
            return reply, attempts

    ctx = agent_workspace()
    with pytest.raises(SchemaInvalid):
        run_react("t", SilentDirectives(drill_recipe), TaskExecutor(ctx))


def test_react_window_bounds_prompt_history(agent_workspace, drill_recipe):
    # two faults add a patch and a re-execution each: 11 directives, so
    # the tail of the run has more than WINDOW_SIZE steps of history
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    injector = FaultInjector.from_spec("stage=train,attempt=1;stage=evaluate,attempt=1")
    run_react("t", planner, TaskExecutor(ctx, injector=injector))
    directive_prompts = [c.prompt for c in planner.calls
                         if c.purpose == "directive"]
    assert len(directive_prompts) == 11 > WINDOW_SIZE + 1
    for prompt in directive_prompts:
        assert prompt.count(" | action: ") <= WINDOW_SIZE
    assert directive_prompts[-1].count(" | action: ") == WINDOW_SIZE


def test_react_stop_and_resume(agent_workspace, drill_recipe):
    ctx = agent_workspace("pausing")
    outcome, _, _ = _react(ctx, drill_recipe,
                           stop_after_stage="training_execution")
    assert outcome.report is None
    assert outcome.state.is_done("training_execution")

    from autoduct.agents.context import ProjectContext
    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    resumed, _, _ = _react(resumed_ctx, drill_recipe, resume=True)
    assert resumed.report["status"] == "completed"

    clean_ctx = agent_workspace("straight")
    clean, _, _ = _react(clean_ctx, drill_recipe)
    assert resumed.report["metrics"] == clean.report["metrics"]


class _GivesUpOnError(ScriptedPlanner):
    """Scripted, except that the directive after the first error
    observation fails the way `how` says: the endpoint goes away, or the
    directive names a tool that is not registered."""

    def __init__(self, recipe, how):
        super().__init__(recipe)
        self.how = how

    def _reply(self, request):
        if request.kind == "directive" and \
                (request.last_observation or "").startswith("error:"):
            if self.how == "unavailable":
                raise PlannerUnavailable("endpoint went away mid-stage")
            return PlannerReply({"thought": "t", "action": "explode", "args": {}},
                                0, 0), 1
        return super()._reply(request)


@pytest.mark.parametrize("how, spec, max_steps, error, stage, errors", [
    ("budget", "stage=train,attempts=1-9", 10, StepBudgetExhausted,
     "training_execution", 4),
    ("unavailable", "stage=train,attempt=1", 40, PlannerUnavailable,
     "training_execution", 1),
    ("unknown_tool", "stage=evaluate,attempt=1", 40, UnknownTool,
     "evaluation_execution", 1),
], ids=["step_budget", "planner_unavailable", "unknown_tool"])
def test_react_gives_up_leaving_the_pending_stage_failed(
        agent_workspace, drill_recipe, how, spec, max_steps, error, stage, errors):
    ctx = agent_workspace("gives_up")
    planner = (ScriptedPlanner(drill_recipe) if how == "budget"
               else _GivesUpOnError(drill_recipe, how))
    with pytest.raises(error):
        run_react("CHF regression pipeline", planner,
                  TaskExecutor(ctx, FaultInjector.from_spec(spec)),
                  max_steps=max_steps)
    saved = load_state(ctx.path("state_file"))
    assert saved.status(stage) == "failed"
    assert saved.error_count(stage) == errors
    assert "in_progress" not in [s.status for s in saved.stages.values()]

    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    resumed, _, _ = _react(resumed_ctx, drill_recipe, resume=True)
    clean, _, _ = _react(agent_workspace("clean"), drill_recipe)
    assert resumed.report["metrics"] == clean.report["metrics"]
    assert resumed.report["errors"]["per_stage"][stage] == errors


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_terminal_error_ends_the_stage_at_once(agent_workspace, drill_recipe, mode):
    # an ensemble in a format the loader refuses cannot be mended by a
    # patch or a retry: the resumed run gives up on its first error, with
    # that error's message, and leaves the stage failed
    run = {"multi": _multi, "react": _react}[mode]
    ctx = agent_workspace(f"terminal-{mode}")
    run(ctx, drill_recipe, stop_after_stage="training_execution")
    manifest = ctx.path("ensemble_dir") / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "format_version": 1}))

    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    planner = ScriptedPlanner(drill_recipe)
    loop = {"multi": run_multi_agent, "react": run_react}[mode]
    with pytest.raises(TerminalStageError) as err:
        loop("CHF regression pipeline", planner, TaskExecutor(resumed_ctx),
             resume=True)
    assert err.value.stage == "evaluation_execution"
    assert err.value.error_count == 1
    assert str(err.value) == (
        "stage 'evaluation_execution' stopped on a terminal error, not retried "
        f"(error 1): VersionMismatch: unsupported ensemble format 1 in {manifest}")
    assert not [c for c in planner.calls if c.purpose == "patch"]
    saved = load_state(ctx.path("state_file"))
    assert saved.status("evaluation_execution") == "failed"
    assert saved.error_count("evaluation_execution") == 1


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_a_report_stage_that_raises_is_left_failed(agent_workspace, drill_recipe, mode):
    # the report stage reads the evaluation's metrics.json: an unreadable
    # one ends the run naming the file, with the stage failed rather than
    # in progress, and a resume once the file is mended redoes the stage
    run = {"multi": _multi, "react": _react}[mode]
    ctx = agent_workspace(f"report-{mode}")
    run(ctx, drill_recipe, stop_after_stage="evaluation_execution")
    metrics = ctx.path("report_dir") / "metrics.json"
    good = metrics.read_bytes()
    metrics.write_text("{bad", encoding="utf-8")

    with pytest.raises(CorruptArtifact, match=f"^unreadable {re.escape(str(metrics))}: "):
        run(ProjectContext(ctx.workspace, run_id="run-t"), drill_recipe, resume=True)
    saved = load_state(ctx.path("state_file"))
    assert [s.status for s in saved.stages.values()] == ["done", "done", "done", "failed"]
    assert saved.total_errors() == 0
    assert not (ctx.path("report_dir") / "report.json").exists()

    metrics.write_bytes(good)
    outcome, _, _ = run(ProjectContext(ctx.workspace, run_id="run-t"), drill_recipe,
                        resume=True)
    assert outcome.report["stages"]["report_synthesis"] == "done"
    assert outcome.report["metrics"] == json.loads(good)["metrics"]


class _AddsAKey(ScriptedPlanner):
    """Scripted, except that the evaluation task reply carries one more
    key; every directive's last observation is kept."""

    def __init__(self, recipe, extra):
        super().__init__(recipe)
        self.extra = extra
        self.observations = []

    def _reply(self, request):
        reply, calls = super()._reply(request)
        if request.kind == "task" and request.stage == "evaluation_execution":
            reply = replace(reply, payload={**reply.payload, **self.extra})
        if request.kind == "directive":
            self.observations.append(request.last_observation)
        return reply, calls


@pytest.mark.parametrize("mode", ["multi", "react"])
def test_a_task_reply_with_paths_is_schema_invalid(agent_workspace, drill_recipe, mode):
    # a document names roles, never paths: an evaluation task that carries
    # `paths` meets the fate of one with any other unknown key (the
    # supervisor gives up on the SchemaInvalid; ReAct observes it and runs
    # out of steps), and nothing is written for the stage
    fates = []
    for key, extra in (("paths", {"paths": {"report_dir": "elsewhere"}}),
                       ("surprise", {"surprise": 1})):
        ctx = agent_workspace(f"{key}-{mode}")
        planner = _AddsAKey(drill_recipe, extra)
        executor = TaskExecutor(ctx)
        loop = {"multi": run_multi_agent, "react": run_react}[mode]
        with pytest.raises(AutoductError) as err:
            loop("CHF regression pipeline", planner, executor)
        refusal = (f"SchemaInvalid: evaluate payload invalid: Additional properties "
                   f"are not allowed ('{key}' was unexpected)")
        assert refusal in [f"SchemaInvalid: {err.value}",
                           *(o.partition(" → ")[2] for o in planner.observations if o)]
        saved = load_state(ctx.path("state_file"))
        fates.append((type(err.value), [s.status for s in saved.stages.values()],
                      saved.total_errors(), [r.status for r in executor.history],
                      sorted(p.name for p in ctx.workspace.iterdir())))
        # a refused generate leaves nothing to patch: ReAct generates again
        assert not any("nothing to patch" in o for o in planner.observations if o)
    assert fates[0] == fates[1]
    assert fates[0][1:] == (["done", "done", "pending", "pending"], 0, ["ok", "ok"],
                            ["data.csv", "ensemble", "model_spec.json", "model_task.json",
                             "state.json", "training_task.json"])


_workspaces = itertools.count()


@pytest.fixture
def clean_metrics(agent_workspace, drill_recipe):
    """The metrics of a fault-free run; hypothesis computes them once for
    all the examples of a test."""
    outcome, _, _ = _multi(agent_workspace("clean"), drill_recipe)
    return outcome.report["metrics"]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=st.dictionaries(st.sampled_from(["model", "train", "evaluate"]),
                            st.frozensets(st.integers(1, 3), min_size=1)),
       max_retries=st.integers(1, 3), max_steps=st.integers(7, 25))
def test_loops_agree_under_any_fault_plan(agent_workspace, drill_recipe,
                                          clean_metrics, plan, max_retries,
                                          max_steps):
    # the supervisor and ReAct differ in control policy alone: when both
    # finish, their reports differ only where the policy shows; when one
    # gives up (retry or step bound, 7 steps being a fault-free run's), it
    # leaves no stage in progress, and a fault-free --resume of the same
    # loop from there reaches the clean run's metrics
    reports = {}
    for mode, run, kwargs in (("multi", _multi, {"max_retries": max_retries}),
                              ("react", _react, {"max_steps": max_steps})):
        ctx = agent_workspace(f"{mode}-{next(_workspaces)}")
        try:
            run(ctx, drill_recipe, FaultInjector(plan), **kwargs)
        except AutoductError:
            saved = load_state(ctx.path("state_file"))
            assert "in_progress" not in [s.status for s in saved.stages.values()]
            resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
            resumed, _, _ = run(resumed_ctx, drill_recipe, resume=True)
            assert resumed.report["metrics"] == clean_metrics
            continue
        report = json.loads((ctx.path("report_dir") / "report.json").read_text())
        reports[mode] = {k: v for k, v in report.items()
                         if k not in ("mode", "steps", "tokens")}
    if len(reports) == 2:
        assert reports["multi"] == reports["react"]


def test_react_and_multi_agree_on_metrics(agent_workspace, drill_recipe):
    multi_ctx = agent_workspace("multi")
    react_ctx = agent_workspace("react")
    multi, _, _ = _multi(multi_ctx, drill_recipe)
    react, _, _ = _react(react_ctx, drill_recipe)
    assert multi.report["metrics"] == react.report["metrics"]
    assert multi.report["level"] == react.report["level"]


def test_loops_save_the_same_task_documents(agent_workspace, drill_recipe):
    kinds = {"model_generation": "model", "training_execution": "train",
             "evaluation_execution": "evaluate"}
    listings = []
    for name, run in (("multi", _multi), ("react", _react)):
        ctx = agent_workspace(name)
        run(ctx, drill_recipe)
        for stage in kinds:
            path = ctx.workspace / STAGE_TASKS[stage].doc_file
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert (doc["kind"], doc["provenance"]["stage"]) == (kinds[stage], stage)
        listings.append(sorted(p.name for p in ctx.workspace.iterdir()))
    assert listings[0] == listings[1]


def test_tool_names_order(agent_workspace, drill_recipe):
    expected = ("generate_model", "generate_training_task",
                "generate_evaluation_task", "execute_task", "patch_task",
                "read_log", "finish_task")
    ctx = agent_workspace()
    planner = ScriptedPlanner(drill_recipe)
    with pytest.raises(StepBudgetExhausted):
        run_react("t", planner, TaskExecutor(ctx), max_steps=1)
    assert f"Available tools: {', '.join(expected)}\n" in planner.calls[0].prompt


def _model_files(ctx):
    return {name: (ctx.workspace / name).read_bytes()
            for name in ("model_task.json", "model_spec.json")}


class _Directs(ScriptedPlanner):
    """Scripted task documents, and these directives in this order; the
    observation each directive was asked after is kept."""

    def __init__(self, recipe, script):
        super().__init__(recipe)
        self.script = script
        self.observations = []

    def _reply(self, request):
        if request.kind != "directive":
            return super()._reply(request)
        self.observations.append(request.last_observation)
        return PlannerReply({"thought": "scripted", "args": {},
                             "action": self.script[len(self.observations) - 1]}, 0, 0), 1


def test_react_refuses_to_regenerate_a_done_stage(agent_workspace, drill_recipe):
    class AsksTwice(_Directs):
        """Directs generate_model again once the model stage is done. A
        second model task would carry two more members than the first."""

        def __init__(self, recipe, ctx):
            super().__init__(recipe, ("generate_model", "execute_task", "generate_model",
                                      "execute_task", "read_log"))
            self.ctx = ctx
            self.files_after_model = None

        def _reply(self, request):
            if request.kind == "task":
                reply = super()._reply(request)
                self.recipe = replace(self.recipe,
                                      member_count=self.recipe.member_count + 2)
                return reply
            if len(self.observations) == 2:
                self.files_after_model = _model_files(self.ctx)
            return super()._reply(request)

    ctx = agent_workspace()
    planner = AsksTwice(drill_recipe, ctx)
    executor = TaskExecutor(ctx)
    with pytest.raises(StepBudgetExhausted):
        run_react("t", planner, executor, max_steps=5)

    assert [c.purpose for c in planner.calls if c.purpose != "directive"] == \
        ["task:model_generation"]
    assert _model_files(ctx) == planner.files_after_model
    assert planner.observations[3].startswith("error: generate_model → ")
    assert planner.observations[4] == ("error: execute_task → no task document "
                                       "pending; generate one first")
    assert len(executor.history) == 1
    saved = load_state(ctx.path("state_file"))
    assert saved.is_done("model_generation")
    assert saved.status("training_execution") == "pending"


def test_react_refuses_to_generate_past_an_unfinished_stage(agent_workspace,
                                                           drill_recipe):
    # the training task is asked for while the model stage is in progress:
    # it is refused with no planner call and no file, so the execute that
    # follows runs the model document and no stage is left in progress
    ctx = agent_workspace()
    planner = _Directs(drill_recipe, ("generate_model", "generate_training_task",
                                      "execute_task", "read_log"))
    executor = TaskExecutor(ctx)
    with pytest.raises(StepBudgetExhausted):
        run_react("t", planner, executor, max_steps=4)

    assert planner.observations[2] == (
        "error: generate_training_task → cannot generate training_execution: "
        "model_generation is in_progress")
    assert [c.purpose for c in planner.calls if c.purpose != "directive"] == \
        ["task:model_generation"]
    assert not (ctx.workspace / "training_task.json").exists()
    assert [(r.action, r.status) for r in executor.history] == [("model", "ok")]
    saved = load_state(ctx.path("state_file"))
    assert [s.status for s in saved.stages.values()] == [
        "done", "pending", "pending", "pending"]


@pytest.mark.parametrize("run", [_multi, _react], ids=["multi", "react"])
def test_resumed_run_whose_stop_stage_is_done_ends_before_any_step(
        agent_workspace, drill_recipe, run):
    ctx = agent_workspace()
    run(ctx, drill_recipe, stop_after_stage="training_execution")
    saved = ctx.path("state_file").read_bytes()

    from autoduct.agents.context import ProjectContext
    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    outcome, planner, executor = run(resumed_ctx, drill_recipe, resume=True,
                                     stop_after_stage="model_generation")
    assert outcome.report is None
    assert planner.calls == [] and executor.history == []
    assert [s.status for s in outcome.state.stages.values()] == [
        "done", "done", "pending", "pending"]
    assert ctx.path("state_file").read_bytes() == saved


@pytest.mark.parametrize("run, loop, modes", [
    (_multi, run_react, ("multi", "react")),
    (_react, run_multi_agent, ("react", "multi")),
], ids=["multi_resumed_as_react", "react_resumed_as_multi"])
def test_resume_in_the_other_loop_is_refused_before_any_step(agent_workspace,
                                                             drill_recipe, run, loop,
                                                             modes):
    ctx = agent_workspace()
    run(ctx, drill_recipe, stop_after_stage="training_execution")
    saved = ctx.path("state_file").read_bytes()

    from autoduct.agents.context import ProjectContext
    resumed_ctx = ProjectContext(ctx.workspace, run_id="run-t")
    planner = ScriptedPlanner(drill_recipe)
    executor = TaskExecutor(resumed_ctx)
    with pytest.raises(ValueError, match="state belongs to a '{}' run, this loop is '{}'"
                       .format(*modes)):
        loop("t", planner, executor, resume=True)
    assert planner.calls == [] and executor.history == []
    assert ctx.path("state_file").read_bytes() == saved
    assert not (ctx.path("report_dir") / "report.json").exists()


@pytest.mark.parametrize("run", [_multi, _react], ids=["multi", "react"])
def test_unknown_stop_stage_is_rejected_before_any_state(agent_workspace,
                                                         drill_recipe, run):
    ctx = agent_workspace()
    with pytest.raises(ValueError, match="unknown stage 'bogus'"):
        run(ctx, drill_recipe, stop_after_stage="bogus")
    assert not ctx.path("state_file").exists()


# --- transcript mechanics ------------------------------------------------------------

def test_transcript_window_and_rendering():
    t = Transcript()
    n = WINDOW_SIZE + 2
    for i in range(n):
        t.append(ReActStep(f"think{i}", f"act{i}", f"obs{i}"))
    assert len(t) == n
    assert t.window_size == WINDOW_SIZE
    assert [s.action for s in t.window()] == [f"act{i}" for i in range(2, n)]
    assert t.last_observation() == f"obs{n - 1}"
    rendered = t.render_window()
    assert rendered == [f"thought: think{i} | action: act{i} | obs: obs{i}"
                        for i in range(2, n)]
    assert Transcript().last_observation() == ""


def test_observe_format_and_truncation():
    from autoduct.agents.executor import ExecutionResult
    ok = ExecutionResult(status="ok", action="execute_task", log="line one\nrest")
    assert observe(ok) == "ok: execute_task → line one"
    long = ExecutionResult(status="error", action="x", log="e" * 2000)
    assert len(observe(long)) == OBSERVATION_LIMIT


def test_act_converts_expected_failures():
    from autoduct.agents.react import PlannerDirective

    def angry_tool(args):
        raise ValueError("no such thing")

    result = act(PlannerDirective("t", "angry", {}), {"angry": angry_tool})
    assert not result.ok
    assert result.log == "ValueError: no such thing"


# --- workspace confinement --------------------------------------------------------------

def test_loops_never_write_outside_workspace(agent_workspace, drill_recipe,
                                             monkeypatch, tmp_path):
    ctx = agent_workspace()
    written: list[Path] = []
    real_open = Path.open

    def spy_open(self, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wax"):
            written.append(Path(self).resolve())
        return real_open(self, mode, *args, **kwargs)

    real_replace = os.replace

    def spy_replace(src, dst, *args, **kwargs):
        written.append(Path(dst).resolve())
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy_open)
    monkeypatch.setattr(os, "replace", spy_replace)

    _multi(ctx, drill_recipe)

    inside_tmp = [p for p in written if tmp_path.resolve() in p.parents]
    assert inside_tmp, "expected the run to write artifacts"
    offenders = [p for p in inside_tmp if not p.is_relative_to(ctx.workspace)]
    assert offenders == []
