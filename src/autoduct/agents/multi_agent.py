"""Supervisor loop: generate -> execute -> tune, stage by stage.

One supervisor routes everything. For each pipeline stage it asks the
planner to generate a task document, hands the document to the executor,
and on failure asks the planner to tune the document from the captured
log, retrying up to the configured bound. Subordinate roles never talk
to each other; results and error logs all pass through this loop. State
is persisted after every transition so a killed run resumes where it
stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import AutoductError, StageExhausted
from .context import ProjectContext
from .executor import TaskExecutor
from .planner import (PlanRequest, PlannerBase, build_patch_prompt,
                      build_task_prompt, prompt_digest)
from .report import synthesize_report
from .state import (STAGE_ORDER, STAGE_TASKS, WorkflowState, load_state,
                    persist_state)
from .tasks import TaskDocument, save_document, validate_document


@dataclass
class AgentOutcome:
    """What a loop hands back: the synthesized report (None when the run
    was stopped early on purpose) and the final state."""

    report: dict | None
    state: WorkflowState
    transcript: object | None = None


def generate_task(planner: PlannerBase, stage: str, ctx: ProjectContext,
                  task: str = "CHF regression pipeline") -> TaskDocument:
    """Ask the planner for a stage's task document.

    The prompt is assembled here, at runtime, from the stage template and
    the exact workspace paths; its digest lands in the document
    provenance so identical contexts yield identical digests.
    """
    prompt = build_task_prompt(stage, ctx, task)
    reply = planner.plan(PlanRequest(kind="task", prompt=prompt, stage=stage))
    doc = TaskDocument(kind=STAGE_TASKS[stage].kind, payload=reply.payload,
                       provenance={"planner": planner.name, "stage": stage,
                                   "prompt_digest": prompt_digest(prompt)})
    return validate_document(doc)


def tune_task(planner: PlannerBase, doc: TaskDocument,
              error_log: str) -> TaskDocument:
    """Ask the planner for a corrected document given the failure log."""
    if not error_log.strip():
        raise ValueError("tune_task needs a non-empty error log")
    prompt = build_patch_prompt(doc, error_log)
    reply = planner.plan(PlanRequest(kind="patch", prompt=prompt, doc=doc,
                                     error_log=error_log))
    patched = doc.patched(reply.payload,
                          {"patched_by": planner.name,
                           "patch_digest": prompt_digest(prompt)})
    return validate_document(patched)


def _save_stage_document(doc: TaskDocument, ctx: ProjectContext,
                         stage: str) -> None:
    """Save a stage's latest task document to its workspace file for audit."""
    save_document(doc, ctx.workspace / STAGE_TASKS[stage].doc_file)


def _check_loop_args(ctx: ProjectContext, executor: TaskExecutor,
                     stop_after_stage: str | None) -> None:
    """Argument checks both loops make before any state is read or written."""
    if executor.ctx is not ctx:
        raise ValueError("executor is bound to a different context")
    if stop_after_stage is not None and stop_after_stage not in STAGE_ORDER:
        raise ValueError(f"unknown stage {stop_after_stage!r}; "
                         f"expected one of {', '.join(STAGE_ORDER)}")


def _stop_stage_done(state: WorkflowState, stop_after_stage: str | None) -> bool:
    """The rule both loops share for a resumed run whose stop stage is
    already done: there is nothing left to stop after, so the run ends
    before any step, with no report and no stage put in progress."""
    return stop_after_stage is not None and state.is_done(stop_after_stage)


def _load_or_create_state(ctx: ProjectContext, mode: str,
                          resume: bool) -> WorkflowState:
    """A resumed run's saved state, refused before any step when it
    belongs to another run or to the other loop, else a fresh one."""
    state_path = ctx.path("state_file")
    if resume and state_path.exists():
        state = load_state(state_path)
        if state.run_id != ctx.run_id:
            raise ValueError(f"state belongs to run {state.run_id!r}, "
                             f"context is {ctx.run_id!r}")
        if state.mode != mode:
            raise ValueError(f"state belongs to a {state.mode!r} run, "
                             f"this loop is {mode!r}")
        return state
    return WorkflowState(run_id=ctx.run_id, mode=mode)


def run_multi_agent(task: str, ctx: ProjectContext, planner: PlannerBase,
                    executor: TaskExecutor, max_retries: int = 3,
                    resume: bool = False,
                    stop_after_stage: str | None = None) -> AgentOutcome:
    """Algorithm: for each stage, generate the task, execute it, and on
    error tune and re-execute up to max_retries attempts total.

    Raises StageExhausted when a stage keeps failing; the state file is
    left failed-but-resumable. `stop_after_stage` ends the run cleanly
    after the named stage (a controlled substitute for kill -9 in resume
    drills), and ends a resumed run at once if that stage is already done.
    A name outside STAGE_ORDER, or an executor bound to another context,
    raises ValueError before any state is read.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    _check_loop_args(ctx, executor, stop_after_stage)
    state = _load_or_create_state(ctx, "multi", resume)
    if _stop_stage_done(state, stop_after_stage):
        return AgentOutcome(report=None, state=state)
    state_path = ctx.path("state_file")
    timings: dict[str, float] = {}

    for stage in STAGE_TASKS:
        if state.is_done(stage):
            continue
        # as in ReAct's generate tool, a stage goes in progress only once
        # the planner has produced its task; until then it stays pending
        doc = generate_task(planner, stage, ctx, task)
        _save_stage_document(doc, ctx, stage)
        state.mark_in_progress(stage)
        persist_state(state, state_path)
        try:
            attempts = 0
            while True:
                attempts += 1
                result = executor.execute(doc)
                if result.ok:
                    timings[stage] = timings.get(stage, 0.0) + result.wall_time_s
                    break
                state.record_error(stage)
                persist_state(state, state_path)
                if attempts >= max_retries:
                    state.mark_failed(stage)
                    persist_state(state, state_path)
                    raise StageExhausted(stage, state.error_count(stage),
                                         result.first_line())
                doc = tune_task(planner, doc, result.log)
                _save_stage_document(doc, ctx, stage)
        except StageExhausted:
            raise
        except AutoductError:
            state.mark_failed(stage)
            persist_state(state, state_path)
            raise
        state.mark_done(stage)
        persist_state(state, state_path)
        if stage == stop_after_stage:
            return AgentOutcome(report=None, state=state)

    report = _finish_report(ctx, state, planner, timings)
    return AgentOutcome(report=report, state=state)


def _finish_report(ctx: ProjectContext, state: WorkflowState,
                   planner: PlannerBase, stage_times: dict,
                   steps: int | None = None) -> dict:
    """The report stage both loops end with: reload the report of a run
    that already finished it, else synthesize it between two persisted
    transitions (in progress, then done)."""
    if state.is_done("report_synthesis"):
        report_path = ctx.path("report_dir") / "report.json"
        return json.loads(report_path.read_text(encoding="utf-8"))
    state_path = ctx.path("state_file")
    state.mark_in_progress("report_synthesis")
    persist_state(state, state_path)
    report = synthesize_report(ctx, state, planner, stage_times=stage_times,
                               steps=steps)
    state.mark_done("report_synthesis")
    persist_state(state, state_path)
    return report
