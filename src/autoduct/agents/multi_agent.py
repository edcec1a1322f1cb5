"""Supervisor loop: generate -> execute -> tune, stage by stage.

One supervisor routes everything. For each pipeline stage it asks the
planner to generate a task document, hands the document to the executor,
and on failure asks the planner to tune the document from the captured
log, retrying up to the configured bound. Subordinate roles never talk
to each other; results and error logs all pass through this loop.

`StageRun` is the one owner of a run's persisted transitions, for this
loop and for ReAct alike: it loads or creates the state, puts a stage in
progress, records its errors, marks it done, and synthesizes the report,
persisting the state after every transition so a killed run resumes
where it stopped. It puts a stage in progress only when every earlier
stage is done, so a planner that skips ahead gets an error result, and
reaches the workspace through its executor's context. The two loops are
policies over it and differ only in who picks the next step. A loop
that gives up (raises any AutoductError) calls `give_up()` first, which
marks the pending stage failed with its error count kept, so no stage
is left in progress. A terminal error (see errors.py) ends the run at
once in both loops: `StageRun.execute` raises TerminalStageError, so
neither loop patches or retries it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..atomic import read_json
from ..errors import AutoductError, CorruptArtifact, StageExhausted, TerminalStageError
from .context import ProjectContext
from .executor import ExecutionResult, TaskExecutor
from .planner import (PlanRequest, PlannerBase, build_patch_prompt,
                      build_task_prompt, prompt_digest)
from .report import synthesize_report
# the loops' persisted transitions go through these module globals, which
# is where bench/tracing.py hooks them
from .state import (STAGE_ORDER, STAGE_TASKS, WorkflowState, load_state,
                    persist_state)
from .tasks import TaskDocument, save_document, validate_document


# the loops' defaults, which the CLI's --task and --max-retries flags read
DEFAULT_TASK = "CHF regression pipeline"
DEFAULT_MAX_RETRIES = 3


@dataclass
class AgentOutcome:
    """What a loop hands back: the synthesized report (None when the run
    was stopped early on purpose) and the final state."""

    report: dict | None
    state: WorkflowState
    transcript: object | None = None


def generate_task(planner: PlannerBase, stage: str, ctx: ProjectContext,
                  task: str = DEFAULT_TASK) -> TaskDocument:
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


class StageRun:
    """A run's state and every persisted transition both loops make.

    The run's context is its executor's. The constructor checks the loop
    arguments before any state is read (a `stop_after_stage` outside
    STAGE_ORDER raises ValueError) and loads the saved state of a
    resumed run, refusing one that belongs to another run or to the
    other loop, else starts a fresh one. `generate`, `execute` and
    `patch` act on the pending stage and return the ExecutionResult that
    ReAct observes; `give_up` and `finish` end the run.
    """

    def __init__(self, mode: str, task: str, planner: PlannerBase,
                 executor: TaskExecutor, resume: bool = False,
                 stop_after_stage: str | None = None):
        if stop_after_stage is not None and stop_after_stage not in STAGE_ORDER:
            raise ValueError(f"unknown stage {stop_after_stage!r}; "
                             f"expected one of {', '.join(STAGE_ORDER)}")
        self.task, self.ctx = task, executor.ctx
        self.planner, self.executor = planner, executor
        self.stop_after_stage = stop_after_stage
        self.state_path = self.ctx.path("state_file")
        if resume and self.state_path.exists():
            state = load_state(self.state_path)
            if state.run_id != self.ctx.run_id:
                raise ValueError(f"state belongs to run {state.run_id!r}, "
                                 f"context is {self.ctx.run_id!r}")
            if state.mode != mode:
                raise ValueError(f"state belongs to a {state.mode!r} run, "
                                 f"this loop is {mode!r}")
        else:
            state = WorkflowState(run_id=self.ctx.run_id, mode=mode)
        self.state = state
        self.pending_doc: TaskDocument | None = None
        self.pending_stage: str | None = None
        self.last_result: ExecutionResult | None = None
        self.stage_times: dict[str, float] = {}

    def stopped(self) -> bool:
        """Whether the stop stage is done: the run ends there with no
        report, before any step if a resumed run had already done it."""
        return (self.stop_after_stage is not None
                and self.state.is_done(self.stop_after_stage))

    def _persist(self) -> None:
        persist_state(self.state, self.state_path)

    def generate(self, stage: str) -> ExecutionResult:
        """Plan the stage's task document, save it, and put the stage in
        progress. A done stage, or one with an earlier stage not done, is
        refused before the planner runs or any file changes."""
        name = STAGE_TASKS[stage].tool
        if self.state.is_done(stage):
            return ExecutionResult(status="error", action=name,
                                   log=f"{stage} is already done")
        prior = self.state.first_undone_before(stage)
        if prior is not None:
            return ExecutionResult(status="error", action=name, log=(
                f"cannot generate {stage}: {prior} is {self.state.status(prior)}"))
        doc = generate_task(self.planner, stage, self.ctx, self.task)
        save_document(doc, self.ctx.workspace / STAGE_TASKS[stage].doc_file)
        self.pending_doc, self.pending_stage = doc, stage
        self.state.mark_in_progress(stage)
        self._persist()
        return ExecutionResult(status="ok", action=name,
                               log=f"task document ready for {stage}")

    def execute(self) -> ExecutionResult:
        """Run the pending document: done on success, one more error on
        the stage's count on failure. A terminal failure raises
        TerminalStageError once its error is persisted."""
        if self.pending_doc is None:
            return ExecutionResult(status="error", action="execute_task",
                                   log="no task document pending; generate one first")
        result = self.last_result = replace(self.executor.execute(self.pending_doc),
                                            action="execute_task")
        stage = self.pending_stage
        if result.ok:
            self.stage_times[stage] = self.stage_times.get(stage, 0.0) + result.wall_time_s
            self.state.mark_done(stage)
            self.pending_doc = self.pending_stage = None
        else:
            self.state.record_error(stage)
        self._persist()
        if result.terminal:
            raise TerminalStageError(stage, self.state.error_count(stage), result.first_line())
        return result

    def patch(self) -> ExecutionResult:
        """Replace the pending document with the planner's correction
        from the log of the last execution, which must have failed."""
        if self.pending_doc is None or self.last_result is None or self.last_result.ok:
            return ExecutionResult(status="error", action="patch_task",
                                   log="nothing to patch: no failed task on record")
        doc = tune_task(self.planner, self.pending_doc, self.last_result.log)
        save_document(doc, self.ctx.workspace / STAGE_TASKS[self.pending_stage].doc_file)
        self.pending_doc = doc
        return ExecutionResult(status="ok", action="patch_task",
                               log="task patched from the error log")

    def give_up(self) -> None:
        """Mark the pending stage failed, keeping its error count, so a
        loop that raises leaves no stage in progress; `--resume` starts
        that stage over."""
        if self.pending_stage is not None:
            self.state.mark_failed(self.pending_stage)
            self._persist()

    def finish(self, steps: int | None = None) -> dict:
        """The report stage: reload the report of a run that already
        finished it, else synthesize it between two persisted
        transitions (in progress, then done). The stage is pending while
        it runs, so a loop that gives up on a raise leaves it failed."""
        if self.state.is_done("report_synthesis"):
            return read_json(self.ctx.path("report_dir") / "report.json", CorruptArtifact)
        self.pending_stage = "report_synthesis"
        self.state.mark_in_progress("report_synthesis")
        self._persist()
        report = synthesize_report(self.ctx, self.state, self.planner,
                                   stage_times=self.stage_times, steps=steps)
        self.state.mark_done("report_synthesis")
        self._persist()
        return report


def run_multi_agent(task: str, planner: PlannerBase, executor: TaskExecutor,
                    max_retries: int = DEFAULT_MAX_RETRIES, resume: bool = False,
                    stop_after_stage: str | None = None) -> AgentOutcome:
    """Algorithm: for each stage, generate the task, execute it, and on
    error tune and re-execute up to max_retries attempts total.

    Raises StageExhausted when a stage keeps failing, and
    TerminalStageError on the first terminal failure; like any
    AutoductError the loop raises, it leaves the stage failed-but-resumable.
    `stop_after_stage` ends the run cleanly after the named stage (a
    controlled substitute for kill -9 in resume drills), and ends a
    resumed run at once if that stage is already done. A name outside
    STAGE_ORDER raises ValueError before any state is read. The run's
    workspace is the executor's context.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    run = StageRun("multi", task, planner, executor, resume, stop_after_stage)
    if run.stopped():
        return AgentOutcome(report=None, state=run.state)
    try:
        for stage in STAGE_TASKS:
            if run.state.is_done(stage):
                continue
            run.generate(stage)
            for attempt in range(1, max_retries + 1):
                result = run.execute()
                if result.ok:
                    break
                if attempt == max_retries:
                    raise StageExhausted(stage, run.state.error_count(stage),
                                         result.first_line())
                run.patch()
            if run.stopped():
                return AgentOutcome(report=None, state=run.state)
        report = run.finish()
    except AutoductError:
        run.give_up()
        raise
    return AgentOutcome(report=report, state=run.state)
