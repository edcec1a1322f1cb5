"""Single-agent ReAct loop: think, act, observe, repeat.

One planner drives the whole pipeline through a fixed tool set. Each
step asks for a directive (thought + action), dispatches the action,
condenses the outcome into a one-line observation, and appends the
triple to the transcript. The prompt only ever carries the bounded
recent window of the transcript; the full history is kept for the
report. Error observations feed the next thought, which is what lets a
scripted or LLM planner route through patch_task and recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from ..errors import AutoductError, SchemaInvalid, StepBudgetExhausted, UnknownTool
from .context import ProjectContext
from .executor import ExecutionResult, TaskExecutor
from .multi_agent import (AgentOutcome, _check_loop_args, _finish_report,
                          _load_or_create_state, _save_stage_document,
                          _stop_stage_done, generate_task, tune_task)
from .planner import PlanRequest, PlannerBase, build_directive_prompt
from .state import STAGE_TASKS, WorkflowState, persist_state

OBSERVATION_LIMIT = 512
DEFAULT_WINDOW = 8
DEFAULT_MAX_STEPS = 40

# one generate tool per executed stage, in stage order, then the rest;
# every directive prompt lists the tools in this order
TOOL_NAMES = tuple(t.tool for t in STAGE_TASKS.values()) + (
    "execute_task", "patch_task", "read_log", "finish_task")


@dataclass(frozen=True)
class ReActStep:
    thought: str
    action: str
    observation: str


@dataclass(frozen=True)
class PlannerDirective:
    thought: str
    action: str
    args: dict


class Transcript:
    """Append-only history with a bounded recent window."""

    def __init__(self, window_size: int = DEFAULT_WINDOW):
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.window_size = window_size
        self.history: list[ReActStep] = []

    def append(self, step: ReActStep) -> None:
        self.history.append(step)

    def window(self) -> list[ReActStep]:
        return self.history[-self.window_size:]

    def last_observation(self) -> str:
        return self.history[-1].observation if self.history else ""

    def render_window(self) -> list[str]:
        return [f"thought: {s.thought} | action: {s.action} | obs: {s.observation}"
                for s in self.window()]

    def __len__(self) -> int:
        return len(self.history)


def _state_summary(state: WorkflowState) -> str:
    return " ".join(f"{name}={stage.status}" for name, stage in state.stages.items())


def think(planner: PlannerBase, task: str, state: WorkflowState,
          transcript: Transcript, ctx: ProjectContext,
          tools: dict) -> PlannerDirective:
    """One planning step: prompt from task + state + tools + paths +
    recent window, parsed into a validated directive."""
    summary = _state_summary(state)
    prompt = build_directive_prompt(task, summary, transcript.render_window(),
                                    tuple(tools), ctx)
    reply = planner.plan(PlanRequest(kind="directive", prompt=prompt,
                                     state_summary=summary,
                                     last_observation=transcript.last_observation(),
                                     tools=tuple(tools)))
    payload = reply.payload
    action = payload.get("action")
    if not isinstance(action, str) or not action:
        raise SchemaInvalid(f"directive has no action: {payload!r}")
    if action not in tools:
        raise UnknownTool(action)
    args = payload.get("args") or {}
    if not isinstance(args, dict):
        raise SchemaInvalid(f"directive args must be an object: {args!r}")
    return PlannerDirective(thought=str(payload.get("thought", "")),
                            action=action, args=args)


def act(directive: PlannerDirective, tools: dict) -> ExecutionResult:
    """Dispatch to the named tool; expected failures come back as error
    results so the observation can carry them."""
    tool = tools[directive.action]
    try:
        return tool(directive.args)
    except (AutoductError, ValueError) as exc:
        return ExecutionResult(status="error", action=directive.action,
                               log=f"{type(exc).__name__}: {exc}")


def observe(result: ExecutionResult) -> str:
    """Fixed-format one-liner: status, action, first log line."""
    detail = result.first_line() or "done"
    return f"{result.status}: {result.action} → {detail}"[:OBSERVATION_LIMIT]


@dataclass
class _RunState:
    """Mutable bits the tools close over."""

    task: str
    pending_doc: object = None
    pending_stage: str | None = None
    last_failure: ExecutionResult | None = None
    finished: bool = False
    stage_times: dict = field(default_factory=dict)


def build_tools(ctx: ProjectContext, planner: PlannerBase,
                executor: TaskExecutor, state: WorkflowState,
                run: _RunState) -> dict:
    """The registered tool set; every tool returns an ExecutionResult."""
    state_path = ctx.path("state_file")

    def generate(stage: str, args: dict) -> ExecutionResult:
        name = STAGE_TASKS[stage].tool
        if state.is_done(stage):
            # refuse before the planner runs or the stage's files change
            return ExecutionResult(status="error", action=name,
                                   log=f"{stage} is already done")
        doc = generate_task(planner, stage, ctx, run.task)
        _save_stage_document(doc, ctx, stage)
        run.pending_doc, run.pending_stage = doc, stage
        state.mark_in_progress(stage)
        persist_state(state, state_path)
        return ExecutionResult(status="ok", action=name,
                               log=f"task document ready for {stage}")

    def execute_task(args: dict) -> ExecutionResult:
        if run.pending_doc is None:
            return ExecutionResult(status="error", action="execute_task",
                                   log="no task document pending; generate one first")
        result = replace(executor.execute(run.pending_doc), action="execute_task")
        stage = run.pending_stage
        if result.ok:
            run.stage_times[stage] = run.stage_times.get(stage, 0.0) + result.wall_time_s
            state.mark_done(stage)
            run.pending_doc, run.pending_stage, run.last_failure = None, None, None
        else:
            state.record_error(stage)
            run.last_failure = result
        persist_state(state, state_path)
        return result

    def patch_task(args: dict) -> ExecutionResult:
        if run.pending_doc is None or run.last_failure is None:
            return ExecutionResult(status="error", action="patch_task",
                                   log="nothing to patch: no failed task on record")
        patched = tune_task(planner, run.pending_doc, run.last_failure.log)
        _save_stage_document(patched, ctx, run.pending_stage)
        run.pending_doc = patched
        return ExecutionResult(status="ok", action="patch_task",
                               log="task patched from the error log")

    def read_log(args: dict) -> ExecutionResult:
        log = run.last_failure.log if run.last_failure else executor.last_log()
        return ExecutionResult(status="ok", action="read_log",
                               log=log or "no log recorded yet")

    def finish_task(args: dict) -> ExecutionResult:
        run.finished = True
        return ExecutionResult(status="ok", action="finish_task",
                               log="run marked finished")

    tools = {task.tool: partial(generate, stage)
             for stage, task in STAGE_TASKS.items()}
    tools.update(execute_task=execute_task, patch_task=patch_task,
                 read_log=read_log, finish_task=finish_task)
    return tools


def run_react(task: str, ctx: ProjectContext, planner: PlannerBase,
              executor: TaskExecutor | None = None,
              max_steps: int = DEFAULT_MAX_STEPS,
              window_size: int = DEFAULT_WINDOW, resume: bool = False,
              stop_after_stage: str | None = None) -> AgentOutcome:
    """Think -> act -> observe until finish_task or the step budget.

    Raises StepBudgetExhausted when the budget runs out; state stays
    resumable. A `stop_after_stage` ends the run once that stage is done,
    before any step if a resumed run has already done it. A name outside
    STAGE_ORDER, or an executor bound to another context, raises
    ValueError before any state is read. Returns the outcome with the full
    transcript attached.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    executor = executor or TaskExecutor(ctx)
    _check_loop_args(ctx, executor, stop_after_stage)
    state = _load_or_create_state(ctx, "react", resume)
    transcript = Transcript(window_size)
    if _stop_stage_done(state, stop_after_stage):
        return AgentOutcome(report=None, state=state, transcript=transcript)
    state_path = ctx.path("state_file")
    run = _RunState(task=task)
    tools = build_tools(ctx, planner, executor, state, run)

    for _ in range(max_steps):
        directive = think(planner, task, state, transcript, ctx, tools)
        result = act(directive, tools)
        transcript.append(ReActStep(directive.thought, directive.action,
                                    observe(result)))
        persist_state(state, state_path)
        if run.finished:
            break
        if _stop_stage_done(state, stop_after_stage):
            return AgentOutcome(report=None, state=state, transcript=transcript)
    else:
        raise StepBudgetExhausted(max_steps)

    report = _finish_report(ctx, state, planner, run.stage_times,
                            steps=len(transcript))
    return AgentOutcome(report=report, state=state, transcript=transcript)
