"""Single-agent ReAct loop: think, act, observe, repeat.

One planner drives the whole pipeline through a fixed tool set. Each
step asks for a directive (thought + action), dispatches the action,
condenses the outcome into a one-line observation, and appends the
triple to the transcript. The prompt only ever carries the bounded
recent window of the transcript; the full history is kept for the
report. Error observations feed the next thought, which is what lets a
scripted or LLM planner route through patch_task and recover.

The tools are thin wrappers over the run's `StageRun`, the one owner of
persisted transitions it shares with the supervisor loop, so the two
loops differ only in who picks the next step, and both reach the
workspace through their executor's context. As in the supervisor, a
run that gives up (an AutoductError from `think`, a terminal failure
of `execute_task`, or the step budget running out) calls `give_up()`
first: the pending stage is left failed, never in progress.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (AutoductError, SchemaInvalid, StepBudgetExhausted,
                      TerminalStageError, UnknownTool)
from .context import ProjectContext
from .executor import ExecutionResult, TaskExecutor
from .multi_agent import AgentOutcome, StageRun
from .planner import PlanRequest, PlannerBase, build_directive_prompt
from .state import STAGE_TASKS, WorkflowState

OBSERVATION_LIMIT = 512
WINDOW_SIZE = 8            # steps of recent history each directive prompt shows
DEFAULT_MAX_STEPS = 40


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

    window_size = WINDOW_SIZE

    def __init__(self):
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


def think(planner: PlannerBase, task: str, state: WorkflowState,
          transcript: Transcript, ctx: ProjectContext,
          tools: dict) -> PlannerDirective:
    """One planning step: prompt from task + state + tools + paths +
    recent window, parsed into a validated directive."""
    statuses = {name: stage.status for name, stage in state.stages.items()}
    summary = " ".join(f"{name}={status}" for name, status in statuses.items())
    prompt = build_directive_prompt(task, summary, transcript.render_window(),
                                    tuple(tools), ctx)
    reply = planner.plan(PlanRequest(kind="directive", prompt=prompt,
                                     statuses=statuses,
                                     last_observation=transcript.last_observation()))
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
    results so the observation can carry them. A terminal failure ends
    the run instead."""
    tool = tools[directive.action]
    try:
        return tool(directive.args)
    except TerminalStageError:
        raise
    except (AutoductError, ValueError) as exc:
        return ExecutionResult(status="error", action=directive.action,
                               log=f"{type(exc).__name__}: {exc}")


def observe(result: ExecutionResult) -> str:
    """Fixed-format one-liner: status, action, first log line."""
    detail = result.first_line() or "done"
    return f"{result.status}: {result.action} → {detail}"[:OBSERVATION_LIMIT]


def build_tools(run: StageRun) -> dict:
    """The registered tool set over a run; every tool returns an
    ExecutionResult. `finish_task` only acknowledges: the loop ends on it.
    One generate tool per executed stage, in stage order, then the rest;
    every directive prompt lists the tools in this order."""

    def read_log(args: dict) -> ExecutionResult:
        log = run.last_result.log if run.last_result else ""
        return ExecutionResult(status="ok", action="read_log",
                               log=log or "no log recorded yet")

    def finish_task(args: dict) -> ExecutionResult:
        return ExecutionResult(status="ok", action="finish_task",
                               log="run marked finished")

    tools = {task.tool: lambda args, stage=stage: run.generate(stage)
             for stage, task in STAGE_TASKS.items()}
    tools.update(execute_task=lambda args: run.execute(),
                 patch_task=lambda args: run.patch(),
                 read_log=read_log, finish_task=finish_task)
    return tools


def run_react(task: str, planner: PlannerBase, executor: TaskExecutor,
              max_steps: int = DEFAULT_MAX_STEPS, resume: bool = False,
              stop_after_stage: str | None = None) -> AgentOutcome:
    """Think -> act -> observe until finish_task or the step budget.

    Raises StepBudgetExhausted when the budget runs out, and
    TerminalStageError on the first terminal failure; like any
    AutoductError the loop raises, it leaves the pending stage
    failed-but-resumable. A `stop_after_stage` ends the run once that
    stage is done, before any step if a resumed run has already done it.
    A name outside STAGE_ORDER raises ValueError before any state is
    read. The run's workspace is the executor's context. Returns the
    outcome with the full transcript attached.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    run = StageRun("react", task, planner, executor, resume, stop_after_stage)
    transcript = Transcript()
    if run.stopped():
        return AgentOutcome(report=None, state=run.state, transcript=transcript)
    tools = build_tools(run)
    try:
        for _ in range(max_steps):
            directive = think(planner, task, run.state, transcript, run.ctx, tools)
            result = act(directive, tools)
            transcript.append(ReActStep(directive.thought, directive.action,
                                        observe(result)))
            if directive.action == "finish_task":
                break
            if run.stopped():
                return AgentOutcome(report=None, state=run.state,
                                    transcript=transcript)
        else:
            raise StepBudgetExhausted(max_steps)
        report = run.finish(steps=len(transcript))
    except AutoductError:
        run.give_up()
        raise
    return AgentOutcome(report=report, state=run.state, transcript=transcript)
