"""Agent-driven pipeline orchestration.

Two control loops over a shared executor and planner abstraction: a
supervisor-centric multi-stage workflow with retry, and a single-agent
think/act/observe loop with a bounded transcript window. Both are
policies over one `StageRun`, the one owner of a run's persisted stage
transitions; a loop that gives up marks its pending stage failed, so no
stage is left in progress.
"""

from .context import ProjectContext
from .state import STAGE_ORDER, StageState, WorkflowState, load_state, persist_state
from .tasks import TaskDocument, validate_document
from .executor import (FAULT_MARKER, ExecutionResult, FaultInjector,
                       TaskExecutor, parse_fault_spec)
from .planner import (
    HttpPlanner,
    PlannerCall,
    PlannerReply,
    PlanRequest,
    ScriptedPlanner,
    PipelineRecipe,
)
from .multi_agent import (AgentOutcome, StageRun, generate_task, run_multi_agent,
                          tune_task)
from .react import (PlannerDirective, Transcript, act, build_tools, observe,
                    run_react, think)
from .report import render_report, synthesize_report

__all__ = [
    "ProjectContext", "STAGE_ORDER", "StageState", "WorkflowState",
    "load_state", "persist_state", "TaskDocument", "validate_document",
    "FAULT_MARKER", "ExecutionResult", "FaultInjector", "TaskExecutor",
    "parse_fault_spec", "HttpPlanner", "PlannerCall", "PlannerReply",
    "PlanRequest", "ScriptedPlanner", "PipelineRecipe", "AgentOutcome",
    "StageRun", "generate_task", "run_multi_agent", "tune_task",
    "PlannerDirective", "Transcript", "act", "build_tools", "observe",
    "run_react", "think", "render_report", "synthesize_report",
]
