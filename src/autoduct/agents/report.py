"""Final run report: one JSON document, one text rendering, one timing
sidecar.

report.json is a pure function of the run's state, metrics, and planner
call log, so two identical scripted runs produce byte-identical reports.
Wall-clock timings are real measurements and would break that, which is
why they live in timings.json next door instead of inside the report.
"""

from __future__ import annotations

from ..atomic import read_json, write_atomic, write_json
from ..errors import CorruptArtifact
from .context import ProjectContext
from .planner import PlannerBase
from .state import STAGE_ORDER, WorkflowState

REPORT_FORMAT_VERSION = 1


def synthesize_report(ctx: ProjectContext, state: WorkflowState,
                      planner: PlannerBase, stage_times: dict | None = None,
                      steps: int | None = None) -> dict:
    """Assemble and write the final report; returns the report dict. The
    evaluation's metrics.json must be there: a missing or unreadable one
    raises CorruptArtifact naming it."""
    report_dir = ctx.path("report_dir")
    metrics_path = report_dir / "metrics.json"
    doc = read_json(metrics_path, CorruptArtifact)
    if not isinstance(doc, dict):
        raise CorruptArtifact(f"{metrics_path} must hold a JSON object")
    metrics = doc.get("metrics", {})
    level = doc.get("level")

    stages = {name: s.status for name, s in state.stages.items()}
    # the report itself is the synthesis stage's artifact
    stages["report_synthesis"] = "done"
    per_stage_errors = {name: state.error_count(name) for name in STAGE_ORDER}
    recoveries = sum(state.error_count(name) for name in STAGE_ORDER
                     if stages[name] == "done")

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "run_id": state.run_id,
        "mode": state.mode,
        "planner": planner.name,
        "status": "completed",
        "stages": stages,
        "errors": {"total": state.total_errors(), "per_stage": per_stage_errors},
        "recoveries": recoveries,
        "metrics": metrics,
        "tokens": planner.usage(),
    }
    if level is not None:
        report["level"] = level
    if steps is not None:
        report["steps"] = steps

    write_json(report_dir / "report.json", report)
    write_atomic(report_dir / "report.txt", lambda fh: fh.write(render_report(report)))

    times = dict(stage_times or {})
    write_json(report_dir / "timings.json",
               {"stages": times, "total_s": sum(times.values())})
    return report


def render_report(report: dict) -> str:
    lines = [f"run {report['run_id']} ({report['mode']}, planner {report['planner']})",
             f"status: {report['status']}"]
    lines.append("stages:")
    for name in STAGE_ORDER:
        status = report["stages"].get(name, "unknown")
        errors = report["errors"]["per_stage"].get(name, 0)
        lines.append(f"  {name:<22} {status:<12} errors {errors}")
    lines.append(f"errors total: {report['errors']['total']} "
                 f"(recovered {report['recoveries']})")
    if report.get("steps") is not None:
        lines.append(f"steps: {report['steps']}")
    if report["metrics"]:
        lines.append("metrics:")
        for key, value in sorted(report["metrics"].items()):
            if isinstance(value, float):
                lines.append(f"  {key}: {value:.4f}")
            else:
                lines.append(f"  {key}: {value}")
    tokens = report["tokens"]
    lines.append(f"tokens: {tokens['calls']} calls, {tokens['total']} total "
                 f"({tokens['prompt']} prompt + {tokens['completion']} completion)")
    return "\n".join(lines) + "\n"
