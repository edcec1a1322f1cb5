"""Persisted workflow state: the resume point for both agent loops.

The pipeline is a fixed sequence of four stages. Statuses move through
pending -> in_progress -> done, possibly via failed; once a stage is
done it never regresses, and a stage can only be done when everything
before it is done. The state file is JSON, written atomically
(temporary file, then rename) so a kill at any instant leaves either the
old or the new state, never a torn one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ..atomic import read_json, write_json
from ..errors import CorruptState, VersionMismatch

STATE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class StageTask:
    """What an executed stage runs: the kind of its task document, the
    ReAct tool that generates it, the workspace file it is saved to, and
    the instruction its task prompt gives the planner."""

    kind: str
    tool: str
    doc_file: str
    instruction: str


# every stage but the report runs one task document; both loops, the
# planner prompts, fault specs and `direct` read this table, in this order
STAGE_TASKS = {
    "model_generation": StageTask(
        "model", "generate_model", "model_task.json",
        "Design the regression model for this run: an ensemble of MLPs with "
        "mean and variance heads. Emit the JSON payload for a 'model' task."),
    "training_execution": StageTask(
        "train", "generate_training_task", "training_task.json",
        "Produce the training task for the declared model: data split, "
        "optimizer settings, and output location. Emit the JSON payload for "
        "a 'train' task."),
    "evaluation_execution": StageTask(
        "evaluate", "generate_evaluation_task", "evaluation_task.json",
        "Produce the evaluation task for the trained ensemble: metric list, "
        "interval level, and report location. Emit the JSON payload for an "
        "'evaluate' task."),
}

STAGE_ORDER = (*STAGE_TASKS, "report_synthesis")

_STATUSES = ("pending", "in_progress", "done", "failed")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class StageState:
    status: str = "pending"
    error_count: int = 0
    updated_at: str = ""


@dataclass
class WorkflowState:
    run_id: str
    mode: str                      # "multi" | "react"
    stages: dict[str, StageState] = field(
        default_factory=lambda: {name: StageState() for name in STAGE_ORDER})

    def status(self, stage: str) -> str:
        return self._stage(stage).status

    def error_count(self, stage: str) -> int:
        return self._stage(stage).error_count

    def total_errors(self) -> int:
        return sum(s.error_count for s in self.stages.values())

    def is_done(self, stage: str) -> bool:
        return self.status(stage) == "done"

    def _stage(self, stage: str) -> StageState:
        if stage not in self.stages:
            raise KeyError(f"unknown stage {stage!r}")
        return self.stages[stage]

    def _set(self, stage: str, status: str) -> None:
        entry = self._stage(stage)
        if entry.status == "done" and status != "done":
            raise ValueError(f"stage {stage} is done and cannot regress to {status}")
        entry.status = status
        entry.updated_at = _now()

    def mark_in_progress(self, stage: str) -> None:
        self._set(stage, "in_progress")

    def first_undone_before(self, stage: str) -> str | None:
        """The first stage before `stage` that is not done, else None: a
        stage may be done, or have its task generated, only at None."""
        for prior in STAGE_ORDER[:STAGE_ORDER.index(stage)]:
            if not self.is_done(prior):
                return prior
        return None

    def mark_done(self, stage: str) -> None:
        prior = self.first_undone_before(stage)
        if prior is not None:
            raise ValueError(f"cannot finish {stage}: {prior} is {self.status(prior)}")
        self._set(stage, "done")

    def mark_failed(self, stage: str) -> None:
        self._set(stage, "failed")

    def record_error(self, stage: str) -> None:
        entry = self._stage(stage)
        entry.error_count += 1
        entry.updated_at = _now()

    def to_dict(self) -> dict:
        return {
            "version": STATE_FORMAT_VERSION,
            "run_id": self.run_id,
            "mode": self.mode,
            "stages": {name: {"status": s.status, "error_count": s.error_count,
                              "updated_at": s.updated_at}
                       for name, s in self.stages.items()},
        }


def persist_state(state: WorkflowState, path: str | Path) -> None:
    write_json(path, state.to_dict())


def load_state(path: str | Path) -> WorkflowState:
    doc = read_json(path, CorruptState)
    if not isinstance(doc, dict):
        raise CorruptState(f"state document {path} must be an object")
    version = doc.get("version")
    if version != STATE_FORMAT_VERSION:
        raise VersionMismatch(f"unsupported state format {version!r}")
    try:
        stages = {}
        for name in STAGE_ORDER:
            entry = doc["stages"][name]
            status = entry["status"]
            error_count = int(entry["error_count"])
            if status not in _STATUSES:
                raise CorruptState(f"stage {name} has unknown status {status!r}")
            if error_count < 0:
                raise CorruptState(f"stage {name} has negative error count")
            stages[name] = StageState(status, error_count, str(entry["updated_at"]))
        state = WorkflowState(run_id=str(doc["run_id"]), mode=str(doc["mode"]),
                              stages=stages)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptState(f"malformed state file {path}: {exc}") from exc

    # monotonicity: a done stage implies every prior stage is done
    for name in STAGE_ORDER:
        prior = state.first_undone_before(name)
        if state.is_done(name) and prior is not None:
            raise CorruptState(f"{name} is done but {prior} is not")
    return state
