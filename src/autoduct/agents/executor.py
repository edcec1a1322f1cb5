"""Workspace-confined execution of task documents.

The executor is the only component that touches the numerical engine on
behalf of an agent loop. It interprets validated documents, reads and
writes every artifact at its role's path in the project context's fixed
layout, and reports every failure, engine errors included, inside the
returned result instead of raising. A fault injector can force synthetic
failures on chosen attempt numbers to drill the recovery paths
deterministically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .. import ensemble as ensemble_mod
from ..atomic import read_json, write_json
from ..dataset import SliceSpec, check_slice_ids, fit_normalizer, load_csv, split
from ..errors import VersionMismatch
from ..evaluation import METRIC_COLUMNS, POINT_METRICS, evaluate_model, evaluate_slices
from ..neural_net import ActivationKind, MLPConfig, TrainConfig
from ..report_export import export_report
from .context import ProjectContext
from .state import STAGE_TASKS
from .tasks import TaskDocument, validate_document

# Recognizable first-line marker for synthetic failures: an injected
# fault is external to the document, so the right "patch" is to retry
# unchanged.
FAULT_MARKER = "injected fault"

MODEL_SPEC_VERSION = 1


@dataclass(frozen=True)
class ExecutionResult:
    """Uniform outcome record for every dispatched action."""

    status: str
    action: str
    log: str
    wall_time_s: float = field(default=0.0, compare=False)
    terminal: bool = False      # the error's class is one no retry can change

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "error" and not self.log.strip():
            raise ValueError("error results must carry a non-empty log")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def first_line(self) -> str:
        return self.log.splitlines()[0] if self.log else ""


def _fault_kind(name: str) -> str:
    """The task kind a fault clause targets: a stage name or its kind."""
    for stage, task in STAGE_TASKS.items():
        if name in (stage, task.kind):
            return task.kind
    raise ValueError(f"unknown stage {name!r} in fault spec")


def parse_fault_spec(spec: str) -> dict[str, frozenset[int]]:
    """Parse e.g. "stage=evaluate,attempt=1" or
    "stage=train,attempts=1-3"; multiple clauses separated by ";". A
    stage is named by its `STAGE_TASKS` key or its task kind."""
    plan: dict[str, set[int]] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        stage = None
        attempts: set[int] = set()
        for part in clause.split(","):
            key, _, value = part.strip().partition("=")
            if not value:
                raise ValueError(f"malformed fault clause {clause!r}")
            if key == "stage":
                stage = _fault_kind(value)
            elif key in ("attempt", "attempts"):
                lo, _, hi = value.partition("-") if key == "attempts" else (value, "", "")
                try:
                    attempts.update(range(int(lo), int(hi or lo) + 1))
                except ValueError:
                    raise ValueError(f"fault clause {clause!r}: {key} takes whole "
                                     f"numbers, got {value!r}") from None
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        if stage is None or not attempts:
            raise ValueError(f"fault clause {clause!r} needs a stage and attempts")
        if min(attempts) < 1:
            raise ValueError("fault attempts are 1-based")
        plan.setdefault(stage, set()).update(attempts)
    return {kind: frozenset(att) for kind, att in plan.items()}


class FaultInjector:
    """Fails the n-th execution attempt of a task kind with a synthetic
    error. Attempt counting is per kind and 1-based."""

    def __init__(self, plan: dict[str, frozenset[int]]):
        self.plan = {kind: frozenset(att) for kind, att in plan.items()}
        self._calls: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        return cls(parse_fault_spec(spec))

    def should_fail(self, kind: str) -> bool:
        self._calls[kind] = self._calls.get(kind, 0) + 1
        return self._calls[kind] in self.plan.get(kind, frozenset())

    def synthetic_log(self, kind: str) -> str:
        attempt = self._calls.get(kind, 0)
        return (f"RuntimeError: {FAULT_MARKER} armed for {kind} attempt {attempt}\n"
                f"simulated engine failure; retry once the injector disarms")


class TaskExecutor:
    """Dispatches model / train / evaluate documents to the engine.

    Every read and write is at a role's path in the context, so all of
    them stay under the workspace root; a role outside the context's
    layout becomes an `UnboundRole` error result. Engine exceptions are
    captured, never propagated. It keeps no record of past results: each
    one goes back to the caller alone.
    """

    def __init__(self, ctx: ProjectContext, injector: FaultInjector | None = None):
        self.ctx = ctx
        self.injector = injector

    def execute(self, doc: TaskDocument) -> ExecutionResult:
        start = time.perf_counter()
        try:
            validate_document(doc)
        except Exception as exc:
            return self._error(doc.kind, exc, start)

        if self.injector is not None and self.injector.should_fail(doc.kind):
            return ExecutionResult(status="error", action=doc.kind,
                                   log=self.injector.synthetic_log(doc.kind),
                                   wall_time_s=time.perf_counter() - start)

        try:
            runner = {"model": self._run_model, "train": self._run_train,
                      "evaluate": self._run_evaluate}[doc.kind]
            return ExecutionResult(status="ok", action=doc.kind, log=runner(doc),
                                   wall_time_s=time.perf_counter() - start)
        except Exception as exc:
            return self._error(doc.kind, exc, start)

    @staticmethod
    def _error(action: str, exc: Exception, start: float) -> ExecutionResult:
        return ExecutionResult(status="error", action=action,
                               log=f"{type(exc).__name__}: {exc}",
                               wall_time_s=time.perf_counter() - start,
                               terminal=getattr(exc, "terminal", False))

    def _run_model(self, doc: TaskDocument) -> str:
        p = doc.payload
        out = self.ctx.path(p["output_role"])
        spec = {"version": MODEL_SPEC_VERSION, "input_dim": p["input_dim"],
                "members": p["members"]}
        out.parent.mkdir(parents=True, exist_ok=True)
        write_json(out, spec)
        return f"wrote model spec with {len(p['members'])} members to {out.name}"

    def _run_train(self, doc: TaskDocument) -> str:
        p = doc.payload
        data_path = self.ctx.path(p["data_role"])
        model_path = self.ctx.path(p["model_role"])
        out_dir = self.ctx.path(p["output_role"])

        ds = load_csv(data_path)
        splits = split(ds, tuple(p["split"]["fractions"]), p["split"]["seed"])
        normalizer = fit_normalizer(splits.train)
        # not terminal while the file is not a spec: a patched document
        # may name the right one
        spec = read_json(model_path, ValueError)
        if not isinstance(spec, dict):
            raise ValueError(f"model spec {model_path} must hold a JSON object")
        if spec.get("version") != MODEL_SPEC_VERSION:
            raise VersionMismatch(f"unsupported model spec version "
                                  f"{spec.get('version')!r} in {model_path}")
        opt = p["optimizer"]
        member_configs = []
        for i, m in enumerate(spec["members"]):
            mlp_cfg = MLPConfig(input_dim=int(spec["input_dim"]),
                                hidden_layers=m["hidden_layers"],
                                hidden_units=m["hidden_units"],
                                activation=ActivationKind(m["activation"]),
                                dropout_rate=m["dropout_rate"])
            train_cfg = TrainConfig(learning_rate=opt["learning_rate"],
                                    weight_decay=opt["weight_decay"],
                                    batch_size=opt["batch_size"],
                                    epochs=opt["epochs"],
                                    seed=opt["base_seed"] + i,
                                    patience=opt["patience"])
            member_configs.append((mlp_cfg, train_cfg))
        ens = ensemble_mod.train_ensemble(splits, normalizer, member_configs)
        ensemble_mod.save_ensemble(ens, out_dir)
        return (f"trained {ens.size} members on {len(splits.train)} rows "
                f"(val {len(splits.validation)}, test {len(splits.test)}); "
                f"saved to {out_dir.name}")

    def _run_evaluate(self, doc: TaskDocument) -> str:
        p = doc.payload
        data_path = self.ctx.path(p["data_role"])
        ens_dir = self.ctx.path(p["ensemble_role"])
        report_dir = self.ctx.path(p["output_role"])
        # bad slice specs fail before any scoring
        specs = check_slice_ids([SliceSpec.from_dict(entry) for entry in p.get("slices") or ()])

        ens = ensemble_mod.load_ensemble(ens_dir)
        ds = load_csv(data_path)
        splits = split(ds, tuple(p["split"]["fractions"]), p["split"]["seed"])
        me = evaluate_model(ens, splits.test, level=p["level"])
        slices = evaluate_slices(ens, specs, level=p["level"]) if specs else ()

        written = export_report(me, slices, report_dir)
        dropped = {METRIC_COLUMNS[name] for name in POINT_METRICS if name not in p["metrics"]}
        metrics = {k: v for k, v in me.report.to_dict().items() if k not in dropped}
        payload = {"metrics": metrics, "level": p["level"],
                   "files": [os.path.basename(w) for w in written]}
        write_json(report_dir / "metrics.json", payload)
        return (f"evaluated {metrics['n']} test rows; "
                + "; ".join(f"{k}={metrics[k]:.3f}" for k in sorted(metrics)
                            if isinstance(metrics[k], float))
                + f"; wrote {len(written) + 1} files to {report_dir.name}")
