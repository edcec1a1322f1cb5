"""In-memory span tracing of autoduct, installed from outside the package.

Each hook wraps one public function at the name its caller looks it up
(`autoduct.cli.load_csv`, `autoduct.agents.executor.load_csv`, ...), so
the package itself is untouched. A span records name, tag, start, end,
parent and pass id; spans stay in memory until the run ends. A hook whose
target a refactor renamed or removed is recorded as missing and skipped;
it never stops a run, and untraced passes run with every hook removed.

Per-pass metrics: for each span name N, `N.s` (busy time), `N.self_s`
(busy time minus child spans), `N.calls`, one `N.<count>` per counter the
hook records, and `N.s.<tag>` per tag (activation, task kind), plus a
few ratios (see `pass_metrics`). This is one process with no queues, so no
layer has a wait time and none is reported.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

ACTIVATIONS = ("relu", "leaky_relu", "gelu", "selu", "elu", "softplus")


@dataclass
class Span:
    name: str
    tag: str | None
    start: float
    parent: int                 # index into Tracer.spans, -1 at the root
    pass_id: str
    end: float = 0.0
    child_s: float = 0.0        # summed duration of direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span stack for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.pass_id = ""
        self._stack: list[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, tag, time.perf_counter(), parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def note_missing(self, entry: str) -> None:
        if entry not in self.missing:
            self.missing.append(entry)


# --- counters ---------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _rows_of_result(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _rows_of_input(index: int, name: str) -> Callable:
    def count(args, kwargs, result) -> dict:
        return {"rows": len(_arg(args, kwargs, index, name))}
    return count


def _train_counts(args, kwargs, result) -> dict:
    splits = _arg(args, kwargs, 0, "splits")
    tc = _arg(args, kwargs, 3, "tc")
    epochs = len(result[1].train_losses)
    return {"epochs": epochs,
            "steps": epochs * math.ceil(len(splits.train) / tc.batch_size)}


def _train_tag(args, kwargs) -> str:
    return _arg(args, kwargs, 2, "mlp").activation.value


def _trial_counts(args, kwargs, result) -> dict:
    return {"diverged": int(result.status == "diverged")}


def _execute_tag(args, kwargs) -> str:
    return _arg(args, kwargs, 1, "doc").kind


def _execute_counts(args, kwargs, result) -> dict:
    return {"errors": int(not result.ok)}


def _export_counts(args, kwargs, result) -> dict:
    return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}


def _evaluation_counts(args, kwargs, result) -> dict:
    return {"rows": result.report.n}


@dataclass(frozen=True)
class Hook:
    span: str                   # "<layer>.<function>"
    module: str                 # module whose namespace the caller uses
    attr: str                   # attribute path in it, e.g. "Ensemble.predict"
    counts: Callable | None = None      # (args, kwargs, result) -> dict
    tag: Callable | None = None         # (args, kwargs) -> str
    factory: bool = False       # trace the callable it returns, not the call


HOOKS = (
    Hook("cli.main", "autoduct.cli", "main"),
    Hook("dataset.load_csv", "autoduct.cli", "load_csv", _rows_of_result),
    Hook("dataset.load_csv", "autoduct.agents.executor", "load_csv", _rows_of_result),
    Hook("dataset.split", "autoduct.cli", "split"),
    Hook("dataset.split", "autoduct.agents.executor", "split"),
    Hook("dataset.generate_synthetic", "autoduct.cli", "generate_synthetic",
         _rows_of_result),
    Hook("dataset.write_csv", "autoduct.cli", "write_csv"),
    Hook("neural_net.train", "autoduct.neural_net", "train", _train_counts, _train_tag),
    Hook("neural_net.predict_batch", "autoduct.neural_net", "predict_batch",
         _rows_of_input(3, "raw_inputs")),
    Hook("ensemble.train_ensemble", "autoduct.ensemble", "train_ensemble"),
    Hook("ensemble.predict", "autoduct.ensemble", "Ensemble.predict",
         _rows_of_input(1, "raw_inputs")),
    Hook("ensemble.save_ensemble", "autoduct.ensemble", "save_ensemble"),
    Hook("ensemble.load_ensemble", "autoduct.ensemble", "load_ensemble"),
    Hook("ensemble.load_ensemble", "autoduct.cli", "load_ensemble"),
    Hook("hpo.run_parallel_bo", "autoduct.cli", "run_parallel_bo"),
    Hook("hpo.evaluator", "autoduct.cli", "make_trial_evaluator", _trial_counts,
         factory=True),
    Hook("hpo.sample_sobol", "autoduct.hpo.optimize", "sample_sobol"),
    Hook("hpo.fit_gp", "autoduct.hpo.optimize", "fit_gp"),
    Hook("hpo.propose_next", "autoduct.hpo.optimize", "propose_next"),
    Hook("hpo.sobol_points", "autoduct.hpo.sobol", "sobol_points"),
    Hook("hpo.sobol_points", "autoduct.hpo.gp", "sobol_points"),
    Hook("agents.run_multi_agent", "autoduct.cli", "run_multi_agent"),
    Hook("agents.execute", "autoduct.agents.executor", "TaskExecutor.execute",
         _execute_counts, _execute_tag),
    Hook("agents.persist_state", "autoduct.agents.multi_agent", "persist_state"),
    Hook("agents.planner", "autoduct.agents.planner", "PlannerBase.plan"),
    Hook("agents.synthesize_report", "autoduct.agents.multi_agent", "synthesize_report"),
    Hook("evaluation.evaluate_model", "autoduct.cli", "evaluate_model",
         _evaluation_counts),
    Hook("evaluation.evaluate_model", "autoduct.agents.executor", "evaluate_model",
         _evaluation_counts),
    Hook("evaluation.evaluate_slices", "autoduct.cli", "evaluate_slices"),
    Hook("evaluation.evaluate_slices", "autoduct.agents.executor", "evaluate_slices"),
    Hook("report_export.export_report", "autoduct.cli", "export_report", _export_counts),
    Hook("report_export.export_report", "autoduct.agents.executor", "export_report",
         _export_counts),
)


# --- installing hooks -------------------------------------------------------

def _traced(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = None
        if hook.tag is not None:
            try:
                tag = hook.tag(args, kwargs)
            except Exception as exc:
                tracer.note_missing(f"{hook.span} tag: {type(exc).__name__}: {exc}")
        index = tracer.begin(hook.span, tag)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook.counts is not None:
            try:
                tracer.spans[index].counts = hook.counts(args, kwargs, result)
            except Exception as exc:
                tracer.note_missing(f"{hook.span} counts: {type(exc).__name__}: {exc}")
        return result
    return wrapper


def _traced_factory(tracer: Tracer, hook: Hook, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return _traced(tracer, hook, factory(*args, **kwargs))
    return wrapper


class Hooks:
    """Installs HOOKS for the duration of a `with` block."""

    def __init__(self, tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for hook in self.hooks:
            where = f"{hook.module}.{hook.attr}"
            try:
                owner = importlib.import_module(hook.module)
                *path, name = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                self.tracer.note_missing(f"missing hook {where}: {exc}")
                continue
            if not callable(original):
                self.tracer.note_missing(f"missing hook {where}: not callable")
                continue
            self._saved.append((owner, name, original))
            wrap = _traced_factory if hook.factory else _traced
            setattr(owner, name, wrap(self.tracer, hook, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# --- metrics ----------------------------------------------------------------

def split_by_pass(tracer: Tracer) -> dict[str, list[Span]]:
    """Spans grouped by pass id, in recording order."""
    groups: dict[str, list[Span]] = {}
    for span in tracer.spans:
        groups.setdefault(span.pass_id, []).append(span)
    return groups


def pass_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Totals and ratios for the spans of one pass (or set-up repetition)
    that took `pass_s` seconds of wall time; 0 where a layer never ran."""
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for span in spans:
        add(f"{span.name}.s", span.duration)
        add(f"{span.name}.self_s", span.self_s)
        add(f"{span.name}.calls", 1)
        if span.tag is not None:
            add(f"{span.name}.s.{span.tag}", span.duration)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value)

    # time per optimizer step, over the train calls that finished
    for act in ACTIVATIONS:
        done = [s for s in spans if s.name == "neural_net.train" and s.tag == act
                and "steps" in s.counts]
        steps = sum(s.counts["steps"] for s in done)
        m[f"neural_net.step_us.{act}"] = (
            1e6 * sum(s.duration for s in done) / steps if steps else 0.0)
    trials = m.get("hpo.evaluator.calls", 0)
    m["hpo.diverged_frac"] = m.get("hpo.evaluator.diverged", 0) / trials if trials else 0.0
    m["hpo.surrogate_share"] = (m.get("hpo.fit_gp.s", 0.0)
                                + m.get("hpo.propose_next.s", 0.0)) / pass_s
    m["hpo.self_share"] = sum(s.self_s for s in spans if s.name.startswith("hpo.")) / pass_s
    m["pass.self_sum_s"] = sum(s.self_s for s in spans)
    m["pass.s"] = pass_s
    return m
