"""Planner backends: the decision-makers behind both agent loops.

Two interchangeable backends sit behind one `plan(request)` interface.
The scripted planner is a deterministic rule table keyed on the stage,
the workflow state, and the last observation; every acceptance test
runs on it. The HTTP planner speaks the de-facto chat-completions
schema against a configurable endpoint, with bounded retries and token
accounting taken from the response. Prompts are always assembled by the
calling loop at runtime; backends only ever see the finished prompt, so
call digests are comparable across backends.

Scripted calls report synthetic token counts (75 prompt + 25 completion
per call) so token totals are exact and reproducible in tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from ..errors import AuthFailure, PlannerUnavailable, SchemaInvalid
from ..evaluation import POINT_METRICS, TWO_SIGMA_LEVEL
from .context import ProjectContext
from .state import STAGE_TASKS
from .tasks import TaskDocument

SCRIPTED_PROMPT_TOKENS = 75
SCRIPTED_COMPLETION_TOKENS = 25


@dataclass(frozen=True)
class PlanRequest:
    """Everything a backend may condition on. `prompt` is the full text
    an LLM backend would see; the scripted backend keys on the
    structured fields instead."""

    kind: str
    prompt: str
    stage: str | None = None
    doc: TaskDocument | None = None
    error_log: str | None = None
    statuses: dict[str, str] | None = None     # stage -> status
    last_observation: str | None = None

    def __post_init__(self):
        if self.kind not in ("task", "patch", "directive"):
            raise ValueError(f"unknown request kind {self.kind!r}")


@dataclass(frozen=True)
class PlannerReply:
    payload: dict
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class PlannerCall:
    """Audit record: digests by default, full prompt only when the
    backend was built verbose."""

    purpose: str
    prompt_digest: str
    prompt_tokens: int
    completion_tokens: int
    attempts: int = 1
    prompt: str | None = None


@dataclass(frozen=True)
class TokenUsage:
    call_count: int
    prompt_tokens: int
    completion_tokens: int
    total: int

    def to_dict(self) -> dict:
        return {"calls": self.call_count, "prompt": self.prompt_tokens,
                "completion": self.completion_tokens, "total": self.total}


def account_tokens(calls: list[PlannerCall]) -> TokenUsage:
    prompt = sum(c.prompt_tokens for c in calls)
    completion = sum(c.completion_tokens for c in calls)
    return TokenUsage(call_count=len(calls), prompt_tokens=prompt,
                      completion_tokens=completion, total=prompt + completion)


# --- prompt assembly (shared by both loops) --------------------------------

def build_task_prompt(stage: str, ctx: ProjectContext, task: str) -> str:
    if stage not in STAGE_TASKS:
        raise ValueError(f"no task for stage {stage!r}")
    roles = "\n".join(f"  {role}: {path}" for role, path in ctx.roles().items())
    return (f"Objective: {task}\n\n{STAGE_TASKS[stage].instruction}\n\n"
            f"Workspace roles (use role names, not paths, in the payload):\n{roles}\n")


def build_patch_prompt(doc: TaskDocument, error_log: str) -> str:
    return ("The following task document failed to execute. Return a corrected "
            "payload (JSON only).\n\nDocument:\n"
            + json.dumps(doc.to_dict(), indent=2, sort_keys=True)
            + "\n\nError log:\n" + error_log + "\n")


def build_directive_prompt(task: str, state_summary: str, window: list[str],
                           tools: tuple[str, ...], ctx: ProjectContext) -> str:
    roles = "\n".join(f"  {role}: {path}" for role, path in ctx.roles().items())
    recent = "\n".join(window) if window else "  (none)"
    return (f"Objective: {task}\n\nWorkflow state: {state_summary}\n"
            f"Available tools: {', '.join(tools)}\n"
            f"Critical paths:\n{roles}\n"
            f"Recent steps:\n{recent}\n\n"
            'Reply with JSON {"thought": ..., "action": ..., "args": {...}}.\n')


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# --- backend base -----------------------------------------------------------

class PlannerBase:
    """Shared call-recording wrapper around a backend's `_reply`."""

    name = "planner"

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        self.calls: list[PlannerCall] = []

    def plan(self, request: PlanRequest) -> PlannerReply:
        reply, attempts = self._reply(request)
        purpose = request.kind if request.stage is None else f"{request.kind}:{request.stage}"
        self.calls.append(PlannerCall(
            purpose=purpose, prompt_digest=prompt_digest(request.prompt),
            prompt_tokens=reply.prompt_tokens,
            completion_tokens=reply.completion_tokens, attempts=attempts,
            prompt=request.prompt if self.verbose else None))
        return reply

    def usage(self) -> TokenUsage:
        return account_tokens(self.calls)

    def _reply(self, request: PlanRequest) -> tuple[PlannerReply, int]:
        raise NotImplementedError


# --- scripted backend -------------------------------------------------------

@dataclass(frozen=True)
class PipelineRecipe:
    """Known-good payload parameters the scripted planner emits.

    Defaults are sized for drills, not for accuracy: a few small members
    and short training. Callers with real budgets override fields.
    """

    input_dim: int = 5
    member_count: int = 3
    hidden_layers: int = 2
    hidden_units: int = 16
    dropout_rate: float = 0.0
    activations: tuple[str, ...] = ("relu", "gelu", "softplus")
    fractions: tuple[float, float, float] = (0.72, 0.18, 0.10)
    split_seed: int = 1
    learning_rate: float = 3e-3
    weight_decay: float = 1e-5
    batch_size: int = 64
    epochs: int = 50
    patience: int = 10
    base_seed: int = 100
    level: float = TWO_SIGMA_LEVEL
    metrics: tuple[str, ...] = POINT_METRICS
    slices: tuple[dict, ...] = ()

    def members(self) -> list[dict]:
        return [{"hidden_layers": self.hidden_layers,
                 "hidden_units": self.hidden_units,
                 "activation": self.activations[i % len(self.activations)],
                 "dropout_rate": self.dropout_rate}
                for i in range(self.member_count)]

    def payload_for(self, kind: str) -> dict:
        split = {"fractions": list(self.fractions), "seed": self.split_seed}
        if kind == "model":
            return {"input_dim": self.input_dim, "members": self.members(),
                    "output_role": "model_spec"}
        if kind == "train":
            return {"data_role": "dataset_file", "model_role": "model_spec",
                    "output_role": "ensemble_dir", "split": split,
                    "optimizer": {"learning_rate": self.learning_rate,
                                  "weight_decay": self.weight_decay,
                                  "batch_size": self.batch_size,
                                  "epochs": self.epochs,
                                  "patience": self.patience,
                                  "base_seed": self.base_seed}}
        if kind == "evaluate":
            payload = {"data_role": "dataset_file", "ensemble_role": "ensemble_dir",
                       "output_role": "report_dir", "split": split,
                       "level": self.level, "metrics": list(self.metrics)}
            if self.slices:
                payload["slices"] = [dict(s) for s in self.slices]
            return payload
        raise ValueError(f"unknown task kind {kind!r}")


class ScriptedPlanner(PlannerBase):
    """Deterministic rule table. Task and patch requests are lookups;
    directives follow the stage order, reacting to the last observation
    (failed execution -> patch, patched -> re-execute, generated -> execute,
    anything else -> generate the first stage not done)."""

    name = "scripted"

    def __init__(self, recipe: PipelineRecipe | None = None, verbose: bool = False):
        super().__init__(verbose)
        self.recipe = recipe or PipelineRecipe()

    def _reply(self, request: PlanRequest) -> tuple[PlannerReply, int]:
        if request.kind == "task":
            payload = self.recipe.payload_for(STAGE_TASKS[request.stage].kind)
        elif request.kind == "patch":
            payload = self._patch(request)
        else:
            payload = self._directive(request)
        reply = PlannerReply(payload=payload,
                             prompt_tokens=SCRIPTED_PROMPT_TOKENS,
                             completion_tokens=SCRIPTED_COMPLETION_TOKENS)
        return reply, 1

    def _patch(self, request: PlanRequest) -> dict:
        if request.doc is None or request.error_log is None:
            raise ValueError("patch requests need the failed document and log")
        # every failed document, an injected fault's among them, is retried
        # unchanged
        return dict(request.doc.payload)

    def _directive(self, request: PlanRequest) -> dict:
        last = request.last_observation or ""
        statuses = request.statuses or {}
        # only a failed execution leaves a document to patch; after any
        # other error (a refused generate among them) the first stage not
        # done is generated again, below
        if last.startswith("error: execute_task"):
            return {"thought": "the last execution failed; patch the task from "
                               "the error log", "action": "patch_task", "args": {}}
        if last.startswith("ok: patch_task"):
            return {"thought": "patched document ready; re-execute it",
                    "action": "execute_task", "args": {}}
        if last.startswith("ok: generate_"):
            return {"thought": "a task document is ready; execute it",
                    "action": "execute_task", "args": {}}
        for stage, stage_task in STAGE_TASKS.items():
            if statuses.get(stage) != "done":
                return {"thought": f"{stage} is not done; generate its task",
                        "action": stage_task.tool, "args": {}}
        return {"thought": "all stages complete; finish",
                "action": "finish_task", "args": {}}


# --- HTTP chat-completions backend ------------------------------------------

_TRANSIENT_STATUS = (429, 500, 502, 503, 504)

_SYSTEM_PROMPTS = {
    "task": ("You are the task-generation agent of a CHF regression pipeline. "
             "Respond with a single JSON object: the payload for the requested "
             "task kind. No prose."),
    "patch": ("You are the tuning agent. Given a failed task document and its "
              "error log, respond with the corrected payload as a single JSON "
              "object. No prose."),
    "directive": ("You are the supervisor of a CHF regression pipeline. Respond "
                  "with a single JSON object {\"thought\", \"action\", \"args\"} "
                  "choosing one available tool. No prose."),
}


def _default_transport(url: str, body: dict, headers: dict,
                       timeout: float) -> tuple[int, dict]:
    import requests  # only the LLM backend needs it; keeps CLI start-up light

    resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    try:
        doc = resp.json()
    except ValueError:
        doc = {}
    return resp.status_code, doc


class HttpPlanner(PlannerBase):
    """Chat-completions client. Credentials come only from the
    environment; transient failures retry with exponential backoff."""

    name = "llm"

    def __init__(self, endpoint: str, model: str,
                 api_key_env: str = "AUTODUCT_API_KEY", max_retries: int = 3,
                 backoff_s: float = 0.25, timeout_s: float = 60.0,
                 transport=None, sleep=time.sleep, verbose: bool = False):
        super().__init__(verbose)
        if max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.transport = transport or _default_transport
        self.sleep = sleep

    def _reply(self, request: PlanRequest) -> tuple[PlannerReply, int]:
        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise AuthFailure(f"no credentials: set {self.api_key_env}")
        body = {"model": self.model,
                "messages": [{"role": "system",
                              "content": _SYSTEM_PROMPTS[request.kind]},
                             {"role": "user", "content": request.prompt}],
                "temperature": 0}
        headers = {"Authorization": f"Bearer {api_key}",
                   "Content-Type": "application/json"}
        url = self.endpoint + "/chat/completions"
        import requests  # transports signal network failures with its exceptions

        last_error = "no attempt made"
        for attempt in range(1, self.max_retries + 1):
            try:
                status, doc = self.transport(url, body, headers, self.timeout_s)
            except requests.RequestException as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt < self.max_retries:
                    self.sleep(self.backoff_s * 2 ** (attempt - 1))
                continue
            if status in (401, 403):
                raise AuthFailure(f"endpoint rejected credentials (HTTP {status})")
            if status in _TRANSIENT_STATUS:
                last_error = f"HTTP {status}"
                if attempt < self.max_retries:
                    self.sleep(self.backoff_s * 2 ** (attempt - 1))
                continue
            if status != 200:
                raise PlannerUnavailable(f"endpoint returned HTTP {status}")
            return self._parse(doc), attempt
        raise PlannerUnavailable(
            f"planner unreachable after {self.max_retries} attempts ({last_error})")

    @staticmethod
    def _parse(doc: dict) -> PlannerReply:
        """The reply's JSON-object payload and its token counts (a missing
        count is 0); any other shape raises SchemaInvalid."""
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise SchemaInvalid(f"planner response missing choices/message: {exc}") from exc
        if not isinstance(content, str):
            raise SchemaInvalid(f"planner reply content must be a string, "
                                f"got {type(content).__name__}")
        try:
            payload = json.loads(content)
        except json.JSONDecodeError as exc:
            raise SchemaInvalid(f"planner reply is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SchemaInvalid("planner reply must be a JSON object")
        usage = {} if doc.get("usage") is None else doc["usage"]
        if not isinstance(usage, dict):
            raise SchemaInvalid(f"planner usage must be an object, got {usage!r}")
        counts = []
        for key in ("prompt_tokens", "completion_tokens"):
            count = usage.get(key, 0)
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise SchemaInvalid(f"planner usage.{key} must be a non-negative "
                                    f"integer, got {count!r}")
            counts.append(count)
        return PlannerReply(payload, *counts)
