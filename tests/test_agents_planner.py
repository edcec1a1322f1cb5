import json

import pytest
import requests

from autoduct.agents.context import ProjectContext
from autoduct.agents.executor import FAULT_MARKER
from autoduct.agents.planner import (SCRIPTED_COMPLETION_TOKENS,
                                     SCRIPTED_PROMPT_TOKENS, HttpPlanner,
                                     PipelineRecipe, PlanRequest, PlannerCall,
                                     ScriptedPlanner, build_directive_prompt,
                                     build_patch_prompt, build_task_prompt,
                                     prompt_digest)
from autoduct.agents.state import STAGE_TASKS
from autoduct.agents.tasks import TaskDocument, validate_document
from autoduct.errors import AuthFailure, PlannerUnavailable, SchemaInvalid

KEY_ENV = "AUTODUCT_API_KEY"


def _task_request(stage="model_generation", prompt="p"):
    return PlanRequest(kind="task", prompt=prompt, stage=stage)


def _patch_request(doc, log):
    return PlanRequest(kind="patch", prompt="p", doc=doc, error_log=log)


def _directive_request(state_summary, last_observation=None):
    # the "stage=status ..." summary the directive prompt shows, as the
    # stage -> status mapping the request carries
    statuses = dict(token.split("=") for token in state_summary.split())
    return PlanRequest(kind="directive", prompt="p", statuses=statuses,
                       last_observation=last_observation)


# --- token accounting ------------------------------------------------------------

def _planner_with_calls(calls):
    planner = ScriptedPlanner()
    planner.calls.extend(calls)
    return planner


def test_usage_worked_example():
    # seven scripted calls at 75 + 25 each
    planner = _planner_with_calls(PlannerCall("task", "d", SCRIPTED_PROMPT_TOKENS,
                                              SCRIPTED_COMPLETION_TOKENS)
                                  for _ in range(7))
    assert planner.usage() == {"calls": 7, "prompt": 525, "completion": 175,
                               "total": 700}


def test_usage_of_mixed_calls():
    planner = _planner_with_calls([PlannerCall("task", "d", 100, 20),
                                   PlannerCall("patch", "d", 40, 5)])
    assert planner.usage() == {"calls": 2, "prompt": 140, "completion": 25,
                               "total": 165}
    assert ScriptedPlanner().usage() == {"calls": 0, "prompt": 0, "completion": 0,
                                         "total": 0}


def test_plan_request_kind_gate():
    with pytest.raises(ValueError):
        PlanRequest(kind="oracle", prompt="p")


# --- prompt assembly ---------------------------------------------------------------

def test_task_prompt_mentions_objective_and_roles(agent_workspace):
    ctx = agent_workspace()
    prompt = build_task_prompt("model_generation", ctx, "CHF pipeline")
    assert "CHF pipeline" in prompt
    assert "  dataset_file: data.csv\n" in prompt
    assert str(ctx.workspace) not in prompt
    with pytest.raises(ValueError):
        build_task_prompt("report_synthesis", ctx, "t")


def test_task_prompt_digests_are_pinned(tmp_path):
    # the prompt text, and so every *_task.json prompt_digest, must not move
    # when the stage instructions move; pinned on the standard layout
    ctx = ProjectContext(tmp_path, run_id="run-t")
    digests = {stage: prompt_digest(build_task_prompt(stage, ctx, "t"))
               for stage in STAGE_TASKS}
    assert digests == {
        "model_generation":
            "eba5908c05b058f1072bf449a51923136de10c1e1c897714891b8221316e3875",
        "training_execution":
            "9d3c8956223609132b3e5f7bd0b69794182181d0f7c58c55169c2ccd158a0908",
        "evaluation_execution":
            "95def6bacb5591b60efaebe88ee6548de7e5481ddf70981a6a61e95b6a993849",
    }


def test_identical_context_gives_identical_digest(agent_workspace):
    ctx = agent_workspace("same")
    a = build_task_prompt("training_execution", ctx, "t")
    b = build_task_prompt("training_execution", ctx, "t")
    assert prompt_digest(a) == prompt_digest(b)
    # role paths are listed relative to the workspace, so the same layout
    # elsewhere gives the same digest
    elsewhere = agent_workspace("elsewhere")
    c = build_task_prompt("training_execution", elsewhere, "t")
    assert prompt_digest(a) == prompt_digest(c)


def test_patch_prompt_embeds_document_and_log():
    doc = TaskDocument(kind="model", payload={"input_dim": 5}, provenance={})
    prompt = build_patch_prompt(doc, "RuntimeError: boom")
    assert "RuntimeError: boom" in prompt
    assert '"input_dim": 5' in prompt


def test_directive_prompt_renders_window(agent_workspace):
    ctx = agent_workspace()
    prompt = build_directive_prompt("t", "model_generation=pending",
                                    ["thought: a | action: b | obs: c"],
                                    ("finish_task",), ctx)
    assert "model_generation=pending" in prompt
    assert "thought: a | action: b | obs: c" in prompt
    assert "finish_task" in prompt
    assert "  dataset_file: data.csv\n" in prompt
    assert str(ctx.workspace) not in prompt


# --- scripted rules -------------------------------------------------------------------

def test_scripted_task_payloads_validate():
    planner = ScriptedPlanner()
    for stage, kind in (("model_generation", "model"),
                        ("training_execution", "train"),
                        ("evaluation_execution", "evaluate")):
        reply = planner.plan(_task_request(stage))
        validate_document(TaskDocument(kind=kind, payload=reply.payload,
                                       provenance={}))
        assert reply.prompt_tokens == SCRIPTED_PROMPT_TOKENS
        assert reply.completion_tokens == SCRIPTED_COMPLETION_TOKENS
    assert len(planner.calls) == 3
    assert planner.calls[0].purpose == "task:model_generation"
    assert planner.usage()["total"] == 300


def test_scripted_patch_retries_injected_fault_unchanged():
    planner = ScriptedPlanner()
    doc = TaskDocument(kind="train",
                       payload={"paths": {"x": "y"}, "marker": 1},
                       provenance={})
    reply = planner.plan(_patch_request(doc, f"RuntimeError: {FAULT_MARKER} armed"))
    assert reply.payload == doc.payload
    assert reply.payload is not doc.payload


def test_scripted_patch_drops_bad_path_overrides():
    # the scripted tuner has no rule for a path log any more: it retries the
    # document as it was, and the bad override is dropped by the schema,
    # which refuses the retried document before the executor sees it
    planner = ScriptedPlanner()
    train = planner.plan(_task_request("training_execution")).payload
    doc = TaskDocument(kind="train", payload={**train, "paths": {"a": "../b"}},
                       provenance={})
    for log in ("ValueError: path for role 'a' escapes the workspace: /x",
                "ValueError: path for role 'report_dir' overrides its binding: "
                "/w/x is not /w/report",
                "UnboundRole: artifact role 'q' is not bound",
                "SchemaInvalid: train payload invalid: Additional properties are "
                "not allowed ('paths' was unexpected)"):
        reply = planner.plan(_patch_request(doc, log))
        assert reply.payload == doc.payload
        with pytest.raises(SchemaInvalid, match="'paths'"):
            validate_document(TaskDocument(kind="train", payload=reply.payload,
                                           provenance={}))
    validate_document(TaskDocument(kind="train", payload=train, provenance={}))


def test_scripted_patch_requires_inputs():
    planner = ScriptedPlanner()
    with pytest.raises(ValueError):
        planner.plan(PlanRequest(kind="patch", prompt="p"))


def test_scripted_directive_rules():
    planner = ScriptedPlanner()

    def directive(summary, last=None):
        return planner.plan(_directive_request(summary, last)).payload["action"]

    fresh = ("model_generation=pending training_execution=pending "
             "evaluation_execution=pending report_synthesis=pending")
    assert directive(fresh) == "generate_model"
    mid = ("model_generation=done training_execution=in_progress "
           "evaluation_execution=pending report_synthesis=pending")
    assert directive(mid) == "generate_training_task"
    late = ("model_generation=done training_execution=done "
            "evaluation_execution=pending report_synthesis=pending")
    assert directive(late) == "generate_evaluation_task"
    finished = ("model_generation=done training_execution=done "
                "evaluation_execution=done report_synthesis=done")
    assert directive(finished) == "finish_task"

    assert directive(mid, "ok: generate_training_task → task document ready") \
        == "execute_task"
    assert directive(mid, "error: execute_task → RuntimeError: boom") == "patch_task"
    # a refused generate leaves no document to patch: generate it again
    assert directive(mid, "error: generate_training_task → SchemaInvalid: bad") \
        == "generate_training_task"
    assert directive(mid, "ok: patch_task → patched") == "execute_task"


def test_recipe_members_cycle_activations():
    recipe = PipelineRecipe(member_count=5)
    kinds = [m["activation"] for m in recipe.members()]
    assert kinds == ["relu", "gelu", "softplus", "relu", "gelu"]
    with pytest.raises(ValueError):
        recipe.payload_for("deploy")


def test_recipe_slices_flow_into_evaluate_payload():
    recipe = PipelineRecipe(slices=({"slice_id": "a"},))
    payload = recipe.payload_for("evaluate")
    assert payload["slices"] == [{"slice_id": "a"}]
    assert "slices" not in PipelineRecipe().payload_for("evaluate")


def test_planner_retains_prompts():
    planner = ScriptedPlanner()
    planner.plan(_task_request(prompt="secret"))
    assert planner.calls[0].prompt == "secret"
    assert planner.calls[0].prompt_digest == prompt_digest("secret")


# --- HTTP backend -------------------------------------------------------------------------

def _ok_response(payload, prompt_tokens=110, completion_tokens=42):
    return (200, {"choices": [{"message": {"content": json.dumps(payload)}}],
                  "usage": {"prompt_tokens": prompt_tokens,
                            "completion_tokens": completion_tokens}})


class _FakeTransport:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, url, body, headers, timeout):
        self.requests.append((url, body, headers, timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _planner(transport):
    sleeps = []
    planner = HttpPlanner("https://api.example.test/v1/", "planner-model",
                          transport=transport, sleep=sleeps.append)
    return planner, sleeps


def test_http_refuses_to_run_without_credentials(monkeypatch):
    monkeypatch.delenv(KEY_ENV, raising=False)
    transport = _FakeTransport([_ok_response({"a": 1})])
    planner, _ = _planner(transport)
    with pytest.raises(AuthFailure, match=KEY_ENV):
        planner.plan(_task_request())
    assert transport.requests == []          # no network traffic at all


def test_http_happy_path_and_request_shape(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    transport = _FakeTransport([_ok_response({"input_dim": 5})])
    planner, sleeps = _planner(transport)
    reply = planner.plan(_task_request())
    assert reply.payload == {"input_dim": 5}
    assert reply.prompt_tokens == 110
    assert reply.completion_tokens == 42
    assert sleeps == []

    url, body, headers, timeout = transport.requests[0]
    assert url == "https://api.example.test/v1/chat/completions"
    assert timeout == 60.0
    assert headers["Authorization"] == "Bearer sk-test"
    assert body["model"] == "planner-model"
    assert body["temperature"] == 0
    assert body["messages"][0]["role"] == "system"
    assert body["messages"][1]["content"] == "p"
    assert planner.calls[0].attempts == 1
    assert planner.usage()["total"] == 152


def test_http_retries_transient_failures(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    transport = _FakeTransport([(503, {}), requests.ConnectionError("down"),
                                _ok_response({"x": 1})])
    planner, sleeps = _planner(transport)
    reply = planner.plan(_task_request())
    assert reply.payload == {"x": 1}
    assert sleeps == [0.25, 0.5]             # exponential backoff
    assert planner.calls[0].attempts == 3


def test_http_exhausts_retry_budget(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    transport = _FakeTransport([(503, {}), (429, {}), requests.ConnectionError("down")])
    planner, sleeps = _planner(transport)
    with pytest.raises(PlannerUnavailable, match="after 3 attempts"):
        planner.plan(_task_request())
    assert len(transport.requests) == 3
    assert sleeps == [0.25, 0.5]


def test_http_auth_rejection_never_retries(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    for status in (401, 403):
        transport = _FakeTransport([(status, {})])
        planner, sleeps = _planner(transport)
        with pytest.raises(AuthFailure):
            planner.plan(_task_request())
        assert len(transport.requests) == 1
        assert sleeps == []


def test_http_hard_status_is_unavailable(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    planner, _ = _planner(_FakeTransport([(404, {})]))
    with pytest.raises(PlannerUnavailable, match="404"):
        planner.plan(_task_request())


def test_http_rejects_malformed_replies(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    cases = [
        (200, {"choices": []}),
        (200, {"choices": [{"message": {"content": "not json"}}]}),
        (200, {"choices": [{"message": {"content": "[1, 2]"}}]}),
    ]
    for response in cases:
        planner, _ = _planner(_FakeTransport([response]))
        with pytest.raises(SchemaInvalid):
            planner.plan(_task_request())


def _reply(content='{"a": 1}', usage=None):
    doc = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        doc["usage"] = usage
    return (200, doc)


@pytest.mark.parametrize("response", [
    _reply(usage="n/a"),
    _reply(usage=[1]),
    _reply(usage={"prompt_tokens": "x"}),
    _reply(usage={"prompt_tokens": None}),
    _reply(usage={"prompt_tokens": -5}),
    _reply(usage={"completion_tokens": True}),
    _reply(usage={"completion_tokens": 2.0}),
    _reply(content=None),
    _reply(content={"a": 1}),
    _reply(content=["{}"]),
    _reply(content=7),
], ids=["usage_string", "usage_list", "tokens_string", "tokens_null", "tokens_negative",
        "tokens_bool", "tokens_float", "content_null", "content_object", "content_list",
        "content_number"])
def test_http_rejects_malformed_usage_and_content(monkeypatch, response):
    # every malformed reply field is a SchemaInvalid, never a bare Python
    # error that would escape the agent loops' error handling
    monkeypatch.setenv(KEY_ENV, "sk-test")
    planner, _ = _planner(_FakeTransport([response]))
    with pytest.raises(SchemaInvalid):
        planner.plan(_task_request())


def test_http_missing_usage_defaults_to_zero(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    response = (200, {"choices": [{"message": {"content": "{}"}}]})
    planner, _ = _planner(_FakeTransport([response]))
    reply = planner.plan(_task_request())
    assert (reply.prompt_tokens, reply.completion_tokens) == (0, 0)

    # a present count is taken as is, and a missing one still counts 0
    planner, _ = _planner(_FakeTransport([_reply(usage={"prompt_tokens": 0}),
                                          _reply(usage={"completion_tokens": 9})]))
    assert planner.plan(_task_request()).prompt_tokens == 0
    reply = planner.plan(_task_request())
    assert (reply.prompt_tokens, reply.completion_tokens) == (0, 9)

