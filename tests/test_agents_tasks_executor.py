import json

import jsonschema
import pytest

from autoduct.agents.executor import (FAULT_MARKER, ExecutionResult,
                                      FaultInjector, TaskExecutor,
                                      parse_fault_spec)
from autoduct.agents.tasks import (_SCHEMAS, TASK_FORMAT_VERSION, TaskDocument,
                                   save_document, validate_document)
from autoduct.errors import SchemaInvalid


def _model_payload(**over):
    payload = {
        "input_dim": 5,
        "members": [
            {"hidden_layers": 1, "hidden_units": 6, "activation": "relu",
             "dropout_rate": 0.0},
            {"hidden_layers": 1, "hidden_units": 6, "activation": "gelu",
             "dropout_rate": 0.0},
        ],
        "output_role": "model_spec",
    }
    payload.update(over)
    return payload


def _train_payload(**over):
    payload = {
        "data_role": "dataset_file",
        "model_role": "model_spec",
        "output_role": "ensemble_dir",
        "split": {"fractions": [0.72, 0.18, 0.10], "seed": 1},
        "optimizer": {"learning_rate": 3e-3, "weight_decay": 1e-5,
                      "batch_size": 128, "epochs": 2, "patience": 2,
                      "base_seed": 100},
    }
    payload.update(over)
    return payload


def _evaluate_payload(**over):
    payload = {
        "data_role": "dataset_file",
        "ensemble_role": "ensemble_dir",
        "output_role": "report_dir",
        "split": {"fractions": [0.72, 0.18, 0.10], "seed": 1},
        "level": 0.9,
        "metrics": ["rmse", "mape", "rmspe"],
    }
    payload.update(over)
    return payload


_PAYLOADS = {"model": _model_payload, "train": _train_payload,
             "evaluate": _evaluate_payload}


def _doc(kind, payload):
    return TaskDocument(kind=kind, payload=payload, provenance={})


# --- document schema gate -------------------------------------------------------

def test_validate_accepts_all_kinds():
    for kind, payload in (("model", _model_payload()),
                          ("train", _train_payload()),
                          ("evaluate", _evaluate_payload())):
        doc = _doc(kind, payload)
        assert validate_document(doc) is doc


def test_validate_rejects_unknown_kind():
    with pytest.raises(SchemaInvalid):
        validate_document(_doc("deploy", {}))


def test_validate_rejects_wrong_version():
    doc = TaskDocument(kind="model", payload=_model_payload(), provenance={},
                       version=TASK_FORMAT_VERSION + 1)
    with pytest.raises(SchemaInvalid):
        validate_document(doc)


def test_validate_rejects_bad_payloads():
    bad = [
        ("model", _model_payload(members=[])),
        ("model", _model_payload(members=[{"hidden_layers": 1, "hidden_units": 6,
                                           "activation": "swish",
                                           "dropout_rate": 0.0}])),
        ("model", _model_payload(members=[{"hidden_layers": 1, "hidden_units": 6,
                                           "activation": "relu",
                                           "dropout_rate": 0.4}])),
        ("model", {**_model_payload(), "surprise": 1}),
        ("train", {k: v for k, v in _train_payload().items() if k != "optimizer"}),
        ("train", _train_payload(split={"fractions": [0.7, 0.3], "seed": 1})),
        ("evaluate", _evaluate_payload(level=1.5)),
        ("evaluate", _evaluate_payload(metrics=[])),
        ("evaluate", _evaluate_payload(metrics=["rmse", "rmse"])),
        ("evaluate", _evaluate_payload(metrics=["accuracy"])),
    ]
    for kind, payload in bad:
        with pytest.raises(SchemaInvalid):
            validate_document(_doc(kind, payload))


@pytest.mark.parametrize("kind", [["model"], {"a": 1}])
def test_validate_rejects_non_string_kind(kind):
    doc = TaskDocument(kind=kind, payload={}, provenance={})
    with pytest.raises(SchemaInvalid, match="unknown task kind"):
        validate_document(doc)


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_schemas_are_valid_2020_12_schemas(kind):
    # validate_document trusts its constant schemas; this is where they
    # are checked against the metaschema
    schema = _SCHEMAS[kind]
    jsonschema.Draft202012Validator.check_schema(schema)
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator


def _full_payloads():
    """A valid payload per kind, with every optional key present."""
    return {"model": _model_payload(),
            "train": _train_payload(),
            "evaluate": _evaluate_payload(slices=[{"varying": "G"}])}


def _mutants(payload):
    """Bad (and some still-valid) variants of a good payload: each key
    dropped or set to None, nested ones too, an extra key, and a list or
    string in place of the payload."""
    yield [payload], "list"
    yield json.dumps(payload), "string"
    yield {**payload, "surprise": 1}, "extra key"
    for key, value in payload.items():
        yield {k: v for k, v in payload.items() if k != key}, f"drop {key}"
        yield {**payload, key: None}, f"{key}=None"
        if isinstance(value, dict):
            for sub in value:
                nested = {k: v for k, v in value.items() if k != sub}
                yield {**payload, key: nested}, f"drop {key}.{sub}"
                yield {**payload, key: {**value, sub: None}}, f"{key}.{sub}=None"
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for sub in value[0]:
                first = {k: v for k, v in value[0].items() if k != sub}
                yield {**payload, key: [first, *value[1:]]}, f"drop {key}[0].{sub}"
                yield ({**payload, key: [{**value[0], sub: None}, *value[1:]]},
                       f"{key}[0].{sub}=None")


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_schema_errors_match_jsonschema_validate(kind):
    # jsonschema.validate (metaschema check included) is the reference
    # for which error is reported and how it reads
    checked = 0
    for payload, label in _mutants(_full_payloads()[kind]):
        doc = _doc(kind, payload)
        try:
            jsonschema.validate(payload, _SCHEMAS[kind])
        except jsonschema.ValidationError as ref:
            with pytest.raises(SchemaInvalid) as err:
                validate_document(doc)
            assert str(err.value) == f"{kind} payload invalid: {ref.message}", label
            checked += 1
        else:
            assert validate_document(doc) is doc, label
    assert checked >= 10



def test_a_failed_save_leaves_the_previous_task_document(tmp_path, monkeypatch):
    path = tmp_path / "task.json"
    first = _doc("model", _model_payload())
    save_document(first, path)
    before = path.read_bytes()
    assert before == (json.dumps(first.to_dict(), indent=2, sort_keys=True) + "\n").encode()

    def cut_short(doc, fh, **kwargs):
        fh.write('{\n  "format_version": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", cut_short)
    with pytest.raises(OSError, match="no space left"):
        save_document(first.patched(_model_payload(), {"patch": "retry"}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["task.json"]

def test_patched_increments_count_and_merges_provenance():
    doc = TaskDocument(kind="model", payload=_model_payload(),
                       provenance={"planner": "scripted"})
    once = doc.patched(_model_payload(input_dim=5), {"patched_by": "scripted"})
    assert once.provenance["patch_count"] == 1
    assert once.provenance["planner"] == "scripted"
    assert once.provenance["patched_by"] == "scripted"
    twice = once.patched(once.payload, {})
    assert twice.provenance["patch_count"] == 2
    assert doc.provenance == {"planner": "scripted"}      # original untouched


# --- fault plans ------------------------------------------------------------------

def test_parse_fault_spec_forms():
    # a stage is named by its STAGE_TASKS key or its task kind: six names
    for stage, kind in (("model_generation", "model"), ("training_execution", "train"),
                        ("evaluation_execution", "evaluate")):
        for name in (stage, kind):
            assert parse_fault_spec(f"stage={name},attempt=1") == {kind: frozenset({1})}
    assert parse_fault_spec("stage=train,attempts=2-4") == {"train": frozenset({2, 3, 4})}
    two = parse_fault_spec("stage=model,attempt=1; stage=evaluate,attempts=1-2")
    assert two == {"model": frozenset({1}), "evaluate": frozenset({1, 2})}
    assert parse_fault_spec("") == {}


def test_parse_fault_spec_rejects_malformed():
    for name in ("nowhere", "training", "evaluation", "report_synthesis"):
        with pytest.raises(ValueError, match=f"unknown stage '{name}' in fault spec"):
            parse_fault_spec(f"stage={name},attempt=1")
    for bad in ("phase=train,attempt=1",
                "stage=train", "attempt=1", "stage=train,attempt=0",
                "stage=train,attempt="):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


def test_fault_injector_counts_attempts():
    injector = FaultInjector.from_spec("stage=train,attempt=2")
    assert injector.calls("train") == 0
    assert injector.should_fail("train") is False       # attempt 1
    assert injector.should_fail("train") is True        # attempt 2
    assert injector.should_fail("train") is False       # attempt 3
    assert injector.calls("train") == 3
    assert injector.should_fail("evaluate") is False    # untargeted kind
    log = injector.synthetic_log("train")
    assert FAULT_MARKER in log
    assert "attempt 3" in log


# --- execution results ---------------------------------------------------------------

def test_execution_result_invariants():
    ok = ExecutionResult(status="ok", action="model", log="fine")
    assert ok.ok and ok.first_line() == "fine"
    with pytest.raises(ValueError):
        ExecutionResult(status="meh", action="model", log="x")
    with pytest.raises(ValueError):
        ExecutionResult(status="error", action="model", log="  ")
    multi = ExecutionResult(status="error", action="train", log="first\nsecond")
    assert multi.first_line() == "first"


# --- executor dispatch ------------------------------------------------------------------

def test_model_task_writes_spec(agent_workspace):
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    result = executor.execute(_doc("model", _model_payload()))
    assert result.ok, result.log
    assert result.action == "model"
    assert not result.injected_fault
    spec = json.loads(ctx.path("model_spec").read_text())
    assert spec["version"] == 1
    assert spec["input_dim"] == 5
    assert len(spec["members"]) == 2
    assert executor.history == [result]


def test_full_pipeline_and_metrics_filter(agent_workspace):
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    assert executor.execute(_doc("model", _model_payload())).ok
    assert executor.execute(_doc("train", _train_payload())).ok
    result = executor.execute(_doc("evaluate", _evaluate_payload(metrics=["rmse"])))
    assert result.ok, result.log

    report_dir = ctx.path("report_dir")
    metrics = json.loads((report_dir / "metrics.json").read_text())
    assert metrics["level"] == 0.9
    assert "rmse_kw_m2" in metrics["metrics"]
    assert "mape_pct" not in metrics["metrics"]          # not requested
    assert metrics["metrics"]["n"] == 40                 # 10% of 400 rows
    assert (report_dir / "metrics.csv").is_file()
    assert (report_dir / "predictions.csv").is_file()
    assert (report_dir / "parity.svg").is_file()


def test_evaluate_with_slices(agent_workspace):
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    executor.execute(_doc("model", _model_payload()))
    executor.execute(_doc("train", _train_payload()))
    slice_spec = {"slice_id": "s1", "varying": "L", "lo": 0.1, "hi": 10.0,
                  "count": 5,
                  "constants": {"D": 0.008, "P": 10000.0, "G": 1000.0, "X": 0.2}}
    result = executor.execute(_doc("evaluate", _evaluate_payload(slices=[slice_spec])))
    assert result.ok, result.log
    report_dir = ctx.path("report_dir")
    assert (report_dir / "slice_s1.csv").is_file()
    assert (report_dir / "slice_s1.svg").is_file()


def test_evaluate_refuses_duplicate_slice_ids_before_scoring(agent_workspace):
    # the second slice's files would replace the first's; the document is
    # refused before the ensemble is scored or any report file is written
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    executor.execute(_doc("model", _model_payload()))
    executor.execute(_doc("train", _train_payload()))
    spec = {"slice_id": 1, "varying": "L", "lo": 0.1, "hi": 10.0, "count": 5,
            "constants": {"D": 0.008, "P": 10000.0, "G": 1000.0, "X": 0.2}}
    result = executor.execute(_doc("evaluate", _evaluate_payload(
        slices=[spec, {**spec, "slice_id": "1", "varying": "L"}])))
    assert not result.ok and not result.terminal
    assert result.log == "ValueError: duplicate slice id '1'"
    assert not ctx.path("report_dir").exists()


def test_terminal_error_classes_are_marked_in_the_result(agent_workspace):
    # a version the loader refuses cannot change on retry; the error result
    # says so, and an error a patch can mend does not
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    executor.execute(_doc("model", _model_payload()))
    executor.execute(_doc("train", _train_payload()))
    manifest = ctx.path("ensemble_dir") / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "format_version": 1}))
    result = executor.execute(_doc("evaluate", _evaluate_payload()))
    assert result.terminal and result.log.startswith("VersionMismatch: ")
    mendable = executor.execute(_doc("evaluate", _evaluate_payload(
        paths={"report_dir": "../outside"})))
    assert not mendable.ok and not mendable.terminal


def test_invalid_document_becomes_error_result(agent_workspace):
    executor = TaskExecutor(agent_workspace())
    result = executor.execute(_doc("model", _model_payload(members=[])))
    assert not result.ok
    assert result.log.startswith("SchemaInvalid:")


def test_engine_exception_becomes_error_result(agent_workspace):
    ctx = agent_workspace()
    executor = TaskExecutor(ctx)
    executor.execute(_doc("model", _model_payload()))
    # training from a dataset file that holds no table
    data = ctx.path("dataset_file")
    data.write_text("not a table\n", encoding="utf-8")
    result = executor.execute(_doc("train", _train_payload()))
    assert not result.ok
    assert result.log == f"MissingColumn: {data}: missing required column 'D'"
    assert executor.last_log() == result.log


def _assert_paths_refused(ctx, kind, paths):
    """A payload of `kind` that carries `paths` is schema-invalid like any
    other unknown key: validate_document names the key, and executing it
    is an error result that writes no file, in the workspace or beside it."""
    doc = _doc(kind, _PAYLOADS[kind](paths=paths))
    message = (f"{kind} payload invalid: Additional properties are not allowed "
               f"('paths' was unexpected)")
    with pytest.raises(SchemaInvalid) as err:
        validate_document(doc)
    assert str(err.value) == message
    before = sorted(ctx.workspace.parent.rglob("*"))
    result = TaskExecutor(ctx).execute(doc)
    assert not result.ok and not result.terminal
    assert result.log == f"SchemaInvalid: {message}"
    assert sorted(ctx.workspace.parent.rglob("*")) == before


def test_path_override_escape_is_refused(agent_workspace):
    ctx = agent_workspace()
    outside = ctx.workspace.parent / "stolen.json"
    for kind in _PAYLOADS:
        _assert_paths_refused(ctx, kind, {"model_spec": "../stolen.json"})
        _assert_paths_refused(ctx, kind, {"model_spec": str(outside)})
    assert not outside.exists()


@pytest.mark.parametrize("kind, payload", [
    ("evaluate", _evaluate_payload(paths={"report_dir": "elsewhere"})),
    # a role the task does not use
    ("model", _model_payload(paths={"ensemble_dir": "elsewhere"})),
])
def test_path_override_of_a_bound_role_is_refused(agent_workspace, kind, payload):
    # every role is bound where later stages read it, so no document may
    # move one, nor name the bound path itself
    ctx = agent_workspace()
    _assert_paths_refused(ctx, kind, payload["paths"])
    for each in _PAYLOADS:
        _assert_paths_refused(ctx, each, {"model_spec": "model_spec.json"})
    assert sorted(p.name for p in ctx.workspace.iterdir()) == ["data.csv"]


def test_path_override_inside_workspace_is_refused(agent_workspace):
    # a document cannot add a role: the layout is fixed when the context
    # is created, and a name outside it stays unbound
    ctx = agent_workspace()
    for kind in _PAYLOADS:
        _assert_paths_refused(ctx, kind, {"scratch_spec": "scratch/spec.json"})
    result = TaskExecutor(ctx).execute(_doc("model", _model_payload(output_role="scratch_spec")))
    assert result.log == "UnboundRole: artifact role 'scratch_spec' is not bound"
    assert sorted(p.name for p in ctx.workspace.iterdir()) == ["data.csv"]


def test_unbound_role_is_reported(agent_workspace):
    executor = TaskExecutor(agent_workspace())
    result = executor.execute(_doc("model", _model_payload(output_role="mystery")))
    assert not result.ok
    assert "UnboundRole" in result.log
    assert "mystery" in result.log


def test_injected_fault_result_and_retry(agent_workspace):
    ctx = agent_workspace()
    executor = TaskExecutor(ctx, injector=FaultInjector.from_spec(
        "stage=model,attempt=1"))
    first = executor.execute(_doc("model", _model_payload()))
    assert not first.ok
    assert first.injected_fault
    assert first.first_line().startswith("RuntimeError: injected fault")
    assert not ctx.path("model_spec").exists()           # engine never ran

    second = executor.execute(_doc("model", _model_payload()))
    assert second.ok
    assert not second.injected_fault
    assert ctx.path("model_spec").is_file()
    assert [r.status for r in executor.history] == ["error", "ok"]


def test_last_log_prefers_most_recent_error(agent_workspace):
    executor = TaskExecutor(agent_workspace())
    executor.execute(_doc("model", _model_payload()))
    assert "wrote model spec" in executor.last_log()     # no errors yet
    executor.execute(_doc("model", _model_payload(members=[])))
    assert executor.last_log().startswith("SchemaInvalid:")
