import json
import re

import pytest

from autoduct.agents.context import ProjectContext, _DEFAULT_LAYOUT
from autoduct.agents.state import (STAGE_ORDER, STAGE_TASKS, STATE_FORMAT_VERSION,
                                   WorkflowState, load_state, persist_state)
from autoduct.errors import CorruptState, UnboundRole, VersionMismatch


# --- role table ------------------------------------------------------------------

def test_context_resolves_the_standard_layout(tmp_path):
    ctx = ProjectContext(tmp_path, run_id="r1")
    assert ctx.roles() == {"dataset_file": "data.csv", "ensemble_dir": "ensemble",
                           "model_spec": "model_spec.json", "report_dir": "report",
                           "state_file": "state.json"}
    for role, rel in _DEFAULT_LAYOUT.items():
        assert ctx.path(role) == tmp_path.resolve() / rel


def test_context_requires_existing_directory(tmp_path):
    with pytest.raises(ValueError):
        ProjectContext(tmp_path / "missing", run_id="x")


def _assert_refused(ws, target):
    # the constructor resolves every role path once, links included
    message = f"{target.resolve()} is outside the workspace {ws.resolve()}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProjectContext(ws, run_id="r")


def _workspace_with_link(parent, name, role_file, target):
    ws = parent / name
    ws.mkdir()
    (ws / role_file).symlink_to(target)
    return ws


def test_bind_rejects_escaping_paths(tmp_path):
    # a file role, a directory role through a traversal, an absolute target
    for i, (role_file, target) in enumerate([
            ("data.csv", tmp_path / "outside.csv"),
            ("report", tmp_path / "ws_1" / ".." / "sneaky"),
            ("model_spec.json", tmp_path.resolve() / "abs" / "spec.json")]):
        ws = _workspace_with_link(tmp_path, f"ws_{i}", role_file, target)
        _assert_refused(ws, target)


def test_create_refuses_a_role_symlinked_out_of_the_workspace(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    ws = _workspace_with_link(tmp_path, "ws", "report", outside)
    _assert_refused(ws, outside)


def test_contains_resolves_traversals(tmp_path):
    # a link that stays inside the workspace is accepted, however it is spelled
    ws = _workspace_with_link(tmp_path, "ws", "report",
                              tmp_path / "ws" / "deep" / ".." / "nested")
    assert ProjectContext(ws, run_id="r").path("report_dir") == ws.resolve() / "nested"
    # a traversal out of the workspace is not
    ws = _workspace_with_link(tmp_path, "ws2", "data.csv",
                              tmp_path / "ws2" / ".." / "ws" / "data.csv")
    _assert_refused(ws, tmp_path / "ws" / "data.csv")
    # prefix collision: /a/ws-evil is not inside /a/ws
    ws = _workspace_with_link(tmp_path, "ws3", "report", tmp_path / "ws3-evil")
    _assert_refused(ws, tmp_path / "ws3-evil")


def test_unbound_role_error(tmp_path):
    # a role name outside the fixed layout, as a planner payload may carry
    ctx = ProjectContext(tmp_path, run_id="x")
    with pytest.raises(UnboundRole):
        ctx.path("topk")


def test_roles_snapshot_sorted(tmp_path):
    ctx = ProjectContext(tmp_path, run_id="r")
    names = list(ctx.roles())
    assert names == sorted(names)


# --- workflow state ---------------------------------------------------------------

def test_stage_order():
    assert STAGE_ORDER == ("model_generation", "training_execution",
                           "evaluation_execution", "report_synthesis")
    # every stage but the report runs one task document
    kinds = {stage: task.kind for stage, task in STAGE_TASKS.items()}
    assert kinds == {"model_generation": "model", "training_execution": "train",
                     "evaluation_execution": "evaluate"}


def test_fresh_state_all_pending():
    st = WorkflowState(run_id="r", mode="multi")
    assert all(st.status(s) == "pending" for s in STAGE_ORDER)
    assert st.total_errors() == 0


def test_stage_transitions_and_error_counts():
    st = WorkflowState(run_id="r", mode="multi")
    st.mark_in_progress("model_generation")
    assert st.status("model_generation") == "in_progress"
    st.record_error("model_generation")
    st.record_error("model_generation")
    assert st.error_count("model_generation") == 2
    st.mark_done("model_generation")
    assert st.is_done("model_generation")
    assert [s for s in STAGE_ORDER if not st.is_done(s)] == list(STAGE_ORDER[1:])
    assert st.status("training_execution") == "pending"
    assert st.total_errors() == 2


def test_done_stage_cannot_regress():
    st = WorkflowState(run_id="r", mode="multi")
    st.mark_done("model_generation")
    with pytest.raises(ValueError):
        st.mark_in_progress("model_generation")
    with pytest.raises(ValueError):
        st.mark_failed("model_generation")
    st.mark_done("model_generation")       # idempotent


def test_done_requires_priors_done():
    st = WorkflowState(run_id="r", mode="react")
    with pytest.raises(ValueError):
        st.mark_done("training_execution")
    st.mark_done("model_generation")
    st.mark_done("training_execution")


def test_unknown_stage_rejected():
    st = WorkflowState(run_id="r", mode="multi")
    with pytest.raises(KeyError):
        st.status("nonsense")
    with pytest.raises(KeyError):
        st.record_error("nonsense")


def test_persist_load_round_trip(tmp_path):
    st = WorkflowState(run_id="round", mode="react")
    st.mark_done("model_generation")
    st.mark_in_progress("training_execution")
    st.record_error("training_execution")
    path = tmp_path / "state.json"
    persist_state(st, path)
    back = load_state(path)
    assert back.run_id == "round"
    assert back.mode == "react"
    assert back.is_done("model_generation")
    assert back.status("training_execution") == "in_progress"
    assert back.error_count("training_execution") == 1


def test_persist_leaves_no_temp_files(tmp_path):
    st = WorkflowState(run_id="r", mode="multi")
    path = tmp_path / "state.json"
    persist_state(st, path)
    persist_state(st, path)       # overwrite is atomic, not additive
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "state.json"

    path.write_text("{broken")
    with pytest.raises(CorruptState):
        load_state(path)

    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(VersionMismatch):
        load_state(path)

    st = WorkflowState(run_id="r", mode="multi")
    persist_state(st, path)
    doc = json.loads(path.read_text())
    doc["stages"]["model_generation"]["status"] = "exploded"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptState):
        load_state(path)

    doc["stages"]["model_generation"]["status"] = "pending"
    doc["stages"]["model_generation"]["error_count"] = -1
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptState):
        load_state(path)


def test_load_rejects_done_after_pending(tmp_path):
    # a done stage with an unfinished predecessor cannot be a real run
    st = WorkflowState(run_id="r", mode="multi")
    path = tmp_path / "state.json"
    persist_state(st, path)
    doc = json.loads(path.read_text())
    doc["stages"]["training_execution"]["status"] = "done"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptState):
        load_state(path)


def test_state_format_version_pinned():
    assert STATE_FORMAT_VERSION == 1
