"""Single source of truth for artifact locations within one run.

Every pipeline artifact is addressed by a role name, never by a path.
The roles are a fixed layout under the workspace root, bound once when
the context is created; no task document can move or add one. `create`
is where each role path is resolved and checked to stay inside the
workspace, so the loops exchange only role names and every artifact the
executor reads or writes is confined.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import UnboundRole

_DEFAULT_LAYOUT = {
    "dataset_file": "data.csv",
    "model_spec": "model_spec.json",
    "ensemble_dir": "ensemble",
    "report_dir": "report",
    "state_file": "state.json",
}

STANDARD_ROLES = tuple(_DEFAULT_LAYOUT)


class ProjectContext:
    """Role -> path registry rooted at a workspace directory."""

    def __init__(self, workspace: str | Path, run_id: str):
        self.workspace = Path(workspace).resolve()
        if not self.workspace.is_dir():
            raise ValueError(f"workspace {self.workspace} is not a directory")
        self.run_id = run_id
        self._bindings: dict[str, Path] = {}

    @classmethod
    def create(cls, workspace: str | Path, run_id: str) -> "ProjectContext":
        """Context with the standard roles pre-bound to a fixed layout
        under the workspace."""
        ctx = cls(workspace, run_id)
        for role, rel in _DEFAULT_LAYOUT.items():
            ctx.bind(role, ctx.workspace / rel)
        return ctx

    def contains(self, path: str | Path) -> bool:
        resolved = Path(path).resolve()
        return resolved == self.workspace or self.workspace in resolved.parents

    def bind(self, role: str, path: str | Path) -> Path:
        if role in self._bindings:
            raise ValueError(f"role {role!r} is already bound to {self._bindings[role]}")
        resolved = Path(path).resolve()
        if not self.contains(resolved):
            raise ValueError(f"{resolved} is outside the workspace {self.workspace}")
        self._bindings[role] = resolved
        return resolved

    def path(self, role: str) -> Path:
        try:
            return self._bindings[role]
        except KeyError:
            raise UnboundRole(role) from None

    def roles(self) -> dict[str, str]:
        """Role -> path, sorted by role, each path relative to the workspace
        in POSIX form, so that what is built from it (the planner prompts
        and their digests) does not depend on where the workspace lives."""
        return {role: path.relative_to(self.workspace).as_posix()
                for role, path in sorted(self._bindings.items())}
