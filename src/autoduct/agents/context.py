"""Single source of truth for artifact locations within one run.

Every pipeline artifact is addressed by a role name, never by a path.
The roles are a fixed layout under the workspace root; no task document
can move or add one. The constructor resolves every role path once,
links included, and refuses a workspace where one resolves outside it,
so the loops exchange only role names and every artifact the executor
reads or writes is confined. The command line builds the context before
it stages the dataset, so a refused workspace gets no file written.
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


class ProjectContext:
    """Role -> path table of one run, rooted at a workspace directory."""

    def __init__(self, workspace: str | Path, run_id: str):
        self.workspace = Path(workspace).resolve()
        if not self.workspace.is_dir():
            raise ValueError(f"workspace {self.workspace} is not a directory")
        self.run_id = run_id
        self._paths: dict[str, Path] = {}
        for role, rel in _DEFAULT_LAYOUT.items():
            resolved = (self.workspace / rel).resolve()
            if not resolved.is_relative_to(self.workspace):
                raise ValueError(f"{resolved} is outside the workspace {self.workspace}")
            self._paths[role] = resolved

    def path(self, role: str) -> Path:
        """The role's path. Roles arrive in planner payloads, which are
        outside input, so a name outside the layout raises UnboundRole."""
        try:
            return self._paths[role]
        except KeyError:
            raise UnboundRole(role) from None

    def roles(self) -> dict[str, str]:
        """Role -> path, sorted by role, each path relative to the workspace
        in POSIX form, so that what is built from it (the planner prompts
        and their digests) does not depend on where the workspace lives."""
        return {role: path.relative_to(self.workspace).as_posix()
                for role, path in sorted(self._paths.items())}
