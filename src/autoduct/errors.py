"""Exception types shared across the package.

Every error raised by autoduct derives from AutoductError so callers can
catch the whole family at an API boundary. A class marked `terminal` is
one that no retry of the same task document can change (a file in an
unsupported format, a corrupt artifact, a missing column): the agent
loops stop on it at once instead of patching and retrying.
"""


class AutoductError(Exception):
    terminal = False


# --- data ingestion / preparation ---

class MissingColumn(AutoductError):
    terminal = True

    def __init__(self, path, column: str):
        super().__init__(f"{path}: missing required column {column!r}")
        self.path = path
        self.column = column


class NonFiniteValue(AutoductError):
    def __init__(self, path, row: int, column: str):
        super().__init__(f"{path}: non-finite value at data row {row}, column {column!r}")
        self.path = path
        self.row = row
        self.column = column


class EmptyFile(AutoductError):
    pass


class MalformedCsv(AutoductError):
    """The csv module could not parse a line (e.g. a field over its size
    limit)."""


class FractionSumInvalid(AutoductError):
    pass


class DegenerateFeature(AutoductError):
    def __init__(self, feature: str):
        super().__init__(f"feature {feature!r} is constant on the training split")
        self.feature = feature


# --- network / training ---

class DimensionMismatch(AutoductError):
    pass


class LengthMismatch(AutoductError):
    pass


class DivergedLoss(AutoductError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}")
        self.epoch = epoch


# --- ensemble ---

class EmptyEnsemble(AutoductError):
    pass


class VersionMismatch(AutoductError):
    terminal = True


class CorruptArtifact(AutoductError):
    terminal = True


# --- hyperparameter search ---

class DimensionOverflow(AutoductError):
    pass


class OutOfDomain(AutoductError):
    pass


class SingularCovariance(AutoductError):
    pass


class InsufficientTrials(AutoductError):
    pass


# --- agents ---

class UnboundRole(AutoductError):
    def __init__(self, role: str):
        super().__init__(f"artifact role {role!r} is not bound")
        self.role = role


class SchemaInvalid(AutoductError):
    pass


class PlannerUnavailable(AutoductError):
    pass


class AuthFailure(AutoductError):
    pass


class UnknownTool(AutoductError):
    def __init__(self, name: str):
        super().__init__(f"directive names unregistered tool {name!r}")
        self.name = name


class StageExhausted(AutoductError):
    """A stage failed on every attempt; the message ends with the first
    line of the last attempt's error."""

    def __init__(self, stage: str, error_count: int, last_error: str):
        super().__init__(f"stage {stage!r} failed {error_count} times, retry budget "
                         f"exhausted; last error: {last_error}")
        self.stage = stage
        self.error_count = error_count


class TerminalStageError(AutoductError):
    """A stage failed with a terminal error; the message ends with that
    error's first line."""

    def __init__(self, stage: str, error_count: int, error: str):
        super().__init__(f"stage {stage!r} stopped on a terminal error, not retried "
                         f"(error {error_count}): {error}")
        self.stage = stage
        self.error_count = error_count


class StepBudgetExhausted(AutoductError):
    def __init__(self, steps: int):
        super().__init__(f"loop did not finish within {steps} steps")
        self.steps = steps


class CorruptState(AutoductError):
    pass


# --- evaluation / reporting ---

class ZeroTarget(AutoductError):
    def __init__(self, index: int):
        super().__init__(f"target value is zero at index {index}; percentage metrics undefined")
        self.index = index


class EmptyInput(AutoductError):
    pass


class IoFailure(AutoductError):
    pass
