"""Declarative task documents: the pipeline's stand-in for generated
scripts.

A task document fully describes one stage (model / train / evaluate) as
JSON and is validated against its kind's schema before anything
executes. This keeps the generate -> execute -> tune loop intact while
making execution sandbox-friendly: the engine interprets documents, it
never runs planner-supplied code. A document names its artifacts by
role only; the roles are the fixed layout of the project context, and a
payload that carries anything else, a path among them, is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..atomic import write_json
from ..errors import SchemaInvalid
from ..evaluation import POINT_METRICS
from ..neural_net import ActivationKind

TASK_FORMAT_VERSION = 1

_ACTIVATION_VALUES = [kind.value for kind in ActivationKind]

_SPLIT_SCHEMA = {
    "type": "object",
    "properties": {
        "fractions": {"type": "array", "items": {"type": "number", "minimum": 0},
                      "minItems": 3, "maxItems": 3},
        "seed": {"type": "integer"},
    },
    "required": ["fractions", "seed"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "input_dim": {"type": "integer", "minimum": 1},
        "members": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "hidden_layers": {"type": "integer", "minimum": 1},
                    "hidden_units": {"type": "integer", "minimum": 1},
                    "activation": {"enum": _ACTIVATION_VALUES},
                    "dropout_rate": {"type": "number", "minimum": 0.0, "maximum": 0.3},
                },
                "required": ["hidden_layers", "hidden_units", "activation",
                             "dropout_rate"],
                "additionalProperties": False,
            },
        },
        "output_role": {"type": "string"},
    },
    "required": ["input_dim", "members", "output_role"],
    "additionalProperties": False,
}

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "data_role": {"type": "string"},
        "model_role": {"type": "string"},
        "output_role": {"type": "string"},
        "split": _SPLIT_SCHEMA,
        "optimizer": {
            "type": "object",
            "properties": {
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "weight_decay": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "epochs": {"type": "integer", "minimum": 1},
                "patience": {"type": "integer", "minimum": 0},
                "base_seed": {"type": "integer"},
            },
            "required": ["learning_rate", "weight_decay", "batch_size", "epochs",
                         "patience", "base_seed"],
            "additionalProperties": False,
        },
    },
    "required": ["data_role", "model_role", "output_role", "split", "optimizer"],
    "additionalProperties": False,
}

_EVALUATE_SCHEMA = {
    "type": "object",
    "properties": {
        "data_role": {"type": "string"},
        "ensemble_role": {"type": "string"},
        "output_role": {"type": "string"},
        "split": _SPLIT_SCHEMA,
        "level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "metrics": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(POINT_METRICS)},
            "uniqueItems": True,
        },
        "slices": {"type": "array", "items": {"type": "object"}},
    },
    "required": ["data_role", "ensemble_role", "output_role", "split", "level",
                 "metrics"],
    "additionalProperties": False,
}

_SCHEMAS = {"model": _MODEL_SCHEMA, "train": _TRAIN_SCHEMA, "evaluate": _EVALUATE_SCHEMA}


@dataclass(frozen=True)
class TaskDocument:
    kind: str
    payload: dict
    provenance: dict

    def to_dict(self) -> dict:
        return {"version": TASK_FORMAT_VERSION, "kind": self.kind,
                "payload": self.payload, "provenance": self.provenance}

    def patched(self, payload: dict, extra_provenance: dict) -> "TaskDocument":
        provenance = dict(self.provenance)
        provenance["patch_count"] = int(provenance.get("patch_count", 0)) + 1
        provenance.update(extra_provenance)
        return replace(self, payload=payload, provenance=provenance)


def validate_document(doc: TaskDocument) -> TaskDocument:
    """Schema gate: raises SchemaInvalid for anything the engine should
    never see. Returns the document to allow call chaining.

    The schemas are constants, checked against the 2020-12 metaschema by
    the test suite rather than on every call; the reported error is the
    one `jsonschema.validate` would pick (`best_match`).
    """
    # deferred: most commands never validate a task document
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    schema = _SCHEMAS.get(doc.kind) if isinstance(doc.kind, str) else None
    if schema is None:
        raise SchemaInvalid(f"unknown task kind {doc.kind!r}")
    error = best_match(Draft202012Validator(schema).iter_errors(doc.payload))
    if error is not None:
        raise SchemaInvalid(f"{doc.kind} payload invalid: {error.message}") from error
    return doc


def save_document(doc: TaskDocument, path: str | Path) -> None:
    write_json(path, doc.to_dict())
