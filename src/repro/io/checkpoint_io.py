"""Schema-versioned checkpoint files (docs/resilience.md).

A checkpoint is one JSON document capturing everything needed to resume a
router run from a barrier, with no reference back to the producing
process: the case (system + netlist + delay model, via
:func:`repro.io.json_format.case_to_dict`), the full
:class:`~repro.core.config.RouterConfig`, the RNG state (``None`` for the
deterministic router; benchmark generators record their seed state here),
and a barrier-specific payload.  Floats round-trip bit-exactly through
JSON (``repr``-based encoding), which is what makes resumed runs
fingerprint-identical to uninterrupted ones.

Schema::

    {
      "kind": "repro.checkpoint",
      "schema_version": 5,
      "barrier": "<one of KNOWN_BARRIERS>",
      "sequence": <int, write order within a run>,
      "case": {...},          # case_to_dict
      "config": {...},        # RouterConfig.to_dict
      "rng_state": null | [...],
      "payload": {...},       # barrier-specific, see docs/resilience.md
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

CHECKPOINT_KIND = "repro.checkpoint"
#: v2, v3, v4 and v5 each dropped ``RouterConfig`` fields (three, four,
#: four more, then the incremental-rebuild gate) that every document of
#: the version before embeds.
CHECKPOINT_SCHEMA_VERSION = 5

#: Barrier -> the payload keys resuming from it reads, with the barriers
#: in the order a full run reaches them.  ``phase1.round`` and
#: ``phase2.round`` recur (one checkpoint per negotiation/timing round);
#: resume recomputes the ``phase1.ordering`` payload instead of reading it.
BARRIER_PAYLOAD_KEYS = {
    "phase1.ordering": (),
    "phase1.round": ("history", "paths", "round", "stats"),
    "phase1.done": ("paths", "stats"),
    "phase2.lr": ("lr_history", "paths", "ratios"),
    "phase2.legalized": ("legal_ratios", "lr_history", "paths", "wire_budgets"),
    "phase2.assigned": ("solution",),
    "phase2.round": ("solution",),
    "final": ("solution",),
}

KNOWN_BARRIERS = tuple(BARRIER_PAYLOAD_KEYS)

#: JSON type of each key in :data:`BARRIER_PAYLOAD_KEYS`, checked by
#: :func:`validate_checkpoint` so a wrong-typed value fails as a format
#: error instead of deep inside resume.
_PAYLOAD_KEY_TYPES = {
    "history": "array",
    "legal_ratios": "array",
    "lr_history": "object",
    "paths": "array",
    "ratios": "array",
    "round": "int",
    "solution": "object",
    "stats": "object",
    "wire_budgets": "array",
}

_JSON_TYPES = {"array": list, "int": int, "object": dict}


class CheckpointFormatError(ValueError):
    """Raised on malformed or wrong-version checkpoint documents."""


def validate_checkpoint(doc: Any) -> List[str]:
    """Return every schema problem in a checkpoint document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["checkpoint must be a JSON object"]
    if doc.get("kind") != CHECKPOINT_KIND:
        problems.append(f"kind must be {CHECKPOINT_KIND!r}, got {doc.get('kind')!r}")
    version = doc.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {CHECKPOINT_SCHEMA_VERSION}, got {version!r}"
        )
    barrier = doc.get("barrier")
    if barrier not in KNOWN_BARRIERS:
        problems.append(f"unknown barrier {barrier!r}")
    if not isinstance(doc.get("sequence"), int):
        problems.append("sequence must be an int")
    for key in ("case", "config", "payload"):
        if not isinstance(doc.get(key), dict):
            problems.append(f"{key} must be an object")
    payload = doc.get("payload")
    if barrier in BARRIER_PAYLOAD_KEYS and isinstance(payload, dict):
        missing = [k for k in BARRIER_PAYLOAD_KEYS[barrier] if k not in payload]
        if missing:
            problems.append(f"{barrier} payload lacks {', '.join(missing)}")
        for key in BARRIER_PAYLOAD_KEYS[barrier]:
            kind = _PAYLOAD_KEY_TYPES[key]
            if key in payload and not isinstance(payload[key], _JSON_TYPES[kind]):
                problems.append(f"{barrier} payload {key} must be an {kind}")
    if "rng_state" not in doc:
        problems.append("rng_state is required (null for deterministic runs)")
    return problems


def assert_valid_checkpoint(doc: Any) -> None:
    """Raise :class:`CheckpointFormatError` when ``doc`` is not valid."""
    problems = validate_checkpoint(doc)
    if problems:
        raise CheckpointFormatError("; ".join(problems))


def write_checkpoint(path: Union[str, Path], doc: Dict[str, Any]) -> None:
    """Validate and write one checkpoint document as JSON."""
    assert_valid_checkpoint(doc)
    # Compact on purpose: ``indent`` switches ``json`` to its pure-Python
    # encoder, several times slower on these documents.
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def resolve_checkpoint_path(checkpoint: Union[str, Path]) -> Path:
    """A checkpoint file, or the latest checkpoint inside a directory.

    Raises:
        CheckpointFormatError: when the directory holds no checkpoints.
    """
    path = Path(checkpoint)
    if path.is_dir():
        candidates = sorted(path.glob("ckpt_*.json"))
        if not candidates:
            raise CheckpointFormatError(f"no checkpoints in {path}")
        return candidates[-1]
    return path


def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate one checkpoint document.

    Raises:
        CheckpointFormatError: when the file is not a valid checkpoint.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"not JSON: {exc}") from exc
    assert_valid_checkpoint(doc)
    return doc
