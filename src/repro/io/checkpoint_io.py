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
      "schema_version": 2,
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
#: v2 dropped three ``RouterConfig`` fields that every v1 document embeds.
CHECKPOINT_SCHEMA_VERSION = 2

#: Barriers in the order a full run reaches them.  ``phase1.round`` and
#: ``phase2.round`` recur (one checkpoint per negotiation/timing round).
KNOWN_BARRIERS = (
    "phase1.ordering",
    "phase1.round",
    "phase1.done",
    "phase2.lr",
    "phase2.legalized",
    "phase2.assigned",
    "phase2.round",
    "final",
)


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
