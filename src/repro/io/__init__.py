"""Text formats for cases (system + netlist) and routing solutions.

The contest's exact file format is not public; this package defines a
simple line-oriented format (documented in :mod:`repro.io.contest_format`)
that captures the same information, plus a solution format that the
``repro evaluate`` command can re-check independently of the router that
produced it.
"""

from repro.io.contest_format import (
    parse_case,
    parse_case_file,
    write_case,
    write_case_file,
)
from repro.io.solution_io import (
    parse_solution,
    parse_solution_file,
    write_solution,
    write_solution_file,
)
from repro.io.checkpoint_io import (
    BARRIER_PAYLOAD_KEYS,
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    KNOWN_BARRIERS,
    CheckpointFormatError,
    assert_valid_checkpoint,
    read_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from repro.io.json_format import (
    case_from_dict,
    case_to_dict,
    read_case_json,
    read_solution_json,
    solution_from_dict,
    solution_to_dict,
    write_case_json,
    write_solution_json,
)

__all__ = [
    "BARRIER_PAYLOAD_KEYS",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "KNOWN_BARRIERS",
    "CheckpointFormatError",
    "assert_valid_checkpoint",
    "case_from_dict",
    "read_checkpoint",
    "validate_checkpoint",
    "write_checkpoint",
    "case_to_dict",
    "parse_case",
    "parse_case_file",
    "parse_solution",
    "parse_solution_file",
    "read_case_json",
    "read_solution_json",
    "solution_from_dict",
    "solution_to_dict",
    "write_case",
    "write_case_file",
    "write_case_json",
    "write_solution",
    "write_solution_file",
    "write_solution_json",
]
