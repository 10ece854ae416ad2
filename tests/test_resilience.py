"""Checkpoint/resume: every barrier resumes bit-identical (ISSUE 5).

The resilience contract (docs/resilience.md) is that a run interrupted
at *any* barrier and resumed from its checkpoint finishes with exactly
the solution the uninterrupted run produces — same paths, same TDM
ratios bit-for-bit, same wire packing, same critical delay.  These tests
route the contest cases with checkpointing on, then resume from every
written checkpoint (``RouteRequest(resume_from=...)``) and compare
:func:`repro.resilience.solution_fingerprint` digests.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import DelayModel
from repro.api import (
    ArtifactCache,
    CheckpointManager,
    RouteRequest,
    execute_request,
    solution_fingerprint,
)
from repro.benchgen import load_case
from repro.io import (
    BARRIER_PAYLOAD_KEYS,
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    KNOWN_BARRIERS,
    CheckpointFormatError,
    read_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)

#: case02 converges in the first pass; case05 adds scale; case07 is the
#: congested one whose negotiation loop emits ``phase1.round`` barriers.
CASES = ["case02", "case05", "case07"]


@pytest.fixture(scope="module")
def cache():
    """Parses each case once for the module; no run uses warm artifacts."""
    return ArtifactCache()


def resume(checkpoint):
    """Continue a run from a checkpoint file or directory."""
    return execute_request(
        RouteRequest(resume_from=str(checkpoint), warm_cache=False)
    )


@pytest.fixture(scope="module", params=CASES)
def checkpointed_run(request, tmp_path_factory, cache):
    """One checkpointed routing run per case, shared across the module."""
    delay_model = DelayModel()
    directory = tmp_path_factory.mktemp(f"ckpts_{request.param}")
    result = execute_request(
        RouteRequest(
            contest_case=request.param,
            warm_cache=False,
            checkpoint_dir=str(directory),
        ),
        cache=cache,
    )
    return SimpleNamespace(
        name=request.param,
        delay_model=delay_model,
        directory=directory,
        checkpoints=sorted(directory.glob("ckpt_*.json")),
        result=result,
        fingerprint=solution_fingerprint(result.solution, delay_model),
    )


def _barrier_of(path):
    """The barrier in a checkpoint file name (``ckpt_0003_phase2-lr.json``)."""
    return path.stem.split("_", 2)[2]


def _unsequenced(path):
    """A checkpoint file's bytes up to its sequence number, the last key."""
    data = path.read_bytes()
    return data[: data.rindex(b', "sequence": ')]


class TestResumeBitEquality:
    def test_checkpointing_does_not_perturb_the_run(
        self, checkpointed_run, cache
    ):
        run = checkpointed_run
        plain = execute_request(
            RouteRequest(contest_case=run.name, warm_cache=False), cache=cache
        )
        assert solution_fingerprint(plain.solution, run.delay_model) == run.fingerprint

    def test_every_barrier_resumes_bit_identical(self, checkpointed_run):
        run = checkpointed_run
        assert run.checkpoints, "run wrote no checkpoints"
        for path in run.checkpoints:
            resumed = resume(path)
            assert (
                solution_fingerprint(resumed.solution, run.delay_model)
                == run.fingerprint
            ), f"{run.name}: resume from {path.name} diverged"
            assert resumed.conflict_count == run.result.conflict_count
            assert resumed.critical_delay == run.result.critical_delay

    def test_barrier_coverage(self, checkpointed_run):
        barriers = {
            read_checkpoint(p)["barrier"] for p in checkpointed_run.checkpoints
        }
        assert barriers >= {
            "phase1.ordering",
            "phase1.done",
            "phase2.lr",
            "phase2.legalized",
            "phase2.assigned",
            "final",
        }
        assert barriers <= set(KNOWN_BARRIERS)

    def test_congested_case_checkpoints_negotiation_rounds(self, checkpointed_run):
        if checkpointed_run.name != "case07":
            pytest.skip("only case07 negotiates for multiple rounds")
        barriers = [
            read_checkpoint(p)["barrier"] for p in checkpointed_run.checkpoints
        ]
        assert barriers.count("phase1.round") >= 2

    def test_resumed_run_writes_the_checkpoints_after_its_own(
        self, checkpointed_run, tmp_path
    ):
        """Resumed into a fresh directory, a run writes the checkpoints the
        uninterrupted run wrote after the one it resumed, byte for byte
        but for the sequence number; ``phase1.ordering`` restarts the run
        and ``final`` rewrites ``final``."""
        run = checkpointed_run
        for index, path in enumerate(run.checkpoints):
            barrier = read_checkpoint(path)["barrier"]
            if barrier == "phase1.ordering":
                expected = run.checkpoints
            elif barrier == "final":
                expected = [path]
            else:
                expected = run.checkpoints[index + 1 :]
            directory = tmp_path / f"resumed_{index}"
            execute_request(
                RouteRequest(
                    resume_from=str(path),
                    checkpoint_dir=str(directory),
                    warm_cache=False,
                )
            )
            written = sorted(directory.glob("ckpt_*.json"))
            where = f"{run.name}: resume from {path.name}"
            assert [_barrier_of(p) for p in written] == [
                _barrier_of(p) for p in expected
            ], where
            assert [_unsequenced(p) for p in written] == [
                _unsequenced(p) for p in expected
            ], where

    def test_resume_from_directory_uses_latest(self, checkpointed_run):
        run = checkpointed_run
        resumed = resume(run.directory)
        assert (
            solution_fingerprint(resumed.solution, run.delay_model) == run.fingerprint
        )


class TestCheckpointManager:
    def test_save_builds_the_payload_once(self, tmp_path):
        case = load_case("case02")
        manager = CheckpointManager(tmp_path, case.system, case.netlist, DelayModel())
        payload = {"order": [2, 0, 1], "weight_mode": "delay"}
        builds = []

        def build():
            builds.append(None)
            return payload

        path = manager.save("phase1.ordering", build)
        assert len(builds) == 1
        assert read_checkpoint(path)["payload"] == payload


class TestCheckpointSchema:
    def test_documents_are_schema_versioned(self, checkpointed_run):
        for path in checkpointed_run.checkpoints:
            doc = read_checkpoint(path)
            assert doc["kind"] == CHECKPOINT_KIND
            assert doc["schema_version"] == CHECKPOINT_SCHEMA_VERSION
            assert doc["barrier"] in KNOWN_BARRIERS
            assert validate_checkpoint(doc) == []

    def test_sequence_numbers_are_dense(self, checkpointed_run):
        sequences = [
            read_checkpoint(p)["sequence"] for p in checkpointed_run.checkpoints
        ]
        assert sequences == list(range(len(sequences)))

    def test_corrupted_checkpoint_is_rejected(self, checkpointed_run, tmp_path):
        doc = read_checkpoint(checkpointed_run.checkpoints[0])
        for corruption in (
            {"kind": "something.else"},
            {"schema_version": CHECKPOINT_SCHEMA_VERSION + 1},
            {"barrier": "phase9.warp"},
            {"sequence": "zero"},
        ):
            bad = {**doc, **corruption}
            assert validate_checkpoint(bad), f"accepted corruption {corruption}"
            path = tmp_path / "bad.json"
            write_checkpoint(path, doc)
            path.write_text(path.read_text().replace(CHECKPOINT_KIND, "nope.doc"))
            with pytest.raises(CheckpointFormatError):
                read_checkpoint(path)

    def test_payload_without_resume_state_is_rejected(self, checkpointed_run):
        """Every key a barrier's resume reads is required in its payload."""
        for path in checkpointed_run.checkpoints:
            doc = read_checkpoint(path)
            for key in BARRIER_PAYLOAD_KEYS[doc["barrier"]]:
                payload = {k: v for k, v in doc["payload"].items() if k != key}
                problems = validate_checkpoint({**doc, "payload": payload})
                assert problems == [f"{doc['barrier']} payload lacks {key}"]

    def test_resume_refuses_empty_directory(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            resume(tmp_path)
