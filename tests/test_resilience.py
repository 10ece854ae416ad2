"""Checkpoint/resume: every barrier resumes bit-identical (ISSUE 5).

The resilience contract (docs/resilience.md) is that a run interrupted
at *any* barrier and resumed from its checkpoint finishes with exactly
the solution the uninterrupted run produces — same paths, same TDM
ratios bit-for-bit, same wire packing, same critical delay.  These tests
route the contest cases with checkpointing on, then resume from every
written checkpoint and compare :func:`repro.resilience.solution_fingerprint`
digests.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import DelayModel, RouterConfig, SynergisticRouter
from repro.api import CheckpointManager, resume, solution_fingerprint
from repro.benchgen import load_case
from repro.io import (
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


@pytest.fixture(scope="module", params=CASES)
def checkpointed_run(request, tmp_path_factory):
    """One checkpointed routing run per case, shared across the module."""
    case = load_case(request.param)
    delay_model = DelayModel()
    config = RouterConfig()
    directory = tmp_path_factory.mktemp(f"ckpts_{request.param}")
    manager = CheckpointManager(
        directory, case.system, case.netlist, delay_model, config=config
    )
    result = SynergisticRouter(
        case.system, case.netlist, delay_model, config=config, checkpoint=manager
    ).route()
    return SimpleNamespace(
        name=request.param,
        case=case,
        delay_model=delay_model,
        config=config,
        manager=manager,
        result=result,
        fingerprint=solution_fingerprint(result.solution, delay_model),
    )


class TestResumeBitEquality:
    def test_checkpointing_does_not_perturb_the_run(self, checkpointed_run):
        run = checkpointed_run
        plain = SynergisticRouter(
            run.case.system, run.case.netlist, run.delay_model, config=run.config
        ).route()
        assert solution_fingerprint(plain.solution, run.delay_model) == run.fingerprint

    def test_every_barrier_resumes_bit_identical(self, checkpointed_run):
        run = checkpointed_run
        checkpoints = run.manager.checkpoints()
        assert checkpoints, "run wrote no checkpoints"
        for path in checkpoints:
            resumed = resume(path)
            assert (
                solution_fingerprint(resumed.solution, run.delay_model)
                == run.fingerprint
            ), f"{run.name}: resume from {path.name} diverged"
            assert resumed.conflict_count == run.result.conflict_count
            assert resumed.critical_delay == run.result.critical_delay

    def test_barrier_coverage(self, checkpointed_run):
        barriers = {
            read_checkpoint(p)["barrier"]
            for p in checkpointed_run.manager.checkpoints()
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
            read_checkpoint(p)["barrier"]
            for p in checkpointed_run.manager.checkpoints()
        ]
        assert barriers.count("phase1.round") >= 2

    def test_resume_from_directory_uses_latest(self, checkpointed_run):
        run = checkpointed_run
        resumed = resume(run.manager.directory)
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
        for path in checkpointed_run.manager.checkpoints():
            doc = read_checkpoint(path)
            assert doc["kind"] == CHECKPOINT_KIND
            assert doc["schema_version"] == CHECKPOINT_SCHEMA_VERSION
            assert doc["barrier"] in KNOWN_BARRIERS
            assert validate_checkpoint(doc) == []

    def test_sequence_numbers_are_dense(self, checkpointed_run):
        sequences = [
            read_checkpoint(p)["sequence"]
            for p in checkpointed_run.manager.checkpoints()
        ]
        assert sequences == list(range(len(sequences)))

    def test_corrupted_checkpoint_is_rejected(self, checkpointed_run, tmp_path):
        doc = read_checkpoint(checkpointed_run.manager.checkpoints()[0])
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

    def test_resume_refuses_empty_directory(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            resume(tmp_path)
