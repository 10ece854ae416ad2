"""Checkpoint writing and discovery (docs/resilience.md).

:class:`CheckpointManager` is the ``checkpoint`` hook the core routers
accept (duck-typed: anything with ``save(barrier, build_payload)`` works —
core never imports this package).  ``build_payload`` is a zero-argument
callable returning the barrier's JSON-ready payload, so a writer that
decides not to write a barrier pays nothing for it.  Each
:meth:`CheckpointManager.save` writes one self-contained document via
:mod:`repro.io.checkpoint_io`, embedding the case and config captured at
construction, so resuming (``RouteRequest(resume_from=...)``) needs
nothing but the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.io.checkpoint_io import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    write_checkpoint,
)
from repro.io.json_format import case_to_dict
from repro.netlist.netlist import Netlist
from repro.timing.delay import DelayModel


class CheckpointManager:
    """Writes sequence-numbered checkpoints for one router run.

    Args:
        directory: destination; created if missing.  Files are named
            ``ckpt_<sequence>_<barrier>.json`` with dots flattened to
            dashes, so lexicographic order is write order.
        system, netlist, delay_model: the case, embedded into every
            checkpoint.
        config: the run's :class:`~repro.core.config.RouterConfig`,
            embedded likewise.
        rng_state: JSON-ready RNG state to carry along (``None`` for the
            deterministic router).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: DelayModel,
        config: Optional[RouterConfig] = None,
        rng_state: Optional[Any] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._case = case_to_dict(system, netlist, delay_model)
        self._config = (config if config is not None else RouterConfig()).to_dict()
        self._rng_state = rng_state
        self._sequence = 0

    def save(self, barrier: str, build_payload: Callable[[], Dict[str, Any]]) -> Path:
        """Write one checkpoint, building its payload once; returns the path."""
        path = self.directory / (
            f"ckpt_{self._sequence:04d}_{barrier.replace('.', '-')}.json"
        )
        write_checkpoint(
            path,
            {
                "kind": CHECKPOINT_KIND,
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "barrier": barrier,
                "sequence": self._sequence,
                "case": self._case,
                "config": self._config,
                "rng_state": self._rng_state,
                "payload": build_payload(),
            },
        )
        self._sequence += 1
        return path

    def checkpoints(self) -> List[Path]:
        """Every checkpoint written to the directory, in write order."""
        return sorted(self.directory.glob("ckpt_*.json"))

    def latest(self) -> Optional[Path]:
        """The most recently written checkpoint, or ``None``."""
        paths = self.checkpoints()
        return paths[-1] if paths else None
