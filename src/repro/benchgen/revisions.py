"""Netlist revisions: day-over-day design changes for ECO workflows.

Emulation teams re-spin designs daily with small deltas.  Given a base
netlist, :func:`revise_netlist` produces a revision with a configurable
fraction of nets re-targeted, removed and added — deterministic, so ECO
benchmarks and tests can replay the same change stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.netlist.net import Net
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class RevisionSpec:
    """How much a revision changes.

    Attributes:
        retarget_fraction: fraction of nets whose sinks are re-rolled.
        remove_fraction: fraction of nets dropped.
        add_fraction: new nets added, as a fraction of the base count.
        seed: RNG seed; revisions are deterministic.
    """

    retarget_fraction: float = 0.02
    remove_fraction: float = 0.01
    add_fraction: float = 0.01
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("retarget_fraction", "remove_fraction", "add_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def revise_netlist(
    base: Netlist,
    num_dies: int,
    spec: RevisionSpec = RevisionSpec(),
) -> Netlist:
    """Produce a revised netlist.

    Args:
        base: the previous revision.
        num_dies: die count of the target system (bounds new pins).
        spec: change magnitudes.

    Returns:
        A new netlist sharing most nets (same name + pins) with the base,
        so :meth:`repro.core.eco.EcoRouter.migrate` can carry paths over.
    """
    if num_dies < 2:
        raise ValueError("need at least two dies to retarget nets")
    rng = random.Random(spec.seed)
    nets: List[Net] = []
    num_retarget = round(base.num_nets * spec.retarget_fraction)
    num_remove = round(base.num_nets * spec.remove_fraction)
    num_add = round(base.num_nets * spec.add_fraction)

    indices = list(range(base.num_nets))
    rng.shuffle(indices)
    retarget = set(indices[:num_retarget])
    remove = set(indices[num_retarget : num_retarget + num_remove])

    for net in base.nets:
        if net.index in remove:
            continue
        if net.index in retarget:
            fanout = max(1, net.fanout)
            sinks = tuple(rng.sample(range(num_dies), min(fanout, num_dies)))
            nets.append(Net(net.name, net.source_die, sinks, len(nets)))
        else:
            nets.append(Net(net.name, net.source_die, net.sink_dies, len(nets)))

    existing = {net.name for net in nets}
    added = 0
    serial = 0
    while added < num_add:
        name = f"rev{spec.seed}_net{serial}"
        serial += 1
        if name in existing:
            continue
        source = rng.randrange(num_dies)
        sink = rng.randrange(num_dies)
        nets.append(Net(name, source, (sink,), len(nets)))
        existing.add(name)
        added += 1
    return Netlist(nets)
