"""Benchmark generator: contest-statistics-matched systems and netlists."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.builder import SystemBuilder
from repro.arch.system import MultiFpgaSystem
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist

#: Dies per FPGA in every contest system (8 dies / 2 FPGAs, ... Table II).
DIES_PER_FPGA = 4


@dataclass(frozen=True)
class BenchmarkSpec:
    """Target statistics of one generated case (one Table II row).

    Attributes:
        name: case name, e.g. ``"case01"``.
        num_fpgas: FPGA devices (each with :data:`DIES_PER_FPGA` dies in a
            chain, giving 3 SLL edges per FPGA as in the contest systems).
        sll_wires_total: total physical SLL wires across all SLL edges.
        num_tdm_edges: TDM edges across FPGA pairs.
        tdm_wires_total: total physical TDM wires across all TDM edges.
        num_nets: nets in the netlist.
        num_connections: die-crossing connections (< num_nets means most
            nets stay on their die, as in contest Case #9).
        seed: RNG seed; generation is fully deterministic.
        locality: decay rate of same-FPGA sink probability with SLL hop
            distance; larger means more local intra-FPGA traffic.
        cross_weight: relative weight of a cross-FPGA sink die versus the
            nearest same-FPGA die.  Emulation workloads are TDM-heavy (the
            partitioner keeps SLL-connected logic together), so the large
            contest cases use values > 1.
    """

    name: str
    num_fpgas: int
    sll_wires_total: int
    num_tdm_edges: int
    tdm_wires_total: int
    num_nets: int
    num_connections: int
    seed: int = 2023
    locality: float = 1.0
    cross_weight: float = 4.0

    @property
    def num_dies(self) -> int:
        """Total dies in the system."""
        return self.num_fpgas * DIES_PER_FPGA

    @property
    def num_sll_edges(self) -> int:
        """SLL edges (chain of 4 dies per FPGA -> 3 per FPGA)."""
        return self.num_fpgas * (DIES_PER_FPGA - 1)


@dataclass
class GeneratedCase:
    """A generated benchmark: the system, the netlist and bookkeeping.

    Attributes:
        spec: the target statistics.
        scale: the applied scale factor.
        system: the generated multi-FPGA system.
        netlist: the generated netlist.
    """

    spec: BenchmarkSpec
    scale: float
    system: MultiFpgaSystem
    netlist: Netlist

    def stats(self) -> Dict[str, int]:
        """Actual statistics of the generated case (Table II columns)."""
        return {
            "fpgas": self.system.num_fpgas,
            "dies": self.system.num_dies,
            "sll_edges": len(self.system.sll_edges),
            "sll_wires": self.system.total_sll_wires(),
            "tdm_edges": len(self.system.tdm_edges),
            "tdm_wires": self.system.total_tdm_wires(),
            "nets": self.netlist.num_nets,
            "connections": self.netlist.num_connections,
        }


def generate_case(
    spec: BenchmarkSpec,
    scale: float = 1.0,
    sll_scale: Optional[float] = None,
) -> GeneratedCase:
    """Generate a system + netlist matching (a scaled) Table II row.

    Args:
        spec: the target statistics.
        scale: in (0, 1]; multiplies net counts and TDM wire capacities
            together, preserving the nets-per-TDM-wire ratio that drives
            TDM ratios and hence delays.
        sll_scale: separate scale for SLL wire capacities (defaults to
            ``scale``).  Because the synthetic traffic profile only
            approximates the (unpublished) contest traffic, a per-case SLL
            scale keeps the scaled instance in the same utilization regime
            — tight but feasible — as the original (see DESIGN.md
            substitution 1).

    Returns:
        The generated case.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    if sll_scale is None:
        sll_scale = scale
    if not 0 < sll_scale <= 1:
        raise ValueError("sll_scale must be in (0, 1]")
    rng = random.Random(spec.seed)
    system = _build_system(spec, scale, sll_scale, rng)
    netlist = _build_netlist(spec, scale, system, rng)
    return GeneratedCase(spec=spec, scale=scale, system=system, netlist=netlist)


# ----------------------------------------------------------------------
# System generation
# ----------------------------------------------------------------------
def _build_system(
    spec: BenchmarkSpec, scale: float, sll_scale: float, rng: random.Random
) -> MultiFpgaSystem:
    builder = SystemBuilder()
    sll_cap = max(2, round(spec.sll_wires_total * sll_scale / spec.num_sll_edges))
    handles = [
        builder.add_fpga(num_dies=DIES_PER_FPGA, sll_capacity=sll_cap)
        for _ in range(spec.num_fpgas)
    ]
    tdm_cap = max(2, round(spec.tdm_wires_total * scale / spec.num_tdm_edges))
    for die_a, die_b in _tdm_edge_plan(spec, rng):
        builder.add_tdm_edge(die_a, die_b, tdm_cap)
    return builder.build()


def _tdm_edge_plan(spec: BenchmarkSpec, rng: random.Random) -> List[Tuple[int, int]]:
    """Choose TDM die pairs: cycle over FPGA pairs (ring first), then pick
    unused die pairs inside each."""
    fpga_pairs: List[Tuple[int, int]] = []
    # Ring neighbours first so the system is connected even with few edges.
    for f in range(spec.num_fpgas - 1):
        fpga_pairs.append((f, f + 1))
    if spec.num_fpgas > 2:
        fpga_pairs.append((0, spec.num_fpgas - 1))
    for a in range(spec.num_fpgas):
        for b in range(a + 1, spec.num_fpgas):
            if (a, b) not in fpga_pairs:
                fpga_pairs.append((a, b))

    used: set = set()
    attachments = [0] * (spec.num_fpgas * DIES_PER_FPGA)
    plan: List[Tuple[int, int]] = []
    pair_cursor = 0
    stall = 0
    while len(plan) < spec.num_tdm_edges and stall < 2 * len(fpga_pairs):
        fpga_a, fpga_b = fpga_pairs[pair_cursor % len(fpga_pairs)]
        pair_cursor += 1
        candidates = [
            (fpga_a * DIES_PER_FPGA + i, fpga_b * DIES_PER_FPGA + j)
            for i in range(DIES_PER_FPGA)
            for j in range(DIES_PER_FPGA)
            if (fpga_a * DIES_PER_FPGA + i, fpga_b * DIES_PER_FPGA + j) not in used
        ]
        if not candidates:
            stall += 1
            continue
        stall = 0
        # Spread TDM attachments over dies (real prototyping boards cable
        # every SLR) so cross-FPGA traffic does not funnel through a few
        # dies' SLL chains; break ties randomly but deterministically.
        rng.shuffle(candidates)
        choice = min(candidates, key=lambda c: attachments[c[0]] + attachments[c[1]])
        used.add(choice)
        attachments[choice[0]] += 1
        attachments[choice[1]] += 1
        plan.append(choice)
    return plan


# ----------------------------------------------------------------------
# Netlist generation
# ----------------------------------------------------------------------
def _hop_distances(system: MultiFpgaSystem) -> List[List[int]]:
    """BFS hop distances between all die pairs."""
    n = system.num_dies
    dist = [[0] * n for _ in range(n)]
    for src in range(n):
        row = dist[src]
        for die in range(n):
            row[die] = -1
        row[src] = 0
        queue = [src]
        head = 0
        while head < len(queue):
            die = queue[head]
            head += 1
            for _, other in system.neighbors(die):
                if row[other] < 0:
                    row[other] = row[die] + 1
                    queue.append(other)
    return dist


def _sink_weights(
    spec: BenchmarkSpec,
    system: MultiFpgaSystem,
    dist: List[List[int]],
) -> List[List[float]]:
    """Per-source sink sampling weights.

    Same-FPGA sinks decay with SLL hop distance while cross-FPGA sinks
    get a flat (usually heavier) weight — emulation traffic is dominated
    by inter-FPGA nets riding TDM wires.
    """
    num_dies = system.num_dies
    fpga_of = [system.dies[die].fpga_index for die in range(num_dies)]
    weights_by_source: List[List[float]] = []
    for src in range(num_dies):
        row: List[float] = []
        for die in range(num_dies):
            if die == src:
                row.append(0.0)
            elif fpga_of[die] == fpga_of[src]:
                row.append(math.exp(-spec.locality * dist[src][die]))
            else:
                row.append(spec.cross_weight * math.exp(-spec.locality))
        weights_by_source.append(row)
    return weights_by_source


def _build_netlist(
    spec: BenchmarkSpec,
    scale: float,
    system: MultiFpgaSystem,
    rng: random.Random,
) -> Netlist:
    num_nets = max(1, round(spec.num_nets * scale))
    num_conns = max(0, round(spec.num_connections * scale))
    num_dies = system.num_dies
    fanouts = _fanout_plan(num_nets, num_conns, num_dies - 1, rng)

    dist = _hop_distances(system)
    weights_by_source = _sink_weights(spec, system, dist)
    die_range = list(range(num_dies))

    nets: List[Net] = []
    for index, fanout in enumerate(fanouts):
        source = rng.randrange(num_dies)
        if fanout == 0:
            # Intra-die net: counted as a net but contributes no connection.
            nets.append(Net(f"net{index}", source, (source,), index))
            continue
        weights = weights_by_source[source]
        sinks: List[int] = []
        chosen = set()
        while len(sinks) < fanout:
            sink = rng.choices(die_range, weights=weights, k=1)[0]
            if sink not in chosen:
                chosen.add(sink)
                sinks.append(sink)
        nets.append(Net(f"net{index}", source, tuple(sinks), index))
    return Netlist(nets)


def _fanout_plan(
    num_nets: int, num_conns: int, max_fanout: int, rng: random.Random
) -> List[int]:
    """Distribute exactly ``num_conns`` crossing sinks over ``num_nets`` nets.

    Produces a realistic mix: a uniform base plus a small heavy tail of
    high-fanout nets, capped by the die count.
    """
    fanouts = [min(num_conns // num_nets, max_fanout)] * num_nets
    assigned = sum(fanouts)
    remainder = num_conns - assigned
    # A twentieth of the remainder goes to a heavy tail of broadcast nets.
    heavy_budget = remainder // 20
    order = list(range(num_nets))
    rng.shuffle(order)
    cursor = 0
    while heavy_budget > 0 and cursor < num_nets:
        net = order[cursor]
        cursor += 1
        room = max_fanout - fanouts[net]
        grant = min(room, rng.randint(2, max(2, max_fanout)), heavy_budget)
        if grant > 0:
            fanouts[net] += grant
            heavy_budget -= grant
            remainder -= grant
    # Spread the rest one sink at a time.
    while remainder > 0 and cursor < len(order):
        net = order[cursor]
        cursor += 1
        if fanouts[net] < max_fanout:
            fanouts[net] += 1
            remainder -= 1
    # Wrap around if we ran out of fresh nets (very high conns/nets ratios).
    cursor = 0
    while remainder > 0:
        net = order[cursor % num_nets]
        cursor += 1
        if fanouts[net] < max_fanout:
            fanouts[net] += 1
            remainder -= 1
        if cursor > 100 * num_nets:
            break  # every net saturated: cap reached, give up gracefully
    return fanouts
