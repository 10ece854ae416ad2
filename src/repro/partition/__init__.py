"""Die-level partitioning substrate.

The paper's router consumes *die-level partitioning results* (Fig. 2(b)):
every cell of the design already lives on a die, so nets become
die-to-die connections.  This package provides the preceding flow stage
for users starting from a flat netlist:

* :mod:`repro.partition.logic` — the flat logic netlist model (cells with
  areas, multi-terminal hyperedge nets).
* :mod:`repro.partition.fm` — Fiduccia–Mattheyses min-cut bipartitioning
  with area balance.
* :mod:`repro.partition.partitioner` — recursive bisection onto the dies
  of a :class:`~repro.arch.MultiFpgaSystem` and conversion of the placed
  design into the router's die-level :class:`~repro.netlist.Netlist`.
* :mod:`repro.partition.generator` — a synthetic clustered logic netlist
  generator for experiments.
"""

from repro.partition.logic import Cell, LogicNet, LogicNetlist
from repro.partition.fm import FmResult, fm_bipartition
from repro.partition.partitioner import DiePartitioner, PartitionResult
from repro.partition.generator import generate_logic_netlist

__all__ = [
    "Cell",
    "DiePartitioner",
    "FmResult",
    "LogicNet",
    "LogicNetlist",
    "PartitionResult",
    "fm_bipartition",
    "generate_logic_netlist",
]
