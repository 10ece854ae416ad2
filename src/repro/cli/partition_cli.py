"""``repro partition``: partition a flat design onto a case's dies.

Takes a hypergraph (hMETIS ``.hgr``) or generates a synthetic design,
partitions it onto the dies of a case file's system, and emits a new case
file whose netlist is the partitioned design — ready for ``repro route``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.io import parse_case_file, write_case_file
from repro.partition import DiePartitioner, generate_logic_netlist
from repro.partition.hgr import read_hgr
from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The ``repro partition`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro partition",
        description=(
            "Partition a flat design onto the dies of a multi-FPGA system "
            "and emit a routable case file."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "case_file",
        help="case file providing the target system (its nets are replaced)",
    )
    parser.add_argument("output", help="case file to write")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--hgr", help="hMETIS .hgr design to partition")
    source.add_argument(
        "--synthetic",
        type=int,
        metavar="CELLS",
        help="generate a synthetic clustered design with this many cells",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="seed for --synthetic"
    )
    parser.add_argument(
        "--balance-slack",
        type=float,
        default=0.15,
        help="allowed per-die area overfill fraction",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    system, _, delay_model = parse_case_file(args.case_file)
    if args.hgr:
        design = read_hgr(args.hgr)
    else:
        cells = args.synthetic if args.synthetic else 400
        design = generate_logic_netlist(num_cells=cells, seed=args.seed)

    partitioner = DiePartitioner(system, balance_slack=args.balance_slack)
    result = partitioner.partition(design)
    netlist = partitioner.to_die_netlist(design, result)

    print(f"design         : {design.num_cells} cells, {design.num_nets} nets")
    print(
        f"partition      : {result.cut_nets} cut nets "
        f"({result.cut_nets / max(1, design.num_nets):.1%})"
    )
    areas = ", ".join(
        f"{die}:{area:.0f}" for die, area in sorted(result.die_areas.items())
    )
    print(f"die areas      : {areas}")
    print(
        f"die netlist    : {netlist.num_nets} nets, "
        f"{netlist.num_connections} connections"
    )
    write_case_file(args.output, system, netlist, delay_model)
    print(f"case written   : {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
