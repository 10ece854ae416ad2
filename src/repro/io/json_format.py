"""JSON serialization of cases and solutions.

The line formats of :mod:`repro.io.contest_format` /
:mod:`repro.io.solution_io` are the canonical interchange; the JSON
mirror exists for tooling interop (web viewers, notebooks, other
languages).  Schemas::

    case = {
      "params": {"d_sll": .., "d0": .., "d1": .., "tdm_step": ..},
      "fpgas": [{"name": .., "num_dies": ..}, ...],
      "sll_edges": [[die_a, die_b, wires], ...],
      "tdm_edges": [[die_a, die_b, wires], ...],
      "nets": [{"name": .., "source": .., "sinks": [..]}, ...],
    }

    solution = {
      "paths": [{"net": name, "sink": die, "dies": [..]}, ...],
      "wires": [{"die_a": .., "die_b": .., "direction": 0|1,
                 "ratio": .., "nets": [name, ...]}, ...],
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.arch.builder import SystemBuilder
from repro.arch.edges import EdgeKind, TdmWire
from repro.arch.system import MultiFpgaSystem
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.route.solution import RoutingSolution
from repro.timing.delay import DelayModel


class JsonFormatError(ValueError):
    """Raised on malformed JSON cases or solutions."""


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def case_to_dict(
    system: MultiFpgaSystem, netlist: Netlist, delay_model: DelayModel
) -> Dict[str, Any]:
    """Serialize a case to a JSON-ready dict."""
    return {
        "params": {
            "d_sll": delay_model.d_sll,
            "d0": delay_model.d0,
            "d1": delay_model.d1,
            "tdm_step": delay_model.tdm_step,
        },
        "fpgas": [
            {"name": fpga.name, "num_dies": fpga.num_dies}
            for fpga in system.fpgas
        ],
        "sll_edges": [
            [edge.die_a, edge.die_b, edge.capacity] for edge in system.sll_edges
        ],
        "tdm_edges": [
            [edge.die_a, edge.die_b, edge.capacity] for edge in system.tdm_edges
        ],
        "nets": [
            {
                "name": net.name,
                "source": net.source_die,
                "sinks": list(net.sink_dies),
            }
            for net in netlist.nets
        ],
    }


def case_from_dict(data: Dict[str, Any]):
    """Deserialize a case dict to ``(system, netlist, delay_model)``."""
    try:
        params = data.get("params", {})
        model = DelayModel(
            d_sll=float(params.get("d_sll", 0.5)),
            d0=float(params.get("d0", 2.0)),
            d1=float(params.get("d1", 0.5)),
            tdm_step=int(params.get("tdm_step", 8)),
        )
        builder = SystemBuilder()
        for fpga in data["fpgas"]:
            builder.add_fpga(
                num_dies=int(fpga["num_dies"]),
                name=str(fpga["name"]),
                topology="none",
            )
        for die_a, die_b, wires in data.get("sll_edges", []):
            builder.add_sll_edge(int(die_a), int(die_b), int(wires))
        for die_a, die_b, wires in data.get("tdm_edges", []):
            builder.add_tdm_edge(int(die_a), int(die_b), int(wires))
        system = builder.build()
        nets = [
            Net(
                name=str(net["name"]),
                source_die=int(net["source"]),
                sink_dies=tuple(map(int, net["sinks"])),
                index=index,
            )
            for index, net in enumerate(data.get("nets", []))
        ]
        netlist = Netlist(nets)
        netlist.validate_against(system.num_dies)
        return system, netlist, model
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, JsonFormatError):
            raise
        raise JsonFormatError(f"malformed JSON case: {exc}") from exc


def write_case_json(
    path: Union[str, Path],
    system: MultiFpgaSystem,
    netlist: Netlist,
    delay_model: DelayModel,
) -> None:
    """Write a case as JSON."""
    Path(path).write_text(
        json.dumps(case_to_dict(system, netlist, delay_model), indent=1, sort_keys=True)
    )


def read_case_json(path: Union[str, Path]):
    """Read a JSON case file."""
    return case_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Solutions
# ----------------------------------------------------------------------
def solution_to_dict(solution: RoutingSolution) -> Dict[str, Any]:
    """Serialize a solution to a JSON-ready dict."""
    netlist = solution.netlist
    system = solution.system
    paths = []
    for conn in netlist.connections:
        path = solution.path(conn.index)
        if path is None:
            continue
        paths.append(
            {
                "net": netlist.net(conn.net_index).name,
                "sink": conn.sink_die,
                "dies": list(path),
            }
        )
    wires = []
    for edge_index in sorted(solution.wires):
        edge = system.edge(edge_index)
        for wire in solution.wires[edge_index]:
            wires.append(
                {
                    "die_a": edge.die_a,
                    "die_b": edge.die_b,
                    "direction": wire.direction,
                    "ratio": wire.ratio,
                    "nets": [
                        netlist.net(net_index).name
                        for net_index in wire.net_indices
                    ],
                }
            )
    return {"paths": paths, "wires": wires}


def solution_from_dict(
    data: Dict[str, Any],
    system: MultiFpgaSystem,
    netlist: Netlist,
) -> RoutingSolution:
    """Deserialize a solution dict against its case."""
    solution = RoutingSolution(system, netlist)
    conn_by_key = {
        (conn.net_index, conn.sink_die): conn.index
        for conn in netlist.connections
    }
    try:
        for entry in data.get("paths", []):
            net = netlist.net_by_name(str(entry["net"]))
            if net is None:
                raise JsonFormatError(f"unknown net {entry['net']!r}")
            key = (net.index, int(entry["sink"]))
            if key not in conn_by_key:
                raise JsonFormatError(
                    f"net {entry['net']!r} has no connection to die {entry['sink']}"
                )
            solution.set_path(conn_by_key[key], [int(d) for d in entry["dies"]])
        for entry in data.get("wires", []):
            edge = system.edge_between(int(entry["die_a"]), int(entry["die_b"]))
            if edge is None or edge.kind is not EdgeKind.TDM:
                raise JsonFormatError(
                    f"no TDM edge between dies {entry['die_a']} and {entry['die_b']}"
                )
            wire = TdmWire(
                edge_index=edge.index,
                direction=int(entry["direction"]),
                ratio=int(entry["ratio"]),
            )
            for name in entry.get("nets", []):
                net = netlist.net_by_name(str(name))
                if net is None:
                    raise JsonFormatError(f"unknown net {name!r}")
                wire.add_net(net.index)
                use = (net.index, edge.index, wire.direction)
                solution.ratios[use] = float(wire.ratio)
            wires = solution.wires.setdefault(edge.index, [])
            position = len(wires)
            wires.append(wire)
            for net_index in wire.net_indices:
                solution.net_wire[(net_index, edge.index, wire.direction)] = position
        return solution
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, JsonFormatError):
            raise
        raise JsonFormatError(f"malformed JSON solution: {exc}") from exc


def write_solution_json(path: Union[str, Path], solution: RoutingSolution) -> None:
    """Write a solution as JSON."""
    Path(path).write_text(
        json.dumps(solution_to_dict(solution), indent=1, sort_keys=True)
    )


def read_solution_json(
    path: Union[str, Path],
    system: MultiFpgaSystem,
    netlist: Netlist,
) -> RoutingSolution:
    """Read a JSON solution file against its case."""
    return solution_from_dict(json.loads(Path(path).read_text()), system, netlist)
