"""Case file format: the multi-FPGA system plus the netlist.

Line-oriented, ``#`` starts a comment, blank lines ignored::

    PARAM d_sll 0.5
    PARAM d0 2.0
    PARAM d1 0.5
    PARAM tdm_step 8
    FPGA fpga0 4          # name, number of dies (chain SLL topology)
    FPGA fpga1 4
    SLL 0 1 20000         # die_a die_b wires (overrides/adds to chain)
    TDM 3 4 400           # die_a die_b wires (must cross FPGAs)
    NET n0 0 5 7          # name source_die sink_die...

``FPGA`` lines declare the devices and implicitly number their dies in
order; ``SLL``/``TDM`` lines add edges by global die index.  ``FPGA``
lines create *no* implicit SLL edges — every edge is explicit, so a file
round-trips losslessly.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import List, Tuple, Union

from repro.arch.builder import SystemBuilder
from repro.arch.system import MultiFpgaSystem
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.timing.delay import DelayModel

Case = Tuple[MultiFpgaSystem, Netlist, DelayModel]


class CaseFormatError(ValueError):
    """Raised on malformed case files."""


def parse_case(text: str) -> Case:
    """Parse a case from text.

    Returns:
        ``(system, netlist, delay_model)``.

    Raises:
        CaseFormatError: on any malformed line, naming the line: also for
            a repeated net name or a net on a die the system lacks.
    """
    builder = SystemBuilder()
    nets: List[Net] = []
    net_lines: List[int] = []
    params = {"d_sll": 0.5, "d0": 2.0, "d1": 0.5, "tdm_step": 8}
    saw_edge = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        try:
            if keyword == "PARAM":
                _expect(len(fields) == 3, line_no, "PARAM needs: name value")
                name = fields[1]
                if name not in params:
                    raise CaseFormatError(
                        f"line {line_no}: unknown PARAM {name!r}"
                    )
                params[name] = float(fields[2])
            elif keyword == "FPGA":
                _expect(len(fields) == 3, line_no, "FPGA needs: name num_dies")
                builder.add_fpga(
                    num_dies=int(fields[2]), name=fields[1], topology="none"
                )
            elif keyword == "SLL":
                _expect(len(fields) == 4, line_no, "SLL needs: die_a die_b wires")
                builder.add_sll_edge(int(fields[1]), int(fields[2]), int(fields[3]))
                saw_edge = True
            elif keyword == "TDM":
                _expect(len(fields) == 4, line_no, "TDM needs: die_a die_b wires")
                builder.add_tdm_edge(int(fields[1]), int(fields[2]), int(fields[3]))
                saw_edge = True
            elif keyword == "NET":
                _expect(
                    len(fields) >= 4, line_no, "NET needs: name source sink..."
                )
                nets.append(
                    Net(
                        name=fields[1],
                        source_die=int(fields[2]),
                        sink_dies=tuple(map(int, fields[3:])),
                        index=len(nets),
                    )
                )
                net_lines.append(line_no)
            else:
                raise CaseFormatError(f"line {line_no}: unknown keyword {fields[0]!r}")
        except (ValueError, TypeError) as exc:
            if isinstance(exc, CaseFormatError):
                raise
            raise CaseFormatError(f"line {line_no}: {exc}") from exc
    if not saw_edge:
        raise CaseFormatError("case defines no edges")
    try:
        system = builder.build()
        model = DelayModel(
            d_sll=params["d_sll"],
            d0=params["d0"],
            d1=params["d1"],
            tdm_step=int(params["tdm_step"]),
        )
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from exc
    return system, _netlist(nets, net_lines, system.num_dies), model


def _netlist(nets: List[Net], net_lines: List[int], num_dies: int) -> Netlist:
    """The case's netlist; a whole-netlist error names its ``NET`` line."""
    try:
        netlist = Netlist(nets)
    except ValueError as exc:  # a repeated name: name the repeat
        seen = set()
        for net, line_no in zip(nets, net_lines):
            if net.name in seen:
                raise CaseFormatError(f"line {line_no}: {exc}") from exc
            seen.add(net.name)
        raise
    try:
        netlist.validate_against(num_dies)
    except ValueError as exc:  # name the first net on the largest die
        worst = netlist.max_die_index()
        for net, line_no in zip(nets, net_lines):
            if net.source_die == worst or worst in net.sink_dies:
                raise CaseFormatError(f"line {line_no}: {exc}") from exc
        raise
    return netlist


def read_text_maybe_gzip(path: Union[str, Path]) -> str:
    """Read a text file, transparently decompressing ``.gz`` paths."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as handle:
            return handle.read()
    return path.read_text()


def write_text_maybe_gzip(path: Union[str, Path], text: str) -> None:
    """Write a text file, transparently compressing ``.gz`` paths."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        path.write_text(text)


def parse_case_file(path: Union[str, Path]) -> Case:
    """Parse a case from a file path (``.gz`` transparently supported)."""
    try:
        text = read_text_maybe_gzip(path)
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"not a text case file: {exc}") from exc
    return parse_case(text)


def write_case(
    system: MultiFpgaSystem,
    netlist: Netlist,
    delay_model: DelayModel,
) -> str:
    """Serialize a case to text (inverse of :func:`parse_case`)."""
    lines = [
        "# die-level multi-FPGA routing case",
        f"PARAM d_sll {delay_model.d_sll}",
        f"PARAM d0 {delay_model.d0}",
        f"PARAM d1 {delay_model.d1}",
        f"PARAM tdm_step {delay_model.tdm_step}",
    ]
    for fpga in system.fpgas:
        lines.append(f"FPGA {fpga.name} {fpga.num_dies}")
    for edge in system.sll_edges:
        lines.append(f"SLL {edge.die_a} {edge.die_b} {edge.capacity}")
    for edge in system.tdm_edges:
        lines.append(f"TDM {edge.die_a} {edge.die_b} {edge.capacity}")
    for net in netlist.nets:
        sinks = " ".join(str(d) for d in net.sink_dies)
        lines.append(f"NET {net.name} {net.source_die} {sinks}")
    return "\n".join(lines) + "\n"


def write_case_file(
    path: Union[str, Path],
    system: MultiFpgaSystem,
    netlist: Netlist,
    delay_model: DelayModel,
) -> None:
    """Write a case to a file (``.gz`` transparently supported)."""
    write_text_maybe_gzip(path, write_case(system, netlist, delay_model))


def _expect(condition: bool, line_no: int, message: str) -> None:
    if not condition:
        raise CaseFormatError(f"line {line_no}: {message}")
