"""Nets and their two-pin connection decomposition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class Net:
    """A net of the die-level partitioned design.

    Attributes:
        name: unique net name.
        source_die: global die index of the driving pin.
        sink_dies: global die indices of the sink pins.  Sinks on the
            source die are legal (the net then needs no system routing for
            that pin) and duplicate sink dies are collapsed.
        index: position in the owning :class:`~repro.netlist.Netlist`;
            ``-1`` for standalone nets.  A netlist keeps a net built
            with its final position and copies any other one.
    """

    name: str
    source_die: int
    sink_dies: Tuple[int, ...]
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        sinks = self.sink_dies
        if self.source_die < 0:
            raise ValueError(f"net {self.name!r}: source die must be non-negative")
        if not sinks:
            raise ValueError(f"net {self.name!r}: a net needs at least one sink")
        if min(sinks) < 0:
            raise ValueError(f"net {self.name!r}: sink dies must be non-negative")
        # Collapse duplicates while preserving order; frozen dataclass needs
        # object.__setattr__.
        if len(set(sinks)) != len(sinks) or type(sinks) is not tuple:
            object.__setattr__(self, "sink_dies", tuple(dict.fromkeys(sinks)))

    @property
    def fanout(self) -> int:
        """Number of sink pins (after dedup)."""
        return len(self.sink_dies)

    @property
    def crossing_sink_dies(self) -> Tuple[int, ...]:
        """Sink dies different from the source die (the ones needing routing)."""
        return tuple(die for die in self.sink_dies if die != self.source_die)

    @property
    def is_die_crossing(self) -> bool:
        """Whether the net has at least one sink on another die."""
        return bool(self.crossing_sink_dies)

    def with_index(self, index: int) -> "Net":
        """Return a copy of this net with ``index`` assigned."""
        return Net(
            name=self.name,
            source_die=self.source_die,
            sink_dies=self.sink_dies,
            index=index,
        )


@dataclass(frozen=True)
class Connection:
    """A two-pin die-to-die connection of a net.

    Attributes:
        index: position in the netlist's connection list.
        net_index: index of the owning net.
        source_die: die of the net's driver.
        sink_die: die of this connection's sink (differs from the source).
    """

    index: int
    net_index: int
    source_die: int
    sink_die: int

    def __post_init__(self) -> None:
        if self.source_die == self.sink_die:
            raise ValueError("a connection must cross dies")
