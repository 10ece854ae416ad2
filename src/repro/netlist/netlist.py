"""Netlist container with connection decomposition and statistics."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.net import Connection, Net


class Netlist:
    """An ordered collection of nets with derived connections.

    Nets are re-indexed on construction so that ``netlist.nets[i].index == i``:
    a net already built with ``index=i`` is kept as is, any other is
    copied.  The *connections* (Table I's set C) are the (source die, sink
    die) pairs of every die-crossing sink, indexed contiguously.

    Args:
        nets: the nets of the design.  Names must be unique.
    """

    def __init__(self, nets: Iterable[Net]) -> None:
        self._nets: List[Net] = [
            net if net.index == i else net.with_index(i)
            for i, net in enumerate(nets)
        ]
        self._by_name: Dict[str, Net] = {net.name: net for net in self._nets}
        if len(self._by_name) != len(self._nets):
            raise ValueError("net names must be unique")
        # One pass builds the int columns that array consumers read
        # instead of the Connection objects; net i owns the connections
        # offsets[i]:offsets[i + 1].
        conn_net: List[int] = []
        conn_source: List[int] = []
        conn_sink: List[int] = []
        fanouts: List[int] = []
        offsets = [0]
        largest = -1
        for net in self._nets:
            source = net.source_die
            sinks = net.sink_dies
            index = net.index
            fanouts.append(len(sinks))
            if source > largest:
                largest = source
            for die in sinks:
                if die != source:
                    conn_net.append(index)
                    conn_source.append(source)
                    conn_sink.append(die)
            offsets.append(len(conn_sink))
        self._connections: List[Connection] = list(
            map(Connection, range(len(conn_sink)), conn_net, conn_source, conn_sink)
        )
        self._offsets: Tuple[int, ...] = tuple(offsets)
        self._conn_net = _column(conn_net)
        self._conn_source = _column(conn_source)
        self._conn_sink = _column(conn_sink)
        self._fanouts = _column(fanouts)
        # A sink off its source die is some connection's sink die.
        self._max_die = max(largest, max(conn_sink, default=-1))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nets(self) -> Sequence[Net]:
        """All nets, indexed by ``Net.index``."""
        return self._nets

    @property
    def connections(self) -> Sequence[Connection]:
        """All die-crossing connections, indexed by ``Connection.index``."""
        return self._connections

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self._nets)

    @property
    def num_connections(self) -> int:
        """Number of die-crossing connections."""
        return len(self._connections)

    def net(self, index: int) -> Net:
        """Return the net with the given index."""
        return self._nets[index]

    def net_by_name(self, name: str) -> Optional[Net]:
        """Return the net with the given name, or ``None``."""
        return self._by_name.get(name)

    def connections_of(self, net_index: int) -> List[Connection]:
        """Return the connections of a net."""
        offsets = self._offsets
        return self._connections[offsets[net_index] : offsets[net_index + 1]]

    def connection_indices_of(self, net_index: int) -> List[int]:
        """Return the connection indices of a net."""
        offsets = self._offsets
        return list(range(offsets[net_index], offsets[net_index + 1]))

    def connection_offsets(self) -> Tuple[int, ...]:
        """Per-net connection offsets: net ``i`` owns the connections
        ``offsets[i]:offsets[i + 1]`` (``num_nets + 1`` entries)."""
        return self._offsets

    def crossing_nets(self) -> Iterator[Net]:
        """Yield the nets that have at least one die-crossing connection."""
        return (net for net in self._nets if net.is_die_crossing)

    def connection_net_indices(self) -> np.ndarray:
        """Per-connection owning net index, as a read-only array."""
        return self._conn_net

    def connection_dies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-connection ``(source dies, sink dies)``, as read-only arrays."""
        return self._conn_source, self._conn_sink

    def net_fanouts(self) -> np.ndarray:
        """Per-net fanout (``Net.fanout``), as a read-only array."""
        return self._fanouts

    def max_die_index(self) -> int:
        """Largest die index referenced by any pin (-1 for an empty netlist)."""
        return self._max_die

    def validate_against(self, num_dies: int) -> None:
        """Raise ``ValueError`` if any pin references a die >= ``num_dies``."""
        worst = self.max_die_index()
        if worst >= num_dies:
            raise ValueError(
                f"netlist references die {worst} but the system has only "
                f"{num_dies} dies"
            )

    def __len__(self) -> int:
        return len(self._nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self._nets)

    def __repr__(self) -> str:
        return f"Netlist(nets={self.num_nets}, connections={self.num_connections})"


def _column(values: List[int]) -> np.ndarray:
    column = np.array(values, dtype=np.int64)
    column.setflags(write=False)
    return column
