"""Unit tests for nets and netlists."""

import pytest

from repro.netlist import Connection, Net, Netlist


class TestNet:
    def test_basic(self):
        net = Net("n0", source_die=0, sink_dies=(1, 2))
        assert net.fanout == 2
        assert net.crossing_sink_dies == (1, 2)
        assert net.is_die_crossing

    def test_duplicate_sinks_collapsed(self):
        net = Net("n0", source_die=0, sink_dies=(1, 1, 2, 1))
        assert net.sink_dies == (1, 2)
        assert net.fanout == 2

    def test_sinks_become_a_tuple(self):
        net = Net("n0", source_die=0, sink_dies=[1, 2])
        assert net.sink_dies == (1, 2)

    def test_intra_die_net(self):
        net = Net("n0", source_die=3, sink_dies=(3,))
        assert not net.is_die_crossing
        assert net.crossing_sink_dies == ()

    def test_mixed_intra_and_crossing(self):
        net = Net("n0", source_die=3, sink_dies=(3, 5))
        assert net.crossing_sink_dies == (5,)

    def test_requires_sinks(self):
        with pytest.raises(ValueError):
            Net("n0", source_die=0, sink_dies=())

    def test_negative_dies_rejected(self):
        with pytest.raises(ValueError):
            Net("n0", source_die=-1, sink_dies=(1,))
        with pytest.raises(ValueError):
            Net("n0", source_die=0, sink_dies=(-2,))

    def test_with_index(self):
        net = Net("n0", 0, (1,))
        indexed = net.with_index(5)
        assert indexed.index == 5
        assert indexed.name == net.name


class TestConnection:
    def test_must_cross_dies(self):
        with pytest.raises(ValueError):
            Connection(index=0, net_index=0, source_die=2, sink_die=2)


class TestNetlist:
    def test_connection_decomposition(self):
        netlist = Netlist(
            [
                Net("a", 0, (1, 2)),
                Net("b", 1, (1,)),  # intra-die: no connection
                Net("c", 2, (0,)),
            ]
        )
        assert netlist.num_nets == 3
        assert netlist.num_connections == 3
        conns = netlist.connections_of(0)
        assert [(c.source_die, c.sink_die) for c in conns] == [(0, 1), (0, 2)]
        assert netlist.connections_of(1) == []

    def test_reindexing(self):
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 1, (0,))])
        assert [net.index for net in netlist.nets] == [0, 1]
        assert [conn.index for conn in netlist.connections] == [0, 1]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Netlist([Net("a", 0, (1,)), Net("a", 1, (0,))])

    def test_net_by_name(self):
        netlist = Netlist([Net("a", 0, (1,))])
        assert netlist.net_by_name("a").index == 0
        assert netlist.net_by_name("missing") is None

    def test_crossing_nets(self):
        netlist = Netlist([Net("a", 0, (0,)), Net("b", 0, (1,))])
        assert [net.name for net in netlist.crossing_nets()] == ["b"]

    def test_validate_against(self):
        netlist = Netlist([Net("a", 0, (7,))])
        netlist.validate_against(8)
        with pytest.raises(ValueError, match="references die 7"):
            netlist.validate_against(7)

    def test_max_die_index(self):
        assert Netlist([]).max_die_index() == -1
        assert Netlist([Net("a", 2, (5, 1))]).max_die_index() == 5
        # An intra-die net owns no connection but still names its die.
        assert Netlist([Net("a", 9, (9,)), Net("b", 0, (1,))]).max_die_index() == 9

    def test_keeps_nets_already_at_their_index(self):
        kept = Net("a", 0, (1,), index=0)
        moved = Net("b", 1, (0,), index=5)
        netlist = Netlist([kept, moved])
        assert netlist.nets[0] is kept
        assert netlist.nets[1] is not moved
        assert netlist.nets[1] == moved and netlist.nets[1].index == 1
        assert moved.index == 5

    def test_columns_mirror_connections(self):
        netlist = Netlist(
            [Net("a", 0, (1, 0, 2)), Net("b", 3, (3,)), Net("c", 2, (0,))]
        )
        sources, sinks = netlist.connection_dies()
        conns = netlist.connections
        assert sources.tolist() == [c.source_die for c in conns] == [0, 0, 2]
        assert sinks.tolist() == [c.sink_die for c in conns] == [1, 2, 0]
        assert netlist.connection_net_indices().tolist() == [0, 0, 2]
        assert netlist.net_fanouts().tolist() == [3, 1, 1]
        for column in (sources, sinks, netlist.net_fanouts()):
            assert not column.flags.writeable
        empty_sources, empty_sinks = Netlist([]).connection_dies()
        assert empty_sources.size == empty_sinks.size == 0

    def test_len_and_iter(self):
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 1, (0,))])
        assert len(netlist) == 2
        assert [net.name for net in netlist] == ["a", "b"]

    def test_connection_indices_of(self):
        netlist = Netlist([Net("a", 0, (1, 2)), Net("b", 1, (1,)), Net("c", 1, (0,))])
        assert netlist.connection_indices_of(0) == [0, 1]
        assert netlist.connection_indices_of(1) == []
        assert netlist.connection_indices_of(2) == [2]
        assert [c.index for c in netlist.connections_of(2)] == [2]
        assert netlist.connection_offsets() == (0, 2, 2, 3)

    def test_repr(self):
        text = repr(Netlist([Net("a", 0, (1,))]))
        assert "nets=1" in text and "connections=1" in text
