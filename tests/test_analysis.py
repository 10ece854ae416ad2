"""Tests for the Table II netlist statistics."""

import pytest

from repro import Net, Netlist
from repro.analysis import netlist_stats
from tests.conftest import build_two_fpga_system


class TestNetlistStats:
    def test_counts(self):
        system = build_two_fpga_system()
        netlist = Netlist(
            [
                Net("intra", 0, (0,)),
                Net("local", 0, (1,)),
                Net("cross", 0, (4, 5)),
            ]
        )
        stats = netlist_stats(system, netlist)
        assert stats.num_nets == 3
        assert stats.num_connections == 3
        assert stats.intra_die_nets == 1
        assert stats.cross_fpga_connections == 2
        assert stats.fanout_histogram == {0: 1, 1: 1, 2: 1}
        assert stats.max_fanout == 2
        assert stats.cross_fpga_fraction == pytest.approx(2 / 3)

    def test_die_pin_counts(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1, 1, 2))])
        stats = netlist_stats(system, netlist)
        assert stats.die_pin_counts[0] == 1
        assert stats.die_pin_counts[1] == 1  # duplicate sinks collapsed
        assert stats.die_pin_counts[2] == 1
        assert stats.busiest_die() in (0, 1, 2)

    def test_empty_netlist(self):
        system = build_two_fpga_system()
        stats = netlist_stats(system, Netlist([]))
        assert stats.cross_fpga_fraction == 0.0
        assert stats.busiest_die() == -1

    def test_generator_matches_published_shape(self):
        """Generated case09 keeps the published intra-die-heavy profile."""
        from repro.benchgen import load_case

        case = load_case("case09", scale=0.05)
        stats = netlist_stats(case.system, case.netlist)
        assert stats.intra_die_nets > stats.num_nets / 2
