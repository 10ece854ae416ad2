"""Tests for incremental (ECO) rerouting."""

import pytest

from repro import (
    DelayModel,
    DesignRuleChecker,
    Net,
    Netlist,
    RouterConfig,
    SynergisticRouter,
)
from repro.benchgen import RevisionSpec, revise_netlist
from repro.core.eco import EcoRouter
from repro.obs import InMemorySink, Tracer
from repro.resilience.fingerprint import solution_fingerprint
from tests.conftest import build_two_fpga_system, random_netlist


@pytest.fixture
def base_case():
    system = build_two_fpga_system(sll_capacity=150, tdm_capacity=16)
    netlist = random_netlist(system, 50, seed=21)
    result = SynergisticRouter(system, netlist).route()
    return system, netlist, result


class TestRerouteNets:
    def test_result_is_legal(self, base_case):
        system, netlist, result = base_case
        eco = EcoRouter(system)
        outcome = eco.reroute_nets(result.solution, [0, 1, 2])
        report = DesignRuleChecker(system, netlist, DelayModel()).check(
            outcome.solution
        )
        assert report.is_clean
        assert outcome.conflict_count == 0

    def test_untouched_nets_keep_paths(self, base_case):
        system, netlist, result = base_case
        eco = EcoRouter(system)
        outcome = eco.reroute_nets(result.solution, [0])
        for conn in netlist.connections:
            if conn.net_index == 0 or conn.net_index in outcome.disturbed_nets:
                continue
            assert outcome.solution.path(conn.index) == result.solution.path(
                conn.index
            )

    def test_reroute_counts(self, base_case):
        system, netlist, result = base_case
        eco = EcoRouter(system)
        outcome = eco.reroute_nets(result.solution, [3])
        expected = len(netlist.connections_of(3))
        assert outcome.rerouted_connections >= expected

    def test_unknown_net_rejected(self, base_case):
        system, netlist, result = base_case
        with pytest.raises(ValueError):
            EcoRouter(system).reroute_nets(result.solution, [9999])

    def test_empty_set_is_noop_topologically(self, base_case):
        system, netlist, result = base_case
        outcome = EcoRouter(system).reroute_nets(result.solution, [])
        for conn in netlist.connections:
            assert outcome.solution.path(conn.index) == result.solution.path(
                conn.index
            )


class TestMigrate:
    def test_identical_netlist_preserves_everything(self, base_case):
        system, netlist, result = base_case
        clone = Netlist(
            [Net(n.name, n.source_die, n.sink_dies) for n in netlist.nets]
        )
        outcome = EcoRouter(system).migrate(result.solution, clone)
        assert outcome.preserved_connections == netlist.num_connections
        assert outcome.rerouted_connections == 0
        assert outcome.conflict_count == 0

    def test_added_net_is_routed(self, base_case):
        system, netlist, result = base_case
        nets = [Net(n.name, n.source_die, n.sink_dies) for n in netlist.nets]
        nets.append(Net("brand_new", 0, (7,)))
        new_netlist = Netlist(nets)
        outcome = EcoRouter(system).migrate(result.solution, new_netlist)
        new_net = new_netlist.net_by_name("brand_new")
        for conn in new_netlist.connections_of(new_net.index):
            assert outcome.solution.path(conn.index) is not None
        assert outcome.rerouted_connections >= 1

    def test_modified_net_is_rerouted(self, base_case):
        system, netlist, result = base_case
        nets = []
        for n in netlist.nets:
            if n.index == 0:
                # Move net 0's sink somewhere else.
                new_sink = (n.sink_dies[0] + 1) % system.num_dies
                if new_sink == n.source_die:
                    new_sink = (new_sink + 1) % system.num_dies
                nets.append(Net(n.name, n.source_die, (new_sink,)))
            else:
                nets.append(Net(n.name, n.source_die, n.sink_dies))
        new_netlist = Netlist(nets)
        outcome = EcoRouter(system).migrate(result.solution, new_netlist)
        assert outcome.conflict_count == 0
        report = DesignRuleChecker(system, new_netlist, DelayModel()).check(
            outcome.solution
        )
        assert report.is_clean

    def test_removed_net_disappears(self, base_case):
        system, netlist, result = base_case
        nets = [
            Net(n.name, n.source_die, n.sink_dies)
            for n in netlist.nets
            if n.index != 1
        ]
        new_netlist = Netlist(nets)
        outcome = EcoRouter(system).migrate(result.solution, new_netlist)
        assert new_netlist.net_by_name(netlist.net(1).name) is None
        assert outcome.conflict_count == 0

    def test_migration_keeps_quality_close(self, base_case):
        """Migrating an unchanged netlist should not blow up the delay."""
        system, netlist, result = base_case
        clone = Netlist(
            [Net(n.name, n.source_die, n.sink_dies) for n in netlist.nets]
        )
        outcome = EcoRouter(system).migrate(result.solution, clone)
        assert outcome.critical_delay <= result.critical_delay * 1.25 + 1e-9


class TestNegotiation:
    def test_infinite_ripup_factor(self):
        """``ripup_factor=inf`` rips every net on an overflowed edge."""
        system = build_two_fpga_system(sll_capacity=3)
        netlist = random_netlist(system, 40, seed=0)
        base = SynergisticRouter(system, netlist).route()
        # The carried paths overflow, so the ECO must negotiate.
        assert base.conflict_count > 0
        config = RouterConfig(ripup_factor=float("inf"))
        outcome = EcoRouter(system, config=config).reroute_nets(
            base.solution, [0]
        )
        # Only negotiation reroutes carried paths: it ran.
        assert outcome.disturbed_nets
        assert outcome.rerouted_connections > len(netlist.connections_of(0))
        assert outcome.solution.is_complete
        assert outcome.conflict_count == outcome.solution.conflict_count()


class TestGoldenFingerprints:
    """ECO results pinned bit for bit, on cases where negotiation moves
    carried nets (``disturbed_nets`` non-empty)."""

    def test_migrate(self):
        system = build_two_fpga_system(sll_capacity=22, tdm_capacity=8)
        netlist = random_netlist(system, 40, seed=0)
        base = SynergisticRouter(system, netlist).route()
        spec = RevisionSpec(
            retarget_fraction=0.1, remove_fraction=0.05, add_fraction=0.1, seed=3
        )
        revision = revise_netlist(netlist, system.num_dies, spec)
        outcome = EcoRouter(system).migrate(base.solution, revision)
        assert sorted(outcome.disturbed_nets) == [10, 13, 20]
        assert outcome.rerouted_connections == 18
        assert outcome.preserved_connections == 65
        assert outcome.conflict_count == 0
        assert outcome.critical_delay == 14.5
        assert solution_fingerprint(outcome.solution, DelayModel()) == (
            "a1258be2b31cba04e9cfe8bb3c2b2e61784db471aab55ab3b3e1d6627394c836"
        )

    def test_reroute_nets_with_prev_incidence(self):
        system = build_two_fpga_system(sll_capacity=20, tdm_capacity=8)
        netlist = random_netlist(system, 40, seed=3)
        base = SynergisticRouter(system, netlist).route()
        outcome = EcoRouter(system).reroute_nets(base.solution, [12, 13])
        assert sorted(outcome.disturbed_nets) == [18, 31]
        assert outcome.rerouted_connections == 7
        assert outcome.conflict_count == 0
        assert outcome.critical_delay == 14.5
        assert solution_fingerprint(outcome.solution, DelayModel()) == (
            "e1af80de08db97f27d07cfddb74dbc6d2f718991be587dd2f2fef3f51c9b86f2"
        )


def _outcome(result):
    """Everything an :class:`EcoResult` reports, solution as a fingerprint."""
    return (
        solution_fingerprint(result.solution, DelayModel()),
        result.critical_delay,
        result.conflict_count,
        result.rerouted_connections,
        result.preserved_connections,
        sorted(result.disturbed_nets),
    )


class TestTracing:
    def test_traced_migrate_records_both_phases(self):
        system = build_two_fpga_system(sll_capacity=22, tdm_capacity=8)
        netlist = random_netlist(system, 40, seed=0)
        base = SynergisticRouter(system, netlist).route()
        spec = RevisionSpec(
            retarget_fraction=0.1, remove_fraction=0.05, add_fraction=0.1, seed=3
        )
        revision = revise_netlist(netlist, system.num_dies, spec)
        sink = InMemorySink()
        tracer = Tracer(sink)
        traced = EcoRouter(system, tracer=tracer).migrate(base.solution, revision)
        spans = {event["name"] for event in sink.events if event["type"] == "span"}
        assert {
            "phase.initial_routing",
            "ir.first_pass",
            "phase.tdm_assignment",
            "phase.legalization_wire_assignment",
        } <= spans
        assert tracer.counter("ir.connections_routed") > 0
        untraced = EcoRouter(system).migrate(base.solution, revision)
        assert _outcome(traced) == _outcome(untraced)


def sink_die_carried(old_solution, new_netlist):
    """Oracle: the per-net ``{sink_die: index}`` carry-over that the
    connection-slice copy replaced."""
    old_netlist = old_solution.netlist
    carried = [None] * new_netlist.num_connections
    for net in new_netlist.nets:
        old_net = old_netlist.net_by_name(net.name)
        if (
            old_net is None
            or old_net.source_die != net.source_die
            or old_net.sink_dies != net.sink_dies
        ):
            continue
        old_conns = {
            conn.sink_die: conn.index
            for conn in old_netlist.connections_of(old_net.index)
        }
        for conn in new_netlist.connections_of(net.index):
            old_index = old_conns.get(conn.sink_die)
            if old_index is not None:
                carried[conn.index] = old_solution.path(old_index)
    return carried


class TestCarryOver:
    @staticmethod
    def _migrate(monkeypatch, system, old_solution, new_netlist):
        """``migrate``'s outcome and the carried paths it handed phase I."""
        seen = []
        original = EcoRouter._route_missing

        def spy(self, netlist, carried):
            seen.append(carried.paths())
            return original(self, netlist, carried)

        monkeypatch.setattr(EcoRouter, "_route_missing", spy)
        outcome = EcoRouter(system).migrate(old_solution, new_netlist)
        return outcome, seen[0]

    @staticmethod
    def _with_changed_pins(revision, system):
        """The revision with three surviving names changed in place: one
        gets a new source die, one its sinks reversed, one an extra sink."""
        nets = list(revision.nets)
        moved, grown = nets[0], nets[1]
        reversed_ = next(n for n in nets[2:] if len(n.sink_dies) >= 2)
        source = (moved.source_die + 1) % system.num_dies
        nets[moved.index] = Net(moved.name, source, moved.sink_dies)
        nets[reversed_.index] = Net(
            reversed_.name, reversed_.source_die, reversed_.sink_dies[::-1]
        )
        extra = next(d for d in range(system.num_dies) if d not in grown.sink_dies)
        nets[grown.index] = Net(grown.name, grown.source_die, grown.sink_dies + (extra,))
        return Netlist(nets), (moved.name, reversed_.name, grown.name)

    @pytest.mark.parametrize("seed", range(4))
    def test_slices_match_sink_die_mapping(self, seed, monkeypatch):
        system = build_two_fpga_system(sll_capacity=150, tdm_capacity=16)
        netlist = random_netlist(system, 60, seed=seed)
        base = SynergisticRouter(system, netlist).route().solution
        # An old solution with a few unrouted connections.
        old = base.copy_topology()
        for conn_index in (0, 5, 11):
            old.clear_path(conn_index)
        spec = RevisionSpec(
            retarget_fraction=0.1, remove_fraction=0.1, add_fraction=0.1, seed=seed
        )
        revision, changed = self._with_changed_pins(
            revise_netlist(netlist, system.num_dies, spec), system
        )
        outcome, carried = self._migrate(monkeypatch, system, old, revision)
        expected = sink_die_carried(old, revision)
        assert carried == expected
        assert outcome.preserved_connections == sum(p is not None for p in expected)
        for name in changed:
            net = revision.net_by_name(name)
            assert netlist.net_by_name(name) is not None
            assert all(
                carried[index] is None
                for index in revision.connection_indices_of(net.index)
            )
        assert outcome.solution.is_complete
        assert outcome.conflict_count == 0
