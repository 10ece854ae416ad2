"""Solution fingerprints: pinned bytes and the router's own delay.

:func:`repro.resilience.solution_fingerprint` is the bit-identity
contract (docs/resilience.md).  ``route_request`` hands it the router's
critical delay instead of re-timing the solution; these tests hold that
shortcut to the independent digest, and pin the digest's bytes.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.api import RouteRequest, solution_fingerprint, solution_state
from repro.arch.edges import TdmWire
from repro.netlist import Net, Netlist
from repro.route.solution import RoutingSolution
from repro.timing import DelayModel, TimingAnalyzer
from tests.conftest import build_two_fpga_system

#: The digest of :func:`_hand_built` at the default delay model.  A change
#: here is a change to every fingerprint the project has recorded.
PINNED = "802f050d69866af1a1751d36aa22b6b4e505a02910583a272679dc6f93aeb20a"


def _hand_built():
    """Three nets over both TDM edges, with ratios and packed wires."""
    system = build_two_fpga_system()
    netlist = Netlist(
        [Net("a", 0, (1, 4)), Net("b", 7, (0, 6)), Net("c", 3, (4,))]
    )
    solution = RoutingSolution(system, netlist)
    for index, path in enumerate(
        [[0, 1], [0, 1, 2, 3, 4], [7, 0], [7, 6], [3, 4]]
    ):
        solution.set_path(index, path)
    for net_index, edge_index, direction in solution.all_net_uses():
        ratio = 8.0 if net_index == 1 else 16.0
        solution.set_ratio(net_index, edge_index, direction, ratio)
    for edge_index, direction in sorted(
        {(edge, direction) for _, edge, direction in solution.all_net_uses()}
    ):
        wires = solution.wires.setdefault(edge_index, [])
        for net_index in solution.directed_tdm_nets(edge_index, direction):
            ratio = int(solution.ratio_of(net_index, edge_index, direction))
            wire = TdmWire(edge_index=edge_index, direction=direction, ratio=ratio)
            wire.add_net(net_index)
            solution.net_wire[(net_index, edge_index, direction)] = len(wires)
            wires.append(wire)
    return solution


class TestPinnedBytes:
    def test_digest_is_pinned(self):
        assert solution_fingerprint(_hand_built(), DelayModel()) == PINNED

    def test_state_renders_tuples_as_lists(self):
        state = solution_state(_hand_built(), DelayModel())
        assert json.loads(json.dumps(state, sort_keys=True)) == {
            "critical_delay": "11.5",
            "paths": [[0, 1], [0, 1, 2, 3, 4], [7, 0], [7, 6], [3, 4]],
            "ratios": [[[0, 6, 0], "16.0"], [[1, 7, 1], "8.0"], [[2, 6, 0], "16.0"]],
            "wires": [[[0, 16, [0]], [0, 16, [2]]], [[1, 8, [1]]]],
        }

    def test_given_delay_skips_the_analysis_and_keeps_the_digest(self, monkeypatch):
        solution = _hand_built()
        delay = TimingAnalyzer(
            solution.system, solution.netlist, DelayModel()
        ).critical_delay(solution)

        def refuse(*args, **kwargs):
            raise AssertionError("the fingerprint re-timed the solution")

        monkeypatch.setattr(TimingAnalyzer, "analyze", refuse)
        assert (
            solution_fingerprint(solution, DelayModel(), critical_delay=delay)
            == PINNED
        )

    def test_wrong_delay_changes_the_digest(self):
        solution = _hand_built()
        delay = TimingAnalyzer(
            solution.system, solution.netlist, DelayModel()
        ).critical_delay(solution)
        for wrong in (delay + 1.0, delay * (1 + 2**-52), 0.0):
            assert (
                solution_fingerprint(solution, DelayModel(), critical_delay=wrong)
                != PINNED
            )


def _route_and_check(monkeypatch, request):
    """Route ``request`` and compare its fingerprint to an independent one."""
    seen = []
    original = api.solution_fingerprint

    def spy(solution, delay_model=None, **kwargs):
        seen.append((solution, delay_model))
        return original(solution, delay_model, **kwargs)

    monkeypatch.setattr(api, "solution_fingerprint", spy)
    response = api.route_request(request)
    assert response.error is None
    [(solution, delay_model)] = seen
    assert response.fingerprint == original(solution, delay_model)
    return response


class TestRouteRequestFingerprint:
    @pytest.mark.parametrize("case", ["case02", "case05", "case07"])
    def test_cold(self, monkeypatch, case):
        response = _route_and_check(
            monkeypatch, RouteRequest(contest_case=case, warm_cache=False)
        )
        assert response.status == "ok"

    def test_resumed_from_phase2_assigned(self, monkeypatch, tmp_path):
        api.execute_request(
            RouteRequest(
                contest_case="case02",
                warm_cache=False,
                checkpoint_dir=str(tmp_path),
            )
        )
        [checkpoint] = [
            path
            for path in sorted(tmp_path.glob("ckpt_*.json"))
            if json.loads(path.read_text())["barrier"] == "phase2.assigned"
        ]
        _route_and_check(
            monkeypatch, RouteRequest(resume_from=str(checkpoint), warm_cache=False)
        )

    def test_budget_degraded(self, monkeypatch):
        response = _route_and_check(
            monkeypatch,
            RouteRequest(contest_case="case05", slo_seconds=0.0, warm_cache=False),
        )
        assert response.status == "degraded"
