"""Tests for the JSON case/solution serialization."""

import json

import pytest

from repro import DelayModel, DesignRuleChecker, Net, Netlist, SynergisticRouter
from repro.io import (
    case_from_dict,
    case_to_dict,
    read_case_json,
    read_solution_json,
    solution_from_dict,
    solution_to_dict,
    write_case_json,
    write_solution_json,
)
from repro.io.json_format import JsonFormatError
from tests.conftest import build_two_fpga_system, random_netlist


@pytest.fixture
def case():
    system = build_two_fpga_system(sll_capacity=40, tdm_capacity=8)
    netlist = random_netlist(system, 25, seed=33)
    return system, netlist, DelayModel()


class TestCaseRoundTrip:
    def test_dict_round_trip(self, case):
        system, netlist, model = case
        data = case_to_dict(system, netlist, model)
        system2, netlist2, model2 = case_from_dict(data)
        assert system2.num_dies == system.num_dies
        assert [e.dies for e in system2.edges] == [e.dies for e in system.edges]
        assert [n.sink_dies for n in netlist2.nets] == [
            n.sink_dies for n in netlist.nets
        ]
        assert model2 == model

    def test_file_round_trip(self, case, tmp_path):
        system, netlist, model = case
        path = tmp_path / "case.json"
        write_case_json(path, system, netlist, model)
        system2, netlist2, model2 = read_case_json(path)
        assert netlist2.num_connections == netlist.num_connections
        # The file is genuine JSON.
        json.loads(path.read_text())

    def test_missing_fpgas_rejected(self):
        with pytest.raises(JsonFormatError):
            case_from_dict({"nets": []})

    @pytest.mark.parametrize(
        "data", [[], "x", {"params": []}], ids=["list", "string", "params-list"]
    )
    def test_non_object_rejected(self, data):
        with pytest.raises(JsonFormatError, match="malformed JSON case"):
            case_from_dict(data)

    def test_bad_net_rejected(self, case):
        system, netlist, model = case
        data = case_to_dict(system, netlist, model)
        data["nets"][0]["source"] = "not-a-number"
        with pytest.raises(JsonFormatError):
            case_from_dict(data)


class TestSolutionRoundTrip:
    def test_full_round_trip(self, case, tmp_path):
        system, netlist, model = case
        result = SynergisticRouter(system, netlist, model).route()
        path = tmp_path / "solution.json"
        write_solution_json(path, result.solution)
        parsed = read_solution_json(path, system, netlist)
        for conn in netlist.connections:
            assert parsed.path(conn.index) == result.solution.path(conn.index)
        assert parsed.ratios == result.solution.ratios
        assert DesignRuleChecker(system, netlist, model).check(parsed).is_clean

    def test_unknown_net_rejected(self, case):
        system, netlist, model = case
        with pytest.raises(JsonFormatError, match="unknown net"):
            solution_from_dict(
                {"paths": [{"net": "ghost", "sink": 1, "dies": [0, 1]}]},
                system,
                netlist,
            )

    def test_wrong_sink_rejected(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        with pytest.raises(JsonFormatError, match="no connection"):
            solution_from_dict(
                {"paths": [{"net": "a", "sink": 3, "dies": [0, 1, 2, 3]}]},
                system,
                netlist,
            )

    def test_wire_on_sll_edge_rejected(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        with pytest.raises(JsonFormatError, match="no TDM edge"):
            solution_from_dict(
                {
                    "wires": [
                        {
                            "die_a": 0,
                            "die_b": 1,
                            "direction": 0,
                            "ratio": 8,
                            "nets": ["a"],
                        }
                    ]
                },
                system,
                netlist,
            )

    def test_text_and_json_formats_agree(self, case):
        """Both serializations reconstruct identical solutions."""
        from repro.io import parse_solution, write_solution

        system, netlist, model = case
        result = SynergisticRouter(system, netlist, model).route()
        via_text = parse_solution(write_solution(result.solution), system, netlist)
        via_json = solution_from_dict(
            solution_to_dict(result.solution), system, netlist
        )
        assert via_text.ratios == via_json.ratios
        for conn in netlist.connections:
            assert via_text.path(conn.index) == via_json.path(conn.index)
