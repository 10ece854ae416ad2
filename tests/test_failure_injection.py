"""Failure injection: corrupted inputs and states must fail loudly.

A production tool's worst failure mode is silently producing a wrong
answer; these tests corrupt solutions, files and arguments and assert the
library raises or reports — never swallows — the problem.
"""

import pytest

from repro import (
    DelayModel,
    DesignRuleChecker,
    Net,
    Netlist,
    SynergisticRouter,
)
from repro.drc import ViolationKind
from repro.io import case_from_dict, parse_case, parse_case_file, parse_solution
from repro.io.contest_format import CaseFormatError
from repro.io.json_format import JsonFormatError
from repro.io.solution_io import SolutionFormatError
from repro.timing import TimingAnalyzer
from tests.conftest import build_two_fpga_system, random_netlist


@pytest.fixture
def routed():
    system = build_two_fpga_system()
    netlist = random_netlist(system, 30, seed=50)
    result = SynergisticRouter(system, netlist).route()
    return system, netlist, result


class TestCorruptedSolutions:
    def test_deleted_wire_detected(self, routed):
        system, netlist, result = routed
        solution = result.solution
        edge_index = next(iter(solution.wires))
        solution.wires[edge_index] = solution.wires[edge_index][:-1]
        report = DesignRuleChecker(system, netlist, DelayModel()).check(solution)
        assert not report.is_clean

    def test_tampered_ratio_detected(self, routed):
        system, netlist, result = routed
        solution = result.solution
        use = next(iter(solution.ratios))
        solution.ratios[use] = solution.ratios[use] + 1  # not a step multiple
        report = DesignRuleChecker(system, netlist, DelayModel()).check(solution)
        assert report.count(ViolationKind.TDM_WIRE_RATIO) >= 1

    def test_cleared_path_detected(self, routed):
        system, netlist, result = routed
        result.solution.clear_path(0)
        report = DesignRuleChecker(system, netlist, DelayModel()).check(
            result.solution
        )
        assert report.count(ViolationKind.CONNECTIVITY) >= 1

    def test_timing_refuses_missing_ratio(self, routed):
        system, netlist, result = routed
        solution = result.solution
        use = next(iter(solution.ratios))
        del solution.ratios[use]
        analyzer = TimingAnalyzer(system, netlist, DelayModel())
        with pytest.raises(KeyError):
            analyzer.analyze(solution)


class TestCorruptedCaseFiles:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("GARBAGE\n", "unknown keyword"),
            ("FPGA f 0\n", "line 1"),
            ("FPGA f 2\nSLL 0 1 0\n", "line 2"),
            ("FPGA f 2\nSLL 0 9 4\n", "unknown die|references"),
            ("FPGA f 2\nFPGA g 2\nSLL 0 2 4\n", "crosses"),
            ("FPGA f 2\nFPGA g 2\nTDM 0 1 4\n", "same FPGA"),
            ("PARAM tdm_step -1\nFPGA f 2\nSLL 0 1 4\n", "tdm_step|positive"),
        ],
    )
    def test_malformed_cases_raise(self, text, match):
        with pytest.raises((CaseFormatError, ValueError)):
            parse_case(text)

    def test_truncated_solution_line(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        with pytest.raises(SolutionFormatError):
            parse_solution("PATH a\n", system, netlist)

    def test_solution_with_loop_rejected(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        with pytest.raises(SolutionFormatError):
            parse_solution("PATH a 1 0 1 0 1\n", system, netlist)


#: 2 FPGAs x 2 dies; each case's nets follow on line 6 of the text form.
_SYSTEM_LINES = "FPGA f0 2\nFPGA f1 2\nSLL 0 1 10\nSLL 2 3 10\nTDM 1 2 4\n"
_SYSTEM_DICT = {
    "fpgas": [{"name": "f0", "num_dies": 2}, {"name": "f1", "num_dies": 2}],
    "sll_edges": [[0, 1, 10], [2, 3, 10]],
    "tdm_edges": [[1, 2, 4]],
}


class TestMalformedNets:
    """Every intake path rejects a bad net with the same message."""

    CASES = {
        "negative_source": ([("a", -1, (1,))], "net 'a': source die must be non-negative"),
        "no_sinks": ([("a", 0, ())], "net 'a': a net needs at least one sink"),
        "negative_sink": ([("a", 0, (1, -2))], "net 'a': sink dies must be non-negative"),
        "duplicate_name": ([("a", 0, (1,)), ("a", 1, (0,))], "net names must be unique"),
        "die_out_of_range": (
            [("a", 0, (1,)), ("b", 0, (4,))],
            "netlist references die 4 but the system has only 4 dies",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_netlist(self, name):
        nets, message = self.CASES[name]
        with pytest.raises(ValueError) as info:
            Netlist([Net(*net) for net in nets]).validate_against(4)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_from_dict(self, name):
        nets, message = self.CASES[name]
        data = dict(
            _SYSTEM_DICT,
            nets=[{"name": n, "source": s, "sinks": list(k)} for n, s, k in nets],
        )
        with pytest.raises(JsonFormatError) as info:
            case_from_dict(data)
        assert str(info.value) == f"malformed JSON case: {message}"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_parse_case_file(self, name, tmp_path):
        nets, message = self.CASES[name]
        path = tmp_path / "bad.case"
        path.write_text(
            _SYSTEM_LINES
            + "".join(f"NET {n} {s} {' '.join(map(str, k))}\n" for n, s, k in nets)
        )
        with pytest.raises(ValueError) as info:
            parse_case_file(path)
        if name == "no_sinks":
            # The line parser rejects a sinkless NET before building it.
            message = "NET needs: name source sink..."
        # Whole-netlist checks name the second NET line: it repeats the
        # name or leaves the system.
        line = 7 if name in ("duplicate_name", "die_out_of_range") else 6
        assert isinstance(info.value, CaseFormatError)
        assert str(info.value) == f"line {line}: {message}"


class TestBadArguments:
    def test_router_rejects_foreign_netlist(self):
        system = build_two_fpga_system()
        foreign = Netlist([Net("a", 0, (99,))])
        with pytest.raises(ValueError, match="references die"):
            SynergisticRouter(system, foreign)

    def test_eco_rejects_unknown_nets(self, routed):
        from repro.core.eco import EcoRouter

        system, netlist, result = routed
        with pytest.raises(ValueError):
            EcoRouter(system).reroute_nets(result.solution, [-1])

    def test_set_path_rejects_teleporting(self, routed):
        system, netlist, result = routed
        conn = netlist.connections[0]
        bad = [conn.source_die, conn.sink_die]
        if system.edge_between(*bad) is None:
            with pytest.raises(ValueError):
                result.solution.set_path(0, bad)

    def test_delay_model_is_immutable(self):
        model = DelayModel()
        with pytest.raises(AttributeError):
            model.d_sll = 99.0


class TestDrcCrossValidation:
    def test_independent_reevaluation_matches(self, routed):
        """The CLI-style check pipeline agrees with the router's numbers."""
        from repro.io import parse_solution, write_case, write_solution

        system, netlist, result = routed
        model = DelayModel()
        case_text = write_case(system, netlist, model)
        solution_text = write_solution(result.solution)
        system2, netlist2, model2 = parse_case(case_text)
        solution2 = parse_solution(solution_text, system2, netlist2)
        analyzer = TimingAnalyzer(system2, netlist2, model2)
        assert analyzer.critical_delay(solution2) == pytest.approx(
            result.critical_delay
        )
        assert DesignRuleChecker(system2, netlist2, model2).check(solution2).is_clean