"""In-process tests for the ``repro`` command and its subcommand modules."""

import json

import pytest

from repro import __version__
from repro.cli.evaluate import main as eval_main
from repro.cli.generate import main as gen_main
from repro.cli.main import main as route_main
from repro.cli.unified import _SUBCOMMANDS
from repro.cli.unified import main as unified_main


def one_line_error(argv, capsys):
    """Run ``repro <argv>``; assert exit 2 with one stderr line and
    nothing on stdout, and return that line."""
    capsys.readouterr()  # drop what fixtures printed
    code = unified_main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.fixture
def case_file(tmp_path):
    gen_main(["case02", "--out-dir", str(tmp_path)])
    path = tmp_path / "case02.case"
    assert path.exists()
    return path


class TestReproGen:
    def test_stats_only_writes_nothing(self, tmp_path, capsys):
        code = gen_main(["case01", "--stats", "--out-dir", str(tmp_path / "x")])
        assert code == 0
        assert not (tmp_path / "x").exists()
        out = capsys.readouterr().out
        assert "case01" in out

    def test_generates_files(self, case_file):
        text = case_file.read_text()
        assert "FPGA" in text and "NET" in text


class TestReproRoute:
    def test_route_case_file(self, case_file, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code = route_main(
            ["--case-file", str(case_file), "--output", str(out), "--drc"]
        )
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "critical delay" in printed
        assert "DRC clean" in printed

    def test_route_contest_case(self, capsys):
        code = route_main(["--contest-case", "1", "--quiet"])
        assert code == 0

    def test_baseline_router_selection(self, capsys):
        code = route_main(["--contest-case", "1", "--router", "winner2", "--quiet"])
        assert code == 0

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            route_main(["--contest-case", "1", "--router", "bogus"])

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            route_main(["--quiet"])


class TestReportAndJsonFlags:
    def test_json_solution_round_trip(self, case_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert (
            route_main(
                ["--case-file", str(case_file), "-o", str(out), "--json", "--quiet"]
            )
            == 0
        )
        import json

        json.loads(out.read_text())  # genuinely JSON
        code = eval_main([str(case_file), str(out), "--json"])
        assert code == 0
        assert "DRC clean" in capsys.readouterr().out

    def test_precheck_passes_on_feasible_case(self, case_file, capsys):
        code = route_main(["--case-file", str(case_file), "--precheck", "--quiet"])
        assert code == 0

    def test_precheck_aborts_on_infeasible_case(self, tmp_path, capsys):
        case = tmp_path / "impossible.case"
        case.write_text(
            "FPGA a 3\nFPGA b 1\n"
            "SLL 0 1 2\nSLL 1 2 2\nTDM 0 3 8\n"
            + "".join(f"NET n{i} 1 0\n" for i in range(5))
        )
        code = route_main(["--case-file", str(case), "--precheck", "--quiet"])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_and_metrics_out_end_to_end(self, case_file, tmp_path):
        import json

        from repro.obs import read_jsonl, validate_run_report

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "report.json"
        code = route_main(
            [
                "--case-file",
                str(case_file),
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
                "--quiet",
            ]
        )
        assert code == 0
        events = read_jsonl(trace)
        types = {e["type"] for e in events}
        assert {"span", "counter", "event"} <= types
        names = {e.get("name") for e in events}
        assert "phase.initial_routing" in names
        assert "lr.iteration" in names
        assert "ir.iteration" in names
        doc = json.loads(metrics.read_text())
        assert validate_run_report(doc) == []
        assert doc["result"]["conflict_count"] == 0
        phases = doc["phase_times"]
        assert phases["total"] == pytest.approx(
            phases["initial_routing"]
            + phases["tdm_assignment"]
            + phases["legalization_wire_assignment"]
        )
        assert doc["telemetry"]["counters"]["dijkstra.pops"] > 0

    def test_metrics_out_alone(self, case_file, tmp_path, capsys):
        import json

        from repro.obs import validate_run_report

        metrics = tmp_path / "report.json"
        code = route_main(
            ["--case-file", str(case_file), "--metrics-out", str(metrics)]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert validate_run_report(doc) == []
        assert doc["lr"] is not None and doc["lr"]["num_iterations"] > 0
        assert "run report written" in capsys.readouterr().out

    def test_metrics_out_with_baseline_router(self, case_file, tmp_path):
        import json

        from repro.obs import validate_run_report

        metrics = tmp_path / "report.json"
        code = route_main(
            [
                "--case-file",
                str(case_file),
                "--router",
                "winner1",
                "--metrics-out",
                str(metrics),
                "--quiet",
            ]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert validate_run_report(doc) == []
        assert doc["telemetry"] is None  # baselines are uninstrumented

    def test_log_level_flag_emits_progress_lines(self, case_file, capsys):
        import logging

        code = route_main(
            ["--case-file", str(case_file), "--log-level", "info", "--quiet"]
        )
        try:
            assert code == 0
            err = capsys.readouterr().err
            assert "repro.core" in err
            assert "routing done" in err
        finally:
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)


class TestVersionFlags:
    @pytest.mark.parametrize(
        "entry",
        [route_main, eval_main, gen_main],
    )
    def test_version_exits_zero(self, entry, capsys):
        with pytest.raises(SystemExit) as excinfo:
            entry(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestReproEval:
    def test_eval_round_trip(self, case_file, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        assert route_main(["--case-file", str(case_file), "-o", str(out), "--quiet"]) == 0
        code = eval_main([str(case_file), str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "DRC clean" in printed
        assert "critical delay" in printed

    def test_eval_flags_incomplete_solution(self, case_file, tmp_path, capsys):
        sol = tmp_path / "partial.txt"
        sol.write_text("# empty solution\n")
        code = eval_main([str(case_file), str(sol)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "unrouted" in printed

    def test_eval_flags_a_tdm_use_without_a_wire(self, case_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        assert route_main(["--case-file", str(case_file), "-o", str(sol), "--quiet"]) == 0
        lines = sol.read_text().splitlines(keepends=True)
        first_wire = next(i for i, line in enumerate(lines) if line.startswith("WIRE"))
        sol.write_text("".join(lines[:first_wire] + lines[first_wire + 1 :]))
        capsys.readouterr()
        code = eval_main([str(case_file), str(sol)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert "[tdm_assignment]" in captured.out
        assert "critical delay : unknown" in captured.out


class TestUnifiedCli:
    def test_help_lists_every_subcommand(self, capsys):
        assert unified_main([]) == 0
        out = capsys.readouterr().out
        for name in ("route", "evaluate", "generate", "lint", "resume"):
            assert name in out

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_every_subcommand_loads(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            unified_main([name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out

    def test_partition_is_an_unknown_command(self, capsys):
        assert unified_main(["partition"]) == 2
        assert "unknown command 'partition'" in capsys.readouterr().err

    def test_unknown_command_fails_with_usage(self, capsys):
        assert unified_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err

    def test_version(self, capsys):
        assert unified_main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_route_and_evaluate_delegate(self, case_file, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code = unified_main(
            ["route", "--case-file", str(case_file), "-o", str(out), "--quiet"]
        )
        assert code == 0
        assert unified_main(["evaluate", str(case_file), str(out)]) == 0
        assert "DRC clean" in capsys.readouterr().out

    def test_route_checkpoint_then_resume(self, case_file, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        sol_a = tmp_path / "a.txt"
        sol_b = tmp_path / "b.txt"
        code = unified_main(
            [
                "route",
                "--case-file",
                str(case_file),
                "--checkpoint-dir",
                str(ckpts),
                "-o",
                str(sol_a),
                "--quiet",
            ]
        )
        assert code == 0
        assert list(ckpts.glob("ckpt_*.json"))
        code = unified_main(["resume", str(ckpts), "-o", str(sol_b), "--quiet"])
        assert code == 0
        assert sol_a.read_text() == sol_b.read_text()

    def test_lint_delegates(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import repro.core.router\n")
        unified_main(["lint", str(tmp_path)])
        # outside cli/examples scope REPRO011 stays quiet; the command ran
        assert "scanned" in capsys.readouterr().out


@pytest.fixture(scope="module")
def case02_checkpoints(tmp_path_factory):
    """The last checkpoint of each barrier one case02 run writes."""
    from repro.api import RouteRequest, execute_request

    directory = tmp_path_factory.mktemp("case02_ckpts")
    execute_request(
        RouteRequest(
            contest_case="case02", warm_cache=False, checkpoint_dir=str(directory)
        )
    )
    return {
        json.loads(path.read_text())["barrier"]: path
        for path in sorted(directory.glob("ckpt_*.json"))
    }


BAD_SCALE = "scale must be in (0, 1]"


class TestRouteErrors:
    """A bad case file, case name or scale fails with one stderr line
    and exit 2."""

    SYSTEM = "FPGA f 2\nFPGA g 2\nSLL 0 1 4\nSLL 2 3 4\nTDM 1 2 4\n"

    def _route_error(self, path, capsys):
        return one_line_error(["route", "--case-file", str(path), "--quiet"], capsys)

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.case"
        assert self._route_error(path, capsys) == (
            f"repro route: no such file: {path}"
        )

    def test_unreadable_file(self, tmp_path, capsys):
        line = self._route_error(tmp_path, capsys)
        assert line.startswith("repro route: cannot read case file: ")

    def test_binary_file(self, tmp_path, capsys):
        path = tmp_path / "bad.case"
        path.write_bytes(b"\x9a\xff\x00NET")
        line = self._route_error(path, capsys)
        assert line.startswith("repro route: invalid case file: not a text case file: ")

    @pytest.mark.parametrize(
        "nets,message",
        [
            ("NET a -1 1\n", "line 6: net 'a': source die must be non-negative"),
            ("NET a 0 1\nNET a 1 0\n", "line 7: net names must be unique"),
            (
                "NET a 0 1\nNET b 0 4\n",
                "line 7: netlist references die 4 but the system has only 4 dies",
            ),
            ("SLL 0 9 4\nNET a 0 1\n", "edge 2 references unknown die 9"),
        ],
        ids=["negative_source", "duplicate_name", "die_out_of_range", "edge_off_system"],
    )
    def test_malformed_case(self, nets, message, tmp_path, capsys):
        path = tmp_path / "bad.case"
        path.write_text(self.SYSTEM + nets)
        assert self._route_error(path, capsys) == (
            f"repro route: invalid case file: {message}"
        )

    def test_unknown_contest_case(self, capsys):
        line = one_line_error(["route", "--contest-case", "case99"], capsys)
        assert line.startswith("repro route: unknown contest case 'case99'; valid: ")

    @pytest.mark.parametrize("scale", ["-1", "0"])
    def test_scale_out_of_range(self, scale, capsys):
        line = one_line_error(
            ["route", "--contest-case", "case02", "--scale", scale], capsys
        )
        assert line == f"repro route: invalid --scale {float(scale)}: {BAD_SCALE}"


class TestEvaluateErrors:
    """A bad case or solution file fails with one stderr line and exit 2."""

    def _evaluate_error(self, case, solution, capsys, *flags):
        return one_line_error(["evaluate", str(case), str(solution), *flags], capsys)

    def test_missing_case_file(self, tmp_path, capsys):
        path = tmp_path / "nope.case"
        assert self._evaluate_error(path, tmp_path / "sol.txt", capsys) == (
            f"repro evaluate: no such file: {path}"
        )

    def test_malformed_case_file(self, tmp_path, capsys):
        path = tmp_path / "bad.case"
        path.write_text(TestRouteErrors.SYSTEM + "NET a -1 1\n")
        assert self._evaluate_error(path, tmp_path / "sol.txt", capsys) == (
            "repro evaluate: invalid case file: line 6: net 'a': source die "
            "must be non-negative"
        )

    def test_missing_solution_file(self, case_file, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        assert self._evaluate_error(case_file, path, capsys) == (
            f"repro evaluate: no such file: {path}"
        )

    def test_malformed_text_solution(self, case_file, tmp_path, capsys):
        path = tmp_path / "sol.txt"
        path.write_text("garbage line\n")
        assert self._evaluate_error(case_file, path, capsys) == (
            "repro evaluate: invalid solution file: line 1: unknown keyword 'garbage'"
        )

    def test_json_solution_that_is_not_json(self, case_file, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text("garbage line\n")
        line = self._evaluate_error(case_file, path, capsys, "--json")
        assert line.startswith("repro evaluate: invalid solution file: Expecting value")

    @pytest.mark.parametrize("doc", [{"paths": 5}, []], ids=["paths_not_a_list", "list"])
    def test_json_solution_of_the_wrong_shape(self, doc, case_file, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps(doc))
        line = self._evaluate_error(case_file, path, capsys, "--json")
        assert line.startswith(
            "repro evaluate: invalid solution file: malformed JSON solution: "
        )


class TestGenerateErrors:
    """A bad case name or scale fails with one stderr line and exit 2."""

    def test_unknown_contest_case(self, tmp_path, capsys):
        line = one_line_error(["generate", "case99", "--out-dir", str(tmp_path)], capsys)
        assert line.startswith("repro generate: unknown contest case 'case99'")

    def test_scale_out_of_range(self, tmp_path, capsys):
        line = one_line_error(
            ["generate", "--scale", "-2", "case02", "--out-dir", str(tmp_path)], capsys
        )
        assert line == f"repro generate: invalid --scale -2.0: {BAD_SCALE}"


class TestResumeErrors:
    """Bad checkpoint inputs fail with one stderr line and exit 2."""

    def _resume_error(self, path, capsys):
        code = unified_main(["resume", str(path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro resume: ")
        return lines[0]

    def test_missing_path(self, tmp_path, capsys):
        line = self._resume_error(tmp_path / "nope.json", capsys)
        assert "no such file" in line

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "ckpt_0000.json"
        path.write_text("not json {")
        assert "not JSON" in self._resume_error(path, capsys)

    def test_empty_directory(self, tmp_path, capsys):
        assert "no checkpoints" in self._resume_error(tmp_path, capsys)

    def _edited(self, source, tmp_path, **fields):
        """A copy of checkpoint ``source`` with top-level fields replaced."""
        doc = json.loads(source.read_text())
        doc.update(fields)
        path = tmp_path / source.name
        path.write_text(json.dumps(doc))
        return path

    def test_malformed_case(self, case02_checkpoints, tmp_path, capsys):
        path = self._edited(case02_checkpoints["final"], tmp_path, case={})
        assert "case: " in self._resume_error(path, capsys)

    def test_case_params_not_an_object(self, case02_checkpoints, tmp_path, capsys):
        source = case02_checkpoints["final"]
        case = json.loads(source.read_text())["case"]
        path = self._edited(source, tmp_path, case=dict(case, params=[]))
        assert "case: malformed JSON case" in self._resume_error(path, capsys)

    def test_malformed_config(self, case02_checkpoints, tmp_path, capsys):
        path = self._edited(
            case02_checkpoints["final"], tmp_path, config={"mu": 0.5}
        )
        assert "config: " in self._resume_error(path, capsys)

    @pytest.mark.parametrize(
        "barrier",
        [
            "phase1.done",
            "phase2.lr",
            "phase2.legalized",
            "phase2.assigned",
            "phase2.round",
            "final",
        ],
    )
    def test_payload_without_resume_state(
        self, case02_checkpoints, barrier, tmp_path, capsys
    ):
        path = self._edited(case02_checkpoints[barrier], tmp_path, payload={})
        assert f"{barrier} payload lacks" in self._resume_error(path, capsys)

    @pytest.mark.parametrize(
        "barrier,key,kind",
        [("final", "solution", "an object"), ("phase1.done", "paths", "an array")],
    )
    def test_payload_value_of_wrong_type(
        self, case02_checkpoints, barrier, key, kind, tmp_path, capsys
    ):
        source = case02_checkpoints[barrier]
        payload = dict(json.loads(source.read_text())["payload"], **{key: 5})
        path = self._edited(source, tmp_path, payload=payload)
        line = self._resume_error(path, capsys)
        assert f"{barrier} payload {key} must be {kind}" in line

    @pytest.mark.parametrize(
        "barrier,key,edit,message",
        [
            ("phase2.lr", "ratios", lambda v: v[:-1], "ratios has"),
            ("phase2.lr", "ratios", lambda v: v + v[-1:], "ratios has"),
            ("phase2.lr", "ratios", lambda v: [-1.0] + v[1:], "must be positive"),
            ("phase2.legalized", "wire_budgets", lambda v: v[:-1], "missing [("),
            ("phase2.legalized", "criticality", lambda v: v[:-1], "criticality has"),
            (
                "phase2.legalized",
                "legal_ratios",
                lambda v: [v[0] + 1.0] + v[1:],
                "multiples of the TDM step",
            ),
            (
                "phase2.legalized",
                "wire_budgets",
                lambda v: [[e, d, b + 1000] for e, d, b in v],
                "over its capacity",
            ),
        ],
        ids=[
            "ratios-one-short",
            "ratios-one-extra",
            "ratios-negative",
            "budgets-one-missing",
            "criticality-one-short",
            "legal-ratio-off-step",
            "budgets-over-capacity",
        ],
    )
    def test_payload_arrays_must_fit_the_topology(
        self, case02_checkpoints, barrier, key, edit, message, tmp_path, capsys
    ):
        source = case02_checkpoints[barrier]
        doc = json.loads(source.read_text())
        doc["payload"][key] = edit(doc["payload"][key])
        path = tmp_path / source.name
        path.write_text(json.dumps(doc))
        line = self._resume_error(path, capsys)
        assert line.startswith(f"repro resume: invalid checkpoint: {barrier} ")
        assert message in line

    @pytest.mark.parametrize(
        "barrier,edit,message",
        [
            (
                "phase1.done",
                lambda paths: [paths[0][::-1]] + paths[1:],
                "phase1.done payload paths: "
                "path [3, 2] does not run from die 2 to die 3",
            ),
            ("phase1.done", lambda paths: paths[:-1], "paths for"),
            (
                "phase1.done",
                lambda paths: [[2, 5, 3]] + paths[1:],
                "dies 2 and 5 are not adjacent",
            ),
            ("phase1.done", lambda paths: [[2, "x"]] + paths[1:], "invalid literal"),
            (
                "phase1.done",
                lambda paths: [None] + paths[1:],
                "phase1.done payload paths leaves connection 0 unrouted",
            ),
            (
                "phase1.round",
                lambda paths: [paths[0][::-1]] + paths[1:],
                "phase1.round payload paths: path [3, 2] does not run",
            ),
            (
                "phase2.lr",
                lambda paths: [paths[0][::-1]] + paths[1:],
                "phase2.lr payload paths: path [3, 2] does not run",
            ),
        ],
        ids=[
            "done-reversed",
            "done-one-short",
            "done-not-adjacent",
            "done-not-an-int",
            "done-unrouted",
            "round-reversed",
            "lr-reversed",
        ],
    )
    def test_malformed_paths(
        self, case02_checkpoints, barrier, edit, message, tmp_path, capsys
    ):
        # case02 negotiates no round; a phase1.done payload is the
        # phase1.round payload of its last round.
        source = case02_checkpoints[
            "phase1.done" if barrier == "phase1.round" else barrier
        ]
        doc = json.loads(source.read_text())
        doc["barrier"] = barrier
        doc["payload"]["paths"] = edit(doc["payload"]["paths"])
        path = tmp_path / source.name
        path.write_text(json.dumps(doc))
        line = self._resume_error(path, capsys)
        assert line.startswith(f"repro resume: invalid checkpoint: {barrier} ")
        assert message in line

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda entries: [dict(entries[0], dies=entries[0]["dies"][::-1])]
                + entries[1:],
                "phase2.assigned payload solution: malformed JSON solution: "
                "path [3, 2] does not run from die 2 to die 3",
            ),
            (
                lambda entries: entries[1:],
                "phase2.assigned payload solution leaves connection 0 unrouted",
            ),
        ],
        ids=["reversed", "one-short"],
    )
    def test_malformed_solution_paths(
        self, case02_checkpoints, edit, message, tmp_path, capsys
    ):
        source = case02_checkpoints["phase2.assigned"]
        doc = json.loads(source.read_text())
        solution = doc["payload"]["solution"]
        solution["paths"] = edit(solution["paths"])
        path = tmp_path / source.name
        path.write_text(json.dumps(doc))
        assert message in self._resume_error(path, capsys)

    @pytest.mark.parametrize(
        "barrier,key,edit,message",
        [
            (
                "phase1.round",
                "history",
                lambda v: v[:-1],
                "phase1.round payload history has 7 entries, "
                "expected one per edge (8)",
            ),
            (
                "phase1.done",
                "stats",
                lambda v: {},
                "phase1.done payload stats lacks 'negotiation_rounds'",
            ),
            (
                "phase2.lr",
                "lr_history",
                lambda v: {},
                "phase2.lr payload lr_history lacks 'iterations'",
            ),
            (
                "phase2.assigned",
                "initial_stats",
                lambda v: {},
                "phase2.assigned payload initial_stats lacks 'negotiation_rounds'",
            ),
            (
                "phase2.assigned",
                "wire_stats",
                lambda v: {"bogus": 1},
                "phase2.assigned payload wire_stats lacks 'wires_used'",
            ),
            (
                "final",
                "solution",
                lambda v: dict(v, wires=v["wires"][1:]),
                "without a TDM ratio and wire",
            ),
            (
                "phase2.lr",
                "multipliers",
                lambda v: [1.0],
                "phase2.lr payload multipliers has 1 entries, "
                "expected one per connection (155)",
            ),
            (
                "phase2.round",
                "multipliers",
                lambda v: v[:-1] + [float("inf")],
                "phase2.round payload multipliers must be finite",
            ),
            (
                "phase2.round",
                "moves",
                lambda v: "two",
                "phase2.round payload moves: invalid literal for int()",
            ),
        ],
        ids=[
            "round-history-one-short",
            "done-stats-empty",
            "lr-history-empty",
            "assigned-initial-stats-empty",
            "assigned-wire-stats-bogus",
            "final-one-wire-dropped",
            "lr-multipliers-one-entry",
            "round-multipliers-infinite",
            "round-moves-not-an-int",
        ],
    )
    def test_malformed_payload_fields(
        self, case02_checkpoints, barrier, key, edit, message, tmp_path, capsys
    ):
        # case02 negotiates no round; a phase1.done payload is the
        # phase1.round payload of its last round.
        source = case02_checkpoints[
            "phase1.done" if barrier == "phase1.round" else barrier
        ]
        doc = json.loads(source.read_text())
        doc["barrier"] = barrier
        doc["payload"][key] = edit(doc["payload"][key])
        path = tmp_path / source.name
        path.write_text(json.dumps(doc))
        line = self._resume_error(path, capsys)
        assert line.startswith(f"repro resume: invalid checkpoint: {barrier} ")
        assert message in line

    def test_old_schema_version(self, tmp_path, capsys):
        from repro import RouterConfig

        # Each version bump dropped config fields that every document of
        # the older version embeds.
        path = tmp_path / "ckpt_0000.json"
        for version in (1, 2, 3, 4):
            doc = {
                "kind": "repro.checkpoint",
                "schema_version": version,
                "barrier": "final",
                "sequence": 0,
                "case": {},
                "config": RouterConfig().to_dict(),
                "rng_state": None,
                "payload": {},
            }
            path.write_text(json.dumps(doc))
            assert "schema_version" in self._resume_error(path, capsys)
