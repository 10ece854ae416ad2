"""Tests for hMETIS .hgr interchange and the ``repro partition`` command."""

import pytest

from repro.partition import generate_logic_netlist
from repro.partition.hgr import HgrFormatError, parse_hgr, write_hgr
from repro.cli.generate import main as gen_main
from repro.cli.main import main as route_main
from repro.cli.partition_cli import main as partition_main

SIMPLE = """\
% a comment
3 4
1 2
2 3 4
1 4
"""

WEIGHTED = """\
2 3 10
1 2
2 3
2.5
1
1.5
"""


class TestParseHgr:
    def test_unweighted(self):
        design = parse_hgr(SIMPLE)
        assert design.num_cells == 4
        assert design.num_nets == 3
        assert design.edges == [(0, 1), (1, 2, 3), (0, 3)]
        assert all(cell.area == 1.0 for cell in design.cells)

    def test_vertex_weights(self):
        design = parse_hgr(WEIGHTED)
        assert [cell.area for cell in design.cells] == [2.5, 1.0, 1.5]

    def test_edge_weights_ignored(self):
        text = "1 2 1\n7 1 2\n"
        design = parse_hgr(text)
        assert design.edges == [(0, 1)]

    def test_single_pin_nets_dropped(self):
        text = "2 3\n1\n2 3\n"
        design = parse_hgr(text)
        assert design.num_nets == 1

    def test_errors(self):
        with pytest.raises(HgrFormatError):
            parse_hgr("")
        with pytest.raises(HgrFormatError, match="header"):
            parse_hgr("3\n")
        with pytest.raises(HgrFormatError, match="out of range"):
            parse_hgr("1 2\n1 5\n")
        with pytest.raises(HgrFormatError, match="hyperedge lines"):
            parse_hgr("3 4\n1 2\n")
        with pytest.raises(HgrFormatError, match="weight"):
            parse_hgr("1 2 10\n1 2\n")
        with pytest.raises(HgrFormatError, match="unsupported fmt"):
            parse_hgr("1 2 7\n1 2\n")

    def test_round_trip(self):
        design = generate_logic_netlist(num_cells=50, seed=6)
        text = write_hgr(design)
        parsed = parse_hgr(text)
        assert parsed.num_cells == design.num_cells
        assert parsed.edges == design.edges
        assert [c.area for c in parsed.cells] == pytest.approx(
            [c.area for c in design.cells]
        )

    def test_unweighted_round_trip_has_no_fmt(self):
        design = parse_hgr(SIMPLE)
        text = write_hgr(design)
        assert text.splitlines()[0] == "3 4"


class TestPartitionCli:
    def test_synthetic_flow(self, tmp_path, capsys):
        gen_main(["case02", "--out-dir", str(tmp_path)])
        base_case = tmp_path / "case02.case"
        out_case = tmp_path / "partitioned.case"
        code = partition_main(
            [str(base_case), str(out_case), "--synthetic", "120", "--seed", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "cut nets" in printed
        assert out_case.exists()
        # The emitted case routes.
        assert route_main(["--case-file", str(out_case), "--quiet", "--drc"]) == 0

    def test_hgr_flow(self, tmp_path, capsys):
        from repro.partition.hgr import write_hgr_file

        gen_main(["case02", "--out-dir", str(tmp_path)])
        design = generate_logic_netlist(num_cells=80, seed=9)
        hgr_path = tmp_path / "design.hgr"
        write_hgr_file(hgr_path, design)
        out_case = tmp_path / "partitioned.case"
        code = partition_main(
            [str(tmp_path / "case02.case"), str(out_case), "--hgr", str(hgr_path)]
        )
        assert code == 0
        assert out_case.exists()
