"""The invariant linter: every rule fires, stays quiet, and gates src/repro.

Three contracts (ISSUE 3):

* **Fixture matrix** — each shipped rule has a minimal bad snippet it
  must flag and a good counterpart it must not, in the module scope the
  rule patrols.
* **Suppressions** — ``# lint: disable=RULE`` silences exactly the named
  rule on that line, shows up as ``suppressed`` in the JSON document,
  and an unknown rule id in a disable comment is itself a finding.
* **Self-lint** — ``src/repro`` is clean under the full rule pack, so a
  regression of any invariant fails tier-1 before it can corrupt
  benchmark numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.lint import (
    META_RULE_ID,
    all_rules,
    lint_paths,
    lint_source,
    module_name_for,
    resolve_rules,
)
from repro.cli.lint_cli import main as lint_main

SRC_REPRO = Path(repro.__file__).resolve().parent

# ----------------------------------------------------------------------
# Fixture matrix: (rule id, module scope, bad snippet, good snippet)
# ----------------------------------------------------------------------
MATRIX = [
    (
        "REPRO001",
        "repro.core.router",
        "import time\nstart = time.time()\n",
        "import time\nstart = time.perf_counter()\n",
    ),
    (
        "REPRO001",
        "repro.timing.analysis",
        "from datetime import datetime\nstamp = datetime.now()\n",
        "stamp = None\n",
    ),
    (
        "REPRO002",
        "repro.core.router",
        "print('round', 3)\n",
        "from repro.obs import get_logger\nget_logger('x').info('round %d', 3)\n",
    ),
    (
        "REPRO003",
        "repro.benchgen.generator",
        "import random\nvalue = random.random()\n",
        "import random\nrng = random.Random(2023)\nvalue = rng.random()\n",
    ),
    (
        "REPRO003",
        "repro.partition.generator",
        "import random\nrng = random.Random()\n",
        "import random\nrng = random.Random(7)\n",
    ),
    (
        "REPRO003",
        "repro.core.lagrangian",
        "import numpy as np\nnoise = np.random.rand(4)\n",
        "import numpy as np\nrng = np.random.default_rng(11)\nnoise = rng.random(4)\n",
    ),
    (
        "REPRO004",
        "repro.analysis.compare",
        "def collect(rows=[]):\n    return rows\n",
        "def collect(rows=None):\n    return rows or []\n",
    ),
    (
        "REPRO005",
        "repro.core.eco",
        "def f(items):\n    victims = set(items)\n    for v in victims:\n        yield v\n",
        "def f(items):\n    victims = set(items)\n    for v in sorted(victims):\n        yield v\n",
    ),
    (
        "REPRO005",
        "repro.route.kernel",
        "def f(edges):\n    return [e for e in set(edges)]\n",
        "def f(edges):\n    return [e for e in sorted(set(edges))]\n",
    ),
    (
        "REPRO006",
        "repro.timing.delay",
        "def crit(delay):\n    return delay == 0.5\n",
        "def crit(delay):\n    return abs(delay - 0.5) < 1e-9\n",
    ),
    (
        "REPRO007",
        "repro.io.json_format",
        "import json\ntext = json.dumps({'b': 1, 'a': 2}, indent=1)\n",
        "import json\ntext = json.dumps({'b': 1, 'a': 2}, indent=1, sort_keys=True)\n",
    ),
    (
        "REPRO008",
        "repro.core.wire_assignment",
        "def f(tracer, d):\n    tracer.observe(f'util.dir{d}', 1.0)\n",
        "def f(tracer, d):\n"
        "    tracer.observe('util.dir0' if d == 0 else 'util.dir1', 1.0)\n",
    ),
    (
        "REPRO009",
        "repro.core.router",
        "import sys\nsys.stderr.write('progress\\n')\n",
        "from repro.obs import get_logger\nget_logger('x').info('progress')\n",
    ),
    (
        "REPRO010",
        "repro.core.config",
        "import os\nworkers = os.environ['WORKERS']\n",
        "workers = 1\n",
    ),
    (
        "REPRO010",
        "repro.route.graph",
        "import os\nmode = os.getenv('MODE')\n",
        "mode = 'exact'\n",
    ),
    (
        "REPRO011",
        "repro.cli.main",
        "from repro.core.router import SynergisticRouter\n",
        "from repro.api import SynergisticRouter\n",
    ),
    (
        "REPRO011",
        "repro.cli.evaluate",
        "import repro.core.config\n",
        "from repro import RouterConfig\n",
    ),
    (
        # Renamed tracer handle: REPRO008 only inspects *tracer-named*
        # receivers, REPRO012 holds any .span() in core to a static name.
        "REPRO012",
        "repro.core.router",
        "def f(t, phase):\n    with t.span(f'phase.{phase}'):\n        pass\n",
        "PHASE = 'phase.initial_routing'\n"
        "def f(t):\n    with t.span(PHASE):\n        pass\n",
    ),
    (
        "REPRO012",
        "repro.route.graph",
        "def f(t, i):\n    t.event('round.' + str(i))\n",
        "def f(t, i):\n    t.event('round', iteration=i)\n",
    ),
    (
        # The service layer imports through the facade like the CLI.
        "REPRO011",
        "repro.serve.service",
        "from repro.core import RouterConfig\n",
        "from repro.api import RouterConfig\n",
    ),
    (
        "REPRO014",
        "repro.cli.main",
        "from repro import RouterConfig\nconfig = RouterConfig(mu_shared=0.25)\n",
        "from repro.api import RouteRequest\n"
        "request = RouteRequest(contest_case='case02', "
        "config={'mu_shared': 0.25})\n",
    ),
    (
        # from_dict is construction too: the facade owns normalization.
        "REPRO014",
        "repro.serve.service",
        "from repro.api import RouterConfig\n"
        "config = RouterConfig.from_dict({'mu_shared': 0.25})\n",
        "from repro.api import RouteRequest\n"
        "def normalize(knobs):\n"
        "    return RouteRequest(contest_case='case02', config=knobs).config\n",
    ),
    (
        # BLAS splits long dot products across threads: the last bits
        # follow the host's BLAS thread count.
        "REPRO015",
        "repro.core.lagrangian",
        "import numpy as np\ndef dual(lam, d):\n    return float(np.dot(lam, d))\n",
        "import numpy as np\n"
        "def dual(lam, d):\n    return float(np.multiply(lam, d).sum())\n",
    ),
    (
        "REPRO015",
        "repro.timing.analysis",
        "import numpy as np\ndef size(x):\n    return np.linalg.norm(x)\n",
        "import math\nimport numpy as np\n"
        "def size(x):\n    return math.sqrt(np.square(x).sum())\n",
    ),
    (
        "REPRO015",
        "repro.route.kernel",
        "def f(a, b):\n    return a @ b + a.dot(b)\n",
        "def f(a, b):\n    return (a * b).sum()\n",
    ),
    (
        "REPRO015",
        "repro.core.legalization",
        "from numpy.linalg import norm\nfrom numpy import inner\n",
        "from numpy import bincount\n",
    ),
]

MATRIX_IDS = [f"{rule_id}-{module.rsplit('.', 1)[-1]}" for rule_id, module, _, _ in MATRIX]


@pytest.mark.parametrize("rule_id,module,bad,good", MATRIX, ids=MATRIX_IDS)
def test_rule_fires_on_bad_snippet(rule_id, module, bad, good):
    findings = lint_source(bad, module=module)
    assert [f.rule_id for f in findings if not f.suppressed].count(rule_id) >= 1, (
        f"{rule_id} did not fire on:\n{bad}"
    )


@pytest.mark.parametrize("rule_id,module,bad,good", MATRIX, ids=MATRIX_IDS)
def test_rule_quiet_on_good_snippet(rule_id, module, bad, good):
    findings = lint_source(good, module=module)
    offenders = [f for f in findings if f.rule_id == rule_id]
    assert not offenders, f"{rule_id} false positive:\n{good}\n{offenders}"


def test_every_shipped_rule_is_in_the_matrix():
    covered = {rule_id for rule_id, _, _, _ in MATRIX}
    shipped = {rule.rule_id for rule in all_rules()}
    assert shipped <= covered, f"rules missing fixtures: {sorted(shipped - covered)}"


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def test_scoped_rules_stay_out_of_other_layers():
    # print() is the CLI's whole job; wall clocks are fine in benchmarks.
    assert not lint_source("print('hi')\n", module="repro.cli.main")
    assert not lint_source(
        "import time\nt = time.time()\n", module="repro.analysis.sweep"
    )
    # Analysis code feeds no fingerprint; BLAS products are fine there.
    assert not lint_source("def f(a, b):\n    return a @ b\n", module="repro.analysis.exact")


def test_module_name_for_maps_paths():
    assert module_name_for("src/repro/core/eco.py") == "repro.core.eco"
    assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name_for("somewhere/else.py") == "else"


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_is_honored_and_reported():
    source = "print('x')  # lint: disable=REPRO002\n"
    findings = lint_source(source, module="repro.core.router")
    assert [f.rule_id for f in findings] == ["REPRO002"]
    assert findings[0].suppressed


def test_line_suppression_only_covers_named_rule():
    source = (
        "import time\n"
        "t = time.time()  # lint: disable=REPRO002\n"
    )
    findings = lint_source(source, module="repro.core.router")
    assert [f.rule_id for f in findings] == ["REPRO001"]
    assert not findings[0].suppressed


def test_file_level_suppression():
    source = (
        "# lint: disable-file=REPRO002\n"
        "print('a')\n"
        "print('b')\n"
    )
    findings = lint_source(source, module="repro.core.router")
    assert len(findings) == 2
    assert all(f.suppressed for f in findings)


def test_unknown_rule_in_disable_comment_is_a_finding():
    source = "x = 1  # lint: disable=REPRO999\n"
    findings = lint_source(source, module="repro.core.router")
    assert [f.rule_id for f in findings] == [META_RULE_ID]
    assert "REPRO999" in findings[0].message
    assert not findings[0].suppressed


def test_disable_mention_in_docstring_is_ignored():
    source = '"""Docs may say # lint: disable=NOTARULE freely."""\n'
    assert not lint_source(source, module="repro.core.router")


def test_suppressed_findings_marked_in_json_document():
    report = lint_paths([], rules=all_rules())
    source = "print('x')  # lint: disable=REPRO002\n"
    report.findings.extend(lint_source(source, module="repro.core.router"))
    doc = report.to_dict()
    assert doc["schema"] == "repro.lint.findings/v1"
    assert doc["summary"]["active"] == 0
    assert doc["summary"]["suppressed"] == 1
    assert doc["findings"][0]["suppressed"] is True


# ----------------------------------------------------------------------
# Engine odds and ends
# ----------------------------------------------------------------------
def test_resolve_rules_rejects_unknown_ids():
    assert [r.rule_id for r in resolve_rules(["REPRO001"])] == ["REPRO001"]
    with pytest.raises(KeyError):
        resolve_rules(["REPRO404"])


def test_rule_metadata_is_complete():
    for rule in all_rules():
        assert rule.rule_id.startswith("REPRO") and len(rule.rule_id) == 8
        assert rule.title and rule.rationale and rule.remedy
        assert rule.node_types, f"{rule.rule_id} dispatches on nothing"


def test_findings_are_sorted_and_json_ready():
    source = "print('b')\nprint('a')\n"
    findings = lint_source(source, module="repro.core.router")
    assert [f.line for f in findings] == [1, 2]
    for finding in findings:
        json.dumps(finding.to_dict())


# ----------------------------------------------------------------------
# Self-lint: the gate that makes the rules real
# ----------------------------------------------------------------------
def test_src_repro_is_lint_clean():
    report = lint_paths([SRC_REPRO])
    assert report.files_scanned >= 90, "unexpected src/repro layout"
    active = report.active
    assert not active, "\n".join(f.render() for f in active)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text('"""Mod."""\nx = 1\n')
    assert lint_main([str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_findings_exit_one_and_render(tmp_path, capsys):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("print('x')\n")
    assert lint_main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "REPRO002" in out and "bad.py:1" in out


def test_cli_json_format_and_output_file(tmp_path, capsys):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("print('x')\n")
    artifact = tmp_path / "findings.json"
    code = lint_main([str(target), "--format", "json", "--output", str(artifact)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(artifact.read_text())
    assert doc["summary"]["by_rule"] == {"REPRO002": 1}


def test_cli_rules_filter(tmp_path):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("print('x')\n")
    assert lint_main([str(target), "--rules", "REPRO001"]) == 0
    assert lint_main([str(target), "--rules", "REPRO404"]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out
