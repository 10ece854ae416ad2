"""Phase II on contest cases against the oracles of ``tests/oracles.py``.

The property tests compare incidence construction and the LR loop with
their oracles on small random instances.  These run the same comparisons
on the phase I topologies of case05–case07 (5,000–15,000 connections),
then run legalization and wire assignment from both sides: legal ratios,
wire budgets, wires and critical delay must agree as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DelayModel, RouterConfig
from repro.benchgen import load_case
from repro.core.incidence import TdmIncidence
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner
from repro.timing import TimingAnalyzer
from tests.oracles import (
    assert_incidences_bit_equal,
    assert_lr_bit_equal,
    build_reference,
    reference_lr,
)


@pytest.fixture(scope="module", params=["case05", "case06", "case07"])
def contest(request):
    case = load_case(request.param)
    model = DelayModel()
    solution = InitialRouter(case.system, case.netlist).route()
    fast = TdmIncidence(case.system, case.netlist, solution, model)
    ref = build_reference(case.system, case.netlist, solution, model)
    return case, solution, fast, ref


def test_incidence_matches_reference(contest):
    _, _, fast, ref = contest
    assert_incidences_bit_equal(fast, ref)


def test_lr_matches_reference(contest):
    _, _, fast, ref = contest
    assert_lr_bit_equal(LagrangianTdmAssigner(fast).solve(), reference_lr(ref))


def test_warm_started_lr_matches_reference(contest):
    _, _, fast, ref = contest
    warm = LagrangianTdmAssigner(fast).solve().multipliers
    assert_lr_bit_equal(
        LagrangianTdmAssigner(fast).solve(warm_start=warm),
        reference_lr(ref, warm_start=warm),
    )


def test_pipeline_matches_reference(contest):
    case, solution, fast, ref = contest
    config = RouterConfig()
    outcomes = []
    for inc, ratios in (
        (fast, LagrangianTdmAssigner(fast).solve().ratios),
        (ref, reference_lr(ref).ratios),
    ):
        target = solution.copy_topology()
        legal = TdmLegalizer(inc, config).legalize(ratios)
        WireAssigner(inc, config).assign(
            target, legal.ratios, legal.wire_budgets, legal.criticality
        )
        outcomes.append((target, legal))
    (fast_sol, fast_legal), (ref_sol, ref_legal) = outcomes
    assert np.array_equal(fast_legal.ratios, ref_legal.ratios)
    assert fast_legal.wire_budgets == ref_legal.wire_budgets
    for edge_index in sorted(ref_sol.wires):
        assert [
            (w.direction, w.ratio, sorted(w.net_indices))
            for w in fast_sol.wires[edge_index]
        ] == [
            (w.direction, w.ratio, sorted(w.net_indices))
            for w in ref_sol.wires[edge_index]
        ]
    analyzer = TimingAnalyzer(case.system, case.netlist, DelayModel())
    assert analyzer.critical_delay(fast_sol) == analyzer.critical_delay(ref_sol)
