"""The public API surface is a contract: signatures are snapshotted.

``repro.api`` (re-exported from ``repro``) is the stable import surface
(docs/api.md).  These tests pin the facade's entry-point signatures and
both export lists, so any accidental parameter rename/removal — an API
break for downstream users — fails CI rather than shipping silently.
Additions are fine: extend the snapshot in the same change.

There is one way in per job: ``route_request``/``execute_request`` route
or resume a :class:`~repro.api.RouteRequest`, ``evaluate(request,
solution=...)`` re-checks a solution and ``load_solution`` reads one.
Removing or renaming any of them is a semver-major release.
"""

from __future__ import annotations

import inspect

import pytest

import repro
import repro.api as api

#: name -> exact signature string.  Update deliberately, never casually:
#: loosening/renaming anything here is a semver-major API break.
SIGNATURES = {
    "evaluate": (
        "(request: 'RouteRequest', *, "
        "solution: 'Union[RoutingSolution, Mapping[str, Any]]', "
        "cache: 'Optional[ArtifactCache]' = None) -> 'Evaluation'"
    ),
    "load_solution": (
        "(path: 'Union[str, Path]', system: 'Any', netlist: 'Netlist', *, "
        "format: 'str' = 'auto') -> 'RoutingSolution'"
    ),
    # The request/response entry points.
    "route_request": (
        "(request: 'RouteRequest', *, tracer: 'Optional[Any]' = None, "
        "cache: 'Optional[ArtifactCache]' = None, "
        "checkpoint_factory: 'Optional[Callable[..., Any]]' = None, "
        "queue_seconds: 'float' = 0.0, preemptions: 'int' = 0, "
        "reraise: 'Tuple[type, ...]' = ()) -> 'RouteResponse'"
    ),
    "execute_request": (
        "(request: 'RouteRequest', *, tracer: 'Optional[Any]' = None, "
        "cache: 'Optional[ArtifactCache]' = None, "
        "checkpoint_factory: 'Optional[Callable[..., Any]]' = None) "
        "-> 'RoutingResult'"
    ),
    "resolve_case": (
        "(request: 'RouteRequest', *, "
        "cache: 'Optional[ArtifactCache]' = None, "
        "tracer: 'Optional[Any]' = None) "
        "-> 'Tuple[Any, Netlist, DelayModel]'"
    ),
    # The bit-identity digest; ``critical_delay`` skips its timing pass.
    "solution_fingerprint": (
        "(solution: 'RoutingSolution', "
        "delay_model: 'Optional[DelayModel]' = None, *, "
        "critical_delay: 'Optional[float]' = None) -> 'str'"
    ),
    "solution_state": (
        "(solution: 'RoutingSolution', "
        "delay_model: 'Optional[DelayModel]' = None, *, "
        "critical_delay: 'Optional[float]' = None) -> 'Dict[str, Any]'"
    ),
}

EXPORTS = [
    "ArtifactCache",
    "CheckpointManager",
    "EcoRouter",
    "Evaluation",
    "FaultInjectingTracer",
    "FaultPlan",
    "FaultSpec",
    "REQUEST_SCHEMA_VERSION",
    "RouteRequest",
    "RouteResponse",
    "RouterConfig",
    "RoutingArtifacts",
    "RoutingResult",
    "SynergisticRouter",
    "TdmAssigner",
    "build_artifacts",
    "default_artifact_cache",
    "evaluate",
    "execute_request",
    "load_solution",
    "resolve_case",
    "route_request",
    "solution_fingerprint",
    "solution_state",
]

TOP_LEVEL_EXPORTS = [
    "ArtifactCache",
    "CheckpointManager",
    "Connection",
    "DelayModel",
    "DesignRuleChecker",
    "Die",
    "EdgeKind",
    "Evaluation",
    "FaultInjectingTracer",
    "FaultPlan",
    "FaultSpec",
    "Fpga",
    "MultiFpgaSystem",
    "Net",
    "Netlist",
    "RouteRequest",
    "RouteResponse",
    "RouterConfig",
    "RoutingResult",
    "RoutingSolution",
    "SllEdge",
    "SynergisticRouter",
    "SystemBuilder",
    "TdmEdge",
    "TimingAnalyzer",
    "__version__",
    "evaluate",
    "execute_request",
    "load_solution",
    "route_request",
    "solution_fingerprint",
]


class TestFacadeSignatures:
    @pytest.mark.parametrize("name,expected", sorted(SIGNATURES.items()))
    def test_signature_is_stable(self, name, expected):
        actual = str(inspect.signature(getattr(api, name)))
        assert actual == expected, (
            f"repro.api.{name} signature changed:\n"
            f"  was: {expected}\n  now: {actual}\n"
            "If intentional, update tests/test_api_surface.py and docs/api.md."
        )

    def test_export_list_is_stable(self):
        assert api.__all__ == EXPORTS

    def test_export_list_is_sorted(self):
        assert api.__all__ == sorted(api.__all__)

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None


class TestTopLevelReExports:
    def test_export_list_is_stable(self):
        assert repro.__all__ == TOP_LEVEL_EXPORTS

    def test_route_is_the_subpackage(self):
        """No facade name is bound over ``repro.route``: the routing
        subpackage and its modules stay importable through it."""
        import types

        import repro.route.dijkstra as dijkstra

        assert isinstance(repro.route, types.ModuleType)
        assert dijkstra.__name__ == "repro.route.dijkstra"

    def test_facade_functions_are_the_same_objects(self):
        for name in (
            "evaluate",
            "load_solution",
            "route_request",
            "execute_request",
        ):
            assert getattr(repro, name) is getattr(api, name)

    def test_request_types_reachable_from_repro(self):
        for name in ("RouteRequest", "RouteResponse", "ArtifactCache"):
            assert getattr(repro, name) is getattr(api, name)

    def test_resilience_types_reachable_from_repro(self):
        for name in (
            "CheckpointManager",
            "FaultInjectingTracer",
            "FaultPlan",
            "FaultSpec",
            "solution_fingerprint",
        ):
            assert getattr(repro, name) is getattr(api, name)


class TestRouterConfigContract:
    def test_construction_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.RouterConfig(0.5)  # noqa: the point is the positional arg

    def test_dict_round_trip_is_exact(self):
        config = repro.RouterConfig(
            mu_shared=0.25, lr_max_iterations=4, wall_clock_budget_seconds=1.5
        )
        assert repro.RouterConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown RouterConfig fields"):
            repro.RouterConfig.from_dict({"mu": 0.5})

    def test_invalid_resilience_knobs_rejected(self):
        with pytest.raises(ValueError):
            repro.RouterConfig(wall_clock_budget_seconds=-1.0)
