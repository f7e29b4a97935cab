"""The one-call evaluation entry point.

:func:`evaluate` runs the whole pipeline for one design, workload,
failure scenario and set of business requirements:

1. validate the design against the paper's conventions;
2. register all workload demands on the devices;
3. compute normal-mode utilization (raising on over-commitment);
4. pick the recovery source and worst-case recent data loss;
5. build the recovery plan and its worst-case recovery time;
6. price outlays and penalties.

:func:`evaluate_scenarios` amortizes the scenario-independent
*normal-mode stage* across several scenarios (the case study evaluates
object / array / site failures of one design): steps 1–3 plus each
secondary level's guaranteed RP range (Figure 3) and the design's
outlays, all fixed by the design and workload.  Steps 4–6 then read
the stage for every scenario.  The stage lives for one call only.

Every step emits spans and metrics through :mod:`repro.obs` (no-ops
unless a tracer/registry is installed), and each returned
:class:`~repro.core.results.Assessment` carries an
:class:`~repro.obs.provenance.EvaluationProvenance` recording the
decisions made along the way — including recovery-planning failures,
which used to be swallowed silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..exceptions import DesignError, RecoveryError
from ..obs import get_metrics, get_tracer
from ..obs.provenance import EvaluationProvenance
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..workload.spec import Workload
from .cost import compute_costs, compute_outlays
from .dataloss import LevelRange, compute_data_loss, design_ranges
from .demands import register_design_demands
from .hierarchy import StorageDesign
from .recovery import RecoveryPlan, plan_recovery
from .results import Assessment
from .utilization import SystemUtilization, compute_utilization
from .validate import validate_design


def _utilization_driver(utilization: SystemUtilization) -> str:
    """Which device and dimension set the headline utilization."""
    if utilization.max_bandwidth_utilization >= utilization.max_capacity_utilization:
        return f"bandwidth of {utilization.max_bandwidth_device}"
    return f"capacity of {utilization.max_capacity_device}"


@dataclass(frozen=True)
class _NormalMode:
    """The scenario-independent stage of one evaluation call.

    ``phase_ms`` holds the stage's per-phase timings (empty unless
    tracing); every assessment of the call starts from a copy.
    """

    utilization: SystemUtilization
    warnings: "Tuple[str, ...]"
    ranges: "Mapping[int, LevelRange]"
    outlays: "Mapping[str, float]"
    phase_ms: "Mapping[str, float]"


def _prepare(
    design: StorageDesign,
    workload: Workload,
    strict_utilization: bool,
) -> _NormalMode:
    """The normal-mode stage: steps 1–3, level ranges and outlays."""
    tracer = get_tracer()
    timed = tracer.enabled
    phase_ms: "Dict[str, float]" = {}

    with tracer.span("validate", design=design.name):
        if timed:
            t0 = perf_counter()
        warnings = validate_design(design, workload, strict=True)
        if timed:
            phase_ms["validate"] = (perf_counter() - t0) * 1e3
    with tracer.span("demands", design=design.name):
        if timed:
            t0 = perf_counter()
        register_design_demands(design, workload)
        if timed:
            phase_ms["demands"] = (perf_counter() - t0) * 1e3
    if timed:
        t0 = perf_counter()
    utilization = compute_utilization(design, strict=strict_utilization)
    if timed:
        phase_ms["utilization"] = (perf_counter() - t0) * 1e3
    # The outlays are the cost work worth a span; each scenario's
    # penalties are two products.
    with tracer.span("cost.compute", design=design.name):
        outlays = compute_outlays(design)
    return _NormalMode(
        utilization=utilization,
        warnings=tuple(warnings),
        ranges=design_ranges(design),
        outlays=outlays,
        phase_ms=phase_ms,
    )


def _assess(
    design: StorageDesign,
    workload: Workload,
    scenario: FailureScenario,
    requirements: BusinessRequirements,
    stage: _NormalMode,
    label: str,
) -> Assessment:
    """Steps 4–6 for one scenario, given the shared normal-mode state.

    ``label`` is ``scenario.describe()``, computed once by the caller.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    timed = tracer.enabled
    phase_ms: "Dict[str, float]" = dict(stage.phase_ms)

    with tracer.span("assess", scenario=label) as span:
        if timed:
            t0 = perf_counter()
        loss = compute_data_loss(
            design, scenario, allow_total_loss=True, ranges=stage.ranges
        )
        if timed:
            phase_ms["dataloss"] = (perf_counter() - t0) * 1e3

        plan: Optional[RecoveryPlan] = None
        recovery_failure: Optional[str] = None
        if loss.total_loss:
            metrics.inc("recovery.total_loss")
            recovery_failure = (
                "total loss: no surviving level retains a usable RP"
            )
        else:
            if timed:
                t0 = perf_counter()
            try:
                plan = plan_recovery(design, scenario, workload, loss_result=loss)
            except RecoveryError as exc:
                # Record the failure instead of dropping it on the floor:
                # the assessment's unbounded recovery time stays explainable.
                metrics.inc("recovery.plan_failed")
                recovery_failure = str(exc)
            if timed:
                phase_ms["recovery"] = (perf_counter() - t0) * 1e3

        if timed:
            t0 = perf_counter()
        costs = compute_costs(
            design, requirements, loss=loss, plan=plan, outlays=stage.outlays
        )
        if timed:
            phase_ms["cost"] = (perf_counter() - t0) * 1e3

        span.set(
            source=loss.source_name,
            total_loss=loss.total_loss,
            recovery_planned=plan is not None,
        )

    decisions: "List[str]" = []
    if loss.source_index is not None:
        decisions.append(
            f"recovery source: {loss.source_name} (level {loss.source_index})"
        )
    else:
        decisions.append("no usable recovery source: total loss")
    if recovery_failure is not None:
        decisions.append(f"recovery planning failed: {recovery_failure}")
    dominant_outlay = (
        max(costs.outlays_by_technique, key=costs.outlays_by_technique.get)
        if costs.outlays_by_technique
        else None
    )
    if costs.total_penalties > 0:
        dominant_penalty = (
            "loss" if costs.loss_penalty > costs.outage_penalty else "outage"
        )
        decisions.append(f"dominant penalty term: {dominant_penalty}")
    else:
        dominant_penalty = None
    if dominant_outlay is not None:
        decisions.append(f"dominant outlay: {dominant_outlay}")
    warnings = stage.warnings
    if warnings:
        decisions.append(f"{len(warnings)} validation warning(s)")

    provenance = EvaluationProvenance(
        design_name=design.name,
        scenario=label,
        scenario_scope=scenario.scope.value,
        recovery_target_age=scenario.recovery_target_age,
        recovery_size=None if plan is None else plan.recovery_size,
        validation_warnings=warnings,
        recovery_source=loss.source_technique,
        recovery_source_level=loss.source_index,
        recovery_failure=recovery_failure,
        total_loss=loss.total_loss,
        utilization_driver=_utilization_driver(stage.utilization),
        dominant_outlay=dominant_outlay,
        dominant_penalty=dominant_penalty,
        phase_ms=phase_ms,
        decisions=tuple(decisions),
    )
    return Assessment(
        design_name=design.name,
        scenario=scenario,
        requirements=requirements,
        utilization=stage.utilization,
        data_loss=loss,
        recovery=plan,
        costs=costs,
        provenance=provenance,
    )


def evaluate(
    design: StorageDesign,
    workload: Workload,
    scenario: FailureScenario,
    requirements: BusinessRequirements,
    strict_utilization: bool = True,
) -> Assessment:
    """Evaluate one design against one failure scenario."""
    tracer = get_tracer()
    metrics = get_metrics()
    metrics.inc("evaluate.calls")
    metrics.inc("evaluate.scenarios")
    label = scenario.describe()
    with tracer.span("evaluate", design=design.name, scenario=label):
        stage = _prepare(design, workload, strict_utilization)
        return _assess(design, workload, scenario, requirements, stage, label)


def evaluate_scenarios(
    design: StorageDesign,
    workload: Workload,
    scenarios: Iterable[FailureScenario],
    requirements: BusinessRequirements,
    strict_utilization: bool = True,
) -> "Dict[str, Assessment]":
    """Evaluate one design against several scenarios.

    Returns ``{scenario description: assessment}`` in input order.
    The normal-mode stage (validation, demand registration,
    utilization, level ranges and outlays) runs once.  Equal
    scenarios share one entry; two *unequal* scenarios with the same
    description (it omits the object size) raise
    :class:`~repro.exceptions.DesignError` rather than one silently
    replacing the other.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    metrics.inc("evaluate.calls")
    with tracer.span("evaluate_scenarios", design=design.name):
        stage = _prepare(design, workload, strict_utilization)
        results: "Dict[str, Assessment]" = {}
        for scenario in scenarios:
            metrics.inc("evaluate.scenarios")
            label = scenario.describe()
            earlier = results.get(label)
            if earlier is not None and earlier.scenario != scenario:
                raise DesignError(
                    f"scenarios {earlier.scenario!r} and {scenario!r} share "
                    f"the label {label!r}; evaluate them separately"
                )
            results[label] = _assess(
                design, workload, scenario, requirements, stage, label
            )
        return results
