"""Evaluation provenance: *why* an assessment's numbers came out as they did.

Every :class:`~repro.core.results.Assessment` carries an
:class:`EvaluationProvenance` recording the decisions made along the
pipeline: which recovery source was chosen (and why planning failed, if
it did), which penalty term and which outlay dominated the cost, which
device drove system utilization, the design-validation warnings, how
the scenario's scope resolved to a recovery size, and — when tracing is
enabled — per-phase wall-clock timings.

:func:`explain_assessment` turns an assessment plus its provenance into
the human-readable explanation of the four output metrics that the CLI
prints under ``--trace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..units import format_duration, format_money, format_percent, format_size


@dataclass(frozen=True)
class EvaluationProvenance:
    """The decision record of one evaluation.

    All fields default, so partially populated records (e.g. loaded
    from an older serialized form) stay usable.
    """

    design_name: str = ""
    scenario: str = ""
    scenario_scope: str = ""
    recovery_target_age: float = 0.0
    #: How the scope resolved: bytes the recovery actually moves (None
    #: when no plan was built).
    recovery_size: Optional[float] = None
    validation_warnings: "Tuple[str, ...]" = ()
    #: Chosen recovery source technique, or None when unrecoverable.
    recovery_source: Optional[str] = None
    recovery_source_level: Optional[int] = None
    #: Why no recovery plan exists (RecoveryError text or total loss).
    recovery_failure: Optional[str] = None
    total_loss: bool = False
    #: "bandwidth of <device>" / "capacity of <device>".
    utilization_driver: Optional[str] = None
    #: The technique with the largest annualized outlay.
    dominant_outlay: Optional[str] = None
    #: "outage" / "loss" / None — the larger penalty term.
    dominant_penalty: Optional[str] = None
    #: Wall-clock milliseconds per pipeline phase (tracing only).
    phase_ms: "Mapping[str, float]" = field(default_factory=dict)
    #: Free-form decision log, in pipeline order.
    decisions: "Tuple[str, ...]" = ()

    def to_dict(self) -> "Dict[str, Any]":
        """A JSON-friendly dictionary (tuples become lists)."""
        return {
            "design_name": self.design_name,
            "scenario": self.scenario,
            "scenario_scope": self.scenario_scope,
            "recovery_target_age": self.recovery_target_age,
            "recovery_size": self.recovery_size,
            "validation_warnings": list(self.validation_warnings),
            "recovery_source": self.recovery_source,
            "recovery_source_level": self.recovery_source_level,
            "recovery_failure": self.recovery_failure,
            "total_loss": self.total_loss,
            "utilization_driver": self.utilization_driver,
            "dominant_outlay": self.dominant_outlay,
            "dominant_penalty": self.dominant_penalty,
            "phase_ms": dict(self.phase_ms),
            "decisions": list(self.decisions),
        }

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "EvaluationProvenance":
        """Rebuild a record, ignoring unknown keys.

        Forward-compatible on purpose: records written by a newer
        version load cleanly, keeping only the fields this version
        knows about (unlike spec parsing, where typos must raise).
        """
        known = {f.name for f in fields(cls)}
        kwargs: "Dict[str, Any]" = {k: v for k, v in data.items() if k in known}
        for key in ("validation_warnings", "decisions"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("phase_ms") is not None:
            kwargs["phase_ms"] = dict(kwargs.get("phase_ms") or {})
        return cls(**kwargs)

    def describe(self) -> str:
        """The decision log as one readable block."""
        lines = [f"{self.design_name} / {self.scenario}:"]
        for decision in self.decisions:
            lines.append(f"  - {decision}")
        if self.phase_ms:
            timing = ", ".join(
                f"{phase} {ms:.2f} ms" for phase, ms in self.phase_ms.items()
            )
            lines.append(f"  - phase timings: {timing}")
        return "\n".join(lines)


def _explain_utilization(assessment, provenance) -> str:
    utilization = assessment.utilization
    driver = provenance.utilization_driver if provenance else None
    if driver is None:
        if utilization.max_bandwidth_utilization >= utilization.max_capacity_utilization:
            driver = f"bandwidth of {utilization.max_bandwidth_device}"
        else:
            driver = f"capacity of {utilization.max_capacity_device}"
    return (
        f"utilization = {format_percent(assessment.system_utilization)}: "
        f"set by the {driver} "
        f"(bw max {format_percent(utilization.max_bandwidth_utilization)} on "
        f"{utilization.max_bandwidth_device}, cap max "
        f"{format_percent(utilization.max_capacity_utilization)} on "
        f"{utilization.max_capacity_device})"
    )


def _explain_recovery_time(assessment, provenance) -> str:
    plan = assessment.recovery
    if plan is None:
        reason = provenance.recovery_failure if provenance else None
        return (
            "recovery time = unbounded: no recovery plan"
            + (f" ({reason})" if reason else "")
        )
    parts = [
        f"recovery time = {format_duration(plan.recovery_time)}: "
        f"restore {format_size(plan.recovery_size)} from "
        f"{plan.source_name} (level {plan.source_level_index}) in "
        f"{len(plan.steps)} steps"
    ]
    if plan.steps and plan.recovery_time > 0:
        longest = max(plan.steps, key=lambda step: step.duration)
        share = longest.duration / plan.recovery_time
        parts.append(
            f"; longest step: {longest.label} "
            f"({format_duration(longest.duration)}, {format_percent(share)} of RT)"
        )
    return "".join(parts)


def _explain_data_loss(assessment, provenance) -> str:
    loss = assessment.data_loss
    if loss.total_loss:
        return (
            "data loss = total: no surviving level retains an RP usable "
            f"for a recovery target {format_duration(loss.target_age)} old"
        )
    source_index = loss.source_index
    detail = ""
    if source_index is not None:
        for rng in loss.ranges:
            if rng.level_index == source_index:
                detail = (
                    f"; its guaranteed RPs span ages "
                    f"{format_duration(rng.newest_age)} to "
                    f"{format_duration(rng.oldest_age)}"
                )
                break
    return (
        f"data loss = {format_duration(loss.data_loss)}: recovered from "
        f"{loss.source_name}"
        + (f" (level {source_index})" if source_index is not None else "")
        + detail
    )


def _explain_cost(assessment, provenance) -> str:
    costs = assessment.costs
    dominant_outlay = provenance.dominant_outlay if provenance else None
    if dominant_outlay is None and costs.outlays_by_technique:
        dominant_outlay = max(
            costs.outlays_by_technique, key=costs.outlays_by_technique.get
        )
    parts = [
        f"cost = {format_money(costs.total_cost)}: outlays "
        f"{format_money(costs.total_outlays)}"
    ]
    if dominant_outlay is not None:
        parts.append(
            f" (dominated by {dominant_outlay} at "
            f"{format_money(costs.outlays_by_technique.get(dominant_outlay, 0.0))})"
        )
    parts.append(f" + penalties {format_money(costs.total_penalties)}")
    if costs.total_penalties > 0:
        dominant = (
            "recent-data-loss"
            if costs.loss_penalty > costs.outage_penalty
            else "outage"
        )
        parts.append(f" (dominated by the {dominant} penalty)")
    return "".join(parts)


def explain_assessment(assessment) -> str:
    """Explain the four output metrics of one assessment.

    Uses the attached provenance when present and falls back to the
    assessment's own sub-results, so pre-provenance assessments (e.g.
    deserialized ones) still get a best-effort explanation.
    """
    provenance = getattr(assessment, "provenance", None)
    lines = [
        _explain_utilization(assessment, provenance),
        _explain_recovery_time(assessment, provenance),
        _explain_data_loss(assessment, provenance),
        _explain_cost(assessment, provenance),
    ]
    if provenance is not None and provenance.validation_warnings:
        lines.append(
            f"validation warnings ({len(provenance.validation_warnings)}): "
            + "; ".join(provenance.validation_warnings)
        )
    return "\n".join(lines)
