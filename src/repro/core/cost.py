"""Overall system cost: outlays plus penalties (paper section 3.3.5).

**Outlays** are annualized expenditures computed per data protection
technique by each device model (fixed costs go to the device's primary
technique, secondary techniques pay only their additional per-capacity /
per-bandwidth / per-shipment costs, spares multiply by their discount
factor).  A design with a shared recovery facility additionally pays the
facility's discount fraction of every primary-site storage device it
stands behind.

**Penalties** are per-failure-event dollars: worst-case recovery time
times the data unavailability penalty rate, plus worst-case recent data
loss times the loss penalty rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..obs import get_metrics
from ..scenarios.requirements import BusinessRequirements
from ..units import format_money
from .dataloss import DataLossResult
from .hierarchy import StorageDesign
from .recovery import RecoveryPlan

#: Outlay key under which shared recovery-facility costs are reported.
RECOVERY_FACILITY = "recovery facility"


@dataclass(frozen=True)
class CostBreakdown:
    """Outlays by technique plus the scenario's penalties."""

    outlays_by_technique: "Dict[str, float]"
    outage_penalty: float
    loss_penalty: float

    @property
    def total_outlays(self) -> float:
        """Annualized outlay dollars summed over all techniques."""
        return sum(self.outlays_by_technique.values())

    @property
    def total_penalties(self) -> float:
        """This failure event's outage plus loss penalties."""
        return self.outage_penalty + self.loss_penalty

    @property
    def total_cost(self) -> float:
        """The paper's overall cost metric: outlays plus penalties."""
        return self.total_outlays + self.total_penalties

    def describe(self) -> str:
        """One-line rendering for logs and summaries."""
        parts = [
            f"outlays {format_money(self.total_outlays)}",
            f"penalties {format_money(self.total_penalties)}",
            f"total {format_money(self.total_cost)}",
        ]
        return ", ".join(parts)


def compute_outlays(design: StorageDesign) -> "Dict[str, float]":
    """Annualized outlay dollars per technique for the whole design.

    Demands must already be registered.  The shared recovery facility,
    when present, charges its discount fraction of every primary-site
    storage device's base outlay (it must be able to stand in for all of
    them) under the :data:`RECOVERY_FACILITY` key.
    """
    outlays: "Dict[str, float]" = {}
    for device in design.devices():
        for technique, dollars in device.outlays_by_technique().items():
            outlays[technique] = outlays.get(technique, 0.0) + dollars
    facility = design.recovery_facility
    if facility is not None and facility.exists and facility.discount > 0:
        primary_site = design.primary_level.store.location
        covered = [
            device
            for device in design.storage_devices()
            if device.location.same_site(primary_site)
        ]
        facility_cost = facility.discount * sum(
            device.cost_model.total_cost(
                capacity_bytes=device.capacity_demand_raw(),
                bandwidth_bps=device.bandwidth_demand(),
            )
            for device in covered
        )
        if facility_cost > 0:
            outlays[RECOVERY_FACILITY] = (
                outlays.get(RECOVERY_FACILITY, 0.0) + facility_cost
            )
    return outlays


def compute_costs(
    design: StorageDesign,
    requirements: BusinessRequirements,
    loss: Optional[DataLossResult] = None,
    plan: Optional[RecoveryPlan] = None,
    outlays: "Optional[Mapping[str, float]]" = None,
) -> CostBreakdown:
    """Outlays plus the penalties of the evaluated failure scenario.

    Either result may be omitted (e.g. when only normal-mode costs are
    wanted); missing results contribute zero penalty.  A total-loss
    scenario has an unbounded loss penalty, represented as ``inf``.
    ``outlays`` is the design's :func:`compute_outlays`, computed here
    when omitted; the breakdown always holds its own copy.
    """
    outage_penalty = 0.0
    loss_penalty = 0.0
    if plan is not None:
        outage_penalty = requirements.outage_penalty(plan.recovery_time)
    if loss is not None:
        if loss.total_loss:
            loss_penalty = float("inf")
        else:
            loss_penalty = requirements.loss_penalty(loss.data_loss)
    get_metrics().inc("cost.computations")
    return CostBreakdown(
        outlays_by_technique=(
            compute_outlays(design) if outlays is None else dict(outlays)
        ),
        outage_penalty=outage_penalty,
        loss_penalty=loss_penalty,
    )
