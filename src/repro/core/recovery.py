"""Worst-case recovery time (paper section 3.3.4, Figure 4).

Recovery is a pipeline of stages along the recovery path, from the
source level's device toward the (possibly re-provisioned) primary
array.  Each stage contributes:

* a **parallelizable fixed period** (``parFix``) — spare provisioning,
  reconfiguration and negotiation for shared resources, which can
  overlap work at other levels (the case study provisions the recovery
  site while tapes fly);
* a **serialized fixed period** (``serFix``) — work that can only start
  once data arrives, such as tape load and seek;
* a **serialized transfer** (``serXfer``) — moving the recovery bytes,
  rate-limited to the minimum of the sender's, the interconnect's and
  the receiver's available bandwidth (what's left after normal-mode RP
  propagation demands).  Physical shipments take their door-to-door
  delay regardless of size, and cannot be gated by the receiving
  device's provisioning — cartridges can wait on a loading dock.

The plan records every step with absolute start/end times so the
Figure 4 dependency chart can be rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from ..devices.base import Device
from ..devices.interconnect import Shipment
from ..devices.spares import SpareType
from ..exceptions import RecoveryError
from ..obs import get_metrics, get_tracer
from ..scenarios.failures import FailureScenario, FailureScope
from ..units import format_duration, format_size
from ..workload.spec import Workload
from .dataloss import DataLossResult, find_recovery_source
from .hierarchy import Level, StorageDesign


@dataclass(frozen=True)
class RecoveryStep:
    """One task in the recovery pipeline, with absolute times (seconds).

    Transfer steps additionally carry the names of the devices they
    contend on (source, destination, and the interconnect if any) so
    event-level replays can model shared-bandwidth recovery.
    """

    label: str
    kind: str  # "provision" | "shipment" | "media-load" | "transfer"
    start: float
    end: float
    devices: "Tuple[str, ...]" = ()

    @property
    def duration(self) -> float:
        """The step's length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class RecoveryPlan:
    """The full recovery pipeline and its worst-case completion time."""

    source_level_index: int
    source_name: str
    recovery_size: float
    steps: Tuple[RecoveryStep, ...]
    recovery_time: float

    def render_timeline(self) -> str:
        """ASCII Gantt of the recovery steps (the paper's Figure 4)."""
        lines = [
            f"recovery from {self.source_name} "
            f"({format_size(self.recovery_size)}), total "
            f"{format_duration(self.recovery_time)}"
        ]
        if not self.steps:
            return lines[0]
        span = max(step.end for step in self.steps) or 1.0
        width = 40
        for step in self.steps:
            begin = int(round(step.start / span * width))
            length = max(1, int(round(step.duration / span * width)))
            bar = " " * begin + "#" * min(length, width - begin)
            lines.append(
                f"  {step.label:<38} |{bar:<{width}}| "
                f"{format_duration(step.start)} -> {format_duration(step.end)}"
            )
        return "\n".join(lines)


def _provisioning_time(
    design: StorageDesign,
    device: Device,
    scenario: FailureScenario,
    failed_ids: "set[int]",
) -> float:
    """How long until a usable stand-in for ``device`` exists.

    Zero when the device survived.  A dedicated spare is co-located
    hardware: it rides out a device-scope failure but is destroyed along
    with its site/building/region.  A shared spare is assumed remote and
    survives any scope.  When the spare is gone too, the design's shared
    recovery facility is the last resort.
    """
    if id(device) not in failed_ids:
        return 0.0
    if device.is_interconnect:
        # Interconnect re-termination is part of facility provisioning;
        # it never gates recovery on its own in this model.
        return 0.0
    spare = device.spare
    if spare.exists:
        if spare.spare_type is SpareType.SHARED:
            return spare.provisioning_time
        if scenario.scope is FailureScope.DISK_ARRAY:
            return spare.provisioning_time
    facility = design.recovery_facility
    if facility is not None and facility.exists:
        return facility.provisioning_time
    raise RecoveryError(
        f"device {device.name!r} failed with no surviving spare and the "
        f"design {design.name!r} has no recovery facility"
    )


def _transfer_bandwidth(
    source: Device,
    destination: Device,
    transport: Optional[Device],
) -> float:
    """min(sender, interconnect, receiver) available bandwidth.

    The sender's rate is derated by its recovery read efficiency (tape
    streaming losses); an intra-device copy reads and writes the same
    hardware, so the effective rate is half the device's available
    bandwidth.
    """
    if source is destination:
        return source.available_bandwidth() / 2.0
    rate = min(
        source.available_bandwidth() * source.recovery_read_efficiency,
        destination.available_bandwidth(),
    )
    if transport is not None:
        rate = min(rate, transport.available_bandwidth())
    return rate


def _recovery_path(
    design: StorageDesign, source: Level
) -> "List[Tuple[Device, Optional[Device]]]":
    """The device chain of the recovery path.

    Returns ``[(node, inbound_transport), ...]`` from the source node to
    the primary store.  Levels that would only add latency are skipped
    (the paper's optimization); levels whose media *must* be read
    through other hardware (vaulted tapes through a tape library) route
    via that reader.
    """
    destination = design.primary_level.store
    path: "List[Tuple[Device, Optional[Device]]]" = [(source.store, None)]
    if source.technique.reads_via_source_level:
        if source.index < 1:
            raise RecoveryError(
                f"level {source.index} cannot read via a previous level"
            )
        reader = design.parent_of(source)
        path.append((reader.store, source.transport))
        path.append((destination, reader.transport))
    elif source.store is destination:
        path.append((destination, None))
    else:
        path.append((destination, source.transport))
    return path


def plan_recovery(
    design: StorageDesign,
    scenario: FailureScenario,
    workload: Workload,
    loss_result: Optional[DataLossResult] = None,
) -> RecoveryPlan:
    """Build the worst-case recovery plan for the scenario.

    Demands must already be registered (available bandwidths depend on
    them).  ``loss_result`` is computed when omitted; its
    ``source_index`` names the source level of ``design``, so a result
    restored from its serialized form plans alike.  Raises
    :class:`~repro.exceptions.RecoveryError` when the scenario is
    unrecoverable.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    timed = metrics.enabled
    if timed:
        t0 = perf_counter()
    # No scenario attribute: the caller's span names the scenario
    # (``assess`` in an evaluation), and describing it here cost one
    # more ``describe()`` per plan even with tracing off.
    with tracer.span("recovery.plan") as span:
        plan = _build_plan(design, scenario, workload, loss_result)
        span.set(
            source=plan.source_name,
            recovery_size=plan.recovery_size,
            steps=len(plan.steps),
            recovery_time=plan.recovery_time,
        )
    metrics.inc("recovery.plans")
    if timed:
        metrics.observe("recovery.plan_ms", (perf_counter() - t0) * 1e3)
    return plan


def _build_plan(
    design: StorageDesign,
    scenario: FailureScenario,
    workload: Workload,
    loss_result: Optional[DataLossResult],
) -> RecoveryPlan:
    if loss_result is None:
        loss_result = find_recovery_source(design, scenario)
    if loss_result.source_index is None:
        raise RecoveryError(
            f"design {design.name!r} has no usable recovery source for "
            f"{scenario.describe()}"
        )
    source = design.level(loss_result.source_index)
    failed_ids = {id(d) for d in design.failed_devices(scenario)}

    if scenario.scope is FailureScope.DATA_OBJECT:
        requested = scenario.object_size or workload.data_capacity
    else:
        requested = workload.data_capacity
    recovery_size = source.technique.recovery_size(workload, requested)

    path = _recovery_path(design, source)
    steps: "List[RecoveryStep]" = []

    # Provisioning runs in parallel from t=0 for every node that needs it.
    ready_gate: "List[float]" = []
    for node, _transport in path:
        par_fix = _provisioning_time(design, node, scenario, failed_ids)
        ready_gate.append(par_fix)
        if par_fix > 0:
            steps.append(
                RecoveryStep(
                    label=f"provision stand-in for {node.name}",
                    kind="provision",
                    start=0.0,
                    end=par_fix,
                )
            )

    # Walk the chain: the source is ready once provisioned and its media
    # are mounted; each hop then ships or streams the data onward.
    first_node = path[0][0]
    clock = ready_gate[0]
    if first_node.access_delay > 0:
        steps.append(
            RecoveryStep(
                label=f"load media at {first_node.name}",
                kind="media-load",
                start=clock,
                end=clock + first_node.access_delay,
            )
        )
        clock += first_node.access_delay

    for hop in range(1, len(path)):
        prev_node = path[hop - 1][0]
        node, transport = path[hop]
        if isinstance(transport, Shipment):
            # Cartridges leave as soon as the sender is ready; the
            # receiving device's provisioning overlaps the transit.
            arrival = clock + transport.transfer_time(recovery_size)
            steps.append(
                RecoveryStep(
                    label=f"ship media {prev_node.name} -> {node.name}",
                    kind="shipment",
                    start=clock,
                    end=arrival,
                )
            )
            clock = max(arrival, ready_gate[hop])
            if node.access_delay > 0:
                steps.append(
                    RecoveryStep(
                        label=f"load media at {node.name}",
                        kind="media-load",
                        start=clock,
                        end=clock + node.access_delay,
                    )
                )
                clock += node.access_delay
        else:
            # A streamed transfer starts only once the receiver exists.
            start = max(clock, ready_gate[hop])
            rate = _transfer_bandwidth(prev_node, node, transport)
            if rate <= 0:
                raise RecoveryError(
                    f"no bandwidth available to restore from "
                    f"{prev_node.name!r} to {node.name!r}"
                )
            duration = recovery_size / rate if rate != float("inf") else 0.0
            contended = [prev_node.name, node.name]
            if transport is not None:
                contended.append(transport.name)
            steps.append(
                RecoveryStep(
                    label=f"restore data {prev_node.name} -> {node.name}",
                    kind="transfer",
                    start=start,
                    end=start + duration,
                    devices=tuple(dict.fromkeys(contended)),
                )
            )
            clock = start + duration
            if hop < len(path) - 1 and node.access_delay > 0:
                steps.append(
                    RecoveryStep(
                        label=f"re-read media at {node.name}",
                        kind="media-load",
                        start=clock,
                        end=clock + node.access_delay,
                    )
                )
                clock += node.access_delay

    return RecoveryPlan(
        source_level_index=source.index,
        source_name=source.technique.name,
        recovery_size=recovery_size,
        steps=tuple(steps),
        recovery_time=clock,
    )
