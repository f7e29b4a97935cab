"""Recent data loss and recovery-source selection (paper §3.3.2–3.3.3).

For each surviving level the framework computes the range of time whose
RPs are *guaranteed* present (Figure 3): the newest guaranteed RP is
``sum(holdW_i + propW_i) + accW_j`` old (generalized here to the cycle
model's worst lag plus the upstream delays), and the oldest reaches back
a further ``(retCnt_j - 1) * cyclePer_j``.

Given the recovery target, three cases per level (§3.3.3):

1. target newer than the level's newest guaranteed RP → the level is
   usable, losing the level's full time lag of recent updates;
2. target within the guaranteed range → usable, losing at most the
   worst spacing between RPs (the paper's ``accW_j``);
3. target older than the range → the level cannot serve the recovery.

The closest usable level (lowest index — fastest media, freshest RPs)
becomes the recovery source.  If no level qualifies, the data object is
lost in its entirety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..exceptions import RecoveryError
from ..scenarios.failures import FailureScenario
from .hierarchy import Level, StorageDesign


@dataclass(frozen=True)
class LevelRange:
    """A level's guaranteed RP age range (ages relative to 'now')."""

    level_index: int
    technique_name: str
    newest_age: float
    oldest_age: float

    def covers(self, target_age: float) -> bool:
        """Whether an RP at or before the target age is guaranteed here."""
        return target_age <= self.oldest_age


@dataclass(frozen=True)
class DataLossResult:
    """Worst-case recent data loss and the level that bounds it.

    A plain value: the source level is named by ``source_index`` (its
    position in the design, resolved with
    :meth:`~repro.core.hierarchy.StorageDesign.level`) and
    ``source_technique``, both ``None`` on a total loss.  A result
    computed inline, returned by a pool worker or restored from the
    engine's cache has the same shape and compares equal.
    """

    data_loss: float
    total_loss: bool
    target_age: float
    ranges: Tuple[LevelRange, ...]
    source_index: Optional[int] = None
    source_technique: Optional[str] = None

    @property
    def source_name(self) -> str:
        """The recovery source technique's name ("split mirror", ...)."""
        if self.source_technique is None:
            return "(unrecoverable)"
        return self.source_technique


def level_range(design: StorageDesign, level: Level) -> LevelRange:
    """The Figure 3 guaranteed range for one level of a design."""
    upstream = design.upstream_delay(level.index)
    technique = level.technique
    newest_age = upstream + technique.worst_lag()
    oldest_age = (
        upstream
        + technique.full_availability_delay()
        + technique.retention_span()
    )
    return LevelRange(
        level_index=level.index,
        technique_name=technique.name,
        newest_age=newest_age,
        oldest_age=max(oldest_age, newest_age - technique.worst_spacing()),
    )


def design_ranges(design: StorageDesign) -> "Dict[int, LevelRange]":
    """Every secondary level's Figure 3 range, keyed by level index.

    A range depends on the design alone (its techniques' windows and the
    upstream delays), not on the failure scenario, so one evaluation
    computes it once and every scenario reads it.
    """
    return {
        level.index: level_range(design, level)
        for level in design.secondary_levels()
    }


def _loss_for_level(
    level: Level, rng: LevelRange, target_age: float
) -> Optional[float]:
    """Worst-case loss using this level, or None when it cannot serve."""
    if target_age < rng.newest_age:
        # Case 1: the wanted RP hasn't propagated here yet; restore the
        # newest RP present and lose the level's whole time lag.
        return rng.newest_age
    if target_age <= rng.oldest_age:
        # Case 2: RPs bracketing the target are retained; lose at most
        # one RP spacing relative to the target.
        return level.technique.worst_spacing()
    # Case 3: too old — already expired from this level.
    return None


def find_recovery_source(
    design: StorageDesign,
    scenario: FailureScenario,
    ranges: "Optional[Mapping[int, LevelRange]]" = None,
) -> DataLossResult:
    """Pick the recovery source level and its worst-case data loss.

    Surviving levels are considered closest-first (they hold the most
    recent RPs on the fastest media).  A level whose guaranteed range
    has expired past the target is skipped; if every level has, the
    object is a total loss.  ``ranges`` is the design's
    :func:`design_ranges`, computed here when omitted.
    """
    if ranges is None:
        ranges = design_ranges(design)
    target_age = scenario.recovery_target_age
    survivors = design.surviving_levels(scenario)
    survivor_ranges = tuple(ranges[level.index] for level in survivors)
    for level, rng in zip(survivors, survivor_ranges):
        loss = _loss_for_level(level, rng, target_age)
        if loss is not None:
            return DataLossResult(
                data_loss=loss,
                total_loss=False,
                target_age=target_age,
                ranges=survivor_ranges,
                source_index=level.index,
                source_technique=level.technique.name,
            )
    return DataLossResult(
        data_loss=float("inf"),
        total_loss=True,
        target_age=target_age,
        ranges=survivor_ranges,
    )


def compute_data_loss(
    design: StorageDesign,
    scenario: FailureScenario,
    allow_total_loss: bool = True,
    ranges: "Optional[Mapping[int, LevelRange]]" = None,
) -> DataLossResult:
    """Worst-case recent data loss for the scenario.

    With ``allow_total_loss=False`` an unrecoverable scenario raises
    :class:`~repro.exceptions.RecoveryError` instead of returning an
    infinite loss.  ``ranges`` is passed on to
    :func:`find_recovery_source`.
    """
    result = find_recovery_source(design, scenario, ranges)
    if result.total_loss and not allow_total_loss:
        raise RecoveryError(
            f"design {design.name!r} retains no RP usable for "
            f"{scenario.describe()}: the data object is lost"
        )
    return result
