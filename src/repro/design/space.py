"""Candidate design enumeration from parameter grids.

A :class:`DesignSpace` is a small grammar over the case-study's design
family: choose a point-in-time flavor (split mirror / snapshot / none),
a backup policy (cadences with or without incrementals / none), a
vaulting cadence (or none), and optionally a batched-async mirror with
a link count.  :func:`candidate_designs` expands the cross product into
named design factories, pruning combinations that violate the
structural conventions (backup requires a PiT image to read from;
vaulting requires backup).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.hierarchy import StorageDesign
from ..devices.catalog import (
    air_shipment,
    enterprise_tape_library,
    midrange_disk_array,
    oc3_links,
    offsite_vault,
    san_link,
)
from ..devices.spares import SpareConfig
from ..exceptions import DesignError
from ..scenarios.locations import REMOTE_SITE
from ..techniques.backup import Backup, IncrementalPolicy
from ..techniques.mirroring import BatchedAsyncMirror
from ..techniques.primary import PrimaryCopy
from ..techniques.snapshot import VirtualSnapshot
from ..techniques.split_mirror import SplitMirror
from ..techniques.vaulting import RemoteVaulting
from ..units import parse_duration


@dataclass(frozen=True)
class PitChoice:
    """A point-in-time flavor: kind, window, retention."""

    kind: str  # "split-mirror" | "snapshot" | "none"
    accumulation_window: str = "12 hr"
    retention_count: int = 4

    def build(self):
        if self.kind == "split-mirror":
            return SplitMirror(self.accumulation_window, self.retention_count)
        if self.kind == "snapshot":
            return VirtualSnapshot(self.accumulation_window, self.retention_count)
        if self.kind == "none":
            return None
        raise DesignError(f"unknown PiT kind {self.kind!r}")

    @property
    def label(self) -> str:
        return self.kind if self.kind != "none" else "no-pit"


@dataclass(frozen=True)
class BackupChoice:
    """A backup cadence; ``None`` fields follow the baseline."""

    label: str
    full_accumulation_window: str
    full_propagation_window: str
    full_hold_window: str = "1 hr"
    retention_count: int = 4
    incremental: Optional[IncrementalPolicy] = None

    def build(self) -> Backup:
        return Backup(
            full_accumulation_window=self.full_accumulation_window,
            full_propagation_window=self.full_propagation_window,
            full_hold_window=self.full_hold_window,
            retention_count=self.retention_count,
            incremental=self.incremental,
        )


@dataclass(frozen=True)
class VaultChoice:
    """A vaulting cadence."""

    label: str
    accumulation_window: str
    hold_window: str
    retention_count: int

    def build(self) -> RemoteVaulting:
        return RemoteVaulting(
            accumulation_window=self.accumulation_window,
            propagation_window="24 hr",
            hold_window=self.hold_window,
            retention_count=self.retention_count,
        )


@dataclass(frozen=True)
class DesignSpace:
    """Grids over the case-study design family.

    Any axis may be empty-augmented with ``None`` entries (e.g. "no
    vaulting"); mirrors are an independent axis added on top of (or
    instead of) the tape hierarchy.
    """

    pit_choices: Tuple[PitChoice, ...] = (
        PitChoice("split-mirror"),
        PitChoice("snapshot"),
    )
    backup_choices: Tuple[Optional[BackupChoice], ...] = (
        BackupChoice("weekly-full", "1 wk", "48 hr"),
        BackupChoice("daily-full", "24 hr", "12 hr"),
        None,
    )
    vault_choices: Tuple[Optional[VaultChoice], ...] = (
        VaultChoice("4wk-vault", "4 wk", "676 hr", 39),
        VaultChoice("weekly-vault", "1 wk", "12 hr", 156),
        None,
    )
    mirror_link_counts: Tuple[Optional[int], ...] = (None, 1, 10)

    def size_upper_bound(self) -> int:
        """Cross-product size before structural pruning."""
        return (
            len(self.pit_choices)
            * len(self.backup_choices)
            * len(self.vault_choices)
            * len(self.mirror_link_counts)
        )


def _build_design(
    name: str,
    pit: PitChoice,
    backup: Optional[BackupChoice],
    vault: Optional[VaultChoice],
    links: Optional[int],
) -> StorageDesign:
    """Assemble one candidate on fresh catalog hardware.

    When both a mirror and a tape track are present, the mirror branches
    directly off the primary copy (``feeds_from=0``) while the tape
    track hangs off the PiT level — the hybrid topology that branching
    hierarchies make expressible.
    """
    array = midrange_disk_array(spare=SpareConfig.dedicated("60 s", 1.0))
    design = StorageDesign(name, recovery_facility=SpareConfig.shared("9 hr", 0.2))
    design.add_level(PrimaryCopy(), store=array)
    pit_technique = pit.build()
    pit_index: Optional[int] = None
    if pit_technique is not None:
        pit_index = design.add_level(pit_technique, store=array).index
    if links is not None:
        design.add_level(
            BatchedAsyncMirror("1 min"),
            store=midrange_disk_array(
                name="mirror-array", location=REMOTE_SITE, spare=SpareConfig.none()
            ),
            transport=oc3_links(links),
            feeds_from=0,
        )
    backup_index: Optional[int] = None
    if backup is not None:
        backup_index = design.add_level(
            backup.build(),
            store=enterprise_tape_library(spare=SpareConfig.dedicated("60 s", 1.0)),
            transport=san_link(),
            feeds_from=pit_index,
        ).index
    if vault is not None:
        design.add_level(
            vault.build(),
            store=offsite_vault(),
            transport=air_shipment(),
            feeds_from=backup_index,
        )
    return design


def _structurally_valid(
    pit: PitChoice,
    backup: Optional[BackupChoice],
    vault: Optional[VaultChoice],
) -> bool:
    """Prune combinations the conventions forbid or that protect nothing."""
    if vault is not None and backup is None:
        return False  # vaulting ships backup media
    if backup is not None and pit.kind == "none":
        return False  # backup reads a consistent PiT image
    if backup is None and pit.kind == "none":
        return False  # no protection at all
    if pit.kind != "none" and backup is not None:
        pit_window = parse_duration(pit.accumulation_window)
        backup_window = parse_duration(backup.full_accumulation_window)
        if backup_window < pit_window:
            return False  # accW_{i+1} >= cyclePer_i convention
    return True


def candidate_designs(
    space: DesignSpace,
    include_hybrids: bool = False,
) -> "Dict[str, Callable[[], StorageDesign]]":
    """Expand the space into ``{name: factory}``, structurally pruned.

    Each factory is a :func:`functools.partial` of a module-level
    builder over frozen choices, so it pickles: a worker process can
    build the design it evaluates instead of receiving it built.

    By default the tape track (PiT + backup + vault) and the mirror
    track are separate families, as in the case study.
    ``include_hybrids=True`` additionally crosses the mirror axis into
    the tape track as a *branch* off the primary copy (legal under the
    section 3.2.1 conventions because the conventions apply per feeding
    chain, not per level number) — the designs that satisfy a
    minutes-level RPO *and* historical rollback at once.
    """
    factories: "Dict[str, Callable[[], StorageDesign]]" = {}
    link_options: "Tuple[Optional[int], ...]" = (
        space.mirror_link_counts if include_hybrids else (None,)
    )
    for pit in space.pit_choices:
        for backup in space.backup_choices:
            for vault in space.vault_choices:
                if not _structurally_valid(pit, backup, vault):
                    continue
                for links in link_options:
                    parts: "List[str]" = [pit.label]
                    if links is not None:
                        parts.append(f"asyncB-{links}link")
                    if backup is not None:
                        parts.append(backup.label)
                    if vault is not None:
                        parts.append(vault.label)
                    name = " + ".join(parts)
                    factories[name] = functools.partial(
                        _build_design, name, pit, backup, vault, links
                    )
    for links in space.mirror_link_counts:
        if links is None:
            continue
        name = f"asyncB-{links}link"
        factories[name] = functools.partial(
            _build_design, name, PitChoice("none"), None, None, links
        )
    return factories
