"""Recent data loss and recovery-source selection (sections 3.3.2-3.3.3)."""

import importlib
from unittest import mock

import pytest

from repro import casestudy
from repro.core import (
    StorageDesign,
    compute_data_loss,
    evaluate,
    evaluate_scenarios,
    find_recovery_source,
)
from repro.core import cost, dataloss
from repro.core.dataloss import design_ranges, level_range
from repro.core.demands import register_design_demands
from repro.design.space import DesignSpace, candidate_designs
from repro.devices import SpareConfig
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.exceptions import RecoveryError
from repro.scenarios import FailureScenario
from repro.serialization import assessment_to_dict, canonical_json
from repro.scenarios.locations import PRIMARY_SITE, REMOTE_SITE
from repro.techniques import PrimaryCopy, SyncMirror
from repro.units import DAY, HOUR, MB, WEEK, YEAR
from repro.workload.presets import cello

# ``repro.core.evaluate`` the module; the package attribute is the function.
evaluate_module = importlib.import_module("repro.core.evaluate")


def _stage_scenarios(design):
    """Corruptions before, inside and beyond every level's range, plus
    array, building and site failures, one per report label."""
    scenarios = [
        FailureScenario.array_failure(),
        FailureScenario.building_disaster(),
        FailureScenario.site_disaster(),
    ]
    for rng in design_ranges(design).values():
        for age in (
            rng.newest_age / 2,
            (rng.newest_age + rng.oldest_age) / 2,
            rng.oldest_age,
            rng.oldest_age * 1.25 + HOUR,
        ):
            scenarios.append(FailureScenario.object_corruption(1 * MB, age))
    by_label = {}
    for scenario in scenarios:
        by_label.setdefault(scenario.describe(), scenario)
    return list(by_label.values())


def _without_timings(assessment):
    data = assessment_to_dict(assessment)
    data["provenance"].pop("phase_ms")
    return canonical_json(data)


@pytest.fixture
def baseline():
    design = casestudy.baseline_design()
    register_design_demands(design, cello())
    return design


class TestLevelRanges:
    def test_split_mirror_range(self, baseline):
        rng = level_range(baseline, baseline.level(1))
        assert rng.newest_age == pytest.approx(12 * HOUR)
        assert rng.oldest_age == pytest.approx(36 * HOUR)

    def test_backup_range(self, baseline):
        rng = level_range(baseline, baseline.level(2))
        # Newest: accW + holdW + propW = 168 + 1 + 48 = 217 h.
        assert rng.newest_age == pytest.approx(217 * HOUR)
        # Oldest: (retCnt-1) * cyclePer + holdW + propW = 3 wk + 49 h.
        assert rng.oldest_age == pytest.approx(3 * WEEK + 49 * HOUR)

    def test_vault_range(self, baseline):
        rng = level_range(baseline, baseline.level(3))
        # Newest: upstream (49 h) + vault lag (4 wk + 4 wk + 12 h + 24 h).
        assert rng.newest_age == pytest.approx(1429 * HOUR)
        # Oldest reaches back ~3 years.
        assert rng.oldest_age > 2.9 * YEAR

    def test_ranges_nest_with_depth(self, baseline):
        """Slower levels reach further back AND lag further behind."""
        r1 = level_range(baseline, baseline.level(1))
        r2 = level_range(baseline, baseline.level(2))
        r3 = level_range(baseline, baseline.level(3))
        assert r1.newest_age <= r2.newest_age <= r3.newest_age
        assert r1.oldest_age <= r2.oldest_age <= r3.oldest_age


class TestTable6DataLoss:
    def test_object_rollback_from_split_mirror(self, baseline):
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "split mirror"
        assert result.data_loss == pytest.approx(12 * HOUR)

    def test_array_failure_from_backup(self, baseline):
        result = compute_data_loss(
            baseline, FailureScenario.array_failure("primary-array")
        )
        assert result.source_name == "backup"
        assert result.data_loss == pytest.approx(217 * HOUR)

    def test_site_failure_from_vault(self, baseline):
        result = compute_data_loss(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE)
        )
        assert result.source_name == "remote vaulting"
        assert result.data_loss == pytest.approx(1429 * HOUR)


class TestEdgeCases:
    def test_target_beyond_all_retention_is_total_loss(self, baseline):
        # Ask for a version from ten years ago.
        scenario = FailureScenario.object_corruption(1 * MB, 10 * YEAR)
        result = compute_data_loss(baseline, scenario)
        assert result.total_loss
        assert result.data_loss == float("inf")
        with pytest.raises(RecoveryError):
            compute_data_loss(baseline, scenario, allow_total_loss=False)

    def test_old_target_skips_expired_levels(self, baseline):
        # Ten weeks back: the mirrors (2 d) and backups (4 wk) have
        # expired; only the vault still holds it.
        scenario = FailureScenario.object_corruption(1 * MB, 10 * WEEK)
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "remote vaulting"
        # In-range: loss is one vault RP spacing.
        assert result.data_loss == pytest.approx(4 * WEEK)

    def test_mid_range_target_uses_backup_spacing(self, baseline):
        # Two weeks back: mirrors expired, backup range covers it.
        scenario = FailureScenario.object_corruption(1 * MB, 2 * WEEK)
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "backup"
        assert result.data_loss == pytest.approx(1 * WEEK)

    def test_sync_mirror_zero_loss(self):
        """A surviving synchronous mirror recovers 'now' losslessly."""
        design = StorageDesign("sync", recovery_facility=SpareConfig.shared())
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            SyncMirror(),
            store=midrange_disk_array(name="remote", location=REMOTE_SITE),
            transport=oc3_links(10),
        )
        register_design_demands(design, cello())
        result = compute_data_loss(
            design, FailureScenario.array_failure("primary-array")
        )
        assert result.data_loss == 0.0

    def test_sync_mirror_cannot_roll_back(self):
        """A mirror holds only 'now': rollback targets are unreachable."""
        design = StorageDesign("sync", recovery_facility=SpareConfig.shared())
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            SyncMirror(),
            store=midrange_disk_array(name="remote", location=REMOTE_SITE),
            transport=oc3_links(10),
        )
        register_design_demands(design, cello())
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        result = compute_data_loss(design, scenario)
        assert result.total_loss

    def test_ranges_reported_for_survivors(self, baseline):
        result = find_recovery_source(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE)
        )
        assert len(result.ranges) == 1  # only the vault survives
        assert result.ranges[0].technique_name == "remote vaulting"


class TestNormalModeStage:
    """``evaluate_scenarios`` computes ranges and outlays once per call."""

    def test_staged_results_match_the_unstaged_oracle(self):
        workload = cello()
        requirements = casestudy.case_study_requirements()
        factories = candidate_designs(DesignSpace())
        assert len(factories) == 16
        cases = set()
        for name, factory in factories.items():
            design = factory()
            scenarios = _stage_scenarios(design)
            staged = evaluate_scenarios(
                design, workload, scenarios, requirements
            )
            assert len(staged) == len(scenarios)
            for scenario in scenarios:
                assessment = staged[scenario.describe()]
                oracle = find_recovery_source(design, scenario)
                assert assessment.data_loss == oracle, (name, scenario)
                assert assessment.data_loss.ranges == oracle.ranges == tuple(
                    level_range(design, level)
                    for level in design.surviving_levels(scenario)
                )
                assert assessment.data_loss.source_index == oracle.source_index
                single = evaluate(design, workload, scenario, requirements)
                assert _without_timings(assessment) == _without_timings(
                    single
                ), (name, scenario)
                cases.add(
                    "total" if oracle.total_loss else oracle.source_technique
                )
        # Every outcome kind is reached: each tape-track level serves
        # some scenario, and some scenarios are a total loss.
        assert {"total", "backup", "remote vaulting"} <= cases

    def test_ranges_and_outlays_run_once_per_call(self, baseline):
        scenarios = [
            FailureScenario.object_corruption(1 * MB, hours * HOUR)
            for hours in range(6, 6 * 22, 6)
        ] + [
            FailureScenario.array_failure(),
            FailureScenario.building_disaster(),
            FailureScenario.site_disaster(),
        ]
        assert len(scenarios) == 24
        ranges = mock.Mock(wraps=level_range)
        outlays = mock.Mock(wraps=cost.compute_outlays)
        with mock.patch.object(dataloss, "level_range", ranges), \
                mock.patch.object(cost, "compute_outlays", outlays), \
                mock.patch.object(evaluate_module, "compute_outlays", outlays):
            results = evaluate_scenarios(
                baseline,
                cello(),
                scenarios,
                casestudy.case_study_requirements(),
            )
        assert len(results) == 24
        assert ranges.call_count == len(baseline.secondary_levels())
        assert outlays.call_count == 1
        # Every breakdown owns its outlay dict.
        breakdowns = [a.costs.outlays_by_technique for a in results.values()]
        assert len({id(b) for b in breakdowns}) == 24
        assert all(b == breakdowns[0] for b in breakdowns)
