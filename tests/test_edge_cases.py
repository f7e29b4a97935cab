"""Edge cases across modules: over-commitment, formatting, rendering."""

import pytest

import repro
from repro import casestudy
from repro.design import DesignSpace, candidate_designs, optimize
from repro.exceptions import (
    BandwidthExceededError,
    CapacityExceededError,
    DesignError,
    OptimizationError,
)
from repro.reporting import whatif_report
from repro.reporting.charts import stacked_bar_chart
from repro.scenarios import FailureScope
from repro.serialization import scenario_from_spec
from repro.simulation import SimulatedLoss, summarize_losses
from repro.units import (
    GB,
    PB,
    TB,
    YEAR,
    format_duration,
    format_money,
    format_size,
    parse_rate,
)
from repro.workload.presets import cello


class TestOvercommitment:
    """The paper's section 3.3.1 errors, end to end."""

    def test_capacity_overcommit_raises(self):
        oversized = cello().with_capacity(4000 * GB)  # 8 TB raw on 18.25 TB...
        design = casestudy.baseline_design()          # ...x6 copies: way over
        with pytest.raises(CapacityExceededError) as excinfo:
            repro.evaluate(
                design, oversized,
                repro.FailureScenario.array_failure("primary-array"),
                casestudy.case_study_requirements(),
            )
        assert excinfo.value.device_name == "primary-array"
        assert excinfo.value.utilization > 1.0

    def test_bandwidth_overcommit_raises(self):
        hot = cello().scaled(600.0)
        design = casestudy.baseline_design()
        with pytest.raises(BandwidthExceededError):
            repro.evaluate(
                design, hot,
                repro.FailureScenario.array_failure("primary-array"),
                casestudy.case_study_requirements(),
            )

    def test_non_strict_reports_instead_of_raising(self):
        oversized = cello().with_capacity(4000 * GB)
        result = repro.evaluate(
            casestudy.baseline_design(), oversized,
            repro.FailureScenario.array_failure("primary-array"),
            casestudy.case_study_requirements(),
            strict_utilization=False,
        )
        assert not result.utilization.feasible


class TestFormattingEdges:
    def test_petabyte_size(self):
        assert format_size(2 * PB) == "2.0 PB"

    def test_year_scale_duration(self):
        assert "yr" in format_duration(3 * YEAR)

    def test_infinite_money(self):
        assert format_money(float("inf")) == "unbounded"

    def test_gigabit_rate_parse(self):
        assert parse_rate("1 Gbps") == pytest.approx(1e9 / 8)


class TestRenderingEdges:
    def test_whatif_report_total_loss_cell(self):
        """A design that cannot survive a scenario renders 'total'."""
        workload = cello()
        design = casestudy.baseline_design().without_level(3)
        results = repro.evaluate_scenarios(
            design, workload,
            [casestudy.site_failure_scenario()],
            casestudy.case_study_requirements(),
        )
        grid = {design.name: results}
        text = whatif_report(grid, list(results.keys()))
        assert "total" in text

    def test_stacked_chart_skips_infinite_segment(self):
        chart = stacked_bar_chart(
            {"row": {"fine": 10.0, "boom": float("inf")}},
            segment_order=["fine", "boom"],
            width=10,
        )
        assert "=" not in chart.splitlines()[0]  # 'boom' glyph absent

    def test_empty_recovery_timeline(self):
        from repro.core.recovery import RecoveryPlan

        plan = RecoveryPlan(
            source_level_index=1,
            source_name="x",
            recovery_size=0.0,
            steps=(),
            recovery_time=0.0,
        )
        assert "recovery from x" in plan.render_timeline()


class TestScenarioSpecEdges:
    def test_building_and_region_scopes(self):
        assert scenario_from_spec("building").scope is FailureScope.BUILDING
        assert scenario_from_spec("region").scope is FailureScope.REGION

    def test_failed_location_spec(self):
        scenario = scenario_from_spec(
            {"scope": "site",
             "failed_location": {"region": "r", "site": "s"}}
        )
        assert scenario.failed_location.site == "s"


class TestMetricsEdges:
    def test_all_total_loss_summary(self):
        samples = [
            SimulatedLoss(
                failure_time=1.0, target_age=0.0, data_loss=float("inf"),
                source_level_index=None, total_loss=True,
            )
        ]
        stats = summarize_losses(samples)
        assert stats.total_loss_count == 1
        assert stats.max_loss == float("inf")
        assert not stats.within_bound(1e12)

    def test_tightness_zero_bound(self):
        samples = [
            SimulatedLoss(
                failure_time=1.0, target_age=0.0, data_loss=0.0,
                source_level_index=1, total_loss=False,
            )
        ]
        stats = summarize_losses(samples)
        assert stats.tightness(0.0) == 1.0


class TestWorkloadEdges:
    def test_short_window_blend_is_capped_by_first_sample(self):
        """Below the smallest sample, the no-coalescing extrapolation
        cannot exceed the measured unique bytes of that sample."""
        workload = cello()
        tiny = workload.batch_curve.unique_bytes(30.0)
        at_sample = workload.batch_curve.unique_bytes(60.0)
        assert tiny <= at_sample

    def test_unique_bytes_interpolation_endpoints(self):
        curve = cello().batch_curve
        # Exactly at the samples, interpolation must be exact.
        for window, rate in curve.points:
            assert curve.unique_bytes(window) == pytest.approx(window * rate)


class TestScenarioLabelCollision:
    """Distinct scenarios sharing one ``describe()`` label (it omits the
    object size) used to collapse into one result entry, silently
    dropping the other scenario and making the outcome order-dependent."""

    @staticmethod
    def objects(*sizes):
        return [
            repro.FailureScenario.object_corruption(size, "24 hr")
            for size in sizes
        ]

    @pytest.mark.parametrize("sizes", [("1 MB", "500 GB"), ("500 GB", "1 MB")])
    def test_evaluate_scenarios_refuses_both_orders(self, sizes):
        scenarios = self.objects(*sizes)
        with pytest.raises(DesignError) as info:
            repro.evaluate_scenarios(
                casestudy.baseline_design(), cello(), scenarios,
                casestudy.case_study_requirements(),
            )
        message = str(info.value)
        assert repr(scenarios[0]) in message
        assert repr(scenarios[1]) in message

    @pytest.mark.parametrize("sizes", [("1 MB", "500 GB"), ("500 GB", "1 MB")])
    def test_optimize_reports_the_collision_both_orders(self, sizes):
        with pytest.raises(OptimizationError, match="share the label"):
            optimize(
                candidate_designs(DesignSpace()), cello(), self.objects(*sizes),
                casestudy.case_study_requirements(),
            )

    def test_equal_duplicates_keep_one_entry(self):
        results = repro.evaluate_scenarios(
            casestudy.baseline_design(), cello(), self.objects("1 MB", "1 MB"),
            casestudy.case_study_requirements(),
        )
        assert len(results) == 1
