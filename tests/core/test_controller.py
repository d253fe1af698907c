"""Tests for the Monitor->Estimate->Control run loop."""

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.limits import ConstraintSchedule
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.errors import ExperimentError, GovernorError
from repro.platform.machine import Machine, MachineConfig

MODEL = LinearPowerModel.paper_model()


@pytest.fixture()
def long_core_workload(tiny_core_workload):
    """~250 ms at 2 GHz -- long enough for schedules and 100 ms windows."""
    return tiny_core_workload.scaled(12.0)


def make_controller(governor_cls, *args, seed=0, **kw):
    machine = Machine(MachineConfig(seed=seed))
    governor = governor_cls(machine.config.table, *args, **kw)
    return machine, PowerManagementController(machine, governor)


class TestRunLoop:
    def test_run_completes_workload(self, tiny_core_workload):
        machine, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(tiny_core_workload)
        assert result.instructions == pytest.approx(
            tiny_core_workload.total_instructions
        )
        assert result.duration_s > 0
        assert result.workload == "tiny-core"

    def test_measured_energy_close_to_truth(self, tiny_core_workload):
        _, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(tiny_core_workload)
        assert result.measured_energy_j == pytest.approx(
            result.true_energy_j, rel=0.02
        )
        assert result.mean_power_w == pytest.approx(
            result.measured_energy_j / result.duration_s
        )

    def test_trace_rows_align_with_ticks(self, tiny_core_workload):
        _, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(tiny_core_workload)
        assert len(result.trace) > 0
        times = [row.time_s for row in result.trace]
        assert times == sorted(times)

    def test_keep_trace_false_drops_rows(self, tiny_core_workload):
        machine = Machine(MachineConfig(seed=0))
        governor = FixedFrequency(machine.config.table, 2000.0)
        controller = PowerManagementController(
            machine, governor, keep_trace=False
        )
        result = controller.run(tiny_core_workload)
        assert result.trace == ()
        assert result.samples  # power samples still collected

    def test_residency_sums_to_duration(self, two_phase_workload):
        _, controller = make_controller(
            PowerSave, PerformanceModel.paper_primary(), 0.8
        )
        result = controller.run(two_phase_workload)
        assert sum(result.residency_s.values()) == pytest.approx(
            result.duration_s
        )

    def test_timeout_guard(self, tiny_core_workload):
        _, controller = make_controller(FixedFrequency, 600.0)
        with pytest.raises(ExperimentError, match="exceeded"):
            controller.run(tiny_core_workload, max_seconds=0.0)


class TestGovernorIntegration:
    def test_pm_enforces_limit_on_hot_workload(self, long_core_workload):
        _, controller = make_controller(PerformanceMaximizer, MODEL, 12.5)
        result = controller.run(long_core_workload)
        assert result.violation_fraction(12.5) == 0.0
        # Apart from the very first tick (runs start at P0 before the
        # governor's first decision), the hot workload stays below P0.
        assert result.residency_s.get(2000.0, 0.0) <= 0.011

    def test_ps_modulates_with_phases(self, two_phase_workload):
        _, controller = make_controller(
            PowerSave, PerformanceModel.paper_primary(), 0.8
        )
        result = controller.run(two_phase_workload)
        # Compute phase -> 1800, memory phase -> 800.
        assert set(result.residency_s) >= {800.0, 1800.0}

    def test_transitions_counted(self, two_phase_workload):
        _, controller = make_controller(
            PowerSave, PerformanceModel.paper_primary(), 0.8
        )
        result = controller.run(two_phase_workload)
        assert result.transitions >= 2


class TestSchedule:
    def test_scheduled_limit_change_applies(self, long_core_workload):
        schedule = ConstraintSchedule()
        schedule.add_power_limit(0.05, 10.5)
        _, controller = make_controller(PerformanceMaximizer, MODEL, 17.5)
        result = controller.run(long_core_workload, schedule=schedule)
        early = [r for r in result.trace if r.time_s < 0.045]
        late = [r for r in result.trace if r.time_s > 0.08]
        assert max(r.frequency_mhz for r in early) == 2000.0
        assert max(r.frequency_mhz for r in late) <= 1400.0

    def test_schedule_reusable_across_runs(self, tiny_core_workload):
        schedule = ConstraintSchedule()
        schedule.add_power_limit(0.05, 10.5)
        for _ in range(2):
            _, controller = make_controller(PerformanceMaximizer, MODEL, 17.5)
            result = controller.run(tiny_core_workload, schedule=schedule)
            assert result.duration_s > 0

    def test_floor_schedule(self, long_core_workload):
        schedule = ConstraintSchedule()
        schedule.add_performance_floor(0.03, 0.4)
        _, controller = make_controller(
            PowerSave, PerformanceModel.paper_primary(), 0.9
        )
        result = controller.run(long_core_workload, schedule=schedule)
        late = [r for r in result.trace if r.time_s > 0.06]
        assert min(r.frequency_mhz for r in late) <= 1000.0

    @pytest.mark.parametrize("time_s", [-0.01, float("nan")])
    def test_rejects_times_outside_the_run_clock(self, time_s):
        schedule = ConstraintSchedule()
        with pytest.raises(GovernorError):
            schedule.add_power_limit(time_s, 12.0)
        with pytest.raises(GovernorError):
            schedule.add_performance_floor(time_s, 0.8)

    def test_next_time_is_the_earliest_undelivered_change(self):
        schedule = ConstraintSchedule()
        assert schedule.next_time_s(0) == float("inf")
        schedule.add_power_limit(0.3, 12.0)
        schedule.add_power_limit(0.1, 14.0)
        assert schedule.next_time_s(0) == 0.1
        assert schedule.next_time_s(1) == 0.3
        assert schedule.next_time_s(2) == float("inf")


class TestResultMetrics:
    def test_moving_average_window_shapes(self, tiny_core_workload):
        _, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(tiny_core_workload)
        series = result.moving_average_power(window=2)
        assert len(series) == len(result.samples) - 1
        with pytest.raises(ExperimentError):
            result.moving_average_power(0)

    def test_violation_fraction_zero_for_generous_limit(
        self, long_core_workload
    ):
        _, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(long_core_workload)
        assert result.violation_fraction(100.0) == 0.0
        assert result.violation_fraction(1.0) == 1.0

    def test_ips_property(self, tiny_core_workload):
        _, controller = make_controller(FixedFrequency, 2000.0)
        result = controller.run(tiny_core_workload)
        assert result.ips == pytest.approx(
            result.instructions / result.duration_s
        )
