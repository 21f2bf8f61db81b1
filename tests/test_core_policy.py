"""Unit tests for the policy facades (paper §5 integration points)."""

import pytest

from repro.core.policy import (
    BaselinePolicy,
    EnergyAwareConfig,
    EnergyAwarePolicy,
)
from repro.cpu.topology import MachineSpec
from tests.conftest import Harness, make_task


def baseline(harness: Harness) -> BaselinePolicy:
    return BaselinePolicy(
        harness.hierarchy,
        harness.runqueues,
        lambda t, s, d, r: harness.migrate(t, s, d, r),
    )


def energy(harness: Harness, config: EnergyAwareConfig | None = None) -> EnergyAwarePolicy:
    return EnergyAwarePolicy(
        harness.metrics,
        harness.hierarchy,
        harness.runqueues,
        lambda t, s, d, r: harness.migrate(t, s, d, r),
        config,
    )


@pytest.fixture
def smp4():
    return Harness(MachineSpec.smp(4), max_power_w=60.0)


class TestBaselinePolicy:
    def test_places_on_least_loaded(self, smp4):
        smp4.add_task(0, 45.0)
        smp4.add_task(1, 45.0)
        policy = baseline(smp4)
        assert policy.place_new_task(make_task()) in (2, 3)

    def test_never_does_active_migration(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        assert not baseline(smp4).check_active_migration(0)

    def test_balances_load_only(self, smp4):
        hot = smp4.add_task(0, 60.0)
        smp4.add_task(0, 60.0)
        smp4.add_task(0, 25.0)
        smp4.add_task(0, 25.0)
        baseline(smp4).periodic_balance(1)
        assert smp4.runqueues[1].nr_running == 2
        assert all(r == "load_balance" for (_, _, _, r) in smp4.migrations)

    def test_ignores_energy_imbalance(self, smp4):
        """Equal lengths but wildly different powers: vanilla does
        nothing — the gap the paper's policy fills."""
        smp4.add_task(0, 60.0)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        assert baseline(smp4).periodic_balance(1) == 0

    def test_first_timeslice_hook_is_noop(self, smp4):
        policy = baseline(smp4)
        policy.on_first_timeslice(make_task(), 50.0)  # must not raise

    def test_initial_profile_is_default(self, smp4):
        assert baseline(smp4).initial_profile_power(make_task()) == pytest.approx(45.0)


class TestEnergyAwarePolicy:
    def test_placement_uses_inode_table(self, smp4):
        policy = energy(smp4)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 45.0)
        smp4.add_task(2, 30.0)
        smp4.add_task(3, 45.0)
        task = make_task(inode=77)
        policy.on_first_timeslice(task, 60.0)
        assert policy.initial_profile_power(make_task(inode=77)) == 60.0

    def test_balance_does_energy_and_load(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0, running=True)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        moved = energy(smp4).periodic_balance(1)
        assert moved > 0
        reasons = {r for (_, _, _, r) in smp4.migrations}
        assert "energy_balance" in reasons

    def test_active_migration_triggers(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        smp4.set_thermal(1, 10.0)
        assert energy(smp4).check_active_migration(0)


class TestAblationSwitches:
    def test_disable_energy_balance_falls_back_to_vanilla(self, smp4):
        config = EnergyAwareConfig(enable_energy_balance=False)
        smp4.add_task(0, 60.0, running=True)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0, running=True)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        assert energy(smp4, config).periodic_balance(1) == 0

    def test_disable_hot_migration(self, smp4):
        config = EnergyAwareConfig(enable_hot_migration=False)
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        smp4.set_thermal(1, 10.0)
        assert not energy(smp4, config).check_active_migration(0)

    def test_disable_placement_falls_back_to_least_loaded(self, smp4):
        config = EnergyAwareConfig(enable_placement=False)
        policy = energy(smp4, config)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 45.0)
        smp4.add_task(2, 30.0)
        # CPU 3 idle: least-loaded placement always chooses it, even for
        # a hot task that energy placement would have sent elsewhere.
        assert policy.place_new_task(make_task(power_w=60.0)) == 3


class TestBalanceCannotMove:
    def test_both_policies_reject_short_queues(self, smp4):
        smp4.add_task(0, 45.0, running=True)
        smp4.add_task(1, 45.0, running=True)
        assert baseline(smp4).balance_cannot_move(2)
        assert energy(smp4).balance_cannot_move(2)
        smp4.add_task(1, 45.0)
        assert not baseline(smp4).balance_cannot_move(2)
        assert not energy(smp4).balance_cannot_move(2)

    def test_audited_balancer_is_never_skipped(self, smp4):
        policy = energy(smp4)
        policy.balancer.audit = object()
        assert not policy.balance_cannot_move(0)
        fallback = energy(smp4, EnergyAwareConfig(enable_energy_balance=False))
        fallback.balancer.audit = object()
        assert fallback.balance_cannot_move(0)
