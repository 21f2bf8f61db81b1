"""The no-op reject of the periodic balancers (``cannot_move``).

Both balancers return before their domain loop when
:func:`repro.sched.load_balance.cannot_move` says the pass can move no
task.  These tests check that the reject is exact: on random scheduler
states, the gated passes return the same counts and make the same
ordered migrations as the plain domain loop, and an observed run keeps
every audit record and balance-latency observation.
"""

import contextlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.energy_balance as energy_balance
import repro.sched.load_balance as load_balance
from repro.api import run_simulation
from repro.core.energy_balance import EnergyBalanceConfig, EnergyBalancer
from repro.cpu.topology import MachineSpec
from repro.obs import ObservabilityConfig
from repro.scenario import parse_scenario
from repro.scenarios import generate_scenario
from repro.sched.load_balance import (
    LoadBalanceConfig,
    cannot_move,
    load_balance_pass,
)
from tests.conftest import Harness

SPECS = {
    "ibm_x445": MachineSpec.ibm_x445(smt=True),  # smt + node + top
    "cmp2x2": MachineSpec.cmp(packages=2, cores=2, smt=False),  # core + node
}

#: One CPU's queue: how many tasks, whether the first one is current
#: (False leaves every task queued with ``current=None``, the state
#: ``pick_next`` leaves behind when no task is eligible), their powers.
queue_layouts = st.tuples(
    # weighted toward 1 and 2 tasks: the reject's boundary is a longest
    # queue of 2, and the energy step can first pull at 2
    st.sampled_from((0, 1, 1, 2, 2, 3)),
    st.booleans(),
    st.lists(st.floats(5.0, 60.0, allow_nan=False), min_size=3, max_size=3),
    st.floats(2.0, 40.0, allow_nan=False),
)


def _build(spec_name, layout):
    spec = SPECS[spec_name]
    h = Harness(spec, max_power_w=30.0)
    for cpu in range(len(h.topology)):
        n, first_current, powers, thermal = layout[cpu % len(layout)]
        for k in range(n):
            h.add_task(cpu, powers[k], running=first_current and k == 0)
        h.set_thermal(cpu, thermal)
    return h


def _run(spec_name, layout, min_imbalance, use_rq, use_thermal, energy, gated):
    """Balance every CPU once, in ascending order; returns the moves."""
    h = _build(spec_name, layout)
    load = LoadBalanceConfig(min_imbalance=min_imbalance)
    counts = []
    with _reject(gated):
        if energy:
            balancer = EnergyBalancer(
                h.metrics, h.hierarchy, h.runqueues,
                lambda t, s, d, r: h.migrate(t, s, d, r),
                EnergyBalanceConfig(
                    load=load,
                    use_rq_condition=use_rq,
                    use_thermal_condition=use_thermal,
                ),
            )
            for cpu in range(len(h.topology)):
                counts.append(balancer.balance(cpu))
        else:
            for cpu in range(len(h.topology)):
                counts.append(load_balance_pass(
                    cpu, h.hierarchy, h.runqueues,
                    migrate=lambda t, s, d: h.migrate(t, s, d),
                    config=load,
                ))
    return counts, h.migrations


@contextlib.contextmanager
def _reject(enabled):
    """Run with the reject as shipped, or patched out of both balancers."""
    gate = cannot_move if enabled else (lambda *_args: False)
    with mock.patch.object(energy_balance, "cannot_move", gate), \
            mock.patch.object(load_balance, "cannot_move", gate):
        yield


class TestRejectIsExact:
    @settings(max_examples=150, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(SPECS)),
        layout=st.lists(queue_layouts, min_size=1, max_size=6),
        min_imbalance=st.sampled_from([1, 2, 3]),
        conditions=st.sampled_from([(True, True), (False, True), (True, False)]),
        energy=st.booleans(),
    )
    def test_gated_equals_ungated(
        self, spec_name, layout, min_imbalance, conditions, energy
    ):
        use_rq, use_thermal = conditions
        args = (spec_name, layout, min_imbalance, use_rq, use_thermal, energy)
        assert _run(*args, gated=True) == _run(*args, gated=False)

    @given(
        spec_name=st.sampled_from(sorted(SPECS)),
        layout=st.lists(queue_layouts, min_size=1, max_size=6),
        min_imbalance=st.sampled_from([1, 2, 3]),
    )
    def test_reject_agrees_with_queue_lengths(
        self, spec_name, layout, min_imbalance
    ):
        h = _build(spec_name, layout)
        for cpu in range(len(h.topology)):
            local = h.runqueues[cpu].nr
            longest = max(rq.nr for rq in h.runqueues.values())
            expected = longest < 2 and longest - local < min_imbalance
            assert cannot_move(
                cpu, h.hierarchy, h.runqueues, min_imbalance
            ) is expected

    def test_lone_queued_remote_task_is_not_rejected(self):
        """``min_imbalance=1``: a remote queue holding one queued task and
        no current one is a load imbalance of 1, so the reject must leave
        the decision to the domain loop.  (The loop then halves the
        imbalance, ``1 // 2 == 0`` tasks, so neither balancer pulls it.)"""
        for spec in SPECS.values():
            h = Harness(spec)
            task = h.add_task(len(h.topology) - 1, 30.0)
            assert h.runqueues[task.cpu].current is None
            assert not cannot_move(0, h.hierarchy, h.runqueues, 1)
            assert cannot_move(0, h.hierarchy, h.runqueues, 2)
        for energy in (True, False):
            layout = [(0, False, [30.0] * 3, 10.0)] * 15 + [
                (1, False, [30.0] * 3, 10.0)
            ]
            args = ("ibm_x445", layout, 1, True, True, energy)
            assert _run(*args, gated=True) == _run(*args, gated=False)

    def test_single_cpu_machine_rejects(self):
        h = Harness(MachineSpec.smp(1))
        h.add_task(0, 30.0)
        h.add_task(0, 30.0)
        assert cannot_move(0, h.hierarchy, h.runqueues, 2)


def _observed_poisson_run(gated):
    scenario = parse_scenario(
        generate_scenario("poisson", {"horizon_s": 4.0}, seed=3)
    )
    with _reject(gated):
        return run_simulation(
            scenario.config, scenario.workload, policy=scenario.policy,
            duration_s=5.0, obs=ObservabilityConfig(profiling=True),
        )


class TestObservedRunsKeepEveryRecord:
    def test_audit_and_balance_histogram_unchanged(self):
        gated = _observed_poisson_run(gated=True)
        plain = _observed_poisson_run(gated=False)
        sites = gated.audit.sites_seen()
        assert sites.get("energy_balance", 0) > 0
        assert sites == plain.audit.sites_seen()
        assert gated.audit.to_dicts() == plain.audit.to_dicts()
        assert gated.observer.balance_hist.count() > 0
        assert (gated.observer.balance_hist.count()
                == plain.observer.balance_hist.count())
        assert gated.scalar_summary() == plain.scalar_summary()
