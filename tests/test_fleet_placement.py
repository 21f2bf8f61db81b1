"""Fleet placement from the parsed scenario agrees with the built check.

``run_grid_fleet`` decides which jobs the fleet takes with
:func:`repro.fleet.fleet_refusals` on the parsed scenario, without
building anything; the batch then builds each member and
``FleetEngine`` asserts :func:`repro.fleet.check_fleet_supported` on
it.  The property here: for every scenario the strategies can draw —
every registered generator family and a static scenario, perturbed
with noise, counter jitter, throttle modes, power caps,
``threads_per_core`` and every registry policy — the predicate refuses
exactly when the built check refuses, with the identical reason text.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policyspec import policy_names
from repro.fleet import FleetUnsupported, check_fleet_supported, fleet_refusals
from repro.scenario import parse_scenario
from repro.scenarios import GeneratorSpec, family_names
from repro.system import System

#: A fleet-ready static scenario (the runner tests' base shape).
STATIC = {
    "machine": {"preset": "cmp", "packages": 2, "cores": 2, "smt": False},
    "max_power_per_cpu_w": 60.0,
    "counter_jitter_sigma": 0.0,
    "power": {"noise_sigma": 0.0},
    "workload": {"tasks": [
        {"program": "bitcnts"}, {"program": "memrw"}, {"program": "aluadd"},
    ]},
    "duration_s": 2.0,
}

SMALL_MACHINES = ("smp2", "smp4", "cmp2x2")
ABSENT = object()


def sometimes(*values):
    """``ABSENT`` (the base scenario's own value) half the time."""
    return st.one_of(st.just(ABSENT), st.sampled_from(values))


bases = st.one_of(
    st.builds(
        lambda family, machine, seed: GeneratorSpec(
            family, {"machine": machine, "horizon_s": 12.0}, seed=seed
        ).instantiate(),
        st.sampled_from(family_names()),
        st.sampled_from(SMALL_MACHINES),
        st.integers(0, 2**16),
    ),
    st.just(STATIC),
)
machines = st.one_of(
    st.just(ABSENT),
    st.builds(
        lambda nodes, packages, cores, threads: {
            "nodes": nodes, "packages_per_node": packages,
            "cores_per_package": cores, "threads_per_core": threads,
        },
        st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
        st.integers(1, 4),
    ),
)
throttles = sometimes(
    {"enabled": False},
    {"enabled": True, "mode": "hlt"},
    {"enabled": True, "mode": "dvfs"},
    {"enabled": False, "mode": "dvfs"},
)


@settings(max_examples=60, deadline=None)
@given(
    base=bases,
    machine=machines,
    noise=sometimes(0.0, 0.015),
    jitter=sometimes(0.0, 0.01),
    throttle=throttles,
    cap_w=sometimes(12.0),
    # The paper's two policies half the time, so eligible draws are
    # common; the throttle-forcing ones the other half.
    policy=st.one_of(st.sampled_from(["energy", "baseline"]),
                     st.sampled_from(policy_names())),
)
def test_predicate_agrees_with_built_check(
    base, machine, noise, jitter, throttle, cap_w, policy
):
    data = dict(base, policy=policy)
    if machine is not ABSENT:
        data["machine"] = machine
    if noise is not ABSENT:
        data["power"] = {"noise_sigma": noise}
    if jitter is not ABSENT:
        data["counter_jitter_sigma"] = jitter
    if throttle is not ABSENT:
        data["throttle"] = throttle
    if cap_w is not ABSENT:
        # Capping the first task of the parsed workload covers both
        # generated and static workloads without knowing their shape.
        workload = parse_scenario(data).workload
        tasks = [
            {"program": task.program.name, "power_cap_w": cap_w}
            if k == 0 else {"program": task.program.name}
            for k, task in enumerate(workload.tasks)
        ]
        data["workload"] = {"tasks": tasks}
    scenario = parse_scenario(data)

    reasons = fleet_refusals(scenario.config, scenario.workload,
                             scenario.policy)
    system = System(scenario.config, scenario.workload,
                    policy=scenario.policy)
    try:
        check_fleet_supported(system)
    except FleetUnsupported as exc:
        assert reasons, str(exc)
        assert str(exc) == str(FleetUnsupported.refusing(reasons))
    else:
        assert reasons == []

