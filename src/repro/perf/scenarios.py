"""Pinned reference scenarios for the perf harness.

Each scenario fixes machine, workload, policy, seed, and simulated
duration, so successive benchmark runs measure the same work and their
non-timing outputs are bitwise reproducible.  The set deliberately
covers the distinct tick-loop regimes: SMT and non-SMT topologies, both
policies, ``hlt`` and DVFS throttling, and per-logical-CPU versus
per-package power budgets — a fast-path regression in any regime fails
the harness's identity assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.cpu.power import PowerModelParams
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec
from repro.workloads.generator import (
    WorkloadSpec,
    mixed_table2_workload,
    steady_mix_workload,
)


@dataclass(frozen=True, slots=True)
class PerfScenario:
    """One pinned benchmark configuration."""

    name: str
    description: str
    policy: str
    duration_s: float

    def build(self) -> tuple[SystemConfig, WorkloadSpec]:
        """Fresh (config, workload) for one run."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class _Mixed16(PerfScenario):
    smt: bool = True
    seed: int = 42
    slots_per_class: int = 6
    max_power_per_cpu_w: float | None = None
    throttle_scope: str | None = None
    throttle_mode: str | None = None

    def build(self) -> tuple[SystemConfig, WorkloadSpec]:
        throttle = None
        if self.throttle_scope is not None or self.throttle_mode is not None:
            throttle = ThrottleConfig(
                enabled=True,
                scope=self.throttle_scope or "logical",
                mode=self.throttle_mode or "hlt",
            )
        kwargs = {
            "machine": MachineSpec.ibm_x445(smt=self.smt),
            "seed": self.seed,
        }
        if self.max_power_per_cpu_w is not None:
            kwargs["max_power_per_cpu_w"] = self.max_power_per_cpu_w
        if throttle is not None:
            kwargs["throttle"] = throttle
        return SystemConfig(**kwargs), mixed_table2_workload(self.slots_per_class)


@dataclass(frozen=True, slots=True)
class GeneratedScenario(PerfScenario):
    """A pinned instance of a :mod:`repro.scenarios` generator family.

    The (family, params, seed) triple fully determines the workload —
    generation is seed-deterministic and JSON-canonical — so these
    entries are as byte-stable as the hand-written ones.  ``params``
    is a tuple of pairs to keep the dataclass hashable.
    """

    family: str = "thermal-adversarial"
    params: tuple[tuple[str, object], ...] = ()
    generator_seed: int = 1

    def build(self) -> tuple[SystemConfig, WorkloadSpec]:
        from repro.scenarios import GeneratorSpec

        spec = GeneratorSpec(
            self.family, dict(self.params), seed=self.generator_seed
        )
        scenario = spec.build()
        return scenario.config, scenario.workload


#: The two worst offenders found by ``tools/find_adversarial.py``
#: (seeded search over the thermal-adversarial family, ranked by
#: migrations/s x throttle fraction).  Both exceed every static
#: Table-2 mix above on migrations/s AND throttle fraction at 60 s —
#: asserted by ``tests/test_scenarios_adversarial.py``.
_ADV_PINGPONG_PARAMS = (
    ("budget_w", 18.0),
    ("phase_scale", 0.1),
    ("duty", 0.9),
    ("hot_jobs", 10),
    ("cool_fill", 20),
    ("rotate_groups", 4),
    ("jitter", 0.0),
    ("horizon_s", 60.0),
)
_ADV_STORM_PARAMS = (
    ("budget_w", 15.0),
    ("phase_scale", 0.12),
    ("duty", 0.9),
    ("hot_jobs", 10),
    ("cool_fill", 20),
    ("rotate_groups", 4),
    ("jitter", 0.0),
    ("horizon_s", 60.0),
)


#: The scenario the speedup target is defined on: 16 logical CPUs, the
#: Table 2 mixed workload, energy-aware balancing.
HEADLINE_SCENARIO = "mixed-16cpu"

REFERENCE_SCENARIOS: tuple[PerfScenario, ...] = (
    _Mixed16(
        name=HEADLINE_SCENARIO,
        description="16-CPU SMT, mixed Table-2 workload, energy policy",
        policy="energy",
        duration_s=300.0,
    ),
    _Mixed16(
        name="mixed-16cpu-baseline",
        description="16-CPU SMT, mixed Table-2 workload, baseline policy",
        policy="baseline",
        duration_s=100.0,
    ),
    _Mixed16(
        name="mixed-8cpu-nosmt",
        description="8-CPU non-SMT, mixed Table-2 workload, energy policy",
        policy="energy",
        duration_s=100.0,
        smt=False,
        seed=7,
        slots_per_class=4,
    ),
    _Mixed16(
        name="throttle-hlt",
        description="16-CPU SMT with 20 W/CPU budget, hlt throttling",
        policy="energy",
        duration_s=100.0,
        seed=11,
        max_power_per_cpu_w=20.0,
        throttle_scope="logical",
    ),
    _Mixed16(
        name="throttle-package",
        description="16-CPU SMT with 40 W/package budget, hlt throttling",
        policy="energy",
        duration_s=100.0,
        seed=11,
        max_power_per_cpu_w=20.0,
        throttle_scope="package",
    ),
    _Mixed16(
        name="throttle-dvfs",
        description="16-CPU SMT with 20 W/CPU budget, DVFS throttling",
        policy="energy",
        duration_s=100.0,
        seed=13,
        max_power_per_cpu_w=20.0,
        throttle_mode="dvfs",
    ),
    GeneratedScenario(
        name="adv-pingpong",
        description=(
            "Adversarial hot/cool rotation (18 W budget, 2 s dwell, "
            "4 CPU blocks) maximizing migration ping-pong"
        ),
        policy="energy",
        duration_s=60.0,
        params=_ADV_PINGPONG_PARAMS,
    ),
    GeneratedScenario(
        name="adv-throttle-storm",
        description=(
            "Adversarial hot/cool rotation (15 W budget, 2.4 s dwell, "
            "4 CPU blocks) maximizing hlt throttle storms"
        ),
        policy="energy",
        duration_s=60.0,
        params=_ADV_STORM_PARAMS,
    ),
)


@dataclass(frozen=True, slots=True)
class FleetPerfScenario:
    """A pinned fleet benchmark: N identical machines differing by seed.

    The member configuration is fleet-eligible by construction — noise
    sigmas pinned to zero, no throttling or power caps — and uses slow
    housekeeping cadences (long timeslices and balance intervals) so
    the per-tick work is dominated by execute/thermal, the phases the
    fleet engine vectorizes across the machine axis.
    """

    name: str
    description: str
    policy: str
    duration_s: float
    n_machines: int = 64
    first_seed: int = 1

    def seeds(self) -> range:
        return range(self.first_seed, self.first_seed + self.n_machines)

    def build_member(self, seed: int) -> tuple[SystemConfig, WorkloadSpec]:
        """Fresh (config, workload) for the member with this seed."""
        config = SystemConfig(
            power=PowerModelParams(noise_sigma=0.0),
            counter_jitter_sigma=0.0,
            max_power_per_cpu_w=60.0,
            timeslice_ms=2000,
            balance_interval_ms=4800,
            idle_balance_interval_ms=50,
            hot_check_interval_ms=2000,
            sample_interval_s=5.0,
            seed=seed,
        )
        return config, steady_mix_workload(4)


#: The pinned fleet benchmark: the ``fleet`` section of
#: ``BENCH_perf.json`` and the target of the ≥10x aggregate-throughput
#: goal versus the per-job fast path.
FLEET_SCENARIO = FleetPerfScenario(
    name="fleet-steady-64",
    description=(
        "64 x 16-CPU SMT machines, steady 16-task mix, energy policy, "
        "seeds 1..64, one vectorized FleetEngine"
    ),
    policy="energy",
    duration_s=60.0,
)


def scenario_by_name(name: str) -> PerfScenario:
    """Look up a reference scenario; raises ``ValueError`` with the
    valid names otherwise."""
    for scenario in REFERENCE_SCENARIOS:
        if scenario.name == name:
            return scenario
    valid = ", ".join(s.name for s in REFERENCE_SCENARIOS)
    raise ValueError(f"unknown perf scenario {name!r}; expected one of {valid}")
