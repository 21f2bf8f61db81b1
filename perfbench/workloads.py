"""The benchmark's workloads: what each one feeds the program.

Every workload is a closed loop with ``WORKERS`` clients: the pool's
workers each take the next job when their last one finishes, so the
client count equals the worker count (the container has two cores).
The workload seed is a benchmark argument; the program receives only
the generated specs.

* ``churn-pool`` — one batch grid of equal seed sets of the
  ``poisson``, ``bursty`` and ``sporadic`` families, all on
  ``ibm_x445`` at one simulated duration, run with the pool engine.
  Fork/exit churn puts the §4.4/§4.5 housekeeping decisions,
  wake/fork, per-job parse/build and pool dispatch on the hot path;
  ``repro.fleet`` is bypassed.
* ``churn-fleet`` — the identical job set on the fleet engine, so the
  engine comparison reads directly and both must produce one digest.
* ``tournament`` — ``run_tournament`` over the pinned configurations ×
  every registered policy with the scalar oracle on, at a short cell
  duration.  Static mixes, throttling, power caps and adversarial
  ping-pong make execute/thermal/throttle dominate, and scalar cells
  cost about 2.4× fast ones, so the slowest jobs set the tail.

This module imports nothing from ``repro`` at import time: the child
process times that import as part of set-up.
"""

from __future__ import annotations

import random

#: Pool workers, and so closed-loop clients, of every workload.
WORKERS = 2

CHURN_FAMILIES = ("poisson", "bursty", "sporadic")
CHURN_MACHINE = "ibm_x445"
#: Seeds per family; the three families share one seed set.
CHURN_SEEDS_PER_FAMILY = 8
#: Simulated seconds per churn job.
CHURN_DURATION_S = 10.0

#: Simulated seconds per tournament cell.
TOURNAMENT_DURATION_S = 2.0
#: Added to every pinned tournament seed per benchmark seed step, so
#: seed 0 races exactly the pinned configurations.
TOURNAMENT_SEED_STRIDE = 1000

#: The seed whose result digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: Workload name -> engine its timed runs use.
WORKLOADS = {
    "churn-pool": "pool",
    "churn-fleet": "fleet",
    "tournament": "pool",
}


def digest_key(workload: str) -> str:
    """Both churn workloads run one job set, so they share a digest."""
    return "tournament" if workload == "tournament" else "churn"


def churn_seeds(seed: int) -> list[int]:
    """The job seed set all three churn families share."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, 1_000_000), CHURN_SEEDS_PER_FAMILY))


def churn_grid(seed: int) -> dict:
    """The churn batch grid, in the ``repro batch`` grid-file shape."""
    seeds = churn_seeds(seed)
    return {
        "jobs": [
            {
                "label": family,
                "scenario": {
                    "generator": {
                        "family": family,
                        "params": {"machine": CHURN_MACHINE},
                    },
                },
                "seeds": seeds,
                "duration_s": CHURN_DURATION_S,
            }
            for family in CHURN_FAMILIES
        ]
    }


def shifted_tournament_scenario(scenario: dict, offset: int) -> dict:
    """A pinned tournament scenario with every seed moved by ``offset``.

    Static mixes carry a top-level ``seed``; generated ones carry the
    generator seed.  Configurations that shared a seed still share one,
    so the payload's duplicate-column determinism check survives.
    """
    data = dict(scenario)
    if "generator" in data:
        generator = dict(data["generator"])
        generator["seed"] = int(generator.get("seed", 1)) + offset
        data["generator"] = generator
    else:
        data["seed"] = int(data.get("seed", 1)) + offset
    return data


def tournament_offset(seed: int) -> int:
    return seed * TOURNAMENT_SEED_STRIDE
