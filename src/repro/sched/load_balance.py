"""Vanilla pull-based load balancing.

This is our rebuild of the Linux 2.6 balancer the paper starts from:
each CPU periodically walks its domain chain bottom-up, finds the group
with the highest average runqueue length, and *pulls* tasks from the
longest queue of that group into its own queue ("balancing needs only be
done in one direction", §4.4).  Only queued (non-running) tasks are
pulled — migrating the executing task requires the active-migration
machinery used by hot-task migration.

Task selection is pluggable: the baseline takes tasks from the tail,
while the merged energy-load algorithm (§4.4) selects hot or cool tasks
depending on the thermal relation of the two queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.sched.domains import CpuGroup, DomainHierarchy, SchedDomain
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task

#: Selects up to ``n`` tasks to pull from ``src`` into ``dst``.
TaskSelector = Callable[[RunQueue, RunQueue, int], Sequence[Task]]

#: Performs one migration; signature (task, src_cpu, dst_cpu).
MigrateFn = Callable[[Task, int, int], None]


@dataclass(frozen=True, slots=True)
class LoadBalanceConfig:
    """Tunables of the vanilla balancer.

    Attributes
    ----------
    min_imbalance:
        Minimum difference in queue length (busiest - local) before a
        pull happens; 2 means a pull strictly reduces the imbalance.
    max_moves_per_pass:
        Cap on tasks moved per domain level per invocation.
    """

    min_imbalance: int = 2
    max_moves_per_pass: int = 2

    def __post_init__(self) -> None:
        if self.min_imbalance < 1:
            raise ValueError("min_imbalance must be >= 1")
        if self.max_moves_per_pass < 1:
            raise ValueError("max_moves_per_pass must be >= 1")


def group_load(group: CpuGroup, runqueues: Mapping[int, RunQueue]) -> float:
    """Average runqueue length per CPU of the group."""
    total = 0
    for c in group.cpus:
        total += runqueues[c].nr
    return total / len(group.cpus)


def cannot_move(
    cpu_id: int,
    hierarchy: DomainHierarchy,
    runqueues: Mapping[int, RunQueue],
    min_imbalance: int,
) -> bool:
    """True if no balancing pass for ``cpu_id`` can move a task right now.

    Every pull takes a queued task from a queue inside the top domain's
    span.  The energy step (§4.4) never pulls from a queue holding fewer
    than 2 tasks, and the load step needs ``busiest.nr - local.nr >=
    min_imbalance``.  So when the longest queue in the span is below
    both ``2`` and ``local.nr + min_imbalance``, neither step can fire at
    any level, and since nothing moves, no ``nr`` changes during the
    pass.  Reads integers only: no float, no RNG draw, no cache fill.
    """
    chain = hierarchy.chain(cpu_id)
    if not chain:
        return True
    limit = min(2, runqueues[cpu_id].nr + min_imbalance)
    for c in chain[-1].span:
        if runqueues[c].nr >= limit:
            return False
    return True


def find_busiest_group(
    domain: SchedDomain,
    cpu_id: int,
    runqueues: Mapping[int, RunQueue],
) -> CpuGroup | None:
    """Group with the highest average load, if it beats the local group."""
    local = domain.local_group(cpu_id)
    local_load = group_load(local, runqueues)
    busiest: CpuGroup | None = None
    busiest_load = local_load
    for group in domain.groups:
        if group is local:
            continue
        load = group_load(group, runqueues)
        if load > busiest_load:
            busiest, busiest_load = group, load
    return busiest


def find_busiest_queue(
    group: CpuGroup, runqueues: Mapping[int, RunQueue]
) -> RunQueue:
    """Longest runqueue within a group (ties to the lowest CPU id).

    Group CPU tuples are sorted ascending, so keeping the first strictly
    longest queue resolves ties exactly like ``max`` keyed on
    ``(nr, -cpu_id)`` did.
    """
    busiest: RunQueue | None = None
    busiest_nr = -1
    for c in group.cpus:
        rq = runqueues[c]
        if rq.nr > busiest_nr:
            busiest, busiest_nr = rq, rq.nr
    return busiest


def default_selector(src: RunQueue, dst: RunQueue, n: int) -> Sequence[Task]:
    """Baseline selection: pull from the tail of the queued tasks,
    skipping tasks whose affinity mask forbids the destination."""
    movable = [t for t in src.queued_tasks() if t.allowed_on(dst.cpu_id)]
    return movable[len(movable) - n :] if n < len(movable) else movable


def load_balance_pass(
    cpu_id: int,
    hierarchy: DomainHierarchy,
    runqueues: Mapping[int, RunQueue],
    migrate: MigrateFn,
    config: LoadBalanceConfig | None = None,
    selector: TaskSelector | None = None,
) -> int:
    """One full bottom-up balancing pass for ``cpu_id``; returns moves.

    At each level: find the busiest group; if it is not the local group
    and its longest queue exceeds the local queue by at least
    ``min_imbalance``, pull enough queued tasks to halve the difference.
    """
    config = config if config is not None else LoadBalanceConfig()
    if cannot_move(cpu_id, hierarchy, runqueues, config.min_imbalance):
        return 0
    selector = selector if selector is not None else default_selector
    local_rq = runqueues[cpu_id]
    moved = 0
    for domain in hierarchy.chain(cpu_id):
        busiest_group = find_busiest_group(domain, cpu_id, runqueues)
        if busiest_group is None:
            continue
        busiest_rq = find_busiest_queue(busiest_group, runqueues)
        diff = busiest_rq.nr - local_rq.nr
        if diff < config.min_imbalance:
            continue
        n_to_move = min(diff // 2, config.max_moves_per_pass)
        for task in list(selector(busiest_rq, local_rq, n_to_move)):
            migrate(task, busiest_rq.cpu_id, cpu_id)
            moved += 1
    return moved
