"""Energy balancing merged with load balancing (paper §4.4, Figure 4).

The algorithm runs on every CPU and only *pulls*: an imbalance that
would require pushing is resolved when the remote CPU runs its own pass.
For every domain level, bottom-up:

**Energy step** (skipped on SMT-level domains, §4.7):

1. find the CPU group with the highest average runqueue power ratio;
2. if that group is not the local one, find the queue with the highest
   runqueue power ratio within it;
3. pull a hot task — but only if the remote queue is *hotter* under the
   dual condition: higher thermal power ratio (slow metric — hysteresis
   against ping-pong) **and** higher runqueue power ratio (fast metric —
   forbids pulling an undue number of tasks);
4. if the pull created a load imbalance, migrate the coolest local task
   back in exchange.

**Load step** (always): vanilla pull from the most loaded group, except
task selection respects energy: pull *hot* tasks when the remote group
is hotter than the local one, *cool* tasks when it is cooler — so load
balancing does not create energy imbalances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.metrics import MetricsBoard
from repro.sched.domains import DomainHierarchy
from repro.sched.load_balance import (
    LoadBalanceConfig,
    cannot_move,
    find_busiest_group,
    find_busiest_queue,
)
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task

#: Migration callback: (task, src_cpu, dst_cpu, reason).
MigrateFn = Callable[[Task, int, int, str], None]


@dataclass(frozen=True, slots=True)
class EnergyBalanceConfig:
    """Tunables of the merged balancer.

    Attributes
    ----------
    thermal_margin_ratio:
        The remote thermal power ratio must exceed the local one by this
        margin before the remote queue counts as hotter.
    rq_margin_ratio:
        Same margin for the (fast) runqueue power ratio.
    min_gain_ratio:
        A pull must shrink the ratio difference by at least this much,
        otherwise it is skipped (prevents oscillating micro-moves).
    max_energy_moves:
        Hot tasks pulled per domain level per pass.
    load:
        Settings of the embedded load-balancing step.
    use_thermal_condition / use_rq_condition:
        Ablation switches for the dual hotter-than condition.  §4.3
        motivates requiring *both* metrics: dropping the (slow) thermal
        condition yields a power-only balancer that ping-pongs; dropping
        the (fast) runqueue condition yields a temperature-only balancer
        that over-balances.
    """

    thermal_margin_ratio: float = 0.07
    rq_margin_ratio: float = 0.07
    min_gain_ratio: float = 0.05
    max_energy_moves: int = 1
    load: LoadBalanceConfig = LoadBalanceConfig()
    use_thermal_condition: bool = True
    use_rq_condition: bool = True

    def __post_init__(self) -> None:
        for name in ("thermal_margin_ratio", "rq_margin_ratio", "min_gain_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_energy_moves < 1:
            raise ValueError("max_energy_moves must be >= 1")
        if not (self.use_thermal_condition or self.use_rq_condition):
            raise ValueError("at least one hotter-than condition must be enabled")


class EnergyBalancer:
    """Per-CPU merged energy + load balancing passes."""

    def __init__(
        self,
        metrics: MetricsBoard,
        hierarchy: DomainHierarchy,
        runqueues: Mapping[int, RunQueue],
        migrate: MigrateFn,
        config: EnergyBalanceConfig | None = None,
    ) -> None:
        self.metrics = metrics
        self.hierarchy = hierarchy
        self.runqueues = runqueues
        self.migrate = migrate
        self.config = config if config is not None else EnergyBalanceConfig()
        #: tasks moved per domain level — the paper's claim that
        #: imbalances are resolved "within the lowest domain possible"
        #: becomes measurable here.
        self.moves_by_level: dict[str, int] = {}
        #: decision audit hook (an AuditLog), installed by repro.obs.
        self.audit = None

    def _count_level(self, domain, n: int) -> None:
        if n:
            self.moves_by_level[domain.name] = (
                self.moves_by_level.get(domain.name, 0) + n
            )

    # -- entry point ----------------------------------------------------------
    def balance(self, cpu_id: int) -> int:
        """One full pass for ``cpu_id`` (Figure 4); returns tasks moved.

        A pass that cannot move a task returns before computing any
        ratio, unless an audit log is installed: the audit records every
        pull evaluation, so it gets the full pass.
        """
        if self.audit is None and cannot_move(
            cpu_id, self.hierarchy, self.runqueues, self.config.load.min_imbalance
        ):
            return 0
        moved = 0
        for domain in self.hierarchy.chain(cpu_id):
            if not domain.smt_level:
                n = self._energy_step(cpu_id, domain)
                self._count_level(domain, n)
                moved += n
            n = self._load_step(cpu_id, domain)
            self._count_level(domain, n)
            moved += n
        return moved

    # -- energy step ------------------------------------------------------------
    def _energy_step(self, cpu_id: int, domain) -> int:
        metrics = self.metrics
        local_group = domain.local_group(cpu_id)
        if self.config.use_rq_condition:
            group_key = metrics.group_avg_runqueue_ratio
            queue_key = metrics.runqueue_power_ratio
        else:
            # Temperature-only ablation: the search itself is driven by
            # the slow metric too.
            group_key = metrics.group_avg_thermal_ratio
            queue_key = metrics.thermal_power_ratio
        # max() spelled out (first maximal element wins, as max does) —
        # this search runs for every CPU on every balance pass.
        hottest = None
        hottest_ratio = 0.0
        for group in domain.groups:
            ratio = group_key(group.cpus)
            if hottest is None or ratio > hottest_ratio:
                hottest, hottest_ratio = group, ratio
        if hottest is local_group:
            return 0
        remote_rq = None
        remote_ratio = 0.0
        for c in hottest.cpus:
            ratio = queue_key(c)
            if remote_rq is None or ratio > remote_ratio:
                remote_rq, remote_ratio = self.runqueues[c], ratio
        local_rq = self.runqueues[cpu_id]
        moved = 0
        for _ in range(self.config.max_energy_moves):
            # Hoisted form of "break unless hotter, break unless a task
            # qualifies" so the audit hook can observe both outcomes;
            # control flow (and RNG/state, both calls are pure reads) is
            # unchanged.
            hotter = self._remote_is_hotter(remote_rq.cpu_id, cpu_id)
            task = self._pick_hot_task(remote_rq, local_rq) if hotter else None
            if self.audit is not None:
                self._audit_pull(cpu_id, remote_rq.cpu_id, domain, hotter, task)
            if task is None:
                break
            self.migrate(task, remote_rq.cpu_id, cpu_id, "energy_balance")
            moved += 1
            moved += self._exchange_if_imbalanced(local_rq, remote_rq, avoid=task)
        return moved

    def _audit_pull(self, cpu_id, remote_cpu, domain, hotter, task) -> None:
        """Record one §4.4 pull evaluation: the dual-hysteresis ratios
        compared, their margins, and whether a task qualified."""
        m = self.metrics
        self.audit.record(
            site="energy_balance",
            cpu=cpu_id,
            pid=task.pid if task is not None else -1,
            chosen=cpu_id if task is not None else -1,
            accepted=task is not None,
            detail={
                "domain": domain.name,
                "remote_cpu": remote_cpu,
                "remote_is_hotter": hotter,
                "local_thermal_ratio": m.thermal_power_ratio(cpu_id),
                "remote_thermal_ratio": m.thermal_power_ratio(remote_cpu),
                "local_rq_ratio": m.runqueue_power_ratio(cpu_id),
                "remote_rq_ratio": m.runqueue_power_ratio(remote_cpu),
                "thermal_margin_ratio": self.config.thermal_margin_ratio,
                "rq_margin_ratio": self.config.rq_margin_ratio,
            },
        )

    def _remote_is_hotter(self, remote_cpu: int, local_cpu: int) -> bool:
        """The §4.4 dual condition with margins (ablatable)."""
        m = self.metrics
        thermal_ok = (
            m.thermal_power_ratio(remote_cpu)
            > m.thermal_power_ratio(local_cpu) + self.config.thermal_margin_ratio
        ) or not self.config.use_thermal_condition
        rq_ok = (
            m.runqueue_power_ratio(remote_cpu)
            > m.runqueue_power_ratio(local_cpu) + self.config.rq_margin_ratio
        ) or not self.config.use_rq_condition
        return thermal_ok and rq_ok

    def _pick_hot_task(self, remote_rq: RunQueue, local_rq: RunQueue) -> Task | None:
        """Queued remote task whose move best equalises the two ratios."""
        m = self.metrics
        remote_cpu, local_cpu = remote_rq.cpu_id, local_rq.cpu_id
        remote_max = m.max_power_w(remote_cpu)
        local_max = m.max_power_w(local_cpu)
        remote_sum = m.runqueue_power_sum_w(remote_cpu)
        local_sum = m.runqueue_power_sum_w(local_cpu)
        n_remote, n_local = remote_rq.nr_running, local_rq.nr_running
        if n_remote < 2:
            return None  # never empty a queue via energy balancing
        if not self.config.use_rq_condition:
            # Temperature-only ablation: grab the hottest queued task,
            # with no equalisation objective — the over-balancing
            # behaviour §4.3 warns about.
            queued = [t for t in remote_rq.queued_tasks() if t.allowed_on(local_cpu)]
            return max(queued, key=lambda t: t.profile_power_w) if queued else None
        before = abs(remote_sum / n_remote / remote_max - local_sum / max(1, n_local) / local_max)
        best_task: Task | None = None
        best_after = before - self.config.min_gain_ratio
        for task in remote_rq.queued_tasks():
            if not task.allowed_on(local_cpu):
                continue
            p = task.profile_power_w
            new_remote = (remote_sum - p) / (n_remote - 1) / remote_max
            new_local = (local_sum + p) / (n_local + 1) / local_max
            after = abs(new_remote - new_local)
            if after < best_after:
                best_after = after
                best_task = task
        return best_task

    def _exchange_if_imbalanced(
        self, local_rq: RunQueue, remote_rq: RunQueue, avoid: Task
    ) -> int:
        """Migrate the coolest local task back if the pull unbalanced load."""
        if local_rq.nr_running - remote_rq.nr_running < 2:
            return 0
        candidates = [
            t for t in local_rq.queued_tasks()
            if t is not avoid and t.allowed_on(remote_rq.cpu_id)
        ]
        if not candidates:
            return 0
        coolest = min(candidates, key=lambda t: t.profile_power_w)
        self.migrate(coolest, local_rq.cpu_id, remote_rq.cpu_id, "exchange")
        return 1

    # -- load step ----------------------------------------------------------------
    def _load_step(self, cpu_id: int, domain) -> int:
        config = self.config.load
        local_rq = self.runqueues[cpu_id]
        busiest_group = find_busiest_group(domain, cpu_id, self.runqueues)
        if busiest_group is None:
            return 0
        busiest_rq = find_busiest_queue(busiest_group, self.runqueues)
        diff = busiest_rq.nr_running - local_rq.nr_running
        if diff < config.min_imbalance:
            return 0
        n_to_move = min(diff // 2, config.max_moves_per_pass)
        tasks = self._select_for_load(busiest_rq, cpu_id, n_to_move, domain)
        for task in tasks:
            self.migrate(task, busiest_rq.cpu_id, cpu_id, "load_balance")
        return len(tasks)

    def _select_for_load(
        self, src_rq: RunQueue, dst_cpu: int, n: int, domain
    ) -> list[Task]:
        """Hot tasks if the remote CPU is hotter, cool tasks if cooler.

        Between SMT siblings the energy restrictions do not apply (§4.7):
        siblings share one package, so any task will do.
        """
        queued = [t for t in src_rq.queued_tasks() if t.allowed_on(dst_cpu)]
        if not queued or n <= 0:
            return []
        if domain.smt_level:
            return queued[-n:]
        m = self.metrics
        remote_hotter = m.thermal_power_ratio(src_rq.cpu_id) > m.thermal_power_ratio(dst_cpu)
        ordered = sorted(
            queued, key=lambda t: t.profile_power_w, reverse=remote_hotter
        )
        return ordered[:n]
