"""Structure-of-arrays fleet engine: N independent machines per tick.

A sweep grid is mostly *many copies of the same machine* run under
different seeds, policies and workloads.  :class:`FleetEngine` takes M
fully-constructed :class:`repro.system.System` instances that share a
machine topology and advances all of them per ``tick()`` by lifting the
hot per-CPU state into numpy arrays with a leading machine axis:

====================  =========  ==============================================
array                 shape      scalar counterpart
====================  =========  ==============================================
``counts``            (M, C, E)  ``System._counts_mx`` (PMC counter matrix)
``base_inc``          (M, C, E)  ``TickEnergyCache`` entry's base increments
``thermal``           (M, C)     ``MetricsBoard.thermal_w`` (EWMA column)
``true_t``/``est_t``  (M, P)     ``ThermalRC._temp_c`` (both RC networks)
``ts_rem``            (M, C)     current task's ``timeslice_remaining_ms``
``instr_rem``         (M, C)     current task's ``instructions_remaining``
``run_rem``           (M, C)     current task's ``run_remaining_s`` (inf=None)
====================  =========  ==============================================

The engine reuses the scalar fast path's *math* — the factored Eq. 1
energy expression, the ``TickEnergyCache``, ``rc_decay``/``thermal_alpha``
memos — broadcast across machines, and falls back to the member
``System``'s own methods (``_complete_job``, ``_block``, ``_fork``,
``policy.periodic_balance`` ...) for the rare control-flow events, so
per-machine results are bit-identical to running each machine alone.

Equivalence rules (each asserted by ``tests/test_fleet_equivalence.py``):

* every vector expression is an elementwise IEEE-754 double op with the
  same operands in the same order as the scalar path (``x*1.0 == x``,
  ``x+0.0 == x`` for the non-negative finite values involved, masked
  lanes discard garbage via ``np.where``);
* every RNG draw that produces an *observable* value happens inside the
  member System's own methods in the scalar order.  The one divergence:
  at ``noise_sigma == 0`` the scalar path still calls ``gauss(0.0, 0.0)``
  per package per tick (value exactly 0.0, multiplied in as
  ``clean * (1.0 + 0.0)``); the fleet skips the dead draw.  Results are
  bitwise unchanged, only the hidden position of the meter Mersenne
  streams differs — visible in nothing but raw checkpoint bytes.
* ``instructions_retired`` is folded per task slot as a lump sum instead
  of per tick; no exported summary or probe reads that dict, so the
  (at most 1-ulp) different dict values are invisible in all
  byte-compared outputs.

Eligibility (:func:`check_fleet_supported`) restricts members to the
configurations the arrays model: fast path, no validator/observer, no
throttling/DVFS, no energy containers, ``counter_jitter_sigma == 0``,
``power.noise_sigma == 0``.  Seeds, policies, workloads, thermal
parameters and cadences may differ per machine; the machine *topology*
and tick length must match across the fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.ewma import thermal_alpha
from repro.cpu.thermal import rc_decay
from repro.sim.clock import Clock
from repro.system import System

#: Fleet checkpoint format identity (header + per-member System snapshots).
FLEET_CHECKPOINT_SCHEMA = "repro-fleet-checkpoint"
FLEET_CHECKPOINT_VERSION = 1

_INF = float("inf")


class FleetUnsupported(ValueError):
    """A System cannot be advanced by the fleet engine as configured."""


@dataclass
class FleetStats:
    """Aggregate bookkeeping counters of one or more fleet engines.

    Per-member observers are fleet-ineligible, so these coarse counters
    are what makes a fleet sweep *countable*: how many machine-ticks
    were advanced, how often array state was written back into member
    Systems (``flushes``), how often a slot's current task was reloaded
    into the arrays (``resyncs``), and how many housekeeping cadences
    actually fired a member call.  Pure telemetry — nothing reads them
    back into the simulation.

    ``fallback_reasons`` counts, per reason, the jobs a fleet grid sent
    to the process pool instead (see :func:`repro.runner.run_grid_fleet`);
    it is not one of the :meth:`as_dict` counters.
    """

    machine_ticks: int = 0
    batches: int = 0
    members: int = 0
    flushes: int = 0
    resyncs: int = 0
    housekeeping_fires: int = 0
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "FleetStats") -> None:
        self.machine_ticks += other.machine_ticks
        self.batches += other.batches
        self.members += other.members
        self.flushes += other.flushes
        self.resyncs += other.resyncs
        self.housekeeping_fires += other.housekeeping_fires
        for reason, n in other.fallback_reasons.items():
            self.note_fallback(reason, n)

    def note_fallback(self, reason: str, n: int = 1) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + n

    def describe(self) -> str:
        """One line: fleet members and batches, pool fallbacks by reason."""
        line = f"{self.members} jobs in {self.batches} fleet batch" + (
            "" if self.batches == 1 else "es"
        )
        fallbacks = sum(self.fallback_reasons.values())
        if not fallbacks:
            return line + ", no pool fallback"
        reasons = "; ".join(
            f"{n}x {reason}"
            for reason, n in sorted(
                self.fallback_reasons.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        return line + f", {fallbacks} fell back to the pool ({reasons})"

    def as_dict(self) -> dict:
        return {
            "machine_ticks": self.machine_ticks,
            "batches": self.batches,
            "members": self.members,
            "flushes": self.flushes,
            "resyncs": self.resyncs,
            "housekeeping_fires": self.housekeeping_fires,
        }


def check_fleet_supported(system: System) -> None:
    """Raise :class:`FleetUnsupported` unless ``system`` is fleet-eligible.

    The checks mirror exactly what the array layout models; anything
    else must run on the scalar engine (the runner falls back to the
    process pool for such jobs).
    """
    reasons = []
    if not system.fast_path:
        reasons.append("fast_path=False (scalar reference path requested)")
    if system.validator is not None:
        reasons.append("runtime validator installed")
    if system.observer is not None:
        reasons.append("observer installed")
    if system.fault_injector is not None:
        reasons.append("fault injector installed")
    if system.config.throttle.enabled:
        reasons.append("throttling/DVFS enabled")
    if system._has_power_caps:
        reasons.append("energy containers (power caps) in the workload")
    if system.config.counter_jitter_sigma != 0.0:
        reasons.append(
            f"counter_jitter_sigma={system.config.counter_jitter_sigma} != 0"
        )
    if system.config.power.noise_sigma != 0.0:
        reasons.append(f"power.noise_sigma={system.config.power.noise_sigma} != 0")
    if system.config.machine.threads_per_core > 2:
        reasons.append("threads_per_core > 2 (sibling map is single-valued)")
    if len({len(cpus) for cpus in system._pkg_cpus}) != 1:
        reasons.append("ragged package sizes (thermal reduction needs a matrix)")
    if reasons:
        raise FleetUnsupported(
            "system not fleet-eligible: " + "; ".join(reasons)
        )


class FleetEngine:
    """Advance M homogeneous-topology Systems one tick at a time.

    Parameters
    ----------
    systems:
        Fully-constructed, fleet-eligible members, all at the same
        simulated time.  The engine *aliases* their counter matrices
        (each member's ``_counts_mx`` becomes a view into the fleet
        tensor) and treats the per-CPU lists and thermal objects as a
        write-back cache: array state is flushed into the member before
        any member method that could read it runs, and re-synced after
        any member method that could write it runs.
    """

    def __init__(self, systems: list[System]) -> None:
        if not systems:
            raise ValueError("fleet needs at least one system")
        for sys_ in systems:
            check_fleet_supported(sys_)
        first = systems[0]
        for sys_ in systems[1:]:
            if sys_.config.machine != first.config.machine:
                raise FleetUnsupported(
                    "fleet members must share the machine topology; "
                    f"{sys_.config.machine} != {first.config.machine}"
                )
            if sys_.config.tick_ms != first.config.tick_ms:
                raise FleetUnsupported("fleet members must share tick_ms")
            if sys_._now_ms != first._now_ms:
                raise FleetUnsupported(
                    "fleet members must be at the same simulated time "
                    f"({sys_._now_ms} ms != {first._now_ms} ms)"
                )
            if sys_._counter_modulus != first._counter_modulus:
                raise FleetUnsupported("fleet members must share counter width")
        self.systems = list(systems)
        self.tick_ms = first.config.tick_ms
        self.clock = Clock.at(self.tick_ms, ticks=first._now_ms // self.tick_ms)
        self.stats = FleetStats(members=len(systems), batches=1)
        self._attach()

    # ------------------------------------------------------------------
    # Attach: allocate the SoA block and pull state out of the members
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        systems = self.systems
        M = len(systems)
        first = systems[0]
        C = first.n_cpus
        P = first.config.machine.n_packages
        E = first._counts_mx.shape[1]
        tick_s = self.tick_ms / 1000.0
        self.n_machines = M
        self.n_cpus = C
        self.n_packages = P

        f = lambda shape: np.zeros(shape, dtype=np.float64)
        # -- per-(machine, cpu) ------------------------------------------------
        self.ts_rem = np.full((M, C), _INF)
        self.run_rem = np.full((M, C), _INF)
        self.instr_rem = np.full((M, C), _INF)
        self.tot_busy = f((M, C))
        self.tot_energy = f((M, C))
        self.interval_e = f((M, C))
        self.interval_b = f((M, C))
        self.wob_rem = np.full((M, C), _INF)
        self.phase_rem = np.full((M, C), _INF)
        self.unit_nj = f((M, C))
        self.dyn_base = f((M, C))
        self.ipc = np.ones((M, C))
        self.cyc_valid = f((M, C))
        self.retired_acc = f((M, C))
        self.thermal = f((M, C))
        self.alpha = f((M, C))
        self.has_cur = np.zeros((M, C), dtype=bool)
        self.cold = np.zeros((M, C), dtype=bool)
        self.mixok = np.zeros((M, C), dtype=bool)
        self.busy_acc = np.zeros((M, C), dtype=np.int64)
        self.busy_base = np.zeros((M, C), dtype=np.int64)
        # -- per-(machine, cpu, event) -----------------------------------------
        self.base_inc = f((M, C, E))
        self.counts = f((M, C, E))
        # -- per-(machine, package) --------------------------------------------
        self.true_t = f((M, P))
        self.est_t = f((M, P))
        self.ambient = f((M, P))
        self.r_k = f((M, P))
        self.decay = f((M, P))
        self.est_pkg = f((M, P))
        self.pkg_energy = f((M, P))
        # -- per-machine columns ------------------------------------------------
        self.bw_ts = f((M, 1))
        self.cyc_solo = f((M, 1))
        self.cyc_smt = f((M, 1))
        self.smt = f((M, 1))
        self.halted_pkg = f((M, 1))
        self.base_act = f((M, 1))
        self.halted_share = f((M, 1))
        self.max_err = f(M)
        self.max_seen = f(M)
        self.wake_next = np.full(M, _INF)
        self.fork_next = np.full(M, _INF)
        self.total_base = [0] * M
        self.ticks_done = 0
        # -- python-side bookkeeping -------------------------------------------
        self.mix_ref: list[list[object]] = [[None] * C for _ in range(M)]
        self.acc_name: list[list[str | None]] = [[None] * C for _ in range(M)]
        self.rq_lists = [s._rq_list for s in systems]
        self.dispatch_set: set[int] = set(range(M))
        self.note_slots: list[tuple[int, int]] = []
        self.modulus = first._counter_modulus
        self.pkg_cpus = first._pkg_cpus
        self.pkg_of = np.asarray(first._pkg_of, dtype=np.intp)
        # single SMT sibling per cpu (threads_per_core <= 2); when SMT is
        # off, siblings_of() is empty and the sibling-busy mask stays False
        self.has_smt = first.config.machine.threads_per_core == 2
        self.sib = np.asarray(
            [
                (first._siblings[c][0] if first._siblings[c] else c)
                for c in range(C)
            ],
            dtype=np.intp,
        )
        self.sample_every = [s._sample_every for s in systems]
        self.bal_ticks = [s._balance_ticks for s in systems]
        self.idle_ticks = [s._idle_balance_ticks for s in systems]
        self.hot_ticks = [s._hot_check_ticks for s in systems]
        self.uniform = (
            len(set(self.bal_ticks)) == 1
            and len(set(self.idle_ticks)) == 1
            and len(set(self.hot_ticks)) == 1
        )
        self._fire_tables: dict[tuple[int, int, int], tuple] = {}
        # last-tick scratch, referenced by the flush methods
        self.est_power_a = f((M, C))
        self.dyn_power_a = f((M, C))
        self.thermal_in = f((M, C))
        self.running = np.zeros((M, C), dtype=bool)
        # preallocated per-tick scratch (no per-tick allocations on the
        # vector path); b* are bool masks, f* float workspaces
        self._sc_b1 = np.zeros((M, C), dtype=bool)
        self._sc_b2 = np.zeros((M, C), dtype=bool)
        self._sc_b3 = np.zeros((M, C), dtype=bool)
        self._sc_f1 = f((M, C))
        self._sc_f2 = f((M, C))
        self._sc_f3 = f((M, C))
        self._sc_cnt = f((M, C, E))
        self._sc_pkg_any = np.zeros((M, P), dtype=bool)
        self._sc_pkg_f1 = f((M, P))
        self._sc_pkg_f2 = f((M, P))
        self._sc_pkg_f3 = f((M, P))
        self._sc_pkg_f4 = f((M, P))
        # (P, k) cpu-index matrix when every package has the same number
        # of cpus (column j = j-th cpu of each package, ascending) —
        # lets _thermal reduce packages in k vector steps instead of a
        # python loop over P packages
        sizes = {len(cs) for cs in self.pkg_cpus}
        self.pkg_idx = (
            np.asarray(self.pkg_cpus, dtype=np.intp) if len(sizes) == 1 else None
        )
        # lane caches refreshed only when some slot's current changes
        # (dirty flag set by _resync_slot); constants for the all-busy
        # fast path; scalar gates for the wake/fork scans
        self._sib_busy = np.zeros((M, C), dtype=bool)
        self._cycles = f((M, C))
        self._est_base = f((M, C))
        self._smt_fac = np.ones((M, C))
        self._all_run = False
        self._top_dirty = True
        self._have_cold = False
        self._b_full = np.full((M, C), tick_s)
        self._ts_full = np.full((M, C), float(self.tick_ms))
        # counter-modulus amortisation: the remainder is the identity
        # while every counter is below the modulus; countdown is a safe
        # lower bound on ticks until any counter could reach it
        self._max_inc = 0.0
        self._mod_countdown = 0
        self._wake_min = _INF
        self._fork_min = _INF
        ses = set(self.sample_every)
        self._se0 = self.sample_every[0] if len(ses) == 1 else None

        # hot-trigger ceilings: should_trigger(c) can only be True when
        # the package heat exceeds budget - margin; +inf when the policy
        # cannot hot-migrate at all (baseline, or migration disabled)
        self.hot_ceiling = np.full((M, P), _INF)
        for m, sys_ in enumerate(systems):
            pol = sys_.policy
            migrator = getattr(pol, "hot_migrator", None)
            pol_cfg = getattr(pol, "config", None)
            if migrator is None or pol_cfg is None:
                continue
            if not getattr(pol_cfg, "enable_hot_migration", False):
                continue
            margin = migrator.config.trigger_margin_w
            for p in range(P):
                self.hot_ceiling[m, p] = (
                    sys_.metrics.package_max_power_w(self.pkg_cpus[p][0])
                    - margin
                )

        for m, sys_ in enumerate(systems):
            spec = sys_.config.machine
            power = sys_.config.power
            self.bw_ts[m, 0] = sys_.estimator.base_w * tick_s
            self.cyc_solo[m, 0] = sys_.exec_model.effective_cycles(tick_s, False)
            self.cyc_smt[m, 0] = sys_.exec_model.effective_cycles(tick_s, True)
            self.smt[m, 0] = sys_.exec_model.smt_thread_factor
            self.halted_pkg[m, 0] = power.halted_package_w
            self.base_act[m, 0] = power.base_active_w
            self.halted_share[m, 0] = sys_._halted_share_w
            self.total_base[m] = sys_._total_ticks
            for c in range(C):
                self.alpha[m, c] = thermal_alpha(sys_.metrics.tau_s[c], tick_s)
                self.busy_base[m, c] = sys_._busy_ticks[c]
            self.thermal[m, :] = sys_.metrics.thermal_w
            for p in range(P):
                rc = sys_.true_rc[p]
                self.true_t[m, p] = rc._temp_c
                self.est_t[m, p] = sys_.est_rc[p]._temp_c
                self.ambient[m, p] = rc._ambient_c
                self.r_k[m, p] = rc._r_k_per_w
                self.decay[m, p] = rc_decay(rc.params.tau_s, tick_s)
                self.est_pkg[m, p] = sys_._est_pkg_power[p]
                self.pkg_energy[m, p] = sys_._pkg_energy_j[p]
            self.max_err[m] = sys_.max_temp_err_k
            self.max_seen[m] = sys_.max_temp_seen_c
            # alias the member's counter matrix onto the fleet tensor
            self.counts[m, :, :] = sys_._counts_mx
            sys_._counts_mx = self.counts[m]
            for c, bank in enumerate(sys_.banks):
                bank.bind_row(self.counts[m, c])
            sys_._bank_rows = [self.counts[m, c] for c in range(C)]
            self._recompute_wake_next(m)
            self._recompute_fork_next(m)
            for c in range(C):
                self._resync_slot(m, c)
        # bw_ts * recip with recip = 0.5 (SMT-shared lanes), hoisted: the
        # product of two per-machine constants
        self.bw_ts_half = self.bw_ts * 0.5
        # constant (M, C)/(M, P) broadcast views, hoisted out of the tick
        # (np.broadcast_to is a python-level call; these never change)
        self._bw_ts_b = np.broadcast_to(self.bw_ts, (M, C))
        self._bw_ts_half_b = np.broadcast_to(self.bw_ts_half, (M, C))
        self._cyc_solo_b = np.broadcast_to(self.cyc_solo, (M, C))
        self._cyc_smt_b = np.broadcast_to(self.cyc_smt, (M, C))
        self._halted_share_b = np.broadcast_to(self.halted_share, (M, C))
        self._halted_pkg_b = np.broadcast_to(self.halted_pkg, (M, P))
        self._smt_b = np.broadcast_to(self.smt, (M, C))

    # ------------------------------------------------------------------
    # Slot <-> array synchronisation
    # ------------------------------------------------------------------
    def _resync_slot(self, m: int, c: int) -> None:
        """Load the current task of (machine, cpu) into the arrays."""
        self.stats.resyncs += 1
        self._top_dirty = True
        sys_ = self.systems[m]
        task = self.rq_lists[m][c].current
        self.interval_e[m, c] = sys_._interval_energy[c]
        self.interval_b[m, c] = sys_._interval_busy[c]
        name = task.name if task is not None else None
        if name != self.acc_name[m][c]:
            acc = self.retired_acc[m, c]
            old = self.acc_name[m][c]
            if acc != 0.0 and old is not None:
                retired = sys_.instructions_retired
                retired[old] = retired.get(old, 0.0) + float(acc)
            self.retired_acc[m, c] = 0.0
            self.acc_name[m][c] = name
        if task is None:
            self.has_cur[m, c] = False
            self.ts_rem[m, c] = _INF
            self.run_rem[m, c] = _INF
            self.instr_rem[m, c] = _INF
            self.tot_busy[m, c] = 0.0
            self.tot_energy[m, c] = 0.0
            self.wob_rem[m, c] = _INF
            self.phase_rem[m, c] = _INF
            self.mixok[m, c] = False
            self.cold[m, c] = False
            return
        self.has_cur[m, c] = True
        self.ts_rem[m, c] = task.timeslice_remaining_ms
        self.run_rem[m, c] = (
            _INF if task.run_remaining_s is None else task.run_remaining_s
        )
        self.instr_rem[m, c] = task.instructions_remaining
        self.tot_busy[m, c] = task.total_busy_s
        self.tot_energy[m, c] = task.total_energy_j
        beh = task.behavior
        self.wob_rem[m, c] = beh._wobble_remaining_s
        self.phase_rem[m, c] = beh._phase_remaining_s
        # force the per-slot handler next tick: it replicates the scalar
        # inline-vs-step decision against the live behavior object
        self.mixok[m, c] = False
        cold = task.cold_instructions_remaining > 0.0
        self.cold[m, c] = cold
        if cold:
            self._have_cold = True
        if task.ready_since_ms is not None:
            self.note_slots.append((m, c))

    def _writeback_slot(self, m: int, c: int) -> None:
        """Write the arrays' view of (m, c)'s current task back to it."""
        task = self.rq_lists[m][c].current
        if task is None:
            return
        task.timeslice_remaining_ms = float(self.ts_rem[m, c])
        rr = self.run_rem[m, c]
        task.run_remaining_s = None if math.isinf(rr) else float(rr)
        task.instructions_remaining = float(self.instr_rem[m, c])
        task.total_busy_s = float(self.tot_busy[m, c])
        task.total_energy_j = float(self.tot_energy[m, c])
        beh = task.behavior
        beh._wobble_remaining_s = float(self.wob_rem[m, c])
        beh._phase_remaining_s = float(self.phase_rem[m, c])

    def _resync_machine(self, m: int) -> None:
        for c in range(self.n_cpus):
            self._resync_slot(m, c)

    def _recompute_wake_next(self, m: int) -> None:
        blocked = self.systems[m]._blocked
        self.wake_next[m] = (
            min(entry[0] for entry in blocked) if blocked else _INF
        )
        self._wake_min = float(self.wake_next.min())

    def _recompute_fork_next(self, m: int) -> None:
        pending = [
            slot.spec.arrival_s * 1000.0
            for slot in self.systems[m].slots
            if not slot.forked
        ]
        self.fork_next[m] = min(pending) if pending else _INF
        self._fork_min = float(self.fork_next.min())

    # ------------------------------------------------------------------
    # Flushes: array -> member System state
    # ------------------------------------------------------------------
    def _flush_thermal(self, m: int) -> None:
        metrics = self.systems[m].metrics
        metrics.thermal_w[:] = self.thermal[m].tolist()
        metrics.thermal_epoch += 1

    def _flush_policy_view(self, m: int) -> None:
        """What the balancers / hot migrator / placement read."""
        sys_ = self.systems[m]
        self._flush_thermal(m)
        sys_._interval_energy[:] = self.interval_e[m].tolist()
        sys_._interval_busy[:] = self.interval_b[m].tolist()

    def _flush_sample_view(self, m: int) -> None:
        """What ``_sample_traces`` reads."""
        sys_ = self.systems[m]
        self._flush_thermal(m)
        for p in range(self.n_packages):
            sys_.true_rc[p]._temp_c = float(self.true_t[m, p])
            sys_.est_rc[p]._temp_c = float(self.est_t[m, p])
        sys_._est_pkg_power[:] = self.est_pkg[m].tolist()

    def _flush_machine(self, m: int) -> None:
        """Full write-back: results, probes, checkpoints all read this."""
        self.stats.flushes += 1
        sys_ = self.systems[m]
        sys_._now_ms = self.clock.now_ms
        self._flush_policy_view(m)
        self._flush_sample_view(m)
        sys_._est_power[:] = self.est_power_a[m].tolist()
        sys_._dyn_power[:] = self.dyn_power_a[m].tolist()
        sys_._thermal_in_w[:] = self.thermal_in[m].tolist()
        sys_._running[:] = [bool(x) for x in self.running[m]]
        sys_._pkg_temp_c[:] = self.true_t[m].tolist()
        sys_._pkg_est_temp_c[:] = self.est_t[m].tolist()
        sys_._pkg_energy_j[:] = self.pkg_energy[m].tolist()
        sys_._busy_ticks[:] = (self.busy_base[m] + self.busy_acc[m]).tolist()
        sys_._total_ticks = self.total_base[m] + self.ticks_done
        sys_.max_temp_err_k = float(self.max_err[m])
        sys_.max_temp_seen_c = float(self.max_seen[m])
        retired = sys_.instructions_retired
        for c in range(self.n_cpus):
            acc = self.retired_acc[m, c]
            name = self.acc_name[m][c]
            if acc != 0.0 and name is not None:
                retired[name] = retired.get(name, 0.0) + float(acc)
                self.retired_acc[m, c] = 0.0
            self._writeback_slot(m, c)

    def sync(self) -> None:
        """Flush every machine's array state into its System."""
        for m in range(self.n_machines):
            self._flush_machine(m)

    # ------------------------------------------------------------------
    # The fleet tick
    # ------------------------------------------------------------------
    def tick(self, clock: Clock) -> None:
        now_ms = clock.now_ms
        tick_s = clock.tick_s
        systems = self.systems
        M = self.n_machines
        # -- wakeups / forks (member methods; same draw order as scalar) ----
        if self._wake_min <= now_ms:
            for m in np.nonzero(self.wake_next <= now_ms)[0]:
                m = int(m)
                systems[m]._now_ms = now_ms
                systems[m]._wake_due(now_ms)
                self._recompute_wake_next(m)
                self.dispatch_set.add(m)
        if self._fork_min <= now_ms:
            for m in np.nonzero(self.fork_next <= now_ms)[0]:
                m = int(m)
                systems[m]._now_ms = now_ms
                self._flush_policy_view(m)  # placement reads metrics
                systems[m]._fork_due(now_ms)
                self._recompute_fork_next(m)
                self.dispatch_set.add(m)
        # -- dispatch ---------------------------------------------------------
        if self.dispatch_set:
            for m in sorted(self.dispatch_set):
                sys_ = systems[m]
                for c, rq in enumerate(self.rq_lists[m]):
                    if rq.current is None and rq.nr:
                        task = rq.pick_next(None)
                        if task is not None and task.timeslice_remaining_ms <= 0:
                            task.timeslice_remaining_ms = sys_._timeslice_for(task)
                        self._resync_slot(m, c)
            self.dispatch_set.clear()
        self._execute(clock, now_ms, tick_s)
        self._thermal(clock, tick_s)
        self._housekeeping(clock)
        ticks = clock.ticks
        se0 = self._se0
        if se0 is None:
            for m in range(M):
                se = self.sample_every[m]
                if ticks == 1 or ticks % se == 0:
                    systems[m]._now_ms = now_ms
                    self._flush_sample_view(m)
                    systems[m]._sample_traces(clock)
        elif ticks == 1 or ticks % se0 == 0:
            for m in range(M):
                systems[m]._now_ms = now_ms
                self._flush_sample_view(m)
                systems[m]._sample_traces(clock)

    # -- execution ----------------------------------------------------------
    def _execute(self, clock: Clock, now_ms: int, tick_s: float) -> None:
        systems = self.systems
        rq_lists = self.rq_lists
        # pending ready->running latency notes for freshly-picked tasks
        if self.note_slots:
            for m, c in self.note_slots:
                task = rq_lists[m][c].current
                if task is not None and task.ready_since_ms is not None:
                    task.note_dispatched(now_ms)
            self.note_slots.clear()
        self.ticks_done += 1
        r = self.has_cur  # throttling is fleet-ineligible: current => running
        if self._top_dirty:
            self._refresh_lane_cache()
        all_run = self._all_run
        np.copyto(self.running, r)
        self.busy_acc += r
        cycles = self._cycles
        # -- slots whose behavior must run in python --------------------------
        need = self._sc_b1
        scratch = self._sc_b2
        np.less_equal(self.wob_rem, 0.0, out=need)
        np.less_equal(self.phase_rem, tick_s, out=scratch)
        np.logical_or(need, scratch, out=need)
        np.logical_not(self.mixok, out=scratch)
        np.logical_or(need, scratch, out=need)
        if not all_run:
            np.logical_and(need, r, out=need)
        stepped = need  # mutated in place below is fine: need not reused
        if need.any():
            for m, c in zip(*np.nonzero(need)):
                m = int(m)
                c = int(c)
                sys_ = systems[m]
                task = rq_lists[m][c].current
                beh = task.behavior
                beh._wobble_remaining_s = float(self.wob_rem[m, c])
                beh._phase_remaining_s = float(self.phase_rem[m, c])
                # exact scalar fast-path branch (system._execute_fast)
                if (
                    beh._wobble_remaining_s > 0.0
                    and beh._phase_remaining_s > tick_s
                    and beh._cached_mix is not None
                ):
                    mix = beh._cached_mix
                    beh._phase_remaining_s -= tick_s
                    beh._wobble_remaining_s -= tick_s
                else:
                    mix = beh.step(tick_s)
                self.wob_rem[m, c] = beh._wobble_remaining_s
                self.phase_rem[m, c] = beh._phase_remaining_s
                cyc = float(cycles[m, c])
                cache = sys_._tick_cache
                entry = cache.cache.get((id(mix), cyc))
                if entry is None or entry[0] is not mix:
                    entry = cache.miss(mix, cyc)
                self.mix_ref[m][c] = mix
                self.base_inc[m, c, :] = entry[1]
                mi = float(entry[1].max())
                if mi > self._max_inc:
                    self._max_inc = mi
                    self._mod_countdown = 0
                self.unit_nj[m, c] = entry[2]
                self.dyn_base[m, c] = entry[3]
                self.ipc[m, c] = mix.ipc
                self.cyc_valid[m, c] = cyc
                # A phase transition inside step() leaves _cached_mix None
                # (this tick still ran the old mix); the scalar re-enters
                # step() next tick to pick up the new phase's mix, so the
                # handler must run again then.
                self.mixok[m, c] = beh._cached_mix is not None
        # -- slots whose SMT sibling state changed: refresh the entry only ----
        notstep = self._sc_b2
        np.logical_not(stepped, out=notstep)
        stale = self._sc_b3
        np.not_equal(cycles, self.cyc_valid, out=stale)
        np.logical_and(stale, notstep, out=stale)
        if not all_run:
            np.logical_and(stale, r, out=stale)
        if stale.any():
            for m, c in zip(*np.nonzero(stale)):
                m = int(m)
                c = int(c)
                mix = self.mix_ref[m][c]
                cyc = float(cycles[m, c])
                cache = systems[m]._tick_cache
                entry = cache.cache.get((id(mix), cyc))
                if entry is None or entry[0] is not mix:
                    entry = cache.miss(mix, cyc)
                self.base_inc[m, c, :] = entry[1]
                mi = float(entry[1].max())
                if mi > self._max_inc:
                    self._max_inc = mi
                    self._mod_countdown = 0
                self.unit_nj[m, c] = entry[2]
                self.dyn_base[m, c] = entry[3]
                self.cyc_valid[m, c] = cyc
        # -- universal vector math (identical expressions to _execute_fast,
        # masking spelled as *mask which is bit-exact on finite values;
        # on an all-busy fleet the masks are all-ones and are skipped) -------
        # est_e = bw_ts * recip + unit_nj * 1e-9, recip in {1.0, 0.5};
        # the bw_ts * recip half lives in the lane cache (_est_base)
        est_e = self._sc_f1
        np.multiply(self.unit_nj, 1e-9, out=est_e)
        est_e += self._est_base
        # dyn = dyn_base, SMT-contended lanes scaled by the thread factor
        dynp = self.dyn_power_a
        np.multiply(self.dyn_base, self._smt_fac, out=dynp)
        if all_run:
            e_masked = est_e
            b_masked = self._b_full
            self.counts += self.base_inc
        else:
            dynp *= r
            e_masked = self._sc_f2
            np.multiply(est_e, r, out=e_masked)
            b_masked = self._sc_f3
            np.multiply(r, tick_s, out=b_masked)
            self.counts += np.multiply(
                self.base_inc, r[..., None], out=self._sc_cnt
            )
        # counters stay below the modulus for _mod_countdown more ticks,
        # over which the per-tick remainder is the bitwise identity
        self._mod_countdown -= 1
        if self._mod_countdown <= 0:
            self.counts %= self.modulus
            mx = float(self.counts.max())
            self._mod_countdown = max(
                1, int((self.modulus - mx) / max(self._max_inc, 1.0)) - 2
            )
        self.interval_e += e_masked
        self.tot_energy += e_masked
        np.divide(e_masked, tick_s, out=self.est_power_a)
        self.interval_b += b_masked
        self.tot_busy += b_masked
        self.run_rem -= b_masked
        instr_step = self._sc_f3  # b_masked consumed by the updates above
        np.multiply(cycles, self.ipc, out=instr_step)
        if self._have_cold:
            live = self._sc_b3  # stale already consumed
            np.logical_not(self.cold, out=live)
            if not all_run:
                np.logical_and(live, r, out=live)
            instr_step *= live
        elif not all_run:
            instr_step *= r
        self.retired_acc += instr_step
        self.instr_rem -= instr_step
        if all_run:
            self.ts_rem -= self._ts_full
        else:
            tmp = self._sc_f2
            np.multiply(r, float(clock.tick_ms), out=tmp)
            self.ts_rem -= tmp
            np.logical_and(notstep, r, out=notstep)
        timer_dec = self._sc_f2
        np.multiply(notstep, tick_s, out=timer_dec)
        self.wob_rem -= timer_dec
        self.phase_rem -= timer_dec
        # -- cache-cold slots retire through the warmup model -----------------
        if self._have_cold:
            cold_now = self._sc_b2  # notstep consumed by timer_dec above
            np.logical_and(r, self.cold, out=cold_now)
            if cold_now.any():
                for m, c in zip(*np.nonzero(cold_now)):
                    m = int(m)
                    c = int(c)
                    task = rq_lists[m][c].current
                    instructions = float(cycles[m, c]) * float(self.ipc[m, c])
                    executed = systems[m]._apply_cache_warmup(task, instructions)
                    self.retired_acc[m, c] += executed
                    self.instr_rem[m, c] -= executed
                    if task.cold_instructions_remaining <= 0.0:
                        self.cold[m, c] = False
        # -- consequences: job end, block, timeslice expiry -------------------
        cons = self._sc_b1
        scratch = self._sc_b2
        np.less_equal(self.instr_rem, 0.0, out=cons)
        np.less_equal(self.run_rem, 0.0, out=scratch)
        np.logical_or(cons, scratch, out=cons)
        np.less_equal(self.ts_rem, 0.0, out=scratch)
        np.logical_or(cons, scratch, out=cons)
        if not all_run:
            np.logical_and(cons, r, out=cons)
        if cons.any():
            for m, c in zip(*np.nonzero(cons)):
                self._consequences(int(m), int(c), clock)

    def _refresh_lane_cache(self) -> None:
        """Recompute per-lane quantities that depend only on which slots
        hold a current task: the SMT sibling-busy mask, effective cycles,
        the static half of the energy estimate (bw_ts * recip), and the
        SMT dynamic-power factor.  Only runs after some slot's current
        changed (_resync_slot raises the dirty flag)."""
        r = self.has_cur
        sib = self._sib_busy
        if self.has_smt:
            np.take(r, self.sib, axis=1, out=sib)
            np.logical_and(sib, r, out=sib)
        else:
            sib[:] = False
        np.copyto(self._cycles, self._cyc_solo_b)
        np.copyto(self._cycles, self._cyc_smt_b, where=sib)
        np.copyto(self._est_base, self._bw_ts_b)
        np.copyto(self._est_base, self._bw_ts_half_b, where=sib)
        self._smt_fac.fill(1.0)
        np.copyto(self._smt_fac, self._smt_b, where=sib)
        self._all_run = bool(r.all())
        self._top_dirty = False

    def _consequences(self, m: int, c: int, clock: Clock) -> None:
        """Fold (m, c) back to objects and run the scalar control flow."""
        sys_ = self.systems[m]
        sys_._now_ms = clock.now_ms
        rq = self.rq_lists[m][c]
        task = rq.current
        job_done = self.instr_rem[m, c] <= 0.0
        self._writeback_slot(m, c)
        sys_._interval_energy[c] = float(self.interval_e[m, c])
        sys_._interval_busy[c] = float(self.interval_b[m, c])
        if job_done:
            task.jobs_completed += 1  # Task.retire()'s side effect
            respawn = task.spec.respawn if task.spec else "restart_same"
            if respawn != "restart_same":
                # exit path runs _end_interval and possibly _fork/placement
                self._flush_policy_view(m)
            sys_._complete_job(task, clock)
            if rq.current is not task:  # task exited (fork_new/none)
                self._resync_slot(m, c)
                self.dispatch_set.add(m)
                return
        if task.run_remaining_s is not None and task.run_remaining_s <= 0:
            self._flush_policy_view(m)  # _end_interval reads intervals
            sys_._block(task, clock)
            blocked = sys_._blocked
            wake_ms = blocked[-1][0]
            if wake_ms < self.wake_next[m]:
                self.wake_next[m] = wake_ms
            if wake_ms < self._wake_min:
                self._wake_min = wake_ms
            self._resync_slot(m, c)
            self.dispatch_set.add(m)
            return
        if task.timeslice_remaining_ms <= 0:
            sys_._end_interval(c, task)
            nxt = rq.pick_next(None)
            if nxt is not None and nxt.timeslice_remaining_ms <= 0:
                nxt.timeslice_remaining_ms = sys_._timeslice_for(nxt)
            self._resync_slot(m, c)
            return
        self._resync_slot(m, c)  # restart_same refreshed instructions

    # -- thermal -------------------------------------------------------------
    def _thermal(self, clock: Clock, tick_s: float) -> None:
        r = self.running
        M = self.n_machines
        idx = self.pkg_idx  # (P, k): column j = j-th cpu of each package
        any_run = self._sc_pkg_any
        dyn_pkg = self._sc_pkg_f1
        est_pkg_sum = self._sc_pkg_f2
        any_run[:] = False
        dyn_pkg[:] = 0.0
        est_pkg_sum[:] = 0.0
        # per-package sums, accumulated cpu-by-cpu in the scalar's
        # ascending order (dyn/est power rows are already 0.0 on halted
        # lanes, so the masked adds are the plain column values)
        for j in range(idx.shape[1]):
            cols = idx[:, j]
            any_run |= r[:, cols]
            dyn_pkg += self.dyn_power_a[:, cols]
            est_pkg_sum += self.est_power_a[:, cols]
        all_halted = self._sc_pkg_any  # alias note: negated in place below
        np.logical_not(any_run, out=all_halted)
        # noise_sigma == 0: the scalar's gauss(0.0, 0.0) draw is exactly
        # 0.0 and clean * (1.0 + 0.0) is bitwise clean — skip the draw
        true_w_pkg = self._sc_pkg_f3
        np.add(dyn_pkg, self.base_act, out=true_w_pkg)
        np.copyto(true_w_pkg, self._halted_pkg_b, where=all_halted)
        target = self._sc_pkg_f4
        np.multiply(true_w_pkg, self.r_k, out=target)
        target += self.ambient
        self.true_t -= target
        self.true_t *= self.decay
        self.true_t += target
        est_w_pkg = self.est_pkg  # reused as this tick's estimate storage
        np.copyto(est_w_pkg, est_pkg_sum)
        np.copyto(est_w_pkg, self._halted_pkg_b, where=all_halted)
        np.multiply(est_w_pkg, self.r_k, out=target)
        target += self.ambient
        self.est_t -= target
        self.est_t *= self.decay
        self.est_t += target
        # frequency-aware Eq. 1 ledger: elementwise est_w * tick_s then
        # add — the same two IEEE ops as the scalar's `+= est_w * tick_s`
        # (target/f4 is free until the err computation rebuilds it)
        np.multiply(est_w_pkg, tick_s, out=target)
        self.pkg_energy += target
        # restore any_run for the thermal-input cascade below
        np.logical_not(all_halted, out=any_run)
        err = target  # f4 free after the est_t update
        np.subtract(self.est_t, self.true_t, out=err)
        np.abs(err, out=err)
        np.maximum(self.max_err, err.max(axis=1), out=self.max_err)
        np.maximum(self.max_seen, self.true_t.max(axis=1), out=self.max_seen)
        # per-logical thermal input (same values as the scalar's where
        # cascade: est_power_a is already 0.0 on non-running lanes)
        pkg_halted = self._sc_b1
        np.take(any_run, self.pkg_of, axis=1, out=pkg_halted)
        np.logical_not(pkg_halted, out=pkg_halted)
        np.copyto(self.thermal_in, self.est_power_a)
        np.copyto(self.thermal_in, self._halted_share_b, where=pkg_halted)
        # estimation-error accrual on each machine's sample ticks, package
        # ascending, accumulated on the member (scalar summation order)
        ticks = clock.ticks
        if self._se0 is None or ticks % self._se0 == 0:
            for m in range(M):
                if ticks % self.sample_every[m] != 0:
                    continue
                sys_ = self.systems[m]
                for pkg in range(self.n_packages):
                    if any_run[m, pkg]:
                        true_w = float(true_w_pkg[m, pkg])
                        sys_._est_err_sum += (
                            abs(float(est_w_pkg[m, pkg]) - true_w) / true_w
                        )
                        sys_._est_err_n += 1
        # EWMA advance: identical expression to ewma_update_batch
        ew = self._sc_f1
        np.subtract(self.thermal_in, self.thermal, out=ew)
        ew *= self.alpha
        self.thermal += ew

    # -- housekeeping --------------------------------------------------------
    def _fire_table(self, bt: int, it: int, ht: int) -> tuple:
        key = (bt, it, ht)
        cached = self._fire_tables.get(key)
        if cached is not None:
            return cached
        C = self.n_cpus
        bal = [
            frozenset(c for c in range(C) if (rr + 3 * c) % bt == 0)
            for rr in range(bt)
        ]
        idle = [
            frozenset(c for c in range(C) if (rr + c) % it == 0)
            for rr in range(it)
        ]
        hot = [
            frozenset(c for c in range(C) if (rr + c) % ht == 0)
            for rr in range(ht)
        ]
        # idle-residue cpu indices as arrays: the idle-only tick uses
        # them to column-slice has_cur and skip machines whose idle
        # candidates are all occupied (nr == 0 implies current is None,
        # so the slice test over-approximates the fire condition and
        # never skips a machine the scalar loop would act on)
        idle_cols = [
            np.fromiter(sorted(cands), dtype=np.intp, count=len(cands))
            for cands in idle
        ]
        merged_sets = {}
        table = (bal, idle, hot, idle_cols, merged_sets)
        self._fire_tables[key] = table
        return table

    def _housekeeping(self, clock: Clock) -> None:
        ticks = clock.ticks
        M = self.n_machines
        if self.uniform:
            bt, it, ht = self.bal_ticks[0], self.idle_ticks[0], self.hot_ticks[0]
            bal_t, idle_t, hot_t, idle_cols, merged_sets = self._fire_table(
                bt, it, ht
            )
            rb, ri, rh = ticks % bt, ticks % it, ticks % ht
            balset = bal_t[rb]
            idleset = idle_t[ri]
            hotset = hot_t[rh]
            if not balset:
                # No balance pass anywhere: gate idle and hot candidates
                # per machine with over-approximating vector tests, so
                # machines where provably nothing can fire skip the
                # python call entirely.  Idle: a candidate CPU must be
                # unoccupied (nr == 0 implies current is None).  Hot:
                # should_trigger() is a pure read that is False whenever
                # the candidate's package heat is at or below the
                # trigger ceiling, whatever the queue length.
                if idleset:
                    cols = idle_cols[ri]
                    idle_need = ~self.has_cur[:, cols].all(axis=1)
                else:
                    idle_need = None
                if hotset:
                    hot_need = self._hot_possible(hotset)
                    need = (
                        hot_need if idle_need is None
                        else (hot_need | idle_need)
                    )
                else:
                    if idle_need is None:
                        return
                    need = idle_need
                if not need.any():
                    return
                now_ms = clock.now_ms
                key = (rb, ri, rh)
                merged = merged_sets.get(key)
                if merged is None:
                    merged = merged_sets[key] = sorted(idleset | hotset)
                for m in np.nonzero(need)[0]:
                    self._housekeep_machine(
                        int(m), merged, balset, idleset, hotset, now_ms
                    )
                return
            now_ms = clock.now_ms
            merged = sorted(balset | idleset | hotset)
            for m in range(M):
                self._housekeep_machine(
                    m, merged, balset, idleset, hotset, now_ms
                )
        else:
            now_ms = clock.now_ms
            for m in range(M):
                bal_t, idle_t, hot_t, _cols, _msets = self._fire_table(
                    self.bal_ticks[m], self.idle_ticks[m], self.hot_ticks[m]
                )
                balset = bal_t[ticks % self.bal_ticks[m]]
                idleset = idle_t[ticks % self.idle_ticks[m]]
                hotset = hot_t[ticks % self.hot_ticks[m]]
                if not balset and not hotset and not idleset:
                    continue
                merged = sorted(balset | idleset | hotset)
                self._housekeep_machine(m, merged, balset, idleset, hotset, now_ms)

    def _hot_possible(self, hotset) -> np.ndarray:
        """(M,) mask: could should_trigger() pass on any hot candidate?

        Package heat is summed left-associated in ascending-CPU order —
        bit-identical to ``MetricsBoard.package_thermal_sum_w`` — and
        compared against the precomputed trigger ceiling.  False means
        every candidate's check is a no-op read, so the machine's
        housekeeping call can be skipped without changing any state.
        """
        thermal = self.thermal
        need = None
        for p in {int(self.pkg_of[c]) for c in hotset}:
            cpus = self.pkg_cpus[p]
            acc = thermal[:, cpus[0]].copy()
            for c in cpus[1:]:
                acc += thermal[:, c]
            mask = acc > self.hot_ceiling[:, p]
            need = mask if need is None else (need | mask)
        return need

    def _housekeep_machine(self, m, merged, balset, idleset, hotset, now_ms) -> None:
        self.stats.housekeeping_fires += 1
        rqs = self.rq_lists[m]
        policy = self.systems[m].policy
        # flush only if some call will read the metrics board: a balance
        # fires that could move a task, or a hot check passes its
        # single-task pre-gate.  Until something flushes, no call in this
        # pass has run, so every nr read here is the one the call sees.
        need_flush = False
        for c in merged:
            if (
                c in balset or (c in idleset and rqs[c].nr == 0)
            ) and not policy.balance_cannot_move(c):
                need_flush = True
                break
            if c in hotset and rqs[c].nr == 1:
                need_flush = True
                break
        if not need_flush:
            # no-op balances are skipped; hot checks on multi/zero-task
            # queues read nothing and change nothing, but run them anyway
            # to keep the call sequence identical
            for c in merged:
                if c in hotset:
                    policy.check_active_migration(c)
            return
        # balancers read the thermal board and task profiles, never the
        # interval lists (_end_interval is per-cpu and only reachable via
        # a hot migration of a current task, handled below)
        self._flush_thermal(m)
        sys_ = self.systems[m]
        sys_._now_ms = now_ms  # migration event records read the member clock
        currents = [rq.current for rq in rqs]
        moved = 0
        for c in merged:  # same c-ascending order as System._housekeeping
            if c in balset or (rqs[c].nr == 0 and c in idleset):
                moved += policy.periodic_balance(c)
            if c in hotset:
                # Hot migration is the only path that can move a *current*
                # task (single-task queue).  Balance moves queued tasks,
                # whose objects are already authoritative.  Write the
                # candidate slot back first so the migrated object carries
                # this tick's post-execute timers (the nr gate is live:
                # an earlier balance in this pass may have drained the
                # queue to one task).
                rq = rqs[c]
                if rq.nr == 1 and rq.current is not None:
                    self._writeback_slot(m, c)
                    sys_._interval_energy[c] = float(self.interval_e[m, c])
                    sys_._interval_busy[c] = float(self.interval_b[m, c])
                if policy.check_active_migration(c):
                    moved += 1
        if moved:
            # Reload only the slots whose current changed (migration of a
            # running task, queue drained, ...).  Untouched slots keep the
            # arrays authoritative — resyncing them from their stale task
            # objects would erase this tick's decrements.
            for c in range(self.n_cpus):
                if rqs[c].current is not currents[c]:
                    self._resync_slot(m, c)
            self.dispatch_set.add(m)

    # ------------------------------------------------------------------
    # Run helpers (Engine-compatible surface)
    # ------------------------------------------------------------------
    def run_ticks(self, n_ticks: int) -> None:
        if n_ticks < 0:
            raise ValueError(f"n_ticks must be non-negative, got {n_ticks}")
        clock = self.clock
        for _ in range(n_ticks):
            clock.advance()
            self.tick(clock)
        self.stats.machine_ticks += n_ticks * self.n_machines

    def run_until_tick(self, total_ticks: int) -> None:
        remaining = total_ticks - self.clock.ticks
        if remaining > 0:
            self.run_ticks(remaining)

    def run_for(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"duration must be positive, got {seconds}")
        self.run_ticks(self.clock.ticks_for_ms(seconds * 1000.0))

    def results(self, duration_s: float) -> list:
        """Flush everything and wrap each member in a SimulationResult."""
        from repro.api import SimulationResult

        self.sync()
        return [
            SimulationResult(system=sys_, duration_s=duration_s)
            for sys_ in self.systems
        ]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A versioned fleet checkpoint: header + per-member snapshots.

        Restoring (:meth:`restore`) rebuilds every member System and
        re-attaches a fresh fleet; the continued run is bit-identical to
        the uninterrupted one (asserted by tests/test_fleet_checkpoint.py).
        """
        self.sync()
        return {
            "schema": f"{FLEET_CHECKPOINT_SCHEMA}/{FLEET_CHECKPOINT_VERSION}",
            "version": FLEET_CHECKPOINT_VERSION,
            "tick_ms": self.tick_ms,
            "now_ms": self.clock.now_ms,
            "ticks": self.clock.ticks,
            "n_machines": self.n_machines,
            "members": [sys_.snapshot() for sys_ in self.systems],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "FleetEngine":
        schema = snapshot.get("schema")
        expected = f"{FLEET_CHECKPOINT_SCHEMA}/{FLEET_CHECKPOINT_VERSION}"
        if schema != expected:
            raise ValueError(
                f"unsupported fleet checkpoint schema {schema!r}; this build "
                f"reads {expected!r}"
            )
        systems = [System.restore(member) for member in snapshot["members"]]
        return cls(systems)

