"""Fleet-backed sweep execution: batch homogeneous jobs per tick.

:func:`run_grid_fleet` is ``run_grid`` with a vectorized middle stage.
It runs :func:`~repro.runner.executor.run_grid`'s own stages on outer
grid indices — resolve journal replays and cache hits, execute, finish
and report — and adds placement between the first two.  Placement
builds nothing: the driver parses each scenario spec and asks
:func:`repro.fleet.fleet_refusals` whether the fleet can take it.
Eligible scenarios are grouped by machine topology, tick length, and
duration, packed into :class:`~repro.fleet.FleetEngine` batches of up
to ``fleet_size`` members, and advanced N machines per tick.  Each
chunk is split further so that every worker has a batch, and the
batches run as the jobs of one inner
:func:`~repro.runner.executor.run_grid` call: in this process at
``workers=1``, on the supervised process pool otherwise.  A batch
carries parsed ``Scenario`` objects and builds its member ``System``
objects where it runs; ``FleetEngine`` re-checks every built member with
:func:`repro.fleet.check_fleet_supported`.  The driver keeps cache,
journal and statistics to itself.  Everything else — registry
experiments, ineligible or unparseable scenarios, ragged remainders
that are not worth a batch, members of a batch that failed — goes
through ``run_grid``'s execution stage, journaled, cached and counted
exactly as on the pool.

Results are byte-identical to the pool path: a fleet member is the same
:class:`~repro.system.System` built from the same merged scenario as
``execute_spec`` builds it, the engines are differentially tested
against each other (``repro.validate.fleet``,
tests/test_fleet_equivalence.py), and the result dict comes from the
same helper.  Cache entries and journal records are therefore
interchangeable between engines — a sweep can resume under
``--engine fleet`` what it started under ``pool`` and vice versa.
"""

from __future__ import annotations

import pathlib
import time
from typing import Sequence

from repro.resilience.supervisor import ExecutorStats
from repro.runner.cache import ResultCache
from repro.runner.executor import (
    GridReport,
    JobOutcome,
    ProgressFn,
    _execute,
    _finish,
    _merged_scenario,
    _resolve,
    _scenario_result,
    execute_spec,
    run_grid,
)
from repro.runner.spec import JobSpec
from repro.sim.clock import Clock

#: Members per fleet batch.  64 machines keeps every per-tick array in
#: cache-friendly territory; larger groups split into chunks of this.
DEFAULT_FLEET_SIZE = 64

#: Smallest group worth vectorizing.  A batch of one machine pays the
#: SoA attach/flush overhead for no broadcast win, so singletons ride
#: the pool path with everything else.
MIN_FLEET_BATCH = 2


def _place_member(spec: JobSpec):
    """Parse one scenario spec and decide whether the fleet takes it.

    Returns ``(scenario, None)`` for a fleet-eligible job and
    ``(None, reason)`` otherwise.  Nothing is built here; the batch
    builds its members where it runs.  Parse errors are not raised —
    the pool path will surface them with the executor's full
    retry/quarantine machinery.
    """
    from repro.fleet import FleetUnsupported, fleet_refusals
    from repro.scenario import parse_scenario

    if spec.experiment is not None:
        return None, "experiment specs always run on the pool"
    data = _merged_scenario(spec)
    if data.get("obs"):
        return None, "observability requested"
    if data.get("options"):
        return None, "run options requested"
    try:
        scenario = parse_scenario(data)
    except Exception as exc:
        return None, f"parse failed ({type(exc).__name__}: {exc})"
    reasons = fleet_refusals(scenario.config, scenario.workload, scenario.policy)
    if reasons:
        return None, str(FleetUnsupported.refusing(reasons))
    return scenario, None


def _machine_key(scenario) -> tuple:
    """Grouping key: everything the fleet requires members to share."""
    config = scenario.config
    return (
        config.machine,
        config.tick_ms,
        float(scenario.duration_s),
    )


def _split_for_workers(chunks: list[list], workers: int) -> list[list]:
    """Split chunks into near-equal sub-batches until ``workers`` are busy.

    Per-tick fleet cost is mostly fixed (a 12-member batch costs about
    60% of a 24-member one), so splitting pays only while it occupies
    an idle worker: parts are added one at a time, each to the chunk
    whose sub-batches are largest, until there are ``workers`` batches
    or no sub-batch could keep ``MIN_FLEET_BATCH`` members.  A chunk's
    members are dealt round-robin, so each part gets a share of every
    kind of job in it.  The member set is unchanged.
    """
    parts = [1] * len(chunks)
    while sum(parts) < workers:
        splittable = [
            k for k, chunk in enumerate(chunks)
            if len(chunk) // (parts[k] + 1) >= MIN_FLEET_BATCH
        ]
        if not splittable:
            break
        parts[max(splittable, key=lambda k: len(chunks[k]) / parts[k])] += 1
    return [
        chunk[part::n] for chunk, n in zip(chunks, parts) for part in range(n)
    ]


def _run_batch(scenarios: list) -> dict:
    """Build one batch's member Systems and advance them as one fleet.

    The ``run_fn`` of the batch grid: module-level so a pool worker can
    unpickle it.  Each member is built as ``execute_spec`` builds it;
    ``FleetEngine`` then asserts ``check_fleet_supported`` on every
    member, so a failed build or a placement the built check disagrees
    with fails the whole batch.  Returns the members' result dicts in
    order plus the engine's :class:`~repro.fleet.FleetStats`.
    """
    from repro.fleet import FleetEngine
    from repro.system import System

    engine = FleetEngine([
        System(scenario.config, scenario.workload, policy=scenario.policy)
        for scenario in scenarios
    ])
    duration_s = scenarios[0].duration_s
    engine.run_for(duration_s)
    return {
        "results": [
            _scenario_result(scenario, result)
            for scenario, result in zip(
                scenarios, engine.results(duration_s)
            )
        ],
        "stats": engine.stats,
    }


def run_grid_fleet(
    specs: Sequence[JobSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    progress: ProgressFn | None = None,
    journal=None,
    stop_event=None,
    fleet_size: int = DEFAULT_FLEET_SIZE,
    quarantine_dir: str | pathlib.Path | None = None,
    bus=None,
) -> GridReport:
    """Execute every spec, vectorizing fleet-eligible scenario groups.

    Same contract as :func:`run_grid`: outcomes come back in input
    order, journal replays and cache hits are resolved first, and
    ``stop_event`` requests a graceful drain.  ``fleet_size`` caps the
    members per :class:`FleetEngine` batch; ``workers`` processes run
    the batches, then the fallback jobs.  ``timeout_s`` and ``retries``
    apply to the fallback jobs only.  ``bus`` (an optional
    :class:`repro.obs.events.EventBus`) receives job lifecycle plus
    ``fleet_chunk_*`` / ``fleet_tick_progress`` telemetry.
    """
    if fleet_size < 1:
        raise ValueError(f"fleet_size must be >= 1, got {fleet_size}")
    started = time.monotonic()
    specs = list(specs)
    if bus is not None:
        bus.emit("grid_started", total=len(specs), workers=workers,
                 engine="fleet")
    stats = ExecutorStats()
    outcomes, to_run = _resolve(specs, cache, journal, bus)

    # -- partition: fleet-eligible groups vs pool fallback ------------------
    from repro.fleet import FleetStats

    fleet_stats = FleetStats()
    fallback: list[int] = []

    def fall_back(i: int, reason: str) -> None:
        fallback.append(i)
        fleet_stats.note_fallback(reason)
        if bus is not None:
            bus.emit("fleet_fallback", index=i, reason=reason)

    groups: dict[tuple, list[tuple[int, object]]] = {}
    for i in to_run:
        scenario, reason = _place_member(specs[i])
        if scenario is None:
            fall_back(i, reason)
            continue
        groups.setdefault(_machine_key(scenario), []).append((i, scenario))

    chunks: list[list[tuple[int, object]]] = []
    for key in sorted(groups, key=lambda k: str(k)):
        group = groups[key]
        for start in range(0, len(group), fleet_size):
            chunk = group[start:start + fleet_size]
            if len(chunk) >= MIN_FLEET_BATCH:
                chunks.append(chunk)
            else:
                for i, _sc in chunk:
                    fall_back(
                        i, f"fewer than {MIN_FLEET_BATCH} jobs share its machine"
                    )
    batches = _split_for_workers(chunks, workers)

    # -- run the fleet batches, one batch per worker job --------------------
    if batches:
        batch_report = run_grid(
            [[sc for _i, sc in chunk] for chunk in batches],
            workers=workers,
            retries=0,
            run_fn=_run_batch,
            stop_event=stop_event,
            bus=_BatchBus(bus, journal, specs, batches),
        )
        stats.worker_crashes = batch_report.exec_stats.worker_crashes
        stats.pool_rebuilds = batch_report.exec_stats.pool_rebuilds
        stats.interrupted = batch_report.interrupted
        for chunk, outcome in zip(batches, batch_report.outcomes):
            if not outcome.ok:
                # A batch failure says nothing about which member is at
                # fault; rerun them all through the pool's blame
                # machinery.  attempts == 0: drained before it ran.
                if outcome.attempts:
                    for i, _sc in chunk:
                        fall_back(i, f"fleet batch failed ({outcome.error})")
                continue
            fleet_stats.merge(outcome.result["stats"])
            per_job = outcome.elapsed_s / len(chunk)
            for (i, _sc), result in zip(chunk, outcome.result["results"]):
                outcomes[i] = JobOutcome(
                    spec=specs[i], result=result, attempts=1,
                    elapsed_s=per_job,
                )
                if journal is not None:
                    journal.record_outcome(i, outcomes[i])
                if cache is not None:
                    cache.put(specs[i], result)

    # -- everything else runs as run_grid runs it, on outer indices ---------
    fallback.sort()
    _execute(
        specs, fallback, outcomes, stats, workers, execute_spec,
        cache=cache, journal=journal, stop_event=stop_event, bus=bus,
        quarantine_dir=quarantine_dir, timeout_s=timeout_s, retries=retries,
    )
    return _finish(
        specs, outcomes, stats, started, cache, progress, bus,
        fleet_stats=fleet_stats,
    )


class _BatchBus:
    """Bus proxy for the batch grid, where one job is one fleet batch.

    Journals each member's ``start`` when its batch starts, so a sweep
    stopped before dispatch journals none, as on the pool.  With an
    outer ``bus``, also turns the batch grid's job lifecycle into the
    outer grid's fleet events, indexed by batch (``chunk``) and member
    (``index``):

    * batch started → ``fleet_chunk_started`` and ``job_started`` per
      member;
    * batch finished → one ``fleet_tick_progress`` covering its whole
      run, ``job_finished`` per member, ``fleet_chunk_finished``;
    * batch failed or quarantined → ``fleet_chunk_finished`` with
      ``ok=False`` (the driver then emits the members' fallbacks).

    Worker incidents pass through, a ``worker_death`` naming the batch
    as ``chunk``.  The batch grid's own ``grid_started``/
    ``grid_finished`` pair is dropped: the outer grid emits its own.
    """

    def __init__(self, bus, journal, specs: list[JobSpec],
                 batches: list[list]) -> None:
        self._bus = bus
        self._journal = journal
        self._specs = specs
        self._batches = batches

    def emit(self, kind: str, **data):
        if kind == "job_started" and self._journal is not None:
            for i, _sc in self._batches[data["index"]]:
                self._journal.record_start(i, self._specs[i])
        bus = self._bus
        if bus is None or kind in ("grid_started", "grid_finished"):
            return None
        if "index" not in data:
            return bus.emit(kind, **data)
        b = data.pop("index")
        chunk = self._batches[b]
        n = len(chunk)
        if kind == "job_started":
            bus.emit("fleet_chunk_started", chunk=b, members=n)
            for i, _sc in chunk:
                bus.emit("job_started", index=i, engine="fleet")
        elif kind == "job_finished":
            scenario = chunk[0][1]
            ticks = Clock(scenario.config.tick_ms).ticks_for_ms(
                scenario.duration_s * 1000.0
            )
            bus.emit("fleet_tick_progress", ticks=ticks, machines=n,
                     ticks_total=ticks)
            wall_s = data["elapsed_s"]
            for i, _sc in chunk:
                bus.emit("job_finished", index=i, attempts=1,
                         elapsed_s=wall_s / n, engine="fleet")
            bus.emit("fleet_chunk_finished", chunk=b, members=n, ok=True,
                     wall_s=wall_s)
        elif kind in ("job_failed", "job_quarantined"):
            bus.emit("fleet_chunk_finished", chunk=b, members=n, ok=False,
                     error=data.get("error", ""))
        else:
            bus.emit(kind, chunk=b, **data)
        return None
