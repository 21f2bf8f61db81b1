"""Fleet-backed sweep execution: batch homogeneous jobs per tick.

:func:`run_grid_fleet` is ``run_grid`` with a vectorized front end.
Scenario specs whose parsed systems are fleet-eligible (see
:func:`repro.fleet.check_fleet_supported`) are grouped by machine
topology, tick length, and duration, packed into
:class:`~repro.fleet.FleetEngine` batches of up to ``fleet_size``
members, and advanced N machines per tick.  Each chunk is split further
so that every worker has a batch, and the batches run as the jobs of
one inner :func:`~repro.runner.executor.run_grid` call: in this process
at ``workers=1``, on the supervised process pool otherwise.  The driver
ships each batch's built ``System`` objects and keeps cache, journal
and statistics to itself.  Everything else — registry experiments,
ineligible scenarios, ragged remainders that are not worth a batch,
members of a batch that failed — falls back to a second ``run_grid``
call on the pool.

Results are byte-identical to the pool path: a fleet member is the same
:class:`~repro.system.System` built the same way ``execute_spec``
builds it, the engines are differentially tested against each other
(``repro.validate.fleet``, tests/test_fleet_equivalence.py), and the
result dict is assembled by the same export calls.  Cache entries and
journal records are therefore interchangeable between engines — a sweep
can resume under ``--engine fleet`` what it started under ``pool`` and
vice versa.
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


def _merged_scenario_dict(spec: JobSpec) -> dict:
    """The scenario object after override/duration/seed merging.

    Exactly the merge ``execute_spec`` performs, so a fleet member and
    a pool worker parse the identical JSON shape.
    """
    data = dict(spec.scenario)
    data.update(spec.overrides)
    if spec.duration_s is not None:
        data["duration_s"] = spec.duration_s
    if spec.seed is not None:
        data["seed"] = spec.seed
    return data


def _build_member(spec: JobSpec):
    """Parse one scenario spec and build its System, or explain why not.

    Returns ``(scenario, system, None)`` for a fleet-eligible job and
    ``(None, None, reason)`` otherwise.  Build errors are not raised
    here — the pool path will surface them with the executor's full
    retry/quarantine machinery.
    """
    from repro.fleet import FleetUnsupported, check_fleet_supported
    from repro.scenario import parse_scenario
    from repro.system import System

    if spec.experiment is not None:
        return None, None, "experiment specs always run on the pool"
    data = _merged_scenario_dict(spec)
    if data.get("obs"):
        return None, None, "observability requested"
    if data.get("options"):
        return None, None, "run options requested"
    try:
        scenario = parse_scenario(data)
        system = System(
            scenario.config,
            scenario.workload,
            policy=scenario.policy,
        )
        check_fleet_supported(system)
    except FleetUnsupported as exc:
        return None, None, str(exc)
    except Exception as exc:
        return None, None, f"build failed ({type(exc).__name__}: {exc})"
    return scenario, system, None


def _machine_key(scenario) -> tuple:
    """Grouping key: everything the fleet requires members to share."""
    config = scenario.config
    return (
        config.machine,
        config.tick_ms,
        float(scenario.duration_s),
    )


def _fleet_result(scenario, result) -> dict:
    """Assemble the result dict exactly as ``execute_spec`` does."""
    from repro.analysis.export import run_summary

    return {
        "experiment": None,
        "scenario": scenario.workload.name,
        "duration_s": scenario.duration_s,
        "seed": scenario.config.seed,
        "scalars": result.scalar_summary(),
        "summary": run_summary(result),
    }


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


def _run_batch(members: list) -> dict:
    """Advance one batch of built ``(scenario, System)`` members.

    The ``run_fn`` of the batch grid: module-level so a pool worker can
    unpickle it.  Returns the members' result dicts in order plus the
    engine's :class:`~repro.fleet.FleetStats`.
    """
    from repro.fleet import FleetEngine

    engine = FleetEngine([system for _scenario, system in members])
    duration_s = members[0][0].duration_s
    engine.run_for(duration_s)
    return {
        "results": [
            _fleet_result(scenario, result)
            for (scenario, _system), result in zip(
                members, engine.results(duration_s)
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
    the batches, then the pool fallback.  ``timeout_s`` and ``retries``
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
    outcomes: dict[int, JobOutcome] = {}

    # -- resolve journal replays and cache hits (same rules as run_grid) ----
    to_run: list[int] = []
    for i, spec in enumerate(specs):
        if journal is not None:
            prior = journal.completed_result(spec)
            if prior is not None:
                outcomes[i] = JobOutcome(
                    spec=spec, result=prior, cached=True, resumed=True
                )
                if bus is not None:
                    bus.emit("job_cache_hit", index=i, source="journal")
                continue
            if journal.is_quarantined(spec):
                outcomes[i] = JobOutcome(
                    spec=spec,
                    result=None,
                    error=journal.quarantine_error(spec)
                    or "quarantined in a previous run",
                    quarantined=True,
                    resumed=True,
                )
                if bus is not None:
                    bus.emit("job_quarantined", index=i, resumed=True,
                             error=outcomes[i].error or "")
                continue
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[i] = JobOutcome(spec=spec, result=hit, cached=True)
            if bus is not None:
                bus.emit("job_cache_hit", index=i, source="cache")
            if journal is not None:
                journal.record_outcome(i, outcomes[i])
        else:
            to_run.append(i)

    # -- partition: fleet-eligible groups vs pool fallback ------------------
    from repro.fleet import FleetStats

    fleet_stats = FleetStats()
    fallback: list[int] = []

    def fall_back(i: int, reason: str) -> None:
        fallback.append(i)
        fleet_stats.note_fallback(reason)
        if bus is not None:
            bus.emit("fleet_fallback", index=i, reason=reason)

    groups: dict[tuple, list[tuple[int, object, object]]] = {}
    for i in to_run:
        scenario, system, reason = _build_member(specs[i])
        if scenario is None:
            fall_back(i, reason)
            continue
        groups.setdefault(_machine_key(scenario), []).append(
            (i, scenario, system)
        )

    chunks: list[list[tuple[int, object, object]]] = []
    for key in sorted(groups, key=lambda k: str(k)):
        group = groups[key]
        for start in range(0, len(group), fleet_size):
            chunk = group[start:start + fleet_size]
            if len(chunk) >= MIN_FLEET_BATCH:
                chunks.append(chunk)
            else:
                for i, _sc, _sys in chunk:
                    fall_back(
                        i, f"fewer than {MIN_FLEET_BATCH} jobs share its machine"
                    )
    batches = _split_for_workers(chunks, workers)

    # -- run the fleet batches, one batch per worker job --------------------
    stats = ExecutorStats()
    if batches:
        if journal is not None:
            for chunk in batches:
                for i, _sc, _sys in chunk:
                    journal.record_start(i, specs[i])
        batch_report = run_grid(
            [[(sc, sys) for _i, sc, sys in chunk] for chunk in batches],
            workers=workers,
            retries=0,
            run_fn=_run_batch,
            stop_event=stop_event,
            bus=_BatchBus(bus, batches) if bus is not None else None,
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
                    for i, _sc, _sys in chunk:
                        fall_back(i, f"fleet batch failed ({outcome.error})")
                continue
            fleet_stats.merge(outcome.result["stats"])
            per_job = outcome.elapsed_s / len(chunk)
            for (i, _sc, _sys), result in zip(chunk, outcome.result["results"]):
                outcomes[i] = JobOutcome(
                    spec=specs[i], result=result, attempts=1,
                    elapsed_s=per_job,
                )
                if journal is not None:
                    journal.record_outcome(i, outcomes[i])
                if cache is not None:
                    cache.put(specs[i], result)

    # -- pool fallback for everything else ----------------------------------
    fallback.sort()
    if fallback and not stats.interrupted:
        inner = run_grid(
            [specs[i] for i in fallback],
            workers=workers,
            cache=cache,
            timeout_s=timeout_s,
            retries=retries,
            journal=None,  # outer journal indices would collide; see below
            stop_event=stop_event,
            quarantine_dir=quarantine_dir,
            bus=_InnerBus(bus, fallback) if bus is not None else None,
        )
        for i, outcome in zip(fallback, inner.outcomes):
            outcomes[i] = outcome
            if journal is not None and not (
                outcome.resumed and outcome.result is None
            ):
                journal.record_outcome(i, outcome)
        inner_stats = inner.exec_stats
        stats.retries = inner_stats.retries
        stats.worker_crashes += inner_stats.worker_crashes
        stats.pool_rebuilds += inner_stats.pool_rebuilds
        stats.timeouts = inner_stats.timeouts
        stats.quarantined = inner_stats.quarantined
        stats.interrupted = inner_stats.interrupted

    # -- order + report ------------------------------------------------------
    for i, spec in enumerate(specs):
        if i not in outcomes:
            stats.interrupted = True
            outcomes[i] = JobOutcome(
                spec=spec, result=None,
                error="interrupted before completion",
            )
    ordered = [outcomes[i] for i in range(len(specs))]
    if bus is not None:
        bus.emit(
            "grid_finished",
            total=len(specs),
            failed=sum(1 for o in ordered if not o.ok),
            interrupted=stats.interrupted,
            wall_s=time.monotonic() - started,
            engine="fleet",
        )
    if progress is not None:
        for i, outcome in enumerate(ordered):
            progress(outcome, i, len(specs))
    return GridReport(
        outcomes=ordered,
        cache_stats=cache.stats if cache is not None else None,
        wall_s=time.monotonic() - started,
        exec_stats=stats,
        fleet_stats=fleet_stats,
    )


class _InnerBus:
    """Bus proxy for the inner pool-fallback ``run_grid`` call.

    Drops the inner grid's ``grid_started``/``grid_finished`` (the
    outer fleet grid already emitted the authoritative pair for the
    full spec list) and rewrites job indices from fallback-sublist
    positions back to outer grid positions, so every job event the
    consumer sees indexes one consistent grid.
    """

    def __init__(self, bus, index_map: list[int]) -> None:
        self._bus = bus
        self._map = index_map

    def emit(self, kind: str, **data):
        if kind in ("grid_started", "grid_finished"):
            return None
        index = data.get("index")
        if isinstance(index, int) and 0 <= index < len(self._map):
            data["index"] = self._map[index]
        return self._bus.emit(kind, **data)


class _BatchBus:
    """Bus proxy for the batch grid, where one job is one fleet batch.

    Turns the batch grid's job lifecycle into the outer grid's fleet
    events, indexed by batch (``chunk``) and member (``index``):

    * batch started → ``fleet_chunk_started`` and ``job_started`` per
      member;
    * batch finished → one ``fleet_tick_progress`` covering its whole
      run, ``job_finished`` per member, ``fleet_chunk_finished``;
    * batch failed or quarantined → ``fleet_chunk_finished`` with
      ``ok=False`` (the driver then emits the members' fallbacks).

    Worker incidents pass through, a ``worker_death`` naming the batch
    as ``chunk``.  The batch grid's own ``grid_started``/
    ``grid_finished`` pair is dropped, as in :class:`_InnerBus`.
    """

    def __init__(self, bus, batches: list[list]) -> None:
        self._bus = bus
        self._batches = batches

    def emit(self, kind: str, **data):
        bus = self._bus
        if kind in ("grid_started", "grid_finished"):
            return None
        if "index" not in data:
            return bus.emit(kind, **data)
        b = data.pop("index")
        chunk = self._batches[b]
        n = len(chunk)
        if kind == "job_started":
            bus.emit("fleet_chunk_started", chunk=b, members=n)
            for i, _sc, _sys in chunk:
                bus.emit("job_started", index=i, engine="fleet")
        elif kind == "job_finished":
            scenario = chunk[0][1]
            ticks = Clock(scenario.config.tick_ms).ticks_for_ms(
                scenario.duration_s * 1000.0
            )
            bus.emit("fleet_tick_progress", ticks=ticks, machines=n,
                     ticks_total=ticks)
            wall_s = data["elapsed_s"]
            for i, _sc, _sys in chunk:
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
