"""Fleet-backed sweep execution: batch homogeneous jobs per tick.

:func:`run_grid_fleet` is ``run_grid`` with a vectorized front end.
Scenario specs whose parsed systems are fleet-eligible (see
:func:`repro.fleet.check_fleet_supported`) are grouped by machine
topology, tick length, and duration, packed into
:class:`~repro.fleet.FleetEngine` batches of up to ``fleet_size``
members, and advanced N machines per tick.  Everything else — registry
experiments, ineligible scenarios, ragged remainders that are not worth
a batch — falls back to one inner :func:`~repro.runner.executor
.run_grid` call on the supervised process pool.

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
    members per :class:`FleetEngine` batch.  ``bus`` (an optional
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
    from repro.fleet import FleetEngine, FleetStats

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

    batches: list[list[tuple[int, object, object]]] = []
    for key in sorted(groups, key=lambda k: str(k)):
        group = groups[key]
        for start in range(0, len(group), fleet_size):
            chunk = group[start:start + fleet_size]
            if len(chunk) >= MIN_FLEET_BATCH:
                batches.append(chunk)
            else:
                for i, _sc, _sys in chunk:
                    fall_back(
                        i, f"fewer than {MIN_FLEET_BATCH} jobs share its machine"
                    )

    # -- run the fleet batches ----------------------------------------------
    interrupted = False
    for batch_no, chunk in enumerate(batches):
        if stop_event is not None and stop_event.is_set():
            interrupted = True
            break
        indices = [i for i, _sc, _sys in chunk]
        batch_start = time.monotonic()
        if journal is not None:
            for i in indices:
                journal.record_start(i, specs[i])
        if bus is not None:
            bus.emit("fleet_chunk_started", chunk=batch_no,
                     members=len(chunk))
            for i in indices:
                bus.emit("job_started", index=i, engine="fleet")
        try:
            engine = FleetEngine([system for _i, _sc, system in chunk])
            engine.event_bus = bus
            duration_s = chunk[0][1].duration_s
            engine.run_for(duration_s)
            results = engine.results(duration_s)
        except Exception as exc:
            # A batch failure says nothing about which member is at
            # fault; rerun them all through the pool's blame machinery.
            error = f"{type(exc).__name__}: {exc}"
            if bus is not None:
                bus.emit("fleet_chunk_finished", chunk=batch_no,
                         members=len(chunk), ok=False, error=error)
            for i in indices:
                fall_back(i, f"fleet batch failed ({error})")
            continue
        fleet_stats.merge(engine.stats)
        elapsed = time.monotonic() - batch_start
        per_job = elapsed / len(chunk)
        for (i, scenario, _system), result in zip(chunk, results):
            outcomes[i] = JobOutcome(
                spec=specs[i],
                result=_fleet_result(scenario, result),
                attempts=1,
                elapsed_s=per_job,
            )
            if journal is not None:
                journal.record_outcome(i, outcomes[i])
            if bus is not None:
                bus.emit("job_finished", index=i, attempts=1,
                         elapsed_s=per_job, engine="fleet")
            if cache is not None:
                cache.put(specs[i], outcomes[i].result)
        if bus is not None:
            bus.emit("fleet_chunk_finished", chunk=batch_no,
                     members=len(chunk), ok=True, wall_s=elapsed)

    # -- pool fallback for everything else ----------------------------------
    fallback.sort()
    stats = ExecutorStats()
    stats.interrupted = interrupted
    if fallback and not interrupted:
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
        if inner.exec_stats is not None:
            stats.retries = inner.exec_stats.retries
            stats.worker_crashes = inner.exec_stats.worker_crashes
            stats.pool_rebuilds = inner.exec_stats.pool_rebuilds
            stats.timeouts = inner.exec_stats.timeouts
            stats.quarantined = inner.exec_stats.quarantined
            stats.interrupted = stats.interrupted or inner.exec_stats.interrupted

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
