"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so import time,
set-up and peak memory are measured from a cold interpreter each time.
It prints the aggregate the workload renders, then one JSON line with
its measurements, digests and counts.  Run from the checkout root with
``PYTHONPATH=src``::

    PYTHONPATH=src python3 perfbench/rep.py --workload churn-pool \\
        --seed 0 --engine pool --workers 2 --cache-dir .perfbench_work/c
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import resource
import sys
from contextlib import nullcontext
from time import perf_counter

import host
import workloads as wl


def _untraced(_name: str):
    return nullcontext()


def results_digest(scalars: list) -> str:
    """SHA-256 of the canonical JSON of per-job scalars, in spec order."""
    canonical = json.dumps(scalars, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any worker it started, in MiB.

    Pool workers are reaped first: ``RUSAGE_CHILDREN`` counts a child
    only once it has been waited for.
    """
    for child in multiprocessing.active_children():
        child.join(60)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _merged_scenario(spec) -> dict:
    """A scenario spec after the runner's override/duration/seed merge."""
    data = dict(spec.scenario)
    data.update(spec.overrides)
    if spec.duration_s is not None:
        data["duration_s"] = spec.duration_s
    if spec.seed is not None:
        data["seed"] = spec.seed
    return data


def fleet_placement(specs) -> dict:
    """Which jobs the fleet can take, judged from outside the runner.

    Builds every job's ``System`` and asks the public
    ``check_fleet_supported``; refusals are bucketed by reason.  The
    expected fleet member count applies the runner's published batch
    limits to the eligible groups.
    """
    from repro.fleet import FleetUnsupported, check_fleet_supported
    from repro.runner.fleet_grid import DEFAULT_FLEET_SIZE, MIN_FLEET_BATCH
    from repro.scenario import parse_scenario
    from repro.system import System

    reasons: dict[str, int] = {}
    groups: dict[str, int] = {}
    for spec in specs:
        scenario = parse_scenario(_merged_scenario(spec))
        system = System(scenario.config, scenario.workload,
                        policy=scenario.policy)
        try:
            check_fleet_supported(system)
        except FleetUnsupported as exc:
            for reason in str(exc).partition(": ")[2].split("; "):
                reasons[reason] = reasons.get(reason, 0) + 1
            continue
        key = repr((scenario.config.machine, scenario.config.tick_ms,
                    float(scenario.duration_s)))
        groups[key] = groups.get(key, 0) + 1
    expected = 0
    for size in groups.values():
        remainder = size % DEFAULT_FLEET_SIZE
        expected += size - (remainder if remainder < MIN_FLEET_BATCH else 0)
    eligible = sum(groups.values())
    return {
        "eligible": eligible,
        "ineligible": len(specs) - eligible,
        "reasons": reasons,
        "expected_members": expected,
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _report_counts(reports, workers: int, cache) -> dict:
    """Runner, supervisor and fleet numbers from the public GridReports."""
    outcomes = [o for report in reports for o in report.outcomes]
    executed = [o.elapsed_s for o in outcomes if o.ok and not o.cached]
    wall = sum(report.wall_s for report in reports)
    fleet = {"machine_ticks": 0, "batches": 0, "members": 0, "flushes": 0,
             "resyncs": 0, "housekeeping_fires": 0}
    for report in reports:
        if report.fleet_stats is not None:
            for key, value in report.fleet_stats.as_dict().items():
                fleet[key] += value
    busy = sum(executed)
    return {
        "pool.busy_fraction": busy / (wall * workers) if wall else 0.0,
        "pool.overhead_s": wall - busy / workers,
        "pool.job_s_p50": _percentile(executed, 0.5),
        "pool.job_s_p90": _percentile(executed, 0.9),
        "pool.job_count": len(executed) - fleet["members"],
        "pool.retries": sum(r.exec_stats.retries for r in reports
                            if r.exec_stats is not None),
        "pool.worker_crashes": sum(r.exec_stats.worker_crashes
                                   for r in reports
                                   if r.exec_stats is not None),
        "fleet.members": fleet["members"],
        "fleet.fallback_jobs": len(outcomes) - fleet["members"],
        "fleet.batches": fleet["batches"],
        "fleet.machine_ticks": fleet["machine_ticks"],
        "fleet.flushes": fleet["flushes"],
        "fleet.resyncs": fleet["resyncs"],
        "fleet.housekeeping_fires": fleet["housekeeping_fires"],
        "cache.misses": cache.stats.misses,
        "cache.stores": cache.stats.stores,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--engine", choices=("pool", "fleet"),
                        required=True)
    parser.add_argument("--workers", type=int, default=wl.WORKERS)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None,
                        help="run traced; write the spans to this file")
    parser.add_argument("--place", action="store_true",
                        help="also account fleet placement from outside")
    args = parser.parse_args(argv)

    trace = None
    span = _untraced
    if args.trace_out:
        from tracing import Trace

        trace = Trace()
        span = trace.span

    # -- set-up: import repro, the cache salt, spec expansion -------------
    t0 = perf_counter()
    from repro.analysis.report import format_scalar_summaries
    from repro.analysis.stats import summarize_scalars
    from repro.runner import ResultCache, code_salt, expand_grid

    if trace is not None:
        trace.install()
    with span("cache.salt"):
        salt = code_salt()
    if args.workload == "tournament":
        import repro.tournament.harness as harness
        from repro.tournament import (
            TOURNAMENT_SCENARIOS,
            TournamentScenario,
            format_policy_report,
            run_tournament,
        )

        offset = wl.tournament_offset(args.seed)
        scenarios = [
            TournamentScenario(
                s.name, s.description,
                wl.shifted_tournament_scenario(s.scenario, offset),
            )
            for s in TOURNAMENT_SCENARIOS
        ]
        specs = None
    else:
        from repro.runner import run_grid, run_grid_fleet

        entries = expand_grid(wl.churn_grid(args.seed))
        specs = [spec for entry in entries for spec in entry.specs]
    setup_s = perf_counter() - t0

    round_before = host.calibration_s(rounds=3)
    # -- the timed region: grid call to printed aggregate -----------------
    cache = ResultCache(root=args.cache_dir, salt=salt)
    reports = []
    error = None
    oracle = None
    start = perf_counter()
    if args.workload == "tournament":
        # run_tournament returns only its payload; keep the GridReports
        # of its two grid calls for the runner and supervisor numbers.
        inner_run_grid = harness.run_grid

        def run_grid_kept(*a, **kw):
            report = inner_run_grid(*a, **kw)
            reports.append(report)
            return report

        harness.run_grid = run_grid_kept
        try:
            with span("grid"):
                payload = run_tournament(
                    duration_s=wl.TOURNAMENT_DURATION_S, scenarios=scenarios,
                    workers=args.workers, cache=cache,
                )
        except RuntimeError as exc:
            error = str(exc)
        else:
            with span("aggregate"):
                print(format_policy_report(payload), flush=True)
            oracle = payload["oracle"]
        finally:
            harness.run_grid = inner_run_grid
    else:
        runner = run_grid_fleet if args.engine == "fleet" else run_grid
        with span("grid"):
            reports.append(runner(specs, workers=args.workers, cache=cache))
        with span("aggregate"):
            blocks = []
            cursor = 0
            for entry in entries:
                end = cursor + len(entry.specs)
                outcomes = reports[0].outcomes[cursor:end]
                cursor = end
                samples = [o.result["scalars"] for o in outcomes if o.ok]
                if not samples:
                    blocks.append(f"{entry.label}: all jobs failed")
                    continue
                blocks.append(format_scalar_summaries(
                    summarize_scalars(samples),
                    title=f"{entry.label}: {len(samples)} jobs, "
                          "mean ± 95% CI",
                ))
            print("\n\n".join(blocks), flush=True)
    wall_s = perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    round_s = (round_before + host.calibration_s(rounds=3)) / 2

    outcomes = [o for report in reports for o in report.outcomes]
    completed = sum(1 for o in outcomes if o.ok)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "engine": args.engine,
        "workers": args.workers,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "round_s": round_s,
        "jobs": len(outcomes),
        "completed": completed,
        "failed": len(outcomes) - completed,
        "cached": sum(1 for o in outcomes if o.cached),
        "jobs_per_s": completed / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": results_digest([
            o.result["scalars"] if o.ok else None for o in outcomes
        ]),
        "error": error,
        "oracle": oracle,
        "layers": _report_counts(reports, args.workers, cache),
    }
    if trace is not None:
        trace.uninstall()
        result["layers"].update(trace.layer_metrics())
        with open(args.trace_out, "w") as handle:
            json.dump(trace.dump(), handle)
    if args.place and specs is not None:
        result["placement"] = fleet_placement(specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
