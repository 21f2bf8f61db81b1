"""Per-layer attribution for the traced run, recorded from outside.

:class:`Trace` wraps public functions of each layer (module attributes
and class methods looked up at call time) with span or counter
recorders, and undoes the wrapping on :meth:`Trace.uninstall`.  The
program's source is not touched.  The traced run is serial and
in-process, so one span stack describes it.

Two kinds of record:

* **spans** — ``[name, start, end, parent]`` around calls made a few
  times per job (parse, build, simulate, cache I/O, fleet batches).
  They stay in memory and are written out when the run ends.  A
  span's *self* time is its duration minus what its child spans cover.
* **timers and counters** — for decision code called up to millions of
  times per run (§4.4/§4.5 balancing, group averages), a span per call
  would cost more memory than the run itself, so these keep only a
  call count, a summed duration and an outcome count.

Tick phases come from the program's own ``PhaseTimers`` profiling mode,
switched on here for pool-path runs only: ``run_simulation`` is called
with a profiling-only observability config.  Observation does not
change results; the benchmark checks that the traced digest equals the
untraced one.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter

#: Calls the traced run does not time, and why.
LEFT_OUT = {
    "job identity": (
        "execute_spec is bound as run_grid's default argument, so a "
        "per-job span cannot be installed from outside; spans link to "
        "their callers by parent index instead of a shared job id"
    ),
    "pool dispatch and IPC": (
        "the traced run is serial, so pickling and worker hand-off do "
        "not happen in it; pool.* metrics read them from the GridReport "
        "of the untraced two-worker run"
    ),
    "fleet tick phases": (
        "FleetEngine's execute/thermal/housekeeping steps are private "
        "methods with no profiling mode; fleet.tick_s covers them as one"
    ),
    "fleet member build": (
        "runner.fleet_grid._build_member is private; its parse and build "
        "calls are still timed through parse_scenario and System"
    ),
    "tournament leaderboard": (
        "tournament.harness._leaderboard is private; its time stays in "
        "runner.self_s"
    ),
}

#: Tick phases reported from ``PhaseTimers`` (``validate`` never runs
#: here: the workloads install no validator).
TICK_PHASES = ("wake_fork", "dispatch", "execute", "thermal", "throttle",
               "housekeeping", "sample")


class Trace:
    """Spans, timers and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.outcomes: dict[str, int] = {}
        self.tick_totals: dict[str, float] = {}
        self.tick_count = 0
        self.put_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping -------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap_span(self, owner, attr: str, name, after=None) -> None:
        """Record a span around every call; ``name`` may be a callable
        returning the span name for this call."""
        trace = self

        def make(original):
            def wrapper(*args, **kwargs):
                index = trace.open(name() if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    trace.close(index)
                if after is not None:
                    after(result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def wrap_timer(self, owner, attr: str, name: str, outcome=None) -> None:
        """Count and time every call; ``outcome(result)`` adds to
        ``outcomes[name]``."""
        calls, seconds, outcomes = self.calls, self.seconds, self.outcomes
        calls[name] = 0
        seconds[name] = 0.0
        outcomes[name] = 0

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = original(*args, **kwargs)
                seconds[name] += perf_counter() - t0
                calls[name] += 1
                if outcome is not None:
                    outcomes[name] += outcome(result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        calls = self.calls
        calls[name] = 0

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    # -- the layers -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.analysis.export as export
        import repro.scenario as scenario
        import repro.sched.load_balance as load_balance
        import repro.tournament.harness as harness
        from repro.core.energy_balance import EnergyBalancer
        from repro.core.hot_migration import HotTaskMigrator
        from repro.core.metrics import MetricsBoard
        from repro.fleet import FleetEngine
        from repro.obs.observer import ObservabilityConfig
        from repro.runner import ResultCache
        from repro.scenarios import GeneratorSpec
        from repro.system import System

        self.wrap_span(GeneratorSpec, "instantiate", "scenarios.generate")
        self.wrap_span(scenario, "parse_scenario", "scenario.parse")
        self.wrap_span(System, "__init__", "system.build")
        self.wrap_span(ResultCache, "get", "cache.get")
        self.wrap_span(ResultCache, "put", "cache.put", after=self._count_put)
        self.wrap_span(FleetEngine, "__init__", "fleet.attach")
        self.wrap_span(FleetEngine, "run_for", "fleet.tick")
        self.wrap_span(FleetEngine, "results", "fleet.results")
        self.wrap_span(export, "run_summary", "analysis.run_summary")
        grids = iter(("tournament.grid", "tournament.oracle"))
        self.wrap_span(harness, "run_grid",
                       lambda: next(grids, "tournament.grid"))
        self.wrap_timer(EnergyBalancer, "balance", "core.balance",
                        outcome=int)
        self.wrap_timer(HotTaskMigrator, "check", "core.hot_check",
                        outcome=int)
        self.wrap_counter(MetricsBoard, "group_avg_runqueue_ratio",
                          "core.group_avg")
        self.wrap_counter(load_balance, "group_load", "sched.group_load")

        profiling = ObservabilityConfig(audit=False, metrics=False,
                                        profiling=True)
        trace = self

        def make(original):
            def run_simulation(config, workload, *args, **kwargs):
                options = kwargs.get("options")
                if options is not None:
                    if options.obs is None:
                        kwargs["options"] = dataclasses.replace(
                            options, obs=profiling)
                elif not kwargs.get("obs"):
                    kwargs["obs"] = profiling
                with trace.span("simulate"):
                    result = original(config, workload, *args, **kwargs)
                trace._add_phases(result.system.observer.profile)
                return result
            return run_simulation

        self._patch(scenario, "run_simulation", make)

    def _count_put(self, path) -> None:
        self.put_bytes += path.stat().st_size

    def _add_phases(self, profile) -> None:
        totals = self.tick_totals
        for phase, seconds in profile.totals.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
        self.tick_count += profile.ticks

    # -- results --------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def durations(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.spans
                   if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def layer_metrics(self) -> dict[str, float]:
        """The span- and counter-derived per-layer metrics."""
        own = self.self_times()
        calls, seconds, outcomes = self.calls, self.seconds, self.outcomes
        out = {
            "scenarios.generate_s": own.get("scenarios.generate", 0.0),
            "scenario.parse_s": own.get("scenario.parse", 0.0),
            "system.build_s": own.get("system.build", 0.0),
            "system.build_calls": self.count("system.build"),
            "cache.salt_s": own.get("cache.salt", 0.0),
            "cache.put_s": own.get("cache.put", 0.0),
            "cache.put_bytes": self.put_bytes,
            "cache.get_s": own.get("cache.get", 0.0),
            "fleet.attach_s": own.get("fleet.attach", 0.0),
            "fleet.tick_s": own.get("fleet.tick", 0.0),
            "fleet.results_s": own.get("fleet.results", 0.0),
            "core.balance_calls": calls["core.balance"],
            "core.balance_s": seconds["core.balance"],
            "core.balance_pulls": outcomes["core.balance"],
            "core.balance_pull_ratio": (
                outcomes["core.balance"] / calls["core.balance"]
                if calls["core.balance"] else 0.0
            ),
            "core.hot_check_calls": calls["core.hot_check"],
            "core.hot_check_s": seconds["core.hot_check"],
            "core.hot_migrations": outcomes["core.hot_check"],
            "core.group_avg_calls": calls["core.group_avg"],
            "sched.group_load_calls": calls["sched.group_load"],
            "analysis.summary_s": (own.get("analysis.run_summary", 0.0)
                                   + own.get("aggregate", 0.0)),
            "tournament.oracle_s": self.durations("tournament.oracle"),
            "runner.self_s": sum(own.get(name, 0.0) for name in (
                "grid", "tournament.grid", "tournament.oracle")),
            "tick.count": self.tick_count,
        }
        for phase in TICK_PHASES:
            out[f"tick.{phase}_s"] = self.tick_totals.get(phase, 0.0)
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "spans": self.spans,
            "calls": self.calls,
            "seconds": self.seconds,
            "outcomes": self.outcomes,
            "tick_totals": self.tick_totals,
            "tick_count": self.tick_count,
            "left_out": LEFT_OUT,
        }
