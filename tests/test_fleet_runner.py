"""run_grid_fleet: batching, fallback, cache, ordering, CLI wiring.

The contract under test: ``run_grid_fleet`` is a drop-in for
``run_grid`` — same outcome order, same result dicts byte for byte,
same cache keys — it just routes fleet-eligible scenario groups through
one vectorized engine and everything else through the pool.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    JobSpec,
    ResultCache,
    execute_spec,
    run_grid,
    run_grid_fleet,
)
from repro.runner.fleet_grid import MIN_FLEET_BATCH, _build_member

DURATION_S = 3.0

FLEET_SCENARIO_JSON = {
    "name": "fleet-ok",
    "machine": {"preset": "cmp", "packages": 2, "cores": 2, "smt": False},
    "max_power_per_cpu_w": 60.0,
    "timeslice_ms": 2000,
    "balance_interval_ms": 4800,
    "idle_balance_interval_ms": 50,
    "hot_check_interval_ms": 2000,
    "sample_interval_s": 5.0,
    "counter_jitter_sigma": 0.0,
    "power": {"noise_sigma": 0.0},
    "workload": {"builder": "steady_mix", "copies": 2},
    "policy": "energy",
    "duration_s": DURATION_S,
}


def _fleet_spec(seed: int, **scenario_overrides) -> JobSpec:
    data = dict(FLEET_SCENARIO_JSON)
    data.update(scenario_overrides)
    return JobSpec(scenario=data, seed=seed)


def _noisy_spec(seed: int) -> JobSpec:
    return _fleet_spec(seed, name="noisy", power={"noise_sigma": 0.015})


def _encode(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


class TestPartitioning:
    def test_eligible_member_builds(self):
        scenario, system, reason = _build_member(_fleet_spec(1))
        assert reason is None and system is not None
        assert scenario.duration_s == DURATION_S

    def test_experiment_spec_goes_to_pool(self):
        spec = JobSpec(experiment="fig9", seed=1, duration_s=2.0)
        _scenario, _system, reason = _build_member(spec)
        assert "pool" in reason

    def test_noisy_scenario_goes_to_pool(self):
        _scenario, _system, reason = _build_member(_noisy_spec(1))
        assert "noise_sigma" in reason

    def test_broken_scenario_reports_build_failure(self):
        spec = JobSpec(scenario={"workload": {"builder": "no-such"}}, seed=1)
        _scenario, _system, reason = _build_member(spec)
        assert "build failed" in reason


class TestRunGridFleet:
    def test_matches_execute_spec_byte_for_byte(self):
        specs = [_fleet_spec(seed) for seed in (1, 2, 3)]
        report = run_grid_fleet(specs)
        assert all(o.ok for o in report.outcomes)
        for outcome, spec in zip(report.outcomes, specs):
            assert _encode(outcome.result) == _encode(execute_spec(spec))

    def test_mixed_specs_preserve_input_order(self):
        specs = [
            _fleet_spec(1),
            _noisy_spec(7),
            _fleet_spec(2),
            JobSpec(experiment="fig9", seed=3, duration_s=2.0),
            _fleet_spec(3),
        ]
        report = run_grid_fleet(specs)
        assert [o.spec for o in report.outcomes] == specs
        assert all(o.ok for o in report.outcomes), [
            o.error for o in report.outcomes if not o.ok
        ]
        # the noisy job really ran (noise changes the summary)
        clean = report.outcomes[0].result["summary"]
        noisy = report.outcomes[1].result["summary"]
        assert clean != noisy

    def test_singleton_group_falls_back_to_pool(self):
        assert MIN_FLEET_BATCH == 2
        specs = [_fleet_spec(1)]
        report = run_grid_fleet(specs)
        assert report.outcomes[0].ok
        assert _encode(report.outcomes[0].result) == _encode(
            execute_spec(specs[0])
        )

    def test_fleet_and_pool_agree_end_to_end(self):
        specs = [_fleet_spec(seed) for seed in (4, 5)]
        fleet_report = run_grid_fleet(specs)
        pool_report = run_grid(specs)
        for a, b in zip(fleet_report.outcomes, pool_report.outcomes):
            assert _encode(a.result) == _encode(b.result)

    def test_cache_round_trip_across_engines(self, tmp_path):
        """A pool-written cache entry is a fleet cache hit, and vice
        versa — the spec hash does not depend on the engine."""
        specs = [_fleet_spec(seed) for seed in (1, 2)]
        cache = ResultCache(tmp_path / "cache")
        first = run_grid_fleet(specs, cache=cache)
        assert first.cache_stats.misses == 2
        cache2 = ResultCache(tmp_path / "cache")
        second = run_grid(specs, cache=cache2)
        assert second.cache_stats.hits == 2
        for a, b in zip(first.outcomes, second.outcomes):
            assert _encode(a.result) == _encode(b.result)

    def test_fleet_size_splits_groups(self):
        specs = [_fleet_spec(seed) for seed in (1, 2, 3, 4, 5)]
        report = run_grid_fleet(specs, fleet_size=2)
        assert all(o.ok for o in report.outcomes)
        for outcome, spec in zip(report.outcomes, specs):
            assert _encode(outcome.result) == _encode(execute_spec(spec))

    def test_fallback_reasons_counted_and_emitted(self):
        from repro.obs.events import EventBus, RingBufferSink

        specs = [
            _fleet_spec(1),
            _noisy_spec(7),
            _fleet_spec(2),
            JobSpec(experiment="fig9", seed=3, duration_s=2.0),
            _fleet_spec(3, tick_ms=5),  # alone on its machine key
        ]
        bus = EventBus()
        ring = RingBufferSink(256)
        bus.subscribe(ring)
        report = run_grid_fleet(specs, bus=bus)
        assert all(o.ok for o in report.outcomes)
        events = {
            e.data["index"]: e.data["reason"]
            for e in ring.events() if e.kind == "fleet_fallback"
        }
        assert sorted(events) == [1, 3, 4]
        assert "noise_sigma" in events[1]
        assert "pool" in events[3]
        assert f"fewer than {MIN_FLEET_BATCH}" in events[4]
        stats = report.fleet_stats
        assert stats.members == 2
        assert sum(stats.fallback_reasons.values()) == 3
        assert set(stats.fallback_reasons) == set(events.values())
        line = stats.describe()
        assert line.startswith("2 jobs in 1 fleet batch, 3 fell back")
        assert "1x experiment specs always run on the pool" in line

    def test_all_fleet_sweep_reports_no_fallback(self):
        report = run_grid_fleet([_fleet_spec(seed) for seed in (1, 2)])
        assert report.fleet_stats.fallback_reasons == {}
        assert report.fleet_stats.describe().endswith("no pool fallback")

    def test_bad_fleet_size_rejected(self):
        with pytest.raises(ValueError):
            run_grid_fleet([_fleet_spec(1)], fleet_size=0)


class TestCliWiring:
    def test_engine_flag_default_pool(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "fig9"])
        assert args.engine == "pool"

    def test_engine_flag_fleet(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--engine", "fleet", "--scenario", "s.json"]
        )
        assert args.engine == "fleet"
        assert args.scenario == "s.json"

    def test_sweep_scenario_cli_matches_pool(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scn.json"
        path.write_text(json.dumps(FLEET_SCENARIO_JSON))
        outputs = []
        for engine in ("fleet", "pool"):
            code = main([
                "sweep", "--scenario", str(path), "--seeds", "1..3",
                "--engine", engine, "--no-cache", "--json",
            ])
            assert code == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            if engine == "fleet":
                assert ("fleet: 3 jobs in 1 fleet batch, no pool fallback"
                        in captured.err)
            else:
                assert "fleet:" not in captured.err
        assert outputs[0] == outputs[1]

    def test_sweep_rejects_scenario_plus_experiment(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "fig9", "--scenario", "x.json"])
