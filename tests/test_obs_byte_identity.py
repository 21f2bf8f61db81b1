"""Telemetry must be bit-identity-neutral: ISSUE 9's acceptance bar.

The same sweep with ``--serve-metrics``/``--events`` on and off must
produce byte-identical deterministic outputs — stdout, cache entries,
journal records — on the pool AND fleet engines, and a checkpointed
simulation must yield the same summary with and without a bus.  The
event stream itself carries wall clocks and is deliberately excluded
from the contract.
"""

import json
import pathlib

from repro.cli import main


def _scenario_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({
        "name": "identity-probe",
        "machine": {"preset": "cmp", "packages": 1, "cores": 2,
                    "smt": False},
        "workload": {"builder": "steady_mix", "copies": 1},
        "policy": "energy",
        "duration_s": 0.3,
        "counter_jitter_sigma": 0.0,
        "power": {"noise_sigma": 0.0},
    }))
    return path


def _cache_entries(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*.json"))
    }


def _journal_records(path: pathlib.Path) -> list[dict]:
    """Journal records with the wall-clock field dropped.

    ``elapsed_s`` measures host time and differs between any two runs;
    everything else in the journal is part of the deterministic
    contract.
    """
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("elapsed_s", None)
        records.append(record)
    return records


def _run_sweep(tmp_path, capsys, engine, tag, telemetry):
    scenario = _scenario_file(tmp_path)
    cache_dir = tmp_path / f"cache-{tag}"
    journal = tmp_path / f"journal-{tag}.jsonl"
    argv = [
        "sweep", "--scenario", str(scenario), "--seeds", "1..3",
        "--engine", engine, "--cache-dir", str(cache_dir),
        "--journal", str(journal),
    ]
    if telemetry:
        argv += ["--serve-metrics", "0",
                 "--events", str(tmp_path / f"events-{tag}.jsonl")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out, _cache_entries(cache_dir), _journal_records(journal)


class TestSweepByteIdentity:
    def test_pool_engine(self, tmp_path, capsys):
        plain = _run_sweep(tmp_path, capsys, "pool", "off", telemetry=False)
        live = _run_sweep(tmp_path, capsys, "pool", "on", telemetry=True)
        assert live[0] == plain[0]  # stdout bytes
        assert live[1] == plain[1]  # cache entry bytes
        assert live[2] == plain[2]  # journal records (sans wall clock)

    def test_fleet_engine(self, tmp_path, capsys):
        plain = _run_sweep(tmp_path, capsys, "fleet", "off", telemetry=False)
        live = _run_sweep(tmp_path, capsys, "fleet", "on", telemetry=True)
        assert live[0] == plain[0]
        assert live[1] == plain[1]
        assert live[2] == plain[2]

    def test_fleet_and_pool_agree_with_telemetry_on(self, tmp_path, capsys):
        """Cross-engine equivalence survives the telemetry layer too."""
        pool = _run_sweep(tmp_path, capsys, "pool", "xp", telemetry=True)
        fleet = _run_sweep(tmp_path, capsys, "fleet", "xf", telemetry=True)
        assert fleet[0] == pool[0]
        assert fleet[1] == pool[1]

    def test_telemetry_emitted_something(self, tmp_path, capsys):
        """The identity runs above would pass vacuously if telemetry
        never fired; pin that the fleet run actually streams events."""
        from repro.obs import count_by_kind, read_events

        _run_sweep(tmp_path, capsys, "fleet", "probe", telemetry=True)
        counts = count_by_kind(
            read_events(tmp_path / "events-probe.jsonl"))
        assert counts.get("job_finished", 0) == 3
        assert counts.get("fleet_tick_progress", 0) >= 1


class TestCheckpointBusNeutral:
    def test_checkpointed_run_identical_with_bus(self, tmp_path):
        from repro.obs.events import EventBus, RingBufferSink
        from repro.resilience import run_simulation_checkpointed
        from repro.scenario import parse_scenario

        scenario = parse_scenario({
            "name": "cp-probe",
            "machine": {"preset": "cmp", "packages": 1, "cores": 2,
                        "smt": False},
            "workload": {"builder": "steady_mix", "copies": 1},
            "policy": "energy",
            "duration_s": 0.4,
        })

        def run(bus, tag):
            return run_simulation_checkpointed(
                scenario.config, scenario.workload,
                checkpoint_path=tmp_path / f"cp-{tag}",
                policy=scenario.policy, duration_s=0.4,
                checkpoint_every_s=0.1, bus=bus,
            )

        plain = run(None, "off")
        bus = EventBus()
        ring = RingBufferSink(64)
        bus.subscribe(ring)
        live = run(bus, "on")
        assert live.scalar_summary() == plain.scalar_summary()
        written = [e for e in ring.events()
                   if e.kind == "checkpoint_written"]
        assert len(written) == 4
