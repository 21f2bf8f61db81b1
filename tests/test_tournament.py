"""Tournament harness: deterministic payloads, coverage, scoring."""

import json

import pytest

from repro.tournament import (
    POLICY_LINEUP,
    SCHEMA,
    TOURNAMENT_SCENARIOS,
    format_policy_report,
    run_tournament,
    tournament_scenario_by_name,
    write_policies_json,
)
from repro.tournament.harness import cell_spec


class TestScenarioSet:
    def test_eight_pinned_scenarios(self):
        assert len(TOURNAMENT_SCENARIOS) == 8
        names = [s.name for s in TOURNAMENT_SCENARIOS]
        assert len(names) == len(set(names))

    def test_lookup_and_unknown(self):
        assert tournament_scenario_by_name("mixed-16cpu").scenario["seed"] == 42
        with pytest.raises(ValueError, match="mixed-16cpu"):
            tournament_scenario_by_name("nope")

    def test_scenarios_carry_no_policy_axis(self):
        for scenario in TOURNAMENT_SCENARIOS:
            assert "policy" not in scenario.scenario
            assert "duration_s" not in scenario.scenario

    def test_scenarios_build_the_pinned_perf_configurations(self):
        """Each tournament dict is its perf entry minus the policy axis.

        The one deliberate difference: the tournament races
        ``throttle-dvfs`` with ``hlt`` throttling (the throttle mode
        belongs to the policy axis), where the perf entry pins ``dvfs``.
        """
        import dataclasses

        from repro.perf.scenarios import REFERENCE_SCENARIOS
        from repro.scenario import parse_scenario

        reference = {s.name: s for s in REFERENCE_SCENARIOS}
        assert [s.name for s in TOURNAMENT_SCENARIOS] == list(reference)
        for scenario in TOURNAMENT_SCENARIOS:
            ref = reference[scenario.name]
            parsed = parse_scenario({
                **scenario.scenario,
                "policy": ref.policy,
                "duration_s": ref.duration_s,
            })
            config, workload = ref.build()
            assert parsed.workload == workload, scenario.name
            if scenario.name == "throttle-dvfs":
                assert parsed.config.throttle.mode == "hlt"
                assert config.throttle.mode == "dvfs"
                config = dataclasses.replace(
                    config,
                    throttle=dataclasses.replace(config.throttle, mode="hlt"),
                )
            assert parsed.config == config, scenario.name

    def test_lineup_covers_the_required_families(self):
        assert "energy" in POLICY_LINEUP
        assert "hlt-throttle" in POLICY_LINEUP
        dvfs = [p for p in POLICY_LINEUP if p.startswith("dvfs-")]
        assert len(dvfs) >= 3


class TestCellSpecs:
    def test_policy_canonicalized_into_scenario(self):
        scenario = tournament_scenario_by_name("mixed-16cpu")
        spec = cell_spec(scenario, "energy", 10.0)
        assert spec.scenario["policy"] == "energy"
        assert spec.duration_s == 10.0
        assert "options" not in spec.scenario

    def test_scalar_variant_differs_only_by_options(self):
        scenario = tournament_scenario_by_name("mixed-16cpu")
        fast = cell_spec(scenario, "energy", 10.0)
        scalar = cell_spec(scenario, "energy", 10.0, fast_path=False)
        assert scalar.scenario["options"] == {"fast_path": False}
        assert fast.content_hash() != scalar.content_hash()

    def test_cell_specs_hash_stably(self):
        scenario = tournament_scenario_by_name("throttle-dvfs")
        a = cell_spec(scenario, "dvfs-reactive", 10.0)
        b = cell_spec(scenario, "dvfs-reactive", 10.0)
        assert a.content_hash() == b.content_hash()


class TestTournamentRuns:
    @pytest.fixture(scope="class")
    def race(self):
        scenarios = [tournament_scenario_by_name("throttle-dvfs")]
        kwargs = dict(
            duration_s=4.0,
            scenarios=scenarios,
            policies=["energy", "dvfs-reactive"],
            check_oracle=True,
        )
        return run_tournament(**kwargs), kwargs

    def test_payload_shape(self, race):
        payload, _ = race
        assert payload["schema"] == SCHEMA
        assert payload["policies"] == ["energy", "dvfs-reactive"]
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            for key in ("energy_j", "jobs_per_min", "throttle_fraction",
                        "migrations", "average_frequency_scale",
                        "dvfs_scaled_fraction"):
                assert key in cell

    def test_oracle_passes(self, race):
        payload, _ = race
        assert payload["oracle"]["checked"]
        assert payload["oracle"]["identical"]
        assert payload["oracle"]["mismatches"] == []

    def test_leaderboard_ranked_and_complete(self, race):
        payload, _ = race
        board = payload["leaderboard"]
        assert [row["rank"] for row in board] == [1, 2]
        energies = [row["mean_energy_j"] for row in board]
        assert energies == sorted(energies)
        assert {row["policy"] for row in board} == {"energy", "dvfs-reactive"}
        assert sum(row["wins"] for row in board) >= 1

    def test_payload_byte_deterministic(self, race):
        payload, kwargs = race
        again = run_tournament(**kwargs)
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_report_and_writer(self, race, tmp_path):
        payload, _ = race
        text = format_policy_report(payload)
        assert "dvfs-reactive" in text
        assert "oracle" in text
        path = write_policies_json(payload, str(tmp_path / "bench.json"))
        written = json.loads(open(path).read())
        assert written["schema"] == SCHEMA

    def test_skip_oracle(self):
        payload = run_tournament(
            duration_s=2.0,
            scenarios=[tournament_scenario_by_name("mixed-16cpu")],
            policies=["baseline"],
            check_oracle=False,
        )
        assert payload["oracle"] == {"checked": False}


class TestCommittedPayload:
    def test_committed_bench_matches_schema_and_coverage(self):
        """The committed leaderboard must cover the acceptance matrix:
        every registered policy on every pinned scenario."""
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "BENCH_policies.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["policies"] == list(POLICY_LINEUP)
        assert ({s["name"] for s in payload["scenarios"]}
                == {s.name for s in TOURNAMENT_SCENARIOS})
        assert len(payload["cells"]) == (len(POLICY_LINEUP)
                                         * len(TOURNAMENT_SCENARIOS))
        assert payload["oracle"]["checked"]
        assert payload["oracle"]["identical"]
