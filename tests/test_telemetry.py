"""Tests for the telemetry subsystem and the bench regression gate.

The load-bearing contracts:

* probes are read-only — a telemetry-enabled run keeps the exact same
  ``stats_fingerprint`` as a disabled one (differential);
* exports are deterministic — serial, parallel and cache-warm runs of
  one sweep produce byte-identical JSONL artifacts;
* the disabled path is (near) free — the harness carries ``None`` and
  ``NullTelemetry`` records nothing;
* ``compare_bench`` fails on checksum drift, throughput collapse and
  dense/active checksum divergence, and only on those.
"""

import json

import pytest

from repro.harness.bench import (
    compare_bench,
    format_bench,
    load_bench,
    run_scenario,
    scheduler_violations,
    write_bench,
)
from repro.harness.experiment import (
    ExperimentConfig,
    config_digest,
    run_experiment,
    run_suite,
)
from repro.telemetry import (
    DEFAULT_INTERVAL,
    NULL_TELEMETRY,
    NullTelemetry,
    SeriesSampler,
    TelemetryRegistry,
    aggregate_sweep,
    dumps_record,
    experiment_filename,
    interval_from_env,
    read_jsonl,
    resolve_interval,
    summarize_record,
    sweep_filename,
    sweep_records,
    write_json,
    write_jsonl,
)

CFG = ExperimentConfig(quota=8, mcts_iterations=10)
CFG_TEL = ExperimentConfig(quota=8, mcts_iterations=10, telemetry=25)


class TestIntervals:
    def test_resolve_interval_convention(self):
        assert resolve_interval(0) == 0
        assert resolve_interval(-3) == 0
        assert resolve_interval(1) == DEFAULT_INTERVAL
        assert resolve_interval(64) == 64

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert interval_from_env() == 0
        monkeypatch.setenv("REPRO_TELEMETRY", "64")
        assert interval_from_env() == 64
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert interval_from_env() == DEFAULT_INTERVAL
        monkeypatch.setenv("REPRO_TELEMETRY", "garbage")
        assert interval_from_env() == 0

    def test_registry_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetryRegistry(interval=0)


class TestRegistry:
    def test_series_windowing_evicts_oldest(self):
        sampler = SeriesSampler("x", lambda: 1.0, window=3)
        for cycle in (10, 20, 30, 40):
            sampler.sample(cycle)
        assert sampler.export()["cycles"] == [20, 30, 40]

    def test_series_samples_callable(self):
        state = {"v": 0}
        reg = TelemetryRegistry(interval=10)
        reg.register_series("v", lambda: state["v"])
        state["v"] = 5
        reg.sample(10)
        state["v"] = 7
        reg.sample(20)
        out = reg.export()["series"]["v"]
        assert out == {"cycles": [10, 20], "values": [5, 7]}

    def test_same_cycle_sample_deduplicated(self):
        reg = TelemetryRegistry(interval=10)
        reg.register_series("one", lambda: 1)
        reg.sample(10)
        reg.sample(10)
        assert reg.samples == 1
        assert reg.export()["series"]["one"]["cycles"] == [10]

    def test_residency_counts_membership(self):
        members = [0, 2]
        reg = TelemetryRegistry(interval=10)
        reg.register_residency("r", 4, lambda: members)
        reg.sample(10)
        members = [2]
        reg.sample(20)
        out = reg.export()["residency"]["r"]
        assert out == {"samples": 2, "counts": [1, 0, 2, 0]}

    def test_finals_evaluated_at_export(self):
        state = {"v": 0}
        reg = TelemetryRegistry(interval=10)
        reg.register_final("total", lambda: state["v"])
        state["v"] = 42
        assert reg.export()["counters"]["total"] == 42

    def test_null_telemetry_records_nothing(self):
        null = NullTelemetry()
        assert not null.enabled
        assert null.register_series("x", lambda: 1) is None
        null.sample(10)
        assert not null.due(10)
        assert null.export()["samples"] == 0
        assert NULL_TELEMETRY.export()["series"] == {}


class TestExperimentIntegration:
    def test_telemetry_off_by_default(self):
        result = run_experiment("SingleBase", "hotspot", CFG)
        assert result.telemetry is None

    def test_fingerprint_identical_with_telemetry(self):
        off = run_experiment("SingleBase", "hotspot", CFG)
        on = run_experiment("SingleBase", "hotspot", CFG_TEL)
        assert on.stats_fingerprint == off.stats_fingerprint
        assert on.cycles == off.cycles
        assert on.instructions == off.instructions
        assert on.telemetry is not None

    def test_record_shape_and_keying(self):
        result = run_experiment("SingleBase", "hotspot", CFG_TEL)
        record = result.telemetry
        assert record["schema"] == 1
        assert record["kind"] == "experiment"
        assert record["scheme"] == "SingleBase"
        assert record["benchmark"] == "hotspot"
        assert record["config_digest"] == config_digest(CFG_TEL)
        assert record["stats_fingerprint"] == result.stats_fingerprint
        assert record["interval"] == 25
        assert record["samples"] > 0
        assert record["counters"]["system.cycles"] == result.cycles
        # every network contributes series + residency probes
        assert any(k.endswith(".in_flight") for k in record["series"])
        assert any(
            k.endswith(".router_active") for k in record["residency"]
        )

    def test_env_var_enables_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "50")
        result = run_experiment("SingleBase", "hotspot", CFG)
        assert result.telemetry is not None
        assert result.telemetry["interval"] == 50

    def test_equinox_exports_per_eir_counters(self):
        result = run_experiment(
            "EquiNox", "hotspot",
            ExperimentConfig(quota=8, mcts_iterations=10, telemetry=25),
        )
        counters = result.telemetry["counters"]
        eir = [k for k in counters
               if k.startswith("eir.") and k.endswith(".flits_sent")]
        assert eir, "EquiNox run exported no per-EIR flit counters"
        assert sum(counters[k] for k in eir) > 0


class TestExportDeterminism:
    def _sweep(self, jobs):
        results = run_suite(
            ["SingleBase", "SeparateBase"], ["hotspot"], CFG_TEL,
            jobs=jobs,
        )
        records = [
            results[key].telemetry for key in sorted(results)
        ]
        return [dumps_record(r) for r in records]

    def test_serial_parallel_cachewarm_byte_identical(self):
        serial = self._sweep(jobs=1)
        parallel = self._sweep(jobs=2)
        warm = self._sweep(jobs=1)  # design cache now warm on disk
        assert serial == parallel == warm

    def test_jsonl_round_trip(self, tmp_path):
        records = [
            {"schema": 1, "kind": "experiment", "value": 0.1},
            {"schema": 1, "kind": "experiment", "value": 3},
        ]
        path = write_jsonl(tmp_path / "t.jsonl", records)
        assert read_jsonl(path) == records
        # canonical form: sorted keys, compact, one line per record
        first = path.read_text().splitlines()[0]
        assert first == dumps_record(records[0])
        assert json.loads(first) == records[0]

    def test_write_json_round_trip(self, tmp_path):
        record = {"b": 2, "a": [1.5, 2.5]}
        path = write_json(tmp_path / "sub" / "r.json", record)
        assert json.loads(path.read_text()) == record

    def test_filenames_carry_digest(self):
        assert experiment_filename("EquiNox", "kmeans", "abc") == (
            "run-EquiNox-kmeans-abc.json"
        )
        assert sweep_filename("abc") == "sweep-abc.jsonl"

    def test_config_digest_sensitive_to_knobs(self):
        assert config_digest(CFG) != config_digest(CFG_TEL)
        assert config_digest(CFG) == config_digest(
            ExperimentConfig(quota=8, mcts_iterations=10)
        )


class TestAggregation:
    def test_summarize_and_aggregate(self):
        result = run_experiment("SingleBase", "hotspot", CFG_TEL)
        row = summarize_record(result.telemetry)
        assert row["scheme"] == "SingleBase"
        assert row["flits_injected"] > 0
        assert row["packets_delivered"] > 0
        summary = aggregate_sweep([result.telemetry], "digest")
        assert summary["kind"] == "sweep_summary"
        assert summary["cells"] == [row]
        assert summary["total_flits_injected"] == row["flits_injected"]

    def test_sweep_records_layout(self):
        cell = {"schema": 1, "kind": "experiment", "counters": {},
                "samples": 0}
        lines = sweep_records([cell], "9.9.9", "d1")
        assert lines[0]["kind"] == "sweep"
        assert lines[0]["version"] == "9.9.9"
        assert lines[0]["cells"] == 1
        assert lines[1] is cell
        assert lines[-1]["kind"] == "sweep_summary"

    def test_sweep_report_telemetry_accessors(self):
        from repro.harness.runner import expand_grid, run_sweep

        report = run_sweep(
            expand_grid(["SingleBase"], ["hotspot"], CFG_TEL), jobs=1
        )
        records = report.telemetry_records()
        assert len(records) == 1
        summary = report.telemetry_summary("d2")
        assert summary["config_digest"] == "d2"
        assert len(summary["cells"]) == 1


def _bench_payload(rate, checksum="aaa", schema=None):
    from repro.harness.bench import BENCH_SCHEMA

    return {
        "schema": BENCH_SCHEMA if schema is None else schema,
        "scenarios": {
            "synthetic": {
                "cycles": 4000,
                "seconds": 4000 / rate,
                "cycles_per_s": rate,
                "checksum": checksum,
                "received": 10,
            },
        },
    }


class TestBenchGate:
    def test_passes_within_tolerance(self):
        base = _bench_payload(1000.0)
        assert compare_bench(_bench_payload(900.0), base, 0.25) == []
        # speedups never fail
        assert compare_bench(_bench_payload(5000.0), base, 0.25) == []

    def test_fails_on_slowdown_past_tolerance(self):
        base = _bench_payload(1000.0)
        violations = compare_bench(_bench_payload(700.0), base, 0.25)
        assert len(violations) == 1
        assert "cycles/s" in violations[0]

    def test_fails_on_checksum_change_regardless_of_speed(self):
        base = _bench_payload(1000.0)
        fast_but_wrong = _bench_payload(5000.0, checksum="bbb")
        violations = compare_bench(fast_but_wrong, base, 0.25)
        assert len(violations) == 1
        assert "checksum" in violations[0]

    def test_calibration_scales_expected_throughput(self):
        # baseline machine: cal 1.0s; current machine 2x slower (cal
        # 2.0s) -> expected throughput halves, so 0.6x absolute passes
        base = dict(_bench_payload(1000.0), calibration_s=1.0)
        slow_box = dict(_bench_payload(600.0), calibration_s=2.0)
        assert compare_bench(slow_box, base, 0.25) == []
        # a real regression on the slow box still fails: expected 500,
        # floor 375, measured 300
        regressed = dict(_bench_payload(300.0), calibration_s=2.0)
        violations = compare_bench(regressed, base, 0.25)
        assert len(violations) == 1
        assert "speed-adjusted" in violations[0]
        # records without calibration fall back to absolute comparison
        assert compare_bench(_bench_payload(600.0), base, 0.25) != []

    def test_fails_on_missing_scenario(self):
        base = _bench_payload(1000.0)
        current = {"schema": 1, "scenarios": {}}
        violations = compare_bench(current, base, 0.25)
        assert violations == ["synthetic: missing from current run"]

    def test_empty_baseline_never_passes_vacuously(self):
        # An empty or malformed baseline compares zero scenarios, which
        # used to return no violations at all — the gate passed while
        # gating nothing.
        from repro.harness.bench import BENCH_SCHEMA

        current = _bench_payload(1000.0)
        for bad in (
            {"schema": BENCH_SCHEMA},                         # no key
            dict(_bench_payload(1000.0), scenarios={}),       # empty
            dict(_bench_payload(1000.0), scenarios="oops"),   # wrong type
        ):
            violations = compare_bench(current, bad, 0.25)
            assert any("vacuously" in v for v in violations), bad

    def test_fails_on_baseline_schema_mismatch(self):
        current = _bench_payload(1000.0)
        stale = _bench_payload(1000.0, schema=1)
        violations = compare_bench(current, stale, 0.25)
        assert any("schema" in v for v in violations)
        # the scenario rows are still compared (no silent skip)
        assert not any("missing" in v for v in violations)

    def test_uncalibrated_comparison_is_explicit(self):
        # calibration_s missing (or zero) on either side: the gate
        # still compares, but the violation text says the comparison
        # ran uncalibrated and names the record at fault.
        base_cal = dict(_bench_payload(1000.0), calibration_s=1.0)
        cur_nocal = _bench_payload(600.0)
        violations = compare_bench(cur_nocal, base_cal, 0.25)
        assert len(violations) == 1
        assert "UNCALIBRATED" in violations[0]
        assert "current" in violations[0]

        base_nocal = dict(_bench_payload(1000.0), calibration_s=0.0)
        cur_cal = dict(_bench_payload(600.0), calibration_s=1.0)
        violations = compare_bench(cur_cal, base_nocal, 0.25)
        assert len(violations) == 1
        assert "UNCALIBRATED" in violations[0]
        assert "baseline" in violations[0]

    def test_scheduler_divergence_fails_gate(self):
        current = dict(_bench_payload(1000.0),
                       dense_scenarios=_bench_payload(900.0)["scenarios"])
        assert scheduler_violations(current) == []
        # a single-scheduler run has no dense rows to compare
        assert scheduler_violations(_bench_payload(1000.0)) == []
        current["dense_scenarios"]["synthetic"]["checksum"] = "bbb"
        violations = scheduler_violations(current)
        assert len(violations) == 1
        assert "dense/active checksum divergence" in violations[0]
        # compare_bench surfaces the same divergence
        assert compare_bench(current, _bench_payload(1000.0), 0.25) \
            == violations

    def test_tolerance_outside_unit_interval_rejected(self):
        # A NaN or >= 1 tolerance used to pass a 100x slower run.
        base = _bench_payload(1000.0)
        slow = _bench_payload(10.0)
        for bad in (float("nan"), float("inf"), 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="tolerance"):
                compare_bench(slow, base, bad)
        assert len(compare_bench(slow, base, 0.25)) == 1
        assert len(compare_bench(slow, base, 0.0)) == 1

    def test_write_load_format_round_trip(self, tmp_path):
        data = _bench_payload(1000.0)
        path = write_bench(tmp_path / "BENCH.json", data)
        assert load_bench(path) == data
        text = format_bench(data, baseline=data)
        assert "synthetic" in text and "1.00x baseline" in text


class TestBenchScenarios:
    def test_scenario_runs_and_reports(self):
        row = run_scenario("low_load", repeat=1, scheduler="active")
        assert row["cycles"] > 0
        assert row["cycles_per_s"] > 0
        assert len(row["checksum"]) == 10

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("nope")

    def test_zero_repeat_raises(self):
        # Used to crash with AttributeError on a None result.
        with pytest.raises(ValueError, match="repeat"):
            run_scenario("low_load", repeat=0)

    def test_scenario_checksum_scheduler_invariant(self):
        dense = run_scenario("low_load", repeat=1, scheduler="dense")
        active = run_scenario("low_load", repeat=1, scheduler="active")
        assert dense["checksum"] == active["checksum"]
        assert dense["received"] == active["received"]


class TestCli:
    def test_bench_cli_writes_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH.json"
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(out)]) == 0
        data = load_bench(out)
        assert "low_load" in data["scenarios"]
        # gate against itself: passes (identical checksum, same speed)
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(tmp_path / "B2.json"),
                     "--baseline", str(out)]) == 0
        # poison the baseline checksum: gate must fail
        data["scenarios"]["low_load"]["checksum"] = "0000000000"
        write_bench(out, data)
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(tmp_path / "B3.json"),
                     "--baseline", str(out)]) == 1
        err = capsys.readouterr().err
        assert "checksum changed" in err

    def test_bench_cli_scheduler_both(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.harness import bench

        out = tmp_path / "BENCH.json"
        assert main(["bench", "--repeat", "1", "--scheduler", "both",
                     "--scenarios", "low_load",
                     "--output", str(out)]) == 0
        data = load_bench(out)
        assert data["scenarios"]["low_load"]["checksum"] \
            == data["dense_scenarios"]["low_load"]["checksum"]
        assert "active/dense speedup" in capsys.readouterr().out

        # a dense/active divergence exits 1 without any --baseline
        def skewed(name, repeat, scheduler):
            return {"cycles": 10, "seconds": 1.0, "cycles_per_s": 10.0,
                    "checksum": scheduler, "received": 1}

        monkeypatch.setattr(bench, "run_scenario", skewed)
        assert main(["bench", "--repeat", "1", "--scheduler", "both",
                     "--scenarios", "low_load",
                     "--output", str(out)]) == 1
        assert "dense/active checksum divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--repeat", "0"],
        ["--tolerance", "nan"],
        ["--tolerance", "1.5"],
    ])
    def test_bench_cli_rejects_bad_numbers(self, argv, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "--output", str(tmp_path / "B.json")] + argv)
        assert exc.value.code == 2
        assert not (tmp_path / "B.json").exists()

    def test_run_cli_writes_telemetry_artifact(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "--scheme", "SingleBase",
                     "--benchmark", "hotspot",
                     "--quota", "8", "--iterations", "10",
                     "--telemetry", "25",
                     "--telemetry-out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("run-SingleBase-hotspot-*.json"))
        assert len(files) == 1
        record = json.loads(files[0].read_text())
        assert record["kind"] == "experiment"
        assert record["samples"] > 0

    def test_sweep_cli_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--schemes", "SingleBase",
                     "--benchmarks", "hotspot",
                     "--quota", "8", "--iterations", "10",
                     "--telemetry", "25",
                     "--telemetry-out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(files) == 1
        lines = read_jsonl(files[0])
        assert lines[0]["kind"] == "sweep"
        assert lines[1]["kind"] == "experiment"
        assert lines[-1]["kind"] == "sweep_summary"
