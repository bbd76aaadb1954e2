"""Self-tests of the benchmark: metric names, output checks, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, span_self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch, tmp_path):
    """No REPRO_* knobs; a private design cache per test."""
    import os

    from repro.harness import cache

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.clear()
    yield
    cache.clear()


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Metric names and counts
# ----------------------------------------------------------------------
def test_metric_names_follow_the_grammar_and_limits():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in metrics] + workloads
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 2 <= len(workloads) <= 8
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_benchmark_json_matches_what_the_command_prints():
    spec = _spec()
    pairs = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert pairs == list(run.END_TO_END)
    pairs = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert pairs == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.workloads()) == sorted(run.WORKLOAD_NAMES)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    largest = max(m["bound"] for m in spec["end_to_end"])
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": largest}
    ]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _fake(cycles: int, instructions: int, fingerprint: str):
    return types.SimpleNamespace(
        cycles=cycles, instructions=instructions,
        stats_fingerprint=fingerprint,
    )


def test_checker_counts_divergence_from_first_sighting():
    check = run.Checker()
    check.result("A/x", _fake(10, 5, "aa"))
    check.result("A/x", _fake(10, 5, "aa"))
    check.result("A/x", _fake(11, 5, "aa"))
    assert (check.attempted, check.failed) == (3, 1)
    assert check.fail_frac == pytest.approx(1 / 3)


def test_fail_frac_catches_a_corrupted_pin():
    from repro.harness.experiment import run_experiment

    wl = run.workloads()["fig9_slice"]
    pins = run.load_pins(wl.name, 0)
    assert pins, "fig9_slice seed 0 must be pinned"
    config = wl.config(0)
    result = run_experiment("SingleBase", "kmeans", config)

    good = run.Checker(pins)
    good.result("SingleBase/kmeans", result)
    assert good.failed == 0

    corrupted = dict(pins)
    cycles, instructions, fingerprint = pins["SingleBase/kmeans"]
    corrupted["SingleBase/kmeans"] = [cycles, instructions, fingerprint[::-1]]
    bad = run.Checker(corrupted)
    bad.result("SingleBase/kmeans", result)
    assert (bad.attempted, bad.failed, bad.fail_frac) == (1, 1, 1.0)


def test_every_workload_is_pinned_at_the_default_seed():
    for name, wl in run.workloads().items():
        pins = run.load_pins(name, 0)
        cells = {run.cell_name(c) for c in wl.cells(0)}
        assert set(pins) == cells, name


def test_timed_scales_host_seconds_to_the_reference_speed(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr("run.time.perf_counter", clock)
    # The host runs at half the reference speed: probes take twice as long.
    monkeypatch.setattr("run.probe", lambda: 2 * run.PROBE_REF_S)

    def work():
        clock.now += 3.0
        return "done"

    assert run.timed(work) == ("done", 1.5, 3.0)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_span_self_times_on_nested_spans():
    spans = [
        {"name": "cell", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "build", "start": 0.5, "end": 1.5, "parent": 0},
        {"name": "run", "start": 2.0, "end": 9.0, "parent": 0},
        {"name": "get", "start": 3.0, "end": 4.0, "parent": 2},
        {"name": "put", "start": 5.0, "end": 7.5, "parent": 2},
        {"name": "cell", "start": 11.0, "end": 12.0, "parent": -1},
    ]
    assert span_self_times(spans) == pytest.approx([2.0, 1.0, 3.5, 1.0, 2.5, 1.0])


class _Clock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tracer_self_time_excludes_wrapped_children(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr("tracer.time.perf_counter", clock)

    class Layer:
        def inner(self):
            clock.now += 2.0

        def outer(self):
            clock.now += 1.0
            self.inner()
            self.inner()
            clock.now += 0.5

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", span=True, cell=True)
    tracer.wrap(Layer, "inner", "inner")
    Layer().outer()
    tracer.restore()
    assert tracer.layer("outer") == (1, 5.5, 1.5)
    assert tracer.layer("inner") == (2, 4.0, 4.0)
    assert span_self_times(tracer.spans) == [5.5]
    assert tracer.spans[0]["cell"] == "cell1"
    assert tracer.context == "-"


# ----------------------------------------------------------------------
# Wrapper restoration and tracer purity
# ----------------------------------------------------------------------
def test_wrappers_are_restored_even_after_an_error():
    module = types.ModuleType("fake_layer")

    def work(x):
        raise ValueError(x)

    module.work = work

    class Thing:
        def tick(self):
            return [1, 2]

    original_tick = vars(Thing)["tick"]
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(module, "work", "work")
            tracer.wrap(Thing, "tick", "tick")
            assert module.work is not work
            assert Thing().tick() == [1, 2]
            module.work(3)
    assert module.work is work
    assert vars(Thing)["tick"] is original_tick
    assert tracer.leaks() == []
    assert tracer.layer("work")[0] == 1


def test_real_layers_restore_and_leave_fingerprints_unchanged():
    from repro.harness.experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig(quota=1, validate=1, telemetry=1)
    untraced = run_experiment("EquiNox", "kmeans", config)
    tracer = Tracer()
    layers.install_design(tracer)
    layers.install_harness(tracer)
    layers.install_cells(tracer)
    try:
        from repro.harness import runner

        traced = runner.run_experiment("EquiNox", "kmeans", config)
    finally:
        tracer.restore()
    assert tracer.leaks() == []
    after = run_experiment("EquiNox", "kmeans", config)
    assert run.signature(traced) == run.signature(untraced)
    assert run.signature(after) == run.signature(untraced)
    assert tracer.layer("noc.router")[0] > 0
    assert tracer.layer("noc.validation")[0] > 0
    assert tracer.total_count("base_cycles") == untraced.cycles
