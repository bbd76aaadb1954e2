#!/usr/bin/env python3
"""End-to-end benchmark of the paper artifacts, with a traced layer table.

Run from the repository root::

    python3 perfbench/run.py --workload fig9_slice --seed 0 --seconds 25
    python3 perfbench/run.py --workload sweep_grid --seed 0 --trace 1

Each workload drives the public harness API the way a user does
(``warm_design_cache``, ``run_sweep``, ``DirectoryResultStore``) on the
sources under ``src/``.  With ``--trace 0`` it prints the end-to-end
metrics, measured with tracing off; with ``--trace 1`` a separate
traced run prints the per-layer table (see ``layers.py``).  Every
cell's ``(cycles, instructions, stats_fingerprint)`` is checked: it
must match the pin in ``pins.json`` for that seed (when one exists),
repeat identically on every pass, and come back unchanged from the
result store.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every cell checked out.

``--write-pins`` runs one serial pass and records its cells as the
pins for that workload and seed.  perfbench/README.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed on untraced runs but not gated: host seconds drift with the
# host's CPU speed (the gated times are calibrated, see timed()), and at
# harness-scale quotas a cell's cycle count is set by its slowest
# transaction, so cycles/s moves with the seed by more than any bound.
UNGATED: Tuple[Tuple[str, str], ...] = (
    ("wall_host_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
)
# Warm-store re-sweeps repeat in calibrated blocks of about
# WARM_BLOCK_S, for at least WARM_WINDOW_S (and 5 blocks).
WARM_BLOCK_S = 0.2
WARM_WINDOW_S = 3.0
# Host-speed calibration (see timed()): the probe loop's length and its
# host seconds at the reference CPU speed.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.015

PAPER_SCHEMES = (
    "SingleBase",
    "VC-Mono",
    "Interposer-CMesh",
    "SeparateBase",
    "DA2Mesh",
    "MultiPort",
    "EquiNox",
)

WORKLOAD_NAMES = ("fig9_slice", "fig12_scale", "sweep_grid")


@dataclass(frozen=True)
class Workload:
    """One fixed composition of sweep cells plus how it is driven."""

    name: str
    schemes: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    width: int
    quota: int
    mcts_iterations: int
    # > 1: timed passes write a fresh result store, and the traced run's
    # reference pass runs over a worker fleet of this size.
    jobs: int = 1
    chunk: int = 1  # cells per calibrated unit of a timed pass
    # Give each non-EquiNox cell its own seed derived from the run's
    # (EquiNox cells keep it: it is also their MCTS design seed, and one
    # design serves them all).  At quota 1 a cell's length is set by its
    # slowest transaction, and cells sharing a seed share that tail.
    reseed: bool = False
    validate: int = 0
    telemetry: int = 0
    # Cold set-ups per run; setup_s is their median.
    setup_reps: int = 3

    def config(self, seed: int):
        from repro.harness.experiment import ExperimentConfig

        return ExperimentConfig(
            width=self.width,
            quota=self.quota,
            seed=seed,
            mcts_iterations=self.mcts_iterations,
            validate=self.validate,
            telemetry=self.telemetry,
        )

    def cells(self, seed: int):
        from repro.harness.runner import expand_grid

        cells = expand_grid(self.schemes, self.benchmarks, self.config(seed))
        if self.reseed:
            cells = [reseeded(cell, seed) for cell in cells]
        return cells


def reseeded(cell, seed: int):
    """``cell`` with its own seed derived from ``seed``, unless EquiNox."""
    from repro.harness.runner import cell_seed
    from repro.schemes import get_config

    if get_config(cell.scheme).equinox:
        return cell
    own = cell_seed(seed, cell.scheme, cell.benchmark)
    return replace(cell, config=replace(cell.config, seed=own))


def workloads() -> Dict[str, Workload]:
    """The benchmark's workloads (sizes fit a ~25 s measuring window)."""
    from repro.workloads.profiles import TIERS

    return {
        "fig9_slice": Workload(
            "fig9_slice",
            PAPER_SCHEMES,
            TIERS["smoke"],
            width=8,
            quota=12,
            mcts_iterations=150,
        ),
        "fig12_scale": Workload(
            "fig12_scale",
            ("SeparateBase", "EquiNox"),
            ("kmeans", "myocyte"),
            width=16,
            quota=8,
            mcts_iterations=60,
            # One cold 16x16 design costs ~18 s (N-Queen dominates), so
            # a run affords a single set-up.
            setup_reps=1,
        ),
        "sweep_grid": Workload(
            "sweep_grid",
            PAPER_SCHEMES,
            TIERS["full"],
            width=8,
            quota=1,
            mcts_iterations=150,
            jobs=2,
            chunk=7,
            reseed=True,
            validate=1,
            telemetry=1,
        ),
    }


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
def cell_name(cell) -> str:
    return f"{cell.scheme}/{cell.benchmark}"


def signature(result) -> List[object]:
    return [result.cycles, result.instructions, result.stats_fingerprint]


class Checker:
    """Counts cells attempted and failed against the expected outputs.

    A cell fails if it raised or was dead-lettered, or if its
    signature differs from its pin (or, unpinned, from the first time
    it was seen in this run).
    """

    def __init__(self, pins: Optional[Dict[str, List[object]]] = None):
        self.expected: Dict[str, List[object]] = dict(pins or {})
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def result(self, name: str, result) -> None:
        self.attempted += 1
        got = signature(result)
        want = self.expected.setdefault(name, got)
        if got != want:
            self.fail(f"{name}: got {got}, expected {want}")

    def outcome(self, outcome) -> None:
        if not outcome.ok:
            self.attempted += 1
            self.fail(f"{cell_name(outcome.cell)}: {outcome.error_type}")
            return
        self.result(cell_name(outcome.cell), outcome.result)

    def round_trip(self, outcome, cold: Dict[str, dict]) -> None:
        """A warm-store outcome must equal the cold pass record exactly."""
        from repro.harness.metrics import result_to_dict

        self.outcome(outcome)
        name = cell_name(outcome.cell)
        if outcome.ok and result_to_dict(outcome.result) != cold[name]:
            self.fail(f"{name}: warm-store record differs from cold pass")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_pins(workload: str, seed: int) -> Dict[str, List[object]]:
    if not PINS.is_file():
        return {}
    pins = json.loads(PINS.read_text())
    return pins.get(workload, {}).get(str(seed), {})


# ----------------------------------------------------------------------
# Hermetic environment
# ----------------------------------------------------------------------
class Scratch:
    """Fresh directories under the run's private scratch root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._n = 0

    def fresh(self, kind: str) -> Path:
        self._n += 1
        path = self.root / f"{kind}-{self._n}"
        path.mkdir(parents=True)
        return path


def hermetic(scratch: Scratch) -> None:
    """Clear every REPRO_* knob and keep temp files inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = scratch.fresh("tmp")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def cold_design_cache(scratch: Scratch) -> None:
    """Point the design cache at a fresh empty directory and clear it."""
    from repro.harness import cache

    os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh("design-cache"))
    cache.clear()


def fresh_store(scratch: Scratch):
    from repro.harness.store import DirectoryResultStore

    return DirectoryResultStore(scratch.fresh("store"))


def fill_store(store, outcomes) -> None:
    """Record a finished pass in ``store`` the way a worker would."""
    from repro.harness.store import make_record

    for o in outcomes:
        cell = o.cell
        record = make_record(
            cell.scheme,
            cell.benchmark,
            cell.config,
            o.result,
            seed_used=o.seed_used,
            duration_s=o.duration_s,
        )
        store.put(record)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# ----------------------------------------------------------------------
# Untraced measurement: the end-to-end metrics
# ----------------------------------------------------------------------
def probe() -> float:
    """Host seconds of a fixed pure-Python loop: the CPU's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """``(result, reference seconds, host seconds)`` of one call.

    The call is bracketed by two probes, and its host seconds are scaled
    to the CPU speed at which the probe takes ``PROBE_REF_S``.
    """
    before = probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    host = time.perf_counter() - start
    speed = 2 * PROBE_REF_S / (before + probe())
    return result, host * speed, host


def timed_pass(wl: Workload, cells, scratch: Scratch):
    """``(outcomes, calibrated s, host s)`` of one serial timed pass.

    The pass runs in chunks of ``wl.chunk`` cells, each scaled by the
    CPU speed around it.  A fleet workload's pass writes a fresh store.
    """
    from repro.harness.runner import run_sweep

    store = fresh_store(scratch) if wl.jobs > 1 else None
    outcomes, ref, host = [], 0.0, 0.0
    for i in range(0, len(cells), wl.chunk):
        chunk = cells[i : i + wl.chunk]
        report, chunk_ref, chunk_host = timed(run_sweep, chunk, store=store)
        outcomes += report.outcomes
        ref += chunk_ref
        host += chunk_host
    return outcomes, ref, host


def warm_block(cells, store, reps: int):
    """``reps`` serial re-sweeps answered from ``store``."""
    from repro.harness.runner import run_sweep

    return [run_sweep(cells, jobs=1, store=store) for _ in range(reps)]


def measure(
    wl: Workload, seed: int, seconds: float, scratch: Scratch, check: Checker
) -> Tuple[Dict[str, float], int]:
    """The end-to-end metrics and the number of timed passes."""
    from repro.harness.metrics import result_to_dict
    from repro.harness.runner import warm_design_cache

    cells = wl.cells(seed)
    setups = []
    for _ in range(wl.setup_reps):
        cold_design_cache(scratch)
        setups.append(timed(warm_design_cache, cells)[1])

    # Timed passes, until the next one would overrun the window.
    walls: List[float] = []
    hosts: List[float] = []
    start = time.perf_counter()
    while True:
        outcomes, ref, host = timed_pass(wl, cells, scratch)
        walls.append(ref)
        hosts.append(host)
        for o in outcomes:
            check.outcome(o)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(hosts) > seconds:
            break
    done = [o for o in outcomes if o.ok]
    cold = {cell_name(o.cell): result_to_dict(o.result) for o in done}
    cycles = sum(o.result.cycles for o in done)

    # Warm re-sweeps: the first is checked field for field against the
    # cold pass; the timed ones run in blocks of about WARM_BLOCK_S, so
    # that each block is long enough to calibrate.
    store = fresh_store(scratch)
    fill_store(store, done)
    first = warm_block(cells, store, 1)[0]
    for o in first.outcomes:
        check.round_trip(o, cold)
    reps = max(1, round(WARM_BLOCK_S / first.wall_s))
    warms: List[float] = []
    start = time.perf_counter()
    while len(warms) < 5 or time.perf_counter() - start < WARM_WINDOW_S:
        reports, ref, _ = timed(warm_block, cells, store, reps)
        warms.append(ref / reps)
        for report in reports:
            for o in report.outcomes:
                check.outcome(o)

    # The fastest pass is the least disturbed one: the host's CPU speed
    # drifts within a pass too, beyond what the probes correct.
    metrics = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setups),
        "warm_s": statistics.median(warms),
        "peak_rss_mb": peak_rss_mb(),
        "wall_host_s": statistics.median(hosts),
        "sim_cycles_per_s": cycles / statistics.median(hosts),
    }
    return metrics, len(walls)


# ----------------------------------------------------------------------
# Traced run: the per-layer table
# ----------------------------------------------------------------------
def traced(
    wl: Workload, seed: int, scratch: Scratch, check: Checker
) -> Dict[str, float]:
    import layers
    from repro.harness.runner import run_experiment, run_sweep, warm_design_cache
    from tracer import Tracer

    cells = wl.cells(seed)
    tracer = Tracer()
    try:
        layers.install_design(tracer)
        cold_design_cache(scratch)
        warm_design_cache(cells)
        tracer.restore()

        # Reference pass, untraced but for the parent-side bus calls:
        # the fleet metrics and the untraced cell times come from it.
        # On a fleet workload this is the run_sweep(jobs>1) pass that
        # the untraced run leaves out (see README.md).
        layers.install_harness(tracer)
        store = fresh_store(scratch) if wl.jobs > 1 else None
        ref = run_sweep(cells, jobs=wl.jobs, store=store)
        tracer.restore()

        # Traced pass, in-process; then the same cells answered from
        # the store it filled (or, storeless, from one filled for it).
        layers.install_cells(tracer)
        store = fresh_store(scratch)
        run = run_sweep(cells, jobs=1, store=store if wl.jobs > 1 else None)
        if wl.jobs == 1:
            fill_store(store, [o for o in run.outcomes if o.ok])
        warm = run_sweep(cells, jobs=1, store=store)
    finally:
        tracer.restore()
    for o in ref.outcomes + run.outcomes + warm.outcomes:
        check.outcome(o)

    metrics = layers.layer_metrics(tracer)
    leaks = tracer.leaks()
    if not wl.validate:
        # Audits and telemetry are off on this workload: price them on
        # one probe cell of its shape, traced on its own.
        cell = cells[0]
        config = replace(cell.config, validate=1, telemetry=1)
        with Tracer() as probe:
            layers.install_cells(probe)
            run_experiment(cell.scheme, cell.benchmark, config)
        metrics["noc.validation.audit_s"] = probe.layer("noc.validation")[1]
        metrics["telemetry.sample_s"] = probe.layer("telemetry")[1]
        leaks += probe.leaks()
    if leaks:
        check.fail(f"tracer left wrappers installed: {leaks}")
    # Hygiene: an untraced cell after the traced ones must reproduce
    # the fingerprint every earlier pass produced.
    cell = cells[0]
    result = run_experiment(cell.scheme, cell.benchmark, cell.config)
    check.result(cell_name(cell), result)

    durations = [o.duration_s for o in ref.outcomes]
    metrics.update(layers.fleet_metrics(durations, ref.jobs, ref.wall_s))
    metrics["harness.fleet.wall_s"] = ref.wall_s
    results = {o.cell.key: o.result for o in ref.outcomes if o.ok}
    reference = dict(results)
    if "SingleBase" not in wl.schemes:
        config = wl.config(seed)
        for bench in wl.benchmarks:
            result = run_experiment("SingleBase", bench, config)
            reference[("SingleBase", bench)] = result
    metrics.update(layers.model_metrics(results, reference))
    traced_s = sum(o.duration_s for o in run.outcomes)
    metrics["tracing_overhead"] = traced_s / sum(durations) - 1.0

    OUT.mkdir(exist_ok=True)
    trace = {"workload": wl.name, "seed": seed, "metrics": metrics}
    trace.update(tracer.export())
    (OUT / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(trace))
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def write_pins(wl: Workload, seed: int, scratch: Scratch) -> int:
    """Record one serial pass as the pins for ``(workload, seed)``."""
    from repro.harness.runner import run_sweep

    cells = wl.cells(seed)
    cold_design_cache(scratch)
    report = run_sweep(cells, jobs=1)
    if report.errors():
        failed = sorted(report.errors())
        print(f"perfbench: cells failed: {failed}", file=sys.stderr)
        return 1
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins.setdefault(wl.name, {})[str(seed)] = {
        cell_name(o.cell): signature(o.result) for o in report.outcomes
    }
    text = json.dumps(pins, indent=1, sort_keys=True)
    # One line per cell: [cycles, instructions, fingerprint].
    text = re.sub(
        r"\[\s+([^][]*?)\s+\]",
        lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]",
        text,
    )
    PINS.write_text(text + "\n")
    print(f"pinned {len(report.outcomes)} cells of {wl.name} seed {seed}")
    return 0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    from layers import PER_LAYER
    from repro.harness.experiment import config_digest
    from repro.noc.network import resolve_engine, resolve_scheduler

    wl = workloads()[args.workload]
    seed = args.seed
    scratch = Scratch(OUT / f"run-{os.getpid()}")
    info = {
        "workload": wl.name,
        "seed": seed,
        "version": repro.__version__,
        "config_digest": config_digest(wl.config(seed)),
        "cells": len(wl.cells(seed)),
        "pinned": bool(load_pins(wl.name, seed)),
    }
    try:
        hermetic(scratch)
        info["scheduler"] = resolve_scheduler()
        info["engine"] = resolve_engine()
        if args.write_pins:
            return write_pins(wl, seed, scratch)
        check = Checker(load_pins(wl.name, seed))
        if args.trace:
            values = traced(wl, seed, scratch, check)
            table = PER_LAYER
        else:
            values, info["passes"] = measure(wl, seed, args.seconds, scratch, check)
            table = END_TO_END
    finally:
        shutil.rmtree(scratch.root, ignore_errors=True)

    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    for error in check.errors:
        print(f"FAILED {error}")
    metrics = {}
    for name, unit in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    for name, unit in UNGATED:
        if name in values and not args.trace:
            print(f"{name} = {values[name]:.6g} {unit} (not gated)")
    print(
        f"fail_frac = {check.fail_frac:.6g} ratio "
        f"({check.failed}/{check.attempted} cells)"
    )
    correct = check.failed == 0
    summary = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
