"""Performance scenarios and the ``BENCH.json`` regression gate.

Scenarios bracket the simulator's tick hot path:

* ``synthetic`` — uniform random traffic on a saturated 24x24 network,
  dominated by the allocation/traversal loop;
* ``low_load`` — uniform traffic on a 16x16 network at a 0.2% injection
  rate, the mostly-idle regime the active-set scheduler exists for;
* ``system`` — one full (scheme, benchmark) cell through the GPU model,
  the shape every harness sweep repeats hundreds of times;
* ``ring_router`` / ``routerless`` — full-system cells on the loop
  topologies, so checksum or cycles/s regressions in the independent
  baseline schemes fail the gate like the mesh ones.

Each scenario reports wall-clock throughput (cycles/s, best of
``repeat`` runs) *and* a behaviour checksum over the simulated
statistics.  ``compare_bench`` turns a current/baseline pair into a
list of violations: a checksum change is always fatal (simulated
behaviour drifted) and a throughput drop is fatal past the tolerance.
A run under both schedulers (``scheduler="both"``) also carries the
dense oracle's rows, and a dense/active checksum divergence is fatal
with or without a baseline (:func:`scheduler_violations`).
``repro bench`` wires this into CI as the bench-gate job against the
committed ``BENCH_BASELINE.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from .. import __version__
from ..core.grid import Grid
from ..workloads.synthetic import run_uniform

BENCH_SCHEMA = 4
DEFAULT_TOLERANCE = 0.25

_CALIBRATION_LOOPS = 2_000_000


def calibrate(repeat: int = 3) -> float:
    """Wall-clock seconds for a fixed pure-Python loop (best of N).

    A machine-speed yardstick recorded alongside the scenario timings:
    the gate scales the baseline's cycles/s by the calibration ratio,
    so a run on a slower (or busier) machine is compared against what
    the baseline machine would have scored at that speed, not against
    its absolute numbers.
    """
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_best(repeat: int, fn: Callable[[], object]):
    """Best-of-N wall-clock timing; returns (seconds, last result)."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _network_checksum(result) -> str:
    return hashlib.sha256(
        json.dumps(result.network.stats.snapshot(), sort_keys=True).encode()
    ).hexdigest()[:10]


def _uniform_row(
    repeat: int,
    scheduler: str,
    width: int,
    rate: float,
    cycles: int,
) -> Dict[str, object]:
    best, result = _time_best(repeat, lambda: run_uniform(
        Grid(width), injection_rate=rate, cycles=cycles, seed=1,
        scheduler=scheduler,
    ))
    return {
        "cycles": result.cycles,
        "seconds": best,
        "cycles_per_s": result.cycles / best,
        "checksum": _network_checksum(result),
        "received": result.received,
    }


def _scenario_synthetic(repeat: int, scheduler: str) -> Dict[str, object]:
    """Saturated uniform traffic: the allocation/traversal hot loop."""
    return _uniform_row(repeat, scheduler, width=24, rate=0.08, cycles=500)


def _scenario_low_load(repeat: int, scheduler: str) -> Dict[str, object]:
    """Sparse traffic on a big mesh: mostly-idle routers and NIs."""
    return _uniform_row(repeat, scheduler, width=16, rate=0.002, cycles=3000)


def _system_row(
    repeat: int,
    scheduler: str,
    scheme: str,
    benchmark: str,
    **config_kwargs,
) -> Dict[str, object]:
    """One full (scheme, benchmark) cell through the GPU model."""
    from .experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig(scheduler=scheduler, **config_kwargs)
    best, result = _time_best(
        repeat, lambda: run_experiment(scheme, benchmark, config)
    )
    return {
        "cycles": result.cycles,
        "seconds": best,
        "cycles_per_s": result.cycles / best,
        "checksum": f"{result.cycles}/{result.instructions}/"
                    f"{result.stats_fingerprint[:10]}",
        "received": result.instructions,
    }


def _scenario_system(repeat: int, scheduler: str) -> Dict[str, object]:
    """One full-system experiment cell (SeparateBase x kmeans)."""
    return _system_row(repeat, scheduler, "SeparateBase",
                       "kmeans", quota=40, mcts_iterations=40)


def _scenario_ring_router(repeat: int, scheduler: str) -> Dict[str, object]:
    """Full-system cell on the counter-rotating-ring baseline.

    A smaller mesh than ``system``: the serpentine ring's average hop
    count grows with the square of the width, so a 6x6 cell already
    exercises the loop hot path at comparable wall-clock cost.
    """
    return _system_row(repeat, scheduler, "ring_router",
                       "kmeans", width=6, num_cbs=5, quota=24)


def _scenario_routerless(repeat: int, scheduler: str) -> Dict[str, object]:
    """Full-system cell on the routerless loop baseline."""
    return _system_row(repeat, scheduler, "routerless",
                       "kmeans", width=6, num_cbs=5, quota=24)


SCENARIOS: Dict[str, Callable[[int, str], Dict[str, object]]] = {
    "synthetic": _scenario_synthetic,
    "low_load": _scenario_low_load,
    "system": _scenario_system,
    "ring_router": _scenario_ring_router,
    "routerless": _scenario_routerless,
}


def run_scenario(
    name: str,
    repeat: int = 3,
    scheduler: str = "active",
) -> Dict[str, object]:
    """Run one named scenario under one scheduler."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown bench scenario {name!r}; "
            f"known: {sorted(SCENARIOS)}"
        ) from None
    return fn(repeat, scheduler)


def run_bench(
    scenarios: Optional[Iterable[str]] = None,
    repeat: int = 3,
    scheduler: str = "active",
) -> Dict[str, object]:
    """Run the scenario suite; returns the BENCH.json payload.

    ``scheduler="both"`` runs every scenario under the dense oracle and
    the active scheduler: the active rows fill ``scenarios`` (the rows
    the gate compares against a baseline) and the dense rows fill
    ``dense_scenarios`` for :func:`scheduler_violations`.
    """
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    data: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "scheduler": scheduler,
        "repeat": repeat,
        "calibration_s": calibrate(),
    }
    if scheduler == "both":
        rows = {"dense": {}, "active": {}}
        for name in names:
            for sched, sched_rows in rows.items():
                sched_rows[name] = run_scenario(name, repeat, sched)
        data["scenarios"] = rows["active"]
        data["dense_scenarios"] = rows["dense"]
    else:
        data["scenarios"] = {
            name: run_scenario(name, repeat, scheduler) for name in names
        }
    return data


def write_bench(path, data: Dict[str, object]) -> Path:
    """Write a BENCH payload as stable, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def load_bench(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def scheduler_violations(data: Dict[str, object]) -> List[str]:
    """Dense/active checksum divergences within one ``both`` run.

    Both schedulers simulate the identical configuration, so a checksum
    mismatch means the active scheduler changed behaviour — always
    fatal, and measured in-run, so no baseline is needed.  A
    single-scheduler run has no dense rows and yields no violations.
    """
    dense_rows = data.get("dense_scenarios", {})
    violations: List[str] = []
    for name, active in sorted(data.get("scenarios", {}).items()):
        dense = dense_rows.get(name)
        if dense is not None and dense["checksum"] != active["checksum"]:
            violations.append(
                f"{name}: dense/active checksum divergence "
                f"{dense['checksum']} != {active['checksum']} "
                f"(the active scheduler changed behaviour)"
            )
    return violations


def check_tolerance(tolerance: float) -> float:
    """Reject a tolerance that would let the gate pass vacuously.

    A NaN floor compares false against every figure, and a tolerance of
    1 or more puts the floor at or below zero; either would pass a run
    of any slowness.
    """
    if not (math.isfinite(tolerance) and 0.0 <= tolerance < 1.0):
        raise ValueError(
            f"tolerance must be a finite fraction in [0, 1), "
            f"got {tolerance!r}"
        )
    return tolerance


def compare_bench(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Gate a current run against a baseline; returns violations.

    * A baseline without a usable ``scenarios`` mapping, or whose
      ``schema`` does not match :data:`BENCH_SCHEMA`, is itself a
      violation — an empty or stale baseline must never let the gate
      pass vacuously.
    * Any checksum change is a violation — simulated behaviour drifted,
      no tolerance applies.
    * A cycles/s figure below ``expected * (1 - tolerance)`` is a
      violation, where ``expected`` is the baseline figure scaled by
      the machines' calibration ratio (when both records carry a
      nonzero ``calibration_s``) — so a slower or busier machine is
      held to what the baseline box would have scored at that speed,
      not to its absolute numbers.  When either record lacks the
      calibration figure the comparison runs *uncalibrated* and each
      throughput violation says so explicitly.
    * A scenario present in the baseline but missing from the current
      run is a violation (silent coverage loss).
    * A dense/active checksum divergence in the current run
      (:func:`scheduler_violations`) is a violation.

    Speedups and new scenarios never fail the gate.  A ``tolerance``
    outside ``[0, 1)`` raises ``ValueError`` (:func:`check_tolerance`).
    """
    check_tolerance(tolerance)
    violations: List[str] = []
    base_schema = baseline.get("schema")
    if base_schema != BENCH_SCHEMA:
        violations.append(
            f"baseline: schema {base_schema!r} does not match the "
            f"gate's schema {BENCH_SCHEMA} (refresh BENCH_BASELINE)"
        )
    base_rows = baseline.get("scenarios")
    if not isinstance(base_rows, dict) or not base_rows:
        violations.append(
            "baseline: no scenarios to compare against (empty or "
            "malformed baseline — the gate cannot pass vacuously)"
        )
        base_rows = {}
    scale = 1.0
    base_cal = baseline.get("calibration_s")
    cur_cal = current.get("calibration_s")
    calibrated = bool(base_cal) and bool(cur_cal)
    if calibrated:
        scale = base_cal / cur_cal
    cur_rows = current.get("scenarios", {})
    for name in sorted(base_rows):
        base = base_rows[name]
        cur = cur_rows.get(name)
        if cur is None:
            violations.append(f"{name}: missing from current run")
            continue
        if cur["checksum"] != base["checksum"]:
            violations.append(
                f"{name}: checksum changed "
                f"{base['checksum']} -> {cur['checksum']} "
                f"(simulated behaviour drifted)"
            )
        expected = base["cycles_per_s"] * scale
        floor = expected * (1.0 - tolerance)
        if cur["cycles_per_s"] < floor:
            ratio = cur["cycles_per_s"] / expected
            if calibrated:
                detail = (
                    f"the speed-adjusted baseline {expected:.0f} "
                    f"(floor {floor:.0f}, tolerance {tolerance:.0%}, "
                    f"machine-speed scale {scale:.2f})"
                )
            else:
                detail = (
                    f"the baseline {expected:.0f} compared "
                    f"UNCALIBRATED — calibration_s missing from "
                    f"{'baseline' if not base_cal else 'current'} "
                    f"record (floor {floor:.0f}, tolerance "
                    f"{tolerance:.0%})"
                )
            violations.append(
                f"{name}: {cur['cycles_per_s']:.0f} cycles/s is "
                f"{ratio:.2f}x {detail}"
            )
    violations.extend(scheduler_violations(current))
    return violations


def format_bench(
    data: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
) -> str:
    """Plain-text table of a BENCH payload (optionally vs a baseline)."""
    lines = [
        f"bench — scheduler {data.get('scheduler')}, "
        f"repeat {data.get('repeat')}, version {data.get('version')}"
    ]
    base_rows = (baseline or {}).get("scenarios", {})
    rows = data.get("scenarios", {})
    for name, row in sorted(rows.items()):
        line = (
            f"{name:<18} {row['cycles']:>8} cycles  "
            f"{row['seconds']:.3f} s  "
            f"{row['cycles_per_s']:>10.0f} cycles/s  "
            f"checksum {row['checksum']}"
        )
        base = base_rows.get(name)
        if base:
            ratio = row["cycles_per_s"] / base["cycles_per_s"]
            line += f"  ({ratio:.2f}x baseline)"
        lines.append(line)
    dense_rows = data.get("dense_scenarios", {})
    for name, row in sorted(rows.items()):
        dense = dense_rows.get(name)
        if dense and dense["cycles_per_s"]:
            lines.append(
                f"{name:<18} active/dense speedup "
                f"{row['cycles_per_s'] / dense['cycles_per_s']:.2f}x "
                f"(dense {dense['cycles_per_s']:.0f} cycles/s, "
                f"checksum {dense['checksum']})"
            )
    return "\n".join(lines)

