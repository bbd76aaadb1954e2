"""Which ``repro`` calls the traced run wraps, and the per-layer table.

Every boundary is a public function or method of one simulator
module; the layer name is that module's dotted path under ``repro``.
The wrapping happens here, from outside: ``src/`` is never edited.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from tracer import Tracer, span_self_times

# (metric name, unit) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gpu.system.self_s", "s"),
    ("gpu.system.ff_cycle_frac", "ratio"),
    ("gpu.pe.calls", "count"),
    ("gpu.pe.self_s", "s"),
    ("schemes.fabric.io_calls", "count"),
    ("schemes.fabric.io_s", "s"),
    ("schemes.fabric.pop_reply_hit_frac", "ratio"),
    ("noc.network.ticks", "count"),
    ("noc.network.self_s", "s"),
    ("noc.network.ticks_per_base_cycle", "ratio"),
    ("noc.router.calls", "count"),
    ("noc.router.self_s", "s"),
    ("noc.router.moves", "count"),
    ("noc.router.moves_per_call", "ratio"),
    ("noc.interface.calls", "count"),
    ("noc.interface.self_s", "s"),
    ("gpu.cachebank.calls", "count"),
    ("gpu.cachebank.self_s", "s"),
    ("mem.controller.calls", "count"),
    ("mem.controller.self_s", "s"),
    ("mem.controller.accesses", "count"),
    ("harness.experiment.build_fabric_s", "s"),
    ("power.s", "s"),
    ("core.placement.nqueen_s", "s"),
    ("core.mcts.search_s", "s"),
    ("core.mcts.designs_evaluated", "count"),
    ("core.mcts.eval_cache_hit_frac", "ratio"),
    ("noc.validation.audit_s", "s"),
    ("telemetry.sample_s", "s"),
    ("harness.store.get_calls", "count"),
    ("harness.store.get_s", "s"),
    ("harness.store.hit_frac", "ratio"),
    ("harness.store.put_calls", "count"),
    ("harness.store.put_s", "s"),
    ("harness.bus.parent_s", "s"),
    ("harness.fleet.wall_s", "s"),
    ("harness.fleet.util", "ratio"),
    ("harness.fleet.overhead_s", "s"),
    ("harness.cell_s_p50", "s"),
    ("harness.cell_s_p90", "s"),
    ("harness.cell_samples", "count"),
    ("model.sim_cycles", "cycles"),
    ("model.instructions", "count"),
    ("model.equinox_exec_vs_singlebase", "ratio"),
    ("model.equinox_ipc_vs_separatebase", "ratio"),
    ("tracing_overhead", "ratio"),
    ("traced_cell_s", "s"),
    ("unattributed_s", "s"),
)


# ----------------------------------------------------------------------
# after-hooks: counters read off a wrapped call's arguments and result
# ----------------------------------------------------------------------
def _system_run(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("base_cycles", result.cycles)
    tracer.count("ff_cycles", args[0].fast_forwarded_cycles)


def _router_moves(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("router_moves", len(result))


def _pop_reply(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("pop_reply_calls")
    if result is not None:
        tracer.count("pop_reply_hits")


def _mem_accesses(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("mem_accesses", len(result))


def _mcts(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("designs_evaluated", result.designs_evaluated)
    tracer.count("eval_lookups", result.eval_cache_lookups)
    tracer.count("eval_hits", result.eval_cache_hits)


def _store_get(tracer: Tracer, args: tuple, result: object) -> None:
    if result is not None:
        tracer.count("store_hits")


def install_design(tracer: Tracer) -> None:
    """Wrap the design flow: N-Queen placement and the MCTS search."""
    from repro.core import placement
    from repro.core.mcts.search import EirSearch

    tracer.wrap(placement, "nqueen_best", "core.placement.nqueen", span=True)
    tracer.wrap(EirSearch, "run", "core.mcts.search", span=True, after=_mcts)


def install_harness(tracer: Tracer) -> None:
    """Wrap the parent-side bus calls (put/expire/records)."""
    from repro.harness.bus import MemoryBus, SqliteBus

    for bus in (MemoryBus, SqliteBus):
        for attr in ("put", "expire", "records"):
            tracer.wrap(bus, attr, "harness.bus.parent")


def install_cells(tracer: Tracer) -> None:
    """Wrap one cell's whole stack, from the cell boundary to the CBs."""
    from repro.gpu.cachebank import CacheBank
    from repro.gpu.pe import ProcessingElement
    from repro.gpu.system import System
    from repro.harness import experiment, runner
    from repro.harness.store import DirectoryResultStore
    from repro.mem.controller import MemoryController
    from repro.noc.diagnostics import Validator
    from repro.noc.interface import NetworkInterface
    from repro.noc.network import Network
    from repro.noc.router import Router
    from repro.schemes.base import Fabric
    from repro.telemetry.registry import TelemetryRegistry

    tracer.wrap(runner, "run_experiment", "cell", span=True, cell=True)
    build = "harness.experiment.build_fabric"
    tracer.wrap(experiment, "build_fabric", build, span=True)
    tracer.wrap(experiment, "fabric_energy", "power", span=True)
    tracer.wrap(experiment, "fabric_area", "power", span=True)
    tracer.wrap(System, "run", "gpu.system", span=True, after=_system_run)
    tracer.wrap(ProcessingElement, "try_issue", "gpu.pe")
    tracer.wrap(ProcessingElement, "receive_reply", "gpu.pe")
    for attr in ("send_request", "send_reply", "pop_request"):
        tracer.wrap(Fabric, attr, "schemes.fabric.io")
    tracer.wrap(Fabric, "pop_reply", "schemes.fabric.io", after=_pop_reply)
    tracer.wrap(Network, "tick", "noc.network")
    tracer.wrap(Router, "tick", "noc.router", after=_router_moves)
    tracer.wrap(NetworkInterface, "tick", "noc.interface")
    tracer.wrap(CacheBank, "tick", "gpu.cachebank")
    tracer.wrap(MemoryController, "tick", "mem.controller", after=_mem_accesses)
    tracer.wrap(Validator, "on_cycle", "noc.validation")
    tracer.wrap(TelemetryRegistry, "sample", "telemetry")
    store = DirectoryResultStore
    tracer.wrap(store, "get", "harness.store.get", span=True, after=_store_get)
    tracer.wrap(store, "put", "harness.store.put", span=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The tracer-derived part of the per-layer table."""
    out: Dict[str, float] = {}
    base_cycles = tracer.total_count("base_cycles")
    _, _, out["gpu.system.self_s"] = tracer.layer("gpu.system")
    out["gpu.system.ff_cycle_frac"] = _ratio(
        tracer.total_count("ff_cycles"), base_cycles
    )
    out["gpu.pe.calls"], _, out["gpu.pe.self_s"] = tracer.layer("gpu.pe")
    calls, total, _ = tracer.layer("schemes.fabric.io")
    out["schemes.fabric.io_calls"] = calls
    out["schemes.fabric.io_s"] = total
    out["schemes.fabric.pop_reply_hit_frac"] = _ratio(
        tracer.total_count("pop_reply_hits"),
        tracer.total_count("pop_reply_calls"),
    )
    ticks, _, out["noc.network.self_s"] = tracer.layer("noc.network")
    out["noc.network.ticks"] = ticks
    out["noc.network.ticks_per_base_cycle"] = _ratio(ticks, base_cycles)
    calls, _, out["noc.router.self_s"] = tracer.layer("noc.router")
    moves = tracer.total_count("router_moves")
    out["noc.router.calls"] = calls
    out["noc.router.moves"] = moves
    out["noc.router.moves_per_call"] = _ratio(moves, calls)
    for layer in ("noc.interface", "gpu.cachebank", "mem.controller"):
        out[f"{layer}.calls"], _, out[f"{layer}.self_s"] = tracer.layer(layer)
    out["mem.controller.accesses"] = tracer.total_count("mem_accesses")
    out["harness.experiment.build_fabric_s"] = tracer.layer(
        "harness.experiment.build_fabric"
    )[1]
    out["power.s"] = tracer.layer("power")[1]
    out["core.placement.nqueen_s"] = tracer.layer("core.placement.nqueen")[1]
    out["core.mcts.search_s"] = tracer.layer("core.mcts.search")[1]
    out["core.mcts.designs_evaluated"] = tracer.total_count("designs_evaluated")
    out["core.mcts.eval_cache_hit_frac"] = _ratio(
        tracer.total_count("eval_hits"), tracer.total_count("eval_lookups")
    )
    out["noc.validation.audit_s"] = tracer.layer("noc.validation")[1]
    out["telemetry.sample_s"] = tracer.layer("telemetry")[1]
    calls, total, _ = tracer.layer("harness.store.get")
    out["harness.store.get_calls"] = calls
    out["harness.store.get_s"] = total
    out["harness.store.hit_frac"] = _ratio(tracer.total_count("store_hits"), calls)
    calls, total, _ = tracer.layer("harness.store.put")
    out["harness.store.put_calls"] = calls
    out["harness.store.put_s"] = total
    out["harness.bus.parent_s"] = tracer.layer("harness.bus.parent")[2]
    self_times = span_self_times(tracer.spans)
    cells = [i for i, s in enumerate(tracer.spans) if s["name"] == "cell"]
    out["traced_cell_s"] = sum(
        tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in cells
    )
    out["unattributed_s"] = sum(self_times[i] for i in cells)
    return out


def fleet_metrics(durations: List[float], jobs: int, wall_s: float) -> Dict[str, float]:
    """Fleet utilisation and per-cell percentiles from cell timings."""
    work = sum(durations)
    return {
        "harness.fleet.util": _ratio(work, jobs * wall_s),
        "harness.fleet.overhead_s": jobs * wall_s - work,
        "harness.cell_s_p50": percentile(durations, 50),
        "harness.cell_s_p90": percentile(durations, 90),
        "harness.cell_samples": len(durations),
    }


def model_metrics(
    results: Dict[Tuple[str, str], object],
    reference: Dict[Tuple[str, str], object],
) -> Dict[str, float]:
    """Exact simulated figures of one pass (see the README's model note).

    Totals are over ``results``; the scheme ratios are taken over
    ``reference``, which may add cells outside the workload (the
    SingleBase baseline of ``fig12_scale``).
    ``equinox_exec_vs_singlebase`` is the mean over benchmarks of
    EquiNox cycles / SingleBase cycles - 1 (paper: -0.477 at 8x8);
    ``equinox_ipc_vs_separatebase`` the mean EquiNox IPC / SeparateBase
    IPC (paper: 1.30x at 16x16).
    """
    benches = sorted({b for _, b in reference})

    def mean_ratio(num: str, den: str, value) -> float:
        ratios = [
            value(reference[(num, b)]) / value(reference[(den, b)])
            for b in benches
            if (num, b) in reference and (den, b) in reference
        ]
        return statistics.fmean(ratios) if ratios else 0.0

    return {
        "model.sim_cycles": sum(r.cycles for r in results.values()),
        "model.instructions": sum(r.instructions for r in results.values()),
        "model.equinox_exec_vs_singlebase": mean_ratio(
            "EquiNox", "SingleBase", lambda r: r.cycles
        ) - 1.0,
        "model.equinox_ipc_vs_separatebase": mean_ratio(
            "EquiNox", "SeparateBase", lambda r: r.ipc
        ),
    }
