"""The four-metric evaluation function guiding MCTS (paper section 4.3).

For a complete EIR design the function combines, after normalisation:

1. **Max EIR traffic load** — assuming each PE receives a similar share
   of reply traffic, distribute each CB's traffic over its injection
   points per the buffer-selection policy and take the maximum load of
   any injection point.  Minimising this balances the EIRs and avoids
   hotspots.
2. **Average hop count** — latency proxy: one cycle to enter the chosen
   injection router (local or via one-cycle interposer hop) plus mesh
   hops from there to the destination.
3. **Number of intersection points** in the RDL wire plan (layer cost).
4. **Total interposer link length** (repeater/active-interposer risk).

All metrics are cheap to compute, which is what lets MCTS call this in
every backpropagation step instead of running full-system simulation.
Lower scores are better; :func:`reward` maps scores to ``(0, 1]`` for
UCB backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..physical import interposer
from .eir import EirDesign, EirGroup, shortest_path_eirs
from .grid import Grid

DEFAULT_WEIGHTS: Mapping[str, float] = {
    "max_load": 1.0,
    "avg_hops": 1.0,
    "crossings": 2.0,
    "link_length": 1.0,
}


@dataclass(frozen=True)
class EvalResult:
    """Raw and normalised metrics plus the combined score (lower=better)."""

    raw: Dict[str, float]
    normalized: Dict[str, float]
    score: float


def injection_loads(design: EirDesign) -> Dict[int, float]:
    """Traffic load per injection point, in PE-destination shares.

    Every PE destination contributes one unit of traffic per CB; the
    unit is split evenly over the shortest-path injection points the
    buffer selector would rotate through (the round-robin of Buffer
    Selection 1), or assigned to the local router when no EIR is on a
    shortest path.
    """
    grid = design.grid
    cb_set = set(design.placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    loads: Dict[int, float] = {}
    for cb in design.placement:
        for inj in design.injection_points(cb):
            loads.setdefault(inj, 0.0)
        for dst in pes:
            choices = shortest_path_eirs(grid, design, cb, dst)
            if not choices:
                choices = [cb]
            share = 1.0 / len(choices)
            for inj in choices:
                loads[inj] += share
    return loads


def average_hops(design: EirDesign) -> float:
    """Mean effective hop count over all (CB, PE) pairs.

    Entering an injection router costs one hop (the local link or the
    single-cycle interposer link), then mesh hops to the destination.
    Interposer links thus shortcut the first ``distance(cb, eir)`` mesh
    hops into one.
    """
    grid = design.grid
    cb_set = set(design.placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    total = 0.0
    pairs = 0
    for cb in design.placement:
        for dst in pes:
            choices = shortest_path_eirs(grid, design, cb, dst)
            if choices:
                hops = sum(1 + grid.hops(e, dst) for e in choices) / len(choices)
            else:
                hops = 1 + grid.hops(cb, dst) - 1  # local injection
            total += hops
            pairs += 1
    return total / pairs if pairs else 0.0


def _baseline_avg_hops(grid: Grid, placement: Sequence[int]) -> float:
    """Average hops with no EIRs at all (normalisation reference)."""
    cb_set = set(placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    total = sum(grid.hops(cb, dst) for cb in placement for dst in pes)
    return total / (len(placement) * len(pes))


def _finalize(
    grid: Grid,
    placement: Sequence[int],
    num_links: int,
    raw: Dict[str, float],
    baseline_hops: float,
    weights: Optional[Mapping[str, float]],
) -> EvalResult:
    """Normalise raw metrics and combine them into the scalar score."""
    weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
    num_pes = grid.size - len(placement)
    max_links = 4 * len(placement)
    normalized = {
        # A design with no EIRs funnels all num_pes shares through one
        # router, so num_pes is the worst case.
        "max_load": raw["max_load"] / num_pes if num_pes else 0.0,
        "avg_hops": raw["avg_hops"] / baseline_hops,
        # Each crossing forces another RDL layer somewhere; normalising
        # per link keeps a handful of crossings clearly visible to the
        # search (a combinatorial worst case would drown them out).
        "crossings": raw["crossings"] / num_links if num_links else 0.0,
        # Worst case: the maximum number of links, all at max distance.
        "link_length": (
            raw["link_length"] / (max_links * 3) if max_links else 0.0
        ),
    }
    score = sum(weights[name] * normalized[name] for name in normalized)
    return EvalResult(raw=raw, normalized=normalized, score=score)


def evaluate(
    design: EirDesign,
    weights: Optional[Mapping[str, float]] = None,
) -> EvalResult:
    """Evaluate a complete EIR design; lower scores are better."""
    grid = design.grid
    plan = interposer.plan_for_design(design)

    loads = injection_loads(design)
    raw = {
        "max_load": max(loads.values()) if loads else 0.0,
        "avg_hops": average_hops(design),
        "crossings": float(plan.num_crossings),
        "link_length": float(design.total_link_length()),
    }
    return _finalize(
        grid, design.placement, len(design.links()), raw,
        _baseline_avg_hops(grid, design.placement), weights,
    )


class _Fragment:
    """One CB's exact traffic contribution under one EIR group.

    ``points`` are the injection points to pre-register, ``adds`` the
    ordered ``(injection_point, share)`` additions the CB performs in
    :func:`injection_loads`, and ``hops`` its per-destination effective
    hop values from :func:`average_hops`, all in PE-destination order.
    Storing the addition *sequence* rather than pre-summed totals keeps
    the replayed floating-point arithmetic identical to the direct
    functions, operation for operation.
    """

    __slots__ = ("points", "adds", "hops")

    def __init__(
        self,
        points: Tuple[int, ...],
        adds: List[Tuple[int, float]],
        hops: List[float],
    ) -> None:
        self.points = points
        self.adds = adds
        self.hops = hops


class IncrementalEvaluator:
    """Memoizing evaluator that reuses per-CB traffic fragments.

    A CB's contribution to :func:`injection_loads` and
    :func:`average_hops` depends only on its *own* EIR group
    (:func:`~repro.core.eir.shortest_path_eirs` never consults other
    groups), so successive MCTS rollouts — which typically differ from
    an already-seen design in a single CB's group — recompute one
    fragment instead of the whole O(CBs x PEs) traffic model.
    Fragments are keyed by the canonical ``(cb, group.eirs)`` tuple and
    replayed in placement order, preserving the exact float-addition
    sequence, so results are bit-identical to :func:`evaluate` and the
    search commits the same design either way.  Crossing count and link
    length remain per-design (crossings are a pairwise property of the
    complete link set) but are cheap by comparison.
    """

    def __init__(
        self,
        grid: Grid,
        placement: Sequence[int],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.grid = grid
        self.placement = tuple(placement)
        self.weights = weights
        cb_set = set(self.placement)
        self._pes = [n for n in grid.nodes() if n not in cb_set]
        self._coords = list(grid.coords())
        self._baseline_hops = _baseline_avg_hops(grid, self.placement)
        self._fragments: Dict[Tuple[int, tuple], _Fragment] = {}

    def _fragment(self, group: EirGroup) -> _Fragment:
        key = (group.cb, group.eirs)
        frag = self._fragments.get(key)
        if frag is None:
            frag = self._compute_fragment(group)
            self._fragments[key] = frag
        return frag

    def _compute_fragment(self, group: EirGroup) -> _Fragment:
        # Same arithmetic as shortest_path_eirs/average_hops/injection_loads
        # with the mesh distances taken from hoisted coordinates: integer
        # hop sums, then one division, in the same order.
        cb = group.cb
        cx, cy = self._coords[cb]
        eirs = []
        for node in group.nodes:
            ex, ey = self._coords[node]
            eirs.append((node, ex, ey, abs(ex - cx) + abs(ey - cy)))
        adds: List[Tuple[int, float]] = []
        hops_list: List[float] = []
        for dst in self._pes:
            dx, dy = self._coords[dst]
            base = abs(cx - dx) + abs(cy - dy)
            choices = []
            hop_sum = 0
            for node, ex, ey, to_eir in eirs:
                to_dst = abs(ex - dx) + abs(ey - dy)
                if to_eir + to_dst == base:
                    choices.append(node)
                    hop_sum += 1 + to_dst
            if choices:
                hops_list.append(hop_sum / len(choices))
                share = 1.0 / len(choices)
                for inj in choices:
                    adds.append((inj, share))
            else:
                hops_list.append(base)  # local injection
                adds.append((cb, 1.0))
        return _Fragment((cb,) + group.nodes, adds, hops_list)

    def evaluate(self, groups: Sequence[EirGroup]) -> EvalResult:
        """Evaluate a complete design given as one group per CB."""
        by_cb = {g.cb: g for g in groups}
        loads: Dict[int, float] = {}
        total = 0.0
        pairs = 0
        for cb in self.placement:
            frag = self._fragment(by_cb[cb])
            for inj in frag.points:
                loads.setdefault(inj, 0.0)
            for inj, share in frag.adds:
                loads[inj] += share
            for hops in frag.hops:
                total += hops
            pairs += len(frag.hops)
        design = EirDesign(
            grid=self.grid, placement=self.placement, groups=tuple(groups)
        )
        plan = interposer.plan_for_design(design)
        raw = {
            "max_load": max(loads.values()) if loads else 0.0,
            "avg_hops": total / pairs if pairs else 0.0,
            "crossings": float(plan.num_crossings),
            "link_length": float(design.total_link_length()),
        }
        return _finalize(
            self.grid, self.placement, len(design.links()), raw,
            self._baseline_hops, self.weights,
        )


def reward(result: EvalResult) -> float:
    """Map an evaluation score to a UCB reward in ``(0, 1]``."""
    return 1.0 / (1.0 + result.score)
