"""Golden EquiNox designs: absolute pins on the design flow's output.

``tests/test_golden.py`` pins simulated behaviour, and only reaches the
design flow indirectly through 8x8 fingerprints.  These cases pin what
:func:`~repro.core.equinox.design_equinox` itself produces at 8x8, 12x12
and 16x16 — the N-Queen placement and its penalty, every CB's EIR
group, the four-metric evaluation, and the MCTS counters and score
trace — so a change to the placement, evaluation or search code that
claims to compute the same design must leave every value unchanged.

Floats are compared exactly: the search commits whichever design scores
lowest, so a last-bit drift in the evaluation can change the design.
"""

import pytest

from repro.core.equinox import design_equinox
from repro.core.mcts import SearchConfig

# (width, MCTS iterations per level, search seed) -> pinned design.
DESIGNS = {
    (8, 150, 0): dict(
        nodes=(2, 13, 17, 28, 39, 40, 54, 59),
        penalty=23,
        groups=(
            (2, (((-1, 0), 0), ((0, 1), 19), ((1, 0), 4))),
            (13, (((-1, 0), 11), ((0, 1), 30), ((1, 0), 22))),
            (17, (((-1, 0), 8), ((0, 1), 33), ((1, 0), 26))),
            (28, (((-1, 0), 35), ((0, 1), 43), ((1, 0), 37))),
            (39, (((-1, 0), 45), ((0, -1), 23), ((0, 1), 63))),
            (40, (((0, -1), 24), ((0, 1), 56), ((1, 0), 42))),
            (54, (((-1, 0), 44),)),
            (59, (((-1, 0), 50), ((1, 0), 52))),
        ),
        raw=dict(
            max_load=32.0,
            avg_hops=4.438616071428571,
            crossings=0.0,
            link_length=48.0,
        ),
        normalized=dict(
            max_load=0.5714285714285714,
            avg_hops=0.8454506802721088,
            crossings=0.0,
            link_length=0.5,
        ),
        score=1.91687925170068,
        designs_evaluated=747,
        nodes_expanded=902,
        eval_cache_hits=462,
        best_score_trace=(
            2.2950680272108843,
            2.1319380024737167,
            2.4197781385281383,
            1.9617346938775513,
            1.9636479591836733,
            2.29421768707483,
            1.91687925170068,
            1.91687925170068,
        ),
    ),
    (8, 150, 5): dict(
        nodes=(2, 13, 17, 28, 39, 40, 54, 59),
        penalty=23,
        groups=(
            (2, (((-1, 0), 0), ((0, 1), 19), ((1, 0), 4))),
            (13, (((-1, 0), 11), ((0, 1), 30), ((1, 0), 6))),
            (17, (((-1, 0), 8), ((0, 1), 33), ((1, 0), 26))),
            (28, (((-1, 0), 35), ((0, 1), 45), ((1, 0), 37))),
            (39, (((0, -1), 22), ((0, 1), 63))),
            (40, (((0, -1), 24), ((0, 1), 56), ((1, 0), 42))),
            (54, (((-1, 0), 44),)),
            (59, (((-1, 0), 57), ((0, -1), 43), ((1, 0), 61))),
        ),
        raw=dict(
            max_load=32.0,
            avg_hops=4.427455357142857,
            crossings=0.0,
            link_length=48.0,
        ),
        normalized=dict(
            max_load=0.5714285714285714,
            avg_hops=0.8433248299319727,
            crossings=0.0,
            link_length=0.5,
        ),
        score=1.914753401360544,
        designs_evaluated=838,
        nodes_expanded=927,
        eval_cache_hits=371,
        best_score_trace=(
            2.0953733766233764,
            2.2192028985507246,
            2.4896413110698825,
            2.1028911564625847,
            2.039753401360544,
            1.914753401360544,
            1.9151785714285714,
            1.914753401360544,
        ),
    ),
    (12, 60, 3): dict(
        nodes=(0, 15, 34, 69, 74, 90, 109, 136),
        penalty=0,
        groups=(
            (0, (((0, 1), 36), ((1, 0), 13))),
            (15, (((-1, 0), 25), ((0, 1), 51), ((1, 0), 28))),
            (34, (((-1, 0), 31), ((0, -1), 11), ((0, 1), 58), ((1, 0), 23))),
            (69, (((-1, 0), 67), ((0, -1), 44), ((0, 1), 93), ((1, 0), 71))),
            (74, (((-1, 0), 61), ((0, -1), 50), ((0, 1), 99), ((1, 0), 87))),
            (90, (((-1, 0), 77), ((0, -1), 66), ((0, 1), 114), ((1, 0), 103))),
            (109, (((-1, 0), 96), ((0, -1), 85), ((0, 1), 133), ((1, 0), 98))),
            (136, (((-1, 0), 123), ((0, -1), 112), ((1, 0), 138))),
        ),
        raw=dict(
            max_load=67.0,
            avg_hops=7.119944852941177,
            crossings=0.0,
            link_length=63.0,
        ),
        normalized=dict(
            max_load=0.49264705882352944,
            avg_hops=0.8707846223021584,
            crossings=0.0,
            link_length=0.65625,
        ),
        score=2.0196816811256877,
        designs_evaluated=473,
        nodes_expanded=468,
        eval_cache_hits=16,
        best_score_trace=(
            2.152301320708139,
            2.398706402525039,
            2.1538350726981443,
            2.1725127775930515,
            2.0973173666948792,
            2.036187226689237,
            2.064980735999436,
            2.0196816811256877,
        ),
    ),
    (16, 60, 0): dict(
        nodes=(0, 20, 45, 67, 92, 161, 206, 235),
        penalty=0,
        groups=(
            (0, (((0, 1), 48), ((1, 0), 2))),
            (20, (((-1, 0), 34), ((0, 1), 53), ((1, 0), 38))),
            (45, (((-1, 0), 43), ((0, -1), 12), ((0, 1), 77), ((1, 0), 30))),
            (67, (((-1, 0), 50), ((0, -1), 35), ((0, 1), 99), ((1, 0), 69))),
            (92, (((-1, 0), 106), ((0, -1), 59), ((0, 1), 124), ((1, 0), 78))),
            (161, (((-1, 0), 144), ((0, -1), 113), ((0, 1), 194), ((1, 0), 178))),
            (206, (((-1, 0), 204), ((0, -1), 174), ((0, 1), 238), ((1, 0), 191))),
            (235, (((-1, 0), 233), ((0, -1), 203), ((1, 0), 237))),
        ),
        raw=dict(
            max_load=129.0,
            avg_hops=10.30695564516129,
            crossings=0.0,
            link_length=66.0,
        ),
        normalized=dict(
            max_load=0.5201612903225806,
            avg_hops=0.896414167981764,
            crossings=0.0,
            link_length=0.6875,
        ),
        score=2.1040754583043446,
        designs_evaluated=487,
        nodes_expanded=480,
        eval_cache_hits=2,
        best_score_trace=(
            2.228763526715263,
            2.3597058070738095,
            2.199736945184481,
            2.447101851762069,
            2.285066963906942,
            2.2044580889999685,
            2.1049083532719055,
            2.1040754583043446,
        ),
    ),
}


@pytest.fixture(
    scope="module",
    params=sorted(DESIGNS),
    ids=lambda k: f"{k[0]}x{k[0]}-mcts{k[1]}-seed{k[2]}",
)
def case(request):
    width, iterations, seed = request.param
    design = design_equinox(
        width, 8, SearchConfig(iterations_per_level=iterations, seed=seed)
    )
    return design, DESIGNS[request.param]


def test_placement(case):
    design, expected = case
    assert design.placement.nodes == expected["nodes"]
    assert design.placement.penalty == expected["penalty"]


def test_groups(case):
    design, expected = case
    groups = tuple((g.cb, g.eirs) for g in design.eir_design.groups)
    assert groups == expected["groups"]


def test_evaluation(case):
    design, expected = case
    assert design.evaluation.raw == expected["raw"]
    assert design.evaluation.normalized == expected["normalized"]
    assert design.evaluation.score == expected["score"]


def test_search_counters(case):
    design, expected = case
    search = design.search
    assert search.designs_evaluated == expected["designs_evaluated"]
    assert search.nodes_expanded == expected["nodes_expanded"]
    assert search.eval_cache_hits == expected["eval_cache_hits"]
    assert search.best_score_trace == expected["best_score_trace"]
