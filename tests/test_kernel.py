"""The tree kernel (`solve_block`) against the cover path, vertex by vertex.

The kernel never builds a sub-instance: it ranks the root's rooms once and
solves all vertices in one scan over flat integer arrays.  Every vertex's
(LRS, DPS, GAS) must equal what the cover path reports for
`tree.subinstance(node)`: the LP value, the exact DP cost and the greedy
cost; and `solve_tree`'s per-height sums must equal those of the cover path.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcknap import (
    ExperimentParams,
    ProblemInstance,
    SizeLimitError,
    SortCriterion,
    build_instance,
    build_tree,
    dp_solve,
    greedy_solve,
    lp_relax_solve,
    proctors_from_rate,
    run_experiment,
    solve_tree,
)
from dcknap import model, montecarlo, solvers
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS, prune
from dcknap.montecarlo import derive_seed, seeded_realization
from dcknap.solvers import SORT_KEYS, solve_block
from conftest import RATIOS


def cover_path_triples(tree):
    triples = []
    for node in tree.nodes:
        sub = tree.subinstance(node)
        triples.append((lp_relax_solve(sub).value, dp_solve(sub)[1], greedy_solve(sub)[1]))
    return triples


def solve_tree_vertices(tree):
    """The kernel's (num, den, DPS, GAS) of the vertices of a one-tree block."""
    columns = solve_block(
        tree.capacities, tree.proctors, tree.ranks, tree.order, tree.places, tree.size, tree.demand
    )
    return tuple(column[0] for column in columns)


def kernel_triples(tree):
    num, den, dps, gas = solve_tree_vertices(tree)
    assert len(num) == len(den) == len(dps) == len(gas) == len(tree.nodes)
    return [(Fraction(int(a), int(b)), int(d), int(g)) for a, b, d, g in zip(num, den, dps, gas)]


@st.composite
def rooms(draw):
    """(capacities, proctors): rated rooms (rate 1 included), rooms sharing a
    few capacity/proctor ratios, or free proctor counts."""
    n = draw(st.integers(1, 40))
    style = draw(st.sampled_from(("rate", "tied", "free")))
    if style == "tied":
        ratios = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), min_size=1, max_size=3))
        picks = draw(st.lists(st.tuples(st.sampled_from(ratios), st.integers(1, 6)), min_size=n, max_size=n))
        return [k * c for (c, _), k in picks], [k * p for (_, p), k in picks]
    caps = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
    if style == "rate":
        return caps, proctors_from_rate(caps, draw(st.sampled_from((1, 2, 54)) | st.integers(1, 120)))
    return caps, draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))


@st.composite
def kernel_cases(draw):
    caps, proctors = draw(rooms())
    total = sum(caps)
    # Demand 0, full occupancy (the budget axis is then empty) or anything between.
    demand = draw(st.sampled_from((0, total)) | st.integers(0, total))
    inst = ProblemInstance(caps, proctors, demand)
    algorithm = draw(st.sampled_from(TREE_ALGORITHMS))
    fraction = None
    if algorithm == "hlT":
        fraction = draw(st.sampled_from((Fraction(1, 2), Fraction(7, 20), Fraction(2, 3), Fraction(1, 10))))
    key = draw(st.sampled_from(SORT_KEYS))
    sort = SortCriterion(key, seed=draw(st.integers(0, 2**32)) if key == "random" else None)
    return build_tree(
        inst, algorithm, sort, fraction=fraction,
        min_size=draw(st.sampled_from((1, 2, 4, 8))),
        rounding=draw(st.sampled_from(ROUNDING_MODES)),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_cases())
def test_kernel_matches_cover_path(tree):
    assert kernel_triples(tree) == cover_path_triples(tree)


def reference_series(tree):
    """Per height, (LRS, DPS, GAS) summed with Fraction over the cover-path
    triples of the leaves of prune(tree, h)."""
    triples = cover_path_triples(tree)
    return [
        tuple(sum((triples[leaf.index][k] for leaf in prune(tree, h)), Fraction(0)) for k in range(3))
        for h in range(tree.height + 1)
    ]


@settings(max_examples=150, deadline=None, database=None)
@given(kernel_cases())
def test_series_match_cover_path_sums(tree):
    series = solve_tree(tree)
    assert list(zip(series.lrs, series.dps, series.gas)) == reference_series(tree)
    assert all(type(value) is Fraction for value in series.lrs)
    assert all(type(value) is int for value in series.dps + series.gas)


def reference_tree():
    # Realization 0 of the reference setting: 512 uniform rooms, occupancy
    # 0.9, rate 54, head-left by specific weight, min_size 4.
    realization = seeded_realization("uniform", 512, Fraction(9, 10), 2024, 0)
    return build_tree(build_instance(realization, 54), "hlT", SortCriterion("specific_weight"), min_size=4)


def test_reference_realization_every_vertex():
    tree = reference_tree()
    assert len(tree.nodes) == 255
    assert kernel_triples(tree) == cover_path_triples(tree)


@st.composite
def tied_trees(draw):
    """Trees of up to 40 rooms of the shared ratios, so that greedy order and
    covers tie often, at any demand."""
    picks = draw(st.lists(st.tuples(st.sampled_from(RATIOS), st.integers(1, 3)), min_size=1, max_size=40))
    caps = [k * c for (c, _), k in picks]
    demand = draw(st.sampled_from((0, sum(caps))) | st.integers(0, sum(caps)))
    key = draw(st.sampled_from(SORT_KEYS))
    sort = SortCriterion(key, seed=draw(st.integers(0, 2**32)) if key == "random" else None)
    return build_tree(
        ProblemInstance(caps, [k * p for (_, p), k in picks], demand),
        draw(st.sampled_from(TREE_ALGORITHMS)), sort, min_size=draw(st.sampled_from((1, 2, 4))),
    )


def reference_cover(inst):
    """The cheapest of the greedy cover, its break-room swaps and its one-room
    drops, rebuilt room by room from exact specific weights (ties by position)."""
    caps, prices, demand = inst.capacities, inst.proctors, inst.demand
    order = sorted(range(inst.n_rooms), key=lambda i: -Fraction(caps[i], prices[i]))
    taken = []
    while sum(caps[i] for i in taken) < demand:
        taken.append(order[len(taken)])
    before, excess = taken[:-1], sum(caps[i] for i in taken) - demand
    need = demand - sum(caps[i] for i in before)
    covers = [taken]
    covers += [before + [j] for j in order[len(before):] if caps[j] >= need]
    covers += [[k for k in taken if k != i] for i in taken if caps[i] <= excess]
    return min(covers, key=lambda cover: sum(prices[i] for i in cover))


def kernel_bounds(tree):
    """UB of every vertex, as the kernel computes it."""
    found = []
    bounds = solvers._bounds

    def spy(*args):
        found.append(bounds(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_bounds", spy)
        solve_tree_vertices(tree)
    (columns,) = found
    return columns[3].tolist()


@settings(max_examples=200, deadline=None, database=None)
@given(tied_trees())
def test_repaired_bound_is_a_cover_between_dps_and_gas(tree):
    for node, ub in zip(tree.nodes, kernel_bounds(tree), strict=True):
        sub = tree.subinstance(node)
        cover = reference_cover(sub)
        assert sum(sub.capacities[i] for i in cover) >= sub.demand
        assert sum(sub.proctors[i] for i in cover) == ub
        assert dp_solve(sub)[1] <= ub <= greedy_solve(sub)[1]


def _above_gas(caps, prices, covered, cost, offsets, demands, ub, vertices):
    return solvers._bounds(caps, prices, offsets, demands)[4][vertices] + 1


def _below_lrs(caps, prices, covered, cost, offsets, demands, ub, vertices):
    _, num, den, _, _, _, _ = solvers._bounds(caps, prices, offsets, demands)
    return -(-num[vertices] // den[vertices]) - 1  # ceil(LRS) - 1


@pytest.mark.parametrize("wrong_dp", [_above_gas, _below_lrs])
def test_sandwich_check_fires(wrong_dp, monkeypatch):
    # The kernel looks _dp_values up as a module global, once per tree.
    tree = reference_tree()
    monkeypatch.setattr(solvers, "_dp_values", wrong_dp)
    with pytest.raises(AssertionError, match="bound sandwich violated"):
        solve_tree(tree)


def _above_ub(caps, prices, covered, cost, offsets, demands, ub, vertices):
    gas = solvers._bounds(caps, prices, offsets, demands)[4][vertices]
    return np.minimum(ub[vertices] + 1, gas)


def test_sandwich_check_holds_ub_between_dps_and_gas(monkeypatch):
    # Realization 0 of the reference setting on 64 rooms at rate 1: 9 of its
    # 30 DP vertices have UB < GAS, where a DPS of UB + 1 is still at most GAS.
    realization = seeded_realization("uniform", 64, Fraction(9, 10), 2024, 0)
    tree = build_tree(build_instance(realization, 1), "hlT", SortCriterion("specific_weight"), min_size=4)
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_dp_values", _above_ub)
        with pytest.raises(AssertionError, match=r"bound sandwich violated: .+ <= UB \d+ <= GAS"):
            solve_tree(tree)
    bounds = solvers._bounds

    def ub_above_gas(*args):
        end, num, den, _, gas, covered, cost = bounds(*args)
        return end, num, den, gas + 1, gas, covered, cost

    monkeypatch.setattr(solvers, "_bounds", ub_above_gas)
    with pytest.raises(AssertionError, match="bound sandwich violated"):
        solve_tree(tree)


@pytest.mark.parametrize("key", SORT_KEYS)
def test_dp_heavy_realization_every_vertex(key):
    # Realization 0 of the dp_heavy benchmark workload: 1,024 binomial rooms,
    # occupancy 0.3, rate 54, head-left, min_size 32.  At the root, 963 rooms
    # cost 2 proctors; the DP keeps the 286 that fit on its 573-column cost
    # axis and steps through them in chunks of 56.
    realization = seeded_realization("binomial", 1024, Fraction(3, 10), 2024, 0)
    sort = SortCriterion(key, seed=derive_seed(2024, 0, 0, "sort") if key == "random" else None)
    tree = build_tree(build_instance(realization, 54), "hlT", sort, min_size=32)
    assert kernel_triples(tree) == cover_path_triples(tree)


def test_tied_weights_follow_tree_place():
    # Every room has weight 2; sorted by capacity, tree place differs from
    # position, and the greedy takes the tied rooms in tree place order.
    inst = ProblemInstance((2, 6, 4), (1, 3, 2), 5)
    tree = build_tree(inst, "hlT", SortCriterion("capacity"), min_size=3)
    assert tree.root.rooms == (1, 2, 0)
    assert kernel_triples(tree) == [(Fraction(5, 2), 3, 3)] == cover_path_triples(tree)


def test_weight_ranks_are_dense_and_exact():
    # 6/3 = 4/2 = 2 share rank 1; 5/1 is the largest; 7/4 the smallest.
    assert ProblemInstance((6, 5, 4, 7), (3, 1, 2, 4), 0).weight_ranks.tolist() == [1, 0, 1, 2]


@pytest.mark.parametrize("algorithm", TREE_ALGORITHMS)
def test_specific_weight_tree_ranks_once(algorithm, monkeypatch):
    # An experiment's sort and the kernel's greedy order read one rank per
    # block of trees; a single tree's read its instance's one cached rank.
    ranked = []
    rank = model.weight_ranks

    def spy(capacities, proctors):
        ranked.append(np.shape(capacities))
        return rank(capacities, proctors)

    for module in (model, montecarlo):
        monkeypatch.setattr(module, "weight_ranks", spy)
    run_experiment(ExperimentParams(n_rooms=64, tree_alg=algorithm, realizations=3, master_seed=2024))
    assert ranked == [(3, 64)]
    ranked.clear()
    realization = seeded_realization("uniform", 64, Fraction(9, 10), 2024, 0)
    inst = build_instance(realization, 54)
    solve_tree(build_tree(inst, algorithm, SortCriterion("specific_weight"), min_size=4))
    assert ranked == [(64,)]
    assert inst.weight_ranks is inst.weight_ranks and not inst.weight_ranks.flags.writeable


def repaired_bound(inst):
    """UB of the instance as one vertex, from solvers._bounds."""
    _, caps, prices = solvers._greedy(inst)
    return int(solvers._bounds(caps, prices, [0, inst.n_rooms], [inst.demand])[3][0])


def _dp_values_of(inst):
    """solvers._dp_values on the instance as one vertex: its greedy arrays and UB."""
    _, caps, prices = solvers._greedy(inst)
    _, _, _, ub, _, covered, cost = solvers._bounds(caps, prices, [0, inst.n_rooms], [inst.demand])
    return int(solvers._dp_values(caps, prices, covered, cost, [0, inst.n_rooms], [inst.demand], ub, np.array([0]))[0])


@st.composite
def grouped_instances(draw):
    """Up to 200 rooms with proctor counts drawn from at most 3 values, so
    weight groups are large; the demand (at least 1) is placed so that the DP
    indexes by cost, by budget, or either, as in tied_instances."""
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    n = draw(st.integers(1, 200))
    prices = draw(st.lists(st.sampled_from(counts), min_size=n, max_size=n))
    # Each room holds more students than it needs proctors, so total capacity
    # - total proctors >= n and the cost side below always has a demand.
    caps = [p + draw(st.integers(1, 30)) for p in prices]
    total_cap, total_p = sum(caps), sum(prices)
    side = draw(st.sampled_from(("cost", "budget", "any")))
    if side == "cost":
        # budget >= total proctors >= GAS
        demand = draw(st.integers(1, total_cap - total_p))
    elif side == "budget":
        # budget < cheapest room <= optimum <= GAS
        demand = draw(st.integers(total_cap - min(prices) + 1, total_cap))
    else:
        demand = draw(st.integers(1, total_cap))
    return ProblemInstance(caps, prices, demand)


@settings(max_examples=200, deadline=None, database=None)
@given(grouped_instances())
def test_grouped_dp_matches_dp_solve(inst):
    expected = dp_solve(inst)[1]
    assert _dp_values_of(inst) == expected
    # Small step caps split groups into chunks of one room or a few.
    for cells in (1, 3, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_GROUP_CELLS", cells)
            assert _dp_values_of(inst) == expected


def test_grouped_dp_temporary_is_capped():
    # 3,000 rooms of 1 proctor each form one weight group; at half the
    # capacity the DP runs on the cost axis.  One uncapped step over the
    # whole group would take 1,139 x 1,139 int32 cells (about 5 MiB).
    realization = seeded_realization("uniform", 3000, Fraction(1, 2), 2024, 0)
    inst = ProblemInstance(realization.capacities, (1,) * 3000, sum(realization.capacities) // 2)
    _, caps, prices = solvers._greedy(inst)
    _, _, _, _, gas, covered, cost = solvers._bounds(caps, prices, [0, 3000], [inst.demand])
    assert solvers._dp_axis(3000, inst.total_capacity, inst.demand, int(gas[0])) == (True, 1138)
    tracemalloc.start()
    try:
        value = solvers._dp_values(caps, prices, covered, cost, [0, 3000], [inst.demand], gas, np.array([0]))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == dp_solve(inst)[1]
    assert peak < 1 << 20


@st.composite
def dp_axis_vertices(draw):
    """(size, total capacity, demand, UB) of 1 to 6 vertices, of which about
    half have a table within one column of `DP_MAX_CELLS`, on either axis."""
    vertices = []
    for _ in range(draw(st.integers(1, 6))):
        n, demand = draw(st.integers(1, 1 << 16)), draw(st.integers(0, 1 << 30))
        if draw(st.booleans()):
            width = max(0, solvers.DP_MAX_CELLS // (n + 1) - 1 + draw(st.integers(-1, 1)))
            longer = width + draw(st.integers(0, 1000))
            ub, budget = draw(st.sampled_from(((width, longer), (longer + 1, width))))
        else:
            ub, budget = draw(st.integers(0, 1 << 30)), draw(st.integers(0, 1 << 30))
        vertices.append((n, demand + budget, demand, ub))
    return vertices


@settings(max_examples=300, deadline=None, database=None)
@given(dp_axis_vertices())
@example([(1, 1 << 27, 1, (1 << 27) - 1), (1, 1 << 28, 0, 1 << 27)])  # 2^28 cells, then 2 more
def test_dp_axis_on_arrays_is_the_scalar_rule(vertices):
    # Entry by entry the scalar results, or the scalar error of the first
    # vertex whose table is too big.
    outcomes = []
    for vertex in vertices:
        try:
            outcomes.append(solvers._dp_axis(*vertex))
        except SizeLimitError as exc:
            outcomes.append(str(exc))
    columns = [np.array(column, np.int64) for column in zip(*vertices)]
    errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
    if errors:
        with pytest.raises(SizeLimitError) as raised:
            solvers._dp_axis(*columns)
        assert str(raised.value) == errors[0]
    else:
        by_cost, width = solvers._dp_axis(*columns)
        assert list(zip(by_cost.tolist(), width.tolist())) == outcomes


def test_dp_axis_at_exactly_dp_max_cells():
    # (n, total capacity, demand, UB): 16,384 rows x 16,384 columns on the
    # cost axis is exactly 2^28 cells; one column more is refused.
    fits, over = (16383, 1 << 20, 0, 16383), (16383, 1 << 20, 0, 16384)
    assert solvers._dp_axis(*fits) == (True, 16383)
    by_cost, width = solvers._dp_axis(*(np.array([x]) for x in fits))
    assert by_cost.tolist() == [True] and width.tolist() == [16383]
    message = (
        "exact DP table of 16384 rows x 16385 columns exceeds 268435456 cells "
        "(cost axis 16385, budget axis 1048577 columns)"
    )
    for vertex in (over, [np.array([x]) for x in over]):
        with pytest.raises(SizeLimitError) as raised:
            solvers._dp_axis(*vertex)
        assert str(raised.value) == message


def batched_dps(tree, cells=None):
    """{vertex index: DPS} of the vertices the kernel sends to the batched DP,
    with its step cap set to `cells` if given."""
    found = {}
    batched = solvers._dp_values

    def spy(caps, prices, covered, cost, offsets, demands, ub, vertices):
        dps = batched(caps, prices, covered, cost, offsets, demands, ub, vertices)
        found.update(zip(vertices.tolist(), dps.tolist()))
        return dps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_dp_values", spy)
        if cells is not None:
            mp.setattr(solvers, "_GROUP_CELLS", cells)
        solve_tree_vertices(tree)
    return found


@st.composite
def dp_trees(draw):
    """Whole trees of up to 150 rooms: rated rooms at any occupancy, or rooms
    of a few capacities, each costing nearly its capacity in proctors, at
    occupancy 0.9 or more, where the budget axis is the shorter one and
    rooms of equal weight differ in value."""
    n = draw(st.integers(1, 150))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
        caps = draw(st.lists(st.sampled_from(sizes), min_size=n, max_size=n))
        proctors = [c - draw(st.integers(0, c // 4)) for c in caps]
        demand = draw(st.integers(-(-9 * sum(caps) // 10), sum(caps)))
    else:
        caps = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
        rate = draw(st.sampled_from((2, 54)) | st.integers(1, 120))
        proctors, demand = proctors_from_rate(caps, rate), draw(st.integers(0, sum(caps)))
    key = draw(st.sampled_from(SORT_KEYS))
    sort = SortCriterion(key, seed=draw(st.integers(0, 2**32)) if key == "random" else None)
    return build_tree(
        ProblemInstance(caps, proctors, demand), draw(st.sampled_from(TREE_ALGORITHMS)), sort,
        min_size=draw(st.sampled_from((1, 2, 4, 8))),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(dp_trees(), st.sampled_from((None, 200, 40, 3, 1)))
def test_batched_dp_matches_dp_solve_on_every_vertex(tree, cells):
    # Small step caps split batches down to one vertex and chunks to one room.
    found = batched_dps(tree, cells)
    assert found == {v: dp_solve(tree.subinstance(tree.nodes[v]))[1] for v in found}


def test_batched_dp_reaches_both_axes():
    # Realization 0 of the reference setting on 128 rooms, at rate 54 and at
    # rate 1: at rate 1 the budget, a tenth of the capacity, is the smaller
    # axis.  (On 64 rooms the repaired bound leaves only 7 DP vertices at rate 54.)
    realization = seeded_realization("uniform", 128, Fraction(9, 10), 2024, 0)
    for rate, by_cost in ((54, True), (1, False)):
        tree = build_tree(build_instance(realization, rate), "hlT", SortCriterion("specific_weight"), min_size=4)
        found = batched_dps(tree)
        subs = [tree.subinstance(tree.nodes[v]) for v in found]
        assert len(subs) >= 10  # of 63 vertices
        assert {repaired_bound(sub) <= sub.total_capacity - sub.demand for sub in subs} == {by_cost}
        assert list(found.values()) == [dp_solve(sub)[1] for sub in subs]
