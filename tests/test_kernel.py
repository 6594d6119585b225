"""The tree kernel (`solve_vertices`) against the cover path, vertex by vertex.

The kernel never builds a sub-instance: it ranks the root's rooms once and
solves each vertex on integer arrays.  Every triple it returns must equal
what the cover path reports for `tree.subinstance(node)`: the LP value, the
exact DP cost and the greedy cost.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import (
    ProblemInstance,
    SortCriterion,
    build_instance,
    build_tree,
    dp_solve,
    greedy_solve,
    lp_relax_solve,
    proctors_from_rate,
)
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS
from dcknap.montecarlo import seeded_realization
from dcknap.solvers import SORT_KEYS, solve_vertices, weight_ranks


def cover_path_triples(tree):
    triples = []
    for node in tree.nodes:
        sub = tree.subinstance(node)
        triples.append((lp_relax_solve(sub).value, dp_solve(sub)[1], greedy_solve(sub)[1]))
    return triples


def kernel_triples(tree):
    solved = solve_vertices(tree.instance, tree.root.rooms, tree.nodes)
    return [(t.lrs, t.dps, t.gas) for t in solved]


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


def test_reference_realization_every_vertex():
    # Realization 0 of the reference setting: 512 uniform rooms, occupancy
    # 0.9, rate 54, head-left by specific weight, min_size 4.
    realization = seeded_realization("uniform", 512, Fraction(9, 10), 2024, 0)
    tree = build_tree(build_instance(realization, 54), "hlT", SortCriterion("specific_weight"), min_size=4)
    assert len(tree.nodes) == 255
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
    assert weight_ranks((6, 5, 4, 7), (3, 1, 2, 4)) == [1, 0, 1, 2]
