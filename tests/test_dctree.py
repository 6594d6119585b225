import gc
import re
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcknap import (
    InvalidParameterError,
    InvalidPartitionError,
    ProblemInstance,
    SortCriterion,
    build_tree,
    dp_solve,
    proctors_from_rate,
    prune,
    split_demand,
    to_dot,
)
from dcknap import dctree
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS, TreeParams, build_block
from dcknap.model import weight_ranks
from dcknap.solvers import SORT_KEYS
from conftest import random_instance, reference_nodes

GAMMA = SortCriterion("specific_weight")

# The two reference trees for Realization 1 (demand 633, rate 54, sorting by
# specific weight, min size 2, ceil rounding), vertex by pre-order index.
HEAD_LEFT_DEMANDS = (633, 309, 144, 165, 324, 155, 169)
HEAD_LEFT_ROOMS = (
    (1, 7, 2, 3, 5, 4, 6, 0),
    (1, 7, 2, 3),
    (1, 7),
    (2, 3),
    (5, 4, 6, 0),
    (5, 4),
    (6, 0),
)
BALANCED_DEMANDS = (633, 281, 127, 154, 352, 171, 181)
BALANCED_ROOMS = (
    (1, 7, 2, 3, 5, 4, 6, 0),
    (1, 2, 5, 6),
    (1, 5),
    (2, 6),
    (7, 3, 4, 0),
    (7, 4),
    (3, 0),
)


class TestSplitDemand:
    def test_ceil_reproduces_reference_tree(self):
        assert split_demand(633, 343, 704, "ceil") == (309, 324)

    def test_floor_variant(self):
        assert split_demand(633, 343, 704, "floor") == (308, 325)

    def test_balanced_root_split(self):
        assert split_demand(633, 312, 704, "ceil") == (281, 352)

    def test_degenerate_partition_rejected(self):
        with pytest.raises(InvalidPartitionError):
            split_demand(10, 0, 100, "ceil")
        with pytest.raises(InvalidPartitionError):
            split_demand(10, 100, 100, "ceil")

    def test_demand_above_capacity_rejected(self):
        with pytest.raises(InvalidPartitionError):
            split_demand(101, 40, 100, "ceil")

    def test_unknown_rounding(self):
        with pytest.raises(InvalidParameterError):
            split_demand(10, 4, 10, "nearest")

    @pytest.mark.parametrize("bad", [(10, 0, 100), (10, 100, 100), (101, 40, 100)])
    def test_arrays_raise_like_scalars(self, bad):
        # The first bad entry raises what its scalar call raises, although
        # the last entry is a degenerate partition.
        with pytest.raises(InvalidPartitionError) as scalar:
            split_demand(*bad)
        arrays = [np.array(column) for column in zip((633, 343, 704), bad, (10, 100, 100))]
        with pytest.raises(InvalidPartitionError, match=f"^{re.escape(str(scalar.value))}$"):
            split_demand(*arrays)
        with pytest.raises(InvalidParameterError):
            split_demand(*arrays[:2], np.array([704, 100, 100]), "nearest")

    def test_halves_are_nonnegative_and_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            total = int(rng.integers(2, 1000))
            left = int(rng.integers(1, total))
            demand = int(rng.integers(0, total + 1))
            for rounding in ("ceil", "floor"):
                d_left, d_right = split_demand(demand, left, total, rounding)
                assert d_left >= 0 and d_right >= 0
                assert d_left + d_right == demand


def slack_condition_holds(total_caps: int, right_caps: int, demand: int) -> bool:
    """The paper's sufficient slack for a floor split to leave both children
    feasible: demand <= (right_caps - 1) / right_caps * total_caps, exactly."""
    if right_caps < 1:
        raise InvalidParameterError("right-side capacity must be >= 1")
    return demand * right_caps <= (right_caps - 1) * total_caps


class TestSlackCondition:
    def test_realization_one_root(self):
        assert slack_condition_holds(704, 361, 633)

    def test_single_capacity_right_side(self):
        assert not slack_condition_holds(100, 1, 1)
        assert slack_condition_holds(100, 1, 0)

    def test_no_slack(self):
        assert not slack_condition_holds(100, 40, 100)

    def test_implies_floor_split_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            total = int(rng.integers(4, 2000))
            left = int(rng.integers(1, total))
            right = total - left
            demand = int(rng.integers(0, total + 1))
            if slack_condition_holds(total, right, demand):
                d_left, d_right = split_demand(demand, left, total, "floor")
                assert d_left <= left and d_right <= right


class TestHeadLeftTree:
    def test_realization_one_structure(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        assert tuple(n.demand for n in tree.nodes) == HEAD_LEFT_DEMANDS
        assert tuple(n.rooms for n in tree.nodes) == HEAD_LEFT_ROOMS
        assert tree.height == 2

    def test_min_size_at_least_n_gives_single_node(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 8, "ceil")
        assert len(tree.nodes) == 1
        assert tree.height == 0

    def test_fraction_04_root_children_sizes(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(2, 5), 2, "ceil")
        assert len(tree.root.left.rooms) == 3
        assert len(tree.root.right.rooms) == 5

    def test_float_fraction_is_exact(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, 0.4, 2, "ceil")
        assert len(tree.root.left.rooms) == 3

    def test_fraction_defaults_to_half(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA)
        assert tuple(n.rooms for n in tree.nodes) == HEAD_LEFT_ROOMS
        assert TreeParams("hlT", GAMMA, None, 2, "ceil").fraction == Fraction(1, 2)

    def test_fraction_bounds(self, r1_instance):
        with pytest.raises(InvalidParameterError):
            build_tree(r1_instance, "hlT", GAMMA, Fraction(3, 2), 2, "ceil")

    def test_tiny_fraction_stops_splitting(self, r1_instance):
        # floor(f * 8) == 0 would leave an empty child, so the root is a leaf
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 100), 2, "ceil")
        assert len(tree.nodes) == 1

    def test_floor_rounding_shifts_the_demands(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "floor")
        assert (tree.root.left.demand, tree.root.right.demand) == (308, 325)
        assert tuple(n.rooms for n in tree.nodes) == HEAD_LEFT_ROOMS


class TestBalancedTree:
    def test_realization_one_structure(self, r1_instance):
        tree = build_tree(r1_instance, "blT", GAMMA, None, 2, "ceil")
        assert tuple(n.demand for n in tree.nodes) == BALANCED_DEMANDS
        assert tuple(n.rooms for n in tree.nodes) == BALANCED_ROOMS

    def test_two_room_list_is_a_leaf(self):
        inst = ProblemInstance((10, 20), (1, 1), 15)
        tree = build_tree(inst, "blT", GAMMA, None, 2, "ceil")
        assert len(tree.nodes) == 1

    def test_eight_room_parity_split(self, r1_instance):
        tree = build_tree(r1_instance, "blT", GAMMA, None, 2, "ceil")
        assert len(tree.root.left.rooms) == 4
        assert len(tree.root.right.rooms) == 4


class TestPrune:
    @pytest.fixture
    def tree(self, r1_instance):
        return build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")

    def test_height_zero_is_the_root(self, tree):
        assert [n.index for n in prune(tree, 0)] == [0]

    def test_height_one(self, tree):
        leaves = prune(tree, 1)
        assert [n.index for n in leaves] == [1, 4]
        assert leaves[0].rooms == (1, 7, 2, 3)
        assert leaves[1].rooms == (5, 4, 6, 0)

    def test_height_two(self, tree):
        assert [n.index for n in prune(tree, 2)] == [2, 3, 5, 6]

    def test_out_of_range(self, tree):
        with pytest.raises(InvalidParameterError):
            prune(tree, 3)
        with pytest.raises(InvalidParameterError):
            prune(tree, -1)


def _random_tree(rng, n=None):
    inst = random_instance(rng, n=n or int(rng.integers(4, 33)))
    algorithm = rng.choice(["hlT", "blT"])
    key = rng.choice(["proctors", "capacity", "specific_weight", "random"])
    sort = SortCriterion(key, seed=int(rng.integers(0, 1 << 30)) if key == "random" else None)
    rounding = rng.choice(["ceil", "floor"])
    fraction = Fraction(int(rng.integers(30, 71)), 100) if algorithm == "hlT" else None
    min_size = int(rng.integers(1, 5))
    tree = build_tree(inst, algorithm, sort, fraction=fraction, min_size=min_size, rounding=rounding)
    return inst, tree


@st.composite
def split_cases(draw):
    """(demand, left capacity, total capacity, rounding) of a valid split."""
    total = draw(st.integers(2, 10**9))
    left = draw(st.integers(1, total - 1))
    return draw(st.integers(0, total)), left, total, draw(st.sampled_from(ROUNDING_MODES))


@st.composite
def tree_args(draw):
    """The arguments of one build_tree call over a random feasible instance,
    every parameter drawn."""
    caps = draw(st.lists(st.integers(1, 120), min_size=1, max_size=60))
    inst = ProblemInstance(
        caps, proctors_from_rate(caps, draw(st.integers(1, 90))),
        draw(st.integers(0, sum(caps))),
    )
    algorithm = draw(st.sampled_from(TREE_ALGORITHMS))
    fraction = None
    if algorithm == "hlT":
        fraction = draw(
            st.sampled_from((Fraction(0), Fraction(1)))
            | st.fractions(0, 1, max_denominator=20)
            | st.fractions(0, 1)  # large denominators too
        )
    key = draw(st.sampled_from(SORT_KEYS))
    sort = SortCriterion(key, seed=draw(st.integers(0, 2**32)) if key == "random" else None)
    return inst, algorithm, sort, fraction, draw(st.integers(1, 6)), draw(st.sampled_from(ROUNDING_MODES))


@st.composite
def blocks(draw):
    """Instances of one room count, the parameters of one block of trees over
    them, and a sort seed per instance for the random key."""
    n = draw(st.integers(1, 40))
    instances = []
    for _ in range(draw(st.integers(1, 5))):
        caps = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
        proctors = proctors_from_rate(caps, draw(st.integers(1, 90)))
        instances.append(ProblemInstance(caps, proctors, draw(st.integers(0, sum(caps)))))
    algorithm = draw(st.sampled_from(TREE_ALGORITHMS))
    fraction = draw(st.fractions(0, 1, max_denominator=20)) if algorithm == "hlT" else None
    key = draw(st.sampled_from(SORT_KEYS))
    seeds = [draw(st.integers(0, 2**32)) if key == "random" else None for _ in instances]
    params = TreeParams(
        algorithm, SortCriterion(key), fraction, draw(st.integers(1, 6)), draw(st.sampled_from(ROUNDING_MODES))
    )
    return instances, params, seeds


@st.composite
def trees(draw):
    """A random feasible instance and a tree over it."""
    args = draw(tree_args())
    return args[0], build_tree(*args)


LARGE = random_instance(np.random.default_rng(11), n=4096)


def node_fields(nodes):
    return [
        (n.rooms, n.demand, n.height, n.index, None if n.is_leaf else (n.left.index, n.right.index))
        for n in nodes
    ]


class TestTreeProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(split_cases())
    def test_split_demand_conserves_demand(self, case):
        demand, left, total, rounding = case
        d_left, d_right = split_demand(demand, left, total, rounding)
        assert d_left + d_right == demand
        # d_left is the proportional share rounded the requested way
        share = Fraction(demand * left, total)
        assert d_left - 1 < share <= d_left if rounding == "ceil" else d_left <= share < d_left + 1
        assert 0 <= d_left <= left and 0 <= d_right <= total - left

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(split_cases(), min_size=1, max_size=20), st.sampled_from(ROUNDING_MODES))
    def test_split_demand_on_arrays_equals_scalar_calls(self, cases, rounding):
        columns = zip(*(case[:3] for case in cases))  # each case's own rounding is not used
        demand, left, total = (np.array(column, dtype=np.int64) for column in columns)
        d_left, d_right = split_demand(demand, left, total, rounding)
        expected = [split_demand(int(d), int(l), int(t), rounding) for d, l, t in zip(demand, left, total)]
        assert list(zip(d_left.tolist(), d_right.tolist())) == expected

    @settings(max_examples=300, deadline=None, database=None)
    @given(tree_args())
    # 4,096 rooms times 3333333333333333 (the float 1/3's shortest repr)
    # exceed 2^63, and the 20-digit decimal's numerator alone does.
    @example((LARGE, "hlT", GAMMA, Fraction(str(1 / 3)), 2, "ceil"))
    @example((LARGE, "hlT", GAMMA, "0.33333333333333333333", 2, "ceil"))
    def test_matches_recursive_reference(self, args):
        tree = build_tree(*args)
        expected = reference_nodes(*args)
        assert node_fields(tree.nodes) == node_fields(expected)
        assert tree.root is tree.nodes[0]
        assert tree.height == max(node.height for node in expected)

    @settings(max_examples=200, deadline=None, database=None)
    @given(trees())
    def test_prune_partitions_rooms_and_demand(self, case):
        inst, tree = case
        for h in range(tree.height + 1):
            leaves = prune(tree, h)
            # pre-order, and exactly the docstring's rule
            assert all(a.index < b.index for a, b in zip(leaves, leaves[1:]))
            assert all(n.height == h or (n.is_leaf and n.height < h) for n in leaves)
            assert sorted(i for leaf in leaves for i in leaf.rooms) == list(range(inst.n_rooms))
            assert sum(leaf.demand for leaf in leaves) == inst.demand
            assert all(leaf.demand <= tree.subinstance(leaf).total_capacity for leaf in leaves)

    @settings(max_examples=200, deadline=None, database=None)
    @given(trees())
    def test_subinstance_restricts_the_instance_to_the_node(self, case):
        inst, tree = case
        for node in tree.nodes:
            assert tree.subinstance(node) == ProblemInstance(
                tuple(inst.capacities[i] for i in node.rooms),
                tuple(inst.proctors[i] for i in node.rooms),
                node.demand,
            )

    @settings(max_examples=200, deadline=None, database=None)
    @given(blocks())
    def test_each_row_of_a_block_is_its_own_tree(self, case):
        # Row t of a stacked block equals the one-row block build_tree gives
        # instance t, sorted with its own seed.
        instances, params, seeds = case
        capacities, proctors = (
            np.array([getattr(inst, name) for inst in instances], np.int64)
            for name in ("capacities", "proctors")
        )
        demands = np.array([inst.demand for inst in instances], np.int64)
        block = build_block(capacities, proctors, weight_ranks(capacities, proctors), demands, params, seeds)
        for t, (inst, seed) in enumerate(zip(instances, seeds)):
            tree = build_tree(
                inst, params.algorithm, SortCriterion(params.sort.key, seed),
                params.fraction, params.min_size, params.rounding,
            )
            assert tree.order.shape == (1, inst.n_rooms) and tree.demand.shape == (1, len(tree.size))
            assert block.order[t].tolist() == tree.order[0].tolist()
            assert block.demand[t].tolist() == tree.demand[0].tolist()


class TestTreeInvariants:
    def test_leaf_partition_and_demand_conservation(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            inst, tree = _random_tree(rng)
            for h in range(tree.height + 1):
                leaves = prune(tree, h)
                rooms = [i for leaf in leaves for i in leaf.rooms]
                assert sorted(rooms) == list(range(inst.n_rooms))
                assert sum(leaf.demand for leaf in leaves) == inst.demand

    def test_children_partition_parent(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            _, tree = _random_tree(rng)
            for node in tree.nodes:
                if node.left is not None:
                    assert sorted(node.left.rooms + node.right.rooms) == sorted(node.rooms)
                    assert node.left.demand + node.right.demand == node.demand

    def test_feasible_set_inclusions(self):
        # the root's covers split across any child pair: S within S0 | S1,
        # and S0 & S1 within S
        rng = np.random.default_rng(59)
        for _ in range(25):
            inst, tree = _random_tree(rng, n=int(rng.integers(4, 11)))
            root = tree.root
            if root.left is None:
                continue
            n = inst.n_rooms
            left, right = root.left, root.right

            def side_feasible(bits, side):
                load = sum(inst.capacities[i] for i in side.rooms if bits[i])
                return load >= side.demand

            for bits in product((0, 1), repeat=n):
                in_s = sum(c * b for c, b in zip(inst.capacities, bits)) >= inst.demand
                in_s0 = side_feasible(bits, left)
                in_s1 = side_feasible(bits, right)
                if in_s:
                    assert in_s0 or in_s1
                if in_s0 and in_s1:
                    assert in_s

    def test_leaf_sum_bounds_root_optimum(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            inst, tree = _random_tree(rng, n=int(rng.integers(4, 13)))
            _, root_value = dp_solve(inst)
            for h in range(tree.height + 1):
                total = 0
                for leaf in prune(tree, h):
                    _, value = dp_solve(tree.subinstance(leaf))
                    total += value
                assert total >= root_value

    def test_generation_is_deterministic(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng, n=16)
        sort = SortCriterion("random", seed=4242)
        a = build_tree(inst, "hlT", sort, fraction=Fraction(1, 2), min_size=2)
        b = build_tree(inst, "hlT", sort, fraction=Fraction(1, 2), min_size=2)
        assert [n.rooms for n in a.nodes] == [n.rooms for n in b.nodes]
        assert [n.demand for n in a.nodes] == [n.demand for n in b.nodes]


class TestDotExport:
    def test_labels_carry_demand_and_size(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        dot = to_dot(tree)
        assert dot.startswith("digraph")
        assert 'v0 [label="D=633 |V|=8"]' in dot
        assert "v0 -> v1;" in dot
        assert dot.count("->") == 6


def test_build_tree_dispatch_validation(r1_instance):
    with pytest.raises(InvalidParameterError):
        build_tree(r1_instance, "blT", GAMMA, fraction=Fraction(1, 2))
    with pytest.raises(InvalidParameterError):
        build_tree(r1_instance, "ternary", GAMMA)


SHAPE_FIELDS = ("places", "first", "size", "heights", "left", "right")


class TestShape:
    """The vertex arrays depend only on the algorithm, the room count, the
    head fraction and min_size, and are shared by every tree that has them."""

    def test_one_room_count_shares_read_only_arrays(self):
        rng = np.random.default_rng(5)
        a, b = random_instance(rng, n=24), random_instance(rng, n=24)
        for algorithm in TREE_ALGORITHMS:
            tree_a, tree_b = (build_tree(inst, algorithm, GAMMA) for inst in (a, b))
            for field in SHAPE_FIELDS:
                assert getattr(tree_a, field) is getattr(tree_b, field)
                with pytest.raises(ValueError, match="read-only"):
                    getattr(tree_a, field)[0] = 7
            assert tree_a.demand is not tree_b.demand

    def test_each_parameter_is_part_of_the_key(self):
        inst = random_instance(np.random.default_rng(7), n=40)
        base = build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 2)
        for other in (
            build_tree(inst, "blT", GAMMA, None, 2),
            build_tree(inst, "hlT", GAMMA, Fraction(2, 5), 2),
            build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 4),
        ):
            assert other.size is not base.size
            assert any(
                getattr(other, field).tolist() != getattr(base, field).tolist()
                for field in SHAPE_FIELDS
            )

    @pytest.mark.parametrize("fraction", [None, 0.5, "1/2"])
    def test_every_spelling_of_one_half_shares_one_shape(self, r1_instance, fraction):
        half = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2))
        assert build_tree(r1_instance, "hlT", GAMMA, fraction).places is half.places

    def test_tree_deeper_than_the_recursion_limit(self):
        # Each split at 999/1000 sheds a room or a few to the right, so 4,096
        # rooms make 2,100 levels, more frames than Python's default limit.
        tree = build_tree(LARGE, "hlT", GAMMA, Fraction(999, 1000), 2)
        assert (tree.height, len(tree.size)) == (2100, 5985)
        inner = np.flatnonzero(tree.left >= 0)
        left, right = tree.left[inner], tree.right[inner]
        assert (left == inner + 1).all()
        assert sorted(np.concatenate((left, right)).tolist()) == list(range(1, len(tree.size)))
        for child in (left, right):
            assert (tree.heights[child] == tree.heights[inner] + 1).all()
        assert (tree.size[left] + tree.size[right] == tree.size[inner]).all()
        assert (tree.demand[:, left] + tree.demand[:, right] == tree.demand[:, inner]).all()
        _, levels = dctree._shape("hlT", LARGE.n_rooms, Fraction(999, 1000), 2)
        assert len(levels) == tree.height
        for h, (parents, lefts, rights) in enumerate(levels):
            assert (tree.heights[parents] == h).all()
            assert (lefts == tree.left[parents]).all() and (rights == tree.right[parents]).all()
        assert sorted(np.concatenate([parents for parents, _, _ in levels]).tolist()) == inner.tolist()

    def test_cache_holds_no_instance(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            inst = random_instance(np.random.default_rng(9), n=20)
            for algorithm in TREE_ALGORITHMS:
                build_tree(inst, algorithm, GAMMA)
            alive = weakref.ref(inst)
            del inst
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


@pytest.mark.parametrize("algorithm", TREE_ALGORITHMS)
def test_tree_is_freed_without_a_gc_pass(r1_instance, algorithm):
    # A tree in a reference cycle lives until the collector runs, so the
    # trees of an experiment would pile up between passes.
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = build_tree(r1_instance, algorithm, GAMMA)
        root = weakref.ref(tree.root)
        del tree
        assert root() is None
    finally:
        if enabled:
            gc.enable()
