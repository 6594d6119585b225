from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
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
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS, TreeParams
from dcknap.solvers import SORT_KEYS
from conftest import random_instance

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
def trees(draw):
    """A random feasible instance and a tree over it, every parameter drawn."""
    caps = draw(st.lists(st.integers(1, 120), min_size=1, max_size=40))
    inst = ProblemInstance(
        caps, proctors_from_rate(caps, draw(st.integers(1, 90))),
        draw(st.integers(0, sum(caps))),
    )
    algorithm = draw(st.sampled_from(TREE_ALGORITHMS))
    fraction = draw(st.fractions(0, 1, max_denominator=20)) if algorithm == "hlT" else None
    key = draw(st.sampled_from(SORT_KEYS))
    sort = SortCriterion(key, seed=draw(st.integers(0, 2**32)) if key == "random" else None)
    tree = build_tree(
        inst, algorithm, sort, fraction=fraction,
        min_size=draw(st.integers(1, 5)), rounding=draw(st.sampled_from(ROUNDING_MODES)),
    )
    return inst, tree


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
