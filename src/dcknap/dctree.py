"""Binary decomposition trees: split a room list in two, hand each side a
proportional share of the demand, and recurse until lists are small.

One builder, `build_tree`, grows both trees of the paper.  The head-left
tree (hlT) puts the first floor(fraction * size) rooms of the (once-sorted)
list into the left child; the balanced tree (blT) puts the even positions
left and the odd positions right.  `TreeParams` checks the parameters and
owns the one default: an hlT tree without a head fraction splits at 1/2.
Vertices are numbered in left pre-order, root = 0, as one walk over an
explicit stack grows them.

A `DCTree` is a block of same-shape trees as integer arrays, one tree per
row: every vertex is a run of `places`, the shape's array of places in its
tree's sorted room order (a run of the order for hlT, a residue class for
blT), with its demand, height and children.  Only the orders and the
demands depend on the rooms; the rest is one cached shape per room count.
`build_block` grows a block at once, one tree per row of (trees x rooms)
arrays; `build_tree` returns a block of one.  `DCTree.nodes` views the
first tree as DCNode objects for display and tests; experiments never
build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidParameterError, InvalidPartitionError
from .model import ProblemInstance
from .rounding import as_fraction
from . import solvers
from .solvers import SortCriterion

ROUNDING_MODES = ("ceil", "floor")

HEAD_LEFT = "hlT"
BALANCED = "blT"
TREE_ALGORITHMS = (HEAD_LEFT, BALANCED)


def split_demand(
    parent_demand,
    left_caps_sum,
    total_caps_sum,
    rounding: str = "ceil",
):
    """Split a demand proportionally to the left side's capacity share.

    The left child gets round(parent_demand * left_caps_sum / total_caps_sum)
    with the requested rounding; the right child gets the remainder.  The
    arguments are ints, or int64 arrays of equal length for one split per
    entry (all products stay below 2^62, see `ProblemInstance`); the two
    demands come back in the same form.

    Neither child is ever handed more demand than its rooms hold.  With
    D = parent_demand <= T = total_caps_sum, L = left_caps_sum and
    R = T - L, the left share D*L/T is at most L and the right share D*R/T
    at most R, so

    * ceil: ceil(D*L/T) <= L, and D - ceil(D*L/T) <= D*R/T <= R;
    * floor: floor(D*L/T) <= L, and D - floor(D*L/T) < D*R/T + 1 <= R + 1,
      so the integer right demand is at most R.

    A split of a feasible parent therefore always yields feasible children.
    """
    if rounding not in ROUNDING_MODES:
        raise InvalidParameterError(f"rounding must be one of {ROUNDING_MODES}")
    demand, left, total = (np.asarray(a) for a in (parent_demand, left_caps_sum, total_caps_sum))
    degenerate = (left <= 0) | (left >= total)
    bad = degenerate | (demand > total)
    if bad.any():
        i = bad.argmax()  # the first bad split raises what its scalar call raises
        if degenerate.flat[i]:
            raise InvalidPartitionError(
                f"degenerate partition: left capacity {left.flat[i]} "
                f"of total {total.flat[i]}"
            )
        raise InvalidPartitionError(
            f"demand {demand.flat[i]} exceeds the partitioned capacity {total.flat[i]}"
        )
    num = parent_demand * left_caps_sum
    if rounding == "ceil":
        d_left = -(-num // total_caps_sum)
    else:
        d_left = num // total_caps_sum
    return d_left, parent_demand - d_left


@dataclass(frozen=True)
class TreeParams:
    """Generation parameters of a decomposition tree.

    The one place tree parameters are checked, and the one owner of the
    head-fraction default: `build_tree` and ExperimentParams construct one
    to validate and complete theirs.
    """

    algorithm: str  # "hlT" or "blT"
    sort: SortCriterion
    fraction: Fraction | None  # head fraction, hlT only; None means 1/2
    min_size: int
    rounding: str

    def __post_init__(self):
        if self.algorithm not in TREE_ALGORITHMS:
            raise InvalidParameterError(
                f"unknown tree algorithm {self.algorithm!r}; "
                f"expected one of {TREE_ALGORITHMS}"
            )
        if self.algorithm == BALANCED:
            if self.fraction is not None:
                raise InvalidParameterError("the balanced tree takes no head fraction")
        else:
            fraction = Fraction(1, 2) if self.fraction is None else as_fraction(self.fraction)
            if not 0 <= fraction <= 1:
                raise InvalidParameterError(f"head fraction must lie in [0, 1], got {fraction}")
            object.__setattr__(self, "fraction", fraction)
        if self.min_size < 1:
            raise InvalidParameterError("min_size must be >= 1")
        if self.rounding not in ROUNDING_MODES:
            raise InvalidParameterError(f"rounding must be one of {ROUNDING_MODES}")


@dataclass
class DCNode:
    """One subproblem: a room subset (positions into the root instance, in
    node order) plus its assigned demand."""

    rooms: tuple[int, ...]
    demand: int
    height: int
    index: int  # pre-order vertex number
    left: "DCNode | None" = None
    right: "DCNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(eq=False)
class DCTree:
    """Same-shape decomposition trees, stacked: row t of every
    (trees x ...) int64 array is tree t; `build_tree` gives a block of one.

    Row t of `capacities`, `proctors` and `ranks` (`model.weight_ranks`,
    comparable within a row) is tree t's instance, by room position;
    order[t] holds its room positions in the root's sorted order and
    demand[t] its vertex demands, by pre-order vertex number, root = 0.

    `places` lays the vertices end to end in pre-order, each as its
    ascending places in the root order: vertex v holds the rooms
    order[t, places[first[v] : first[v] + size[v]]], a run of the root
    order for hlT and one residue class modulo 2^depth for blT.  An inner
    vertex's left child is v + 1 and its right child right[v]; a leaf has
    left[v] = right[v] = -1.  These vertex arrays are one read-only shape
    (`_shape`), shared by every tree of the same room count and parameters.
    `nodes`, `root` and `subinstance` view the first tree.
    """

    capacities: np.ndarray
    proctors: np.ndarray
    ranks: np.ndarray
    order: np.ndarray
    demand: np.ndarray
    places: np.ndarray
    first: np.ndarray
    size: np.ndarray
    heights: np.ndarray  # of each vertex
    left: np.ndarray
    right: np.ndarray
    height: int  # of the deepest vertex

    @cached_property
    def nodes(self) -> list[DCNode]:
        """The vertices of the first tree as DCNode objects, in pre-order."""
        rooms = self.order[0, self.places].tolist()
        nodes: list[DCNode] = [None] * len(self.size)
        columns = (self.first, self.first + self.size, self.demand[0], self.heights, self.left, self.right)
        # Children come after their parent in pre-order, so build backwards.
        for v, (first, end, demand, height, left, right) in reversed(
            list(enumerate(zip(*(column.tolist() for column in columns))))
        ):
            nodes[v] = DCNode(
                rooms=tuple(rooms[first:end]),
                demand=demand,
                height=height,
                index=v,
                left=nodes[left] if left >= 0 else None,
                right=nodes[right] if right >= 0 else None,
            )
        return nodes

    @cached_property
    def root(self) -> DCNode:
        return self.nodes[0]

    def subinstance(self, node: DCNode) -> ProblemInstance:
        """The covering problem of the first tree restricted to one node."""
        rooms = list(node.rooms)
        return ProblemInstance(
            capacities=self.capacities[0, rooms].tolist(),
            proctors=self.proctors[0, rooms].tolist(),
            demand=node.demand,
        )


@lru_cache(maxsize=16)
def _shape(algorithm: str, n_rooms: int, fraction: Fraction | None, min_size: int):
    """The read-only arrays of a tree that its rooms do not change:
    (places, first, size, heights, left, right) as `DCTree` holds them, and
    per splitting level the numbers of its (parents, left and right children).

    Grown in one pre-order walk over an explicit stack (an hlT tree with a
    head fraction near 1 is thousands of levels deep), each vertex a strided
    slice of the root order (start, step, size), numbered as it is popped.
    A splitting vertex pushes its right child, then its left, so the left
    child is the next vertex.  Keyed by value, so it holds no instance.
    """
    rows, left, right, inner = [], [], [], []  # inner[h]: splitting vertices at height h
    stack = [(0, 1, n_rooms, 0, -1)]  # start, step, size, height, whose right child
    while stack:
        start, step, size, height, right_of = stack.pop()
        v = len(rows)
        rows.append((start, step, size, height))
        left.append(-1)
        right.append(-1)
        if right_of >= 0:
            right[right_of] = v
        if algorithm == HEAD_LEFT:
            # floor(f * size) in Python ints: f's numerator may pass 2^63.
            left_size = size * fraction.numerator // fraction.denominator
            right_start = start + left_size
        else:
            left_size = (size + 1) // 2
            right_start, step = start + step, 2 * step
        if size > min_size and 0 < left_size < size:
            left[v] = v + 1
            if height == len(inner):
                inner.append([])
            inner[height].append(v)
            stack.append((right_start, step, size - left_size, height + 1, v))
            stack.append((start, step, left_size, height + 1, -1))

    start, step, size, heights = np.array(rows, np.int64).T.copy()
    left, right = np.array(left, np.int64), np.array(right, np.int64)
    first = np.cumsum(size) - size
    local = np.arange(int(size.sum())) - np.repeat(first, size)  # place in the vertex
    places = np.repeat(start, size) + np.repeat(step, size) * local
    vertices = (places, first, size, heights, left, right)
    levels = tuple((parents, left[parents], right[parents]) for parents in map(np.array, inner))
    for array in (*vertices, *(a for level in levels for a in level)):
        array.flags.writeable = False
    return vertices, levels


def block_rows(params: TreeParams, n_rooms: int) -> int:
    """How many trees of `n_rooms` rooms one block holds: as many as fit in
    `solvers.BLOCK_ROOMS` flat rooms (a tree's vertex sizes summed), at
    least one."""
    (places, *_), _ = _shape(params.algorithm, n_rooms, params.fraction, params.min_size)
    return max(1, solvers.BLOCK_ROOMS // len(places))


def build_block(capacities, proctors, ranks, demands, params: TreeParams, seeds) -> DCTree:
    """The trees of a block of feasible instances of one room count, one per
    row of the (instances x rooms) int64 arrays `capacities`, `proctors` and
    `ranks`, with demands[t] the demand of row t; a `random` sort shuffles
    row t with seeds[t].

    Only the order and the demands are the instances' own.  Each vertex's
    capacity is the sum of its run of `places` in the sorted capacities; the
    demands of all trees are split one level at a time.
    """
    trees, n = capacities.shape
    vertices, levels = _shape(params.algorithm, n, params.fraction, params.min_size)
    places, first = vertices[:2]
    order = params.sort.orders(capacities, proctors, ranks, seeds)
    caps = np.take_along_axis(capacities, order, axis=1)  # by place in `order`
    capacity = np.add.reduceat(np.take(caps, places, axis=1), first, axis=1)
    demand = np.zeros((trees, len(first)), np.int64)
    demand[:, 0] = demands
    for parents, lefts, rights in levels:
        demand[:, lefts], demand[:, rights] = split_demand(
            demand[:, parents], capacity[:, lefts], capacity[:, parents], params.rounding
        )
    return DCTree(capacities, proctors, ranks, order, demand, *vertices, height=len(levels))


def build_tree(
    instance: ProblemInstance,
    algorithm: str,
    sort: SortCriterion,
    fraction=None,
    min_size: int = 2,
    rounding: str = "ceil",
) -> DCTree:
    """Decomposition tree of `instance`, a block of one (`build_block`);
    `algorithm` is "hlT" or "blT".

    The room list is sorted once at the root by `sort`; children inherit
    the order.  hlT puts the leading floor(fraction * size) rooms left
    (`fraction` None means 1/2, see `TreeParams`); blT takes no fraction and
    puts the even positions left, the odd ones right.  A vertex stays a leaf
    once it has at most `min_size` rooms or a child would come out empty.
    """
    params = TreeParams(algorithm, sort, fraction, min_size, rounding)
    instance.require_feasible()
    return build_block(*instance.arrays, np.array([instance.demand], np.int64), params, [sort.seed])


def prune(tree: DCTree, h: int) -> list[DCNode]:
    """Leaves of the first tree cut at height `h`, in pre-order.

    A node survives as a leaf if it is a true leaf at height <= h, or an
    inner node sitting exactly at height h.  The returned room sets always
    partition the root's rooms and their demands sum to the root demand.
    """
    if not 0 <= h <= tree.height:
        raise InvalidParameterError(
            f"height {h} outside the tree's range [0, {tree.height}]"
        )
    return [
        node for node in tree.nodes
        if node.height == h or (node.is_leaf and node.height < h)
    ]


def to_dot(tree: DCTree) -> str:
    """Graphviz rendering of the first tree: one node per subproblem."""
    lines = ["digraph dctree {"]
    for v, (demand, size) in enumerate(zip(tree.demand[0].tolist(), tree.size.tolist())):
        lines.append(f'  v{v} [label="D={demand} |V|={size}"];')
    for v, (left, right) in enumerate(zip(tree.left.tolist(), tree.right.tolist())):
        if left >= 0:
            lines.append(f"  v{v} -> v{left};")
            lines.append(f"  v{v} -> v{right};")
    lines.append("}")
    return "\n".join(lines) + "\n"
