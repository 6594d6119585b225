"""Binary decomposition trees: split a room list in two, hand each side a
proportional share of the demand, and recurse until lists are small.

One builder, `build_tree`, grows both trees of the paper.  The head-left
tree (hlT) puts the first floor(fraction * size) rooms of the (once-sorted)
list into the left child; the balanced tree (blT) puts the even positions
left and the odd positions right.  `TreeParams` checks the parameters and
owns the one default: an hlT tree without a head fraction splits at 1/2.
Vertices are numbered in left pre-order, root = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, InvalidPartitionError
from .model import ProblemInstance
from .rounding import as_fraction
from .solvers import SortCriterion

ROUNDING_MODES = ("ceil", "floor")

HEAD_LEFT = "hlT"
BALANCED = "blT"
TREE_ALGORITHMS = (HEAD_LEFT, BALANCED)


def split_demand(
    parent_demand: int,
    left_caps_sum: int,
    total_caps_sum: int,
    rounding: str = "ceil",
) -> tuple[int, int]:
    """Split a demand proportionally to the left side's capacity share.

    The left child gets round(parent_demand * left_caps_sum / total_caps_sum)
    with the requested rounding; the right child gets the remainder.

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
    if not 0 < left_caps_sum < total_caps_sum:
        raise InvalidPartitionError(
            f"degenerate partition: left capacity {left_caps_sum} "
            f"of total {total_caps_sum}"
        )
    if parent_demand > total_caps_sum:
        raise InvalidPartitionError(
            f"demand {parent_demand} exceeds the partitioned capacity {total_caps_sum}"
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


@dataclass
class DCTree:
    instance: ProblemInstance
    root: DCNode
    nodes: list[DCNode]  # pre-order
    height: int  # of the deepest vertex

    def subinstance(self, node: DCNode) -> ProblemInstance:
        """The covering problem restricted to one node."""
        inst = self.instance
        return ProblemInstance(
            capacities=tuple(inst.capacities[i] for i in node.rooms),
            proctors=tuple(inst.proctors[i] for i in node.rooms),
            demand=node.demand,
        )


def build_tree(
    instance: ProblemInstance,
    algorithm: str,
    sort: SortCriterion,
    fraction=None,
    min_size: int = 2,
    rounding: str = "ceil",
) -> DCTree:
    """Decomposition tree of `instance`; `algorithm` is "hlT" or "blT".

    The room list is sorted once at the root by `sort`; children inherit
    the order.  hlT puts the leading floor(fraction * size) rooms left
    (`fraction` None means 1/2, see `TreeParams`); blT takes no fraction and
    puts the even positions left, the odd ones right.  Recursion stops once
    a list has at most `min_size` rooms or a child would come out empty.
    """
    params = TreeParams(algorithm, sort, fraction, min_size, rounding)
    instance.require_feasible()
    caps = instance.capacities
    nodes: list[DCNode] = []

    def splitter(rooms):
        if params.algorithm == HEAD_LEFT:
            f = params.fraction
            size = (f.numerator * len(rooms)) // f.denominator
            return rooms[:size], rooms[size:]
        return rooms[0::2], rooms[1::2]

    def grow(rooms, demand, height):
        node = DCNode(rooms=tuple(rooms), demand=demand, height=height, index=len(nodes))
        nodes.append(node)
        if len(rooms) <= params.min_size:
            return node
        left_rooms, right_rooms = splitter(rooms)
        if not left_rooms or not right_rooms:
            return node
        left_caps = sum(caps[i] for i in left_rooms)
        right_caps = sum(caps[i] for i in right_rooms)
        d_left, d_right = split_demand(
            demand, left_caps, left_caps + right_caps, params.rounding
        )
        node.left = grow(left_rooms, d_left, height + 1)
        node.right = grow(right_rooms, d_right, height + 1)
        return node

    root = grow(sort.order(instance), instance.demand, 0)
    height = max(node.height for node in nodes)
    return DCTree(instance=instance, root=root, nodes=nodes, height=height)


def prune(tree: DCTree, h: int) -> list[DCNode]:
    """Leaves of the tree cut at height `h`, in pre-order.

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
    """Graphviz rendering of the tree structure: one node per subproblem."""
    lines = ["digraph dctree {"]
    for node in tree.nodes:
        lines.append(
            f'  v{node.index} [label="D={node.demand} |V|={len(node.rooms)}"];'
        )
    for node in tree.nodes:
        if not node.is_leaf:
            lines.append(f"  v{node.index} -> v{node.left.index};")
            lines.append(f"  v{node.index} -> v{node.right.index};")
    lines.append("}")
    return "\n".join(lines) + "\n"
