"""Protocol trees and exact deterministic communication complexity.

A protocol tree is a rooted binary tree.  Each internal node names a
speaker and carries an explicit subset of that speaker's indices in
the ROOT index space: inputs in the subset branch to child1, the rest
to child0 (one bit per node, any speaker may speak at any node).
Leaves carry output bits.  Trees are immutable and validated on
construction: every predicate must be contained in the set of inputs
that can still reach its node.

``balance`` restructures a tree with t >= 2 leaves into a shallow one:
split on the deepest subtree holding ceil(t/3) to floor(2t/3) leaves,
the earliest in preorder (node, child0, child1), have both players
announce whether their input is consistent with reaching it, and
recurse on the four residual protocols.  The output depth is at most
ceil(2 * log_{3/2} leaf_count).

``exact_cc`` computes D(f) by min-max search over submatrices,
memoized by their (row mask, column mask) pair.  Each search node
keeps one row and one column per class of ``matrix.classes``, the one
row/column deduplication.  Its lower bound is the leaf-count rank
floor ceil(log2(rank(M1) + rank(M0))) of its f = 1 and f = 0
indicators, and the cheaper side announcing its class is the
incumbent upper bound, so bounds that meet end the search at that
node; most inputs close at the root.  It returns a
``limits.SearchResult``: exact, or on exhausting the caps the INTERVAL
of the root's bounds, never a wrong exact claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureError, as_int
from .limits import (EXACT, INTERVAL, BudgetExceeded, Meter, SearchLimits,
                     SearchResult)
from .matrix import (BoolFun, check_cap, classes, exact_rank, index_bits,
                     row_bits)

ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class Leaf:
    output: int


@dataclass(frozen=True)
class Node:
    speaker: str
    subset: frozenset
    child0: object
    child1: object


class ProtocolTree:
    """Immutable, validated protocol tree over a rows x cols input
    space, rows and cols read by ``errors.as_int`` (StructureError if
    not integers), within the desk-scale cap (CapacityError past it,
    before any index set is built)."""

    __slots__ = ("root", "n_rows", "n_cols", "leaf_count", "depth")

    def __init__(self, root, n_rows: int, n_cols: int):
        try:
            n_rows, n_cols = as_int(n_rows, "rows"), as_int(n_cols, "cols")
        except ValueError as e:
            raise StructureError(str(e)) from None
        if n_rows < 1 or n_cols < 1:
            raise StructureError("input space must be non-empty")
        check_cap("protocol input space has", n_rows * n_cols)
        try:
            leaves, depth = _check(root, frozenset(range(n_rows)),
                                   frozenset(range(n_cols)))
        except RecursionError:
            raise StructureError("protocol tree is nested too deeply "
                                 "to check") from None
        self.root = root
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.leaf_count = leaves
        self.depth = depth

    def __eq__(self, other):
        return (isinstance(other, ProtocolTree) and self.root == other.root
                and self.n_rows == other.n_rows and self.n_cols == other.n_cols)

    def __repr__(self):
        return (f"<ProtocolTree {self.n_rows}x{self.n_cols} "
                f"leaves={self.leaf_count} depth={self.depth}>")


def _branch(node, rx, ry, bit):
    """The inputs of rx x ry that take branch bit at node: the
    speaker's side cut to the subset (bit 1) or to the rest (bit 0)."""
    if node.speaker == ALICE:
        return (rx & node.subset if bit else rx - node.subset), ry
    return rx, (ry & node.subset if bit else ry - node.subset)


def _check(node, rx, ry):
    if isinstance(node, Leaf):
        if not _is_int(node.output) or node.output not in (0, 1):
            raise StructureError(f"leaf output must be 0 or 1, got {node.output}")
        return 1, 0
    if not isinstance(node, Node):
        raise StructureError(f"not a tree node: {node!r}")
    if node.speaker not in (ALICE, BOB):
        raise StructureError(f"unknown speaker {node.speaker!r}")
    if not node.subset <= (rx if node.speaker == ALICE else ry):
        raise StructureError(
            "predicate is not a subset of the inputs reaching its node")
    l1, d1 = _check(node.child1, *_branch(node, rx, ry, 1))
    l0, d0 = _check(node.child0, *_branch(node, rx, ry, 0))
    return l1 + l0, 1 + max(d1, d0)


def evaluate(t: ProtocolTree, x: int, y: int):
    """Run the protocol on (x, y): returns (output bit, bit transcript)."""
    x, y = as_int(x, "x"), as_int(y, "y")
    if not (0 <= x < t.n_rows and 0 <= y < t.n_cols):
        raise ValueError("input out of range")
    node = t.root
    bits = []
    while isinstance(node, Node):
        b = 1 if (x if node.speaker == ALICE else y) in node.subset else 0
        bits.append(b)
        node = node.child1 if b else node.child0
    return node.output, tuple(bits)


def first_mismatch(t: ProtocolTree, f: BoolFun):
    """The first input (x, y), in row-major order, on which the tree's
    output differs from f, or None if it computes f everywhere.

    The leaves' rectangles partition the inputs, so this is the least
    of each leaf's first mismatch.  One walk, on an explicit stack,
    carries each node's (row mask, column mask) down to its leaves, and
    a leaf checks its rows against row masks of f's values."""
    if t.n_rows != f.rows or t.n_cols != f.cols:
        raise ValueError("tree and function index spaces differ")
    ones = row_bits(f.sign < 0)  # the cells where f = 1
    best = None
    stack = [(t.root, (1 << f.rows) - 1, (1 << f.cols) - 1)]
    while stack:
        node, rmask, cmask = stack.pop()
        if isinstance(node, Node):
            part = sum(1 << i for i in node.subset)
            if node.speaker == ALICE:
                stack += ((node.child0, rmask & ~part, cmask),
                          (node.child1, rmask & part, cmask))
            else:
                stack += ((node.child0, rmask, cmask & ~part),
                          (node.child1, rmask, cmask & part))
            continue
        flip = cmask if node.output else 0
        for x in index_bits(rmask):
            wrong = (ones[x] ^ flip) & cmask
            if wrong:
                cell = x, (wrong & -wrong).bit_length() - 1
                if best is None or cell < best:
                    best = cell
                break
    return best


def verify(t: ProtocolTree, f: BoolFun) -> bool:
    """Exhaustive check that the tree computes f on every input."""
    return first_mismatch(t, f) is None


# ---------------------------------------------------------------------------
# Balancing
# ---------------------------------------------------------------------------

def _simplify(node, rx, ry, depth, kept):
    """Restrict a tree to the input rectangle rx x ry, collapsing nodes
    whose predicate no longer splits and normalizing predicates to the
    reachable sets.  Empty context yields a dummy leaf.

    Returns the restricted tree and its leaf count.  Each node of it is
    recorded in kept as [depth, rx, ry, node, leaves], in preorder
    (node, child0, child1), rx x ry being the inputs that reach it.
    """
    if not rx or not ry:
        node = Leaf(0)
    if isinstance(node, Leaf):
        kept.append([depth, rx, ry, node, 1])
        return node, 1
    rx1, ry1 = _branch(node, rx, ry, 1)
    rx0, ry0 = _branch(node, rx, ry, 0)
    if not (rx1 and ry1):
        return _simplify(node.child0, rx, ry, depth, kept)
    if not (rx0 and ry0):
        return _simplify(node.child1, rx, ry, depth, kept)
    entry = [depth, rx, ry]
    kept.append(entry)
    child0, leaves0 = _simplify(node.child0, rx0, ry0, depth + 1, kept)
    child1, leaves1 = _simplify(node.child1, rx1, ry1, depth + 1, kept)
    node = Node(node.speaker, rx1 if node.speaker == ALICE else ry1,
                child0, child1)
    entry += node, leaves0 + leaves1
    return node, entry[4]


def _balance_rec(node, rx, ry):
    """node restricted to rx x ry (``_simplify``), then balanced.  The
    split node is read from the restriction's record (``max`` keeps the
    first of the deepest); going down into the child with more leaves
    always meets one."""
    kept = []
    node, total = _simplify(node, rx, ry, 0, kept)
    if isinstance(node, Leaf):
        return node
    _, sa, sb, centroid, _ = max(
        (e for e in kept if -(-total // 3) <= e[4] <= 2 * total // 3),
        key=lambda e: e[0])
    sub11 = _balance_rec(centroid, sa, sb)
    sub10 = _balance_rec(node, sa, ry - sb)
    sub01 = _balance_rec(node, rx - sa, sb)
    sub00 = _balance_rec(node, rx - sa, ry - sb)
    return Node(ALICE, sa,
                Node(BOB, sb, sub00, sub01),
                Node(BOB, sb, sub10, sub11))


def balance(t: ProtocolTree) -> ProtocolTree:
    """Equivalent tree of depth <= ceil(2 * log_{3/2} leaf_count).

    A single-leaf tree is returned unchanged.
    """
    if isinstance(t.root, Leaf):
        return t
    root = _balance_rec(t.root, frozenset(range(t.n_rows)),
                        frozenset(range(t.n_cols)))
    return ProtocolTree(root, t.n_rows, t.n_cols)


# ---------------------------------------------------------------------------
# Exact communication complexity
# ---------------------------------------------------------------------------

def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k >= 1 else 0


def exact_cc(f: BoolFun, caps: SearchLimits | None = None) -> SearchResult:
    """Exact deterministic communication complexity by exhaustive
    protocol search, memoized over (row mask, column mask) pairs.

    A node's floor is the leaf-count rank bound: a protocol's leaves
    partition the node into monochromatic rectangles, at least rank(M1)
    of them 1-rectangles and rank(M0) 0-rectangles.  The size it
    reaches is limited by these two exact ranks, not by the search.
    The root's bounds start the search, so bounds that meet are an
    exact answer without a split.  On cap exhaustion returns the
    interval [root floor, root ceiling].
    """
    meter = Meter(caps or SearchLimits())
    # Each color's indicator: the floor sums their ranks, so which
    # color is f = 1 does not matter.
    indicators = [(f.sign == c).tolist() for c in (1, -1)]
    memo = {}  # (rmask, cmask) -> value

    def bounds(rmask, cmask):
        # The masks of the class representatives, the leaf-count rank
        # floor, and the cheaper side announcing its class.  A
        # monochromatic node has floor 0 and is a leaf.
        rows, cols = ([members[0] for members in cls]
                      for cls in classes(f, rmask, cmask))
        lo = _ceil_log2(sum(exact_rank([[m[x][y] for y in cols] for x in rows])
                            for m in indicators))
        hi = _ceil_log2(min(len(rows), len(cols))) + 1 if lo else 0
        return sum(1 << x for x in rows), sum(1 << y for y in cols), lo, hi

    def solve(rmask, cmask):
        meter.tick()
        best = memo.get((rmask, cmask))
        if best is None:
            best = memo[rmask, cmask] = split(*bounds(rmask, cmask))
        return best

    def split(rmask, cmask, lo, best):
        # best lowered by the children's values, stopping once it is lo.
        if best > lo:
            for kid1, kid2 in _splits(rmask, cmask):
                d1 = solve(*kid1)
                if d1 + 1 < best:
                    best = min(best, 1 + max(d1, solve(*kid2)))
                    if best == lo:
                        break
        return best

    meter.tick()
    rmask, cmask, lo, hi = bounds((1 << f.rows) - 1, (1 << f.cols) - 1)
    try:
        val = split(rmask, cmask, lo, hi)
    except BudgetExceeded:
        return SearchResult(INTERVAL, lo, hi, meter.nodes)
    finally:
        split = None  # solve and split hold each other: break the cycle
    return SearchResult(EXACT, val, val, meter.nodes)


def _splits(rmask: int, cmask: int):
    """The two children of each one-bit split of rmask x cmask, rows
    first, then columns.  The part holding the side's lowest index runs
    over the subsets of the other indices in ascending order, all but
    the whole side."""
    for by_rows, side in ((True, rmask), (False, cmask)):
        low = side & -side
        rest = side ^ low
        s = 0
        while s != rest:
            part = low | s
            s = (s - rest) & rest
            if by_rows:
                yield (part, cmask), (side ^ part, cmask)
            else:
                yield (rmask, part), (rmask, side ^ part)


# ---------------------------------------------------------------------------
# Serialization: nested {speaker, subset, child0, child1} / {output}
# records, wrapped with the input-space dimensions.
# ---------------------------------------------------------------------------

def _node_to_obj(node):
    if isinstance(node, Leaf):
        return {"output": node.output}
    return {"speaker": node.speaker,
            "subset": sorted(node.subset),
            "child0": _node_to_obj(node.child0),
            "child1": _node_to_obj(node.child1)}


def _node_from_obj(obj):
    if not isinstance(obj, dict):
        raise StructureError("tree node must be an object")
    if "output" in obj:
        if obj.keys() & {"speaker", "subset", "child0", "child1"}:
            raise StructureError("tree leaf must not hold node fields")
        return Leaf(output=obj["output"])
    try:
        subset = obj["subset"]
        if not isinstance(subset, list) or not all(map(_is_int, subset)):
            raise StructureError("tree node subset must be a list of integers")
        return Node(speaker=obj["speaker"], subset=frozenset(subset),
                    child0=_node_from_obj(obj["child0"]),
                    child1=_node_from_obj(obj["child1"]))
    except KeyError as e:
        raise StructureError(f"tree node missing field {e}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def tree_to_obj(t: ProtocolTree) -> dict:
    return {"rows": t.n_rows, "cols": t.n_cols, "tree": _node_to_obj(t.root)}


def format_tree(t: ProtocolTree) -> str:
    """The protocol file of t: exactly
    ``json.dumps(tree_to_obj(t), sort_keys=True, indent=2) + "\\n"``,
    written straight from the nodes, since json's indent encoder runs in
    pure Python.  Nodes wait on an explicit stack, in preorder (keys
    sorted: child0, child1, speaker, subset), so no tree is too deep
    for it."""
    out = [f'{{\n  "cols": {t.n_cols},\n  "rows": {t.n_rows},\n  "tree": ']
    stack = [(t.root, 2)]  # nodes with their nesting level, and text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        pad = "  " * level
        close = f"\n{pad[2:]}}}"
        if isinstance(node, Leaf):
            out.append(f'{{\n{pad}"output": {node.output}{close}')
            continue
        subset = "[]"
        if node.subset:
            line = f"\n{pad}  "  # one member a line
            members = f",{line}".join(map(str, sorted(node.subset)))
            subset = f"[{line}{members}\n{pad}]"
        out.append(f'{{\n{pad}"child0": ')
        stack += (f',\n{pad}"speaker": "{node.speaker}",\n'
                  f'{pad}"subset": {subset}{close}',
                  (node.child1, level + 1), f',\n{pad}"child1": ',
                  (node.child0, level + 1))
    out.append("\n}\n")
    return "".join(out)


def tree_from_obj(obj) -> ProtocolTree:
    if (not isinstance(obj, dict) or "tree" not in obj
            or not _is_int(obj.get("rows")) or not _is_int(obj.get("cols"))):
        raise StructureError("protocol file must hold {rows, cols, tree} "
                             "with integer rows and cols")
    return ProtocolTree(_node_from_obj(obj["tree"]), obj["rows"], obj["cols"])
