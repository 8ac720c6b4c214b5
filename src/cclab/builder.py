"""Recursive protocol construction from large monochromatic rectangles.

The engine: find a large monochromatic rectangle R of the current
subfunction (directly, or through the lift-and-extract pipeline), use
the rank split to decide which player announces consistency with R,
and recurse into the stacked block containing R (rank drops to at most
(rk+3)/2) or its complement (the input space shrinks).  The base
case, ``_class_tree``: rank < 5, via the distinct-row protocol (at most
16 row classes, hence at most 32 leaves).  A block of one cell is only
ever the root, since each child of a split keeps a whole side of a
block of rank >= 5, and the base case answers it with one leaf.  In
direct mode a child's maximum-rectangle search is capped by the area
its parent split on.

Rows and columns are deduplicated once at the top, which caps the cell
count at 2**(2*rank) and makes the shrink-step budget checkable; that
and the low-rank base case's row grouping use ``matrix.classes``.  The
trace records every step; rank_steps/shrink_steps are maxima over
root-to-leaf recursion paths, matching the budgets
ceil(log_{5/4} rank) + 1 and ceil(8 * rank * C**(1/n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantError, as_int
from .limits import SearchLimits
from .matrix import BoolFun, check_lift, classes, rank, restrict, xor_power
from .protocol import (ALICE, BOB, Leaf, Node, ProtocolTree, balance,
                       exact_cc, verify)
from .rectangles import (EXACT, Rectangle, check_monochromatic, cover_number,
                         max_mono_rectangle)
from .entropy import extract_rectangle

DIRECT_MAX = "direct"
LIFT_EXTRACT = "lift"

ALICE_SENDS = "alice_sends"
BOB_SENDS = "bob_sends"

BASE_LEAF_FACTOR = 32  # distinct-row base case: <= 16 classes x 2 leaves


@dataclass(frozen=True)
class BuildStep:
    kind: str  # "split" | "low_rank"
    rows: int
    cols: int
    rank: int
    side: str | None = None
    rect_area: int | None = None
    removed_cells: int | None = None
    area_check: bool | None = None
    shrink_check: bool | None = None


@dataclass(frozen=True)
class BuildTrace:
    steps: tuple
    rank_steps: int    # max over root-leaf recursion paths
    shrink_steps: int  # max over root-leaf recursion paths
    input_rank: int
    cover_value: int | None
    n: int

    def budgets_ok(self) -> bool:
        """Both step budgets, plus every recorded integer check."""
        if self.rank_steps > rank_step_budget(self.input_rank):
            return False
        if self.cover_value is not None:
            if self.shrink_steps > shrink_step_budget(
                    self.input_rank, self.cover_value, self.n):
                return False
        for s in self.steps:
            if s.area_check is False or s.shrink_check is False:
                return False
        return True


def _ceil_nth_root(t, n: int) -> int:
    """Smallest integer s >= 0 with s**n >= t."""
    hi = 1
    while hi ** n < t:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n >= t:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _ceil_log_54(k: int) -> int:
    """Smallest r >= 0 with (5/4)**r >= k."""
    r = 0
    num, den = 1, 1
    while num < k * den:
        num *= 5
        den *= 4
        r += 1
    return r


def rank_step_budget(rk: int) -> int:
    return _ceil_log_54(rk) + 1


def shrink_step_budget(rk: int, cover_value: int, n: int) -> int:
    """ceil(8 * rk * C**(1/n)) evaluated exactly."""
    if cover_value < 1:
        raise ValueError("cover value must be >= 1")
    return _ceil_nth_root((8 * rk) ** n * cover_value, n)


def leaf_budget(rk: int, cover_value, n: int):
    """binom(ceil(8*rk*C**(1/n)) + r*, r*) * 32 with
    r* = ceil(log_{5/4} rk) + 1, as an exact big integer."""
    if rk < 1:
        raise ValueError("rank must be >= 1")
    r_star = rank_step_budget(rk)
    s_star = shrink_step_budget(rk, cover_value, n)
    return math.comb(s_star + r_star, r_star) * BASE_LEAF_FACTOR


def _area_guarantee(area: int, cells: int, cover_value: int, n: int) -> bool:
    """Integer form of area >= cells / (4 * C**(1/n))."""
    return (4 * area) ** n * cover_value >= cells ** n


def _check_strategy(strategy: str) -> None:
    if strategy not in (DIRECT_MAX, LIFT_EXTRACT):
        raise ValueError(f"unknown strategy {strategy!r}")


def find_big_rectangle(f: BoolFun, n: int, strategy: str = DIRECT_MAX,
                       cap: int | None = None) -> Rectangle:
    """A large monochromatic rectangle of f.

    strategy "lift": build f^(+n), take its maximum monochromatic
    rectangle and pull it back through extract_rectangle (the literal
    proof path; needs the lift under the desk-scale cap).
    strategy "direct": the maximum monochromatic rectangle of f itself,
    which is at least as large as any extraction can promise.  ``cap``,
    a bound on the area of every monochromatic rectangle of f, goes to
    that search (``max_mono_rectangle``); the lift's rectangles are not
    bounded by it, so the lift strategy ignores it.
    """
    _check_strategy(strategy)
    if strategy == DIRECT_MAX:
        return max_mono_rectangle(f, cap)
    try:
        big = max_mono_rectangle(xor_power(f, n))
    except CapacityError as e:
        raise CapacityError(
            f"{e}; use strategy '{DIRECT_MAX}' for submatrices whose "
            f"lift exceeds the cap") from None
    return extract_rectangle(f, n, big)[0]


def choose_split(f: BoolFun, R: Rectangle, rk: int) -> tuple:
    """Decide which player announces consistency with R (rk = rank(f)):
    (side, the rank of that side's block).

    A side qualifies when its block's rank is at most (rk+3)/2.  The
    row side, [R A] (R's rows, all columns), is ranked first and taken
    when it qualifies; the column side, [R; B] (all rows, R's columns),
    is ranked only when it does not.  The rank chain guarantees that
    one side qualifies; neither qualifying is a bug.
    """
    if check_monochromatic(f, R) is None:
        raise ValueError("R must be monochromatic in f")
    rank_row = rank(restrict(f, R.row_set, range(f.cols)))
    if 2 * rank_row <= rk + 3:
        return ALICE_SENDS, rank_row
    rank_col = rank(restrict(f, range(f.rows), R.col_set))
    if 2 * rank_col <= rk + 3:
        return BOB_SENDS, rank_col
    raise InvariantError(
        f"no qualifying split: rank[R A]={rank_row}, "
        f"rank[R;B]={rank_col}, rank(f)={rk}")


def build_protocol(f: BoolFun, n: int, strategy: str = DIRECT_MAX,
                   cover_value: int | None = None):
    """Build a protocol tree for f along the rank-splitting recursion.

    Returns (tree, trace): the tree is checked here to compute f, and
    the trace is audited against the paper's budgets (``budgets_ok``):
    the rank steps always, and the shrink steps and area checks when
    cover_value, the exact cover number of f^(+n), is given.  Either
    check failing is a bug, raised as InvariantError.

    In direct mode each child of a split is a submatrix of its parent,
    so the area of the maximum rectangle its parent split on caps the
    child's search; the root, and every block in lift mode, whose
    rectangle is not a maximum, is searched without a cap.
    """
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_strategy(strategy)
    row_classes, col_classes = classes(f)
    reps_r = [cls[0] for cls in row_classes]
    reps_c = [cls[0] for cls in col_classes]
    fd = BoolFun(f.sign[np.ix_(reps_r, reps_c)], label=f.label)

    input_rank = rank(fd)
    if fd.cells > 2 ** (2 * input_rank):
        raise InvariantError("deduplicated cell count exceeds 2**(2*rank)")

    steps = []

    def rec(cur_rows, cur_cols, rk=None, cap=None):
        # The tree of the block cur_rows x cur_cols of rank rk, ranked
        # here when the parent does not know it, and the most rank and
        # shrink steps on its root-to-leaf paths; cap bounds the area
        # of the block's rectangles.
        sub = BoolFun(fd.sign[np.ix_(cur_rows, cur_cols)])
        if rk is None:
            rk = rank(sub)
        cells = sub.cells
        if rk < 5:
            steps.append(BuildStep("low_rank", sub.rows, sub.cols, rk))
            groups = classes(fd, sum(1 << x for x in cur_rows),
                             sum(1 << y for y in cur_cols))[0]
            if len(groups) > 16:
                raise InvariantError("low-rank base case with > 16 row classes")
            return _class_tree(fd, groups, cur_cols), 0, 0

        rect = find_big_rectangle(sub, n, strategy, cap)
        side, side_rank = choose_split(sub, rect, rk)
        alice = side == ALICE_SENDS

        def part(s):  # a set of the speaker's indices, as (rows, cols)
            return (s, cur_cols) if alice else (cur_rows, s)

        cur = cur_rows if alice else cur_cols
        inside = tuple(cur[i] for i in (rect.row_set if alice else rect.col_set))
        kept = set(inside)
        outside = tuple(x for x in cur if x not in kept)
        in_rows, in_cols = part(inside)
        removed = len(in_rows) * len(in_cols)
        area_check = shrink_check = None
        if cover_value is not None:
            area_check = _area_guarantee(rect.area, cells, cover_value, n)
            shrink_check = _area_guarantee(removed, cells, cover_value, n)
        steps.append(BuildStep(
            "split", sub.rows, sub.cols, rk, side=side,
            rect_area=rect.area, removed_cells=removed,
            area_check=area_check, shrink_check=shrink_check))

        # The stacked block is the chosen side's block, whose rank
        # choose_split computed; the complement ranks itself.  In direct
        # mode rect is this block's maximum, so its area caps both.
        child_cap = rect.area if strategy == DIRECT_MAX else None
        child1, r1, s1 = rec(in_rows, in_cols, side_rank, child_cap)
        child0, r0, s0 = rec(*part(outside), None, child_cap)
        node = Node(ALICE if alice else BOB, frozenset(inside), child0, child1)
        return node, max(r1 + 1, r0), max(s1, s0 + 1)

    try:
        root_d, rank_steps, shrink_steps = rec(
            tuple(range(fd.rows)), tuple(range(fd.cols)), input_rank)
    finally:
        rec = None  # rec holds itself in its closure: break the cycle

    tree = ProtocolTree(_expand(root_d, row_classes, col_classes),
                        f.rows, f.cols)
    if not verify(tree, f):
        raise InvariantError("built protocol failed verification")
    trace = BuildTrace(steps=tuple(steps), rank_steps=rank_steps,
                       shrink_steps=shrink_steps, input_rank=input_rank,
                       cover_value=cover_value, n=n)
    if not trace.budgets_ok():
        raise InvariantError("built protocol exceeds the paper's budgets")
    return tree, trace


def _class_tree(fd, groups, cols):
    """The base case's tree on a block of fd of rank < 5, given as its
    row classes ``groups``, at most 2**4 = 16, and its columns ``cols``.
    Alice says if her row is in the first half of the classes until one
    is left; its row, if constant, is a leaf, else Bob says if his
    column is where it is 1.  Hence at most 16 x 2 = 32 leaves, the
    BASE_LEAF_FACTOR of ``leaf_budget``."""
    if len(groups) > 1:
        mid = len(groups) // 2
        first = frozenset(x for mem in groups[:mid] for x in mem)
        return Node(ALICE, first, _class_tree(fd, groups[mid:], cols),
                    _class_tree(fd, groups[:mid], cols))
    ones = frozenset(y for y in cols if fd.f_value(groups[0][0], y))
    if not ones:
        return Leaf(0)
    if len(ones) == len(cols):
        return Leaf(1)
    return Node(BOB, ones, Leaf(0), Leaf(1))


def _expand(node, row_classes, col_classes):
    """The tree over the deduplicated rows and columns as a tree over
    all of them: each predicate holds the members of its classes."""
    if isinstance(node, Leaf):
        return node
    side = row_classes if node.speaker == ALICE else col_classes
    members = frozenset(i for idx in node.subset for i in side[idx])
    return Node(node.speaker, members,
                _expand(node.child0, row_classes, col_classes),
                _expand(node.child1, row_classes, col_classes))


def theorem_report(f: BoolFun, n: int, limits: SearchLimits | None = None,
                   strategy: str = DIRECT_MAX) -> tuple:
    """One row of the lower-bound experiment and whether it is exact:
    (row, exact).  The row dict holds exact-or-interval D(f), in D_lo and
    D_hi, exact-or-bounded C(f^(+n)), in C_lo and C_hi, and the unitless
    ratio rho = (log2(C)/n + log2 rk) * log2 rk / D, reported for
    inspection and never asserted against a target.  rank 1 makes the
    bound vacuous and sets the degenerate flag.  exact holds when both D
    and C are exact."""
    check_lift(f, n)  # before the searches: the cover below lifts f
    _check_strategy(strategy)
    limits = limits or SearchLimits()
    cc = exact_cc(f, limits)
    cov = cover_number(xor_power(f, n), EXACT, limits)
    cover_value = cov.value if cov.exact else None
    tree, trace = build_protocol(f, n, strategy=strategy,
                                 cover_value=cover_value)
    rk = trace.input_rank  # rank(f): deduplication keeps the rank
    bal = balance(tree)

    log_c = math.log2(cov.upper) if cov.exact else None
    rho = None
    if cc.exact and cov.exact and rk >= 2 and cc.upper > 0:
        rho = (log_c / n + math.log2(rk)) * math.log2(rk) / cc.upper
    row = {
        "name": f.label or "f", "rows": f.rows, "cols": f.cols, "rank": rk,
        "D_lo": cc.lower, "D_hi": cc.upper, "n": n,
        "C_lo": cov.lower, "C_hi": cov.upper, "logC": log_c, "rho": rho,
        "degenerate": rk == 1, "leaves": tree.leaf_count,
        "balanced_depth": bal.depth,
    }
    return row, cc.exact and cov.exact
