"""Monochromatic rectangle machinery.

Rectangles are product sets (row subset) x (col subset) on which the
sign matrix is constant.  This module checks monochromaticity and
computes the cover number C(f) = C+(f) + C-(f): a rectangle covers
cells of its own color only, so the cover is two independent set
covers, one per color.  Each color's cover is greedy, or exact by
branch-and-bound over that color's maximal rectangles (greedy
incumbent; the coverage bound tested as a threshold on the rectangles
sorted by size, at the root over all of them and below it over those
the parent node handed down: the ones that can meet the children's
thresholds, filtered from the nearest ancestor's list cut low enough;
the color's cells are numbered in branching order, the cells that the
fewest rectangles hold first, so each node branches at its lowest
uncovered bit, on the candidates that no other dominates, found by
testing them maximal-first, once per set of uncovered cells within the
candidates' reach, and enters them in that order: by descending
coverage of its uncovered cells, ties by descending area, then index;
a child whose uncovered cells exceed what its rectangles left can cover
is counted at its parent, not entered).
Each color's lower bound, until its search finishes, is its floor,
computed once: the larger of its greedy fooling set's size and Sperner's
antichain bound on its row and column masks.  The floor is the
reported lower bound, and an exact search ends once its incumbent
reaches it.  The answer is a ``limits.SearchResult`` whose cover is a
tuple of Rectangles in lexicographic order of (row_set, col_set).  One
Close-by-One search (Kuznetsov 1993) finds the closed (maximal)
monochromatic rectangles.  Over the columns it enumerates them all.
Over the rows it finds a maximum-area one, since every maximum-area
rectangle is closed: it skips the subtrees whose area bound, from the
rows times the columns or from a matching through the other color's
cells, and lowered to the caller's cap on the area where one is given,
falls below the best area so far, and at an equal bound those whose
fixed leading rows sort after the best's.

Masks inside, Rectangles at the boundary: the searches read each
color's Python integer bitmasks from ``BoolFun.masks(color)``, so no
search knows which sign is f = 1, and handle a rectangle as its (row
mask, col mask) pair, in the set cover also as its cell mask (bit x *
cols + y, renumbered inside the exact search).  The enumeration decodes
each rectangle's two masks into sorted index tuples once, as it finds
it; the cell masks, the exact search's lists of the rectangles holding
each cell (over the rows times the columns) and the Rectangles a caller
sees, the enumerated ones and the chosen cover, are built from those
tuples.
``validate_cover`` shares none of the search's masks: it packs the
signs into row masks of its own, checks each rectangle row by row
against them and ORs its columns into each of its rows' coverage.

Determinism: every search breaks ties lexicographically, results are
identical across runs for the same inputs and limits.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_

import numpy as np

from .errors import InvariantError, ParseError, as_int, parse_count
from .limits import (BOUNDS, EXACT, INCONCLUSIVE, BudgetExceeded, Meter,
                     SearchLimits, SearchResult)
from .matrix import BoolFun, index_bits, row_bits, sorted_indices


@dataclass(frozen=True)
class Rectangle:
    """A combinatorial rectangle, optionally carrying its constant sign."""

    row_set: tuple
    col_set: tuple
    color: int | None = None

    def __post_init__(self):
        rows = sorted_indices(self.row_set)
        cols = sorted_indices(self.col_set)
        if not rows or not cols:
            raise ValueError("rectangle sides must be non-empty")
        if rows[0] < 0 or cols[0] < 0:
            raise ValueError("rectangle indices must be non-negative")
        if self.color not in (None, 1, -1):
            raise ValueError("color must be +1, -1 or None")
        object.__setattr__(self, "row_set", rows)
        object.__setattr__(self, "col_set", cols)

    @property
    def area(self) -> int:
        return len(self.row_set) * len(self.col_set)

    def key(self):
        return (self.row_set, self.col_set)


@dataclass(frozen=True)
class EnumerationResult:
    rects: tuple
    truncated: bool


def check_monochromatic(f: BoolFun, r: Rectangle) -> int | None:
    """The constant sign of f on r, or None if f is not constant there."""
    if (r.row_set[0] < 0 or r.col_set[0] < 0
            or r.row_set[-1] >= f.rows or r.col_set[-1] >= f.cols):
        raise ValueError("rectangle indices out of range")
    sub = f.sign[np.ix_(r.row_set, r.col_set)]
    v = int(sub[0, 0])
    return v if np.all(sub == v) else None


def _closure(attr_objs, a: int, attrs, first: int = 0):
    """Close the object mask ``a`` over the ascending attributes
    ``attrs``, with object masks ``attr_objs``: the mask of those whose
    objects contain ``a`` and the list of the others that meet it, or
    None once an attribute before ``first`` contains ``a``."""
    b = 0
    rest = []
    for z in attrs:
        m = attr_objs[z] & a
        if m == a:
            if z < first:
                return None
            b |= 1 << z
        elif m:
            rest.append(z)
    return b, rest


def _close_by_one(attr_objs, objs: int, visit, prune=None) -> bool:
    """Close-by-One (Kuznetsov 1993) over the attributes whose object
    masks, over ``objs`` objects, are ``attr_objs``.

    Calls ``visit(a, b)`` on every closed pair (object mask a, attribute
    mask b) in depth-first order, children by ascending attribute; a true
    return stops the search and makes this return True.  The node (a, b)
    has candidates cand, the ascending attributes outside b that meet a.
    Every pair below its child on y = cand[i] has objects within
    a2 = a & attr_objs[y], attributes within b and cand[i:], and the
    same attributes up to y: those of b below y, and y.  With ``prune``,
    each node gets ``skip = prune(a, b, cand)`` before its first child,
    and the child on cand[i] is skipped before its closure when
    ``skip(i, a2)`` holds.  The search keeps its own stack, since its
    depth can reach min(objects, attributes), beyond Python's recursion
    limit.
    """
    # ``it`` walks cand and waits on the stack while a child's subtree
    # is searched, so ``skip`` is asked only once the earlier subtrees
    # are done.
    a = (1 << objs) - 1
    b, cand = _closure(attr_objs, a, range(len(attr_objs)))
    if b and visit(a, b):
        return True
    start, it = 0, enumerate(cand)
    skip = prune and prune(a, b, cand)
    stack = []
    while True:
        for i, y in it:
            if y < start:
                continue
            a2 = a & attr_objs[y]
            if skip and skip(i, a2):
                continue
            closed = _closure(attr_objs, a2, cand, y)
            if closed is not None:  # else reached on a smaller attribute
                break
        else:  # no child left: back to the parent
            if not stack:
                return False
            a, b, cand, start, it, skip = stack.pop()
            continue
        stack.append((a, b, cand, start, it, skip))
        a, b, cand, start = a2, b | closed[0], closed[1], y + 1
        if visit(a, b):
            return True
        it = enumerate(cand)
        skip = prune and prune(a, b, cand)


def _mask_lt(p: int, q: int) -> bool:
    """Whether the sorted index tuple of mask p sorts before that of q."""
    low = (p ^ q) & -(p ^ q)  # the smallest index in exactly one of them
    return q >= low if p & low else p < low


def _maximal_masks(f: BoolFun, budget: int) -> tuple:
    """Each color's closed rectangles, {color: [(rows, cols, col mask)]}
    with rows and cols their index tuples, decoded once here, and each
    list in ``Rectangle.key`` order, and the truncated flag: if more
    than ``budget`` exist, the first ``budget`` found, color +1 first.
    A closed rectangle's rows fix its columns, so no two of one color
    share a row set, and sorting compares the rows alone."""
    found = {1: [], -1: []}
    for color, rects in found.items():
        def collect(a, b):
            if len(found[1]) + len(found[-1]) >= budget:
                return True
            rects.append((index_bits(a), index_bits(b), b))
            return False

        truncated = _close_by_one(f.masks(color)[1], f.rows, collect)
        rects.sort()
        if truncated:
            break
    return found, truncated


def enumerate_maximal_mono(
        f: BoolFun, budget: int = SearchLimits.rect_budget) -> EnumerationResult:
    """All maximal monochromatic rectangles, in lexicographic order of
    (row_set, col_set).  If more than ``budget`` exist, the first
    ``budget`` found are returned with the truncated flag set."""
    if as_int(budget, "budget") < 1:
        raise ValueError("budget must be positive")
    found, truncated = _maximal_masks(f, budget)
    rects = [Rectangle(rows, cols, color=color)
             for color, sides in found.items() for rows, cols, _ in sides]
    rects.sort(key=Rectangle.key)
    return EnumerationResult(rects=tuple(rects), truncated=truncated)


def max_mono_rectangle(f: BoolFun, cap: int | None = None) -> Rectangle:
    """A maximum-area monochromatic rectangle, ties broken
    lexicographically by (row_set, col_set).

    ``cap``, when given, must be at least the area of every
    monochromatic rectangle of f, as the maximum of a matrix that
    contains f is; it changes the work, never the answer.

    A maximum-area rectangle is closed, so this is the Close-by-One
    search with the rows as the attributes, skipping a child's subtree
    when every rectangle in it loses to the best so far on (area,
    row_set, col_set).  Below the child on row y of the node (columns a,
    rows b), with columns a2 and candidate rows cand[i:], a rectangle
    has c <= |a2| columns, r <= width = |b| + #cand[i:] rows, and the
    rows (b below y) + {y} up to y.  The tests, in order:

    - c * r <= |a2| * width;
    - r + c <= |a2| + width - mu, where mu counts the pairs (column o in
      a2, row z in cand[i:]) of a matching through cells of the other
      color: no monochromatic rectangle holds both o and z.  The area is
      then at most the largest r * c under that sum and the two limits.
      The matching is greedy: from the last candidate back, each row
      takes the first free column where its cell has the other color.
      It is built once per node, down to the first child that passes
      the first test.  A bound above ``cap`` is lowered to it, so once
      the best area reaches the cap every child falls to the last test;
    - at a bound equal to the best area, the child's rows up to y
      against the best's: where they first differ, a best holding that
      row sorts first, and so before every rectangle below the child.
    """
    best = [0, 0, 0, None]  # area, row mask, col mask, color
    top = f.cells if cap is None else cap  # no rectangle is larger

    for color in (1, -1):
        row_cols = f.masks(color)[0]
        other = f.masks(-color)[0]

        def prune(a, b, cand):
            base = b.bit_count() + len(cand)
            left = None  # left[j]: the columns of a unmatched to cand[j:]

            def skip(i, a2):
                nonlocal left
                c = a2.bit_count()
                width = base - i
                if c * width < best[0]:
                    return True
                if left is None:  # children come by ascending i
                    left = [0] * len(cand)
                    avail = a
                    for j in range(len(cand) - 1, i - 1, -1):
                        free = avail & other[cand[j]]
                        avail ^= free & -free
                        left[j] = avail
                s = width + (left[i] & a2).bit_count()
                h = s >> 1
                r = s - c if h < s - c else width if h > width else h
                bound = r * (s - r)
                if bound > top:
                    bound = top
                if bound != best[0]:
                    return bound < best[0]
                # The rows up to y where the child and the best differ:
                # skip the child when the best holds the first of them.
                y = cand[i]
                diff = ((b | 1 << y) ^ best[1]) & ((2 << y) - 1)
                return bool(best[1] & diff & -diff)

            return skip

        def keep_best(cols, rows):
            area = rows.bit_count() * cols.bit_count()
            if area > best[0] or area == best[0] and (
                    _mask_lt(rows, best[1])
                    or rows == best[1] and _mask_lt(cols, best[2])):
                best[:] = area, rows, cols, color
            return False

        _close_by_one(row_cols, f.cols, keep_best, prune)

    return Rectangle(index_bits(best[1]), index_bits(best[2]), color=best[3])


def _fooling_cells(f: BoolFun, color: int) -> int:
    """Greedy fooling set of one color, as a cell mask: the cells of
    sign ``color`` in row-major order, each kept unless it fits in one
    monochromatic rectangle with a kept cell.  Each kept cell needs its
    own cover rectangle, so the count lower-bounds the color's cover.

    Two cells of one row fit in a 1x2 rectangle, so a row keeps at most
    one: its lowest cell of the color outside ``blocked``, the columns
    of the rows of the kept cells (x2, y2) whose column y2 it holds."""
    row_cols = f.masks(color)[0]
    kept = []  # (row mask, column bit) of each kept cell
    mask = 0
    for x, cols in enumerate(row_cols):
        blocked = 0
        for cols2, bit2 in kept:
            if cols & bit2:
                blocked |= cols2
        free = cols & ~blocked
        if free:
            low = free & -free
            kept.append((cols, low))
            mask |= low << x * f.cols
    return mask


def _antichain_floor(f: BoolFun, color: int) -> int:
    """Sperner's bound on the cover of one color: the least k with
    C(k, k // 2) >= w, w the largest number of distinct non-empty row
    masks of the color that share a bit count, or of column masks.

    A cover gives each row the set of its rectangles that hold it, and
    the row's mask is the union of their columns, so rows whose masks
    are incomparable get incomparable sets.  Masks of one bit count are
    incomparable, and k rectangles give at most C(k, k // 2) pairwise
    incomparable sets (Sperner 1928); likewise for the columns."""
    w = 0
    for masks in f.masks(color):
        counts = Counter(m.bit_count() for m in set(masks) if m)
        w = max(w, max(counts.values(), default=0))
    k = 0
    while comb(k, k // 2) < w:
        k += 1
    return k


def fooling_set_bound(f: BoolFun) -> int:
    """The size of a greedy fooling set: cells no two of which fit in
    one monochromatic rectangle, a lower bound on the cover number."""
    return sum(_fooling_cells(f, c).bit_count() for c in (1, -1))


def validate_cover(f: BoolFun, cover: tuple) -> bool:
    """Independent re-validation of a cover, a tuple of Rectangles:
    every rectangle monochromatic with its stated color, and every cell
    covered.  Each row x is a mask: ``neg[x]`` of its cells of sign -1,
    ``seen[x]`` of its covered cells."""
    neg = row_bits(f.sign < 0)
    seen = [0] * f.rows
    for r in cover:
        if r.color is None:
            return False
        if r.row_set[-1] >= f.rows or r.col_set[-1] >= f.cols:
            raise ValueError("rectangle indices out of range")
        cols = sum(1 << y for y in r.col_set)
        want = cols if r.color < 0 else 0  # its rows' cells of sign -1
        for x in r.row_set:
            if neg[x] & cols != want:
                return False
            seen[x] |= cols
    full = (1 << f.cols) - 1
    return all(s == full for s in seen)


def _greedy_cover(cell_masks, cells: int) -> list:
    """Greedy set cover of ``cells`` by ``cell_masks``, which hold all
    of them: the indices picked, each the first of the masks covering
    the most cells still uncovered.  Coverage only shrinks, so a stale
    count bounds the fresh one: the popped mask is picked once its fresh
    key (-count, index) sorts before the heap's top, else pushed back
    unless it covers nothing.  The heap's counts are all negative, and
    a mask holding an uncovered cell waits there, so a mask covering
    nothing is never picked."""
    uncovered = cells
    chosen = []
    heap = [(-cm.bit_count(), idx) for idx, cm in enumerate(cell_masks)]
    heapq.heapify(heap)
    while uncovered:
        _, idx = heapq.heappop(heap)
        cov = (cell_masks[idx] & uncovered).bit_count()
        if not heap or (-cov, idx) < heap[0]:
            chosen.append(idx)
            uncovered &= ~cell_masks[idx]
        elif cov:
            heapq.heappush(heap, (-cov, idx))
    return chosen


def _closed_rows(row_cols, stray: int, cols: int) -> list:
    """Rectangles, as (row mask, col mask) pairs, that cover the stray
    cells ``stray`` of the color with the row masks ``row_cols``, cell
    (x, y) at bit x * cols + y: in row-major order, each stray cell that
    no earlier one holds closes its row x over row x's columns of the
    color.  Cells are stray when a truncated enumeration left no
    rectangle holding them."""
    extra = []
    for cell in index_bits(stray):
        x, y = divmod(cell, cols)
        if not any(a >> x & b >> y & 1 for a, b in extra):
            extra.append((_closure(row_cols, row_cols[x],
                                   range(len(row_cols)))[0], row_cols[x]))
    return extra


def cover_number(f: BoolFun, mode: str = EXACT,
                 limits: SearchLimits | None = None) -> SearchResult:
    """The cover number C(f): minimum count of monochromatic rectangles
    covering all cells (overlaps allowed).

    A rectangle covers cells of its own color only, so C(f) = C+(f) +
    C-(f), two independent set covers over one enumeration of the
    maximal rectangles.  A color's greedy cover is ``_greedy_cover`` of
    the cells its rectangles hold, and ``_closed_rows`` of the rest.
    mode="greedy": the greedy covers, reported as BOUNDS.  mode="exact":
    each color's branch-and-bound set cover with its greedy value as
    incumbent; limit exhaustion yields BOUNDS, a truncated rectangle
    universe INCONCLUSIVE (greedy covers only), never a wrong exact
    claim.  Each color's lower bound is its floor, the larger of its
    fooling-set count and its antichain bound (``_antichain_floor``),
    until its search finishes, then its cover's size; ``lower`` is
    their sum.  The result always carries a cover
    witnessing ``upper``, validated once (InvariantError if it fails)
    and sorted by Rectangle.key.
    """
    if mode not in (EXACT, "greedy"):
        raise ValueError("mode must be 'exact' or 'greedy'")
    limits = limits or SearchLimits()
    found, truncated = _maximal_masks(f, limits.rect_budget)
    search = mode == EXACT and not truncated
    meter = Meter(limits)
    cover = []
    lower = 0
    exact = search
    width = f.cols
    for color, sides in found.items():
        row_cols = f.masks(color)[0]
        cell_masks = [sum(b << x * width for x in rows)
                      for rows, _, b in sides]
        held = reduce(or_, cell_masks, 0)
        cells = sum(m << (x * width) for x, m in enumerate(row_cols))
        floor = max(_fooling_cells(f, color).bit_count(),
                    _antichain_floor(f, color))
        chosen = _greedy_cover(cell_masks, held)
        extra = _closed_rows(row_cols, cells & ~held, width)
        done = False
        if search:  # the enumeration is complete: held is all the cells
            chosen, done = _exact_color_cover(sides, width, chosen, floor,
                                              meter)
            exact = exact and done
        cover += [Rectangle(rows, cols, color=color)
                  for rows, cols, _ in map(sides.__getitem__, chosen)]
        cover += [Rectangle(index_bits(a), index_bits(b), color=color)
                  for a, b in extra]
        lower += len(chosen) if done else floor

    cover = tuple(sorted(cover, key=Rectangle.key))
    if not validate_cover(f, cover):
        raise InvariantError("cover failed re-validation")
    status = (EXACT if exact else BOUNDS if mode == "greedy" or search
              else INCONCLUSIVE)
    return SearchResult(status, lower, len(cover), meter.nodes, cover)


def _undominated(covs) -> list:
    """(index, mask, size) of each of the coverages ``covs`` that no
    other one dominates, by size, descending, ties by index.  Mask j
    dominates mask i when i's cells lie inside j's and the two differ,
    or are equal with j < i.

    Domination is transitive, so a dominated mask lies inside some
    undominated one; and a dominator is at least as large, earlier on
    equal masks.  Visiting the masks in the order returned, each is
    therefore tested only against the undominated ones so far.
    """
    kept = []
    kept_masks = []
    neg_sizes = [-c.bit_count() for c in covs]
    # sorted is stable: masks of equal size stay in index order.
    for i in sorted(range(len(covs)), key=neg_sizes.__getitem__):
        c = covs[i]
        for m in kept_masks:
            if c | m == m:
                break
        else:
            kept.append((i, c, -neg_sizes[i]))
            kept_masks.append(c)
    return kept


def _exact_color_cover(sides, width, incumbent, floor, meter):
    """Branch-and-bound set cover of one color class, the cells its
    rectangles hold, by those rectangles, given by their rows and
    columns ``sides[i] = (rows, cols, _)`` as index tuples; cell (x, y)
    is x * width + y.

    ``floor`` lower-bounds every cover's size, and is at least 1 when
    the color has cells: the search returns at the root when the
    incumbent is no larger, and stops as soon as it finds a cover of
    that size.

    A node with uncovered cells U is pruned when ceil(|U| / the largest
    coverage of U) shows that it cannot beat the incumbent.  The
    coverage bound is tested as a threshold t on the rectangles sorted
    by descending size: a rectangle covers at most its area, so only the
    prefix of area >= t can reach t.  A node reads the list its parent
    handed down and stops at the first rectangle that covers t cells of
    U or is too small to.  The root reads all of them.  A node hands its
    children only those that cover at least t_min cells of U, t_min the
    least threshold a child can have: the incumbent only falls, so a
    child's t at its visit is at least the one its parent computes, and
    a rectangle covers no more of a child's cells than of U.  It filters
    the list of its nearest ancestor cut at a threshold no higher than
    t_min, which holds every such rectangle, since U lies inside that
    ancestor's cells.  The root lists each cell's rectangles from every
    rectangle's rows times its columns, decoding no rectangle's mask,
    numbers the cells in branching order, the cells that the fewest
    rectangles hold first, ties by index (the fewest-options rule of
    Knuth's "Dancing Links"), and rewrites every mask in that
    numbering.  A node branches on the rectangles through
    its lowest uncovered bit c, minus those whose coverage of U is
    dominated by another's: the other is always at least as good.  It
    enters them as ``_undominated`` returns them, by descending coverage
    of U, ties by descending area, then index, so the first path down
    takes the biggest bites and meets a floor-size cover early.

    A memo keyed by U & reach[c], the cells c's candidates cover, holds
    that list, at most 100,000 entries, freed on return: a candidate's
    coverage of U is its coverage of the key, whose lowest bit is c.  A
    node also tests each child before entering it.  With best_size -
    depth - 2 rectangles left to the child, each covering at most the
    largest coverage of U, a child with more uncovered cells than those
    cover cannot beat the incumbent and has no children.  It is counted
    as a visit but not entered, so node counts, budget cuts and covers
    are those of a search that enters it and prunes it there.  The memo
    is the search's one table: a set of uncovered cells that another
    path reaches again is searched again, pruned by the bounds alone.

    Returns (selection, completed): the best selection found (always a
    valid cover of the color, as indices into sides) and whether
    minimality was proved within the meter's budget.
    """
    best_sel = list(incumbent)
    best_size = len(incumbent)
    if floor >= best_size:
        return best_sel, True
    try:
        meter.tick()  # the root's visit, before its tables are built
    except BudgetExceeded:
        return best_sel, False

    # Rectangles by descending size, ties by index: the order of each
    # cell's candidates, which breaks _undominated's ties, and of the
    # bound's scan.
    by_size = sorted(range(len(sides)),
                     key=lambda i: (-len(sides[i][0]) * len(sides[i][1]), i))
    last_row = max(rows[-1] for rows, _, _ in sides)
    holders = [[] for _ in range((last_row + 1) * width)]  # by cell
    for i in by_size:
        rows, cols, _ = sides[i]
        for x in rows:
            for y in cols:
                holders[x * width + y].append(i)
    # Bit b of masks is the cell whose candidates are cand_by_cell[b]:
    # the held cells, fewest candidates first; sorted is stable, so ties
    # keep the ascending cell order.
    cand_by_cell = sorted(filter(None, holders), key=len)
    masks = [0] * len(sides)
    for bit, cands in enumerate(cand_by_cell):
        for i in cands:
            masks[i] |= 1 << bit
    reach = [reduce(or_, map(masks.__getitem__, cands))
             for cands in cand_by_cell]
    branchings = {}  # U & reach[c] -> _undominated of c's candidates
    # (cut, scan) of the root and of each narrowing node on the path:
    # scan holds, as (area, mask) pairs by descending area, every
    # rectangle that covers cut cells of that node's uncovered cells.
    lists = [(0, [(masks[i].bit_count(), masks[i]) for i in by_size])]

    def rec(uncovered, chosen):
        # The caller has ticked the meter for this node.  Unless U is
        # empty, len(chosen) + 2 <= best_size: the search starts only
        # when best_size exceeds the floor, at least 1, and a parent
        # enters a child with cells left only while left > 0 below.  A
        # true return ends the search: the incumbent has reached the
        # floor.
        nonlocal best_sel, best_size
        if uncovered == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sel = list(chosen)
            return best_size == floor
        # With k = best_size - len(chosen) >= 2 rectangles left to beat
        # the incumbent, ceil(|U| / maxcov) >= k exactly when no
        # rectangle covers t = ceil(|U| / (k - 1)) uncovered cells.  A
        # rectangle smaller than t cannot, nor can any after it.
        size = uncovered.bit_count()
        t = -(-size // (best_size - len(chosen) - 1))
        for area, m in lists[-1][1]:
            if area < t:
                return
            if (m & uncovered).bit_count() >= t:
                break
        else:
            return
        cell = (uncovered & -uncovered).bit_length() - 1
        cands = cand_by_cell[cell]
        within = uncovered & reach[cell]
        kept = branchings.get(within)
        if kept is None:
            kept = _undominated([masks[i] & within for i in cands])
            if len(branchings) < 100_000:
                branchings[within] = kept
        # A child's uncovered cells are U minus its coverage, and its t
        # is at least ceil(that count / left), as best_size only falls.
        # When left is below 1 no child with cells left is entered, so
        # none reads a list.
        left = best_size - len(chosen) - 2
        # most_any bounds every coverage of U; while left < 1 the
        # children's test below needs no bound.
        most_any = 0
        if left > 0:
            t_min = -(-(size - kept[0][2]) // left)
            for cut, scan in reversed(lists):
                if cut <= t_min:
                    break
            narrowed = []
            # A rectangle left out of narrowed covers below t_min cells.
            most_any = t_min - 1
            for p in scan:
                if p[0] < t_min:
                    break
                c = (p[1] & uncovered).bit_count()
                if c >= t_min:
                    narrowed.append(p)
                    if c > most_any:
                        most_any = c
            lists.append((t_min, narrowed))
        for j, cov, covered in kept:
            meter.tick()
            # A child with more cells left than its left rectangles
            # cover, at most most_any each, cannot beat the incumbent:
            # counted, but not entered.
            if size - covered > (best_size - len(chosen) - 2) * most_any:
                continue
            chosen.append(cands[j])
            if rec(uncovered & ~cov, chosen):
                return True
            chosen.pop()
        if left > 0:
            lists.pop()

    try:
        rec((1 << len(cand_by_cell)) - 1, [])
        return best_sel, True
    except BudgetExceeded:
        return best_sel, False
    finally:
        rec = None  # rec holds itself in its closure: break the cycle


# ---------------------------------------------------------------------------
# .rect file format: row indices line, col indices line (indices in ASCII
# digits), optional color line (+1/-1).
# ---------------------------------------------------------------------------

def parse_rect(text: str) -> Rectangle:
    # (physical line number, stripped text) of each non-blank line
    lines = [(k, ln.strip()) for k, ln in enumerate(text.split("\n"), 1)
             if ln.strip()]
    if len(lines) < 2:
        raise ParseError("rectangle needs a row line and a col line", 1)
    sides = []
    for k, ln in lines[:2]:
        try:
            sides.append(tuple(map(parse_count, ln.split())))
        except ValueError as e:
            raise ParseError(f"bad index: {e}", k) from None
    color = None
    if len(lines) >= 3:
        k, tok = lines[2]
        if tok not in ("+1", "-1"):
            raise ParseError("color line must be +1 or -1", k, 1)
        color = 1 if tok == "+1" else -1
    if len(lines) > 3:
        raise ParseError("unexpected extra content", lines[3][0], 1)
    return Rectangle(*sides, color=color)


def read_rect(path) -> Rectangle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rect(fh.read())

