"""Independent oracles for the test suite.

Everything here recomputes results by definition-level brute force,
deliberately avoiding the library's own algorithms: rank by Fraction
Gaussian elimination (vs fraction-free Bareiss), lifts by direct xor
evaluation (vs Kronecker), fixed families cell by cell (vs numpy
expressions), rectangles by subset enumeration (vs closure search),
covers by increasing-size combinations or, on lifts too large for
that, by a 0/1 program (vs branch and bound), and communication
complexity by plain memoized recursion (vs the canonicalized pruned
search).
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from cclab import BoolFun, splitmix64


def rank_fractions(mat) -> int:
    """Rank over the rationals by textbook Gaussian elimination."""
    m = [[Fraction(int(v)) for v in row] for row in mat]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for i in range(row, nr):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for i in range(nr):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def brute_family(name: str, m: int) -> list:
    """The m x m sign matrix of a fixed family, one cell at a time from
    its definition."""
    value = {
        "xor": lambda x, y: _parity(x) ^ _parity(y),
        "and": lambda x, y: int(x & y != 0),
        "eq": lambda x, y: int(x == y),
        "gt": lambda x, y: int(x > y),
        "ip": lambda x, y: _parity(x & y),
    }[name]
    return [[1 - 2 * value(x, y) for y in range(m)] for x in range(m)]


def brute_lift_sign(f: BoolFun, n: int) -> np.ndarray:
    """Sign matrix of the n-fold xor of f by direct evaluation."""
    rows = f.rows ** n
    cols = f.cols ** n
    out = np.empty((rows, cols), dtype=np.int8)
    xs = list(product(range(f.rows), repeat=n))
    ys = list(product(range(f.cols), repeat=n))
    for i, xt in enumerate(xs):
        for j, yt in enumerate(ys):
            bit = 0
            for a, b in zip(xt, yt):
                bit ^= f.f_value(a, b)
            out[i, j] = 1 - 2 * bit
    return out


def _subsets(n):
    for mask in range(1, 1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def brute_mono_rects(f: BoolFun):
    """Every monochromatic rectangle (rows, cols, color) of a tiny f."""
    out = []
    for rows in _subsets(f.rows):
        for cols in _subsets(f.cols):
            vals = {int(f.sign[x, y]) for x in rows for y in cols}
            if len(vals) == 1:
                out.append((rows, cols, vals.pop()))
    return out


def brute_maximal_rects(f: BoolFun):
    """Maximal monochromatic rectangles by pairwise containment check."""
    rects = brute_mono_rects(f)
    out = []
    for (r, c, v) in rects:
        rs, cs = set(r), set(c)
        maximal = True
        for (r2, c2, v2) in rects:
            if (r, c) != (r2, c2) and rs <= set(r2) and cs <= set(c2):
                maximal = False
                break
        if maximal:
            out.append((r, c, v))
    return sorted(out)


def brute_max_area(f: BoolFun) -> int:
    return max(len(r) * len(c) for (r, c, _) in brute_mono_rects(f))


def brute_min_cover(f: BoolFun) -> int:
    """Exact cover number by trying all combinations of increasing size
    over the brute-force maximal rectangles."""
    rects = brute_maximal_rects(f)
    masks = []
    for (r, c, _) in rects:
        m = 0
        for x in r:
            for y in c:
                m |= 1 << (x * f.cols + y)
        masks.append(m)
    full = (1 << (f.rows * f.cols)) - 1
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    raise AssertionError("no cover found")


def milp_min_cover(f: BoolFun) -> int:
    """Exact cover number as one 0/1 set cover per color over its
    maximal rectangles, solved by scipy's HiGHS ``milp``.

    A color's maximal rectangles are its closed column sets, each with
    the rows whose masks hold it.  The closed sets are the intersections
    of the color's row masks: starting from all columns, each row mask
    is intersected into every set found so far."""
    from scipy.optimize import LinearConstraint, milp

    total = 0
    for color in (1, -1):
        row_masks = [sum(1 << y for y in range(f.cols)
                         if f.sign[x, y] == color) for x in range(f.rows)]
        cells = {(x, y): k for k, (x, y) in enumerate(
            (x, y) for x in range(f.rows) for y in range(f.cols)
            if f.sign[x, y] == color)}
        if not cells:
            continue
        closed = {(1 << f.cols) - 1}
        for r in row_masks:
            closed |= {b & r for b in closed}
        rects = []
        for b in closed:
            rows = [x for x, r in enumerate(row_masks) if b and r & b == b]
            if rows:
                rects.append((rows, [y for y in range(f.cols) if b >> y & 1]))
        holds = np.zeros((len(cells), len(rects)))
        for j, (rows, cols) in enumerate(rects):
            for x in rows:
                for y in cols:
                    holds[cells[x, y], j] = 1
        ones = np.ones(len(rects))
        res = milp(ones, constraints=LinearConstraint(holds, lb=1),
                   integrality=ones, bounds=(0, 1))
        if res.status != 0:
            raise AssertionError(f"milp found no optimum: {res.message}")
        total += round(res.fun)
    return total


def brute_cc(f: BoolFun) -> int:
    """D(f) by plain min-max recursion over submatrix pairs.

    A submatrix is a (row mask, column mask) pair, memoised as one.  Row
    x of ``neg`` is the mask of its columns where f has sign -1, packed
    here cell by cell."""
    neg = [sum(1 << y for y in range(f.cols) if f.sign[x, y] < 0)
           for x in range(f.rows)]
    memo = {}

    def const(rmask, cmask):
        x = (rmask & -rmask).bit_length() - 1
        v = neg[x] & cmask
        if v and v != cmask:
            return False
        while rmask:
            x = (rmask & -rmask).bit_length() - 1
            if neg[x] & cmask != v:
                return False
            rmask &= rmask - 1
        return True

    def splits(mask):
        # Every split of mask into two non-empty halves, once each: the
        # half p holds the lowest bit, q the rest.
        low = mask & -mask
        others = mask ^ low
        s = others
        while s:
            s = (s - 1) & others
            yield low | s, others ^ s

    def go(rmask, cmask):
        key = (rmask, cmask)
        if key in memo:
            return memo[key]
        if const(rmask, cmask):
            best = 0
        else:
            best = min([1 + max(go(p, cmask), go(q, cmask))
                        for p, q in splits(rmask)]
                       + [1 + max(go(rmask, p), go(rmask, q))
                          for p, q in splits(cmask)])
        memo[key] = best
        return best

    return go((1 << f.rows) - 1, (1 << f.cols) - 1)


def random_sign(rows: int, cols: int, seed: int) -> BoolFun:
    """Seeded random sign matrix for corpus generation (splitmix64)."""
    stream = splitmix64(seed)
    data = np.fromiter((1 - 2 * (next(stream) & 1) for _ in range(rows * cols)),
                       dtype=np.int8, count=rows * cols).reshape(rows, cols)
    return BoolFun(data, label=f"rnd{rows}x{cols}_s{seed}")


def all_sign_matrices(rows: int, cols: int):
    """Every rows x cols sign matrix (use only for tiny shapes)."""
    cells = rows * cols
    for mask in range(1 << cells):
        data = np.array([1 - 2 * (mask >> i & 1) for i in range(cells)],
                        dtype=np.int8).reshape(rows, cols)
        yield BoolFun(data, label=f"m{mask}")
