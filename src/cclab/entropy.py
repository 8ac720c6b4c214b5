"""Entropy-based rectangle extraction.

The extraction takes a monochromatic rectangle R of a lifted function
f^(+n) and produces a monochromatic rectangle T of the base f with a
certified size: (4|T|)**n >= |R|, checked in exact integer arithmetic.

R's indices are decoded once.  The lift's signs on R, checked on
entry, are the products of f's signs at the decoded coordinates, so
the lift is never built; the stages read the same coordinates as base
n-tuples.  Each selection stage (coordinate, prefix/suffix, parity
bits) groups one side's tuples by what it fixes and counts coordinate
i in each group (``_groups``): stages 1 and 2 by the x-prefix x_<i or
the y-suffix y_>i, stage 3 the tuples of the chosen prefix or suffix
by their parity bit.  The stages are greedy maximizations of conditional entropies evaluated in double
precision; because each greedy maximum dominates the corresponding
average, the size guarantee is preserved no matter which near-tied
witness the float comparison picks, and the final certificate is
re-verified exactly.  Entropy comparisons treat values within 1e-9 as
tied and break ties lexicographically.

All functions here are pure; inputs are immutable.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .matrix import BoolFun, check_lift
from .rectangles import Rectangle, check_monochromatic

TIE_TOL = 1e-9


def _entropy_of_counts(counts) -> float:
    """Entropy in bits of a distribution proportional to the
    non-negative weights ``counts`` (integers or Fractions)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            h += c * math.log2(c)
    return math.log2(total) - h / total


def _argmax_tied_lex(items):
    """Running max with a 1e-9 tie tolerance; earlier keys win ties.

    Callers iterate keys in ascending order, so a tie resolves to the
    lexicographically smallest key.  Returns (key, value at key).
    """
    best_key = None
    best_val = 0.0
    for key, val in items:
        if best_key is None or val > best_val + TIE_TOL:
            best_key, best_val = key, val
    return best_key, best_val


@dataclass(frozen=True)
class ExtractionCertificate:
    """What one extraction chose, and the entropies it chose by.

    i, x_prefix, y_suffix, u and v are the tuple fixed during
    extraction: coordinate i (1-based), the fixed x-prefix and y-suffix,
    and the parity bits u, v.
    """

    i: int
    x_prefix: tuple
    y_suffix: tuple
    u: int
    v: int
    coordinate_entropies: tuple  # H(X_i Y_i | X_<i Y_>i) for each i
    stage2_entropy: float        # H(X_i Y_i | x_<i, y_>i)
    stage3_entropy: float        # H(X_i Y_i | x_<i, y_>i, u, v)


def _groups(tuples, i, key):
    """Group tuples by key(t) and count the i-th coordinate in each
    group: {key(t): Counter(t[i])}."""
    groups = defaultdict(Counter)
    for t in tuples:
        groups[key(t)][t[i]] += 1
    return groups


def _grouped_cond_entropy(groups) -> float:
    """H(coordinate | key) from _groups output."""
    total = sum(sum(c.values()) for c in groups.values())
    h = 0.0
    for counter in groups.values():
        sz = sum(counter.values())
        h += sz * _entropy_of_counts(counter.values())
    return h / total


def _best_group(groups):
    """(key, entropy) of the group whose counter has the largest
    entropy; ties go to the smallest key."""
    return _argmax_tied_lex((key, _entropy_of_counts(c.values()))
                            for key, c in sorted(groups.items()))


def _decode(indices, radix: int, n: int) -> tuple:
    """The n coordinate arrays of lifted indices, first coordinate most
    significant."""
    return np.unravel_index(indices, (radix,) * n)


def _xor(f: BoolFun, xs, ys) -> int:
    """The xor of f over the pairs of xs and ys; 0 when there are none."""
    return sum(map(f.f_value, xs, ys)) % 2


def extract_rectangle(f: BoolFun, n: int, R: Rectangle):
    """From a monochromatic rectangle R of the lift f^(+n), extract a
    monochromatic rectangle T of f.  R not monochromatic, or with a
    color other than the lift's sign on it, is a ValueError.

    Returns (T, ExtractionCertificate).  T's monochromaticity and the
    size check (4|T|)**n >= |R|, the integer form of the guarantee
    |T| >= 2**(k/n - 2) with k = log2 |R|, are verified exactly before
    returning; a failure there raises InvariantError and is itself a
    bug.
    """
    check_lift(f, n)
    if (R.row_set[0] < 0 or R.col_set[0] < 0
            or R.row_set[-1] >= f.rows ** n or R.col_set[-1] >= f.cols ** n):
        raise ValueError("rectangle indices out of range")
    x_coords = _decode(R.row_set, f.rows, n)
    y_coords = _decode(R.col_set, f.cols, n)
    sub = np.ones((len(R.row_set), len(R.col_set)), dtype=np.int8)
    for xc, yc in zip(x_coords, y_coords):
        sub *= f.sign[np.ix_(xc, yc)]
    color = int(sub[0, 0])
    if not np.all(sub == color):
        i, j = divmod(int(np.argmax(sub != color)), sub.shape[1])
        raise ValueError(
            f"rectangle is not monochromatic: cell ({R.row_set[i]}, "
            f"{R.col_set[j]}) breaks the color of ({R.row_set[0]}, "
            f"{R.col_set[0]})")
    if R.color not in (None, color):
        raise ValueError(f"rectangle is stated as color {R.color:+d}, but "
                         f"the lift has sign {color:+d} on it")
    xs = list(zip(*(c.tolist() for c in x_coords)))
    ys = list(zip(*(c.tolist() for c in y_coords)))

    # Stage 1: pick the coordinate with maximal H(X_i Y_i | X_<i Y_>i),
    # grouping x-tuples by x_<i and y-tuples by y_>i.  X and Y are
    # independent across a rectangle, so the conditional entropy splits
    # into an X part and a Y part.
    x_groups = [_groups(xs, i, lambda t: t[:i]) for i in range(n)]
    y_groups = [_groups(ys, i, lambda t: t[i + 1:]) for i in range(n)]
    coord_h = [_grouped_cond_entropy(gx) + _grouped_cond_entropy(gy)
               for gx, gy in zip(x_groups, y_groups)]
    i_star, _ = _argmax_tied_lex(enumerate(coord_h))

    # Stage 2: pick the fixed prefix/suffix maximizing the conditional
    # entropy.  The objective separates, so maximize each side alone.
    p_star, hx2 = _best_group(x_groups[i_star])
    s_star, hy2 = _best_group(y_groups[i_star])
    stage2 = hx2 + hy2

    # Stage 3: group the tuples of the chosen prefix (suffix) by the
    # parity bit v (u): the xor of f over the random x-coords against
    # the fixed y-suffix (the fixed x-prefix against the random
    # y-coords).  Empty xors at the boundaries are 0.
    by_v = _groups([t for t in xs if t[:i_star] == p_star], i_star,
                   lambda t: _xor(f, t[i_star + 1:], s_star))
    by_u = _groups([t for t in ys if t[i_star + 1:] == s_star], i_star,
                   lambda t: _xor(f, p_star, t))
    v_star, hx3 = _best_group(by_v)
    u_star, hy3 = _best_group(by_u)
    stage3 = hx3 + hy3

    t_rows = tuple(sorted(by_v[v_star]))
    t_cols = tuple(sorted(by_u[u_star]))
    t_color = color * (-1) ** (u_star ^ v_star)
    T = Rectangle(t_rows, t_cols, color=t_color)

    # Exact re-verification of the promised guarantees.
    if check_monochromatic(f, T) != t_color:
        raise InvariantError("extracted support is not monochromatic in the base")
    t_size = len(t_rows) * len(t_cols)
    if (4 * t_size) ** n < R.area:
        raise InvariantError(
            f"size certificate failed: (4*{t_size})^{n} < {R.area}")

    cert = ExtractionCertificate(
        i=i_star + 1, x_prefix=p_star, y_suffix=s_star, u=u_star, v=v_star,
        coordinate_entropies=tuple(coord_h),
        stage2_entropy=stage2, stage3_entropy=stage3)
    return T, cert
