"""Entropy-based rectangle extraction.

The extraction takes a monochromatic rectangle R of a lifted function
f^(+n) and produces a monochromatic rectangle T of the base f with a
certified size: (4|T|)**n >= |R|, checked in exact integer arithmetic.

The selection stages (coordinate, prefix/suffix, parity bits) are
greedy maximizations of conditional entropies evaluated in double
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


def _side_groups(tuples, i, prefix_side):
    """Group tuples by their fixed part and count the i-th coordinate.

    prefix_side=True groups x-tuples by x_<i; otherwise y-tuples by y_>i.
    Returns {fixed_part: Counter(coordinate_value)}.
    """
    groups = defaultdict(Counter)
    for t in tuples:
        fixed = t[:i] if prefix_side else t[i + 1:]
        groups[fixed][t[i]] += 1
    return groups


def _grouped_cond_entropy(groups) -> float:
    """H(coordinate | fixed part) from _side_groups output."""
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


def _decode(indices, radix: int, n: int) -> list:
    """Base n-tuples of lifted indices, first coordinate most significant."""
    coords = np.unravel_index(indices, (radix,) * n)
    return list(zip(*(c.tolist() for c in coords)))


def _lift_signs(f: BoolFun, n: int, R: Rectangle) -> np.ndarray:
    """The signs of the lift f^(+n) on R, read from f without building
    the lift: a lifted cell's sign is the product of f's signs at its
    decoded base cells."""
    check_lift(f, n)
    if (R.row_set[0] < 0 or R.col_set[0] < 0
            or R.row_set[-1] >= f.rows ** n or R.col_set[-1] >= f.cols ** n):
        raise ValueError("rectangle indices out of range")
    sub = np.ones((len(R.row_set), len(R.col_set)), dtype=np.int8)
    for xs, ys in zip(np.unravel_index(R.row_set, (f.rows,) * n),
                      np.unravel_index(R.col_set, (f.cols,) * n)):
        sub *= f.sign[np.ix_(xs, ys)]
    return sub


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
    sub = _lift_signs(f, n, R)
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
    xs = _decode(R.row_set, f.rows, n)
    ys = _decode(R.col_set, f.cols, n)

    # Stage 1: pick the coordinate with maximal H(X_i Y_i | X_<i Y_>i).
    # X and Y are independent across a rectangle, so the conditional
    # entropy splits into an X part and a Y part.
    coord_h = [_grouped_cond_entropy(_side_groups(xs, i, True))
               + _grouped_cond_entropy(_side_groups(ys, i, False))
               for i in range(n)]
    i_star, _ = _argmax_tied_lex(enumerate(coord_h))

    # Stage 2: pick the fixed prefix/suffix maximizing the conditional
    # entropy.  The objective separates, so maximize each side alone.
    p_star, hx2 = _best_group(_side_groups(xs, i_star, True))
    s_star, hy2 = _best_group(_side_groups(ys, i_star, False))
    stage2 = hx2 + hy2

    # Stage 3: inside the chosen groups, condition on the parity bits
    # u (xor of f over the fixed x-prefix against the random y-coords)
    # and v (xor of f over the random x-coords against the fixed
    # y-suffix).  Empty xors at the boundaries are fixed to 0.
    by_v = defaultdict(Counter)
    for t in xs:
        if t[:i_star] == p_star:
            v_bit = 0
            for x, y in zip(t[i_star + 1:], s_star):
                v_bit ^= f.f_value(x, y)
            by_v[v_bit][t[i_star]] += 1
    by_u = defaultdict(Counter)
    for t in ys:
        if t[i_star + 1:] == s_star:
            u_bit = 0
            for x, y in zip(p_star, t):
                u_bit ^= f.f_value(x, y)
            by_u[u_bit][t[i_star]] += 1

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
