import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

from cclab import (BoolFun, InvariantError, Rectangle, check_monochromatic,
                   enumerate_maximal_mono, extract_rectangle, make_family,
                   splitmix64, xor_power)
from cclab import entropy
from cclab.entropy import _entropy_of_counts, _grouped_cond_entropy

from oracles import all_sign_matrices, random_sign

TOL = 1e-9


def _cond_entropy(joint):
    """H(A|B) of a joint table {(a, b): weight}, grouped by b."""
    groups = defaultdict(Counter)
    for (a, b), w in joint.items():
        groups[b][a] += w
    return _grouped_cond_entropy(groups)


# ----------------------------------------------------------- entropy

def test_entropy_uniform_four():
    assert abs(_entropy_of_counts([1, 1, 1, 1]) - 2.0) < TOL


def test_entropy_point_mass():
    assert _entropy_of_counts([Fraction(1)]) == 0.0


def test_entropy_half_quarter_quarter():
    counts = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert abs(_entropy_of_counts(counts) - 1.5) < TOL


def test_cond_entropy_definition():
    # independent uniform bits: H(A|B) = H(A) = 1
    joint = {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
    assert abs(_cond_entropy(joint) - 1.0) < TOL
    # fully determined: H(A|B) = 0
    joint = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    assert _cond_entropy(joint) < TOL


def test_conditioning_cannot_increase_entropy():
    stream = splitmix64(555)
    for _ in range(500):
        na = 2 + next(stream) % 3
        nb = 2 + next(stream) % 3
        weights = {}
        for a in range(na):
            for b in range(nb):
                weights[(a, b)] = next(stream) % 8
        if sum(weights.values()) == 0:
            weights[(0, 0)] = 1
        total = sum(weights.values())
        marg = {}
        for (a, _), w in weights.items():
            marg[a] = marg.get(a, 0) + w
        h_a = -sum(w / total * math.log2(w / total)
                   for w in marg.values() if w)
        assert _cond_entropy(weights) <= h_a + TOL


# ----------------------------------------------------------- extraction

def test_extract_n1_returns_rectangle_unchanged():
    bases = (list(all_sign_matrices(2, 2)) + list(all_sign_matrices(2, 3))
             + [random_sign(3, 3, 3000 + seed) for seed in range(40)])
    for f in bases:
        for r in enumerate_maximal_mono(xor_power(f, 1)).rects:
            t, cert = extract_rectangle(f, 1, r)
            color = check_monochromatic(f, r)
            assert t == Rectangle(r.row_set, r.col_set, color=color)
            assert cert.i == 1 and cert.u == cert.v == 0
            assert cert.x_prefix == () and cert.y_suffix == ()


def test_extract_guarantee_k6_n2():
    # |R| = 64, n = 2: the certified size is at least 2**(6/2 - 2) = 2
    f = make_family("const", 8, const_value=0)
    r = Rectangle(range(8), range(8))
    t, _ = extract_rectangle(f, 2, r)
    assert r.area == 64
    assert t.area >= 2
    assert (4 * t.area) ** 2 >= 64


def test_extract_requires_monochromatic():
    with pytest.raises(ValueError):
        extract_rectangle(make_family("eq", 2), 2, Rectangle((0, 1), (0, 1)))


def test_extract_size_check_at_its_exact_boundary(monkeypatch):
    # With only the first lifted index decoded, T is one cell, so the
    # check (4|T|)**n >= |R| reads 4 >= |R| at n = 1: it fails by one
    # at |R| = 5 and holds with equality at |R| = 4.
    decode = entropy._decode
    monkeypatch.setattr(entropy, "_decode",
                        lambda idx, radix, n: decode(idx[:1], radix, n))
    f = BoolFun(np.ones((1, 5)))
    with pytest.raises(InvariantError, match="size certificate"):
        extract_rectangle(f, 1, Rectangle((0,), range(5)))
    t, _ = extract_rectangle(f, 1, Rectangle((0,), range(4)))
    assert t == Rectangle((0,), (0,), color=1)


def test_extract_raises_on_a_support_that_is_not_monochromatic(
        monkeypatch):
    monkeypatch.setattr(entropy, "check_monochromatic", lambda f, r: None)
    with pytest.raises(InvariantError, match="extracted support is not "
                       "monochromatic in the base"):
        extract_rectangle(make_family("eq", 2), 1, Rectangle((0,), (1,)))


def test_extract_eq2_exhaustive_over_maximal_rects():
    f = make_family("eq", 2)
    rects = enumerate_maximal_mono(xor_power(f, 2)).rects
    assert rects
    for r in rects:
        t, _ = extract_rectangle(f, 2, r)
        assert check_monochromatic(f, t) == t.color
        assert (4 * t.area) ** 2 >= r.area


def _exhaustive_extract_checks(f, n):
    for r in enumerate_maximal_mono(xor_power(f, n)).rects:
        t, cert = extract_rectangle(f, n, r)
        # monochromatic in the base, exact integer size certificate
        assert check_monochromatic(f, t) == t.color
        assert (4 * t.area) ** n >= r.area
        # chain rule: sum_i H(X_i Y_i | X_<i Y_>i) = log2 |R|
        assert abs(sum(cert.coordinate_entropies) - math.log2(r.area)) < TOL
        # two-bit loss: stage-3 entropy >= stage-2 entropy - 2
        assert cert.stage3_entropy >= cert.stage2_entropy - 2 - TOL
        # selected coordinate's entropy is >= the average k/n
        k = math.log2(r.area)
        assert cert.coordinate_entropies[cert.i - 1] >= k / n - TOL
        # product support: every pair of T is realized by a surviving point
        _check_product_support(f, n, r, t, cert)


def _check_product_support(f, n, r, t, cert):
    i = cert.i - 1
    xs = [np.unravel_index(v, (f.rows,) * n) for v in r.row_set]
    ys = [np.unravel_index(v, (f.cols,) * n) for v in r.col_set]
    x_ok = set()
    for xt in xs:
        if xt[:i] != cert.x_prefix:
            continue
        v = 0
        for j in range(i + 1, n):
            v ^= f.f_value(xt[j], cert.y_suffix[j - i - 1])
        if v == cert.v:
            x_ok.add(xt[i])
    y_ok = set()
    for yt in ys:
        if yt[i + 1:] != cert.y_suffix:
            continue
        u = 0
        for j in range(i):
            u ^= f.f_value(cert.x_prefix[j], yt[j])
        if u == cert.u:
            y_ok.add(yt[i])
    assert set(t.row_set) == x_ok
    assert set(t.col_set) == y_ok


def test_extract_end_to_end_all_2x2():
    for f in all_sign_matrices(2, 2):
        for n in (1, 2, 3):
            _exhaustive_extract_checks(f, n)


def test_extract_end_to_end_sampled_3x3():
    for seed in range(40):
        f = random_sign(3, 3, 2000 + seed)
        for n in (1, 2):
            _exhaustive_extract_checks(f, n)


def test_extract_rectangular_base():
    for seed in range(10):
        f = random_sign(2, 3, 2500 + seed)
        for n in (1, 2, 3):
            _exhaustive_extract_checks(f, n)
