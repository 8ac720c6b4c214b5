import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from cclab import (BoolFun, Rectangle, SearchLimits, check_monochromatic,
                   cover_number, enumerate_maximal_mono, exact_cc,
                   fooling_set_bound, make_family, max_mono_rectangle, rank,
                   restrict, validate_cover, xor_power)
from cclab import InvariantError, limits, rectangles
from cclab.limits import INTERVAL, BudgetExceeded, Meter
from cclab.matrix import index_bits
from cclab.rectangles import (EXACT, BOUNDS, INCONCLUSIVE, _fooling_cells,
                              _greedy_cover, _undominated, format_rect,
                              parse_rect)

from oracles import (all_sign_matrices, brute_max_area, brute_maximal_rects,
                     brute_min_cover, random_sign)


# ----------------------------------------------------------- check_mono

def test_check_monochromatic_examples():
    eq4 = make_family("eq", 4)
    assert check_monochromatic(eq4, Rectangle((0, 1), (2, 3))) == 1
    assert check_monochromatic(eq4, Rectangle((0, 1), (0, 1))) is None
    xor2 = make_family("xor", 2)
    assert check_monochromatic(xor2, Rectangle((0,), (1,))) == -1


def test_check_monochromatic_out_of_range():
    with pytest.raises(ValueError):
        check_monochromatic(make_family("eq", 3), Rectangle((0,), (3,)))


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        Rectangle((-1,), (2,))
    with pytest.raises(ValueError):
        Rectangle((0,), (1, -3))
    # A rectangle that bypassed the constructor check is still caught
    # before numpy would wrap -1 to the last row.
    r = Rectangle((0,), (2,))
    object.__setattr__(r, "row_set", (-1,))
    with pytest.raises(ValueError):
        check_monochromatic(make_family("eq", 3), r)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle((), (0,))
    with pytest.raises(ValueError):
        Rectangle((0,), (0,), color=2)
    r = Rectangle((2, 0, 2), (1,))
    assert r.row_set == (0, 2) and r.area == 2


# ----------------------------------------------------------- enumeration

def test_enumerate_constant_single_rect():
    f = make_family("const", 2, const_value=0)
    res = enumerate_maximal_mono(f)
    assert not res.truncated
    assert [r.key() for r in res.rects] == [((0, 1), (0, 1))]


def test_enumerate_xor2_four_singletons():
    res = enumerate_maximal_mono(make_family("xor", 2))
    got = [(r.row_set, r.col_set, r.color) for r in res.rects]
    assert got == [((0,), (0,), 1), ((0,), (1,), -1),
                   ((1,), (0,), -1), ((1,), (1,), 1)]


def test_enumerate_eq4_contains_offdiag_blocks():
    res = enumerate_maximal_mono(make_family("eq", 4))
    keys = {r.key() for r in res.rects}
    assert ((0, 1), (2, 3)) in keys
    assert ((2, 3), (0, 1)) in keys


def test_enumerate_matches_brute_force():
    mats = list(all_sign_matrices(2, 2))
    mats += [random_sign(3, 3, s) for s in range(10)]
    mats += [random_sign(4, 3, s) for s in range(5)]
    for f in mats:
        res = enumerate_maximal_mono(f)
        got = sorted((r.row_set, r.col_set, r.color) for r in res.rects)
        assert got == brute_maximal_rects(f)
        assert not res.truncated


def test_enumerate_deep_chain_no_recursion_limit():
    # gt_m has 2m - 1 closed rectangles, found down a chain of depth ~m,
    # deeper than Python's recursion limit at m = 1100 (1.2M cells).
    for m in (5, 50, 1100):
        res = enumerate_maximal_mono(make_family("gt", m))
        assert len(res.rects) == 2 * m - 1 and not res.truncated


def test_enumerate_budget_truncates():
    f = make_family("eq", 4)
    full = enumerate_maximal_mono(f)
    cut = enumerate_maximal_mono(f, budget=3)
    assert len(full.rects) > 3
    assert cut.truncated and len(cut.rects) == 3


def test_enumerate_refuses_a_budget_below_one():
    with pytest.raises(ValueError) as err:
        enumerate_maximal_mono(make_family("eq", 4), 0)
    assert str(err.value) == "budget must be positive"


def test_enumerate_sorted_lexicographically():
    f = random_sign(4, 4, 77)
    res = enumerate_maximal_mono(f)
    keys = [r.key() for r in res.rects]
    assert keys == sorted(keys)


# ----------------------------------------------------------- max area

def test_max_mono_examples():
    const = make_family("const", 3, const_value=1)
    big = max_mono_rectangle(restrict(const, range(3), range(3)))
    assert big.area == 9
    wide = Rectangle(range(3), range(5))
    f35 = restrict(make_family("const", 5, const_value=0), range(3), range(5))
    assert max_mono_rectangle(f35).area == 15 == wide.area
    assert max_mono_rectangle(make_family("xor", 2)).area == 1
    assert max_mono_rectangle(make_family("eq", 4)).area == 4


def test_max_mono_matches_brute_force():
    mats = list(all_sign_matrices(2, 2))
    mats += [random_sign(3, 4, s) for s in range(12)]
    mats += [random_sign(4, 3, 25 + s) for s in range(12)]
    mats += [random_sign(4, 4, 50 + s) for s in range(8)]
    for f in mats:
        r = max_mono_rectangle(f)
        assert check_monochromatic(f, r) == r.color
        assert r.area == brute_max_area(f)


def test_max_mono_lexicographic_tie_break():
    mats = [random_sign(3, 3, 200 + s) for s in range(20)]
    mats += [random_sign(4, 2, 230 + s) for s in range(10)]
    # Wide and tall shapes, and families with many tied maxima.
    mats += [random_sign(5, 6, 240 + s) for s in range(5)]
    mats += [random_sign(6, 5, 250 + s) for s in range(5)]
    mats += [make_family("eq", 5), make_family("gt", 5)]
    for f in mats:
        r = max_mono_rectangle(f)
        best = r.area
        ties = [(rows, cols) for (rows, cols, _) in brute_maximal_rects(f)
                if len(rows) * len(cols) == best]
        assert (r.row_set, r.col_set) == min(ties)


def _column_side_max(f):
    """The maximum-rectangle search over the columns, skipping only the
    subtrees whose rows times width bound is below the best area, so
    every tied maximum is visited: ((row_set, col_set), color)."""
    best = [(0, (), ()), None]  # (-area, rows, cols), color

    for color in (1, -1):
        def prune(a, b, cand):
            width = b.bit_count() + len(cand)
            return lambda i, a2: a2.bit_count() * (width - i) < -best[0][0]

        def keep_best(a, b):
            key = (-a.bit_count() * b.bit_count(), index_bits(a),
                   index_bits(b))
            if key < best[0]:
                best[:] = key, color
            return False

        rectangles._close_by_one(f.masks(color)[1], f.rows, keep_best, prune)
    return best[0][1:], best[1]


def _max_rect_corpus():
    """Random matrices of every shape from 1x1 to 14x14 and density from
    0.05 to 0.95; the fixed families, their rows duplicated, permuted,
    complemented and transposed; and n=2 lifts of random bases."""
    rng = np.random.default_rng(18)
    mats = []
    for _ in range(700):
        rows, cols = rng.integers(1, 15, size=2)
        density = rng.uniform(0.05, 0.95)
        mats.append(BoolFun(np.where(rng.random((rows, cols)) < density,
                                     -1, 1)))
    for k in range(200):
        fam = ("eq", "gt", "and", "xor", "ip")[k % 5]
        m = 1 << rng.integers(1, 4) if fam == "ip" else rng.integers(2, 11)
        sign = make_family(fam, int(m)).sign
        sign = sign[np.sort(rng.integers(0, m, size=m + rng.integers(0, 4)))]
        sign = sign[rng.permutation(len(sign))][:, rng.permutation(m)]
        mats.append(BoolFun(sign if k % 2 else -sign))
        mats.append(BoolFun(sign.T))
    for k in range(100):
        base = random_sign(2 + k % 3, 2 + k // 3 % 3, 1300 + k)
        mats.append(xor_power(base, 2))
    return mats


def test_max_mono_matches_the_column_side_search():
    # The row-side search and its bounds return what the column side,
    # which visits every tied maximum, returns.
    mats = _max_rect_corpus()
    assert len(mats) >= 1000
    for f in mats:
        r = max_mono_rectangle(f)
        assert ((r.row_set, r.col_set), r.color) == _column_side_max(f)


def test_max_mono_skips_tied_maxima(monkeypatch):
    # eq_m's off-diagonal color has C(m, m/2) tied maxima S x S^c; the
    # column-side search takes 568,652 closures on eq20.
    closures = []
    closure = rectangles._closure

    def counted(*args):
        closures.append(args)
        return closure(*args)

    monkeypatch.setattr(rectangles, "_closure", counted)
    r = max_mono_rectangle(make_family("eq", 20))
    assert r == Rectangle(range(10), range(10, 20), color=1)
    assert len(closures) <= 12
    r = max_mono_rectangle(make_family("eq", 32))
    assert r == Rectangle(range(16), range(16, 32), color=1)


# ----------------------------------------------------------- cover number

def test_cover_constant_is_one():
    for m in (2, 3, 5):
        res = cover_number(make_family("const", m, const_value=1))
        assert res.status == EXACT and res.value == 1


def test_cover_xor2_is_four():
    res = cover_number(make_family("xor", 2))
    assert res.status == EXACT and res.value == 4


def test_cover_eq4_is_eight_and_validates():
    res = cover_number(make_family("eq", 4))
    assert res.status == EXACT
    assert res.value <= 8
    assert res.value == brute_min_cover(make_family("eq", 4)) == 8
    assert validate_cover(make_family("eq", 4), res.cover)


def test_cover_matches_brute_force():
    mats = list(all_sign_matrices(2, 2))
    mats += [random_sign(3, 3, 400 + s) for s in range(10)]
    # 2x2 to 4x4: 12 of these 60 search below the root.
    mats += [random_sign(2 + k % 3, 2 + k // 3 % 3, 400 + k)
             for k in range(10, 70)]
    for f in mats:
        res = cover_number(f)
        assert res.status == EXACT
        assert res.value == brute_min_cover(f)
        assert validate_cover(f, res.cover)


def test_greedy_mode_valid_upper_bound():
    for s in range(8):
        f = random_sign(4, 4, 600 + s)
        greedy = cover_number(f, mode="greedy")
        exact = cover_number(f)
        assert greedy.status == BOUNDS and not greedy.exact
        with pytest.raises(ValueError, match=BOUNDS):
            greedy.value
        assert validate_cover(f, greedy.cover)
        assert greedy.upper >= exact.value >= greedy.lower


def test_cover_refuses_an_unknown_mode():
    with pytest.raises(ValueError) as err:
        cover_number(make_family("eq", 4), mode="fast")
    assert str(err.value) == "mode must be 'exact' or 'greedy'"


def test_cover_node_budget_gives_bounds():
    f = random_sign(6, 6, 9)
    res = cover_number(f, limits=SearchLimits(node_budget=2))
    assert res.status in (EXACT, BOUNDS)
    if res.status == BOUNDS:
        assert res.cover is not None and validate_cover(f, res.cover)
        exact = cover_number(f)
        assert res.lower <= exact.value <= res.upper


def test_meter_reads_the_clock_every_256_ticks(monkeypatch):
    # Past the deadline from the start: the clock is read, and the
    # budget found spent, on the 256th tick and not before.
    meter = Meter(SearchLimits(time_budget_ms=1))
    monkeypatch.setattr(limits.time, "monotonic", lambda: float("inf"))
    for _ in range(255):
        meter.tick()
    with pytest.raises(BudgetExceeded, match="time"):
        meter.tick()


def test_time_budget_cuts_a_real_search(monkeypatch):
    # The clock passes the deadline right after Meter reads it, so each
    # search stops at its first clock read: at most 256 nodes past the
    # deadline, the stated slack of ms=.  gt3^(+3)'s cover searches both
    # colors, 256 nodes each.
    lim = SearchLimits(time_budget_ms=1, node_budget=10 ** 9)
    for search, want in (
            (lambda: cover_number(xor_power(make_family("gt", 3), 3),
                                  EXACT, lim), (BOUNDS, 19, 57, 512)),
            (lambda: exact_cc(make_family("random", 7, seed=29), lim),
             (INTERVAL, 3, 4, 256)),
            (lambda: cover_number(make_family("eq", 8), EXACT, lim),
             (BOUNDS, 10, 14, 256))):
        reads = iter([0.0])
        monkeypatch.setattr(limits.time, "monotonic",
                            lambda: next(reads, float("inf")))
        res = search()
        assert (res.status, res.lower, res.upper, res.nodes) == want


def test_cover_search_counts_every_visit():
    # The coverage bound prunes exactly the nodes it always pruned, so
    # the node counts, budget cuts and covers stay those of a full scan.
    eq8 = make_family("eq", 8)
    res = cover_number(eq8)
    assert (res.status, res.value, res.nodes) == (EXACT, 13, 36841)
    cut = cover_number(eq8, limits=SearchLimits(node_budget=36840))
    assert cut.status == BOUNDS
    lift = xor_power(make_family("random", 3, seed=6), 3)
    res = cover_number(lift)
    assert (res.status, res.value, res.nodes) == (EXACT, 16, 4415)
    eq4sq = xor_power(make_family("eq", 4), 2)
    res = cover_number(eq4sq, limits=SearchLimits(node_budget=30000,
                                                  rect_budget=100000))
    assert (res.status, res.lower, res.upper, res.nodes) == (
        BOUNDS, 19, 28, 30002)
    gt3cube = xor_power(make_family("gt", 3), 3)
    res = cover_number(gt3cube, limits=SearchLimits(node_budget=3000,
                                                    rect_budget=100000))
    assert (res.status, res.lower, res.upper, res.nodes) == (
        BOUNDS, 19, 57, 3002)
    keys = repr([r.key() for r in res.cover]).encode()
    assert hashlib.sha256(keys).hexdigest() == (
        "6f4600b63e5474557b9690f1c54f2b1445274194c0d289b24eaad177518a3244")
    # A node filters the nearest list cut at a threshold no higher than
    # its own.  Filtering its parent's list whatever its cut, or keeping
    # only the rectangles above the threshold, drops rectangles a node
    # needs, and seed 12 then claims an exact 17 or 18.
    lift = xor_power(make_family("random", 3, seed=12), 3)
    res = cover_number(lift)
    assert (res.status, res.value, res.nodes) == (EXACT, 16, 19022)
    lift = xor_power(make_family("random", 4, seed=27), 2)
    res = cover_number(lift, limits=SearchLimits(node_budget=3000,
                                                 rect_budget=100000))
    assert (res.status, res.lower, res.upper, res.nodes) == (
        BOUNDS, 17, 31, 3002)


def test_cover_search_filters_each_branching_once(monkeypatch):
    # gt4^2 branches 14,348 times at this budget, on 1,208 distinct
    # (branch cell, uncovered cells within its candidates' reach): the
    # dominance filter runs once for each.
    calls = []

    def counted(covs):
        calls.append(len(covs))
        return _undominated(covs)

    monkeypatch.setattr(rectangles, "_undominated", counted)
    gt4sq = xor_power(make_family("gt", 4), 2)
    res = cover_number(gt4sq, limits=SearchLimits(node_budget=30000,
                                                  rect_budget=100000))
    assert (res.status, res.lower, res.upper, res.nodes) == (
        BOUNDS, 16, 29, 30002)
    assert len(calls) == 1208


def test_cover_results_pinned():
    # Status, bounds, node count and cover of cover_number, hashed: eq8,
    # a budget-cut gt3^3, random 3x3^3 seed 3 and 100 random 3x3-7x7
    # inputs in both modes, also on a universe truncated to 3 rectangles,
    # whose cover takes the greedy closure fallback's extras.
    rng = random.Random(16)
    runs = [(make_family("eq", 8), EXACT, None),
            (xor_power(make_family("gt", 3), 3), EXACT,
             SearchLimits(node_budget=3000, rect_budget=100000)),
            (xor_power(make_family("random", 3, seed=3), 3), EXACT,
             None)]
    for k in range(100):
        f = random_sign(rng.randint(3, 7), rng.randint(3, 7), 5000 + k)
        runs += [(f, mode, lim) for mode in (EXACT, "greedy")
                 for lim in (None, SearchLimits(rect_budget=3))]
    digest = hashlib.sha256()
    for f, mode, lim in runs:
        res = cover_number(f, mode, lim)
        digest.update(repr((res.status, res.lower, res.upper, res.nodes,
                            [(r.key(), r.color) for r in res.cover])).encode())
    assert digest.hexdigest() == (
        "7d1538d0340d1aa4e800cc290c8426c993d7dcd500f87ebdea2e98e1aa43b6b6")


def _full_scan_color_cover(universe, cell_masks, incumbent, fooling_mask,
                           meter):
    """The color's cover search with no narrowing: every node tests the
    coverage bound on the whole size-sorted list of the rectangles."""
    best_sel = list(incumbent)
    best_size = len(incumbent)
    if fooling_mask.bit_count() >= best_size:
        return best_sel, True
    by_size = sorted(range(len(cell_masks)),
                     key=lambda i: (-cell_masks[i].bit_count(), i))
    sized = [(cell_masks[i].bit_count(), cell_masks[i]) for i in by_size]
    cells = [c for c in range(universe.bit_length()) if universe >> c & 1]
    cand_by_cell = {c: [i for i in by_size if cell_masks[i] >> c & 1]
                    for c in cells}
    cell_order = sorted(cells, key=lambda c: (not (fooling_mask >> c & 1),
                                              len(cand_by_cell[c]), c))
    seen = {}

    def rec(uncovered, chosen):
        nonlocal best_sel, best_size
        meter.tick()
        if uncovered == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sel = list(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        prev = seen.get(uncovered)
        if prev is not None and prev <= len(chosen):
            return
        if len(seen) < 1_000_000:
            seen[uncovered] = len(chosen)
        if len(chosen) + (fooling_mask & uncovered).bit_count() >= best_size:
            return
        t = -(-uncovered.bit_count() // (best_size - len(chosen) - 1))
        for area, m in sized:
            if area < t:
                return
            if (m & uncovered).bit_count() >= t:
                break
        else:
            return
        cands = cand_by_cell[next(c for c in cell_order
                                  if uncovered >> c & 1)]
        covs = [cell_masks[i] & uncovered for i in cands]
        for j in _undominated(covs):
            chosen.append(cands[j])
            rec(uncovered & ~covs[j], chosen)
            chosen.pop()

    try:
        rec(universe, [])
        return best_sel, True
    except BudgetExceeded:
        return best_sel, False


@pytest.mark.parametrize("head", [0, 7, 10**9])
def test_cover_bound_stages_decide_alike(head, monkeypatch):
    # The coverage bound read in stages, each node on the list its
    # parent narrowed, gives the same nodes, bounds and cover as a
    # search that scans every rectangle at every node, also when colors
    # of at most `head` rectangles take the full scan and the rest
    # narrow: all colors narrow (head 0), colors over 7 rectangles, or
    # none (a head above every color's count).  Random 3x3^3 seed 3
    # lowers its incumbent mid-search; eq4 (colors of 14 and 4
    # rectangles) and random 5x5 seed 3 (12 and 7) mix under head 7.
    cases = [(make_family("eq", 8), None),
             (xor_power(make_family("gt", 3), 3),
              SearchLimits(node_budget=500, rect_budget=100000)),
             (xor_power(make_family("random", 3, seed=3), 3), None),
             (xor_power(make_family("random", 4, seed=28), 2),
              SearchLimits(node_budget=3000, rect_budget=100000)),
             (make_family("eq", 4), None),
             (make_family("random", 5, seed=3), None)]
    got = [cover_number(f, limits=lim) for f, lim in cases]
    narrowing = rectangles._exact_color_cover
    taken = set()

    def mixed(universe, cell_masks, *args):
        search = (_full_scan_color_cover if len(cell_masks) <= head
                  else narrowing)
        taken.add(search)
        return search(universe, cell_masks, *args)

    monkeypatch.setattr(rectangles, "_exact_color_cover", mixed)
    assert [cover_number(f, limits=lim) for f, lim in cases] == got
    assert taken == {0: {narrowing},
                     7: {narrowing, _full_scan_color_cover},
                     10**9: {_full_scan_color_cover}}[head]
    monkeypatch.setattr(rectangles, "_exact_color_cover",
                        _full_scan_color_cover)
    want = [cover_number(f, limits=lim) for f, lim in cases]
    assert want[2].nodes == 21077
    assert got == want


def test_cover_bound_stages_decide_alike_on_random(monkeypatch):
    # 3x3 to 7x7: most of them search.
    rng = random.Random(13)
    inputs = [random_sign(rng.randint(3, 7), rng.randint(3, 7), 4000 + k)
              for k in range(200)]
    got = [cover_number(f) for f in inputs]
    monkeypatch.setattr(rectangles, "_exact_color_cover",
                        _full_scan_color_cover)
    assert [cover_number(f) for f in inputs] == got


def test_cover_search_frees_its_arrays_on_return():
    # rec holds itself in its closure until the search breaks the cycle
    # on return; with the cyclic collector held off, a cycle left in
    # place keeps every table of the search: about 4.2 MB at 500 nodes
    # on gt3^3.  The call keeps about 45 KB net: index_bits tuples
    # parked on CPython's tuple free lists, which nothing references.
    gt3cube = xor_power(make_family("gt", 3), 3)
    limits = SearchLimits(node_budget=500, rect_budget=100000)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        cover_number(gt3cube, limits=limits)  # fills caches and free lists
        before = tracemalloc.get_traced_memory()[0]
        cover_number(gt3cube, limits=limits)
        net = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert net < 60_000


def _undominated_pairwise(covs):
    """Mask i is kept unless some other mask j contains it and differs
    from it, or equals it with j < i."""
    return [i for i, a in enumerate(covs)
            if not any(j != i and a | b == b and (a != b or j < i)
                       for j, b in enumerate(covs))]


def test_undominated_matches_pairwise_definition():
    # A candidate covers the cell the node branches on, so no mask is 0.
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 40)
        bits = rng.choice([4, 8, 16])
        covs = [rng.getrandbits(bits) | 1 for _ in range(n)]
        assert _undominated(covs) == _undominated_pairwise(covs), covs
    for _ in range(200):
        # Nested chains and repeated equal masks, shuffled: the earlier of
        # equal masks wins, and a mask under a dominated one is dropped.
        covs = []
        for _ in range(rng.randint(1, 6)):
            m = rng.getrandbits(12) | 1
            for _ in range(rng.randint(1, 5)):
                covs += [m] * rng.randint(1, 3)
                m &= rng.getrandbits(12) | 1
        rng.shuffle(covs)
        covs = covs[:40]
        assert _undominated(covs) == _undominated_pairwise(covs), covs
    assert _undominated([3, 3, 1, 7, 7]) == [3]


def _cells(f, r):
    return sum(1 << (x * f.cols + y) for x in r.row_set for y in r.col_set)


def _first_max_greedy(f, rects):
    """Greedy cover by full rescans: the first rectangle of the largest
    fresh coverage, else the closure of the first uncovered cell."""
    masks = [_cells(f, r) for r in rects]
    uncovered = (1 << f.cells) - 1
    chosen, extra = [], []
    while uncovered:
        covs = [(m & uncovered).bit_count() for m in masks]
        if max(covs):
            chosen.append(covs.index(max(covs)))
            uncovered &= ~masks[chosen[-1]]
        else:
            cell = (uncovered & -uncovered).bit_length() - 1
            x, y = divmod(cell, f.cols)
            v = f.sign[x, y]
            cols = np.flatnonzero(f.sign[x] == v)
            rows = np.flatnonzero((f.sign[:, cols] == v).all(axis=1))
            extra.append(Rectangle(rows, cols, color=int(v)))
            uncovered &= ~_cells(f, extra[-1])
    return chosen, extra


def test_greedy_cover_first_best_pick():
    fallbacks = 0
    for s in range(50):
        f = random_sign(1 + s % 8, 1 + s * 5 % 8, 1100 + s)
        full = enumerate_maximal_mono(f).rects
        # Every other matrix gets a truncated universe, which leaves
        # cells for the closure fallback.
        budget = max(1, len(full) // 3) if s % 2 else len(full)
        rects = enumerate_maximal_mono(f, budget=budget).rects
        want = _first_max_greedy(f, rects)
        # The greedy covers each color alone: its picks and extras are the
        # oracle's of that color, in order.
        for color in (1, -1):
            ids = [i for i, r in enumerate(rects) if r.color == color]
            cells = sum(1 << (x * f.cols + y) for x in range(f.rows)
                        for y in range(f.cols) if f.sign[x, y] == color)
            picks, extra = _greedy_cover(f, cells, color,
                                         [_cells(f, rects[i]) for i in ids])
            assert [ids[i] for i in picks] == [
                i for i in want[0] if rects[i].color == color]
            assert [Rectangle(index_bits(a), index_bits(b), color=color)
                    for a, b in extra] == [r for r in want[1]
                                           if r.color == color]
        fallbacks += bool(want[1])
    assert fallbacks >= 10


def test_cover_truncated_universe_inconclusive():
    f = random_sign(5, 5, 10)
    full = enumerate_maximal_mono(f)
    res = cover_number(f, limits=SearchLimits(rect_budget=max(1, len(full.rects) - 2)))
    assert res.status == INCONCLUSIVE and not res.exact
    with pytest.raises(ValueError, match=INCONCLUSIVE):
        res.value
    assert res.cover is not None and validate_cover(f, res.cover)
    exact = cover_number(f)
    assert res.lower <= exact.value


def test_cover_builds_rectangles_only_for_its_cover(monkeypatch):
    made = []

    class Counted(Rectangle):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(rectangles, "Rectangle", Counted)
    cases = [(make_family("eq", 4), None),
             (xor_power(make_family("gt", 3), 3),
              SearchLimits(node_budget=500, rect_budget=100000)),
             (random_sign(5, 5, 10), SearchLimits(rect_budget=3))]
    for f, lim in cases:
        for mode in (EXACT, "greedy"):
            made.clear()
            res = cover_number(f, mode, lim)
            assert len(made) == len(res.cover) > 0


def _singleton_cover(f):
    return [Rectangle((x,), (y,), color=int(f.sign[x, y]))
            for x in range(f.rows) for y in range(f.cols)]


def test_validate_cover_rejects_each_defect():
    f = random_sign(4, 5, 31)
    cells = _singleton_cover(f)
    assert validate_cover(f, tuple(cells))
    # Each cell left out in turn: the rest still covers every other one.
    for k in range(len(cells)):
        assert not validate_cover(f, tuple(cells[:k] + cells[k + 1:]))
    r = cells[7]
    wrong = Rectangle(r.row_set, r.col_set, color=-r.color)
    for bad in (wrong, Rectangle(r.row_set, r.col_set)):
        assert not validate_cover(f, tuple(cells[:7] + [bad] + cells[8:]))
    # The whole grid is not monochromatic under either color.
    for color in (1, -1):
        grid = Rectangle(range(f.rows), range(f.cols), color=color)
        assert check_monochromatic(f, grid) is None
        assert not validate_cover(f, tuple(cells + [grid]))


def _grid_validate_cover(f, cover):
    """validate_cover on a boolean grid: each rectangle's cells marked
    by one fancy index, once its color is checked on them."""
    seen = np.zeros((f.rows, f.cols), dtype=bool)
    for r in cover:
        if r.color is None or check_monochromatic(f, r) != r.color:
            return False
        seen[np.ix_(r.row_set, r.col_set)] = True
    return bool(seen.all())


def test_validate_cover_matches_the_grid_reference():
    # Covers of random 1x1-9x9 inputs, and each with one defect.
    rng = random.Random(23)
    for k in range(81):
        f = random_sign(1 + k // 9, 1 + k % 9, 7100 + k)
        cover = list(cover_number(f, (EXACT, "greedy")[k % 2]).cover)
        assert validate_cover(f, tuple(cover))
        assert _grid_validate_cover(f, tuple(cover))
        i = rng.randrange(len(cover))
        r = cover[i]
        defects = [
            (cover[:i] + cover[i + 1:], None),  # still a cover if redundant
            (cover[:i] + [Rectangle(r.row_set, r.col_set, color=-r.color)]
             + cover[i + 1:], False),
            (cover[:i] + [Rectangle(r.row_set, r.col_set)] + cover[i + 1:],
             False)]
        mixed = [(x, y) for x in range(f.rows) for y in range(f.cols)
                 if f.sign[x, y] != f.sign[0, 0]]
        if mixed:  # a rectangle of at most 2x2 holding both signs
            x, y = mixed[rng.randrange(len(mixed))]
            bad = Rectangle((0, x), (0, y), color=(1, -1)[k % 2])
            assert check_monochromatic(f, bad) is None
            defects.append((cover[:i] + [bad] + cover[i:], False))
        for defective, want in defects:
            got = validate_cover(f, tuple(defective))
            assert got == _grid_validate_cover(f, tuple(defective))
            assert want is None or got == want
        for side in ((f.rows,), r.col_set), (r.row_set, (f.cols,)):
            out = Rectangle(*side, color=r.color)
            for check in (validate_cover, _grid_validate_cover):
                with pytest.raises(ValueError) as err:
                    check(f, tuple(cover[:i] + [out] + cover[i:]))
                assert str(err.value) == "rectangle indices out of range"


def test_cover_raises_on_a_search_that_returns_a_non_cover(monkeypatch):
    def short(universe, cell_masks, incumbent, fooling_mask, meter):
        return incumbent[:-1], True  # eq4's greedy covers are minimal

    monkeypatch.setattr(rectangles, "_exact_color_cover", short)
    with pytest.raises(InvariantError, match="re-validation"):
        cover_number(make_family("eq", 4))


def test_fooling_bound_sound():
    for s in range(10):
        f = random_sign(4, 4, 800 + s)
        assert fooling_set_bound(f) <= cover_number(f).value


def test_cover_validates_once(monkeypatch):
    import cclab.rectangles as rectangles

    calls = []

    def counted(f, cover):
        calls.append(len(cover))
        return validate_cover(f, cover)

    monkeypatch.setattr(rectangles, "validate_cover", counted)
    f = make_family("eq", 4)
    for mode in (EXACT, "greedy"):
        calls.clear()
        res = cover_number(f, mode)
        assert calls == [res.upper]


def _scan_fooling_cells(f):
    """The greedy fooling set by a row-major scan of the sign matrix:
    (x, y, sign) of each cell that fits in no monochromatic rectangle
    with a cell kept before it."""
    sign = f.sign
    kept = []
    for x in range(f.rows):
        for y in range(f.cols):
            v = sign[x, y]
            if not any(v == v2 and sign[x, y2] == v and sign[x2, y] == v
                       for x2, y2, v2 in kept):
                kept.append((x, y, int(v)))
    return kept


def test_fooling_cells_match_scan():
    mats = [random_sign(1 + s // 9, 1 + s % 9, 1200 + s) for s in range(81)]
    mats += [xor_power(make_family(fam, m), 2)
             for fam in ("eq", "gt", "and", "ip") for m in (2, 4)]
    # The pinned 27x27 lifts: gt3^3 and the random 3x3^3 rows.
    mats += [xor_power(make_family("gt", 3), 3)]
    mats += [xor_power(make_family("random", 3, seed=s), 3)
             for s in (3, 4, 6, 12, 13, 14, 16, 26)]
    for f in mats:
        want = _scan_fooling_cells(f)
        assert fooling_set_bound(f) == len(want)
        for color in (1, -1):
            mask = _fooling_cells(f, color)
            cells = [divmod(c, f.cols) for c in range(f.cells) if mask >> c & 1]
            assert cells == [(x, y) for x, y, v in want if v == color]
            for i, (x, y) in enumerate(cells):
                assert f.sign[x, y] == color
                for x2, y2 in cells[:i]:
                    assert not (f.sign[x, y2] == color == f.sign[x2, y])


# ----------------------------------------------------------- properties

def test_averaging_area_times_cover_covers_grid():
    mats = list(all_sign_matrices(2, 2))
    mats += list(all_sign_matrices(3, 3))
    mats += [random_sign(4, 4, 900 + s) for s in range(10)]
    for f in mats:
        c = cover_number(f).value
        assert max_mono_rectangle(f).area * c >= f.cells


def test_cover_monotone_under_restriction():
    for s in range(10):
        f = random_sign(3, 3, 1000 + s)
        full = cover_number(f).value
        for rows, cols in (((0, 1), (0, 1, 2)), ((0, 2), (1, 2)), ((1,), (0, 2))):
            sub = restrict(f, rows, cols)
            assert cover_number(sub).value <= full


def test_d_at_least_log_cover():
    for s in range(6):
        f = random_sign(3, 3, 1100 + s)
        d = exact_cc(f).value
        c = cover_number(f).value
        assert d >= (c - 1).bit_length()


# ----------------------------------------------------------- file formats

def test_rect_round_trip():
    r = Rectangle((0, 2), (1,), color=-1)
    assert parse_rect(format_rect(r)) == r
    r2 = Rectangle((1,), (0, 3))
    assert parse_rect(format_rect(r2)) == r2


def test_parse_rect_errors():
    from cclab import ParseError
    with pytest.raises(ParseError):
        parse_rect("0 1\n")
    with pytest.raises(ParseError):
        parse_rect("0\n1\n+2\n")


def test_parse_rect_errors_name_the_physical_line():
    from cclab import ParseError
    for text, line in (("0 1\n\n2\n+2\n", 4),       # color after a blank
                       ("0 1\n2 x\n", 2),            # bad column index
                       ("0\n1\n+1\n\nextra\n", 5)):  # extra after a blank
        with pytest.raises(ParseError) as info:
            parse_rect(text)
        assert info.value.line == line, text


def test_parse_rect_indices_are_ascii_digits():
    from cclab import ParseError
    assert parse_rect("03 1\n2\n") == Rectangle((1, 3), (2,))
    for text, line in (("\u0663 1\n2\n", 1), ("+1\n2\n", 1),
                       ("0\n1_0\n", 2)):
        with pytest.raises(ParseError) as info:
            parse_rect(text)
        assert info.value.line == line, text


def test_search_limits_parse_reads_ascii_digits_only():
    assert SearchLimits.parse("") == SearchLimits()
    assert SearchLimits.parse("node=03,ms=5") == SearchLimits(
        node_budget=3, time_budget_ms=5)
    for text in ("node=1_000", "rects=\u0663", "node= 5", "node=5, rects=9",
                 " ", "node=", "node=+3"):
        with pytest.raises(ValueError):
            SearchLimits.parse(text)
