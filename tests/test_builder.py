import math

import pytest

from cclab import (BoolFun, CapacityError, InvariantError, Rectangle,
                   SearchLimits, balance, build_protocol, cover_number,
                   evaluate, exact_cc, leaf_budget, make_family,
                   max_mono_rectangle, rank, rank_step_budget, restrict,
                   shrink_step_budget, theorem_report, verify, xor_power)
from cclab.builder import (ALICE_SENDS, BOB_SENDS, DIRECT_MAX, LIFT_EXTRACT,
                           BuildStep, BuildTrace, _area_guarantee,
                           _ceil_nth_root, choose_split, find_big_rectangle)
from cclab.rectangles import EXACT

from oracles import rank_fractions, random_sign


# ----------------------------------------------------------- choose_split

def test_choose_split_eq4_offdiag_block():
    eq4 = make_family("eq", 4)
    side, side_rank = choose_split(eq4, Rectangle((0, 1), (2, 3)), rank(eq4))
    # rank(f) = 4, threshold (4+3)/2 = 3.5: chosen block rank <= 3
    assert side == ALICE_SENDS
    assert 2 * side_rank <= rank(eq4) + 3
    assert side_rank == rank_fractions(eq4.sign[[0, 1], :].tolist())


def test_choose_split_rank_one_prefers_alice():
    f = make_family("xor", 4)  # rank 1
    r = max_mono_rectangle(f)
    side, side_rank = choose_split(f, r, rank(f))
    assert side == ALICE_SENDS
    assert 2 * side_rank <= rank(f) + 3


def test_choose_split_planted_block_matches_oracle():
    for seed in range(12):
        f = random_sign(6, 6, 4000 + seed)
        # plant a monochromatic 3x3 block
        sign = f.sign.copy()
        sign.flags.writeable = True
        sign[0:3, 0:3] = 1
        g = BoolFun(sign)
        rect = Rectangle((0, 1, 2), (0, 1, 2), color=1)
        rk = rank(g)
        side, side_rank = choose_split(g, rect, rk)
        row_rank = rank_fractions(g.sign[0:3, :].tolist())
        col_rank = rank_fractions(g.sign[:, 0:3].tolist())
        if side == ALICE_SENDS:
            assert side_rank == row_rank
            assert 2 * row_rank <= rk + 3
        else:
            assert side_rank == col_rank
            assert 2 * row_rank > rk + 3
            assert 2 * col_rank <= rk + 3


def test_choose_split_bob_side():
    # Column 0 set to +1 makes R = all rows x column 0 monochromatic;
    # R's rows are every row, so Alice's block has rank(f) = 5 and
    # fails, and Bob's, the one column, has rank 1.
    sign = make_family("random", 6, seed=1).sign.copy()
    sign[:, 0] = 1
    f = BoolFun(sign)
    assert rank(f) == 5
    R = Rectangle(range(6), (0,))
    assert choose_split(f, R, rank(f)) == (BOB_SENDS, 1)


def test_choose_split_neither_side_names_both_ranks(monkeypatch):
    import cclab.builder as builder

    monkeypatch.setattr(builder, "rank", lambda g: 10 * g.rows + g.cols)
    eq4 = make_family("eq", 4)
    with pytest.raises(InvariantError,
                       match=r"rank\[R A\]=24, rank\[R;B\]=42"):
        choose_split(eq4, Rectangle((0, 1), (2, 3)), 4)


def test_choose_split_rejects_non_monochromatic():
    eq4 = make_family("eq", 4)
    with pytest.raises(ValueError):
        choose_split(eq4, Rectangle((0, 1), (0, 1)), rank(eq4))


# ----------------------------------------------------------- find_big

def test_find_big_constant_full_matrix():
    f = make_family("const", 3, const_value=0)
    rect = find_big_rectangle(f, 1)
    assert rect.area == 9


def test_find_big_direct_eq4():
    rect = find_big_rectangle(make_family("eq", 4), 2)
    assert rect.area == 4


def test_find_big_lift_extract_eq4():
    eq4 = make_family("eq", 4)
    big = max_mono_rectangle(xor_power(eq4, 2))
    rect = find_big_rectangle(eq4, 2, strategy="lift")
    from cclab import check_monochromatic
    assert check_monochromatic(eq4, rect) == rect.color
    assert (4 * rect.area) ** 2 >= big.area


def test_find_big_area_check_with_exact_cover():
    for seed in range(6):
        f = random_sign(5, 5, 4100 + seed)
        cov = cover_number(f)
        assert cov.status == EXACT
        for strategy in ("direct", "lift"):
            rect = find_big_rectangle(f, 1, strategy=strategy)
            assert _area_guarantee(rect.area, f.cells, cov.value, 1)


def test_find_big_capacity_error_advises_direct():
    f = make_family("random", 80, seed=5)
    with pytest.raises(CapacityError, match="direct"):
        find_big_rectangle(f, 3, strategy="lift")


def test_find_big_rectangle_refuses_an_unknown_strategy():
    with pytest.raises(ValueError) as err:
        find_big_rectangle(make_family("eq", 4), 1, "nope")
    assert str(err.value) == "unknown strategy 'nope'"


# ----------------------------------------------------------- budgets

def test_leaf_budget_instantiation():
    assert leaf_budget(1, 1, 1) == 288
    # with C = 1 the budget is binom(8*rk + r*, r*) * 32
    for rk in (1, 2, 5, 9):
        r_star = rank_step_budget(rk)
        assert leaf_budget(rk, 1, 3) == math.comb(8 * rk + r_star, r_star) * 32
    # monotone in each argument
    assert leaf_budget(2, 4, 1) >= leaf_budget(2, 3, 1)
    assert leaf_budget(3, 4, 1) >= leaf_budget(2, 4, 1)
    assert leaf_budget(2, 16, 1) >= leaf_budget(2, 16, 2)


def test_step_budget_helpers():
    assert rank_step_budget(1) == 1
    assert rank_step_budget(5) == 9  # ceil(log_{5/4} 5) = 8
    assert shrink_step_budget(1, 1, 1) == 8
    assert shrink_step_budget(2, 9, 2) == 48  # ceil(16 * 3) via integer root


def test_budget_helpers_refuse_values_below_one():
    with pytest.raises(ValueError) as err:
        shrink_step_budget(5, 0, 1)
    assert str(err.value) == "cover value must be >= 1"
    with pytest.raises(ValueError) as err:
        leaf_budget(0, 1, 1)
    assert str(err.value) == "rank must be >= 1"


def test_ceil_nth_root_small_values():
    for n in (1, 2, 3):
        for t in (0, 1, 2, 9):
            want = next(s for s in range(10) if s ** n >= t)
            assert _ceil_nth_root(t, n) == want, (t, n)


def test_budgets_ok_fails_on_each_check():
    # rank 5 and C = 9 at n = 2: budgets 9 rank steps and 8*5*3 = 120
    # shrink steps, each met exactly and missed by one.
    rank_budget = rank_step_budget(5)
    shrink_budget = shrink_step_budget(5, 9, 2)
    assert (rank_budget, shrink_budget) == (9, 120)

    def trace(rank_steps=rank_budget, shrink_steps=shrink_budget,
              cover_value=9, **checks):
        step = BuildStep("split", 4, 4, 5, ALICE_SENDS, 4, 4, **checks)
        return BuildTrace((step,), rank_steps, shrink_steps, "tiny", 5,
                          cover_value, 2)

    assert trace().budgets_ok()
    assert trace(area_check=True, shrink_check=True).budgets_ok()
    assert not trace(rank_steps=rank_budget + 1).budgets_ok()
    assert not trace(shrink_steps=shrink_budget + 1).budgets_ok()
    # Without a cover value there is no shrink budget to miss.
    assert trace(shrink_steps=shrink_budget + 1,
                 cover_value=None).budgets_ok()
    assert not trace(area_check=False, shrink_check=True).budgets_ok()
    assert not trace(area_check=True, shrink_check=False).budgets_ok()


def test_area_guarantee_at_its_exact_boundary():
    # (4a)^n * C >= cells^n, met with equality, and missed by one.
    assert _area_guarantee(1, 16, 16, 2)  # 16 * 16 == 16**2
    assert not _area_guarantee(1, 15, 14, 2)  # 16 * 14 == 15**2 - 1
    assert not _area_guarantee(1, 5, 1, 1)  # 4 == 5 - 1


# ----------------------------------------------------------- build

def test_build_constant_single_leaf():
    f = make_family("const", 4, const_value=1)
    tree, trace = build_protocol(f, 1)
    assert tree.leaf_count == 1
    assert trace.rank_steps == 0 and trace.shrink_steps == 0
    assert verify(tree, f)


def test_build_eq4_low_rank_base():
    eq4 = make_family("eq", 4)
    tree, trace = build_protocol(eq4, 1)
    assert trace.base_case == "low_rank"
    assert trace.steps[0].kind == "low_rank"
    assert tree.leaf_count <= 32
    assert verify(tree, eq4)


def test_build_ip8_with_exact_cover_budgets():
    ip8 = make_family("ip", 8)
    cov = cover_number(ip8)
    assert cov.status == EXACT
    tree, trace = build_protocol(ip8, 1, cover_value=cov.value)
    assert verify(tree, ip8)
    assert trace.rank_steps <= rank_step_budget(trace.input_rank)
    assert trace.shrink_steps <= shrink_step_budget(trace.input_rank,
                                                    cov.value, 1)
    assert tree.leaf_count <= leaf_budget(trace.input_rank, cov.value, 1)
    assert trace.budgets_ok()


def test_build_ip8_n2_direct_rank_budget():
    ip8 = make_family("ip", 8)
    tree, trace = build_protocol(ip8, 2)
    assert verify(tree, ip8)
    assert trace.rank_steps <= rank_step_budget(trace.input_rank)


def test_build_random_8x8_corpus():
    for seed in range(8):
        f = random_sign(8, 8, 4200 + seed)
        cov = cover_number(f)
        assert cov.status == EXACT
        tree, trace = build_protocol(f, 1, cover_value=cov.value)
        assert verify(tree, f)
        assert trace.budgets_ok()
        assert tree.leaf_count <= leaf_budget(trace.input_rank, cov.value, 1)
        for step in trace.steps:
            if step.kind == "split":
                assert step.area_check is True
                assert step.shrink_check is True


def test_build_lift_strategy_small():
    for seed in (4203, 4207):
        f = random_sign(6, 6, seed)
        if rank(f) < 5:
            continue
        tree, trace = build_protocol(f, 2, strategy="lift")
        assert verify(tree, f)
        assert trace.rank_steps <= rank_step_budget(trace.input_rank)


def test_build_duplicate_rows_expand_back():
    import numpy as np
    from cclab import BoolFun
    base = random_sign(4, 8, 4300)
    sign = np.vstack([base.sign, base.sign[0:2], base.sign[1:2]])
    f = BoolFun(sign)  # 7 rows with duplicates
    cov = cover_number(f)
    tree, trace = build_protocol(f, 1, cover_value=cov.value)
    assert verify(tree, f)
    assert trace.budgets_ok()


def test_build_degenerate_vectors():
    row = random_sign(1, 7, 4400)
    tree, trace = build_protocol(row, 1)
    assert verify(tree, row)
    assert trace.base_case in ("low_rank", "tiny")
    col = random_sign(7, 1, 4401)
    tree, trace = build_protocol(col, 1)
    assert verify(tree, col)


def test_build_raises_on_failed_verification(monkeypatch):
    import cclab.builder as builder

    monkeypatch.setattr(builder, "verify", lambda tree, f: False)
    with pytest.raises(InvariantError, match="verification"):
        build_protocol(make_family("eq", 4), 1)


def test_build_raises_on_failed_budget_audit(monkeypatch):
    # ip8 splits at its root, so a rank-step budget of 0 fails the
    # audit, which runs when the cover value is given.
    import cclab.builder as builder

    ip8 = make_family("ip", 8)
    cover_value = cover_number(ip8).value
    monkeypatch.setattr(builder, "rank_step_budget", lambda rk: 0)
    with pytest.raises(InvariantError, match="budgets"):
        build_protocol(ip8, 1, cover_value=cover_value)
    assert build_protocol(ip8, 1)[1].rank_steps > 0  # greedy: no audit


def test_balanced_composition():
    for seed in range(4):
        f = random_sign(7, 7, 4500 + seed)
        tree, _ = build_protocol(f, 1)
        bal = balance(tree)
        assert verify(bal, f)
        if tree.leaf_count > 1:
            bound = math.ceil(2 * math.log(tree.leaf_count) / math.log(1.5))
            assert bal.depth <= bound


# ----------------------------------------------------------- report

def test_report_xor2_degenerate():
    row, exact = theorem_report(make_family("xor", 2), 1)
    assert row["degenerate"] and row["rank"] == 1
    assert exact and row["D_lo"] == row["D_hi"] == 2
    assert row["rho"] is None


def test_report_eq2_n2_all_exact():
    row, exact = theorem_report(make_family("eq", 2), 2)
    assert list(row) == ["name", "rows", "cols", "rank", "D_lo", "D_hi", "n",
                         "C_lo", "C_hi", "logC", "rho", "degenerate",
                         "leaves", "balanced_depth"]
    assert exact
    assert row["D_lo"] == 2
    assert row["C_lo"] == row["C_hi"] == 4
    assert abs(row["logC"] - 2.0) < 1e-9
    assert row["degenerate"]  # eq2's sign matrix has rank 1


def test_report_eq3_n2_rho_computed():
    row, exact = theorem_report(make_family("eq", 3), 2)
    assert exact and not row["degenerate"]
    lg = math.log2(row["rank"])
    want = (row["logC"] / 2 + lg) * lg / row["D_hi"]
    assert abs(row["rho"] - want) < 1e-12


def test_report_eq4_n2_bounded_cover_ok():
    limits = SearchLimits(node_budget=3000)
    row, exact = theorem_report(make_family("eq", 4), 2, limits=limits)
    assert exact_cc(make_family("eq", 4), limits).exact
    assert row["D_lo"] == row["D_hi"] == 3
    assert row["rank"] == 4
    assert row["C_lo"] <= row["C_hi"]
    # D is exact, so the row is exact exactly when C is, and logC is
    # given only for an exact C.
    assert exact == (row["logC"] is not None)
    if not exact:
        assert row["rho"] is None
    assert row["leaves"] >= 1 and row["balanced_depth"] >= 1


def test_build_ranks_each_block_once(monkeypatch):
    # One rank for the input and per split step two, the row side of the
    # split and the complement, plus the column side when the row side
    # fails.  The stacked block's rank is handed down from its parent.
    import cclab.matrix as matrix

    calls = []
    real = matrix.exact_rank

    def counted(mat):
        calls.append(1)
        return real(mat)

    monkeypatch.setattr(matrix, "exact_rank", counted)
    for f, n, strategy, want in (
            (make_family("ip", 8), 1, DIRECT_MAX, (5, 1)),
            (make_family("random", 16, seed=1), 1, DIRECT_MAX, (5, 1)),
            (make_family("gt", 5), 2, LIFT_EXTRACT, (1, 0))):
        calls.clear()
        _, trace = build_protocol(f, n, strategy=strategy)
        splits = sum(s.kind == "split" for s in trace.steps)
        bob = sum(s.side == BOB_SENDS for s in trace.steps)
        assert (splits, bob) == want, f.label
        assert len(calls) == 1 + 2 * splits + bob, f.label
