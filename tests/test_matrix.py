import numpy as np
import pytest

from cclab import (BoolFun, CapacityError, DESK_CELL_CAP, ParseError,
                   classes, distinct_col_count, distinct_row_count,
                   exact_rank, format_bfn, make_family, parse_bfn, rank,
                   restrict, splitmix64, xor_power)
from cclab.matrix import index_bits

from oracles import brute_family, brute_lift_sign, rank_fractions, random_sign


# ---------------------------------------------------------------- families

def test_xor2_sign_matrix():
    f = make_family("xor", 2)
    assert f.sign.tolist() == [[1, -1], [-1, 1]]


def test_const3_all_plus_one():
    f = make_family("const", 3, const_value=0)
    assert f.sign.tolist() == [[1, 1, 1]] * 3
    g = make_family("const", 2, const_value=1)
    assert g.sign.tolist() == [[-1, -1], [-1, -1]]


def test_eq4_diagonal():
    f = make_family("eq", 4)
    want = [[-1 if x == y else 1 for y in range(4)] for x in range(4)]
    assert f.sign.tolist() == want
    assert repr(f) == "<BoolFun 'eq4' 4x4>"
    assert repr(BoolFun(f.sign[:2, :3])) == "<BoolFun 2x3>"


def test_and2_is_boolean_and():
    f = make_family("and", 2)
    assert f.sign.tolist() == [[1, 1], [1, -1]]


def test_gt_strict_lower_triangle():
    f = make_family("gt", 3)
    assert f.sign.tolist() == [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]


@pytest.mark.parametrize("name", ["xor", "and", "eq", "gt", "ip"])
def test_fixed_families_match_cell_oracle(name):
    for m in range(1, 65):
        if name == "ip" and m & (m - 1):
            continue  # ip is defined at powers of two only
        f = make_family(name, m)
        assert f.sign.tolist() == brute_family(name, m), (name, m)
        assert f.label == f"{name}{m}"


def test_random_family_deterministic():
    a = make_family("random", 6, seed=7)
    b = make_family("random", 6, seed=7)
    c = make_family("random", 6, seed=8)
    assert np.array_equal(a.sign, b.sign)
    assert not np.array_equal(a.sign, c.sign)


def test_family_argument_errors():
    with pytest.raises(ValueError):
        make_family("random", 4)  # seed required
    with pytest.raises(ValueError):
        make_family("const", 4)  # value required
    with pytest.raises(ValueError):
        make_family("ip", 6)  # power of two required
    with pytest.raises(ValueError):
        make_family("nope", 4)
    with pytest.raises(ValueError):
        make_family("eq", 0)


def test_splitmix64_known_stream():
    # reference values for seed 0 (documented generator)
    stream = splitmix64(0)
    assert next(stream) == 0xE220A8397B1DCDAF
    assert next(stream) == 0x6E789E6AA1B965F4


# ---------------------------------------------------------------- xor_power

def test_xor_power_identity():
    f = make_family("xor", 2)
    lift = xor_power(f, 1)
    assert np.array_equal(lift.sign, f.sign)


def test_xor_power_zero_tuple_entry():
    f = make_family("xor", 2)
    lift = xor_power(f, 2)
    assert np.unravel_index(0, (f.rows,) * 2) == (0, 0)
    assert lift.sign[0, 0] == f.sign[0, 0] ** 2 == 1


def test_xor_power_and2_matches_brute_force():
    f = make_family("and", 2)
    lift = xor_power(f, 2)
    assert np.array_equal(lift.sign, brute_lift_sign(f, 2))


@pytest.mark.parametrize("name,m,n", [
    ("xor", 2, 3), ("eq", 3, 2), ("gt", 3, 3), ("and", 4, 2), ("eq", 4, 2),
])
def test_xor_power_families_match_brute_force(name, m, n):
    f = make_family(name, m)
    assert np.array_equal(xor_power(f, n).sign, brute_lift_sign(f, n))


def test_xor_power_random_matches_brute_force():
    for seed in range(6):
        f = random_sign(3, 2, seed)
        for n in (1, 2, 3):
            assert np.array_equal(xor_power(f, n).sign,
                                  brute_lift_sign(f, n))
    f = random_sign(4, 4, 12345)
    assert np.array_equal(xor_power(f, 3).sign, brute_lift_sign(f, 3))


def test_xor_power_rejects_bad_n():
    with pytest.raises(ValueError):
        xor_power(make_family("xor", 2), 0)


def test_xor_power_capacity_error_names_limit():
    f = make_family("random", 300, seed=1)
    with pytest.raises(CapacityError, match=str(DESK_CELL_CAP)):
        xor_power(f, 3)


def test_xor_power_one_cell_base_up_to_order_24():
    # A 1x1 base never outgrows the cell cap, so the order is capped at
    # 24, past which every larger base is over it.
    f = make_family("const", 1, const_value=1)
    lift = xor_power(f, 24)
    assert lift.sign.tolist() == [[(-1) ** 24]]
    with pytest.raises(CapacityError, match="n=25"):
        xor_power(f, 25)


def test_family_over_cap_builds_nothing(monkeypatch):
    # The cell count is checked before any cell is generated: the
    # random stream and the table of fixed families must not be used.
    import cclab.matrix as matrix

    def stream(seed):
        raise AssertionError("drew from the random stream")
        yield

    def cells(x, y):
        raise AssertionError("computed family cells")

    monkeypatch.setattr(matrix, "splitmix64", stream)
    monkeypatch.setattr(matrix, "_FIXED_FAMILIES",
                        dict.fromkeys(matrix._FIXED_FAMILIES, cells))
    for name, m in (("random", 4200), ("ip", 8192), ("xor", 100000)):
        with pytest.raises(CapacityError, match=str(DESK_CELL_CAP)):
            make_family(name, m, seed=1)


def test_xor_power_lifted_index_order():
    # Lifted row i is the tuple np.unravel_index(i, (rows,) * n), first
    # coordinate most significant, and the lifted sign is the product of
    # the base signs over the coordinates.
    base = random_sign(3, 2, 7)
    lift = xor_power(base, 3)
    for i in range(base.rows ** 3):
        xt = np.unravel_index(i, (base.rows,) * 3)
        assert 9 * xt[0] + 3 * xt[1] + xt[2] == i
        for j in range(base.cols ** 3):
            yt = np.unravel_index(j, (base.cols,) * 3)
            assert 4 * yt[0] + 2 * yt[1] + yt[2] == j
            want = np.prod([base.sign[x, y] for x, y in zip(xt, yt)])
            assert lift.sign[i, j] == want


# ---------------------------------------------------------------- rank

def test_rank_examples():
    assert rank(make_family("xor", 2)) == 1
    assert rank(make_family("const", 3, const_value=0)) == 1
    assert rank(make_family("eq", 4)) == 4
    assert rank(make_family("ip", 8)) == 8


def test_rank_matches_fraction_oracle():
    for seed in range(50):
        f = random_sign(2 + seed % 7, 2 + (seed // 3) % 7, seed)
        assert rank(f) == rank_fractions(f.sign.tolist())


def test_exact_rank_rectangular_and_integers():
    assert exact_rank([[2, 4], [1, 2]]) == 1
    assert exact_rank([[0, 0, 0]]) == 0
    assert exact_rank([[1, 0, 3], [0, 5, 1]]) == 2


def test_rank_multiplicativity_under_lift():
    cases = [(2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 2), (4, 4, 2)]
    for rows, cols, max_n in cases:
        for seed in range(4):
            f = random_sign(rows, cols, 100 + seed)
            r = rank(f)
            for n in range(1, max_n + 1):
                assert rank(xor_power(f, n)) == r ** n
    # one 4x4 cube to cover the n=3 corner
    f = random_sign(4, 4, 999)
    assert rank(xor_power(f, 3)) == rank(f) ** 3


def test_rank_subadditivity():
    stream = splitmix64(31337)
    for _ in range(200):
        r = 2 + next(stream) % 5
        c = 2 + next(stream) % 5
        a = random_sign(r, c, next(stream))
        b = random_sign(r, c, next(stream))
        s = a.sign.astype(np.int64) + b.sign.astype(np.int64)
        assert exact_rank(s.tolist()) <= rank(a) + rank(b)


# ---------------------------------------------------------------- distinct

def _brute_classes(f, rows, cols):
    """Rows grouped by their numpy content on cols, then columns by
    their content on the first row of each row class."""
    groups = {}
    for x in rows:
        groups.setdefault(f.sign[x, cols].tobytes(), []).append(x)
    reps = [g[0] for g in groups.values()]
    col_groups = {}
    for y in cols:
        col_groups.setdefault(f.sign[reps, y].tobytes(), []).append(y)
    return list(groups.values()), list(col_groups.values())


def test_distinct_counts_examples():
    assert distinct_row_count(make_family("const", 3, const_value=0)) == 1
    assert distinct_row_count(make_family("eq", 4)) == 4
    f = make_family("xor", 2)
    assert distinct_row_count(f) == 2 == 2 ** rank(f)
    assert distinct_col_count(make_family("gt", 5)) == 5
    g = BoolFun([[1, -1, 1], [1, -1, 1], [-1, 1, -1], [1, -1, 1]])
    assert classes(g) == ([[0, 1, 3], [2]], [[0, 2], [1]])
    assert classes(g, 0b1100, 0b110) == ([[2], [3]], [[1], [2]])
    assert classes(g, 0b0100, 0b001) == ([[2]], [[0]])
    ones = g.masks(-1)
    assert ones == ((0b010, 0b010, 0b101, 0b010), (0b0100, 0b1011, 0b0100))
    assert g.masks(-1) is ones
    assert g.masks(1) == ((0b101, 0b101, 0b010, 0b101),
                          (0b1011, 0b0100, 0b1011))
    with pytest.raises(ValueError):
        g.masks(0)
    assert index_bits(0) == () and index_bits(0b10110) == (1, 2, 4)


def test_distinct_rows_at_most_two_to_rank():
    stream = splitmix64(99)
    for seed in range(40):
        f = random_sign(2 + seed % 6, 2 + (seed // 2) % 6, 7000 + seed)
        assert distinct_row_count(f) <= 2 ** rank(f)
        assert distinct_col_count(f) <= 2 ** rank(f)
        assert classes(f) == _brute_classes(f, list(range(f.rows)),
                                            list(range(f.cols)))
        for k in range(6):
            # k = 0: one row and one column; otherwise random non-empty masks
            if k == 0:
                rmask = 1 << next(stream) % f.rows
                cmask = 1 << next(stream) % f.cols
            else:
                rmask = next(stream) % ((1 << f.rows) - 1) + 1
                cmask = next(stream) % ((1 << f.cols) - 1) + 1
            rows = [x for x in range(f.rows) if rmask >> x & 1]
            cols = [y for y in range(f.cols) if cmask >> y & 1]
            assert classes(f, rmask, cmask) == _brute_classes(f, rows, cols)


# ---------------------------------------------------------------- restrict

def test_restrict_identity_and_cells():
    eq4 = make_family("eq", 4)
    same = restrict(eq4, range(4), range(4))
    assert np.array_equal(same.sign, eq4.sign)
    single = restrict(eq4, [0], [1])
    assert single.sign.tolist() == [[1]]
    block = restrict(eq4, [0, 1], [2, 3])
    assert block.sign.tolist() == [[1, 1], [1, 1]]
    assert rank(block) == 1


def test_restrict_records_index_maps():
    f = random_sign(4, 5, 3)
    sub = restrict(f, [2, 0], [4, 1, 1])
    assert np.array_equal(sub.sign, f.sign[np.ix_([0, 2], [1, 4])])


def test_restrict_errors():
    f = make_family("eq", 3)
    with pytest.raises(ValueError):
        restrict(f, [], [0])
    with pytest.raises(ValueError):
        restrict(f, [0], [3])


@pytest.mark.parametrize("bad", [0.9, 2.0, "1", True, np.True_])
def test_restrict_refuses_an_index_that_is_not_an_integer(bad):
    f = make_family("eq", 4)
    for sides in ([0, bad], [3]), ([0], [bad]):
        with pytest.raises(ValueError) as err:
            restrict(f, *sides)
        assert str(err.value) == f"index must be an integer, got {bad!r}"


def test_restrict_takes_numpy_integers():
    f = random_sign(4, 5, 3)
    sub = restrict(f, np.array([2, 0]), [np.int64(4), np.uint8(1)])
    assert np.array_equal(sub.sign, f.sign[np.ix_([0, 2], [1, 4])])


# ---------------------------------------------------------------- BoolFun

def test_boolfun_validation_and_immutability():
    with pytest.raises(ValueError):
        BoolFun([[1, 2], [1, 1]])
    with pytest.raises(ValueError):
        BoolFun(np.zeros((0, 3), dtype=np.int8))
    f = make_family("eq", 3)
    with pytest.raises(ValueError):
        f.sign[0, 0] = -1


def test_f_value_sign_convention():
    f = make_family("eq", 2)
    assert f.f_value(0, 0) == 1 and f.f_value(0, 1) == 0


# ---------------------------------------------------------------- .bfn io

def test_bfn_round_trip():
    f = random_sign(3, 5, 11)
    assert np.array_equal(parse_bfn(format_bfn(f)).sign, f.sign)


def test_bfn_label_and_crlf():
    text = "2 3\r\n010\r\n111\r\n# demo\r\n"
    f = parse_bfn(text)
    assert f.label == "demo"
    assert f.sign.tolist() == [[1, -1, 1], [-1, -1, -1]]


def test_bfn_refuses_a_second_label_line():
    # One optional label line: a second is trailing content, refused at
    # its line, column 1, like any other, also when the first is blank.
    for text, line in (("1 1\n0\n# one\n# two\n", 4),
                       ("1 1\n0\n#\n\n# two\n", 5)):
        with pytest.raises(ParseError) as err:
            parse_bfn(text)
        assert (err.value.message, err.value.line, err.value.col) == (
            "unexpected trailing content", line, 1)
    assert parse_bfn("1 1\n0\n\n# one\n\n").label == "one"


def test_bfn_header_whitespace_strict():
    with pytest.raises(ParseError):
        parse_bfn("2  2\n00\n00\n")
    with pytest.raises(ParseError):
        parse_bfn(" 2 2\n00\n00\n")


def test_bfn_header_sizes_are_ascii_digits():
    # str.isdigit holds for both; int rejects the superscript and reads
    # the Arabic-Indic digit as 3.
    for head in ("\u00b2 1", "1 \u0663"):
        with pytest.raises(ParseError) as err:
            parse_bfn(head + "\n0\n")
        assert err.value.line == 1


def test_bfn_bad_cell_reports_position():
    with pytest.raises(ParseError) as err:
        parse_bfn("2 2\n00\n0x\n")
    assert err.value.line == 3 and err.value.col == 2


def test_bfn_short_line():
    with pytest.raises(ParseError):
        parse_bfn("2 3\n000\n00\n")
