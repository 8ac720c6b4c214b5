import gc
import hashlib
import json
import math
import sys

import pytest

from cclab import (ALICE, BOB, BoolFun, Leaf, Node, ProtocolTree,
                   SearchLimits, StructureError, balance, build_protocol,
                   cover_number, evaluate, exact_cc, format_tree,
                   make_family, rank, restrict, splitmix64, theorem_report,
                   tree_from_obj, tree_to_obj, verify, xor_power)
from cclab.protocol import first_mismatch

from oracles import all_sign_matrices, brute_cc, random_sign
from treegen import caterpillar_tree, random_tree


def _xor2_tree():
    # Alice announces x, Bob announces y, leaves labeled x xor y
    def bob(x):
        return Node(BOB, frozenset([1]), Leaf(x ^ 0), Leaf(x ^ 1))
    return ProtocolTree(Node(ALICE, frozenset([1]), bob(0), bob(1)), 2, 2)


def _chain(depth):
    node = Leaf(1)
    for _ in range(depth):
        node = Node(ALICE, frozenset([0]), Leaf(0), node)
    return node


# ----------------------------------------------------------- evaluate

def test_evaluate_single_leaf():
    t = ProtocolTree(Leaf(0), 3, 3)
    out, transcript = evaluate(t, 1, 2)
    assert out == 0 and transcript == ()


def test_evaluate_xor2_protocol():
    t = _xor2_tree()
    assert evaluate(t, 1, 0) == (1, (1, 0))
    for x in (0, 1):
        for y in (0, 1):
            assert evaluate(t, x, y)[0] == x ^ y


def test_evaluate_out_of_range():
    with pytest.raises(ValueError):
        evaluate(ProtocolTree(Leaf(0), 2, 2), 2, 0)


# ----------------------------------------------------------- verify

def test_verify_examples():
    const0 = make_family("const", 2, const_value=0)
    assert verify(ProtocolTree(Leaf(0), 2, 2), const0)
    assert not verify(ProtocolTree(Leaf(0), 2, 2), make_family("xor", 2))
    assert verify(_xor2_tree(), make_family("xor", 2))
    assert first_mismatch(ProtocolTree(Leaf(0), 2, 2),
                          make_family("xor", 2)) == (0, 1)
    assert first_mismatch(_xor2_tree(), make_family("xor", 2)) is None


def _evaluate_mismatch(t, f):
    """The row-major first cell where ``evaluate`` differs from f."""
    for x in range(f.rows):
        for y in range(f.cols):
            if evaluate(t, x, y)[0] != f.f_value(x, y):
                return x, y
    return None


def test_first_mismatch_matches_a_per_cell_evaluate():
    # Single leaves and random trees of several shapes, non-square ones
    # included, against random matrices and against the tree's own
    # function with 1, 2 and 5 cells flipped.
    stream = splitmix64(1357)
    trees = [ProtocolTree(Leaf(b), r, c)
             for b in (0, 1) for r, c in ((1, 1), (1, 4), (3, 2))]
    for r, c in ((1, 6), (6, 1), (2, 9), (7, 3), (8, 8), (5, 11)):
        trees += [random_tree(r, c, leaves, stream) for leaves in (2, 5, 40)]
    trees += [caterpillar_tree(5, 5, 20, stream),
              caterpillar_tree(3, 7, 9, stream)]
    for k, t in enumerate(trees):
        own = [[1 - 2 * evaluate(t, x, y)[0] for y in range(t.n_cols)]
               for x in range(t.n_rows)]
        assert first_mismatch(t, BoolFun(own)) is None
        fs = [random_sign(t.n_rows, t.n_cols, 900 + k)]
        for flips in (1, 2, 5):
            sign = [row[:] for row in own]
            for _ in range(flips):
                x, y = divmod(next(stream) % (t.n_rows * t.n_cols), t.n_cols)
                sign[x][y] = -sign[x][y]
            fs.append(BoolFun(sign))
        for f in fs:
            assert first_mismatch(t, f) == _evaluate_mismatch(t, f)


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError):
        verify(ProtocolTree(Leaf(0), 2, 2), make_family("eq", 3))


# ----------------------------------------------------------- structure

def test_structure_predicate_outside_reachable():
    bad = Node(ALICE, frozenset([0]),
               Node(ALICE, frozenset([0]), Leaf(0), Leaf(1)),  # 0 not reachable
               Leaf(1))
    with pytest.raises(StructureError):
        ProtocolTree(bad, 2, 2)


def test_structure_bad_speaker_and_output():
    with pytest.raises(StructureError):
        ProtocolTree(Node("carol", frozenset([0]), Leaf(0), Leaf(1)), 2, 2)
    for output in (2, True, False, 1.0, 0.0, None):
        with pytest.raises(StructureError):
            ProtocolTree(Leaf(output), 2, 2)


def test_structure_non_node_is_structure_error():
    with pytest.raises(StructureError, match="not a tree node: 5"):
        ProtocolTree(5, 2, 2)


def test_structure_deep_chain_is_structure_error():
    # Validation recurses once per level; a chain too deep for it is a
    # malformed tree, not a crash.
    with pytest.raises(StructureError):
        ProtocolTree(_chain(5000), 2, 2)


def test_leaf_count_and_depth():
    t = _xor2_tree()
    assert t.leaf_count == 4 and t.depth == 2
    assert repr(t) == "<ProtocolTree 2x2 leaves=4 depth=2>"


# ----------------------------------------------------------- serialization

def test_tree_json_round_trip():
    stream = splitmix64(99)
    for _ in range(12):
        t = random_tree(4, 5, 10, stream)
        blob = json.dumps(tree_to_obj(t), sort_keys=True)
        again = tree_from_obj(json.loads(blob))
        assert again == t
        assert json.dumps(tree_to_obj(again), sort_keys=True) == blob


def test_format_tree_is_json_dumps():
    # Random trees of several sizes, a node with an empty subset, a
    # 990-deep chain, and the built and balanced trees of the CLI's
    # construction pins (tests/test_cli.py).
    stream = splitmix64(4242)
    trees = [random_tree(3 + next(stream) % 12, 3 + next(stream) % 12,
                         leaves, stream)
             for leaves in (1, 2, 3, 7, 20, 60, 150) for _ in range(3)]
    trees.append(ProtocolTree(Node(BOB, frozenset(), Leaf(0), Leaf(1)), 1, 2))
    for family, m, seed, n, strategy in (
            ("ip", 8, None, 1, "direct"), ("eq", 12, None, 1, "direct"),
            ("random", 16, 1, 1, "direct"), ("random", 6, 4, 2, "lift"),
            ("gt", 5, None, 2, "lift"), ("eq", 4, None, 1, "direct")):
        tree = build_protocol(make_family(family, m, seed=seed), n,
                              strategy=strategy)[0]
        trees += [tree, balance(tree)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)  # json's encoder nests once per level
    try:
        trees.append(ProtocolTree(_chain(990), 2, 2))
        for t in trees:
            expected = json.dumps(tree_to_obj(t), sort_keys=True, indent=2)
            assert format_tree(t) == expected + "\n"
    finally:
        sys.setrecursionlimit(limit)


def test_tree_from_obj_errors():
    with pytest.raises(StructureError):
        tree_from_obj({"rows": 2, "cols": 2})
    with pytest.raises(StructureError):
        tree_from_obj({"rows": 2, "cols": 2, "tree": {"speaker": ALICE}})
    node = {"speaker": ALICE, "child0": {"output": 0},
            "child1": {"output": 1}}
    for subset in (5, "01", [0.0], [True], None):
        with pytest.raises(StructureError):
            tree_from_obj({"rows": 2, "cols": 2,
                           "tree": dict(node, subset=subset)})
    for rows in ("2", 2.0, None, [2]):
        with pytest.raises(StructureError):
            tree_from_obj({"rows": rows, "cols": 2, "tree": {"output": 0}})
    for output in (True, False, 1.0, 0.0, "1"):
        with pytest.raises(StructureError):
            tree_from_obj({"rows": 2, "cols": 2, "tree": {"output": output}})
    # A record holding an output and any node field is an error, not a
    # leaf whose children are dropped.
    full = dict(node, subset=[0])
    for extra in [{key: value} for key, value in full.items()] + [full]:
        with pytest.raises(StructureError):
            tree_from_obj({"rows": 2, "cols": 2,
                           "tree": dict(extra, output=1)})
    assert tree_from_obj({"rows": 2, "cols": 2,
                          "tree": dict(node, subset=[0])}).leaf_count == 2


# ----------------------------------------------------------- balance

def bound_of(leaves):
    return math.ceil(2 * math.log(leaves) / math.log(1.5)) if leaves > 1 else 0


def test_balance_single_leaf_unchanged():
    t = ProtocolTree(Leaf(1), 3, 4)
    assert balance(t) is t


def test_balance_nine_leaves_bound_eleven():
    assert bound_of(9) == 11
    stream = splitmix64(123)
    t = caterpillar_tree(5, 5, 8, stream)  # 9 leaves
    assert t.leaf_count == 9
    b = balance(t)
    assert b.depth <= 11


def test_balance_caterpillar_twenty_over_5x5():
    stream = splitmix64(321)
    t = caterpillar_tree(5, 5, 19, stream)
    assert t.leaf_count == 20
    b = balance(t)
    assert b.depth <= bound_of(20) == 15
    for x in range(5):
        for y in range(5):
            assert evaluate(t, x, y)[0] == evaluate(b, x, y)[0]


def test_balance_random_trees_depth_and_semantics():
    stream = splitmix64(2468)
    for _ in range(40):
        nr = 3 + next(stream) % 8
        nc = 3 + next(stream) % 8
        t = random_tree(nr, nc, 2 + next(stream) % 63, stream)
        b = balance(t)
        assert b.depth <= bound_of(t.leaf_count)
        for x in range(nr):
            for y in range(nc):
                assert evaluate(t, x, y)[0] == evaluate(b, x, y)[0]


def test_balance_choice_pinned_on_random_trees():
    # The trees of the test above and the two caterpillars, 702 leaves
    # in all: the hash pins which node each level splits on.
    stream = splitmix64(2468)
    trees = []
    for _ in range(40):
        nr = 3 + next(stream) % 8
        nc = 3 + next(stream) % 8
        trees.append(random_tree(nr, nc, 2 + next(stream) % 63, stream))
    trees.append(caterpillar_tree(5, 5, 19, splitmix64(321)))
    trees.append(caterpillar_tree(5, 5, 8, splitmix64(123)))
    assert sum(t.leaf_count for t in trees) == 702
    h = hashlib.sha256()
    for t in trees:
        h.update(json.dumps(tree_to_obj(balance(t)), sort_keys=True).encode())
    assert h.hexdigest() == ("5324092e7be4c3f7485c1cc915819a099d"
                             "28889d247e38bf04a28544c04da929")


# ----------------------------------------------------------- exact_cc

def test_exact_cc_examples():
    assert exact_cc(make_family("xor", 2)).value == 2
    assert exact_cc(make_family("const", 4, const_value=1)).value == 0
    assert exact_cc(make_family("eq", 4)).value == 3


def test_exact_cc_matches_brute_force():
    for f in all_sign_matrices(2, 2):
        assert exact_cc(f).value == brute_cc(f)
    for f in all_sign_matrices(3, 3):
        assert exact_cc(f).value == brute_cc(f)
    for seed in range(10):
        f = random_sign(3, 3, 3000 + seed)
        assert exact_cc(f).value == brute_cc(f)
    for seed in range(4):
        f = random_sign(4, 4, 3100 + seed)
        assert exact_cc(f).value == brute_cc(f)
    # These search below the root: the leaf-count rank floor (3) is
    # the value, under the class ceiling (4).  gt4, gt5 and eq4 close
    # at the root.
    for seed in (18, 166, 183, 191):
        f = make_family("random", 5, seed=seed)
        assert exact_cc(f).value == brute_cc(f)
    for fam, m in (("gt", 4), ("gt", 5), ("eq", 4)):
        f = make_family(fam, m)
        assert exact_cc(f).value == brute_cc(f)


def test_exact_cc_root_bounds_close_search():
    # The leaf-count floor ceil(log2(rank(M1) + rank(M0))) is 4 on these
    # (rank(M1) + rank(M0) is 15 for gt8 and 16 for eq8), and 7 or 8
    # distinct rows give the ceiling 4: bounds that meet are exact at
    # the root, on any budget.  ceil(log2 rank(sign)) is only 3.
    for f in (*(make_family(fam, 8) for fam in ("gt", "eq", "ip", "and")),
              make_family("random", 7, seed=2)):
        res = exact_cc(f, SearchLimits(node_budget=1))
        assert (res.status, res.value, res.nodes) == ("exact", 4, 1)
    # A constant input's floor is 0, so its ceiling is 0 too: the root
    # is a leaf.
    for rows, cols in ((1, 1), (2, 2), (5, 5), (1, 7), (6, 2)):
        for v in (1, -1):
            for caps in (None, SearchLimits(node_budget=1)):
                res = exact_cc(BoolFun([[v] * cols] * rows), caps)
                assert (res.status, res.value, res.nodes) == ("exact", 0, 1)
    for seed in range(1000, 1020):
        f = make_family("random", 6, seed=seed)
        d = exact_cc(f).value
        for budget in (5, 50, 500):
            res = exact_cc(f, SearchLimits(node_budget=budget))
            if res.status == "interval":
                assert res.lower < res.upper
                assert res.lower <= d <= res.upper
            else:
                assert res.value == d


def test_exact_cc_counts_every_visit():
    # A pair of masks met again is read from the memo but still counted
    # as a node, and a budget one node short of the search cuts it.
    for m, seed, nodes in ((5, 10, 41), (5, 29, 41), (6, 54, 298),
                           (7, 29, 1015)):
        f = make_family("random", m, seed=seed)
        res = exact_cc(f)
        assert (res.status, res.value, res.nodes) == ("exact", 4, nodes)
        cut = exact_cc(f, SearchLimits(node_budget=nodes - 1))
        assert (cut.status, cut.nodes) == ("interval", nodes)


def _new_dicts(run):
    """The dicts over 20 entries that ``run`` leaves allocated, with the
    cyclic garbage collector held off."""
    gc.collect()
    gc.disable()
    try:
        before = [o for o in gc.get_objects() if isinstance(o, dict)]
        known = {id(o) for o in before}
        run()
        return [len(o) for o in gc.get_objects()
                if isinstance(o, dict) and id(o) not in known and len(o) > 20]
    finally:
        gc.enable()


def test_searches_free_their_tables_on_return():
    # Their recursive closures form reference cycles, which would keep
    # the memo and candidate tables until the cyclic collector runs.
    # The cover search's one table is its branching memo: on random
    # 10x10 seed 0 the two colors' memos hold 44 and 201 entries.
    assert _new_dicts(lambda: exact_cc(make_family("random", 6, seed=54))) == []
    assert _new_dicts(
        lambda: cover_number(make_family("random", 10, seed=0))) == []


def test_calls_leave_no_cyclic_garbage():
    # A recursive closure holds itself; each call breaks that cycle on
    # return, so with the cyclic collector held off nothing is left for
    # it to find.  The first run fills caches and free lists.
    gt3cube = xor_power(make_family("gt", 3), 3)
    eq6 = make_family("eq", 6)
    eq8 = make_family("eq", 8)
    r6 = make_family("random", 6, seed=54)
    r16 = make_family("random", 16, seed=1)
    eq3 = make_family("eq", 3)
    calls = {
        "cover_number gt3^3": lambda: cover_number(
            gt3cube, limits=SearchLimits(node_budget=500, rect_budget=100000)),
        "cover_number eq6": lambda: cover_number(eq6),
        "cover_number eq8": lambda: cover_number(eq8),
        "exact_cc": lambda: exact_cc(r6),
        "exact_cc node_budget=5": lambda: exact_cc(
            r6, SearchLimits(node_budget=5)),
        "build_protocol + balance": lambda: balance(build_protocol(r16, 1)[0]),
        "theorem_report": lambda: theorem_report(eq3, 2),
    }
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, run in calls.items():
            run()
            gc.collect()
            run()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)


def test_exact_cc_interval_on_tiny_budget():
    f = make_family("random", 6, seed=54)
    res = exact_cc(f, SearchLimits(node_budget=5))
    assert (res.status, res.lower, res.upper) == ("interval", 3, 4)
    assert not res.exact
    with pytest.raises(ValueError, match="interval"):
        res.value
    true_d = exact_cc(f).value
    assert res.lower <= true_d <= res.upper


def test_exact_cc_lower_bounds():
    for seed in range(8):
        f = random_sign(4, 4, 3200 + seed)
        d = exact_cc(f).value
        rk = rank(f)
        c = cover_number(f).value
        assert d >= (rk - 1).bit_length()
        assert d >= (c - 1).bit_length()


def test_exact_cc_monotone_under_restriction():
    for seed in range(6):
        f = random_sign(4, 4, 3300 + seed)
        d = exact_cc(f).value
        sub = restrict(f, (0, 2), (1, 2, 3))
        assert exact_cc(sub).value <= d


def test_exact_cc_upper_bounded_by_any_verified_tree():
    f = make_family("xor", 2)
    assert exact_cc(f).value <= _xor2_tree().depth
