"""The true cover numbers of the pinned lifts that the cover search
leaves open, and the check that every bound brackets them.

``OPEN_LIFTS`` holds ``C(f^(+n))`` of each pinned lift whose exact cover
search runs out of the benchmark's ``node=30000,rects=100000`` budget:
``(family, m, n)`` for ``make_family(family, m)`` and ``("random", m,
n, seed)`` for ``make_family("random", m, seed=seed)``.  The values were
solved by ``oracles.milp_min_cover``; ``tests/solve_open_lifts.py``
re-solves them all (``gt3^3`` takes minutes).
"""

from cclab import BoolFun, SearchLimits, cover_number, make_family, xor_power

from oracles import (brute_lift_sign, brute_min_cover, milp_min_cover,
                     random_sign)

OPEN_LIFTS = {
    ("eq", 4, 2): 28, ("gt", 4, 2): 24, ("and", 4, 2): 22, ("ip", 4, 2): 30,
    ("gt", 3, 3): 47,
    ("random", 4, 2, 5): 22, ("random", 4, 2, 42): 22,
    ("random", 4, 2, 45): 24, ("random", 4, 2, 47): 24,
    ("random", 4, 2, 74): 24,
    ("random", 4, 2, 6): 26, ("random", 4, 2, 7): 26, ("random", 4, 2, 8): 26,
    ("random", 4, 2, 15): 26, ("random", 4, 2, 17): 26,
    ("random", 4, 2, 27): 26, ("random", 4, 2, 41): 26,
    ("random", 4, 2, 48): 26, ("random", 4, 2, 67): 26,
    ("random", 4, 2, 55): 27, ("random", 4, 2, 28): 29,
}

def base_of(key) -> BoolFun:
    if key[0] == "random":
        return make_family("random", key[1], seed=key[3])
    return make_family(key[0], key[1])


def test_cover_bounds_bracket_the_true_cover():
    # At the benchmark's limits every open lift's bounds hold its true C.
    limits = SearchLimits(node_budget=30000, rect_budget=100000)
    missed = {}
    for key, truth in OPEN_LIFTS.items():
        res = cover_number(xor_power(base_of(key), key[2]), limits=limits)
        if not res.lower <= truth <= res.upper:
            missed[key] = (res.lower, res.upper, truth)
    assert missed == {}


def test_milp_oracle_solves_the_quick_open_lifts():
    # The oracle agrees with the brute-force cover on tiny inputs, and
    # re-solves the open lifts that take it under a second, on lifts
    # built cell by cell.
    for k in range(20):
        f = random_sign(1 + k % 4, 1 + k // 5, 7000 + k)
        assert milp_min_cover(f) == brute_min_cover(f), k
    for key in (("and", 4, 2), ("random", 4, 2, 5), ("random", 4, 2, 42)):
        lift = BoolFun(brute_lift_sign(base_of(key), key[2]))
        assert milp_min_cover(lift) == OPEN_LIFTS[key], key
