"""Output checks, written without calling cclab.

Each checker reads what a job wrote and compares it with pinned or
independently computed values.  It returns ``(decided, gap)``:
``decided`` is True when every answer the job reports is exact (the CLI
exit code 0), and ``gap`` is the mean of ``(hi - lo) / hi`` over the
job's D and C intervals (0 for exact answers).  A wrong output raises
``CheckFailed``.
"""

from __future__ import annotations

import json
import math


class CheckFailed(Exception):
    """A job's output disagrees with the expected value."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def balanced_depth_bound(leaves: int) -> int:
    """ceil(2 * log_{3/2} leaves), exactly: the least k with
    3**k >= leaves**2 * 2**k."""
    k = 0
    while 3 ** k < leaves * leaves * 2 ** k:
        k += 1
    return k


def read_csv_row(path, columns) -> dict:
    """The single data row of a ``#v1`` CSV file, as strings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    require(lines[0] == "#v1 " + ",".join(columns),
            f"{path}: unexpected header {lines[0]!r}")
    require(len(lines) == 3 and lines[2] == "",
            f"{path}: expected exactly one data row")
    cells = lines[1].split(",")
    require(len(cells) == len(columns), f"{path}: wrong column count")
    return dict(zip(columns, cells))


def _gap(lo: int, hi: int) -> float:
    return (hi - lo) / hi if hi else 0.0


def check_interval(what, lo, hi, exact, pinned) -> float:
    """Check one reported answer and return its gap."""
    require(0 <= lo <= hi, f"{what}: bad interval [{lo}, {hi}]")
    if exact:
        require(lo == hi, f"{what}: exact but lo {lo} != hi {hi}")
    if pinned is not None:
        if exact:
            require(lo == pinned, f"{what}: got {lo}, pinned {pinned}")
        else:
            require(lo <= pinned <= hi,
                    f"{what}: [{lo}, {hi}] misses pinned {pinned}")
    return _gap(lo, hi)


MEASURE_COLUMNS = ("name", "rows", "cols", "rank", "distinct_rows",
                   "distinct_cols", "D_lo", "D_hi", "D_status",
                   "C_lo", "C_hi", "C_status")
REPORT_COLUMNS = ("name", "rows", "cols", "rank", "D_lo", "D_hi", "n",
                  "C_lo", "C_hi", "logC", "rho", "degenerate", "leaves",
                  "balanced_depth")


def check_measure(out_path, rc: int, expect) -> tuple:
    """``measure --format csv`` against ``expect`` (rows, cols, rank,
    distinct_rows, distinct_cols, D, C)."""
    row = read_csv_row(out_path, MEASURE_COLUMNS)
    for key in ("rows", "cols", "rank", "distinct_rows", "distinct_cols"):
        require(int(row[key]) == expect[key],
                f"{key}: got {row[key]}, expected {expect[key]}")
    require(row["D_status"] in ("exact", "interval"), "bad D_status")
    require(row["C_status"] in ("exact", "bounds", "inconclusive"),
            "bad C_status")
    d_exact = row["D_status"] == "exact"
    c_exact = row["C_status"] == "exact"
    gap_d = check_interval("D", int(row["D_lo"]), int(row["D_hi"]),
                           d_exact, expect["D"])
    gap_c = check_interval("C", int(row["C_lo"]), int(row["C_hi"]),
                           c_exact, expect["C"])
    decided = d_exact and c_exact
    require(rc == (0 if decided else 2), f"exit code {rc} vs statuses")
    return decided, (gap_d + gap_c) / 2


def check_report(out_path, rc: int, expect) -> tuple:
    """One ``report --format csv`` row against ``expect`` (m, n, rank, D,
    C where C is the pinned C(f^(+n)) or None when unknown)."""
    row = read_csv_row(out_path, REPORT_COLUMNS)
    m, n = expect["m"], expect["n"]
    require(int(row["rows"]) == m and int(row["cols"]) == m, "shape")
    require(int(row["n"]) == n, "lift order")
    rk = int(row["rank"])
    require(rk == expect["rank"], f"rank: got {rk}, pinned {expect['rank']}")
    require(row["degenerate"] == ("true" if rk == 1 else "false"),
            "degenerate flag")
    require(rc in (0, 2), f"exit code {rc}")
    decided = rc == 0
    d_lo, d_hi = int(row["D_lo"]), int(row["D_hi"])
    gap_d = check_interval("D", d_lo, d_hi, decided or d_lo == d_hi,
                           expect["D"])
    require(row["C_hi"] != "", "missing C_hi")
    c_lo, c_hi = int(row["C_lo"]), int(row["C_hi"])
    gap_c = check_interval("C(f^(+n))", c_lo, c_hi, decided, expect["C"])
    if decided:
        log_c = float(row["logC"])
        require(abs(log_c - math.log2(c_hi)) < 1e-8, "logC")
        if rk >= 2 and d_hi > 0:
            rho = (log_c / n + math.log2(rk)) * math.log2(rk) / d_hi
            require(abs(float(row["rho"]) - rho) < 1e-8 * max(1.0, rho),
                    "rho")
    else:
        require(row["logC"] == "" and row["rho"] == "",
                "bounded row reports logC/rho")
    leaves = int(row["leaves"])
    require(leaves >= 1, "leaves")
    require(int(row["balanced_depth"]) <= balanced_depth_bound(leaves),
            "balanced depth over ceil(2*log_{3/2} leaves)")
    return decided, (gap_d + gap_c) / 2


# ---------------------------------------------------------------------------
# Protocol trees, walked directly from their JSON.
# ---------------------------------------------------------------------------

def load_tree(path, rows: int, cols: int):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    require(obj.get("rows") == rows and obj.get("cols") == cols,
            f"{path}: tree dimensions")
    return obj["tree"]


def tree_shape(node) -> tuple:
    """(leaves, depth) of a JSON protocol tree, iteratively."""
    leaves = depth = 0
    stack = [(node, 0)]
    while stack:
        node, d = stack.pop()
        if "output" in node:
            leaves += 1
            depth = max(depth, d)
        else:
            stack.append((node["child0"], d + 1))
            stack.append((node["child1"], d + 1))
    return leaves, depth


def check_tree_computes(tree, f_rows) -> None:
    """Walk the tree for every cell and compare with the 0/1 matrix."""
    subsets = {}

    def members(node):
        key = id(node)
        if key not in subsets:
            subsets[key] = frozenset(node["subset"])
        return subsets[key]

    for x, line in enumerate(f_rows):
        for y, want in enumerate(line):
            node = tree
            while "output" not in node:
                speaker = node["speaker"]
                require(speaker in ("alice", "bob"), f"speaker {speaker!r}")
                who = x if speaker == "alice" else y
                node = node["child1"] if who in members(node) else node["child0"]
            require(node["output"] == int(want),
                    f"protocol outputs {node['output']} at ({x}, {y}), "
                    f"function is {want}")


def check_pipeline(paths, rcs, text, expect) -> tuple:
    """gen -> build -> balance -> verify against the input matrix text."""
    require(all(rc == 0 for rc in rcs), f"exit codes {rcs}")
    with open(paths["gen"], encoding="utf-8") as fh:
        require(fh.read() == text, "gen output differs from its input")
    lines = text.split("\n")
    rows, cols = (int(v) for v in lines[0].split())
    f_rows = lines[1:1 + rows]

    built = load_tree(paths["proto"], rows, cols)
    leaves, _ = tree_shape(built)
    check_tree_computes(built, f_rows)
    with open(paths["trace"], encoding="utf-8") as fh:
        trace = json.load(fh)
    require(trace["input_rank"] == expect["rank"],
            f"rank: got {trace['input_rank']}, pinned {expect['rank']}")
    require(trace["n"] == expect["n"], "trace lift order")
    require(trace["leaves"] == leaves, "trace leaf count")
    require(trace["budgets_ok"] is True, "trace budgets")

    bal = load_tree(paths["balanced"], rows, cols)
    bal_leaves, bal_depth = tree_shape(bal)
    check_tree_computes(bal, f_rows)
    require(bal_depth <= balanced_depth_bound(leaves),
            f"balanced depth {bal_depth} over the bound for {leaves} leaves")
    with open(paths["verified"], encoding="utf-8") as fh:
        require(fh.read() == f"verified: {rows}x{cols}, {bal_leaves} "
                f"leaves, depth {bal_depth}\n", "verify output")
    return True, 0.0
