"""Mutation probe: which hand-made faults in ``src/cclab`` the suite misses.

Each mutant replaces one exact text in one source file.  The probe
applies them one at a time, each to a fresh temporary copy of the
repository, and runs ``python -m pytest -x -q`` there: first on the
test listed as the one that catches it, if any, then, if that passes,
on the whole suite but ``tests/test_mutation_probe.py``, which checks
this list against the source and so fails on every mutant.  A mutant
the suite does not catch is a survivor.

    python tests/mutation_probe.py            # every mutant
    python tests/mutation_probe.py cover_lower split_side_order

A copy whose suite passes takes the full tier-1 time (about 20 s on a
2-vCPU machine).  The exit code is 0 when every outcome is the one
listed below (a mutant listed as caught fails its listed test, any
case of it if it is parametrized; the others pass the suite), 1
otherwise.  pytest does not collect this file: its name does not match
``test_*.py``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

CAUGHT = "caught"
OPEN = "open"              # a known survivor: no test reaches it yet
EQUIVALENT = "equivalent"  # behaves like the original on every input

# The tier-1 check of this list; a mutant removes its old text, so the
# check fails on every mutant and the suite runs without it.
LIST_CHECK = "tests/test_mutation_probe.py"

# (name, file, old text, new text, expected outcome, the test that
# should fail or why the mutant survives)
MUTANTS = (
    ("validate_cover_coverage", "src/cclab/rectangles.py",
     "    return all(s == full for s in seen)\n", "    return True\n", CAUGHT,
     "tests/test_rectangles.py::test_validate_cover_rejects_each_defect"),
    ("validate_cover_color_ignored", "src/cclab/rectangles.py",
     "want = cols if r.color < 0 else 0", "want = 0", CAUGHT,
     "tests/test_rectangles.py::"
     "test_validate_cover_matches_the_grid_reference"),
    ("fooling_blocked_ignored", "src/cclab/rectangles.py",
     "free = cols & ~blocked", "free = cols", CAUGHT,
     "tests/test_rectangles.py::test_fooling_cells_match_scan"),
    ("first_mismatch_walk_order", "src/cclab/protocol.py",
     "if best is None or cell < best:", "if best is None:", CAUGHT,
     "tests/test_protocol.py::"
     "test_first_mismatch_matches_a_per_cell_evaluate"),
    ("enumerate_budget_unraised", "src/cclab/rectangles.py",
     '        raise ValueError("budget must be positive")\n', "        pass\n",
     CAUGHT,
     "tests/test_rectangles.py::test_enumerate_refuses_a_budget_below_one"),
    ("cover_mode_unraised", "src/cclab/rectangles.py",
     "        raise ValueError(\"mode must be 'exact' or 'greedy'\")\n",
     "        pass\n", CAUGHT,
     "tests/test_rectangles.py::test_cover_refuses_an_unknown_mode"),
    ("shrink_budget_unraised", "src/cclab/builder.py",
     '        raise ValueError("cover value must be >= 1")\n', "        pass\n",
     CAUGHT,
     "tests/test_builder.py::test_budget_helpers_refuse_values_below_one"),
    ("leaf_budget_unraised", "src/cclab/builder.py",
     '        raise ValueError("rank must be >= 1")\n', "        pass\n", CAUGHT,
     "tests/test_builder.py::test_budget_helpers_refuse_values_below_one"),
    ("strategy_unraised", "src/cclab/builder.py",
     '    """\n    if strategy not in (DIRECT_MAX, LIFT_EXTRACT):\n'
     '        raise ValueError(f"unknown strategy {strategy!r}")\n',
     '    """\n    if strategy not in (DIRECT_MAX, LIFT_EXTRACT):\n'
     "        pass\n", CAUGHT,
     "tests/test_builder.py::"
     "test_find_big_rectangle_refuses_an_unknown_strategy"),
    ("build_strategy_unraised", "src/cclab/builder.py",
     '>= 1")\n    if strategy not in (DIRECT_MAX, LIFT_EXTRACT):\n'
     '        raise ValueError(f"unknown strategy {strategy!r}")\n',
     '>= 1")\n    if strategy not in (DIRECT_MAX, LIFT_EXTRACT):\n'
     "        pass\n", CAUGHT,
     "tests/test_builder.py::test_build_refuses_an_unknown_strategy"),
    ("area_guarantee_boundary", "src/cclab/builder.py",
     "cover_value >= cells ** n\n", "cover_value >= cells ** n - 1\n",
     CAUGHT,
     "tests/test_builder.py::test_area_guarantee_at_its_exact_boundary"),
    ("cover_lower", "src/cclab/rectangles.py",
     "lower += len(chosen) if done", "lower += len(chosen) + 1 if done",
     CAUGHT, "tests/test_rectangles.py::test_cover_results_pinned"),
    ("cover_depth_prune", "src/cclab/rectangles.py",
     "(best_size - len(chosen) - 2) * most_any",
     "(best_size - len(chosen) - 3) * most_any",
     CAUGHT, "tests/test_rectangles.py::test_cover_matches_brute_force"),
    ("cover_child_test_boundary", "src/cclab/rectangles.py",
     "if size - covered > (best_size", "if size - covered >= (best_size",
     CAUGHT, "tests/test_rectangles.py::test_cover_matches_brute_force"),
    ("cover_memo_key_ignores_u", "src/cclab/rectangles.py",
     "        kept = branchings.get(within)\n"
     "        if kept is None:\n"
     "            kept = _undominated([masks[i] & within for i in cands])\n"
     "            if len(branchings) < 100_000:\n"
     "                branchings[within] = kept\n",
     "        kept = branchings.get(cell)\n"
     "        if kept is None:\n"
     "            kept = _undominated([masks[i] & within for i in cands])\n"
     "            if len(branchings) < 100_000:\n"
     "                branchings[cell] = kept\n", CAUGHT,
     "tests/test_rectangles.py::test_cover_bound_stages_decide_alike_on_random"),
    ("antichain_floor_high", "src/cclab/rectangles.py",
     "while comb(k, k // 2) < w:", "while comb(k, k // 2) <= w:", CAUGHT,
     "tests/test_rectangles.py::test_cover_bounds_hold_the_brute_force_cover"),
    ("antichain_duplicates_counted", "src/cclab/rectangles.py",
     "for m in set(masks) if m", "for m in masks if m", CAUGHT,
     "tests/test_rectangles.py::test_cover_bounds_hold_the_brute_force_cover"),
    ("split_rule", "src/cclab/builder.py",
     "if 2 * rank_row <= rk + 3:", "if 2 * rank_row <= rk + 4:", CAUGHT,
     "tests/test_cli.py::test_construction_outputs_pinned"),
    ("split_side_order", "src/cclab/builder.py",
     "    rank_row = rank(restrict(f, R.row_set, range(f.cols)))\n"
     "    if 2 * rank_row <= rk + 3:\n"
     "        return ALICE_SENDS, rank_row\n"
     "    rank_col = rank(restrict(f, range(f.rows), R.col_set))\n"
     "    if 2 * rank_col <= rk + 3:\n"
     "        return BOB_SENDS, rank_col\n",
     "    rank_row = rank(restrict(f, R.row_set, range(f.cols)))\n"
     "    rank_col = rank(restrict(f, range(f.rows), R.col_set))\n"
     "    if 2 * rank_col <= rk + 3:\n"
     "        return BOB_SENDS, rank_col\n"
     "    if 2 * rank_row <= rk + 3:\n"
     "        return ALICE_SENDS, rank_row\n", CAUGHT,
     "tests/test_cli.py::test_construction_outputs_pinned"),
    ("root_ceiling", "src/cclab/protocol.py",
     "hi = _ceil_log2(min(len(rows), len(cols))) + 1 if lo",
     "hi = _ceil_log2(min(len(rows), len(cols))) + 2 if lo", CAUGHT,
     "tests/test_protocol.py::test_exact_cc_root_bounds_close_search"),
    ("measure_exit_code", "src/cclab/cli.py",
     "return 0 if cc.exact and cov.exact else 2",
     "return 0 if cc.exact and cov.exact else 0", CAUGHT,
     "tests/test_cli.py::test_measure_inconclusive_exit_2"),
    ("extract_parity_not_mod2", "src/cclab/entropy.py",
     "return sum(map(f.f_value, xs, ys)) % 2\n",
     "return sum(map(f.f_value, xs, ys))\n", CAUGHT,
     "tests/test_entropy.py::test_extract_end_to_end_all_2x2"),
    ("extraction_boundary", "src/cclab/entropy.py",
     "if (4 * t_size) ** n < R.area:", "if (4 * t_size) ** n < R.area - 1:",
     CAUGHT,
     "tests/test_entropy.py::test_extract_size_check_at_its_exact_boundary"),
    ("meter_deadline_stride", "src/cclab/limits.py",
     "self.nodes % 256 == 0", "self.nodes % 100_000 == 0", CAUGHT,
     "tests/test_rectangles.py::test_meter_reads_the_clock_every_256_ticks"),
    ("max_rect_matching_bound", "src/cclab/rectangles.py",
     "bound = r * (s - r)\n", "bound = r * (s - r) - 1\n", CAUGHT,
     "tests/test_rectangles.py::test_max_mono_matches_the_column_side_search"),
    ("max_rect_tie_test", "src/cclab/rectangles.py",
     "return bool(best[1] & diff & -diff)",
     "return bool((b | 1 << y) & diff & -diff)", CAUGHT,
     "tests/test_rectangles.py::test_max_mono_matches_the_column_side_search"),
    ("max_rect_area_cap_ties", "src/cclab/rectangles.py",
     "if c * width < best[0]:", "if c * width <= best[0]:", CAUGHT,
     "tests/test_rectangles.py::test_max_mono_lexicographic_tie_break"),
    ("max_rect_matching_all_free", "src/cclab/rectangles.py",
     "avail ^= free & -free", "avail ^= free", CAUGHT,
     "tests/test_rectangles.py::test_max_mono_matches_brute_force"),
    ("max_rect_cap_ignored", "src/cclab/rectangles.py",
     "                if bound > top:\n                    bound = top\n", "",
     CAUGHT, "tests/test_rectangles.py::test_max_mono_cap_closures_pinned"),
    ("build_cap_dropped", "src/cclab/builder.py",
     "rect = find_big_rectangle(sub, n, strategy, cap)",
     "rect = find_big_rectangle(sub, n, strategy)", CAUGHT,
     "tests/test_builder.py::"
     "test_build_caps_each_child_by_its_parents_area"),
    ("cell_count_unraised", "src/cclab/builder.py",
     '        raise InvariantError("deduplicated cell count exceeds '
     '2**(2*rank)")\n', "        pass\n", CAUGHT,
     "tests/test_builder.py::"
     "test_build_raises_on_a_cell_count_above_its_rank"),
    ("low_rank_classes_unraised", "src/cclab/builder.py",
     '            raise InvariantError("low-rank base case with > 16 row '
     'classes")\n', "            pass\n", CAUGHT,
     "tests/test_builder.py::"
     "test_build_raises_on_a_low_rank_base_with_17_row_classes"),
    ("extract_mono_unraised", "src/cclab/entropy.py",
     '        raise InvariantError("extracted support is not monochromatic '
     'in the base")\n', "        pass\n", CAUGHT,
     "tests/test_entropy.py::"
     "test_extract_raises_on_a_support_that_is_not_monochromatic"),
    ("tree_node_unraised", "src/cclab/protocol.py",
     '        raise StructureError(f"not a tree node: {node!r}")\n',
     "        pass\n", CAUGHT,
     "tests/test_protocol.py::test_structure_non_node_is_structure_error"),
    ("cell_cap_boundary", "src/cclab/matrix.py",
     "    if cells > DESK_CELL_CAP:\n", "    if cells >= DESK_CELL_CAP:\n",
     CAUGHT, "tests/test_cli.py::test_protocol_file_over_cap_is_user_error"),
    ("count_rule_unicode", "src/cclab/errors.py",
     "if not (digits.isascii() and digits.isdigit()):",
     "if not digits.isdigit():", CAUGHT,
     "tests/test_cli.py::test_numbers_not_in_ascii_digits_are_refused"),
    ("report_lift_late", "src/cclab/builder.py",
     "    check_lift(f, n)  # before the searches: the cover below lifts f\n",
     "", CAUGHT,
     "tests/test_cli.py::test_report_checks_the_lift_before_searching"),
    ("budgets_ok_always", "src/cclab/builder.py",
     '        """Both step budgets, plus every recorded integer check."""\n',
     '        """Both step budgets, plus every recorded integer check."""\n'
     "        return True\n", CAUGHT,
     "tests/test_builder.py::test_budgets_ok_fails_on_each_check"),
    ("budget_audit_unraised", "src/cclab/builder.py",
     "        raise InvariantError(\"built protocol exceeds the paper's "
     "budgets\")\n", "        pass\n", CAUGHT,
     "tests/test_builder.py::test_build_raises_on_failed_budget_audit"),
    ("format_tree_unsorted", "src/cclab/protocol.py",
     "map(str, sorted(node.subset))", "map(str, node.subset)", CAUGHT,
     "tests/test_protocol.py::test_format_tree_is_json_dumps"),
    ("format_tree_children_swapped", "src/cclab/protocol.py",
     "(node.child1, level + 1), f',\\n{pad}\"child1\": ',\n"
     "                  (node.child0, level + 1))",
     "(node.child0, level + 1), f',\\n{pad}\"child1\": ',\n"
     "                  (node.child1, level + 1))", CAUGHT,
     "tests/test_protocol.py::test_format_tree_is_json_dumps"),
    ("cover_children_by_index", "src/cclab/rectangles.py",
     "for j, cov, covered in kept:", "for j, cov, covered in sorted(kept):",
     CAUGHT, "tests/test_rectangles.py::test_cover_search_ends_in_few_nodes"),
    ("cover_children_ascending", "src/cclab/rectangles.py",
     "for j, cov, covered in kept:",
     "for j, cov, covered in sorted(kept, key=lambda k: k[2]):", CAUGHT,
     "tests/test_rectangles.py::test_cover_search_ends_in_few_nodes"),
    ("cover_branch_cells_crowded_first", "src/cclab/rectangles.py",
     "cand_by_cell = sorted(holders.values(), key=len)",
     "cand_by_cell = sorted(holders.values(), key=len, reverse=True)", CAUGHT,
     "tests/test_rectangles.py::test_cover_search_ends_in_few_nodes"),
    ("cover_branch_highest_bit", "src/cclab/rectangles.py",
     "cell = (uncovered & -uncovered).bit_length() - 1",
     "cell = uncovered.bit_length() - 1", CAUGHT,
     "tests/test_rectangles.py::test_cover_search_ends_in_few_nodes"),
    ("greedy_no_push_back", "src/cclab/rectangles.py",
     "if not heap or (-cov, idx) < heap[0]:", "if cov:", CAUGHT,
     "tests/test_rectangles.py::test_greedy_cover_first_best_pick"),
    ("closed_rows_every_stray_cell", "src/cclab/rectangles.py",
     "if not any(a >> x & b >> y & 1 for a, b in extra):", "if True:",
     CAUGHT, "tests/test_rectangles.py::test_greedy_cover_first_best_pick"),
    ("cover_threshold_stop", "src/cclab/rectangles.py",
     "            if area < t:\n", "            if area < t - 1:\n",
     EQUIVALENT, "a rectangle of area t - 1 covers fewer than t cells, so "
     "the scan reads it and goes on: the same decisions after more reads"),
)


def _first_failure(copy: pathlib.Path, *tests: str):
    """The first test of ``python -m pytest -x -q [tests]`` that fails
    in ``copy``, or None if all pass."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    if proc.returncode == 1:
        for line in proc.stdout.splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                return line.split()[1]
        return "?"
    raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}"
                     f"{proc.stderr}")


def run_mutant(file: str, old: str, new: str, test: str | None):
    """The first failing test on a copy of the repository with ``old``
    replaced by ``new`` in ``file``, or None if the whole suite passes.
    ``test``, when given, runs first, and the suite only if it passes."""
    text = (ROOT / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    with tempfile.TemporaryDirectory(prefix="cclab-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        (copy / file).write_text(text.replace(old, new), encoding="utf-8")
        return ((test and _first_failure(copy, test))
                or _first_failure(copy, f"--ignore={LIST_CHECK}"))


def main(argv: list) -> int:
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    survivors, surprises = [], []
    for name, file, old, new, expected, note in chosen:
        test = note if expected == CAUGHT else None
        failed = run_mutant(file, old, new, test)
        if failed is None and expected != EQUIVALENT:
            survivors.append(name)
        if (failed or "").partition("[")[0] != (test or ""):
            surprises.append(name)
        shown = "SURVIVED" if failed is None else f"caught by {failed}"
        print(f"{name:24} {shown}  [{expected}: {note}]", flush=True)
    print(f"{len(chosen)} mutants, survivors other than the equivalent "
          f"ones: {', '.join(survivors) or 'none'}")
    if surprises:
        print(f"outcomes differ from the list: {', '.join(surprises)}")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
