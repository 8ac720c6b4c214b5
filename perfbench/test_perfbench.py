"""Tests of the benchmark itself: pinned values against the brute-force
oracles, the output checks, the tracer and the seeded corpora.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cclab  # noqa: E402
import cclab.cli  # noqa: E402
from oracles import (brute_cc, brute_lift_sign, brute_min_cover,  # noqa: E402
                     rank_fractions)

import checks  # noqa: E402
import pins  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _fun(rows):
    return cclab.BoolFun(np.array([[1 - 2 * int(ch) for ch in r] for r in rows],
                                  dtype=np.int8))


def _dcc_rows(key):
    if key in pins.DCC_FAMILY:
        return workloads.family_rows(*key)
    return workloads.splitmix_bits(*key)


def _lift_rows(key):
    if key[0] == "random":
        return workloads.splitmix_bits(key[1], key[3])
    return workloads.family_rows(key[0], key[1])


def _build_rows(key):
    fam, m, s = key
    return workloads.splitmix_bits(m, s) if fam == "random" else \
        workloads.family_rows(fam, m)


# ---------------------------------------------------------------------------
# Pinned values against tests/oracles.py
# ---------------------------------------------------------------------------

def test_generators_match_cclab():
    for m, s in ((6, 2), (7, 23), (24, 1)):
        f = cclab.make_family("random", m, seed=s)
        assert np.array_equal(_fun(workloads.splitmix_bits(m, s)).sign, f.sign)
    for fam in ("eq", "gt", "and", "ip", "xor"):
        for m in (2, 4, 8):
            f = cclab.make_family(fam, m)
            assert np.array_equal(_fun(workloads.family_rows(fam, m)).sign,
                                  f.sign)


def test_pinned_ranks_match_fraction_elimination():
    for key, (rk, _, _) in {**pins.DCC_RANDOM, **pins.DCC_FAMILY}.items():
        assert rank_fractions(_fun(_dcc_rows(key)).sign) == rk, key
    for key, (rk, _, _) in pins.LIFT.items():
        assert rank_fractions(_fun(_lift_rows(key)).sign) == rk, key
    for key, rk in pins.BUILD_RANK.items():
        assert rank_fractions(_fun(_build_rows(key)).sign) == rk, key


def test_pinned_d_matches_brute_force():
    """Every D of a base up to 7x7 (the 8x8 families are beyond brute_cc)."""
    for key, (_, d, _) in pins.DCC_RANDOM.items():
        assert brute_cc(_fun(_dcc_rows(key))) == d, key
    bases = {}
    for key, (_, d, _) in pins.LIFT.items():
        bases[tuple(_lift_rows(key))] = d
    for rows, d in bases.items():
        assert brute_cc(_fun(list(rows))) == d, rows


def test_pinned_lift_cover_of_2x2_bases_matches_brute_force():
    checked = 0
    for key, (_, _, c) in pins.LIFT.items():
        if key[1] == 2 and key[2] == 2 and c is not None:
            lift = cclab.BoolFun(brute_lift_sign(_fun(_lift_rows(key)), 2))
            assert brute_min_cover(lift) == c, key
            checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _run_one(job):
    runner = run.Runner(cclab.cli, [job])
    runner.run_pass()
    return runner


def test_measure_check_counts_wrong_pin_as_failure(tmp_path):
    rows = workloads.family_rows("eq", 4)
    good = {"rank": 4, "D": 3, "C": 8}
    job = workloads._measure_job("eq4", rows, good, str(tmp_path), cclab)
    assert _run_one(job).failed == 0
    for wrong in ({"D": 2}, {"C": 7}, {"rank": 3}):
        job = workloads._measure_job("eq4", rows, dict(good, **wrong),
                                     str(tmp_path), cclab)
        runner = _run_one(job)
        assert (runner.attempted, runner.failed) == (1, 1), wrong


def test_report_check_counts_wrong_pin_as_failure(tmp_path):
    key = ("gt", 3, 2)
    good = pins.LIFT[key]
    assert _run_one(workloads._report_job(key, str(tmp_path))).failed == 0
    saved = dict(pins.LIFT)
    try:
        pins.LIFT[key] = (good[0], good[1], good[2] + 1)
        runner = _run_one(workloads._report_job(key, str(tmp_path)))
        assert (runner.attempted, runner.failed) == (1, 1)
    finally:
        pins.LIFT.clear()
        pins.LIFT.update(saved)


def test_pipeline_check_catches_wrong_rank_and_wrong_tree(tmp_path):
    rows = workloads.splitmix_bits(6, 3)
    job = workloads._pipeline_job("r6", rows, {"rank": 5, "n": 2}, "lift",
                                  str(tmp_path))
    runner = _run_one(job)
    assert runner.failed == 0 and runner.decided == 1
    assert job.check([0, 0, 0, 0]) == (True, 0.0)

    bad = workloads._pipeline_job("r6", rows, {"rank": 6, "n": 2}, "lift",
                                  str(tmp_path))
    with pytest.raises(checks.CheckFailed):
        bad.check([0, 0, 0, 0])

    # flip the leaf that input (0, 0) reaches: the walker must notice
    path = os.path.join(str(tmp_path), "r6.bal.json")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    node = obj["tree"]
    while "output" not in node:
        node = node["child1"] if 0 in node["subset"] else node["child0"]
    node["output"] ^= 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(checks.CheckFailed):
        job.check([0, 0, 0, 0])


def test_exit_code_1_and_crash_are_failures(tmp_path):
    job = workloads.Job("missing", [["measure", "--in",
                                     str(tmp_path / "nope.bfn")]],
                        lambda rcs: (True, 0.0))
    runner = _run_one(job)
    assert runner.failed == 1 and "exit 1" in runner.failures[0]

    class Boom:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    runner = run.Runner(Boom, [job])
    runner.run_pass()
    assert runner.failed == 1 and "RuntimeError" in runner.failures[0]


def test_balanced_depth_bound():
    import math
    assert checks.balanced_depth_bound(1) == 0
    for leaves in range(2, 2000):
        exact = 2 * math.log(leaves) / math.log(1.5)
        if abs(exact - round(exact)) > 1e-9:
            assert checks.balanced_depth_bound(leaves) == math.ceil(exact)


def test_tree_walker_matches_cclab_evaluate():
    f = cclab.make_family("random", 7, seed=5)
    tree, _ = cclab.build_protocol(f, 1)
    obj = cclab.tree_to_obj(cclab.balance(tree))
    rows = cclab.format_bfn(f).split("\n")[1:1 + f.rows]
    checks.check_tree_computes(obj["tree"], rows)
    leaves, depth = checks.tree_shape(obj["tree"])
    bal = cclab.balance(tree)
    assert (leaves, depth) == (bal.leaf_count, bal.depth)
    broken = copy.deepcopy(obj["tree"])
    broken["child1"] = {"output": 0}
    broken["child0"] = {"output": 0}
    with pytest.raises(checks.CheckFailed):
        checks.check_tree_computes(broken, rows)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_spans_nest_and_self_times_sum_to_wall(tmp_path):
    original = cclab.cli.exact_cc
    rows = workloads.family_rows("gt", 5)
    job = workloads._measure_job("gt5", rows, {"rank": 5, "D": 4, "C": None},
                                 str(tmp_path), cclab)
    t = tracing.Tracer()
    runner = run.Runner(cclab.cli, [job])
    runner.run_pass()
    t.install()
    try:
        assert cclab.cli.exact_cc is not original
        assert cclab.protocol.exact_rank is cclab.matrix.exact_rank
        runner.run_pass(t)
    finally:
        t.uninstall()
    assert cclab.cli.exact_cc is original
    assert runner.failed == 0

    names = [tracing.LAYERS[s[0]] for s in t.spans]
    roots = [s for s in t.spans if s[3] < 0]
    assert [tracing.LAYERS[s[0]] for s in roots] == ["cli.main"]
    assert "protocol.exact_cc" in names and "matrix.exact_rank" in names
    for s in t.spans:  # every child lies inside its parent
        if s[3] >= 0:
            p = t.spans[s[3]]
            assert p[1] <= s[1] <= s[2] <= p[2]
    metrics, worst = t.metrics(1)
    assert worst < 1e-9
    wall = roots[0][2] - roots[0][1]
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == \
        pytest.approx(wall, abs=1e-9)
    assert metrics["protocol.exact_cc.calls"] == 1
    assert metrics["protocol.exact_cc.exact_ratio"] == 1.0
    assert metrics["protocol.exact_cc.nodes"] > 0
    assert metrics["rectangles.cover_number.calls"] == 1
    out = tmp_path / "spans.json"
    t.dump(str(out))
    dumped = json.loads(out.read_text())
    assert len(dumped["spans"]) == len(t.spans)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def _snapshot(workload, seed, work_dir):
    jobs = workloads.make_jobs(workload, seed, work_dir, cclab)
    files = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return [j.argvs for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    a = _snapshot(workload, 7, str(tmp_path / "a"))
    b = _snapshot(workload, 7, str(tmp_path / "a"))
    assert a == b
    c = _snapshot(workload, 8, str(tmp_path / "a"))
    assert a[0] != c[0]
    jobs = workloads.make_jobs(workload, 7, str(tmp_path / "d"), cclab)
    samples = workloads.MIN_PASSES * len(jobs)
    pct = workloads.TAIL_PCT[workload]
    assert run._percentile(list(range(samples)), pct)[1] >= 10
    assert run._percentile(list(range(samples)), pct + 5)[1] < 10


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dcc", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == {k: run._unit(k) for k in run.END_TO_END_UNITS}
    metrics, _ = tracing.Tracer().metrics(1)
    names = set(metrics) | {"workload.property_share", "trace.slowdown"}
    assert layer == {k: run._unit(k) for k in names}
