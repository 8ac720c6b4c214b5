"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one [acceptance] PASS/FAIL line (run with -s to see
them on success).  The corpora follow the stated sizes: exhaustive
2x2/2x3 sign matrices, 500 seeded 3x3 samples, exhaustive 3x3 plus 100
seeded random matrices up to 8x8 for the builder, 200 random trees for
balancing, and 20 re-run CLI pipelines for determinism.
"""

import hashlib
import math

import pytest

from cclab import (balance, build_protocol, cover_number, enumerate_maximal_mono,
                   evaluate, exact_cc, extract_rectangle, check_monochromatic,
                   leaf_budget, make_family, rank, rank_step_budget, restrict,
                   shrink_step_budget, splitmix64, theorem_report, verify,
                   xor_power, SearchLimits)
from cclab.cli import main as cli_main
from cclab.rectangles import EXACT

from oracles import all_sign_matrices, random_sign
from treegen import caterpillar_tree, random_tree

TOL = 1e-9


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _extraction_corpus():
    corpus = []
    corpus.extend(all_sign_matrices(2, 2))
    corpus.extend(all_sign_matrices(2, 3))
    corpus.extend(random_sign(3, 3, 10_000 + s) for s in range(500))
    return corpus


@pytest.fixture(scope="module")
def extraction_runs():
    """Every (f, n, R, T, certificate) for criteria 1 and 2."""
    runs = []
    for f in _extraction_corpus():
        for n in (1, 2):
            enum = enumerate_maximal_mono(xor_power(f, n))
            assert not enum.truncated
            for r in enum.rects:
                t, cert = extract_rectangle(f, n, r)
                runs.append((f, n, r, t, cert))
    return runs


def test_criterion_1_extraction_exhaustive(extraction_runs):
    bad = 0
    for f, n, r, t, cert in extraction_runs:
        if check_monochromatic(f, t) != t.color:
            bad += 1
        elif (4 * t.area) ** n < r.area:
            bad += 1
    _criterion(1, bad == 0,
               f"extraction certificate on {len(extraction_runs)} rectangles "
               f"({bad} failures)")


def test_extraction_choices_pinned(extraction_runs):
    # SHA-256 of what every extraction of criterion 1 chose: T's index
    # sets and color, the coordinate, the prefix/suffix and the parity
    # bits.
    h = hashlib.sha256()
    for _, n, _, t, cert in extraction_runs:
        h.update(repr((n, t.key(), t.color, cert.i, cert.x_prefix,
                       cert.y_suffix, cert.u, cert.v)).encode())
    assert len(extraction_runs) == 24136
    assert h.hexdigest() == ("7ad4126f1996b830a8db97e7365f88ec"
                             "f73f75997613eb1f5e44fd3b637845d3")


def test_criterion_2_chain_rule(extraction_runs):
    worst = 0.0
    for _, _, r, _, cert in extraction_runs:
        err = abs(sum(cert.coordinate_entropies) - math.log2(r.area))
        worst = max(worst, err)
    _criterion(2, worst < TOL,
               f"chain rule on {len(extraction_runs)} rectangles "
               f"(max |error| = {worst:.2e})")


def _builder_corpus():
    """(f, n) instances: exhaustive 2x2 and 3x3 at n=2, plus 100 seeded
    random matrices up to 8x8 at n=1 (exact C there is C(f))."""
    corpus = [(f, 2) for f in all_sign_matrices(2, 2)]
    corpus += [(f, 2) for f in all_sign_matrices(3, 3)]
    shapes = ([(4, 4)] * 20 + [(5, 5)] * 20 + [(6, 6)] * 20 +
              [(4, 6)] * 10 + [(6, 4)] * 10 + [(7, 7)] * 10 + [(8, 8)] * 10)
    corpus += [(random_sign(r, c, 20_000 + i), 1)
               for i, (r, c) in enumerate(shapes)]
    return corpus


@pytest.fixture(scope="module")
def builder_runs():
    runs = []
    for f, n in _builder_corpus():
        cov = cover_number(xor_power(f, n))
        assert cov.status == EXACT, (f.label, n)
        tree, trace = build_protocol(f, n, cover_value=cov.value)
        runs.append((f, n, cov.value, tree, trace))
    return runs


def test_criterion_3_builder_correctness(builder_runs):
    bad = []
    for f, n, c, tree, trace in builder_runs:
        ok = verify(tree, f)
        ok = ok and trace.rank_steps <= rank_step_budget(trace.input_rank)
        ok = ok and trace.shrink_steps <= shrink_step_budget(
            trace.input_rank, c, n)
        ok = ok and tree.leaf_count <= leaf_budget(trace.input_rank, c, n)
        ok = ok and trace.budgets_ok()
        if not ok:
            bad.append(f.label)
    _criterion(3, not bad,
               f"build_protocol verified with budgets on {len(builder_runs)} "
               f"instances ({len(bad)} failures: {bad[:5]})")


def test_criterion_4_balancing():
    stream = splitmix64(4040)
    checked = 0
    bad = 0
    for trial in range(200):
        nr = 3 + next(stream) % 8
        nc = 3 + next(stream) % 8
        if trial % 5 == 0:
            t = caterpillar_tree(nr, nc, 1 + next(stream) % 30, stream)
        else:
            t = random_tree(nr, nc, 2 + next(stream) % 63, stream)
        assert t.leaf_count <= 64
        b = balance(t)
        bound = (math.ceil(2 * math.log(t.leaf_count) / math.log(1.5))
                 if t.leaf_count > 1 else 0)
        if b.depth > bound:
            bad += 1
        for x in range(nr):
            for y in range(nc):
                if evaluate(t, x, y)[0] != evaluate(b, x, y)[0]:
                    bad += 1
        checked += 1
    nine_leaf_bound = math.ceil(2 * math.log(9) / math.log(1.5))
    ok = bad == 0 and nine_leaf_bound == 11
    _criterion(4, ok,
               f"balance depth/semantics on {checked} trees, "
               f"l=9 bound = {nine_leaf_bound} ({bad} failures)")


def test_criterion_5_reference_values():
    xor2 = make_family("xor", 2)
    checks = []
    checks.append(exact_cc(xor2).value == 2)
    for n in (1, 2):
        lifted = xor_power(xor2, n)
        checks.append(exact_cc(lifted).value == 2)
    checks.append(rank(xor2) == 1)
    row, _ = theorem_report(xor2, 2)
    checks.append(row["degenerate"])
    _criterion(5, all(checks),
               f"D(xor2)=2, D(xor2 lifts)=2, rank=1, degeneracy flag "
               f"({checks})")


def test_criterion_6_cross_oracle(builder_runs):
    stream = splitmix64(6060)
    bad = []
    d_exact_count = 0
    for f, n, c, tree, trace in builder_runs:
        rk = rank(f)
        # rank multiplicativity at the instance's n, and at n=2 so the
        # n=1 instances are not checked vacuously
        if rank(xor_power(f, n)) != rk ** n:
            bad.append(("rank-mult", f.label))
        if n == 1 and rank(xor_power(f, 2)) != rk ** 2:
            bad.append(("rank-mult-2", f.label))
        cc = exact_cc(f, SearchLimits(node_budget=600_000))
        if cc.status == "exact":
            d_exact_count += 1
            d = cc.value
            c_self = c if n == 1 else cover_number(f).value
            if d < (c_self - 1).bit_length():
                bad.append(("D>=logC", f.label))
            if (c_self - 1).bit_length() < (rk - 1).bit_length():
                bad.append(("logC>=logrank", f.label))
            if d > tree.depth:
                bad.append(("D<=tree-depth", f.label))
    # cover monotonicity under restriction, sampled across the corpus
    for i, (f, n, c, _, _) in enumerate(builder_runs):
        if i % 25 != 0 or f.rows < 2 or f.cols < 2:
            continue
        c_self = cover_number(f).value
        rows = sorted({next(stream) % f.rows for _ in range(f.rows - 1)})
        cols = sorted({next(stream) % f.cols for _ in range(f.cols - 1)})
        sub = restrict(f, rows or [0], cols or [0])
        if cover_number(sub).value > c_self:
            bad.append(("cover-monotone", f.label))
    _criterion(6, not bad,
               f"cross-oracle consistency on {len(builder_runs)} instances, "
               f"D exact on {d_exact_count} ({len(bad)} failures: {bad[:5]})")


# ----------------------------------------------------------- determinism

def _pipelines(root):
    """20 CLI pipelines; each returns the list of files it produced."""
    lim = "node=30000,rects=100000"
    specs = []
    for fam, m in (("eq", "3"), ("gt", "4"), ("ip", "8"), ("and", "5"),
                   ("xor", "2")):
        specs.append([["gen", "--family", fam, "--m", m, "--out", "OUT:g.bfn"]])
    specs.append([["gen", "--family", "random", "--m", "6", "--seed", "17",
                   "--out", "OUT:g.bfn"]])
    for fam, m in (("xor", "2"), ("eq", "4"), ("const", "4"), ("random", "5")):
        cmd = ["measure", "--family", fam, "--m", m, "--limits", lim,
               "--format", "csv", "--out", "OUT:m.csv"]
        if fam == "const":
            cmd += ["--value", "1"]
        if fam == "random":
            cmd += ["--seed", "23"]
        specs.append([cmd])
    specs.append([
        ["gen", "--family", "eq", "--m", "2", "--out", "OUT:f.bfn"],
        ["extract", "--in", "OUT:f.bfn", "--n", "2", "--rect", "RECT:0 3|0 3",
         "--format", "json", "--out", "OUT:cert.json"],
    ])
    specs.append([
        ["gen", "--family", "const", "--m", "8", "--value", "0",
         "--out", "OUT:f.bfn"],
        ["extract", "--in", "OUT:f.bfn", "--n", "2",
         "--rect", "RECT:0 1 2 3 4 5 6 7|0 1 2 3 4 5 6 7",
         "--out", "OUT:cert.txt"],
    ])
    for fam, m, mode in (("eq", "4", "exact"), ("ip", "8", "exact"),
                         ("random", "7", "greedy")):
        cmd = [["gen", "--family", fam, "--m", m, "--out", "OUT:f.bfn"]]
        if fam == "random":
            cmd[0] += ["--seed", "31"]
        cmd.append(["build", "--in", "OUT:f.bfn", "--n", "1", "--mode", mode,
                    "--limits", lim, "--out", "OUT:p.json"])
        cmd.append(["balance", "--in", "OUT:p.json", "--out", "OUT:b.json"])
        cmd.append(["verify", "--in", "OUT:b.json", "--matrix", "OUT:f.bfn",
                    "--out", "OUT:v.txt"])
        specs.append(cmd)
    specs.append([["report", "--family", "eq", "--m", "2,3", "--n", "2",
                   "--limits", lim, "--format", "csv", "--out", "OUT:r.csv"]])
    specs.append([["report", "--family", "random", "--m", "4,5", "--seed",
                   "41", "--n", "1", "--limits", lim, "--format", "json",
                   "--out", "OUT:r.json"]])
    specs.append([["report", "--family", "xor", "--m", "2,4", "--n", "2",
                   "--limits", lim, "--format", "csv", "--out", "OUT:r.csv"]])
    specs.append([["measure", "--family", "gt", "--m", "6", "--limits",
                   "node=500", "--format", "json", "--out", "OUT:m.json"]])
    specs.append([["gen", "--family", "random", "--m", "12", "--seed", "55",
                   "--out", "OUT:g.bfn"]])
    assert len(specs) == 20
    return specs


def _run_pipeline(steps, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    produced = set()
    for cmd in steps:
        argv = []
        for tok in cmd:
            if tok.startswith("OUT:"):
                path = workdir / tok[4:]
                argv.append(str(path))
                produced.add(path)
                produced.add(path.parent / (path.name + ".trace.json"))
            elif tok.startswith("RECT:"):
                rows, cols = tok[5:].split("|")
                path = workdir / "in.rect"
                path.write_text(f"{rows}\n{cols}\n")
                argv.append(str(path))
            else:
                argv.append(tok)
        code = cli_main(argv)
        assert code in (0, 2), (cmd, code)
    return sorted(p for p in produced if p.exists())


def test_criterion_7_cli_determinism(tmp_path, capsys):
    mismatches = []
    for i, steps in enumerate(_pipelines(tmp_path)):
        files_a = _run_pipeline(steps, tmp_path / f"a{i}")
        files_b = _run_pipeline(steps, tmp_path / f"b{i}")
        hashes_a = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files_a]
        hashes_b = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files_b]
        if ([p.name for p in files_a] != [p.name for p in files_b]
                or hashes_a != hashes_b):
            mismatches.append(i)
    capsys.readouterr()
    _criterion(7, not mismatches,
               f"20 pipelines re-run byte-identical "
               f"(mismatches: {mismatches})")
