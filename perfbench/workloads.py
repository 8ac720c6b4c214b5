"""Seeded job corpora for the three workloads.

A job is one or more ``cclab.cli.main(argv)`` calls plus a check of
what they wrote.  ``make_jobs(workload, seed, work_dir)`` writes every
input file the jobs read and returns the jobs in their run order; the
same seed gives the same files and the same order.  Matrices are built
here (splitmix64 for the pinned random bases, ``random.Random`` seeded
by the workload and seed for the draws and the run order), so cclab
only ever sees ``.bfn`` files and family flags.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import checks
import pins

LIFT_LIMITS = "node=30000,rects=100000"
WORKLOADS = ("dcc", "lift_cover", "build")

# The tail percentile per workload: the highest multiple of 5 that
# leaves at least 10 samples above it in a run's minimum of three passes.
TAIL_PCT = {"dcc": 80, "lift_cover": 85, "build": 80}
MIN_PASSES = 3


@dataclass
class Job:
    name: str
    argvs: list     # the cli.main argument lists, run in order
    check: object   # check(exit codes) -> (decided, gap); raises CheckFailed
    prop: bool | None = None  # has the workload's property (None: unknown at setup)


# ---------------------------------------------------------------------------
# Matrices as lists of '0'/'1' row strings (function values).
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix_bits(m: int, seed: int) -> list:
    """The m x m ``random`` family of cclab: one splitmix64 output per
    cell, row-major, least significant bit."""
    state = seed & _MASK64
    bits = []
    for _ in range(m * m):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        bits.append(str((z ^ (z >> 31)) & 1))
    return ["".join(bits[i * m:(i + 1) * m]) for i in range(m)]


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


_FAMILY = {
    "eq": lambda x, y: x == y,
    "gt": lambda x, y: x > y,
    "and": lambda x, y: x & y != 0,
    "ip": lambda x, y: _parity(x & y),
    "xor": lambda x, y: _parity(x) ^ _parity(y),
}


def family_rows(name: str, m: int) -> list:
    f = _FAMILY[name]
    return ["".join("1" if f(x, y) else "0" for y in range(m))
            for x in range(m)]


def bfn_text(rows: list, label: str) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "\n".join(rows) + f"\n# {label}\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _measure_job(name, rows, expect, work_dir, cclab) -> Job:
    text = bfn_text(rows, name)
    src = os.path.join(work_dir, name + ".bfn")
    out = os.path.join(work_dir, name + ".csv")
    _write(src, text)
    expect = dict(expect, rows=len(rows), cols=len(rows[0]),
                  distinct_rows=len(set(rows)),
                  distinct_cols=len(set(zip(*rows))))
    f = cclab.parse_bfn(text)
    lo = max(1, _ceil_log2(cclab.rank(f)),
             _ceil_log2(cclab.fooling_set_bound(f)))
    hi = min(_ceil_log2(cclab.distinct_row_count(f)) + 1,
             _ceil_log2(cclab.distinct_col_count(f)) + 1)
    argv = ["measure", "--in", src, "--format", "csv", "--out", out]
    return Job(name, [argv], lambda rcs: checks.check_measure(out, rcs[0], expect),
               prop=lo == hi)


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k >= 1 else 0


def dcc_jobs(rng, work_dir, cclab) -> list:
    """measure jobs: 12 random 6x6 and 3 random 7x7 drawn from the pinned
    cost bands, plus ip8, eq8 and gt8."""
    jobs = []
    for m, count in ((6, 12), (7, 3)):
        pool = sorted(k for k in pins.DCC_RANDOM if k[0] == m)
        for _, s in rng.sample(pool, count):
            rk, d, c = pins.DCC_RANDOM[(m, s)]
            rows = splitmix_bits(m, s)
            jobs.append(_measure_job(f"rnd{m}_s{s}", rows,
                                     {"rank": rk, "D": d, "C": c},
                                     work_dir, cclab))
    for (fam, m), (rk, d, c) in pins.DCC_FAMILY.items():
        jobs.append(_measure_job(f"{fam}{m}", family_rows(fam, m),
                                 {"rank": rk, "D": d, "C": c}, work_dir, cclab))
    return jobs


def _report_job(key, work_dir) -> Job:
    rk, d, c = pins.LIFT[key]
    if key[0] == "random":
        _, m, n, s = key
        flags, name = ["--family", "random", "--seed", str(s)], f"rnd{m}_s{s}^{n}"
    else:
        fam, m, n = key
        flags, name = ["--family", fam], f"{fam}{m}^{n}"
    out = os.path.join(work_dir, name.replace("^", "_n") + ".csv")
    argv = (["report"] + flags + ["--m", str(m), "--n", str(n), "--limits",
                                  LIFT_LIMITS, "--format", "csv", "--out", out])
    expect = {"m": m, "n": n, "rank": rk, "D": d, "C": c}
    return Job(name, [argv], lambda rcs: checks.check_report(out, rcs[0], expect))


# random lift draws: (m, n, pinned C known, how many)
_LIFT_DRAWS = ((4, 2, False, 4), (3, 3, True, 4))


def lift_cover_jobs(rng, work_dir, cclab) -> list:
    """report jobs, one row each, on f^(+2) and f^(+3): every fixed
    family row, one fixed random row, and random bases drawn per class
    (budget-bound or decided), under the criterion-7 limits."""
    keys = [k for k in pins.LIFT if k[0] != "random"]
    keys.append(pins.LIFT_FIXED_RANDOM)
    for m, n, decided, count in _LIFT_DRAWS:
        pool = sorted(k for k, v in pins.LIFT.items()
                      if k[0] == "random" and k[1:3] == (m, n)
                      and k != pins.LIFT_FIXED_RANDOM
                      and (v[2] is not None) == decided)
        keys += rng.sample(pool, count)
    return [_report_job(k, work_dir) for k in keys]


def _pipeline_job(name, rows, expect, strategy, work_dir) -> Job:
    text = bfn_text(rows, name)
    base = os.path.join(work_dir, name)
    paths = {"gen": base + ".bfn", "proto": base + ".proto.json",
             "trace": base + ".proto.json.trace.json",
             "balanced": base + ".bal.json", "verified": base + ".verified"}
    _write(base + ".in.bfn", text)
    n = str(expect["n"])
    argvs = [
        ["gen", "--in", base + ".in.bfn", "--out", paths["gen"]],
        ["build", "--in", paths["gen"], "--n", n, "--strategy", strategy,
         "--mode", "greedy", "--out", paths["proto"]],
        ["balance", "--in", paths["proto"], "--out", paths["balanced"]],
        ["verify", "--in", paths["balanced"], "--matrix", paths["gen"],
         "--out", paths["verified"]],
    ]
    return Job(name, argvs,
               lambda rcs: checks.check_pipeline(paths, rcs, text, expect),
               prop=strategy == "lift")


def build_jobs(rng, work_dir, cclab) -> list:
    """gen -> build --mode greedy -> balance -> verify pipelines: the
    direct strategy on ip32, eq20, gt24, random 40x40, two random 32x32
    and ten random 24x24 drawn from cost bands; the lift strategy at n=2
    on gt5 and two random 6x6 drawn from a cost band."""
    def pool(m):
        return sorted(k for k in pins.BUILD_RANK if k[:2] == ("random", m))

    direct = [("ip", 32, None), ("eq", 20, None), ("gt", 24, None),
              ("random", 40, 4)]
    direct += rng.sample(pool(32), 2) + rng.sample(pool(24), 10)
    lifted = [("gt", 5, None)] + rng.sample(pool(6), 2)
    jobs = []
    for strategy, n, keys in (("direct", 1, direct), ("lift", 2, lifted)):
        for fam, m, s in keys:
            rows = splitmix_bits(m, s) if fam == "random" else family_rows(fam, m)
            name = f"rnd{m}_s{s}" if fam == "random" else f"{fam}{m}"
            expect = {"rank": pins.BUILD_RANK[(fam, m, s)], "n": n}
            jobs.append(_pipeline_job(name, rows, expect, strategy, work_dir))
    return jobs


_MAKERS = {"dcc": dcc_jobs, "lift_cover": lift_cover_jobs,
           "build": build_jobs}


def make_jobs(workload: str, seed: int, work_dir: str, cclab) -> list:
    """Write the inputs of ``workload`` for ``seed`` under ``work_dir``
    and return its jobs, shuffled into the seed's run order."""
    os.makedirs(work_dir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    jobs = _MAKERS[workload](rng, work_dir, cclab)
    rng.shuffle(jobs)
    return jobs
