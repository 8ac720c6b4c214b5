"""cclab benchmark: closed-loop CLI jobs on three workloads.

    python3 perfbench/run.py --workload dcc --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py                # all three workloads, seed 1

Run it from the repository root.  One client runs the workload's jobs
back to back, in process, through ``cclab.cli.main(argv)``; a job's
output is checked after the pass it ran in.  Passes over the seed's
corpus repeat until ``--seconds`` have elapsed and at least three passes
are done.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates plain and traced passes (an even number, at least two) and
prints the per-layer metrics.
The last line of standard output is one JSON object; the full result
(and, when traced, every span) is written under ``.perfbench_out/``.
See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
CALIBRATION_LOOPS = 40_000
# calibrate()'s typical time on an unloaded 2-vCPU Xeon, where the
# benchmark was written: scaled times read as seconds on that machine.
CALIBRATION_REF_S = 0.005

END_TO_END_UNITS = {
    "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.tail": "ms",
    "decided_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
}
REPORTED_UNITS = {"answer_gap": "ratio", "error_ratio": "ratio",
                  "machine.speed": "ratio", "raw.jobs_per_s": "1/s",
                  "raw.job_ms.p50": "ms", "raw.job_ms.tail": "ms"}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all",
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def repro_record(numpy_version: str) -> dict:
    return {
        "machine": platform.machine(), "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": _git_commit(), "cclab_source_sha256": _source_digest(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work (integer
    arithmetic and dict stores, like cclab's own loops).  It runs between
    jobs to track the machine's speed, which drifts on a shared host."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return perf_counter() - t0


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and cclab."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, cclab.cli"],
                   env=env, check=True)
    return perf_counter() - t0


def _percentile(samples, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


class Runner:
    """Runs passes over one workload's jobs and checks their outputs."""

    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.sink = io.StringIO()
        self.passes = []  # (traced, [seconds per job], [calibration seconds])
        self.attempted = self.failed = self.decided = 0
        self.gaps = []
        self.failures = []

    def run_pass(self, tracer=None) -> None:
        results, calibration = [], []
        base = len(self.passes) * len(self.jobs)
        for j, job in enumerate(self.jobs):
            calibration.append(calibrate())
            if tracer is not None:
                tracer.job = base + j
            took, rcs, error = 0.0, [], None
            for argv in job.argvs:
                self.sink.seek(0)
                self.sink.truncate()
                with contextlib.redirect_stdout(self.sink), \
                        contextlib.redirect_stderr(self.sink):
                    t0 = perf_counter()
                    try:
                        rc = self.cli.main(argv)
                    except Exception as e:  # a crash is a failed job
                        rc, error = None, f"{type(e).__name__}: {e}"
                    took += perf_counter() - t0
                rcs.append(rc)
                if rc not in (0, 2):
                    error = error or f"exit {rc}: {self.sink.getvalue().strip()}"
                    break
            results.append((took, rcs, error))
        calibration.append(calibrate())
        self.passes.append((tracer is not None, [r[0] for r in results],
                            calibration))
        for job, (_, rcs, error) in zip(self.jobs, results):
            self._score(job, rcs, error)

    def _score(self, job, rcs, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                decided, gap = job.check(rcs)
            except (checks.CheckFailed, OSError, ValueError, KeyError,
                    TypeError) as e:
                error = f"check failed: {e}"
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.name}: {error}")
            return
        self.decided += decided
        self.gaps.append(gap)

    def pass_cost(self, traced: bool) -> float:
        """Mean pass time over the pass's median calibration time."""
        costs = [sum(lat) / statistics.median(cal)
                 for tr, lat, cal in self.passes if tr == traced]
        return sum(costs) / len(costs)


def end_to_end(runner, workload, setup_s) -> tuple:
    """End-to-end metrics over the untraced passes, in reference seconds.

    The host's speed drifts by up to 2x over tens of seconds, so each
    job's time is scaled by ``CALIBRATION_REF_S`` over the median of the
    ``calibrate()`` times measured around it (three before, three
    after).  A job's time is then its median over the passes:
    ``jobs_per_s`` divides the job count by their sum and ``job_ms.p50``
    is their median.  The tail percentile pools every scaled sample.
    Unscaled figures are reported beside them with a ``raw.`` prefix."""
    plain = [(lat, cal) for tr, lat, cal in runner.passes if not tr]
    scaled = [[t * CALIBRATION_REF_S / statistics.median(cal[max(0, j - 2):j + 4])
               for j, t in enumerate(lat)] for lat, cal in plain]
    pct = workloads.TAIL_PCT[workload]
    metrics, raw = {}, {}
    for out, passes in ((metrics, scaled), (raw, [lat for lat, _ in plain])):
        per_job = [statistics.median(ts) for ts in zip(*passes)]
        out["jobs_per_s"] = len(per_job) / sum(per_job)
        out["job_ms.p50"] = statistics.median(per_job) * 1000
        out["job_ms.tail"], beyond = _percentile(
            [t * 1000 for lat in passes for t in lat], pct)
    metrics.update({
        "decided_ratio": runner.decided / runner.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    reported = {
        "answer_gap": statistics.fmean(runner.gaps) if runner.gaps else 1.0,
        "error_ratio": runner.failed / runner.attempted,
        "machine.speed": CALIBRATION_REF_S / statistics.median(
            [c for _, cal in plain for c in cal]),
    }
    reported.update({"raw." + k: v for k, v in raw.items()})
    notes = {"tail_percentile": pct, "samples": len(plain) * len(runner.jobs),
             "samples_beyond_tail": beyond, "passes": len(runner.passes),
             "pass_seconds": [[tr, sum(lat)] for tr, lat, _ in runner.passes],
             "calibration": [cal for _, _, cal in runner.passes]}
    return metrics, reported, notes


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "nodes": "count",
                   "us_per_node": "us", "exact_ratio": "ratio",
                   "rects": "count", "truncated": "count", "steps": "count",
                   "leaves": "count", "property_share": "ratio",
                   "slowdown": "ratio"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in REPORTED_UNITS:
        return REPORTED_UNITS[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "cclab", "__init__.py")):
        sys.stderr.write(f"error: no cclab sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import cclab
    import cclab.cli
    if not os.path.abspath(cclab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported cclab from {cclab.__file__}, "
                         f"not from {SRC}\n")
        return 2

    work_dir = os.path.join(OUT_DIR, args.workload)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        jobs = workloads.make_jobs(args.workload, args.seed, work_dir, cclab)
        reps.append(perf_counter() - t0)
    setup_s = (statistics.median(import_seconds() for _ in range(SETUP_REPS))
               + statistics.median(reps))
    known = [j.prop for j in jobs if j.prop is not None]
    prop_share = sum(known) / len(known) if known else None

    runner = Runner(cclab.cli, jobs)
    tracer = tracing.Tracer() if args.trace else None
    start = perf_counter()
    while True:
        if tracer is not None and len(runner.passes) % 2 == 1:
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            runner.run_pass()
        done = len(runner.passes)
        if (perf_counter() - start >= args.seconds
                and done >= (2 if tracer else workloads.MIN_PASSES)
                and done % (1 + args.trace) == 0):
            break

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs_per_pass": len(jobs), "record": repro_record(numpy.__version__)}
    e2e, reported, notes = end_to_end(runner, args.workload, setup_s)
    result.update(notes)
    result["property_share_at_setup"] = prop_share
    correct = runner.failed == 0
    if tracer is None:
        metrics = e2e
        shown = dict(e2e, **reported)
    else:
        traced = sum(1 for tr, _, _ in runner.passes if tr)
        metrics, worst = tracer.metrics(traced)
        if prop_share is None:  # lift_cover: cover searches out of budget
            covers = tracer.counts["rectangles.cover_number"]
            calls = metrics["rectangles.cover_number.calls"] * traced
            prop_share = covers["budget_exhausted"] / calls if calls else 0.0
        metrics["workload.property_share"] = prop_share
        metrics["trace.slowdown"] = (runner.pass_cost(True)
                                     / runner.pass_cost(False))
        result.update({"traced_passes": traced, "spans": len(tracer.spans),
                       "max_self_sum_error_s": worst})
        correct = correct and worst <= 1e-6
        shown = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"))
    result["end_to_end"] = {k: {"value": v, "unit": _unit(k)}
                            for k, v in dict(e2e, **reported).items()}
    result["failures"] = runner.failures
    result["job_seconds"] = {
        job.name: [lat[i] for tr, lat, _ in runner.passes if not tr]
        for i, job in enumerate(jobs)}

    for name, value in shown.items():
        print(f"{args.workload:>10}  {name:<46} {value:>14.6g} {_unit(name)}")
    if runner.failures:
        for line in runner.failures:
            print(f"FAILED {line}")
    os.makedirs(OUT_DIR, exist_ok=True)
    final = {"correct": correct, "attempted": runner.attempted,
             "failed": runner.failed,
             "metrics": {k: {"value": v, "unit": _unit(k)}
                         for k, v in metrics.items()}}
    result["result"] = final
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({k: result[k] for k in
                      ("workload", "seed", "passes", "samples",
                       "tail_percentile", "property_share_at_setup",
                       "record")}))
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
