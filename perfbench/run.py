"""Benchmark for flowring: one seeded workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload cli-series --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  flowring is imported from the
checkout's ``src/``; the run stops with exit code 2 and no result if that
is not possible.

With ``--trace 0`` the workload's job stream runs, a block of jobs at a
time, until the time spent inside jobs reaches ``--seconds``; the
end-to-end metrics come from that loop, and ``setup_s`` from fresh
interpreters started before it.  With ``--trace 1`` a fixed number of
blocks (``TRACE_BLOCKS``, whatever ``--seconds`` says) runs three times:
a warm-up, a traced pass that gives the per-layer metrics, and an
untraced pass that the traced one is compared with.  Every output is
checked outside the timed region.  The last line of stdout is one JSON
object; the exit code is 0 only when every check passed.  Details
(provenance, class shares, sample counts, raw times) go to
``.perfbench_out/`` in the checkout.

Job times are scaled to a reference core (see ``calibration.py``): a
calibration loop runs before every job, and the times of each block are
scaled by ``CAL_REF_S`` over the mean calibration time in that block.
The block mean follows the share of time the core was slowed; a single
reading next to a job does not, because the speed changes within one
job.  Each set-up interpreter calibrates itself after its job, on the
core it ran on.
"""

from __future__ import annotations

import argparse
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
import time
import traceback
from collections import Counter
from pathlib import Path

from calibration import CAL_REF_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

DEFAULT_SEED = 0
DIGEST_BLOCKS = 2  # outputs of the first blocks are hashed; every run completes them
WORKLOADS = ("cli-series", "identity-checks", "eval-oracle")
TRACE_BLOCKS = {"cli-series": 4, "identity-checks": 2, "eval-oracle": 8}
SETUP_REPEATS = 11
# A fresh interpreter imports flowring.cli from src/ and runs the smallest job.
# Then, outside what it reports as set-up, it times the calibration loop and
# prints (calibration seconds, seconds spent on calibrating).
SETUP_CODE = f"""\
import io, os, sys, time
sys.path.insert(0, 'src')
import flowring.cli
if not os.path.abspath(flowring.cli.__file__).startswith(os.path.abspath('src') + os.sep):
    sys.exit(90)
code = flowring.cli.main(['series', '--field=x', '--order-x=1', '--order-t=1'],
                         io.StringIO(), io.StringIO())
start = time.perf_counter()
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from calibration import calibrate
print(min(calibrate() for _ in range(3)), time.perf_counter() - start)
sys.exit(code)
"""


def import_checkout():
    """Import flowring from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flowring

    location = Path(flowring.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"flowring was imported from {location}, not from {src}")
    return flowring


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((ROOT / "src" / "flowring").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _start_interpreter():
    """Seconds a fresh interpreter took, scaled by its own calibration."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited with {proc.returncode}: "
                           f"{proc.stderr[-300:]}")
    cal, calibrating = (float(x) for x in proc.stdout.split())
    return (elapsed - calibrating) * CAL_REF_S / cal


def measure_setup():
    """Median time of a fresh interpreter importing flowring.cli and running one tiny job."""
    _start_interpreter()  # fills the OS file cache
    return statistics.median(_start_interpreter() for _ in range(SETUP_REPEATS))


class Run:
    """Latencies, check results and output digest of one pass over jobs."""

    def __init__(self):
        self.latencies = []  # scaled to the reference core
        self.raw = []
        self.labels = []
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_jobs = 0
        self.blocks = 0
        self.attempted = 0


def _execute(job, modules):
    """(seconds, outcome) of one job."""
    if job.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = modules["cli"].main(job.argv, out, err)
        elapsed = time.perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue())
    fn, *args = job.call
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _outcome_text(outcome):
    if isinstance(outcome, tuple):
        code, out, err = outcome
        return f"exit {code}\n{out}\n{err}"
    return repr(outcome)


def run_blocks(blocks, seconds, modules, checks, tracer=None):
    """Run whole blocks until the time inside jobs reaches ``seconds``."""
    run = Run()
    busy = 0.0
    for block in blocks:
        cals, raw_start = [], len(run.raw)
        for job in block:
            index = run.attempted
            run.attempted += 1
            cals.append(calibrate())
            if tracer is not None:
                tracer.job_id = index
            try:
                elapsed, outcome = _execute(job, modules)
            except Exception:  # an exception is a failed job, never a crash of the bench
                run.failures.append((index, job.label, traceback.format_exc(limit=3)))
                continue
            finally:
                if tracer is not None:
                    tracer.job_id = -1
            busy += elapsed
            run.raw.append(elapsed)
            run.labels.append(job.label)
            try:
                checks.check(job, outcome)
            except (checks.CheckFailure, ValueError, KeyError, TypeError, IndexError,
                    AttributeError) as exc:
                run.failures.append((index, job.label, f"{type(exc).__name__}: {exc}"))
            if run.blocks < DIGEST_BLOCKS:
                run.digest.update(_outcome_text(outcome).encode() + b"\0")
                run.digest_jobs += 1
        scale = CAL_REF_S / statistics.fmean(cals)
        run.latencies += [t * scale for t in run.raw[raw_start:]]
        run.blocks += 1
        if busy >= seconds and run.blocks >= DIGEST_BLOCKS:
            break
    return run


def shares(run):
    """Share of jobs and of job time per job class."""
    total = sum(run.latencies)
    count, busy = Counter(run.labels), Counter()
    for label, t in zip(run.labels, run.latencies):
        busy[label] += t
    return {label: {"jobs": count[label], "job_share": count[label] / len(run.labels),
                    "time_share": busy[label] / total}
            for label in sorted(count)}


def _quantiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def _expected_digest(workload, seed):
    if seed != DEFAULT_SEED or not BASELINE.exists():
        return None
    return json.loads(BASELINE.read_text()).get("digests", {}).get(workload)


def run_all(args):
    """Run every workload in its own interpreter; exit nonzero if any run failed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1):
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}/{name}": m for name, m in result["metrics"].items()})
    combined["correct"] &= code == 0
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        import_checkout()
    except ImportError as exc:
        print(f"perfbench: cannot import flowring from this checkout: {exc}", file=sys.stderr)
        return 2
    import checks
    import tracer as tracing
    import workloads
    from flowring import cli

    modules = {"cli": cli}
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            **provenance(args.seed)}
    stream = workloads.WORKLOADS[args.workload](args.seed).blocks()

    if args.trace:
        blocks = [next(stream) for _ in range(TRACE_BLOCKS[args.workload])]
        warm = run_blocks(blocks, math.inf, modules, checks)  # both timed passes start warm
        recorder = tracing.Tracer()
        with recorder:
            run = run_blocks(blocks, math.inf, modules, checks, recorder)
        plain = run_blocks(blocks, math.inf, modules, checks)
        untraced_rate = len(plain.latencies) / sum(plain.latencies)
        traced_rate = len(run.latencies) / sum(run.latencies)
        metrics = tracing.layer_metrics(recorder, untraced_rate, traced_rate, sum(run.raw))
        run.failures += warm.failures + plain.failures
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        info["spans"] = len(recorder.t0)
    else:
        setup_s = measure_setup()
        run = run_blocks(stream, args.seconds, modules, checks)
        p50, p90 = _quantiles(run.latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(run.latencies) / sum(run.latencies), "1/s"),
            "job_p50_ms": (p50 * 1e3, "ms"),
            "job_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = run.attempted
    failed_jobs = len({f[0] for f in run.failures})
    digest = run.digest.hexdigest()
    expected = _expected_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == digest
    info.update({
        "jobs": len(run.latencies), "blocks": run.blocks, "failed": failed_jobs,
        "failures": run.failures[:20], "fail_ratio": failed_jobs / max(attempted, 1),
        "output_sha256": digest, "digest_jobs": run.digest_jobs,
        "digest_expected": expected, "shares": shares(run),
        "raw_jobs_per_s": len(run.raw) / sum(run.raw),
        "raw_job_p50_p90_ms": [q * 1e3 for q in _quantiles(run.raw)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(info, indent=2, default=str))

    n = len(run.latencies)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={n} "
          f"blocks={run.blocks} python={info['python']} nproc={info['nproc']} "
          f"cpu={info['cpu_model']!r} commit={info['git_commit']} src={info['src_sha256'][:12]}")
    for name, (value, unit) in metrics.items():
        samples = {"setup_s": f"median of {SETUP_REPEATS} starts",
                   "job_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond"}.get(name, f"{n} jobs")
        print(f"  {name} = {value:.6g} {unit} ({samples})")
    print(f"  fail_ratio = {info['fail_ratio']:.6g} ratio ({failed_jobs} of {attempted} jobs)")
    for label, share in info["shares"].items():
        print(f"  class {label}: {share['jobs']} jobs, {share['job_share']:.1%} of jobs, "
              f"{share['time_share']:.1%} of job time")
    for index, label, reason in run.failures[:5]:
        print(f"  FAILED job {index} ({label}): {reason.strip().splitlines()[-1]}")
    verdict = "matches the baseline" if expected and digest_ok else (
        "DIFFERS from the baseline" if expected else "no baseline for this seed")
    print(f"  output sha256 of the first {run.digest_jobs} jobs = {digest} ({verdict})")

    correct = failed_jobs == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_jobs + (0 if digest_ok else 1),
        "metrics": info["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
