"""protoabs benchmark: one workload, measured in this process.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports protoabs from `./src` and
nothing else.  It repeats the workload's learning pass until `--seconds`
are used, checking every pass's outputs.  It prints every metric by name
with its unit, a `report` line with the run's non-time fields, and, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics: SETUPS_PER_PASS set-ups before
every pass and after the last one, and learn_s and setup_s are the medians
of the pass and set-up times.
--trace 1 gives the per-layer metrics from the spans of spans.py: passes
alternate between spans off and spans on, and the median ratio of each
pair is the tracing overhead on learn_s.
"""

import os

# One BLAS thread: no process uses more threads than there are cores, and
# the figures do not depend on what else the machine is running.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUPS_PER_PASS = 3
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

END_TO_END = [
    ("learn_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ari", "ratio"),
    ("purity", "ratio"),
]


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def environment(seed):
    """Versions, cores, BLAS threads, and the peak RSS of an interpreter
    that has only imported numpy and protoabs."""
    import numpy

    probe = subprocess.run(
        [sys.executable, "-c",
         "import resource, numpy, protoabs; "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "baseline_rss_mb": int(probe.stdout.strip()) / 1024,
    }


def setup_batch(workload, seed, work_dir, ops, times):
    """SETUPS_PER_PASS set-ups, each timed into `times`; returns the last
    one's state."""
    for _ in range(SETUPS_PER_PASS):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, work_dir, ops)
        times.append(time.perf_counter() - t0)
    return state


def learning_pass(workload, state, ops, gaps, first, tracer=None):
    """One timed learning pass, with the spans on when a tracer is given;
    checks its outputs, and that they repeat those of the run's first pass
    (kept in the list `first`).  Returns the duration and the checked
    outputs."""
    gc.collect()
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    out = workload.learn(state, ops)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    result = workload.check(state, out, ops)
    gaps.check(ops)
    fields = {k: result[k] for k in ("ari", "purity", "assignments_sha256", "artifacts_sha256")}
    if first:
        ops.check("pass repeats the first pass's outputs", fields == first[0])
    else:
        first.append(fields)
    return elapsed, result


def untraced_run(workload, args, work_dir, ops, gaps, report):
    """Set-up batches and learning passes in turn until `--seconds` are
    used, ending on a set-up batch: set-up and learning are timed over the
    same stretch of the machine's speed swings."""
    setup_times, durations, first = [], [], []
    start = time.perf_counter()
    while True:
        state = setup_batch(workload, args.seed, work_dir, ops, setup_times)
        if durations and time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
        elapsed, result = learning_pass(workload, state, ops, gaps, first)
        durations.append(elapsed)
    report.update(passes=len(durations), pass_s=durations, setup_s=setup_times, result=result)
    return {
        "learn_s": statistics.median(durations),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ari": result["ari"],
        "purity": result["purity"],
    }


def traced_run(workload, args, work_dir, ops, gaps, report):
    """One traced set-up, then pairs of learning passes, one with the spans
    off and one with them on (the order alternates from pair to pair),
    until `--seconds` are used.  The per-layer figures are those of the
    traced set-up plus the mean traced pass; the tracing overhead is the
    median over pairs of the traced pass's time over the untraced one's."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        t0 = time.perf_counter()
        state = workload.setup(args.seed, work_dir, ops)
        setup_wall = time.perf_counter() - t0
        tracer.active = False
        setup_self = tracer.self_seconds(*tracer.stats)
        fired = set(tracer.stats)
        at_setup = spans.layer_values(tracer)
        tracer.reset()

        plain, traced, first = [], [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start + statistics.median(plain)
                             + statistics.median(traced) <= args.seconds):
            for on in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                elapsed, result = learning_pass(workload, state, ops, gaps, first,
                                                tracer if on else None)
                (traced if on else plain).append(elapsed)
        learn_self = tracer.self_seconds(*tracer.stats)
        fired |= set(tracer.stats)
        per_pass = spans.layer_values(tracer)
    finally:
        tracer.uninstall()

    ops.check("span self times within set-up wall time", setup_self <= setup_wall)
    ops.check("span self times within learning wall time", learn_self <= sum(traced))
    overheads = [t / p - 1.0 for t, p in zip(traced, plain)]
    metrics = spans.combine(at_setup, per_pass, len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    metrics["trace.absent_sites"] = float(len(tracer.absent))
    report.update(
        passes=len(traced),
        pass_s=traced,
        untraced_pass_s=plain,
        overhead_ratios=overheads,
        self_s_sum={"setup": setup_self, "setup_wall": setup_wall,
                    "learn": learn_self, "learn_wall": sum(traced)},
        spans_fired=sorted(fired),
        missing_spans=sorted(set(workload.spans) - fired),
        absent_sites=tracer.absent,
        traced_assignments_sha256=tracer.assignments_sha256(),
        result=result,
    )
    return metrics


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "protoabs", "__init__.py")):
        print("perfbench: no protoabs sources in %s; run from the repository root" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    from workloads import WORKLOADS, GapRecorder, Ops

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    ops = Ops()
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    gaps = GapRecorder()
    gaps.install()
    try:
        run = traced_run if args.trace else untraced_run
        metrics = run(workload, args, work_dir, ops, gaps, report)
    finally:
        gaps.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass            # another run still uses it

    import spans

    unit = dict(END_TO_END, **spans.per_layer_units())
    print("perfbench %s seed=%d trace=%d passes=%d"
          % (workload.name, args.seed, args.trace, report["passes"]))
    for name, value in metrics.items():
        print("  %-40s %.6g %s" % (name, value, unit[name]))
    if args.trace:
        print("  tracing overhead on learn_s: %+.2f%% (median of %d paired passes)"
              % (100 * metrics["trace.overhead_ratio"], len(report["overhead_ratios"])))
    print("  fail_ratio %.6g (%d of %d operations)"
          % (ops.failed / ops.attempted, ops.failed, ops.attempted))
    report.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
                  fail_ratio=ops.failed / ops.attempted)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
