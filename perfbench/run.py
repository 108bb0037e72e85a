#!/usr/bin/env python3
"""qergodic benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # all workloads, one process each
    python3 perfbench/run.py --workload walk-spectral --seed 1 --seconds 36 --trace 0

One workload runs in this process.  It times its set-up SETUP_REPS
times, then repeats passes over the workload's operations, at least three
and as many more as are expected to end, set-up included, within
``--seconds``; it checks every result and prints the metrics as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones derived from the spans of the traced passes.  Stage
timings, sample counts, every failed check and the environment go to
``.perfbench_out/<workload>-seed<n>-trace<t>/detail.json`` and, in
short, to the lines before the last.  See NOTES.md for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS and OpenMP pools are pinned to one thread before numpy loads, and
# CLI children inherit the setting.  On two vCPUs, two BLAS threads made the
# small-matrix power iteration about 20 % noisier from call to call.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPS = 7
MIN_PASSES = 3
OP_TIMEOUT_S = 60.0
# No operation starts, and none runs on, past this many seconds after the
# run starts, so that a run ends well within three minutes.
RUN_DEADLINE_S = 150.0
WORKLOAD_NAMES = ("walk-spectral", "sparse-oracle", "montecarlo")
END_TO_END = (
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--op-timeout", type=float, default=OP_TIMEOUT_S,
                        help="per-operation time cap in seconds")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every problem (smoke test of the benchmark)")
    return parser.parse_args(argv)


def median(values):
    return float(statistics.median(values)) if values else None


@contextmanager
def time_cap(seconds: float):
    """Raise OpTimeout in this thread if the block runs past the cap."""
    from workloads import OpTimeout

    def expire(signum, frame):
        raise OpTimeout(f"overran {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def environment(args) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "op_timeout_s": args.op_timeout,
        "tiny": args.tiny,
    }


class OpRecord:
    def __init__(self, op):
        self.op = op
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0
        self.errors: list[str] = []
        self.failed_checks: dict[str, str] = {}
        self.known_defects: dict[str, str] = {}

    def summary(self) -> dict:
        return {
            "stage": self.op.stage,
            "attempted": self.attempted,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "errors": self.errors[:3],
            "failed_checks": self.failed_checks,
            "known_defects": self.known_defects,
        }


def execute(op, ctx, cap: float, record: OpRecord):
    """Run one operation under the time cap and check its result.

    Returns the elapsed time and the result, or None when the operation
    raised or overran the cap.
    """
    from workloads import OpTimeout

    record.attempted += 1
    start = time.perf_counter()
    try:
        with nullcontext() if op.cli else time_cap(cap):
            result = op.run(ctx, cap)
    except OpTimeout:
        record.timeouts += 1
        record.failed += 1
        return time.perf_counter() - start, None
    except Exception as exc:  # an operation that raises is a failed op
        record.errors.append(f"{type(exc).__name__}: {exc}")
        record.failed += 1
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        misses = [o for o in op.check(ctx, result) if not o.ok]
    except Exception as exc:  # so is a result the checks cannot read
        record.errors.append(f"check raised {type(exc).__name__}: {exc}")
        record.failed += 1
        return elapsed, result
    for miss in misses:
        target = record.known_defects if miss.known_defect else record.failed_checks
        target[miss.name] = miss.detail
    record.failed += bool(misses)
    return elapsed, result


def run_one(args) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def cap() -> float:
        return max(min(args.op_timeout, deadline - time.perf_counter()), 1e-3)

    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import qergodic  # noqa: F401  (timed: the first import in this process)

    import_s = time.perf_counter() - import_start

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, Context, spawn_import

    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    params = workload.params(args.tiny)

    # Set-up is measured SETUP_REPS times and counts against --seconds.
    run_start = time.perf_counter()
    setup_runs = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ctx = Context(args.seed, outdir, env, params)
        workload.setup(ctx)
        setup_runs.append(time.perf_counter() - start)
    import_runs = [spawn_import(env, "qergodic") for _ in range(SETUP_REPS)]
    setup_s = median(import_runs) + median(setup_runs)

    # A reference that fails leaves its checks unable to read it, so the
    # operations it serves count as failed.  References are untimed and do
    # not count against --seconds.
    reference_error = None
    reference_start = time.perf_counter()
    try:
        with time_cap(cap()):
            workload.reference(ctx)
    except Exception as exc:  # includes OpTimeout
        reference_error = f"{type(exc).__name__}: {exc}"
    reference_s = time.perf_counter() - reference_start

    ops = workload.ops()
    records = {op.name: OpRecord(op) for op in ops}
    tracer = Tracer() if args.trace else None
    pass_totals = {False: [], True: []}
    layer_passes = []
    probe_errors = []
    start = time.perf_counter()
    index = 0
    # Passes go on while the next one is expected to end within --seconds
    # of the start of set-up, the references' time left out.
    while time.perf_counter() < deadline and (
        index < MIN_PASSES
        or time.perf_counter() - run_start - reference_s + (time.perf_counter() - start) / index
        <= args.seconds
    ):
        traced = bool(args.trace) and index % 2 == 1
        results = {}
        total = 0.0
        with tracer.installed() if traced else nullcontext():
            for op in ops:
                with tracer.operation(f"{index}:{op.name}", op.name) if traced else nullcontext():
                    elapsed, result = execute(op, ctx, cap(), records[op.name])
                total += elapsed
                if traced:
                    results[op.name] = result
                elif result is not None:
                    records[op.name].samples.append(elapsed)
            if traced:
                try:
                    with time_cap(cap()):
                        probe_times, lifted = layers.run_probes(
                            ctx, results, tracer, index)
                    layer_passes.append(layers.layer_metrics(
                        ctx, ops, results, tracer.spans, index, probe_times, lifted))
                except Exception as exc:  # includes OpTimeout; the pass then has no layer row
                    probe_errors.append(f"{type(exc).__name__}: {exc}")
        pass_totals[traced].append(total)
        index += 1
    peak_rss_mb = peak_rss() / 1024.0

    attempted = sum(r.attempted for r in records.values())
    failed = sum(r.failed for r in records.values())
    correct = reference_error is None and not probe_errors and all(
        not r.errors and not r.timeouts and not r.failed_checks for r in records.values()
    )

    stages = {}
    for r in records.values():
        value = median(r.samples)
        stages[r.op.stage] = {
            "value": "timeout" if value is None and r.timeouts else value,
            "unit": "s",
            "samples": len(r.samples),
            "samples_s": r.samples,
        }
    lib = [r for r in records.values() if not r.op.cli]
    cli = [r for r in records.values() if r.op.cli]
    end_to_end = {
        "setup_s": setup_s,
        "analysis_s": sum(median(r.samples) or args.op_timeout for r in lib),
        "cli_s": median([s for r in cli for s in r.samples]) or args.op_timeout,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        # A run cut short by the deadline may lack a traced pass: zeros then.
        per_layer = {
            name: median([p[name] for p in layer_passes]) or 0.0
            for name, _, _ in layers.PER_LAYER if name != "trace.overhead_pct"
        }
        untraced, traced_totals = median(pass_totals[False]), median(pass_totals[True])
        per_layer["trace.overhead_pct"] = (
            100.0 * (traced_totals - untraced) / untraced if traced_totals and untraced else 0.0
        )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in per_layer.items()}
        tracer.write(outdir / "spans.json")
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": v, "unit": units[name]} for name, v in end_to_end.items()}

    detail = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args),
        "in_process_import_s": import_s,
        "reference_error": reference_error,
        "reference_s": reference_s,
        "probe_errors": probe_errors,
        "setup": {"import_runs_s": import_runs, "setup_runs_s": setup_runs},
        "passes": {"untraced": len(pass_totals[False]), "traced": len(pass_totals[True])},
        "stages": stages,
        "end_to_end": end_to_end,
        "ops": {name: r.summary() for name, r in records.items()},
        "metrics": metrics,
    }
    (outdir / "detail.json").write_text(json.dumps(detail, indent=2), encoding="utf-8")
    print_detail(detail)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def peak_rss() -> float:
    """Peak resident set of this process, in KiB."""
    import resource

    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def print_detail(detail: dict) -> None:
    print(f"== {detail['workload']}: {detail['why']}")
    if detail["reference_error"]:
        print(f"   REFERENCE FAILED {detail['reference_error']}")
    print("   stages (median):")
    for stage, s in detail["stages"].items():
        value = s["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"     {stage:<14} {shown:>10} {s['unit']:<5} samples {s['samples']}")
    print("   end to end:")
    for name, value in detail["end_to_end"].items():
        print(f"     {name:<14} {value:>10.4f} {dict(END_TO_END)[name]}")
    for name, op in detail["ops"].items():
        line = f"   op {name:<13} attempted {op['attempted']:>3}  failed {op['failed']:>3}"
        if op["timeouts"]:
            line += f"  timeouts {op['timeouts']}"
        print(line)
        for check, what in op["failed_checks"].items():
            print(f"      FAILED {check}: {what}")
        for error in op["errors"]:
            print(f"      ERROR {error}")
        for check, what in op["known_defects"].items():
            print(f"      known defect, {check}: {what}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--op-timeout", str(args.op_timeout)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    for key, m in metrics.items():
        print(f"{key:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qergodic" / "__init__.py").is_file():
        print(f"perfbench: no qergodic sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
