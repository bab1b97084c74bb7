"""Seeded single-process benchmark of the refexp engine.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports refexp from ./src and
nothing else. Workloads: serve, corpus, train (see perfbench/README.md).

With --trace 0 the last line of standard output holds every end-to-end metric;
with --trace 1 the workload runs untraced and then traced on the same inputs,
and the last line holds every per-layer metric plus the tracing overhead. The
line before it is a report with run metadata, the workload's own figures and
output digests; the same report goes to .perfbench_out/, with the spans of a
traced run.

Exit codes: 0 success; 1 a correctness check failed or an operation raised
(anything but EmptyCandidatesError); 2 the benchmark could not start (no
refexp source, altered weight files, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

# one BLAS thread: the benchmark is a single client in one process, and the
# matrices are far too small for threads to pay off
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

USAGE_ERROR = 2
CHECK_FAILED = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description="refexp benchmark")
    parser.add_argument("--workload", required=True, choices=("serve", "corpus", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_refexp():
    """Import refexp from this checkout's src/, refusing any other copy."""
    if not (SRC / "refexp" / "__init__.py").is_file():
        raise ImportError(f"no refexp source under {SRC}")
    sys.path.insert(0, str(SRC))
    import refexp
    if Path(refexp.__file__).resolve().parent != (SRC / "refexp").resolve():
        raise ImportError(f"refexp was imported from {refexp.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_refexp()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    import metadata
    import workloads
    from tracing import Tracer

    prepare, setup_sample, run_fn = workloads.WORKLOADS[args.workload]
    try:
        state = prepare(args.seed)
        sampler = workloads.SetupSampler(setup_sample, state)
        for _ in range(workloads.SETUP_BEFORE):
            sampler.take()
    except (workloads.SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        measured = run_fn(state, args.seed, args.seconds, between=sampler.between)
        for _ in range(workloads.SETUP_AFTER):
            sampler.take()
        setup = sampler.by_name()
        outcome = measured
        tracer = None
        if args.trace:
            tracer = Tracer()
            outcome = run_fn(state, args.seed, args.seconds, tracer)
    except Exception:
        # the workloads count their own failures; this is anything else
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return CHECK_FAILED

    runs = [measured] if tracer is None else [measured, outcome]
    mismatches = [m for out in runs for m in out.mismatches]
    failed = sum(out.failed for out in runs)
    correct = not mismatches and not failed

    metrics = e2e = workloads.end_to_end(measured, setup, peak_rss_mb())
    if tracer is not None:
        traced_e2e = workloads.end_to_end(outcome, setup, peak_rss_mb())
        if correct:  # a failed run may have no timed interval to divide by
            overhead_pct = 100.0 * (e2e["throughput_per_ref"]
                                    / traced_e2e["throughput_per_ref"] - 1.0)
            metrics = workloads.per_layer(tracer, outcome, setup, overhead_pct)
    units = metadata.units(BENCHMARK_JSON)
    result = {
        "correct": correct,
        "attempted": sum(out.attempted for out in runs),
        "failed": failed,
        "metrics": ({name: {"value": value, "unit": units.get(name, "")}
                     for name, value in metrics.items()} if correct else {}),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata.collect(ROOT, SRC),
        "setup_samples": setup,
        "end_to_end": e2e,
        "throughput_per_s": measured.throughput(per_ref=False),
        "no_expression_rate": 1.0 - measured.expressed / max(measured.cases, 1),
        "intervals": measured.intervals,
        "details": measured.details,
        "mismatches": mismatches[:20],
        "errors": [e for out in runs for e in out.errors],
    }
    if tracer is not None:
        report["traced"] = {"end_to_end": traced_e2e, "details": outcome.details,
                            "spans": len(tracer.spans)}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0 if correct else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
