"""Benchmark entry point.

    python3 bench/run.py --workload train-stack --seed 1 --seconds 10 --trace 0

runs one workload of bench/workloads.py against the package in `src/` of
the checkout this file sits in, and prints, as its last line, one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end metrics; with `--trace 1` they are the
per-layer metrics of bench/layers.py. Earlier lines record the environment
and the sample counts. Without `src/boltznet` it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"


def environment(numpy, loadavg) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu": cpu, "loadavg_at_start": loadavg}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boltznet" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'boltznet'}", file=sys.stderr)
        return 2

    # one client, BLAS threads at most the two the machine was sized on
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    loadavg = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import numpy
    import layers
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(numpy, loadavg)), flush=True)

    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = workloads.Run(wl, args.seed, ROOT, work,
                            new_tracer=layers.PassTracer if args.trace else None)
        run.run(args.seconds)
        if args.trace:
            metrics = traced_metrics(run, layers, args.seed)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = run.end_to_end(rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.failures:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print("counts " + json.dumps({
        "passes": [{k: round(v, 4) for k, v in w.items()} for w, _ in run.passes],
        "requests_timed": len(run.latencies),
        "bulk_rows": run.bulk_rows, "fail_frac": len(run.failures) / run.attempted,
        "dbm_batch_flips": run.dbm_flips, "dbm_rows_checked": run.dbm_rows,
        "dbm_batch_max_dev": run.dbm_max_dev}))
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def traced_metrics(run, layers, seed) -> dict:
    """Per-layer metrics: the mean over traced passes, the overhead of
    tracing against the untraced passes, the output-check counts and the
    kernel table."""
    traced = [(w, t) for w, t in run.passes if t is not None]
    plain = [w for w, t in run.passes if t is None]

    def timed(walls):
        return walls["setup"] + walls["train"] + walls["serve"]

    per_pass = [layers.pass_metrics(t.spans, int(timed(w) * 1e9)) for w, t in traced]
    values = {k: sum(p[k] for p in per_pass) / len(per_pass) for k in per_pass[0]}
    values["trace.overhead_frac"] = (median(timed(w) for w, _ in traced)
                                     / median(timed(w) for w in plain) - 1.0)
    values["check.dbm_batch_flips"] = run.dbm_flips
    values["check.dbm_rows_checked"] = run.dbm_rows
    values["check.dbm_batch_max_dev"] = run.dbm_max_dev
    values.update(layers.kernel_table(seed, *run.train_set()))
    return {name: (values[name], unit) for name, unit in layers.per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
