#!/usr/bin/env python3
"""quiverforge benchmark.

    python3 bench/run.py --workload point-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (point-sweep, torus-solve or cli-batch) against the
library in ``src/`` of the checkout it is started from.  With ``--trace 0``
the run is untraced and reports the end-to-end metrics; with ``--trace 1`` it first times one untraced pass, then repeats
traced passes and reports the per-layer metrics and the tracing overhead.
Earlier lines of standard output describe the environment, the named
per-workload metrics and any failed operation; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, where ``correct``
says whether every operation passed its certificate.  Spans of a traced run
are written to ``.bench_out/``.  A run that cannot produce that line (no
library source, an unknown workload, a broken derivation) exits non-zero.
"""
import os
import sys
import time

T0 = time.perf_counter()

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("QUIVERFORGE_THREADS",)},
    }


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quiverforge", "__init__.py")):
        _fail(f"no library source under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import json
    import resource
    import statistics

    import spans
    import workloads

    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    def timed_passes(rec, seconds, min_passes=1):
        """Repeat whole passes while at least half of the next one, if it is
        as long as the last, fits within ``seconds``."""
        start = now = time.perf_counter()
        passes, last = 0, 0.0
        while passes < min_passes or now - start + last / 2 <= seconds:
            workload.run_pass(rec)
            passes += 1
            last, now = time.perf_counter() - now, time.perf_counter()
        return passes, now - start

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed, ROOT)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            # one untraced pass first: the baseline of the tracing overhead
            untraced = workloads.Recorder()
            _, untraced_s = timed_passes(untraced, 0.0)
            tracer = spans.Tracer()
            rec = workloads.Recorder(tracer)
            spans.install(tracer)
            try:
                passes, traced_s = timed_passes(rec, args.seconds)
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer, passes)
            metrics["trace.overhead_pct"] = 100.0 * (traced_s / passes / untraced_s - 1.0)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
            rec.attempted += untraced.attempted
            rec.failures[:0] = untraced.failures
            kind = "per_layer"
        else:
            rec = workloads.Recorder(reference=workload.reference)
            passes, _ = timed_passes(rec, args.seconds, getattr(workload, "min_passes", 1))
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **workloads.end_to_end(workload, rec),
            }
            shown = {k: {"value": v, "unit": u} for k, (v, u) in workload.named(rec).items()}
            shown["fail_frac"] = {
                "value": len(rec.failures) / rec.attempted,
                "failed": len(rec.failures),
                "attempted": rec.attempted,
            }
            print(f"named passes={passes} " + json.dumps(shown, sort_keys=True))
            kind = "end_to_end"
    finally:
        getattr(workload, "cleanup", lambda: None)()
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        _fail(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for op, reason in rec.failures:
        print(f"fail {op}: {reason}")
    failed = len(rec.failures)
    report = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
