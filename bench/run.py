"""Benchmark of minsurflab: one workload per process, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload glue_sweep --seed 0 --seconds 8 --trace 0

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``, ``mismatch_r2_max``,
``mc_residual_rel``); with ``--trace 1`` it holds the per-layer metrics of a
traced run.  ``setup_s`` and ``wall_s`` are seconds at one reference machine
speed: an untraced run samples the host's speed throughout (``speed.py``) and
rescales each timed segment by it, so that load from other tenants of a
shared host cancels out; the raw seconds are kept in the run record.  The
line before the result records the environment, the drift against
the stored reference and every wrong outcome.  The full run record (and the
spans of a traced run) is written under ``.bench_out/``.

``--write-reference`` stores the outputs of a default-seed run as the new
reference in ``bench/reference.json``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS/OpenMP thread in every benchmark process, set before numpy loads:
# threaded reductions change the last digits of the matching mismatch
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mismatch_r2_max": "ratio",
    "mc_residual_rel": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".span"):
        return "arclength"
    return "count"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("glue_sweep", "tower", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minsurflab", "__init__.py")):
        # measure the checkout's sources, never an installed copy
        sys.exit(f"no minsurflab sources under {SRC}")
    import speed

    # machine speed is sampled through set-up and the timed passes of an
    # untraced run; their times are reported rescaled to one reference speed
    probe = speed.Probe()
    if not args.trace:
        probe.start()
    import_mark = probe.mark(at=T_START)
    import minsurflab  # noqa: F401  (import time is part of set-up)
    import tracer as tracing
    import workloads as wl

    import_s = probe.seconds(import_mark)
    if args.write_reference and args.seed != wl.DEFAULT_SEED:
        sys.exit("--write-reference needs the default seed")
    workload = wl.WORKLOADS[args.workload](args.seed)

    # set-up, several times from cold module caches; the last one is used
    cold = wl.module_state()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl.restore_state(cold)
        mark = probe.mark()
        state = workload.setup()
        setup_times.append(probe.seconds(mark))
    tail_s = (0.0, 0.0)
    if hasattr(workload, "setup_glue"):
        mark = probe.mark()
        workload.setup_glue(state)
        tail_s = probe.seconds(mark)
    setup_raw_s, setup_s = (
        import_s[i] + statistics.median(t[i] for t in setup_times) + tail_s[i] for i in (0, 1)
    )
    warm = wl.module_state()

    # timed passes, closed loop, until --seconds have passed (at least one);
    # every pass starts from the module caches as set-up left them
    tracer = tracing.Tracer() if args.trace else None
    records = []
    pass_times = []
    pass_cpu = []
    started = time.perf_counter()
    while True:
        if pass_times:
            wl.restore_state(warm)
            state["inputs"] = workload.fresh(state)
        rec = wl.Recorder(tracer)
        if tracer is not None:
            tracer.install()
        try:
            mark, c0 = probe.mark(), time.process_time()
            workload.run(state, rec)
            pass_times.append(probe.seconds(mark))
            pass_cpu.append(time.process_time() - c0)
        finally:
            if tracer is not None:
                tracer.restore()
        records += rec.records
        if time.perf_counter() - started >= args.seconds:
            break
    probe.stop()

    # quality metrics and their oracle calls, untimed and untraced
    rec = wl.Recorder()
    quality = workload.finish(state, records, rec)
    records += rec.records

    if args.write_reference:
        write_reference(args.workload, records)
    failed, worst, reasons = wl.judge(records, wl.load_reference(args.workload), args.seed)

    passes = len(pass_times)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(norm for _, norm in pass_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **quality,
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracer.layer_metrics(passes)
        calls = len(tracer.spans) / passes
        metrics["trace.calls"] = calls
        raw = [t for t, _ in pass_times]
        metrics["trace.wall_s"] = statistics.median(raw)
        metrics["trace.overhead_s"] = calls * tracing.wrapper_cost()
        metrics["trace.other_s"] = sum(raw) / passes - tracer.covered_seconds() / passes
        units = {name: layer_unit(name) for name in metrics}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "eps_factor": wl.eps_factor(args.seed),
        "passes": passes,
        # (raw, normalised) seconds of every timed segment
        "pass_s": pass_times,
        "pass_cpu_s": pass_cpu,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "setup_glue_s": tail_s,
        "setup_raw_s": setup_raw_s,
        "probe": {"samples": len(probe.samples), "busy_s": probe.busy,
                  "typical_s": speed.typical(probe.samples) if probe.samples else None,
                  "reference_s": speed.REFERENCE_S},
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "max_drift": worst,
        "drift_tol": wl.REL_TOL,
        "wrong": reasons,
        "env": environment(),
    }
    write_record(args, info, records, tracer)
    print(json.dumps(info, default=str))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_reference(workload: str, records: list):
    import workloads as wl

    table = json.loads(wl.REFERENCE.read_text()) if wl.REFERENCE.exists() else {}
    table[workload] = {r["op"]: r["values"] for r in records if r["status"] == "ok"}
    wl.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def write_record(args, info: dict, records: list, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "records": records}, fh, indent=1, default=str)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
