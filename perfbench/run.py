"""Benchmark for moilab: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload growth-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run (see README.md).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the failure ratio and the provenance record.  Span and
run records are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

from spans import COMPUTED, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3  # untraced passes per end-to-end run
MIN_PAIRS = 2  # untraced/traced pass pairs per traced run
SETUP_PROBES = 6  # fresh processes that repeat the set-up, besides this one
PROBE_TIMEOUT_S = 120


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: a value that was actually observed."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("distinct_ratio", "atoms_per_dim")):
        return "ratio"
    if name.endswith(("bytes_max", "bytes_out")):
        return "B"
    return "count"


def run_reps(seconds: float, step, at_least: int) -> list:
    """Call ``step`` until the next call would end after ``seconds``, at least ``at_least`` times."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + statistics.median(durations) > seconds:
            return results


def timed_setup(workload, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process, as a user pays it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed: int, seconds: float, probes: int) -> tuple[dict, list, dict]:
    setups = [timed_setup(workload, seed)]
    reps = run_reps(seconds, lambda: workload.rep(hooks=True), MIN_PASSES)
    setups += [probe_setup(workload.name, seed) for _ in range(probes)]
    ops = workload.op_latencies(reps)
    metrics = {
        "wall_s": statistics.median(rep.wall for rep in reps),
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * nearest_rank(ops, 0.5),
        "op_p90_ms": 1e3 * nearest_rank(ops, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_samples": len(ops),
        "setup_samples_s": setups,
        "rep_walls_s": [rep.wall for rep in reps],
    }
    return metrics, reps, extra


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    workload.setup(seed)

    def pair():
        untraced = workload.rep(hooks=True)
        tracer = Tracer()
        with patched(tracer.replacements()):
            began = time.perf_counter()
            traced = workload.rep(hooks=False)
        return untraced, traced, tracer, began

    pairs = run_reps(seconds, pair, MIN_PAIRS)
    chosen = sorted(pairs, key=lambda p: p[1].wall)[(len(pairs) - 1) // 2]
    _, traced, tracer, began = chosen
    metrics = tracer.layer_metrics(traced.wall)
    metrics["cli.bytes_out"] = workload.out.stat().st_size if hasattr(workload, "out") else 0
    metrics["trace.overhead_s"] = statistics.median(p[1].wall for p in pairs) - statistics.median(
        p[0].wall for p in pairs
    )
    trace = {
        "workload": workload.name,
        "seed": seed,
        "wall_s": traced.wall,
        "fields": ["name", "start_s", "end_s", "parent", "self_s"],
        "spans": tracer.dump(began),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.trace.json").write_text(json.dumps(trace) + "\n")
    reps = [rep for p in pairs for rep in p[:2]]
    return metrics, reps, {"pairs": len(pairs), "computed": list(COMPUTED)}


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "git_commit": _git_commit(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result object the last output line carries."""
    if trace:
        metrics, reps, extra = per_layer(workload, seed, seconds)
    else:
        metrics, reps, extra = end_to_end(workload, seed, seconds, probes)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    record = {
        "workload": workload.name,
        "trace": trace,
        "reps": len(reps),
        "fail_ratio": failed / attempted,
        **extra,
        "notes": reps[-1].notes,
        "provenance": provenance(seed),
    }
    OUT.mkdir(exist_ok=True)
    suffix = "traced" if trace else "untraced"
    (OUT / f"{workload.name}.{suffix}.record.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "record": record,
    }


def moilab_source_ok() -> bool:
    spec = importlib.util.find_spec("moilab")
    if spec is None or spec.origin is None:
        return False
    return Path(spec.origin).resolve().is_relative_to(SRC.resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not moilab_source_ok():
        print(f"perfbench: no moilab package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](OUT)
    if args.setup_probe:
        print(repr(timed_setup(workload, args.seed)))
        return 0

    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio = {record['fail_ratio']!r} ratio ({result['failed']}/{result['attempted']})")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
