"""Benchmark of freestoch: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload exact-warm --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`
there and nowhere else.  Every workload runs in child processes of its
own: set-up is timed in 3 to 9 fresh processes (more when it is quick),
and the last of them goes on to measure.  End-to-end times are in
reference seconds (clock.py).  With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1` the per-layer ones.  The line before
the result gives the environment, the input digest, the raw seconds, the
tail's rank and sample counts, the failure ratio and any failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from clock import scale
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 4.0
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
ACCOUNTING_TOLERANCE = 0.05

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    **{f"{layer}.{kind}": unit
       for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "partitions.mobius_s": "s", "partitions.mobius_calls": "count",
    "partitions.restrict_s": "s", "partitions.restrict_calls": "count",
    "partitions.cache_hit_ratio": "ratio", "partitions.cache_hits": "count",
    "partitions.cache_misses": "count", "partitions.cache_entries": "count",
    "partitions.enumerated": "count",
    "measures.limit_s": "s", "measures.finite_s": "s",
    "processes.partition_cumulant_calls": "count",
    "cumulants.subsets": "count",
    "matrixsim.sum_s": "s", "matrixsim.derived_s": "s", "matrixsim.increment_bytes": "bytes",
    "matrixsim.sample_s": "s", "matrixsim.trials": "count",
    "cli.import_s": "s", "cli.report_bytes": "bytes",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def pin_environment() -> dict:
    """Child environment: this checkout's package, pinned BLAS threads, fixed hashing."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    os.environ.update(env)
    return env


def matmul_gflops(n: int = 256, reps: int = 30) -> float:
    """Median rate of an n x n complex128 matmul, as a noisy-neighbour probe."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = a.conj().T.copy()
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 8 * n**3 / statistics.median(times) / 1e9


def environment(env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


def spawn(cfg: dict, env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                          input=json.dumps(cfg), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(cfg: dict, env: dict) -> list[dict]:
    """Set-up alone in fresh processes: at least SETUP_REPEATS - 1 of them,
    more while they take less than SETUP_BUDGET_S, at most SETUP_MAX - 1
    (the measuring process adds one more)."""
    out, start = [], time.perf_counter()
    while len(out) < SETUP_REPEATS - 1 or (
            len(out) < SETUP_MAX - 1 and time.perf_counter() - start < SETUP_BUDGET_S):
        out.append(spawn(dict(cfg, mode="setup"), env))
    return out


def pass_scales(report: dict) -> list[float]:
    """Each pass's factor from raw to reference seconds (clock.py)."""
    return [scale(p["probes_s"]) for p in report["passes"]]


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics in reference seconds; each latency rescaled by its pass's factor.

    An operation's latency is its median over the run's passes.  The tail
    is the latency of the operation ranked just below the top `k`, where
    `k` operations make at least TAIL_BEYOND samples in the fewest passes a
    run takes: `k = ceil(TAIL_BEYOND / min_passes)`.  Fixing `k` that way
    keeps the tail at the same place in the ranking however many passes fit.
    """
    m, n = report["ops_per_pass"], len(report["passes"])
    scales = pass_scales(report)
    raw = report["latencies_s"]
    per_op = [statistics.median(raw[j * m + i] * scales[j] for j in range(n)) for i in range(m)]
    raw_per_op = [statistics.median(raw[j * m + i] for j in range(n)) for i in range(m)]
    k = -(-TAIL_BEYOND // report["min_passes"])
    if k >= m:
        raise ValueError(f"{m} operations per pass leave no tail below the top {k}")
    values = {
        "wall_s": statistics.median(p["wall_s"] * f for p, f in zip(report["passes"], scales)),
        "op_p50_ms": statistics.median(per_op) * 1000,
        "op_tail_ms": sorted(per_op, reverse=True)[k] * 1000,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(s for s, _ in setups),
    }
    detail = {
        "op_tail": {"rank": k + 1, "operations": m, "percentile": 100 * (1 - k / m),
                    "samples": m * n, "samples_beyond": k * n},
        "raw_seconds": {
            "wall_s": statistics.median(p["wall_s"] for p in report["passes"]),
            "op_p50_ms": statistics.median(raw_per_op) * 1000,
            "op_tail_ms": sorted(raw_per_op, reverse=True)[k] * 1000,
            "setup_s": statistics.median(r for _, r in setups),
        },
        "pass_scales": scales,
        "setup_samples_s": [s for s, _ in setups],
    }
    return values, detail


def per_layer(report: dict) -> tuple[dict, dict, list[str]]:
    traced = [p for p in report["passes"] if p["traced"]]
    walls = {True: [], False: []}
    for p, f in zip(report["passes"], pass_scales(report)):
        walls[p["traced"]].append(p["wall_s"] * f)
    values = {}
    for key in LAYER_UNITS:
        samples = [p["layers"][key] for p in traced if key in p["layers"]]
        values[key] = statistics.median(samples) if samples else 0
    hits, misses = values["partitions.cache_hits"], values["partitions.cache_misses"]
    values["partitions.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.wall_s"] = statistics.median(walls[True])
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls[False])
    shares = [p["accounted_s"] / p["accounting_wall_s"] for p in traced]
    problems = []
    if any(abs(x - 1) > ACCOUNTING_TOLERANCE for x in shares):
        problems.append(f"layer, import and benchmark times account for {shares} "
                        "of the traced time")
    return values, {"accounted_share": shares, "edges": report["edges"]}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freestoch" / "__init__.py").is_file():
        print(f"error: no freestoch package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    env = pin_environment()
    inputs = workloads.make_inputs(args.workload, args.seed)
    digest = workloads.digest(inputs)
    if workloads.digest(workloads.make_inputs(args.workload, args.seed)) != digest:
        print("error: input generation is not deterministic", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(env), "inputs_digest": digest,
            "probe_gflops_before": matmul_gflops()}
    cfg = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
           "trace": args.trace, "seconds": args.seconds}
    try:
        setups = [] if args.trace else set_up(cfg, env)
        report = spawn(dict(cfg, mode="measure"), env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [(r["setup_s"], r["setup_raw_s"]) for r in (*setups, report)]
    info["probe_gflops_after"] = matmul_gflops()
    problems = list(report["failures"])
    if report["inputs_digest"] != digest:
        problems.append(f"workload process saw inputs {report['inputs_digest']}, not {digest}")
    if args.trace:
        values, detail, more = per_layer(report)
        units = LAYER_UNITS
        problems += more
    else:
        values, detail = end_to_end(report, setups)
        units = END_TO_END_UNITS
    attempted, failed = report["attempted"], len(report["failures"])
    info.update(detail, passes=len(report["passes"]), measured_s=report["measured_s"],
                fail_ratio={"value": failed / attempted, "unit": "ratio"},
                estimates=report["estimates"],
                problems=problems)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
