"""One workload in a process of its own: set-up, then timed passes.

Reads its configuration as one JSON object on stdin and prints one JSON
object on stdout.  Mode "setup" stops after set-up, so that set-up can be
timed in several fresh processes.  Mode "measure" then runs whole passes
until `seconds` have gone by and at least `min_passes` are done.  With
`trace` set, passes alternate untraced and traced, so that one run gives
both the per-layer breakdown and the cost of tracing.

The reference-clock probe (clock.py) runs in the gaps between operations
and between set-up steps; its own time is left out of every time here.
"""

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from clock import Clock, scale  # noqa: E402
from tracer import Tracer, cache_probe  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_PASSES = 3
# Enough operations in the fewest passes a run makes for a tail percentile
# with TAIL_BEYOND samples beyond it (run.py).
MIN_OPERATIONS = 40
# Probe samples per pass, spread over the gaps between operations.
PROBES_PER_PASS = 30
SETUP_PROBES = 20


def _layer_metrics(before: dict, after: dict, cache0: dict, cache1: dict) -> dict:
    out = {key: after[key] - before[key] for key in after}
    out["partitions.cache_hits"] = cache1["hits"] - cache0["hits"]
    out["partitions.cache_misses"] = cache1["misses"] - cache0["misses"]
    out["partitions.cache_entries"] = cache1["entries"]
    return out


def _sum_command_stats(stats: list[dict]) -> dict:
    """One pass of traced CLI commands: add counters, keep the largest cache."""
    out: dict = {}
    for st in stats:
        for key, value in st["layers"].items():
            out[key] = out.get(key, 0) + value
        out["partitions.cache_hits"] = out.get("partitions.cache_hits", 0) + st["cache"]["hits"]
        out["partitions.cache_misses"] = (out.get("partitions.cache_misses", 0)
                                          + st["cache"]["misses"])
        out["partitions.cache_entries"] = max(out.get("partitions.cache_entries", 0),
                                              st["cache"]["entries"])
    return out


def _add_edges(total: dict, edges: dict) -> None:
    for name, edge in edges.items():
        acc = total.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += edge[key]


def run_pass(wl, traced: bool, tracer, clock: Clock, per_gap: int, log: dict) -> dict:
    """Run every operation once, probing the clock in the gaps between them.

    Returns the pass wall without the probes, the pass's probe samples and,
    if traced, its layers.
    """
    cli = isinstance(wl, workloads.CliCold)
    if traced and not cli:
        before, cache0 = tracer.snapshot(), cache_probe()
        tracer.install()
        tracer.begin()
    command_stats, report_bytes, own_s = [], 0, 0.0
    clock.probe(per_gap)
    probes0 = clock.probe_total_s
    t_pass = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            result = op.run(traced)
            problem = None
        except Exception as exc:  # an operation that raises is a failed operation
            result, problem = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        log["latencies_s"].append(t1 - t0)
        log["attempted"] += 1
        if problem is None:
            problem = op.check(result)
        if problem is not None:
            log["failures"].append(f"{op.name}: {problem}")
        if cli and result is not None:
            report_bytes += len(result.stdout.encode())
            if traced:
                command_stats.append(wl.trace_stats(result))
        own_s += time.perf_counter() - t1
        clock.probe(per_gap)
    wall = time.perf_counter() - t_pass - (clock.probe_total_s - probes0)
    record = {"wall_s": wall, "traced": traced, "probes_s": clock.take()}
    if not traced:
        return record
    if cli:
        layers = _sum_command_stats(command_stats)
        layers["cli.import_s"] = sum(st["import_s"] for st in command_stats)
        # The children's Python time, from their first statement to their
        # trace line, measured on its own clock and accounted for by parts.
        record["accounted_s"] = (sum(st["inside_s"] + st["import_s"] + st["own_s"]
                                     for st in command_stats))
        record["accounting_wall_s"] = sum(st["process_s"] for st in command_stats)
        own_s = sum(st["own_s"] for st in command_stats)
        for st in command_stats:
            _add_edges(log["edges"], st["edges"])
    else:
        inside = tracer.inside_layers_s()
        tracer.uninstall()
        layers = _layer_metrics(before, tracer.snapshot(), cache0, cache_probe())
        layers["cli.import_s"] = 0.0
        # Layer spans plus the loop's own time, each measured directly,
        # against the pass wall: untraced work inside an operation is the gap.
        record["accounted_s"] = inside + own_s
        record["accounting_wall_s"] = wall
    layers["cli.report_bytes"] = report_bytes
    layers["bench.self_s"] = own_s
    record["layers"] = layers
    return record


def main() -> int:
    cfg = json.load(sys.stdin)
    reference = None
    if cfg["workload"] == "matrix-mc" and cfg["seed"] == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())
    wl = workloads.build(cfg["workload"], cfg["inputs"], reference)
    clock = Clock()
    wl.warm_up(clock.probe)
    setup_raw = time.perf_counter() - T_START - clock.probe_total_s
    clock.probe(SETUP_PROBES)
    setup_probes = clock.take()
    out = {"setup_s": setup_raw * scale(setup_probes), "setup_raw_s": setup_raw,
           "inputs_digest": workloads.digest(cfg["inputs"])}
    if cfg["mode"] == "measure":
        tracer = None
        if cfg["trace"] and not isinstance(wl, workloads.CliCold):
            tracer = Tracer()
        log = {"latencies_s": [], "attempted": 0, "failures": [], "edges": {}}
        passes = []
        min_passes = max(MIN_PASSES, -(-MIN_OPERATIONS // len(wl.ops))) + bool(cfg["trace"])
        per_gap = -(-PROBES_PER_PASS // (len(wl.ops) + 1))
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < cfg["seconds"]:
            # Each pass starts from the same collector state.  pr_matrix
            # leaves its increment set in a reference cycle, so without this
            # the peak RSS would grow with the number of passes in the run.
            gc.collect()
            passes.append(run_pass(wl, bool(cfg["trace"]) and len(passes) % 2 == 1,
                                   tracer, clock, per_gap, log))
        if tracer is not None:
            log["edges"] = tracer.edge_table()
        who = (resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold)
               else resource.RUSAGE_SELF)
        out.update(log, passes=passes, min_passes=min_passes, ops_per_pass=len(wl.ops),
                   peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
                   estimates=getattr(wl, "estimates", {}),
                   measured_s=time.perf_counter() - start)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
