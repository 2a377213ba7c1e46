"""Run one freestoch command with layer tracing on.

Used by the traced passes of the `cli-cold` workload in place of
`python -m freestoch.cli`.  The report goes to stdout unchanged; the
trace goes to stderr as one line starting with TRACE_MARKER.

The times in the trace line are measured separately: the whole process
from its first statement (`process_s`), the import of the package
(`import_s`), the layer spans (`inside_s`) and the benchmark's own work
(`own_s`: its helper imports and the tracer).  The benchmark checks that
the parts add up to the whole.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

workloads.use_checkout_src()
t_import = time.perf_counter()
import freestoch.cli as cli  # noqa: E402

import_s = time.perf_counter() - t_import
workloads.check_origin()


def main() -> int:
    t0 = time.perf_counter()
    tr = tracer.Tracer()
    tr.install()
    tr.begin()
    # The benchmark's own start-up: its helper modules, then the tracer.
    own_s = t_import - T_START + time.perf_counter() - t0
    try:
        return cli.run(sys.argv[1:])
    finally:
        t1 = time.perf_counter()
        tr.uninstall()
        sys.stdout.flush()
        stats = {"layers": tr.snapshot(), "edges": tr.edge_table(),
                 "cache": tracer.cache_probe(), "import_s": import_s,
                 "inside_s": tr.inside_layers_s()}
        t2 = time.perf_counter()
        stats["own_s"] = own_s + t2 - t1
        stats["process_s"] = t2 - T_START
        sys.stderr.write(workloads.TRACE_MARKER + json.dumps(stats) + "\n")


if __name__ == "__main__":
    sys.exit(main())
