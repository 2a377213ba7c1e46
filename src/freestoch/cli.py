"""Command-line front end.

Subcommands cover lattice utilities, the moment/cumulant transforms, the
exact identity suites, and the Monte Carlo sweeps.  The parser turns all
text into values: each flag's `_arg` type refuses a bad value with
argparse's error naming the flag (`--out` an unwritable path too).  Each
handler maps the values to its list of records, parsing nothing; the
`verify` sweeps and their `--k-max` guards live in `measures`.  `run` hands
the records to the one report writer.
Reports are JSON (default) or CSV; exit status is 0 when every record
passes, 1 when a check fails, and 2 on usage errors, of which those a handler
raises (checks across flags, size guards, matrix checks) print a bare `error:` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys

from . import __version__
from .cumulants import (
    MAX_TRANSFORM_ORDER,
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    functional_to_json,
    moment_functional,
)
from .errors import DimensionError, SizeGuardError
from .measures import (
    MAX_ST_ARITY,
    exact_moment,
    examples_suite,
    identity_suite,
    main_theorem_suite,
    st_uniform_formula,
)
from .partitions import (
    Partition,
    block_text,
    classify_classes,
    enumerate_noncrossing,
    enumerate_set_partitions,
    kreweras,
    mobius,
)
from .processes import Subdivision, make_tuple, spec_from_descriptor
from .rational import format_rational, parse_rational


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: refuse a key named twice, of which json keeps the last."""
    if len({key for key, _ in pairs}) < len(pairs):
        raise ValueError("a JSON object names one key twice")
    return dict(pairs)


def _bounded_copies(pairs: list) -> dict:
    """JSON object hook: refuse a repeated key, and an identical tuple of more
    copies than the largest arity any command takes, the St arity guard,
    before spec_from_descriptor builds a word per copy."""
    obj = _unique_keys(pairs)
    if obj.get("type") == "tuple" and obj.get("mode") == "identical":
        try:
            k = int(obj.get("k"))  # an infinite k overflows: a malformed descriptor
        except (TypeError, ValueError):
            return obj  # make_tuple refuses it
        if k > MAX_ST_ARITY:
            raise SizeGuardError(f"tuple of {k} copies exceeds St arity guard {MAX_ST_ARITY}")
    return obj


def _parse_process(text: str):
    """The pair (text, its spec): records print the text as given."""
    is_json = text.lstrip().startswith("{")
    try:
        obj = json.loads(text, object_pairs_hook=_bounded_copies) if is_json else text
        return text, spec_from_descriptor(obj)
    except (TypeError, AttributeError, OverflowError) as exc:  # a JSON value of the wrong shape
        raise ValueError(f"malformed process descriptor: {exc}") from exc


def _write_report(args, records: list[dict]) -> int:
    """Write the report of a subcommand's records and return its exit status:
    0 when there are records and every one passes, else 1.  The header names
    the subcommand and the seed, None for the exact commands, which take none."""
    if args.output == "csv":
        buf = io.StringIO()
        if records:
            writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
            writer.writeheader()
            writer.writerows(records)
        text = buf.getvalue()
    else:
        report = {
            "tool_version": __version__,
            "command": f"{args.group} {args.command}",
            "seed": getattr(args, "seed", None),
            "records": records,
        }
        text = _report_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if _passed(records) else 1


def _report_json(report: dict) -> str:
    """The text of json.dumps(report, indent=2, default=str).  When every record
    is a nonempty dict of scalars, the records go through json's C encoder (which
    takes no indent) in one call, each item on its own line, and the breaks
    between records are then laid out: an encoded string holds no raw newline,
    so `},` and a newline occur together only between two records."""
    records = report["records"]
    kinds = set(map(type, itertools.chain.from_iterable(map(dict.values, records))))
    if not (records and all(records)) or any(issubclass(t, (dict, list, tuple)) for t in kinds):
        return json.dumps(report, indent=2, default=str)
    head = json.dumps({**report, "records": []}, indent=2, default=str)  # ends `[]\n}`
    body = json.JSONEncoder(separators=(",\n      ", ": "), default=str).encode(records)
    return (head[:-4] + "[\n    {\n      "
            + body[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]\n}")


def _passed(records: list[dict]) -> bool:
    """True when there are records and all pass: an empty check is no pass."""
    return bool(records) and all(r.get("pass", True) for r in records)


def _arg(parse, expected: str = "", ok=lambda value: True):
    """An argparse type: parse(text), refused as `expected <expected>, got <text>`
    when ok(value) is false or, if `expected` is named, when parse raises; else
    with the message of the usage error (as `run` counts them) parse or ok raised."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, OSError, KeyError, MemoryError) as exc:
            if not expected:
                raise argparse.ArgumentTypeError(str(exc)) from exc
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _order_guard(k: int) -> int:
    """k, refused above the transform order guard."""
    if k > MAX_TRANSFORM_ORDER:
        raise SizeGuardError(f"transform order {k} exceeds guard {MAX_TRANSFORM_ORDER}")
    return k


def _functional(from_json):
    """The type of --functional: from_json of the JSON file at a path."""
    def load(path: str):
        with open(path) as fh:
            return from_json(json.load(fh, object_pairs_hook=_unique_keys))
    return _arg(load)


_positive_int = _arg(int, "an integer >= 1", lambda value: value >= 1)
_seed = _arg(int, "an integer >= 0", lambda value: value >= 0)  # numpy takes no negative seed
# matrixsim's bound, as a literal: exact commands import no numpy
_dim = _arg(int, "an integer >= 2", lambda value: value >= 2)
_transform_order = _arg(lambda text: _order_guard(_positive_int(text)))
# ok refuses more moments than the guard by raising; a split is never empty
_moment_list = _arg(lambda text: [parse_rational(x) for x in text.split(",")],
                    ok=lambda seq: _order_guard(len(seq)))
_finite_float = _arg(float, "a finite number", math.isfinite)
_positive_rational = _arg(parse_rational, "a rational > 0", lambda value: value > 0)
_partition = _arg(Partition.parse)
_process = _arg(_parse_process)
_meshes = _arg(lambda text: [int(x) for x in text.split(",")],
               "comma-separated integers >= 1", lambda meshes: min(meshes) >= 1)
# checked before the handler runs; _write_report still reports a failed write
_out = _arg(str, "a file path in an existing directory",
            lambda path: not os.path.isdir(path) and os.path.isdir(os.path.dirname(path) or "."))


# ---------------------------------------------------------------------------
# partitions


def _cmd_partitions_enumerate(args) -> list[dict]:
    enum = enumerate_noncrossing if args.noncrossing else enumerate_set_partitions
    return [{"partition": str(p), "blocks": p.num_blocks, "pass": True} for p in enum(args.k)]


def _cmd_partitions_mobius(args) -> list[dict]:
    value = mobius(args.lower, args.upper, args.lattice)
    return [{"lower": str(args.lower), "upper": str(args.upper), "lattice": args.lattice,
             "mobius": format_rational(value), "pass": True}]


def _cmd_partitions_kreweras(args) -> list[dict]:
    p = args.partition
    return [{"partition": str(p), "kreweras": str(kreweras(p)), "pass": True}]


def _cmd_partitions_classify(args) -> list[dict]:
    split = classify_classes(args.partition)
    return [{
        "partition": str(args.partition),
        "outer": "".join(map(block_text, split.outer)),
        "inner": "".join(map(block_text, split.inner)),
        "outer_count": len(split.outer),
        "inner_count": len(split.inner),
        "pass": True,
    }]


# ---------------------------------------------------------------------------
# cumulants


def _functional_record(f, name: str) -> list[dict]:
    """The record of a transform: f as JSON and, as `name`, its values on [n]."""
    values = (format_rational(f.values[tuple(range(1, n + 1))]) for n in range(1, f.k + 1))
    return [{"functional": json.dumps(functional_to_json(f)), name: ",".join(values),
             "pass": True}]


def _cmd_cumulants_to_moments(args) -> list[dict]:
    if args.functional:
        if args.order is not None:
            raise ValueError("argument --order: not allowed with argument --functional")
        return _functional_record(moment_functional(args.functional), "moments")
    _, spec = args.process
    if spec.k != 1:
        raise DimensionError("argument --process: expected a single-component process, "
                             f"got {spec.k} components")
    order = args.order or 4
    for atom in spec.atoms():  # the order-th moment reads the cumulants up to that order
        try:
            atom.cumulant(order)
        except SizeGuardError as exc:
            raise SizeGuardError(f"argument --order: {exc}") from exc
    # the moment of a process on any n of its copies is that of n identical copies
    seq = [exact_moment(make_tuple(spec, "identical", k=n)) for n in range(1, order + 1)]
    return _functional_record(MomentFunctional.from_single_variable(order, seq), "moments")


def _cmd_cumulants_from_moments(args) -> list[dict]:
    m = args.functional or MomentFunctional.from_single_variable(len(args.moments), args.moments)
    return _functional_record(cumulant_functional(m), "cumulants")


# ---------------------------------------------------------------------------
# verify (exact engine)


def _cmd_verify_suite(args) -> list[dict]:
    text, spec = args.process
    return identity_suite(spec, args.k_max, process_name=text)


def _cmd_verify_main_theorem(args) -> list[dict]:
    text, base = args.process
    orders = ("L1", "L2") if args.order == "both" else (args.order,)
    return main_theorem_suite(base, args.k_max, orders, args.t, process_name=text)


def _cmd_verify_formula(args) -> list[dict]:
    """Coefficient table of the uniform-subdivision trace in powers of 1/N."""
    p, (text, base) = args.partition, args.process
    spec = make_tuple(base, "identical", k=p.k) if base.k == 1 else base
    return [{
        "partition": str(p), "process": text,
        "inv_n_power": j, "coefficient": format_rational(c), "pass": True,
    } for j, c in st_uniform_formula(p, spec, args.t)]


def _cmd_verify_examples(args) -> list[dict]:
    return examples_suite(args.which, args.k_max, args.t)


# ---------------------------------------------------------------------------
# simulate (matrix engine; numpy loads here and for no exact command)


def _cmd_simulate_calibrate(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, calibrate

    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, args.model)
    spec = spec_from_descriptor("free_poisson" if args.model == "poisson_sps" else "semicircular")
    sub = Subdivision.uniform(args.n)
    orders = [1, 2, 3, 4]
    refs = {n: exact_moment(make_tuple(spec, "identical", k=n)) for n in orders}
    return calibrate(spec, sub, cfg, orders, refs)


def _cmd_simulate_main_theorem(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, main_theorem_matrix_residual

    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, "poisson_sps")
    record = main_theorem_matrix_residual(args.partition, cfg, Subdivision.uniform(args.n))
    record["pass"] = record["estimate"] < args.threshold
    return [record]


def _cmd_simulate_proj_decay(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, lem_proj_decay

    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, "poisson_sps")
    return lem_proj_decay(cfg, args.meshes, args.k)


# ---------------------------------------------------------------------------
# parser


def _subcommand(group, name: str, func, help: str):
    """Declare one subcommand and set its handler."""
    sp = group.add_parser(name, help=help)
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freestoch",
        description="Partition-indexed free stochastic measures: exact checks and simulations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)

    parts = top.add_parser("partitions", help="lattice utilities").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(parts, "enumerate", _cmd_partitions_enumerate, "list P(k) or NC(k)")
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--noncrossing", action="store_true")
    sp = _subcommand(parts, "mobius", _cmd_partitions_mobius, "Mobius function of an interval")
    sp.add_argument("--lower", type=_partition, required=True)
    sp.add_argument("--upper", type=_partition, required=True)
    sp.add_argument("--lattice", choices=("full", "noncrossing"), default="full")
    sp = _subcommand(parts, "kreweras", _cmd_partitions_kreweras, "Kreweras complement")
    sp.add_argument("--partition", type=_partition, required=True)
    sp = _subcommand(parts, "classify", _cmd_partitions_classify, "inner/outer classes")
    sp.add_argument("--partition", type=_partition, required=True)

    cums = top.add_parser("cumulants", help="moment/cumulant transforms").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(cums, "to-moments", _cmd_cumulants_to_moments, "moments from cumulants")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--process", type=_process, default="free_poisson",
                        help="process name or JSON descriptor (default free_poisson)")
    source.add_argument("--functional", type=_functional(CumulantFunctional.from_json),
                        help="path to a cumulant-functional JSON file")
    sp.add_argument("--order", type=_transform_order, help="moments of --process (default 4)")
    sp = _subcommand(cums, "from-moments", _cmd_cumulants_from_moments, "cumulants from moments")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--moments", type=_moment_list, help="comma-separated rationals m_1..m_k")
    source.add_argument("--functional", type=_functional(MomentFunctional.from_json),
                        help="path to a moment-functional JSON file")

    ver = top.add_parser("verify", help="exact identity checks").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(ver, "suite", _cmd_verify_suite, "the full finite/limit identity battery")
    sp.add_argument("--process", type=_process, default="free_poisson")
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp = _subcommand(ver, "main-theorem", _cmd_verify_main_theorem,
                     "inner-scalar factorization residuals")
    sp.add_argument("--process", type=_process, default="free_poisson")
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp.add_argument("--order", choices=("L1", "L2", "both"), default="both")
    sp.add_argument("--t", type=_positive_rational, default="1")
    sp = _subcommand(ver, "examples", _cmd_verify_examples, "worked closed-form residuals")
    sp.add_argument("--which", choices=("free_poisson", "brownian"), required=True)
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp.add_argument("--t", type=_positive_rational, default="1")
    sp = _subcommand(ver, "formula", _cmd_verify_formula,
                     "uniform closed form as a 1/N coefficient table")
    sp.add_argument("--partition", type=_partition, required=True)
    sp.add_argument("--process", type=_process, default="free_poisson")
    sp.add_argument("--t", type=_positive_rational, default="1")

    sim = top.add_parser("simulate", help="Monte Carlo matrix checks").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(sim, "calibrate", _cmd_simulate_calibrate,
                     "trace moments vs exact references")
    sp.add_argument("--model", choices=("poisson_sps", "gaussian_increments"),
                    default="poisson_sps")
    sp.add_argument("--dim", type=_dim, default=400)
    sp.add_argument("--trials", type=_positive_int, default=200)
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--n", type=_positive_int, default=16)
    sp = _subcommand(sim, "main-theorem", _cmd_simulate_main_theorem,
                     "relative Frobenius residual")
    sp.add_argument("--partition", type=_partition, default="((1,3)(2))")
    sp.add_argument("--dim", type=_dim, default=300)
    sp.add_argument("--n", type=_positive_int, default=40)
    sp.add_argument("--trials", type=_positive_int, default=3)
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--threshold", type=_finite_float, default=0.2)
    sp = _subcommand(sim, "proj-decay", _cmd_simulate_proj_decay, "projection-sandwich norm decay")
    sp.add_argument("--k", type=_positive_int, default=1)
    sp.add_argument("--dim", type=_dim, default=200)
    sp.add_argument("--meshes", type=_meshes, default="4,8,16")
    sp.add_argument("--trials", type=_positive_int, default=10)
    sp.add_argument("--seed", type=_seed, default=1)

    for group in (parts, cums, ver, sim):
        for sp in group.choices.values():
            sp.add_argument("--output", choices=("json", "csv"), default="json")
            sp.add_argument("--out", type=_out, default=None,
                            help="write the report here instead of stdout")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _write_report(args, args.func(args))
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
