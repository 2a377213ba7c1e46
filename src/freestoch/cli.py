"""Command-line front end.

Subcommands cover lattice utilities, the moment/cumulant transforms, the
exact identity suites, and the Monte Carlo sweeps.  Each handler maps the
parsed arguments to its list of records; `run` hands them to the one report
writer.  Reports are JSON (default) or CSV; exit status is 0 when every
record passes, 1 when a check fails, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .cumulants import (
    MAX_TRANSFORM_ORDER,
    MomentFunctional,
    cumulant_functional,
    cumulant_functional_from_json,
    functional_to_json,
    moment_functional,
    moment_functional_from_json,
)
from .errors import DimensionError, SizeGuardError
from .measures import (
    MAX_LIMIT_ARITY,
    MAX_ST_ARITY,
    _main_theorem_sides,
    _record,
    _residuals,
    exact_moment,
    example_formulas_check,
    identity_suite,
    st_uniform_formula,
)
from .partitions import (
    Partition,
    _block_text,
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
    text = text.strip()
    try:
        obj = json.loads(text, object_pairs_hook=_bounded_copies) if text.startswith("{") else text
        return spec_from_descriptor(obj)
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
        text = json.dumps(report, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if _passed(records) else 1


def _passed(records: list[dict]) -> bool:
    """True when there are records and all pass: an empty check is no pass."""
    return bool(records) and all(r.get("pass", True) for r in records)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


def _transform_order(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_TRANSFORM_ORDER:
        raise argparse.ArgumentTypeError(
            f"transform order {value} exceeds guard {MAX_TRANSFORM_ORDER}")
    return value


def _moment_list(text: str) -> list[str]:
    values = text.split(",")
    _transform_order(str(len(values)))
    return values


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as a usage error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_rational(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError:
        value = Fraction(0)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a rational > 0, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# partitions


def _cmd_partitions_enumerate(args) -> list[dict]:
    enum = enumerate_noncrossing if args.noncrossing else enumerate_set_partitions
    return [{"partition": str(p), "blocks": p.num_blocks, "pass": True} for p in enum(args.k)]


def _cmd_partitions_mobius(args) -> list[dict]:
    lower = Partition.parse(args.lower)
    upper = Partition.parse(args.upper)
    value = mobius(lower, upper, args.lattice)
    return [{"lower": str(lower), "upper": str(upper), "lattice": args.lattice,
             "mobius": format_rational(value), "pass": True}]


def _cmd_partitions_kreweras(args) -> list[dict]:
    p = Partition.parse(args.partition)
    return [{"partition": str(p), "kreweras": str(kreweras(p)), "pass": True}]


def _cmd_partitions_classify(args) -> list[dict]:
    p = Partition.parse(args.partition)
    split = classify_classes(p)
    return [{
        "partition": str(p),
        "outer": "".join(map(_block_text, split.outer)),
        "inner": "".join(map(_block_text, split.inner)),
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
        with open(args.functional) as fh:
            r = cumulant_functional_from_json(json.load(fh, object_pairs_hook=_unique_keys))
        return _functional_record(moment_functional(r), "moments")
    spec = _parse_process("free_poisson" if args.process is None else args.process)
    if spec.k != 1:
        raise DimensionError("--process must describe a single-component process")
    # the moment of a process on any n of its copies is that of n identical copies
    seq = [exact_moment(make_tuple(spec, "identical", k=n)) for n in range(1, args.order + 1)]
    return _functional_record(MomentFunctional.from_single_variable(args.order, seq), "moments")


def _cmd_cumulants_from_moments(args) -> list[dict]:
    if args.functional:
        with open(args.functional) as fh:
            m = moment_functional_from_json(json.load(fh, object_pairs_hook=_unique_keys))
    else:
        seq = [parse_rational(x) for x in args.moments]
        m = MomentFunctional.from_single_variable(len(seq), seq)
    return _functional_record(cumulant_functional(m), "cumulants")


# ---------------------------------------------------------------------------
# verify (exact engine)


def _cmd_verify_suite(args) -> list[dict]:
    return identity_suite(_parse_process(args.process), args.k_max, process_name=args.process)


def _check_l2_k_max(k_max: int) -> None:
    """L2 checks at k take limit products of arity 2k: refuse before any work."""
    if k_max > MAX_LIMIT_ARITY // 2:
        raise SizeGuardError(f"L2 at k={k_max} needs arity {2 * k_max} > {MAX_LIMIT_ARITY}")


def _cmd_verify_main_theorem(args) -> list[dict]:
    base = _parse_process(args.process)
    orders = ["L1", "L2"] if args.order == "both" else [args.order]
    if "L2" in orders:
        _check_l2_k_max(args.k_max)
    elif args.k_max > MAX_ST_ARITY:  # L1 alone: St limits of arity k
        raise SizeGuardError(f"L1 at k={args.k_max} exceeds St arity guard {MAX_ST_ARITY}")
    subdivision = f"limit,t={format_rational(args.t)}"
    records = []
    for k in range(1, args.k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        for p in enumerate_noncrossing(k):
            residuals = _residuals(p, spec, _main_theorem_sides, orders, args.t)
            records += [_record(f"main_theorem_{order.lower()}", p, args.process, subdivision,
                                res) for order, res in zip(orders, residuals)]
    return records


def _cmd_verify_formula(args) -> list[dict]:
    """Coefficient table of the uniform-subdivision trace in powers of 1/N."""
    p = Partition.parse(args.partition)
    base = _parse_process(args.process)
    spec = make_tuple(base, "identical", k=p.k) if base.k == 1 else base
    formula = st_uniform_formula(p, spec, args.t)
    return [{
        "partition": str(p), "process": args.process,
        "inv_n_power": j, "coefficient": format_rational(c), "pass": True,
    } for j, c in formula.rows()]


def _cmd_verify_examples(args) -> list[dict]:
    _check_l2_k_max(args.k_max)
    records = []
    for k in range(1, args.k_max + 1):
        for p in enumerate_noncrossing(k):
            l1, l2 = example_formulas_check(args.which, p, args.t)
            records.append({
                "check": f"example_{args.which}",
                "partition": str(p), "process": args.which,
                "subdivision": f"limit,t={format_rational(args.t)}",
                "residual": format_rational(l1), "residual_l2": format_rational(l2),
                "pass": l1 == 0 and l2 == 0,
            })
    return records


# ---------------------------------------------------------------------------
# simulate (matrix engine; numpy loads here and for no exact command)


def _cmd_simulate_calibrate(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, calibrate

    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, args.model)
    spec = spec_from_descriptor("free_poisson" if args.model == "poisson_sps" else "semicircular")
    sub = Subdivision.uniform(args.n)
    orders = [1, 2, 3, 4]
    refs = {
        n: exact_moment(make_tuple(spec, "identical", k=n), 1) for n in orders
    }
    return calibrate(spec, sub, cfg, orders, refs)


def _cmd_simulate_main_theorem(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, main_theorem_matrix_residual

    p = Partition.parse(args.partition)
    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, "poisson_sps")
    record = main_theorem_matrix_residual(p, cfg, Subdivision.uniform(args.n))
    record["pass"] = record["estimate"] < args.threshold
    return [record]


def _cmd_simulate_proj_decay(args) -> list[dict]:
    from .matrixsim import MatrixEnsembleConfig, lem_proj_decay

    meshes = [int(x) for x in args.meshes.split(",")]
    cfg = MatrixEnsembleConfig(args.dim, args.trials, args.seed, "poisson_sps")
    return lem_proj_decay(cfg, meshes, args.k)


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
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--noncrossing", action="store_true")
    sp = _subcommand(parts, "mobius", _cmd_partitions_mobius, "Mobius function of an interval")
    sp.add_argument("--lower", required=True)
    sp.add_argument("--upper", required=True)
    sp.add_argument("--lattice", choices=("full", "noncrossing"), default="full")
    sp = _subcommand(parts, "kreweras", _cmd_partitions_kreweras, "Kreweras complement")
    sp.add_argument("--partition", required=True)
    sp = _subcommand(parts, "classify", _cmd_partitions_classify, "inner/outer classes")
    sp.add_argument("--partition", required=True)

    cums = top.add_parser("cumulants", help="moment/cumulant transforms").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(cums, "to-moments", _cmd_cumulants_to_moments, "moments from cumulants")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--process", help="process name or JSON descriptor (default free_poisson)")
    source.add_argument("--functional", help="path to a cumulant-functional JSON file")
    sp.add_argument("--order", type=_transform_order, default=4, help="moments of --process")
    sp = _subcommand(cums, "from-moments", _cmd_cumulants_from_moments, "cumulants from moments")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--moments", type=_moment_list, default=None,
                        help="comma-separated rationals m_1..m_k")
    source.add_argument("--functional", default=None,
                        help="path to a moment-functional JSON file")

    ver = top.add_parser("verify", help="exact identity checks").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(ver, "suite", _cmd_verify_suite, "the full finite/limit identity battery")
    sp.add_argument("--process", default="free_poisson")
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp = _subcommand(ver, "main-theorem", _cmd_verify_main_theorem,
                     "inner-scalar factorization residuals")
    sp.add_argument("--process", default="free_poisson")
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp.add_argument("--order", choices=("L1", "L2", "both"), default="both")
    sp.add_argument("--t", type=_positive_rational, default="1")
    sp = _subcommand(ver, "examples", _cmd_verify_examples, "worked closed-form residuals")
    sp.add_argument("--which", choices=("free_poisson", "brownian"), required=True)
    sp.add_argument("--k-max", dest="k_max", type=_positive_int, default=4)
    sp.add_argument("--t", type=_positive_rational, default="1")
    sp = _subcommand(ver, "formula", _cmd_verify_formula,
                     "uniform closed form as a 1/N coefficient table")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--process", default="free_poisson")
    sp.add_argument("--t", type=_positive_rational, default="1")

    sim = top.add_parser("simulate", help="Monte Carlo matrix checks").add_subparsers(
        dest="command", required=True)
    sp = _subcommand(sim, "calibrate", _cmd_simulate_calibrate,
                     "trace moments vs exact references")
    sp.add_argument("--model", choices=("poisson_sps", "gaussian_increments"),
                    default="poisson_sps")
    sp.add_argument("--dim", type=int, default=400)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--n", type=int, default=16)
    sp = _subcommand(sim, "main-theorem", _cmd_simulate_main_theorem,
                     "relative Frobenius residual")
    sp.add_argument("--partition", default="((1,3)(2))")
    sp.add_argument("--dim", type=int, default=300)
    sp.add_argument("--n", type=int, default=40)
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--threshold", type=_finite_float, default=0.2)
    sp = _subcommand(sim, "proj-decay", _cmd_simulate_proj_decay, "projection-sandwich norm decay")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--dim", type=int, default=200)
    sp.add_argument("--meshes", default="4,8,16")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=_seed, default=1)

    for group in (parts, cums, ver, sim):
        for sp in group.choices.values():
            sp.add_argument("--output", choices=("json", "csv"), default="json")
            sp.add_argument("--out", default=None, help="write the report here instead of stdout")
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
