"""The benchmark's three workloads: seeded inputs, set-up and one pass.

Each workload is a closed loop with one caller: an operation starts only
after the previous one returned.  An operation is one public API call
(`exact-warm`, `matrix-mc`) or one CLI subprocess (`cli-cold`).  Every
operation has a check; a miss counts as a failed operation.

Why these three: `exact-warm` keeps the `partitions` caches warm and
spends its time in the exact engine, `cli-cold` pays import and cold
cache fills on every command, and `matrix-mc` spends nearly all of its
time in the dense `matrixsim` sums.  A change to a cache shows up with
opposite sign in the first two; a change to the matrix engine shows up in
the third and nowhere else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-warm", "matrix-mc", "cli-cold")
DEFAULT_SEED = 1

# calibrate's 3-stderr gate misses on 1-3% of ensemble seeds even on a
# correct engine (11 of 600 seed/model pairs at d=100, 16 trials), so the
# calibrations run the configurations whose gates the test suite already
# requires to pass (test_calibration_poisson_and_gaussian and
# test_simulate_calibrate_small); every other ensemble seed comes from the
# workload seed.
CALIBRATIONS = (
    {"model": "poisson_sps", "dim": 200, "n": 4, "trials": 40, "seed": 21,
     "orders": [1, 2, 3]},
    {"model": "gaussian_increments", "dim": 200, "n": 4, "trials": 40, "seed": 22,
     "orders": [1, 2, 4]},
)
CLI_CALIBRATION = ["simulate", "calibrate", "--dim", "150", "--trials", "20", "--seed", "3",
                   "--n", "4"]
MAIN_THEOREM_THRESHOLD = 0.2
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation: `run(traced)` returns a result, `check` a problem or None."""

    name: str
    run: Callable[[bool], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# seeded inputs


def _small_rational(rng: random.Random) -> str:
    return f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 5)}"


def _subsets(k: int):
    for r in range(1, k + 1):
        yield from itertools.combinations(range(1, k + 1), r)


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program receives, as plain JSON, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-warm":
        q = rng.randint(6, 12)
        a = rng.randint(1, q - 2)
        b = rng.randint(1, q - 1 - a)
        return {
            "custom_cumulants": [_small_rational(rng) for _ in range(8)],
            "extra_subdivision": [f"{a}/{q}", f"{b}/{q}", f"{q - a - b}/{q}"],
            "roundtrip_cumulants": {",".join(map(str, s)): _small_rational(rng)
                                    for s in _subsets(6)},
        }
    if workload == "matrix-mc":
        seeds = [rng.randrange(1, 2**31) for _ in range(5)]
        return {
            "main_theorem": [
                {"partition": "((1,3)(2))", "dim": 240, "n": 30, "seed": seeds[0]},
                {"partition": "((1,4)(2,3))", "dim": 240, "n": 30, "seed": seeds[1]},
                {"partition": "((1,3)(2))", "dim": 320, "n": 40, "seed": seeds[2]},
            ],
            "calibrate": list(CALIBRATIONS),
            "proj_decay": [
                {"k": 1, "dim": 160, "meshes": [4, 8, 16], "trials": 10, "seed": seeds[3]},
                {"k": 2, "dim": 160, "meshes": [4, 8, 16], "trials": 10, "seed": seeds[4]},
            ],
        }
    if workload == "cli-cold":
        s1, s2 = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        nc7 = ["--lower", "((1)(2)(3)(4)(5)(6)(7))", "--upper", "((1,2,3,4,5,6,7))",
               "--lattice", "noncrossing"]
        return {"commands": [
            ["partitions", "enumerate", "--k", "4", "--noncrossing"],
            ["partitions", "classify", "--partition", "((1,6,7)(2,5)(3)(4)(8)(9,10))"],
            ["partitions", "kreweras", "--partition", "((1,2)(3))"],
            ["partitions", "mobius", "--lower", "((1)(2)(3))", "--upper", "((1,2,3))",
             "--lattice", "noncrossing"],
            ["cumulants", "to-moments", "--process", "free_poisson", "--order", "4"],
            ["cumulants", "from-moments", "--moments", "1,2,5,14"],
            ["verify", "suite", "--process", "free_poisson", "--k-max", "4"],
            ["verify", "main-theorem", "--process", "semicircular", "--k-max", "4",
             "--order", "both"],
            ["verify", "examples", "--which", "brownian", "--k-max", "4"],
            ["verify", "formula", "--partition", "((1,3)(2,4))", "--output", "csv"],
            ["partitions", "enumerate", "--k", "9"],
            ["partitions", "mobius", *nc7],
            ["cumulants", "from-moments", "--moments", "1,2,5,14,42,132,429"],
            CLI_CALIBRATION,
            ["simulate", "main-theorem", "--partition", "((1,3)(2))", "--dim", "200",
             "--n", "20", "--trials", "2", "--seed", str(s1)],
            ["simulate", "proj-decay", "--k", "2", "--dim", "120", "--meshes", "4,8,16",
             "--trials", "6", "--seed", str(s2)],
        ]}
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# building a workload inside its own process


def use_checkout_src() -> None:
    """Put this checkout's `src` first on the import path; import nothing."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def check_origin() -> None:
    """Fail unless the imported freestoch is this checkout's."""
    src = (ROOT / "src").resolve()
    origin = Path(sys.modules["freestoch"].__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"freestoch imported from {origin}, not from {src}")


def import_package():
    """Import freestoch from this checkout's `src`, never from elsewhere."""
    use_checkout_src()
    import freestoch

    check_origin()
    return freestoch


def _check_zero(value) -> str | None:
    return None if value == 0 else f"residual {value} != 0"


def _check_records(records) -> str | None:
    if not records:
        return "no records"
    bad = [r for r in records if r.get("pass") is not True]
    return f"{len(bad)} of {len(records)} records fail" if bad else None


class ExactWarm:
    """Identity suites, main-theorem residuals, worked examples, a k=6 round trip."""


    def __init__(self, inputs: dict):
        import_package()
        from fractions import Fraction

        from freestoch import cumulants as C
        from freestoch import measures as M
        from freestoch import partitions as P
        from freestoch import processes as S

        custom = S.make_custom_process([Fraction(x) for x in inputs["custom_cumulants"]])
        battery = M.SUBDIVISION_BATTERY + (
            S.Subdivision.of([Fraction(x) for x in inputs["extra_subdivision"]]),)
        bases = {"free_poisson": S.make_free_poisson(1), "semicircular": S.make_semicircular()}
        r6 = C.CumulantFunctional(6, {tuple(int(i) for i in key.split(",")): Fraction(v)
                                      for key, v in inputs["roundtrip_cumulants"].items()})
        self.ops: list[Op] = []
        for name, base in (*bases.items(), ("custom", custom)):
            self.ops.append(Op(
                f"identity_suite[{name}]",
                lambda traced, base=base, name=name: M.identity_suite(
                    base, 4, battery=battery, process_name=name),
                _check_records))
        for name, base in bases.items():
            for k in range(1, 5):
                spec = S.make_tuple(base, "identical", k=k)
                for p in P.enumerate_noncrossing(k):
                    for order in ("L1", "L2"):
                        self.ops.append(Op(
                            f"main_theorem_residual[{name},{p},{order}]",
                            lambda traced, p=p, spec=spec, order=order:
                                M.main_theorem_residual(p, spec, order),
                            _check_zero))
        for which in ("free_poisson", "brownian"):
            for k in range(1, 5):
                for p in P.enumerate_noncrossing(k):
                    self.ops.append(Op(
                        f"example_formulas_check[{which},{p}]",
                        lambda traced, which=which, p=p: M.example_formulas_check(which, p),
                        lambda pair: None if pair == (0, 0) else f"residuals {pair}"))
        moments = {}

        def forward(traced):
            moments["m"] = C.moment_functional(r6)
            return moments["m"]

        self.ops.append(Op("moment_functional[k=6]", forward,
                           lambda m: None if m.k == 6 and len(m.values) == 63
                           else "wrong moment functional shape"))
        self.ops.append(Op("cumulant_functional[k=6]",
                           lambda traced: C.cumulant_functional(moments["m"]),
                           lambda r: None if r.values == r6.values
                           else "round trip changed the cumulants"))

    def warm_up(self, between: Callable[[], None]) -> None:
        """One full pass fills every cache the steady state relies on."""
        for op in self.ops:
            try:
                op.run(False)
            except Exception:  # the timed passes record it as a failed operation
                pass
            between()


class MatrixMC:
    """Matrix main-theorem residuals, both calibrations, projection decay."""


    def __init__(self, inputs: dict, reference: dict | None):
        import_package()
        import numpy as np

        from freestoch import matrixsim as X
        from freestoch import measures as M
        from freestoch import partitions as P
        from freestoch import processes as S

        self.np = np
        self.reference = reference
        self.estimates: dict[str, list[float]] = {}
        self.ops: list[Op] = []
        for item in inputs["main_theorem"]:
            p = P.Partition.parse(item["partition"])
            cfg = X.MatrixEnsembleConfig(item["dim"], 1, item["seed"], "poisson_sps")
            sub = S.Subdivision.uniform(item["n"])
            name = f"main_theorem_matrix_residual[{p},d={item['dim']},N={item['n']}]"
            self.ops.append(Op(
                name, lambda traced, p=p, cfg=cfg, sub=sub:
                    X.main_theorem_matrix_residual(p, cfg, sub),
                self._checker(name, lambda rec: [rec["estimate"], rec["trace_mean"]],
                              lambda rec: rec["estimate"] < MAIN_THEOREM_THRESHOLD)))
        for item in inputs["calibrate"]:
            base = (S.make_free_poisson(1) if item["model"] == "poisson_sps"
                    else S.make_semicircular())
            orders = item["orders"]
            refs = {n: M.exact_moment(S.make_tuple(base, "identical", k=n)) for n in orders}
            cfg = X.MatrixEnsembleConfig(item["dim"], item["trials"], item["seed"], item["model"])
            sub = S.Subdivision.uniform(item["n"])
            name = f"calibrate[{item['model']},d={item['dim']}]"
            self.ops.append(Op(
                name, lambda traced, base=base, sub=sub, cfg=cfg, orders=orders, refs=refs:
                    X.calibrate(base, sub, cfg, orders, refs),
                self._checker(name, lambda recs: [r["estimate"] for r in recs],
                              lambda recs: bool(recs) and all(r["pass"] for r in recs))))
        for item in inputs["proj_decay"]:
            cfg = X.MatrixEnsembleConfig(item["dim"], item["trials"], item["seed"], "poisson_sps")
            name = f"lem_proj_decay[k={item['k']},d={item['dim']}]"
            self.ops.append(Op(
                name, lambda traced, cfg=cfg, item=item:
                    X.lem_proj_decay(cfg, item["meshes"], item["k"]),
                self._checker(name, lambda recs: [r["estimate"] for r in recs],
                              lambda recs: bool(recs) and all(r["pass"] for r in recs))))

    def _checker(self, name, values_of, gate):
        def check(result) -> str | None:
            if not gate(result):
                return "statistical gate failed"
            values = [float(v) for v in values_of(result)]
            first = self.estimates.setdefault(name, values)
            if values != first:
                return "estimates differ between passes under the same seeds"
            expected = None if self.reference is None else self.reference.get(name)
            if expected is not None and not (
                    len(expected) == len(values)
                    and all(math.isclose(v, e, rel_tol=1e-9, abs_tol=1e-12)
                            for v, e in zip(values, expected))):
                return f"estimates {values} differ from the recorded {expected}"
            return None
        return check

    def warm_up(self, between: Callable[[], None]) -> None:
        """Load BLAS and its kernels for the sizes the pass uses."""
        rng = self.np.random.default_rng(0)
        for d in (200, 300, 400):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3):
                a = a @ a.conj().T / d
            self.np.linalg.norm(a, 2)
            between()


TRACE_MARKER = "PERFBENCH_TRACE "


def _parse_report(argv, stdout: str):
    if "csv" in argv:
        return list(csv.DictReader(io.StringIO(stdout)))
    return json.loads(stdout)["records"]


def _cli_expectations() -> dict[str, Callable[[list], bool]]:
    """Known answers, keyed by the whole command line, where one exists."""
    return {
        "partitions enumerate --k 4 --noncrossing": lambda recs: len(recs) == 14,
        "partitions enumerate --k 9": lambda recs: len(recs) == 21147,
        "partitions mobius --lower ((1)(2)(3)) --upper ((1,2,3)) --lattice noncrossing":
            lambda recs: recs[0]["mobius"] == "2/1",
        "partitions mobius --lower ((1)(2)(3)(4)(5)(6)(7)) --upper ((1,2,3,4,5,6,7)) "
        "--lattice noncrossing": lambda recs: recs[0]["mobius"] == "132/1",
        "cumulants to-moments --process free_poisson --order 4":
            lambda recs: recs[0]["moments"] == "1/1,2/1,5/1,14/1",
        "cumulants from-moments --moments 1,2,5,14":
            lambda recs: recs[0]["cumulants"] == "1/1,1/1,1/1,1/1",
        "cumulants from-moments --moments 1,2,5,14,42,132,429":
            lambda recs: recs[0]["cumulants"] == ",".join(["1/1"] * 7),
    }


class CliCold:
    """Each command in a fresh interpreter, stdout captured and checked."""


    def __init__(self, inputs: dict):
        self.expect = _cli_expectations()
        self.ops = [Op(" ".join(argv), lambda traced, argv=argv: self._run(argv, traced),
                       lambda res, argv=argv: self._check(argv, res))
                    for argv in inputs["commands"]]

    @staticmethod
    def _run(argv, traced: bool):
        entry = [str(HERE / "clitrace.py")] if traced else ["-m", "freestoch.cli"]
        return subprocess.run([sys.executable, *entry, *argv], cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)

    def _check(self, argv, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            records = _parse_report(argv, proc.stdout)
        except (ValueError, KeyError) as exc:
            return f"unparseable report: {exc}"
        if not records:
            return "no records"
        if any(str(r.get("pass")) != "True" for r in records):
            return "a record does not pass"
        known = self.expect.get(" ".join(argv))
        if known is not None and not known(records):
            return "report differs from the known answer"
        return None

    @staticmethod
    def trace_stats(proc) -> dict:
        for line in reversed(proc.stderr.splitlines()):
            if line.startswith(TRACE_MARKER):
                return json.loads(line[len(TRACE_MARKER):])
        raise RuntimeError("traced command printed no trace line")

    def warm_up(self, between: Callable[[], None]) -> None:
        """Import the CLI once, so bytecode and the page cache are in place."""
        subprocess.run([sys.executable, "-c", "import freestoch.cli"], cwd=ROOT,
                       stdin=subprocess.DEVNULL, check=True, timeout=CLI_TIMEOUT_S)
        between()


def build(workload: str, inputs: dict, reference: dict | None):
    if workload == "exact-warm":
        return ExactWarm(inputs)
    if workload == "matrix-mc":
        return MatrixMC(inputs, reference)
    if workload == "cli-cold":
        return CliCold(inputs)
    raise ValueError(f"unknown workload {workload!r}")
