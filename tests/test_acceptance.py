"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact criteria demand zero rational residuals; statistical criteria use
3-standard-error bands (with the documented 1e-3 trace floor) or monotone
trends, under fixed seeds.  Run with `pytest -v -s tests/test_acceptance.py`
to see the verdict lines as they appear.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from freestoch.cumulants import (
    CumulantFunctional,
    cumulant_functional,
    moment_functional,
    nonempty_subsets,
)
from freestoch.matrixsim import (
    MatrixEnsembleConfig,
    calibrate,
    lem_proj_decay,
    main_theorem_matrix_residual,
)
from freestoch.measures import (
    MeasureWord,
    diagonal_nesting_residual,
    exact_moment,
    example_formulas_check,
    expect_pr,
    expect_st,
    inner_peeling_residual,
    l2_residual,
    limit_expect_st,
    main_theorem_residual,
    st_uniform_formula,
)
from freestoch.partitions import (
    Partition,
    classify_classes,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    mobius,
)
from freestoch.processes import (
    Subdivision,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)

from helpers import (
    bell_numbers,
    brute_expect_pr,
    brute_expect_st,
    catalan,
    compositions,
    diagonal_substitution_residual,
    formula_limit,
    partition_cumulant,
    process_fixtures,
)

BATTERY = (
    Subdivision.uniform(1),
    Subdivision.uniform(2),
    Subdivision.uniform(5),
    Subdivision.of(["1/2", "1/3", "1/6"]),
    Subdivision.of(["1/7", "2/7", "4/7"]),
    Subdivision.of(["1/2", "3/2"]),
)


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_lattice_counts():
    start = time.monotonic()
    bell = bell_numbers(8)
    ok = True
    for k in range(1, 9):
        full = enumerate_set_partitions(k)
        ok &= len(full) == bell[k]
        ok &= enumerate_noncrossing(k) == [p for p in full if is_noncrossing(p)]
        ok &= len(enumerate_noncrossing(k)) == catalan(k)
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _verdict("lattice counts k<=8 vs Bell/Catalan oracles", ok, f"{elapsed:.1f}s")


def test_moment_cumulant_roundtrip():
    rng = random.Random(20260810)
    ok = True
    for _ in range(100):
        k = rng.randint(1, 6)
        values = {b: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for b in nonempty_subsets(k)}
        r = CumulantFunctional(k, values)
        ok &= cumulant_functional(moment_functional(r)).values == r.values
    poisson = CumulantFunctional.from_single_variable(5, [1] * 5)
    first = lambda n: tuple(range(1, n + 1))
    moments = moment_functional(poisson)
    ok &= [moments.values[first(n)] for n in range(1, 6)] == [1, 2, 5, 14, 42]
    semi = CumulantFunctional.from_single_variable(5, [0, 1, 0, 0, 0])
    smoments = moment_functional(semi)
    ok &= [smoments.values[first(n)] for n in range(1, 6)] == [0, 1, 0, 2, 0]
    _verdict("moment/cumulant roundtrip on 100 random rational functionals", ok)


def test_engine_vs_brute_force():
    start = time.monotonic()
    subs = (Subdivision.uniform(2), Subdivision.uniform(6),
            Subdivision.of(["1/2", "1/3", "1/6"]))
    bad = []
    for name, base in process_fixtures().items():
        for k in range(1, 5):
            spec = make_tuple(base, "identical", k=k)
            for sub in subs:
                for p in enumerate_set_partitions(k):
                    if expect_st(p, sub, spec) != brute_expect_st(p, sub, spec):
                        bad.append(("st", name, str(p), sub.describe()))
                    if expect_pr(p, sub, spec) != brute_expect_pr(p, sub, spec):
                        bad.append(("pr", name, str(p), sub.describe()))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60
    _verdict("engine equals brute-force index sums, P(k<=4), N<=6, 3 fixtures",
             ok, f"{elapsed:.1f}s" + (f", first fail {bad[0]}" if bad else ""))


def test_finite_inversion_and_mobius_consistency():
    bad = []
    for name, base in process_fixtures().items():
        spec = make_tuple(base, "identical", k=4)
        for sub in BATTERY:
            for p in enumerate_set_partitions(4):
                via_st = sum((expect_st(s, sub, spec) for s in coarsenings(p)), Fraction(0))
                if expect_pr(p, sub, spec) != via_st:
                    bad.append(("inversion", name, str(p), sub.describe()))
                back = sum((mobius(p, s, "full") * expect_pr(s, sub, spec)
                            for s in coarsenings(p)), Fraction(0))
                if expect_st(p, sub, spec) != back:
                    bad.append(("mobius", name, str(p), sub.describe()))
    _verdict("finite St/Pr inversion and Mobius consistency over P(4)", not bad,
             f"first fail {bad[0]}" if bad else "")


def test_limit_formula_and_crossing_decay():
    bad = []
    for name, base in process_fixtures().items():
        for k in range(1, 6):
            spec = make_tuple(base, "identical", k=k)
            for t in (Fraction(1), Fraction(3, 2)):
                for p in enumerate_noncrossing(k):
                    expected = t ** p.num_blocks * partition_cumulant(spec, p)
                    if limit_expect_st(p, spec, t) != expected:
                        bad.append(("limit", name, str(p)))
                    if k <= 4 and formula_limit(st_uniform_formula(p, spec, t)) != expected:
                        bad.append(("formula-limit", name, str(p)))
        spec4 = make_tuple(base, "identical", k=4)
        for p in enumerate_set_partitions(4):
            if is_noncrossing(p):
                continue
            formula = st_uniform_formula(p, spec4)
            if formula_limit(formula) != 0:
                bad.append(("crossing", name, str(p)))
            if limit_expect_st(p, spec4) != 0:
                bad.append(("crossing-limit", name, str(p)))
    _verdict("limit traces equal t^|p| R_p on NC(k<=5); crossing patterns decay",
             not bad, f"first fail {bad[0]}" if bad else "")


def test_main_theorem():
    start = time.monotonic()
    bad = []
    # gate: the derived-tuple substitution rule must hold exactly
    for name, base in process_fixtures().items():
        for k in (1, 2, 3):
            spec = make_tuple(base, "identical", k=k)
            subsets = [c for r in range(1, k + 1)
                       for c in itertools.combinations(range(1, k + 1), r)]
            for m in (1, 2, 3):
                for groups in itertools.product(subsets, repeat=m):
                    if sum(len(g) for g in groups) > 6:
                        continue
                    if diagonal_substitution_residual(spec, list(groups)):
                        bad.append(("oracle", name, groups))
    gate_ok = not bad
    for name, base in process_fixtures().items():
        for k in range(1, 6):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                if main_theorem_residual(p, spec, "L1", Fraction(1)) != 0:
                    bad.append(("L1", name, str(p)))
                if k <= 4 and gate_ok and main_theorem_residual(p, spec, "L2", Fraction(1)) != 0:
                    bad.append(("L2", name, str(p)))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 600
    _verdict("main theorem residuals: L1 on NC(k<=5), L2 on NC(k<=4), oracle-gated",
             ok, f"{elapsed:.1f}s" + (f", first fail {bad[0]}" if bad else ""))


def test_paper_examples():
    bad = []
    for which in ("free_poisson", "brownian"):
        for k in range(1, 5):
            for p in enumerate_noncrossing(k):
                l1, l2 = example_formulas_check(which, p, Fraction(1))
                if l1 != 0 or l2 != 0:
                    bad.append((which, str(p)))
    _verdict("closed-form examples verified in L1 and L2 on NC(k<=4)", not bad,
             f"first fail {bad[0]}" if bad else "")


def test_inner_structure():
    from helpers import CENTERED_SEQ
    from freestoch.processes import make_custom_process

    bad = []
    for name, base in process_fixtures().items():
        for k in range(1, 5):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                if inner_peeling_residual(p, spec, "L1") != 0:
                    bad.append(("peel-L1", name, str(p)))
                if inner_peeling_residual(p, spec, "L2") != 0:
                    bad.append(("peel-L2", name, str(p)))
            for sizes in compositions(k):
                blocks, pos = [], 0
                for s in sizes:
                    blocks.append(tuple(range(pos + 1, pos + s + 1)))
                    pos += s
                if diagonal_nesting_residual(spec, blocks) != 0:
                    bad.append(("nesting", name, str(blocks)))
    # inner singletons kill centered measures, in trace and in L2 norm
    for name, base in (("semicircular", make_semicircular()),
                       ("centered-custom", make_custom_process(CENTERED_SEQ))):
        for k in (3, 4):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                if not any(len(b) == 1 for b in classify_classes(p).inner):
                    continue
                zero = MeasureWord(Fraction(0), (), ())
                lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
                if limit_expect_st(p, spec) != 0 or l2_residual(lhs, zero) != 0:
                    bad.append(("singleton", name, str(p)))
    _verdict("inner peeling, inner-singleton vanishing, diagonal nesting at k<=4",
             not bad, f"first fail {bad[0]}" if bad else "")


def test_matrix_calibration():
    start = time.monotonic()
    poisson = make_free_poisson(1)
    cfg = MatrixEnsembleConfig(dim=400, trials=200, seed=2026, model="poisson_sps")
    refs = {n: exact_moment(make_tuple(poisson, "identical", k=n)) for n in (2, 3)}
    records = calibrate(poisson, Subdivision.uniform(4), cfg, [2, 3], refs)
    elapsed = time.monotonic() - start
    ok = all(r["pass"] for r in records) and elapsed < 120
    detail = ", ".join(f"m{r['order']}={r['estimate']:.4f}+-{r['stderr']:.4f}"
                       for r in records)
    _verdict("matrix calibration m2, m3 within 3 stderr at d=400, T=200", ok,
             f"{detail}, {elapsed:.1f}s")


def test_matrix_main_theorem_trend():
    p = Partition.parse("((1,3)(2))")
    medians = []
    for d, n in ((150, 20), (300, 40), (600, 80)):
        vals = []
        for rep in range(5):
            cfg = MatrixEnsembleConfig(dim=d, trials=1, seed=7000 + rep,
                                       model="poisson_sps")
            rec = main_theorem_matrix_residual(p, cfg, Subdivision.uniform(n))
            vals.append(rec["estimate"])
        medians.append(float(np.median(vals)))
    ok = all(a > b for a, b in zip(medians, medians[1:])) and medians[-1] < 0.2
    _verdict("matrix main-theorem residual decreases along (d,N) and ends < 0.2",
             ok, "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_projection_decay():
    cfg = MatrixEnsembleConfig(dim=200, trials=10, seed=404, model="poisson_sps")
    ok = True
    details = []
    for k in (1, 2):
        records = lem_proj_decay(cfg, [4, 8, 16], k)
        ok &= all(r["pass"] for r in records)
        ok &= all(r["estimate"] <= r["rate_bound"] * 16 for r in records)
        details.append(f"k={k}: " + "->".join(f"{r['estimate']:.3f}" for r in records))
    _verdict("projection-sandwich norms decay along mesh halvings (k=1,2)", ok,
             "; ".join(details))
