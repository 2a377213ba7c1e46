import gc
import itertools
import threading
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import freestoch.matrixsim as mx
from freestoch.errors import DimensionError, SizeGuardError
from freestoch.matrixsim import (
    IncrementSet,
    MatrixEnsembleConfig,
    calibrate,
    derived_increments,
    hermitian_gaussian,
    lem_proj_decay,
    main_theorem_matrix_residual,
    normalized_trace,
    pr_matrix,
    projection_ranks,
    sample_increments,
    st_matrix,
    trial_rng,
)
from freestoch.measures import exact_moment, limit_expect_st
from freestoch.partitions import (
    Partition,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
)
from freestoch.processes import (
    Subdivision,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)

from helpers import dense_pr_sum, dense_st_sum, hermitian_gaussian_complex, one_hat

POISSON = make_free_poisson(1)
SEMI = make_semicircular()

# uneven shares; d < N leaves intervals of rank 0, as does the 1/20 share at d=10
SUBDIVISION_CASES = [
    (12, Subdivision.of(["1/2", "1/3", "1/6"])),
    (10, Subdivision.uniform(16)),
    (10, Subdivision.of(["1/20", "3/5", "1/20", "3/10"])),
]


def _copies(inc, k):
    return replace(inc, cores=inc.cores[0:1] * k)


def _rel(a, b, scale=None):
    return np.linalg.norm(a - b) / (np.linalg.norm(b) if scale is None else scale)


def test_determinism():
    cfg = MatrixEnsembleConfig(dim=60, trials=4, seed=42, model="poisson_sps")
    sub = Subdivision.uniform(5)
    a = sample_increments(POISSON, sub, cfg, trial=2)
    b = sample_increments(POISSON, sub, cfg, trial=2)
    for ma, mb in zip(a.matrices[0], b.matrices[0]):
        assert (ma == mb).all()
    c = sample_increments(POISSON, sub, cfg, trial=3)
    assert not all((ma == mc).all() for ma, mc in zip(a.matrices[0], c.matrices[0]))


def test_sampled_increments_are_hermitian():
    # the draws bitwise, by construction; the dense products to rounding
    sub = Subdivision.of(["1/2", "1/3", "1/6"])
    for d, (model, spec) in itertools.product(
            (2, 3, 7, 50, 160), (("poisson_sps", POISSON), ("gaussian_increments", SEMI))):
        cfg = MatrixEnsembleConfig(dim=d, trials=1, seed=9, model=model)
        inc = sample_increments(spec, sub, cfg)
        for m in inc.cores[0] if inc.factor is None else [inc.factor]:
            assert np.array_equal(m, m.conj().T)
        for m in inc.matrices[0]:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        for lo, hi in ((0, d), (0, d // 2 + 1), (d // 3, d), (d - 1, d)):
            z = hermitian_gaussian(trial_rng(9, 1, stream=d), d, slice(lo, hi))
            assert z.shape == (hi - lo, hi - lo) and np.array_equal(z, z.conj().T)


def test_projection_ranks_largest_remainder():
    for lengths, d in ((["1/2", "1/3", "1/6"], 200), (["1/7", "2/7", "4/7"], 97),
                       (["1/3", "1/3", "1/3"], 100)):
        sub = Subdivision.of(lengths)
        ranks = projection_ranks(sub, d)
        assert sum(ranks) == d
        for r, l in zip(ranks, sub.lengths):
            assert abs(Fraction(r, d) - l / sub.t) <= Fraction(1, d)


def test_model_spec_compatibility():
    cfg = MatrixEnsembleConfig(dim=40, trials=1, seed=1, model="poisson_sps")
    with pytest.raises(ValueError):
        sample_increments(SEMI, Subdivision.uniform(2), cfg)
    cfg2 = MatrixEnsembleConfig(dim=40, trials=1, seed=1, model="gaussian_increments")
    with pytest.raises(ValueError):
        sample_increments(POISSON, Subdivision.uniform(2), cfg2)
    with pytest.raises(ValueError):
        MatrixEnsembleConfig(dim=1, trials=1, seed=1, model="poisson_sps")
    with pytest.raises(ValueError):
        MatrixEnsembleConfig(dim=40, trials=1, seed=1, model="wishart")


def test_pr_matrix_telescopes_at_zero_hat():
    cfg = MatrixEnsembleConfig(dim=30, trials=1, seed=3, model="poisson_sps")
    sub = Subdivision.uniform(4)
    inc = _copies(sample_increments(POISSON, sub, cfg), 3)
    total = sum(inc.matrices[0])
    expected = total @ total @ total
    assert np.allclose(pr_matrix(Partition.zero_hat(3), inc), expected, atol=1e-10)
    one2 = one_hat(2)
    inc2 = _copies(inc, 2)
    brute = sum(m @ m for m in inc.matrices[0])
    assert np.allclose(pr_matrix(one2, inc2), brute, atol=1e-12)


def test_pr_matrix_nested_collapse_matches_brute_force():
    cfg = MatrixEnsembleConfig(dim=25, trials=1, seed=17, model="poisson_sps")
    sub = Subdivision.of(["1/2", "1/4", "1/4"])
    inc = _copies(sample_increments(POISSON, sub, cfg), 4)
    mats = inc.matrices
    for p in enumerate_set_partitions(4):
        labels = p.rgs()
        brute = np.zeros((25, 25), dtype=complex)
        for assign in itertools.product(range(sub.n), repeat=p.num_blocks):
            word = mats[0][assign[labels[0]]]
            for pos in range(1, 4):
                word = word @ mats[pos][assign[labels[pos]]]
            brute += word
        assert np.allclose(pr_matrix(p, inc), brute, atol=1e-9), p


def test_pr_st_inversion_per_sample():
    cfg = MatrixEnsembleConfig(dim=35, trials=1, seed=5, model="poisson_sps")
    sub = Subdivision.uniform(4)
    for k in (2, 3):
        inc = _copies(sample_increments(POISSON, sub, cfg), k)
        for p in enumerate_set_partitions(k):
            lhs = pr_matrix(p, inc)
            rhs = sum(st_matrix(s, inc) for s in coarsenings(p))
            assert np.allclose(lhs, rhs, atol=1e-9)


def test_st_matrix_trace_matches_exact_engine():
    # at finite N the matrix model tracks the exact finite-subdivision
    # trace (up to 1/d corrections); both drift toward the mesh limit
    from freestoch.measures import expect_st

    spec2 = make_tuple(POISSON, "identical", k=2)
    one2 = one_hat(2)
    gaps = []
    for d, n in ((100, 5), (250, 20)):
        cfg = MatrixEnsembleConfig(dim=d, trials=30, seed=12, model="poisson_sps")
        sub = Subdivision.uniform(n)
        traces = []
        for trial in range(cfg.trials):
            inc = _copies(sample_increments(POISSON, sub, cfg, trial), 2)
            traces.append(normalized_trace(st_matrix(one2, inc)))
        arr = np.array(traces)
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        finite_ref = float(expect_st(one2, sub, spec2))
        assert abs(arr.mean() - finite_ref) <= max(3 * se, 3.0 / d)
        gaps.append(abs(arr.mean() - float(limit_expect_st(one2, spec2))))
    assert gaps[1] < gaps[0]


def test_word_traces_match_exact_engine_at_scale():
    # mean traces of words of specific increments, against the per-tuple
    # mixed moments from the cumulant transform.  With P_i = s_i s_i*,
    # tr(P_a P_b P_c) = tr(G_ab G_bc G_ca) for the Gram blocks G_ij = s_i* s_j
    # of one s* s product, so each trace takes r x r products only.
    from helpers import moments_from_cumulants, tuple_increment_cumulants

    sub = Subdivision.of(["1/3", "2/3"])
    cfg = MatrixEnsembleConfig(dim=300, trials=200, seed=77, model="poisson_sps")
    spec3 = make_tuple(POISSON, "identical", k=3)
    words = [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 2)]
    samples = {w: [] for w in words}
    for trial in range(cfg.trials):
        inc = sample_increments(POISSON, sub, cfg, trial)
        s = inc.factor
        gram = s.conj().T @ s
        blocks = {(i, j): gram[inc.slices[i - 1], inc.slices[j - 1]]
                  for i in (1, 2) for j in (1, 2)}
        for a, b, c in words:
            # the trace of a product XY is the sum of the entries of X * Y^T
            head = blocks[a, b] @ blocks[b, c]
            samples[a, b, c].append(float(np.sum(head * blocks[c, a].T).real) / cfg.dim)
    for w in words:
        ref = float(moments_from_cumulants(tuple_increment_cumulants(spec3, sub, w)))
        arr = np.array(samples[w])
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        assert abs(arr.mean() - ref) <= max(3 * se, 1e-3), (w, arr.mean(), ref)


def test_calibration_poisson_and_gaussian():
    sub = Subdivision.uniform(4)
    cfg = MatrixEnsembleConfig(dim=200, trials=40, seed=21, model="poisson_sps")
    refs = {n: exact_moment(make_tuple(POISSON, "identical", k=n)) for n in (1, 2, 3)}
    records = calibrate(POISSON, sub, cfg, [1, 2, 3], refs)
    assert all(r["pass"] for r in records)
    cfg2 = MatrixEnsembleConfig(dim=200, trials=40, seed=22, model="gaussian_increments")
    refs2 = {n: exact_moment(make_tuple(SEMI, "identical", k=n)) for n in (1, 2, 4)}
    records2 = calibrate(SEMI, sub, cfg2, [1, 2, 4], refs2)
    assert all(r["pass"] for r in records2)
    # centered: first-order trace near zero
    first = [r for r in records2 if r["order"] == 1][0]
    assert abs(first["estimate"]) <= max(3 * first["stderr"], 1e-3)


def test_brute_force_guard(monkeypatch):
    import freestoch.matrixsim as mx

    cfg = MatrixEnsembleConfig(dim=10, trials=1, seed=2, model="poisson_sps")
    inc = _copies(sample_increments(POISSON, Subdivision.uniform(8), cfg), 4)
    monkeypatch.setattr(mx, "MAX_MATMULS", 50)
    with pytest.raises(SizeGuardError):
        pr_matrix(Partition.parse("((1,3)(2,4))"), inc)
    with pytest.raises(DimensionError):
        pr_matrix(one_hat(3), _copies(inc, 2))


def test_lem_proj_decay_monotone():
    cfg = MatrixEnsembleConfig(dim=150, trials=8, seed=31, model="poisson_sps")
    for k in (1, 2):
        records = lem_proj_decay(cfg, [4, 8, 16], k)
        assert all(r["pass"] for r in records)
        assert records[0]["estimate"] > records[-1]["estimate"]


@pytest.mark.parametrize("d,lo,hi", [(2, 0, 1), (7, 2, 5), (40, 0, 40), (40, 39, 40),
                                     (33, 10, 10)])
def test_hermitian_gaussian_block_is_the_full_draws_block(d, lo, hi):
    full_rng, part_rng = trial_rng(3, 1, stream=d), trial_rng(3, 1, stream=d)
    full = hermitian_gaussian(full_rng, d)
    block = hermitian_gaussian(part_rng, d, slice(lo, hi))
    assert block.tobytes() == full[lo:hi, lo:hi].tobytes()
    assert part_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 8, 31, 160, 320])
def test_hermitian_gaussian_is_bytewise_the_complex_assembly(d):
    for lo, hi in ((0, d), (0, (d + 1) // 2), (d // 3, d), (d - 1, d)):
        rng, oracle_rng = trial_rng(5, d), trial_rng(5, d)
        z = hermitian_gaussian(rng, d, slice(lo, hi))
        expected = hermitian_gaussian_complex(oracle_rng, d, slice(lo, hi))
        assert (z.dtype, z.shape, z.strides) == (expected.dtype, expected.shape, expected.strides)
        assert z.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_lem_proj_decay_rejects_empty_words_and_meshes():
    cfg = MatrixEnsembleConfig(dim=20, trials=1, seed=1, model="poisson_sps")
    with pytest.raises(ValueError, match="word length"):
        lem_proj_decay(cfg, [4], 0)
    with pytest.raises(ValueError, match="mesh"):
        lem_proj_decay(cfg, [], 1)


@pytest.mark.parametrize("meshes,message", [
    ([4], "two meshes"), ([8, 4], "strictly increasing"), ([4, 4], "strictly increasing"),
    ([4, 16, 8], "strictly increasing")])
def test_lem_proj_decay_refuses_meshes_it_cannot_compare(monkeypatch, meshes, message):
    # one mesh leaves its only record nothing to compare with; meshes out of
    # order would compare the decay backwards.  Both are refused before a draw.
    def refuse(*args):
        raise AssertionError("drew a block")

    monkeypatch.setattr(mx, "hermitian_gaussian", refuse)
    cfg = MatrixEnsembleConfig(dim=20, trials=1, seed=1, model="poisson_sps")
    with pytest.raises(ValueError, match=message):
        lem_proj_decay(cfg, meshes, 1)


def test_main_theorem_matrix_residual_trivial_partition(monkeypatch):
    # no inner block: the right side, St of 0-hat on the blocks' diagonals,
    # is literally the same sum as St_p, so the check is refused before a
    # draw instead of passing with an estimate of exactly 0
    def refuse(*args):
        raise AssertionError("sampled increments before checking the inner blocks")

    monkeypatch.setattr(mx, "sample_increments", refuse)
    cfg = MatrixEnsembleConfig(dim=60, trials=2, seed=8, model="poisson_sps")
    for p in ("((1,2))", "((1)(2))", "((1,2)(3))", "((1)(2,3)(4))"):
        with pytest.raises(ValueError, match=r"has no inner block: both sides are the same sum"):
            main_theorem_matrix_residual(Partition.parse(p), cfg, Subdivision.uniform(6))


def test_main_theorem_matrix_residual_shrinks():
    p = Partition.parse("((1,3)(2))")
    small = main_theorem_matrix_residual(
        p, MatrixEnsembleConfig(dim=80, trials=2, seed=13, model="poisson_sps"),
        Subdivision.uniform(10))
    big = main_theorem_matrix_residual(
        p, MatrixEnsembleConfig(dim=160, trials=2, seed=13, model="poisson_sps"),
        Subdivision.uniform(20))
    assert big["estimate"] < small["estimate"]


def test_sandwich_matrix_trend():
    # ||sum_i X_i Z X_i - tau(Z) Delta_2||_F / sqrt(d) shrinks as the mesh
    # refines, for Z an independent Hermitian Gaussian
    d, trials = 150, 8
    residuals = []
    for n in (4, 8, 16):
        cfg = MatrixEnsembleConfig(dim=d, trials=trials, seed=55, model="poisson_sps")
        sub = Subdivision.uniform(n)
        vals = []
        for trial in range(trials):
            inc = sample_increments(POISSON, sub, cfg, trial)
            z = hermitian_gaussian(trial_rng(cfg.seed, trial, stream=7), d)
            sandwich = sum(m @ z @ m for m in inc.matrices[0])
            delta2 = sum(m @ m for m in inc.matrices[0])
            diff = sandwich - normalized_trace(z) * delta2
            vals.append(float(np.linalg.norm(diff, "fro")) / np.sqrt(d))
        residuals.append(float(np.mean(vals)))
    assert residuals[0] > residuals[1] > residuals[2]


@pytest.mark.parametrize("d,sub", SUBDIVISION_CASES)
def test_factored_sums_match_dense_reference(d, sub):
    cfg = MatrixEnsembleConfig(dim=d, trials=1, seed=4, model="poisson_sps")
    for k in (1, 2, 3, 4):
        inc = sample_increments(make_tuple(POISSON, "identical", k=k), sub, cfg)
        assert inc.factor is not None
        mats = inc.matrices
        dense = IncrementSet(sub, mats)
        for p in enumerate_noncrossing(k):
            pr_ref = dense_pr_sum(p, mats)
            assert _rel(pr_matrix(p, inc), pr_ref) <= 1e-12, p
            assert _rel(pr_matrix(p, dense), pr_ref) <= 1e-12, p
            # St can vanish exactly (more blocks than intervals): scale by Pr
            st_ref = dense_st_sum(p, mats)
            scale = max(np.linalg.norm(st_ref), np.linalg.norm(pr_ref))
            assert _rel(st_matrix(p, inc), st_ref, scale) <= 1e-12, p
            assert _rel(st_matrix(p, dense), st_ref, scale) <= 1e-12, p


def test_derived_increments_products():
    groups = [(1, 3), (2,), (1, 2, 3)]
    for d, sub in SUBDIVISION_CASES:
        cfg = MatrixEnsembleConfig(dim=d, trials=1, seed=4, model="poisson_sps")
        inc = sample_increments(make_tuple(POISSON, "identical", k=3), sub, cfg)
        mats = inc.matrices
        assert inc.grams is None  # built on first use
        der = derived_increments(inc, groups)
        assert der.factor is inc.factor and der.grams is inc.grams is not None
        dense = derived_increments(IncrementSet(sub, mats), groups)
        for g, got, ref in zip(groups, der.matrices, dense.matrices):
            for i in range(sub.n):
                prod = mats[g[0] - 1][i]
                for pos in g[1:]:
                    prod = prod @ mats[pos - 1][i]
                scale = max(np.linalg.norm(prod), 1.0)
                assert np.linalg.norm(ref[i] - prod) <= 1e-12 * scale
                assert np.linalg.norm(got[i] - prod) <= 1e-12 * scale


@pytest.mark.parametrize("d,sub", SUBDIVISION_CASES)
def test_assemble_skips_identity_cores_exactly(d, sub):
    cfg = MatrixEnsembleConfig(dim=d, trials=1, seed=4, model="poisson_sps")
    inc = sample_increments(POISSON, sub, cfg)
    s = inc.factor
    full = np.concatenate([s[:, sl] @ c for sl, c in zip(inc.slices, inc.cores[0])], axis=1)
    assert np.array_equal(mx._assemble(inc, inc.cores[0]), full @ s.conj().T)


@pytest.mark.parametrize("model,spec", [("poisson_sps", POISSON), ("gaussian_increments", SEMI)])
def test_calibrate_trace_identity_matches_explicit_powers(model, spec):
    sub = Subdivision.of(["1/2", "1/3", "1/6"])
    cfg = MatrixEnsembleConfig(dim=40, trials=3, seed=6, model=model)
    orders = [1, 2, 3, 4, 5]
    records = calibrate(spec, sub, cfg, orders, {n: 0 for n in orders})
    explicit = {n: [] for n in orders}
    for trial in range(cfg.trials):
        total = sum(sample_increments(spec, sub, cfg, trial).matrices[0])
        power = total
        for n in orders:
            explicit[n].append(normalized_trace(power))
            power = power @ total
    for r in records:
        ref = float(np.mean(explicit[r["order"]]))
        assert abs(r["estimate"] - ref) <= 1e-12 * max(abs(ref), 1.0), r


def test_pr_matrix_leaves_no_reference_cycle():
    cfg = MatrixEnsembleConfig(dim=12, trials=1, seed=4, model="poisson_sps")
    inc = _copies(sample_increments(POISSON, Subdivision.uniform(3), cfg), 4)
    ref = weakref.ref(inc)
    gc.disable()
    try:
        pr_matrix(Partition.parse("((1,4)(2)(3))"), inc)
        del inc
        assert ref() is None
    finally:
        gc.enable()


def test_hermitian_gaussian_normalization():
    rng = trial_rng(99, 0)
    d = 400
    samples = [normalized_trace(hermitian_gaussian(rng, d) @ hermitian_gaussian(rng, d).conj().T)
               for _ in range(5)]
    # two independent samples: trace of Z W^H concentrates near 0; use Z Z^H via same draw
    z = hermitian_gaussian(rng, d)
    assert abs(normalized_trace(z @ z) - 1.0) < 0.1
    assert abs(np.mean(samples)) < 0.1


@pytest.fixture
def free_cores(monkeypatch):
    """`free_cores(n)` makes `_map_trials` see n free cores, with a fresh pool;
    each pool the test starts is shut down."""
    def use(n):
        if mx._pool is not None:
            mx._pool.shutdown()
        monkeypatch.setattr(mx, "_pool", None)
        monkeypatch.setattr(mx, "_free_cores", lambda: n)

    monkeypatch.setattr(mx, "_pool", None)
    yield use
    if mx._pool is not None:
        mx._pool.shutdown()


def _serial_and_pooled(free_cores, run, cores=2):
    free_cores(1)
    serial = run()
    assert mx._pool is None
    free_cores(cores)
    return serial, run()


@pytest.mark.parametrize("cores", [2, 3])  # 5 trials: shares of 3 and 2, or 2, 2 and 1
@pytest.mark.parametrize("model,spec", [("poisson_sps", POISSON), ("gaussian_increments", SEMI)])
def test_pooled_calibrate_equals_serial(free_cores, model, spec, cores):
    sub = Subdivision.of(["1/2", "1/3", "1/6"])
    cfg = MatrixEnsembleConfig(dim=30, trials=5, seed=6, model=model)
    orders = [1, 2, 3, 4]
    serial, pooled = _serial_and_pooled(
        free_cores, lambda: calibrate(spec, sub, cfg, orders, {n: 0 for n in orders}), cores)
    assert pooled == serial


@pytest.mark.parametrize("word_len", [1, 2])
def test_pooled_proj_decay_equals_serial(monkeypatch, free_cores, word_len):
    cfg = MatrixEnsembleConfig(dim=37, trials=4, seed=8, model="poisson_sps")
    threads = set()

    def sampler(rng, d, part):
        threads.add(threading.current_thread().name)
        return hermitian_gaussian(rng, d, part)

    monkeypatch.setattr(mx, "hermitian_gaussian", sampler)
    serial, pooled = _serial_and_pooled(
        free_cores, lambda: lem_proj_decay(cfg, [3, 4, 8], word_len))
    assert pooled == serial
    assert any(name.startswith("freestoch-trial") for name in threads)  # a pool thread drew


def test_main_theorem_with_free_cores_equals_serial(free_cores):
    # its trials stay serial in the caller: two d x d trials at once, or one
    # on a second thread, would raise the peak memory
    cfg = MatrixEnsembleConfig(dim=40, trials=3, seed=13, model="poisson_sps")
    serial, pooled = _serial_and_pooled(free_cores, lambda: main_theorem_matrix_residual(
        Partition.parse("((1,3)(2))"), cfg, Subdivision.uniform(6)))
    assert pooled == serial and mx._pool is None


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("failing", [1, 2])  # with 2 cores: the pool's share, the caller's
def test_a_trial_error_propagates_unchanged(monkeypatch, free_cores, cores, failing):
    free_cores(cores)
    cfg = MatrixEnsembleConfig(dim=24, trials=4, seed=3, model="poisson_sps")
    error = RuntimeError(f"trial {failing} failed")
    fresh = trial_rng(cfg.seed, failing, stream=4).bit_generator.state

    def sampler(rng, d, part):
        if rng.bit_generator.state == fresh:  # the failing trial's first draw
            raise error
        return hermitian_gaussian(rng, d, part)

    monkeypatch.setattr(mx, "hermitian_gaussian", sampler)
    with pytest.raises(RuntimeError) as info:
        lem_proj_decay(cfg, [4, 8], 1)
    assert info.value is error


@pytest.mark.parametrize("env,cores", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 2), ({"OMP_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "2"}, 1), ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1), ({"OPENBLAS_NUM_THREADS": "x"}, 1)])
def test_free_cores_leaves_the_blas_threads_their_cores(monkeypatch, env, cores):
    monkeypatch.setattr(mx.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert mx._free_cores() == cores
