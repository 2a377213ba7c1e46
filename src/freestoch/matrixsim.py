"""Random-matrix models of the processes and Monte Carlo limit checks.

The constant-cumulant process has an exact matrix-friendly form: conjugate
a projection-valued subdivision by one semicircular-type matrix.  The
centered variance process uses independent Hermitian Gaussian increments,
which is standard plumbing rather than part of the exact calculus.

The constant-cumulant increments P_i = s_i s_i* stay factored: an
`IncrementSet` holds the sampled s, the column slice of each interval and
small r_i x r_i cores.  Products on one interval multiply cores through the
Gram blocks s_i* s_i, and a partition sum over intervals is
s blockdiag(cores) s*, so a block costs about one d x d product plus one
per nested gap instead of N.  Gaussian increments and hand-built sets have no
factor and run through the same code on the d x d matrices themselves.

Everything is seeded per trial from the master seed, so runs are
reproducible and trials are order-insensitive: `calibrate` and
`lem_proj_decay` spread them over the cores that BLAS leaves free and keep
results in trial order, so every estimate is the same on any core count.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import CrossingPartitionError, DimensionError, SizeGuardError
from .partitions import (
    Partition,
    classify_classes,
    coarsenings,
    is_noncrossing,
    mobius,
)
from .processes import ProcessSpec, Subdivision, make_free_poisson, make_tuple

MODELS = ("poisson_sps", "gaussian_increments")


@dataclass(frozen=True)
class MatrixEnsembleConfig:
    dim: int
    trials: int
    seed: int
    model: str

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")


@dataclass
class IncrementSet:
    """Per-component, per-interval increments X[j][i] = s_i cores[j][i] s_i*.

    s_i is the column slice `factor[:, slices[i]]` of one d x d matrix, so a
    poisson_sps increment P_i = s_i s_i* is held as s and an r_i x r_i
    identity core, and products of increments on one interval stay r_i x r_i
    through the Gram blocks `grams[i]` = s_i* s_i.  With no factor each s_i
    is the identity and the cores are the d x d increment matrices.

    Sampled increments are Hermitian bitwise by construction; derived diagonal
    components hold products and need not be.  Gram blocks are built on use.
    """

    subdivision: Subdivision
    cores: list[list[np.ndarray]]
    factor: np.ndarray | None = None
    slices: tuple[slice, ...] | None = None
    grams: list[np.ndarray] | None = None

    @property
    def k(self) -> int:
        return len(self.cores)

    @property
    def n(self) -> int:
        return self.subdivision.n

    @property
    def dim(self) -> int:
        return (self.cores[0][0] if self.factor is None else self.factor).shape[0]

    @property
    def matrices(self) -> list[list[np.ndarray]]:
        """The d x d increment matrices, built afresh from the factor if any;
        a core shared by several components is expanded once."""
        if self.factor is None:
            return self.cores
        cols = [self.factor[:, sl] for sl in self.slices]
        dense: dict[tuple[int, int], np.ndarray] = {}
        for comp in self.cores:
            for i, core in enumerate(comp):
                if (i, id(core)) not in dense:
                    dense[i, id(core)] = cols[i] @ core @ cols[i].conj().T
        return [[dense[i, id(core)] for i, core in enumerate(comp)] for comp in self.cores]


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Counter-based per-trial generator derived from the master seed."""
    return np.random.default_rng([seed, trial, stream])


def hermitian_gaussian(rng: np.random.Generator, dim: int,
                       part: slice = slice(None)) -> np.ndarray:
    """Hermitian matrix with entry variance 1/dim (semicircular limit, second
    moment 1 under the normalized trace); with `part`, only its block [part,
    part], assembled from the same full draws, so the stream is unchanged.

    With a = x + iy, a + a* is (x + x^T) + i(y - y^T): both parts are
    written in place in real arithmetic, never forming the complex a."""
    x, y = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    x, y = x[part, part], y[part, part]
    out = np.empty(x.shape, dtype=complex)
    np.add(x, x.T, out=out.real)
    np.subtract(y, y.T, out=out.imag)
    out *= 1.0 / math.sqrt(4 * dim)
    return out


def normalized_trace(mat: np.ndarray) -> float:
    return float(np.trace(mat).real) / mat.shape[0]


def projection_ranks(sub: Subdivision, dim: int) -> list[int]:
    """Largest-remainder ranks: sum to dim, each within 1/dim of its share."""
    targets = [Fraction(l, sub.t) * dim for l in sub.lengths]
    ranks = [int(x) for x in targets]
    remainders = sorted(
        range(len(targets)), key=lambda i: (targets[i] - ranks[i], -i), reverse=True
    )
    for i in remainders[: dim - sum(ranks)]:
        ranks[i] += 1
    return ranks


def _single_atom(spec: ProcessSpec) -> str:
    atoms = spec.atoms()
    if len(atoms) != 1 or any(len(w) != 1 for w in spec.words):
        raise ValueError("matrix models need identical copies of one process")
    return atoms[0].kind


def sample_increments(spec: ProcessSpec, sub: Subdivision, cfg: MatrixEnsembleConfig,
                      trial: int = 0) -> IncrementSet:
    """Draw one trial's increment matrices for all components.

    poisson_sps squeezes disjoint diagonal projections (ranks matched to
    the interval shares) between one semicircular-type matrix s; it models
    the constant-cumulant process at rate 1, and P_i = s_i s_i* is kept
    factored.  gaussian_increments draws independent Hermitian Gaussians
    scaled by sqrt of each length.
    """
    kind = _single_atom(spec)
    d = cfg.dim
    rng = trial_rng(cfg.seed, trial)
    if cfg.model == "poisson_sps":
        if kind != "poisson" or spec.atoms()[0].data[0] != 1:
            raise ValueError("poisson_sps requires the rate-1 constant-cumulant process")
        s = hermitian_gaussian(rng, d)
        ranks = projection_ranks(sub, d)
        bounds = list(itertools.accumulate(ranks, initial=0))
        slices = tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        cores = [np.eye(r, dtype=complex) for r in ranks]
        return IncrementSet(sub, [cores] * spec.k, s, slices)
    if cfg.model == "gaussian_increments":
        if kind != "semicircular":
            raise ValueError("gaussian_increments requires the centered variance process")
        mats = [
            math.sqrt(float(l)) * hermitian_gaussian(rng, d) for l in sub.lengths
        ]
        return IncrementSet(sub, [mats] * spec.k)
    raise ValueError(cfg.model)  # pragma: no cover - config validates


def _between(inc: IncrementSet, gap: np.ndarray | None) -> list[np.ndarray | None]:
    """Per interval, what a gap becomes between two cores: s_i* gap s_i, or
    the Gram block s_i* s_i for an empty gap.  Unfactored, the gap itself."""
    if inc.factor is None:
        return [gap] * inc.n
    if gap is None:
        if inc.grams is None:
            inc.grams = [inc.factor[:, sl].conj().T @ inc.factor[:, sl] for sl in inc.slices]
        return inc.grams
    right = gap @ inc.factor
    return [inc.factor[:, sl].conj().T @ right[:, sl] for sl in inc.slices]


def _interval_cores(inc: IncrementSet, positions, betweens) -> list[np.ndarray]:
    """Per interval i: cores[positions[0]][i] betweens[0][i] cores[positions[1]][i] ...
    (components 1-based, a None between skipped)."""
    out = []
    for i in range(inc.n):
        prod = inc.cores[positions[0] - 1][i]
        for between, pos in zip(betweens, positions[1:]):
            if between[i] is not None:
                prod = prod @ between[i]
            prod = prod @ inc.cores[pos - 1][i]
        out.append(prod)
    return out


def _assemble(inc: IncrementSet, cores) -> np.ndarray:
    """Sum over intervals of s_i cores[i] s_i* = s blockdiag(cores) s* (s* is s
    bitwise; identity cores leave s), one d x d product; unfactored, the sum."""
    if inc.factor is None:
        return sum(cores)
    s = inc.factor
    if all(np.array_equal(c, np.eye(len(c))) for c in cores):
        return s @ s
    return np.concatenate([s[:, sl] @ c for sl, c in zip(inc.slices, cores)], axis=1) @ s


def derived_increments(inc: IncrementSet, groups) -> IncrementSet:
    """Per-interval products over each group: the diagonal-measure model.
    Factored sets keep the factor and multiply cores through the Gram blocks."""
    cores = [_interval_cores(inc, g, [_between(inc, None)] * (len(g) - 1)) for g in groups]
    return replace(inc, cores=cores)


# ---------------------------------------------------------------------------
# partition-indexed matrix sums

MAX_MATMULS = 10_000_000
MAX_PRODUCT_ARITY = 8


def pr_matrix(p: Partition, inc: IncrementSet) -> np.ndarray:
    """Sum over index tuples constant on the blocks of p.

    Noncrossing patterns evaluate by collapsing the nesting forest, one
    interval sum per block; crossing patterns fall back to the guarded
    brute-force sum over block index assignments.
    """
    if p.k != inc.k:
        raise DimensionError(f"partition of [{p.k}] vs {inc.k} components")
    if is_noncrossing(p):
        return _pr_nested(p, inc)
    m = p.num_blocks
    if inc.n**m * p.k > MAX_MATMULS:
        raise SizeGuardError("brute-force Pr sum exceeds the matmul guard")
    labels = p.rgs()
    mats = inc.matrices
    d = inc.dim
    total = np.zeros((d, d), dtype=complex)
    for assign in itertools.product(range(inc.n), repeat=m):
        word = mats[0][assign[labels[0]]]
        for pos in range(1, p.k):
            word = word @ mats[pos][assign[labels[pos]]]
        total += word
    return total


def _product(mats) -> np.ndarray | None:
    out = None
    for m in mats:
        out = m if out is None else out @ m
    return out


def _pr_nested(p: Partition, inc: IncrementSet) -> np.ndarray:
    """Each block's interval sum with the values of the blocks nested in its
    gaps substituted; blocks are taken children first, since a nested block
    spans fewer positions than the block around it."""
    spans = [(b[0], b[-1]) for b in p.blocks]
    # values of the blocks evaluated so far and not yet placed in a gap
    pending: dict[int, np.ndarray] = {}
    for i in sorted(range(p.num_blocks), key=lambda j: spans[j][1] - spans[j][0]):
        block = p.blocks[i]
        betweens = []
        for lo, hi in zip(block, block[1:]):
            inside = sorted((j for j in pending if lo < spans[j][0] < hi),
                            key=lambda j: spans[j][0])
            betweens.append(_between(inc, _product(pending.pop(j) for j in inside)))
        pending[i] = _assemble(inc, _interval_cores(inc, block, betweens))
    return _product(pending[j] for j in sorted(pending, key=lambda j: spans[j][0]))


def st_matrix(p: Partition, inc: IncrementSet) -> np.ndarray:
    """Sum over index tuples whose pattern is exactly p, by Mobius
    inversion over the coarsenings of p."""
    if p.k != inc.k:
        raise DimensionError(f"partition of [{p.k}] vs {inc.k} components")
    total = None  # the first term: a zero matrix would be one more live d x d
    for sigma in coarsenings(p):
        term = mobius(p, sigma, "full") * pr_matrix(sigma, inc)
        total = term if total is None else np.add(total, term, out=total)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo checks

_pool = None


def _free_cores() -> int:
    """Cores this process may use over the threads BLAS takes (the first of its
    variables set, else all of them): trial threads must not oversubscribe it."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS") if v in os.environ), "")
    return cores // int(blas) if blas.isdigit() and int(blas) > 0 else 1


def _map_trials(fn, items) -> list:
    """[fn(x) for x in items], in order.  With w >= 2 free cores the caller takes
    every w-th item and w - 1 pool threads the others (numpy releases the GIL as
    it draws): fixed shares on few threads, since each keeps the memory it frees."""
    global _pool
    items, w = list(items), _free_cores()
    if w < 2 or len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor, wait
    if _pool is None:
        _pool = ThreadPoolExecutor(w - 1, thread_name_prefix="freestoch-trial")
    helpers = [_pool.submit(lambda k: [fn(x) for x in items[k::w]], k) for k in range(1, w)]
    try:
        shares = [[fn(x) for x in items[::w]]]
    finally:
        wait(helpers)
    shares += [f.result() for f in helpers]
    return [shares[i % w][i // w] for i in range(len(items))]


def _mean_stderr(samples) -> tuple[float, float]:
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def calibrate(spec: ProcessSpec, sub: Subdivision, cfg: MatrixEnsembleConfig,
              orders, references) -> list[dict]:
    """Mean normalized traces of powers of the total increment vs the
    exact engine's moments.

    The total increment A is Hermitian, so tr(A^n) is the Frobenius inner
    product of A^floor(n/2) and A^ceil(n/2): only powers up to
    ceil(max(orders)/2) are formed.
    """
    def trial_samples(trial):
        inc = sample_increments(spec, sub, cfg, trial)
        powers = [_assemble(inc, inc.cores[0])]
        while len(powers) < (max(orders) + 1) // 2:
            powers.append(powers[-1] @ powers[0])
        return [normalized_trace(powers[0]) if n == 1 else
                float(np.vdot(powers[n // 2 - 1], powers[(n + 1) // 2 - 1]).real) / cfg.dim
                for n in orders]

    rows = _map_trials(trial_samples, range(cfg.trials))
    records = []
    for j, n in enumerate(orders):
        est, se = _mean_stderr([row[j] for row in rows])
        ref = float(references[n])
        records.append({
            "d": cfg.dim, "N": sub.n, "trial_count": cfg.trials,
            "order": n, "estimate": est, "stderr": se, "reference": ref,
            "pass": abs(est - ref) <= max(3 * se, 1e-3), "seed": cfg.seed,
        })
    return records


def lem_proj_decay(cfg: MatrixEnsembleConfig, meshes, word_len: int) -> list[dict]:
    """Norm of the projection-sandwich sum per mesh; the limit statement
    says it dies like mesh^(1/(2 word_len)) or faster.  Each record after
    the first passes when its estimate exceeds the previous one by at most
    twice their summed stderrs, so the meshes (the N of uniform
    subdivisions) must be at least two and strictly increasing.

    The blocks between projections are the diagonal blocks of centered
    Hermitian Gaussians, each drawn on its own trial and mesh stream.
    """
    if word_len < 1:
        raise ValueError("word length k must be >= 1")
    if len(meshes) < 2:
        raise ValueError("need at least two meshes to compare")
    if any(cur <= prev for prev, cur in itertools.pairwise(meshes)):
        raise ValueError(f"meshes must be strictly increasing, got {list(meshes)}")
    d = cfg.dim
    blocks = {n: [(lo, hi) for lo, hi in itertools.pairwise(itertools.accumulate(
        projection_ranks(Subdivision.uniform(n), d), initial=0)) if hi > lo] for n in meshes}

    def worst_norm(job):
        n, trial = job
        rng = trial_rng(cfg.seed, trial, stream=n)
        worst = 0.0
        for lo, hi in blocks[n]:
            block = None
            for _ in range(word_len):
                z = hermitian_gaussian(rng, d, slice(lo, hi))
                block = z if block is None else block @ z
            worst = max(worst, float(np.linalg.norm(block, 2)))
        return worst

    norms = _map_trials(worst_norm, [(n, trial) for n in meshes for trial in range(cfg.trials)])
    records = []
    for j, n in enumerate(meshes):
        est, se = _mean_stderr(norms[j * cfg.trials:(j + 1) * cfg.trials])
        records.append({
            "d": d, "N": n, "trial_count": cfg.trials, "k": word_len,
            "mesh": 1.0 / n, "estimate": est, "stderr": se, "reference": 0.0,
            "rate_bound": (1.0 / n) ** (1.0 / (2 * word_len)), "seed": cfg.seed,
        })
    for prev, cur in zip(records, records[1:]):
        cur["pass"] = cur["estimate"] <= prev["estimate"] + 2 * (cur["stderr"] + prev["stderr"])
    records[0]["pass"] = True
    return records


def main_theorem_matrix_residual(p: Partition, cfg: MatrixEnsembleConfig,
                                 sub: Subdivision) -> dict:
    """Relative Frobenius residual of St_p against the scalar-times-
    off-diagonal form, averaged over trials.

    Only the rate-1 constant-cumulant model has the exact matrix form, so
    the inner-class scalars are all |[0,t)| = t.  Both St sums walk every
    coarsening of their pattern, so p's arity and the brute-force work of
    the crossing ones are bounded before the first draw.  So is a St_p that
    is identically 0, whose relative residual would be rounding noise over
    rounding noise: p with more blocks than intervals of nonzero rank.  And
    so is a p with no inner block, an interval partition, whose right side
    is St of 0-hat on the blocks' diagonals: the same sum as St_p, so the
    residual would be 0 by construction.
    """
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    if cfg.model != "poisson_sps":
        raise ValueError("the matrix main-theorem check runs on poisson_sps")
    if p.k > MAX_PRODUCT_ARITY:
        raise SizeGuardError(f"matrix St arity {p.k} exceeds guard {MAX_PRODUCT_ARITY}")
    split = classify_classes(p)
    sides = (p, Partition.zero_hat(len(split.outer)))
    matmuls = sum(sub.n**sigma.num_blocks * q.k for q in sides
                  for sigma in coarsenings(q) if not is_noncrossing(sigma))
    if matmuls > MAX_MATMULS:
        raise SizeGuardError(f"brute-force Pr sums need {matmuls} matmuls per trial "
                             f"> {MAX_MATMULS}")
    intervals = sum(1 for r in projection_ranks(sub, cfg.dim) if r)
    if p.num_blocks > intervals:  # no tuple puts the blocks on distinct intervals
        raise ValueError(f"St_p of {p} is identically 0: {p.num_blocks} blocks, more than "
                         f"the {intervals} of {sub.n} intervals with nonzero rank")
    if not split.inner:
        raise ValueError(f"{p} has no inner block: both sides are the same sum St_p")
    scalar = float(sub.t) ** len(split.inner)
    spec = make_tuple(make_free_poisson(1), "identical", k=p.k)
    rels, traces = [], []
    for trial in range(cfg.trials):
        inc = sample_increments(spec, sub, cfg, trial)
        left = st_matrix(p, inc)
        derived = derived_increments(inc, split.outer)
        right = scalar * st_matrix(Partition.zero_hat(len(split.outer)), derived)
        denom = np.linalg.norm(left, "fro")
        rels.append(float(np.linalg.norm(left - right, "fro") / denom))
        traces.append(normalized_trace(left))
    est, se = _mean_stderr(rels)
    tr_est, tr_se = _mean_stderr(traces)
    return {
        "d": cfg.dim, "N": sub.n, "trial_count": cfg.trials,
        "partition": str(p), "estimate": est, "stderr": se, "reference": 0.0,
        "trace_mean": tr_est, "trace_stderr": tr_se, "seed": cfg.seed,
    }
