import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from freestoch import cumulants
from freestoch.cumulants import (
    MAX_TRANSFORM_ORDER,
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    functional_to_json,
    moment_functional,
    nonempty_subsets,
)
from freestoch.errors import DimensionError
from freestoch.partitions import Partition, enumerate_noncrossing

from helpers import cumulants_from_moments, moments_from_cumulants, on_partition, one_hat


def _first(n):
    return tuple(range(1, n + 1))


def test_free_poisson_moments():
    r = CumulantFunctional.from_single_variable(4, [1, 1, 1, 1])
    m = moment_functional(r)
    assert [m.values[_first(n)] for n in range(1, 5)] == [1, 2, 5, 14]


def test_semicircular_moments():
    r = CumulantFunctional.from_single_variable(4, [0, 1, 0, 0])
    m = moment_functional(r)
    assert m.values[_first(2)] == 1
    assert m.values[_first(4)] == 2
    assert m.values[_first(1)] == 0 and m.values[_first(3)] == 0


def test_first_moment_is_first_cumulant():
    r = CumulantFunctional.from_single_variable(1, [Fraction(7, 3)])
    assert moments_from_cumulants(r) == Fraction(7, 3)


def test_catalan_moments_invert_to_constant_cumulants():
    m = MomentFunctional.from_single_variable(6, [1, 2, 5, 14, 42, 132])
    r = cumulant_functional(m)
    assert all(r.values[b] == 1 for b in nonempty_subsets(6))


def test_semicircular_inversion():
    m = MomentFunctional.from_single_variable(4, [0, 1, 0, 2])
    r = cumulant_functional(m)
    assert r.values[_first(2)] == 1
    assert r.values[_first(4)] == 0


def _random_cumulants(rng, k):
    values = {
        b: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for b in nonempty_subsets(k)
    }
    return CumulantFunctional(k, values)


def test_roundtrip_on_random_rational_functionals():
    rng = random.Random(20260810)
    for _ in range(25):
        k = rng.randint(1, 5)
        r = _random_cumulants(rng, k)
        back = cumulant_functional(moment_functional(r))
        assert back.values == r.values
        m = moment_functional(r)
        again = moment_functional(cumulant_functional(m))
        assert again.values == m.values


def test_partitioned_values_are_products_over_blocks():
    rng = random.Random(7)
    r = _random_cumulants(rng, 5)
    m = moment_functional(r)
    for p in enumerate_noncrossing(5):
        prod_r = Fraction(1)
        prod_m = Fraction(1)
        for block in p.blocks:
            prod_r *= r.values[block]
            prod_m *= m.values[block]
        assert on_partition(r, p) == prod_r
        assert on_partition(m, p) == prod_m


def test_partial_moments_respect_refinement_sum():
    rng = random.Random(99)
    r = _random_cumulants(rng, 4)
    m = moment_functional(r)
    for p in enumerate_noncrossing(4):
        assert moments_from_cumulants(r, p) == on_partition(m, p)
        assert cumulants_from_moments(m, p) == on_partition(r, p)


def test_arity_mismatch():
    r = CumulantFunctional.from_single_variable(3, [1, 1, 1])
    with pytest.raises(DimensionError):
        moments_from_cumulants(r, one_hat(4))


def test_norm_bound_propagation():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 4)
        norms = tuple(Fraction(rng.randint(1, 3)) for _ in range(k))
        values = {}
        for b in nonempty_subsets(k):
            cap = Fraction(1)
            for i in b:
                cap *= norms[i - 1]
            num = Fraction(rng.randint(-int(cap), int(cap)))
            values[b] = num
        m = MomentFunctional(k, values)
        r = cumulant_functional(m)
        # |R(B)| <= 16^|B| times the product of the component norms
        for b, value in r.values.items():
            bound = Fraction(16) ** len(b) * math.prod(norms[i - 1] for i in b)
            assert abs(value) <= bound, (b, value)


def test_json_roundtrip():
    r = CumulantFunctional(2, {(1,): Fraction(1, 2), (2,): Fraction(3),
                               (1, 2): Fraction(-5, 7)})
    blob = json.dumps(functional_to_json(r))
    back = CumulantFunctional.from_json(json.loads(blob))
    assert back == r and type(back) is CumulantFunctional
    m = moment_functional(r)
    back_m = MomentFunctional.from_json(json.loads(json.dumps(functional_to_json(m))))
    assert back_m == m and type(back_m) is MomentFunctional


def test_functional_must_cover_all_subsets():
    with pytest.raises(ValueError):
        MomentFunctional(2, {(1,): Fraction(1)})


def test_the_subset_table_is_nonempty_subsets_with_masks_and_sizes():
    for k in range(1, MAX_TRANSFORM_ORDER + 1):
        rows, subsets = cumulants._subset_table(k)
        assert rows == tuple((b, sum(1 << (i - 1) for i in b), len(b))
                             for b in nonempty_subsets(k))
        assert subsets == set(nonempty_subsets(k))


def test_nonempty_subsets_returns_a_fresh_list():
    first = nonempty_subsets(2)
    first.append((3,))
    assert nonempty_subsets(2) == [(1,), (2,), (1, 2)]
    assert nonempty_subsets(2) is not nonempty_subsets(2)


@pytest.mark.parametrize("values, message", [
    ({(1,): 1, (2,): 1, (1, 3): 1},
     "functional must cover all nonempty subsets of [2]; missing [(1, 2)]..., extra [(1, 3)]..."),
    ({(1,): 1, (2,): 1, (1, 2): 1, (3,): 1},
     "functional must cover all nonempty subsets of [2]; missing []..., extra [(3,)]..."),
    ({(1,): 1, (2,): 1}, "functional on [2] needs 2^2 - 1 values, got 2"),
])
def test_a_functional_names_its_missing_and_extra_subsets_or_its_count(values, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        MomentFunctional(2, values)


def test_the_subset_table_cache_is_bounded_and_empty_at_import():
    for k in range(1, MAX_TRANSFORM_ORDER + 2):
        MomentFunctional.from_single_variable(k, [1] * k)
    info = cumulants._subset_table.cache_info()
    assert info.maxsize == MAX_TRANSFORM_ORDER and info.currsize <= MAX_TRANSFORM_ORDER
    src = pathlib.Path(cumulants.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = ("import freestoch.cli\nfrom freestoch import cumulants\n"
              "print(cumulants._subset_table.cache_info().currsize)")
    fresh = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    assert fresh.stdout == "0\n"  # built on first use, not at import
