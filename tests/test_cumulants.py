import json
import math
import random
from fractions import Fraction

import pytest

from freestoch.cumulants import (
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    cumulant_functional_from_json,
    functional_to_json,
    moment_functional,
    moment_functional_from_json,
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
    back = cumulant_functional_from_json(json.loads(blob))
    assert back.values == r.values and back.k == r.k
    m = moment_functional(r)
    back_m = moment_functional_from_json(json.loads(json.dumps(functional_to_json(m))))
    assert back_m.values == m.values


def test_functional_must_cover_all_subsets():
    with pytest.raises(ValueError):
        MomentFunctional(2, {(1,): Fraction(1)})
