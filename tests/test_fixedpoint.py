"""The fixed-point head layer: its intervals contain the exact sums it stands for."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from eulersum import PrecisionContext, SumId, partial_sum
from eulersum.numerics import BigReal, FixedPoint, LRUCache, li4_half_num, zeta_num
from eulersum.oracle import _alt_euler_star_head, _weighted_head


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _contains(v: BigReal, exact: F) -> bool:
    return abs(exact - _frac(v.value_tuple())) <= _frac(v.err_tuple())


_factors = st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 6)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(64, 1024),
    seed=st.fractions(min_value=-10, max_value=10, max_denominator=10**9),
    terms=st.lists(st.tuples(st.sampled_from([1, -1]), _factors), min_size=1, max_size=20),
)
def test_fixed_sum_of_reciprocal_products_contains_exact(bits, seed, terms):
    ctx = PrecisionContext(working_bits=bits)
    fx = FixedPoint(ctx, len(terms))
    acc, err = fx.from_big(BigReal.from_fraction(seed, ctx))
    exact = seed
    for sign, factors in terms:
        x, ex = sign * fx.one, 0
        prod = F(sign)
        for base, p in factors:
            x, ex = fx.mul(x, ex, fx.recip(base, p), 1)
            prod /= F(base) ** p
        acc += x
        err += ex
        exact += prod
    assert _contains(fx.to_big(acc, err), exact)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(64, 1024),
    x=st.integers(-(2**1100), 2**1100),
    ex=st.integers(0, 2**600),
    y=st.integers(-(2**1100), 2**1100),
    ey=st.integers(0, 2**600),
)
def test_fixed_mul_bounds_the_extreme_inputs(bits, x, ex, y, ey):
    # every pair of inputs at the ends of their error intervals lies within
    # the product's error bound of the floored product
    fx = FixedPoint(PrecisionContext(working_bits=bits), 1)
    z, ez = fx.mul(x, ex, y, ey)
    for dx in (-ex, ex):
        for dy in (-ey, ey):
            assert abs(F((x + dx) * (y + dy), fx.one) - z) <= ez


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(64, 1024),
    q=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
    err=st.fractions(min_value=0, max_value=1, max_denominator=10**12),
)
def test_fixed_from_big_and_to_big_keep_the_interval(bits, q, err):
    ctx = PrecisionContext(working_bits=bits)
    v = BigReal.from_fraction(q, ctx).widened(BigReal.from_fraction(err * F(1, 2**bits), ctx).upper_tuple())
    fx = FixedPoint(ctx, 1)
    x, ex = fx.from_big(v)
    for end in (_frac(v.value_tuple()) - _frac(v.err_tuple()), _frac(v.value_tuple()) + _frac(v.err_tuple())):
        assert abs(end * fx.one - x) <= ex
    back = fx.to_big(x, ex)
    for end in (F(x - ex, fx.one), F(x + ex, fx.one)):
        assert _contains(back, end)


# (SumId, _weighted_head arguments) for each family the oracle sums with a plain weight
_WEIGHTED = [
    (SumId.J(2), ("S", None, 2)),
    (SumId.Jbar(3), ("S", -1, 3)),
    (SumId.sigma(4, 1), ("S", None, 4)),
    (SumId.h(3), ("H", 1, 3)),
    (SumId.Z(1), ("H2N", None, 2)),
    (SumId.hodd_over_odd(2), ("H2N1", -1, 4)),
    (SumId.euler_star(3), ("H", None, 3)),
]


@pytest.mark.parametrize("N", [1, 37, 300])
@pytest.mark.parametrize("sid,args", _WEIGHTED, ids=[str(s) for s, _ in _WEIGHTED])
def test_weighted_head_brackets_partial_sum(sid, args, N, ctx):
    kind, kern_c, s = args
    assert _contains(_weighted_head(kind, kern_c, s, N, ctx), partial_sum(sid, N))


@pytest.mark.parametrize("N", [1, 37, 300])
@pytest.mark.parametrize("a", [1, 2])
def test_alt_euler_star_head_brackets_partial_sum(a, N, ctx):
    assert _contains(_alt_euler_star_head(2 * a, N, ctx), partial_sum(SumId.alt_euler_star(a), N))


@pytest.mark.parametrize("bits", [1024, 4096])
def test_constants_contain_mpmath_at_twice_the_precision(bits):
    ctx = PrecisionContext(working_bits=bits)
    with mpmath.workprec(2 * bits):
        for s in (2, 3, 5, 12):
            assert _contains(zeta_num(s, ctx), _frac(mpmath.zeta(s)._mpf_)), s
        assert _contains(li4_half_num(ctx), _frac(mpmath.polylog(4, mpmath.mpf(1) / 2)._mpf_))


def test_lru_cache_keeps_the_most_recently_used():
    cache = LRUCache(2)
    cache.get("a", lambda: 1)
    cache.get("b", lambda: 2)
    assert cache.get("a", lambda: -1) == 1  # hit; "b" is now the oldest
    cache.get("c", lambda: 3)
    assert cache.get("c", lambda: -3) == 3
    assert cache.get("b", lambda: -2) == -2  # evicted by "c", so rebuilt; this evicts "a"
    assert cache.get("a", lambda: -1) == -1
