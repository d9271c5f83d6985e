"""The fixed-point head layer: its intervals contain the exact sums it stands for."""

import math
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import mpmath
import pytest
from mpmath.libmp import from_man_exp
from hypothesis import given, settings, strategies as st

from eulersum import PrecisionContext, SumId, partial_sum
from eulersum.exact import bernoulli
from eulersum.numerics import (
    BigReal,
    FixedPoint,
    _abs_coeffs,
    _abs_integral,
    _boole_deriv,
    _em_deriv,
    _float_up,
    _hslice,
    _pl_coeffs,
    _scaled_up,
    _tail_value,
    fixed_dot,
    li4_half_num,
    zeta_num,
)
from eulersum.oracle import _weighted_head


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _contains(v: BigReal, exact: F) -> bool:
    return abs(exact - _frac(v.value_tuple())) <= _frac(v.err_tuple())


def _pair_contains(fx: FixedPoint, pair: tuple[int, int], exact: F) -> bool:
    x, e = pair
    return abs(exact - F(x, fx.one)) <= F(e, fx.one)


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


_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(64, 1024),
    pairs=st.lists(st.tuples(_rationals, _rationals, st.integers(0, 3)), max_size=12),
)
def test_fixed_dot_contains_the_exact_combination(bits, pairs):
    # each v is a BigReal rounding of a rational, widened by up to 3 of its ulps
    # plus a rounded product, so some errors are not fixed-point units
    ctx = PrecisionContext(working_bits=bits)
    terms, exact = [], F(0)
    for c, q, widen in pairs:
        v = BigReal.from_fraction(q, ctx)
        for _ in range(widen):
            v = v * BigReal.from_fraction(F(1, 3), ctx) * 3
        terms.append((c, v))
        exact += c * q
    d = fixed_dot(terms, ctx)
    assert _contains(d, exact)
    # the bound is the inputs' errors scaled by |c|, plus at most 2 |c| + 2
    # units of the sum for each term's roundings, plus the final rounding
    inputs = sum((abs(c) * _frac(v.err_tuple()) for c, v in terms), F(0))
    unit = F(1, 2 ** FixedPoint(ctx, len(terms)).prec)
    rounding = sum((2 * abs(c) + 2) * unit for c, _ in terms) + abs(_frac(d.value_tuple())) * F(2) ** (1 - bits)
    assert inputs <= _frac(d.err_tuple()) <= (inputs + rounding) * (1 + F(1, 2**70))


def test_fixed_dot_of_exact_inputs_is_exact():
    ctx = PrecisionContext(working_bits=128)
    d = fixed_dot([(F(3, 4), BigReal.from_int(8, ctx)), (-1, BigReal.from_int(6, ctx))], ctx)
    assert d.is_exact and float(d) == 0
    seven = BigReal.from_int(7, ctx)
    d = fixed_dot([(F(1, 3), seven)], ctx)
    assert not d.is_exact and _contains(d, F(7, 3))
    # the two floors are one unit apart: only their counted error covers 0
    assert _contains(fixed_dot([(F(1, 3), seven), (F(-1, 3), seven)], ctx), F(0))


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


def _poch(p: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= p + i
    return out


def _tail_exact(terms, N: int, derivs, integral: bool, h: int = 1) -> tuple[F, F]:
    """(X, Y) with X + Y ln N = [Int_N^inf f / h] + sum_(c, m) c h^m f^(m)(N), f
    the sum of the terms (a + b ln x) x^-p, in exact rationals."""
    X = Y = F(0)
    for a, b, p in terms:
        R = Q = F(0)
        if integral:
            R, Q = F(1, h * (p - 1) * N ** (p - 1)), F(1, h * (p - 1) ** 2 * N ** (p - 1))
        for c, m in derivs:
            r = c * h**m * (-1) ** m * _poch(p, m) / F(N) ** (p + m)
            R += r
            Q -= r * sum((F(1, p + i) for i in range(m)), F(0))
        X += a * R + b * Q
        Y += b * R
    return X, Y


def _encloses(fx: FixedPoint, pair: tuple[int, int], X: F, Y: F, ln: F, eps: F) -> bool:
    """Whether the interval of the pair on fx holds X + Y l for every l within eps of ln."""
    mid, err = F(pair[0], fx.one), F(pair[1], fx.one)
    return all(mid - err <= X + Y * (ln + d) <= mid + err for d in (-eps, eps))


_coeff = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from([64, 192, 512]),
    K=st.integers(0, 40),
    N=st.sampled_from([32, 100, 4096]),
    h=st.sampled_from([1, 2]),
    m=st.integers(0, 80),
    terms=st.lists(st.tuples(_coeff, _coeff, st.integers(2, 12), st.booleans(), st.booleans()), min_size=1, max_size=3),
)
def test_fixed_point_tails_enclose_the_exact_values(bits, K, N, h, m, terms):
    # the tail values (Euler-Maclaurin of step h) and the remainder integral,
    # summed in FixedPoint from coefficients that do not depend on N, against
    # exact rationals; a and b given as rationals or as BigReals, whose
    # intervals hold them
    ctx = PrecisionContext(working_bits=bits)
    fx = FixedPoint(ctx, N)
    exact = [(a, b, p) for a, b, p, _, _ in terms]
    tail = [(BigReal.from_fraction(a, ctx) if big_a else a, BigReal.from_fraction(b, ctx) if big_b else b, p)
            for a, b, p, big_a, big_b in terms]
    with mpmath.workprec(2000):
        ln = _frac(mpmath.log(N)._mpf_)
    eps = F(1, 2**1980)
    em = _tail_value("em", tail, N, K, fx, h)
    assert _encloses(fx, em, *_tail_exact(exact, N, _derivs("em", K), True, h), ln, eps)
    boole = _tail_value("boole", tail, N, K, fx)
    assert _encloses(fx, boole, *_tail_exact(exact, N, _derivs("boole", K), False), ln, eps)
    # Int_N^inf |f^(m)| <= sum (p)_m / (q-1) N^(1-q) (|a| + |b| (H(p, m) + 1/(q-1) + ln N)), q = p + m
    X = Y = F(0)
    for a, b, p in exact:
        q = p + m
        r = F(_poch(p, m), (q - 1) * N ** (q - 1))
        X += r * (abs(a) + abs(b) * (sum((F(1, p + i) for i in range(m)), F(0)) + F(1, q - 1)))
        Y += r * abs(b)
    assert _encloses(fx, _abs_integral(tail, m, N, fx), X, Y, ln, eps)


# (SumId, _weighted_head arguments) for each family the oracle sums with a plain
# weight, alternating or not
_WEIGHTED = [
    (SumId.J(2), ("S", None, 2)),
    (SumId.Jbar(3), ("S", -1, 3)),
    (SumId.sigma(4, 1), ("S", None, 4)),
    (SumId.h(3), ("H", 1, 3)),
    (SumId.Z(1), ("H2N", None, 2)),
    (SumId.hodd_over_odd(2), ("H2N1", -1, 4)),
    (SumId.euler_star(3), ("H", None, 3)),
    (SumId.alt_euler_star(1), ("H", None, 2, True)),
    (SumId.alt_euler_star(2), ("H", None, 4, True)),
]


@pytest.mark.parametrize("N", [1, 37, 300])
@pytest.mark.parametrize("sid,args", _WEIGHTED, ids=[str(s) for s, _ in _WEIGHTED])
def test_weighted_head_brackets_partial_sum(sid, args, N, ctx):
    kind, shift, s, *alternating = args
    fx = FixedPoint(ctx, N)
    assert _pair_contains(fx, _weighted_head(kind, shift, s, N, fx, *alternating), partial_sum(sid, N))


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(64, 768),
    x=st.integers(0, 2**1100),
    c=st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6),
    base=st.integers(1, 4),
    k=st.integers(0, 120),
)
def test_scaled_up_is_at_least_the_exact_product(bits, x, c, base, k):
    # a remainder bound x c (base pi)^-k rounded up to an integer, against pi
    # bracketed by mpmath at twice the precision: at least the largest value the
    # bracket allows, and above the least by little more than the ceiling
    with mpmath.workprec(2 * bits):
        mid = _frac(mpmath.pi._mpf_)
    ulp = F(2) ** (2 - 2 * bits)  # pi < 4
    up = _scaled_up(x, (c, base, k), PrecisionContext(working_bits=bits))
    assert up >= x * c / (base * (mid - ulp)) ** k
    assert up <= x * c / (base * (mid + ulp)) ** k * (1 + F(1, 2**40)) + 1


@pytest.mark.parametrize("bits", [1024, 2048, 4096])
def test_constants_contain_mpmath_at_twice_the_precision(bits):
    # each bound is also below 2^(3 - bits); zeta's counts two roundings to
    # working_bits (the head's and the sum's, 2^(1 - bits) each for a value
    # in [1, 2)), the remainder, at most 2^-(bits + 4), and the fixed-point
    # roundings, so a bound that counts more than that fails here
    ctx = PrecisionContext(working_bits=bits)
    tight = F(2) ** (3 - bits)
    with mpmath.workprec(2 * bits):
        for s in range(2, 14):
            z = zeta_num(s, ctx)
            assert _contains(z, _frac(mpmath.zeta(s)._mpf_)), s
            assert _frac(z.err_tuple()) <= F(2) ** (2 - bits) + F(2) ** -(bits + 3) < tight, s
        li4 = li4_half_num(ctx)
        assert _contains(li4, _frac(mpmath.polylog(4, mpmath.mpf(1) / 2)._mpf_))
        assert _frac(li4.err_tuple()) < tight


def _is_least_float_at_or_above(man: int, exp: int) -> bool:
    t = from_man_exp(man, exp)
    up, exact = _float_up(t), _frac(t)
    if math.isinf(up):
        return exact > F(sys.float_info.max)
    return F(math.nextafter(up, -math.inf)) < exact <= F(up)


@pytest.mark.parametrize("man,exp", [(1, -1000), (3, -1075), (5, -1076), (1, -1080), (0, 0)])
def test_float_up_is_the_least_float_at_or_above(man, exp):
    # subnormal values that libmp.to_float(rnd="u") rounds below themselves
    # (5 2^-1076 to 2^-1074) or flushes to 0.0 (2^-1080)
    assert _is_least_float_at_or_above(man, exp)


@settings(max_examples=300, deadline=None)
@given(man=st.integers(1, 2**80), exp=st.integers(-1200, 1000))
def test_float_up_bounds_any_positive_value(man, exp):
    assert _is_least_float_at_or_above(man, exp)


@lru_cache(maxsize=None)
def _hslices_fraction(p: int) -> list[F]:
    """[H(p, 0), ..., H(p, 512)] as running Fraction sums."""
    out = [F(0)]
    for i in range(512):
        out.append(out[-1] + F(1, p + i))
    return out


def _hslice_fraction(p: int, m: int) -> F:
    return _hslices_fraction(p)[m]


def _derivs(rule: str, K: int) -> tuple:
    """((c, m), ...) of the tail rule of order K: -f(N)/2 and -B_2k/(2k)! f^(2k-1)(N)
    for k <= K with "em"; E_k(0)/(2 k!) f^(k)(N) for k = 0 and the odd k < K with "boole"."""
    if rule == "em":
        return ((F(-1, 2), 0), *map(_em_deriv, range(1, K + 1)))
    return ((F(1, 2), 0), *map(_boole_deriv, range(1, K, 2)))


def _pl_coeffs_direct(p: int, rule: str, K: int, h: int, log: bool) -> tuple:
    """_pl_coeffs as a Fraction formula, with (p)_m built from scratch for each
    derivative order m; for p = 1 the integral diverges and has no entry."""
    out = []
    if rule == "em" and p > 1:
        out.append((p - 1, 1, h * (p - 1) ** 2 if log else h * (p - 1)))
    for c, m in _derivs(rule, K):
        a = (-1) ** m * _poch(p, m) * h**m * c
        if log and m:
            a *= -_hslice_fraction(p, m)
        if m or not log:
            out.append((p + m, a.numerator, a.denominator))
    return tuple(out)


@pytest.mark.parametrize("K", sorted({*range(41), 64, 256}))
@pytest.mark.parametrize("rule", ["em", "boole"])
def test_pl_coeffs_match_the_direct_pochhammer_products(rule, K):
    # the tables built in integers against the same coefficients in Fraction
    # arithmetic, entry for entry, each a reduced fraction with a positive
    # denominator; the table of order K is the first entries of one prefix list
    # per (p, rule, h, log), grown across the orders of every test that reads it
    for p, h, log in product(range(1, 25), (1, 2), (False, True)):
        table = tuple(_pl_coeffs(p, rule, K, h, log))
        assert table == _pl_coeffs_direct(p, rule, K, h, log), (p, h, log)
        assert all(b > 0 and math.gcd(a, b) == 1 for _, a, b in table), (p, h, log)


@pytest.mark.parametrize("m", [*range(41), 80, 512])
def test_abs_coeffs_and_hslice_match_the_fraction_formulas(m):
    for p in range(2, 25):
        H = _hslice_fraction(p, m)
        assert _hslice(p, m) == (H.numerator, H.denominator), p
        for log in (False, True):
            h = H + F(1, p + m - 1) if log else F(1)
            expected = ((p + m - 1, _poch(p, m) * h.numerator, (p + m - 1) * h.denominator),)
            assert _abs_coeffs.__wrapped__(p, m, log) == expected, (p, log)


def test_derivative_coefficients_match_the_fraction_formulas():
    for k in range(1, 301):
        assert _em_deriv(k) == (-bernoulli(2 * k) / math.factorial(2 * k), 2 * k - 1), k
        e_k = 2 * (1 - 2 ** (k + 1)) * bernoulli(k + 1) / (k + 1)
        assert _boole_deriv(k) == (e_k / (2 * math.factorial(k)), k), k
