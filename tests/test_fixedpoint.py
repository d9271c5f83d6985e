"""The fixed-point head layer: its intervals contain the exact sums it stands for."""

import math
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import mpmath
import pytest
from mpmath.libmp import from_man_exp, mpf_add
from hypothesis import given, settings, strategies as st

from eulersum import OracleConfig, PrecisionContext, SumId, oracle, partial_sum
from eulersum.exact import bernoulli
from eulersum.exact import _prefix
from eulersum.numerics import (
    BigReal,
    FixedPoint,
    _abs_coeffs,
    _boole_deriv,
    _em_deriv,
    _float_up,
    _pl_length,
    _pl_table,
    _pl_tail,
    _remainder,
    _scaled_up,
    const_gamma,
    const_log2,
    const_pi,
    fixed_dot,
    li4_half_num,
    zeta_num,
)
from eulersum.oracle import _weighted_head
from eulersum.sums import Series


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
    v, w = BigReal.from_fraction(q, ctx), BigReal.from_fraction(err * F(1, 2**bits), ctx)
    v = BigReal(ctx, v.value_tuple(), mpf_add(v.err_tuple(), w.upper_tuple(), 80, "u"))
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


def _abs_exact(terms, m: int, N: int) -> tuple[F, F]:
    """(X, Y) with X + Y ln N = sum over the terms (a + b ln x) x^-p of
    (p)_m / (q-1) N^(1-q) (|a| + |b| (H(p, m) + 1/(q-1) + ln N)), q = p + m,
    which bounds Int_N^inf |f^(m)| from above."""
    X = Y = F(0)
    for a, b, p in terms:
        q = p + m
        r = F(_poch(p, m), (q - 1) * N ** (q - 1))
        X += r * (abs(a) + abs(b) * (_hslice_fraction(p, m) + F(1, q - 1)))
        Y += r * abs(b)
    return X, Y


def _scale_up(scale: tuple) -> F:
    """An upper end of a remainder scale (c, base, k), c (base pi)^-k, pi
    bracketed by mpmath at 2,000 bits."""
    c, base, k = scale
    with mpmath.workprec(2000):
        pi_lo = _frac(mpmath.pi._mpf_) - F(1, 2**1996)
    return F(c) / (base * pi_lo) ** k


def _tail_holds(fx: FixedPoint, rule: str, exact, tail, N: int, K: int, h: int, ln: F, eps: F) -> bool:
    """Whether _pl_tail's value encloses the exact tail of the Fraction formula,
    and its bound is at least the remainder bound's scale times the exact
    bound on Int_N^inf |f^(m)| (the integrals of the derivatives of the
    terms' parts, as in _abs_exact)."""
    value, bound = _pl_tail(rule, tail, N, K, fx, h)
    if not _encloses(fx, value(), *_tail_exact(exact, N, _derivs(rule, K), rule == "em", h), ln, eps):
        return False
    m, scale = _remainder(rule, K, h)
    X, Y = _abs_exact(exact, m, N)
    return F(bound, fx.one) >= (X + Y * (ln + eps)) * _scale_up(scale)


def _ln_bracket(N: int) -> F:
    with mpmath.workprec(2000):
        return _frac(mpmath.log(N)._mpf_)


_coeff = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from([64, 192, 512]),
    K=st.integers(0, 40),
    N=st.sampled_from([1, 32, 100, 1000, 4096]),
    h=st.sampled_from([1, 2]),
    terms=st.lists(st.tuples(_coeff, _coeff, st.integers(2, 12), st.booleans(), st.booleans()), min_size=1, max_size=3),
)
def test_fixed_point_tails_enclose_the_exact_values(bits, K, N, h, terms):
    # the derivative recurrence (numerics._pl_tail) against exact rationals:
    # its value (Euler-Maclaurin of step h, and Boole) encloses the Fraction
    # formula of the tail, and its bound is at least the remainder's scale
    # times the exact bound on Int |f^(m)|; a and b given as rationals or as
    # BigReals, whose intervals hold them
    ctx = PrecisionContext(working_bits=bits)
    fx = FixedPoint(ctx, N)
    exact = [(a, b, p) for a, b, p, _, _ in terms]
    tail = [(BigReal.from_fraction(a, ctx) if big_a else a, BigReal.from_fraction(b, ctx) if big_b else b, p)
            for a, b, p, big_a, big_b in terms]
    ln, eps = _ln_bracket(N), F(1, 2**1980)
    assert _tail_holds(fx, "em", exact, tail, N, K, h, ln, eps)
    assert _tail_holds(fx, "boole", exact, tail, N, K, 1, ln, eps)


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
    # each term divides the weight by base^s, so its counted error is
    # ceil(we / base^s) + 1: at least the unit of its floor, at most 3 units
    # at n = 1 and 2 after it
    kind, shift, s, *alternating = args
    fx = FixedPoint(ctx, N)
    head = _weighted_head(kind, shift, s, N, fx, *alternating)
    assert _pair_contains(fx, head, partial_sum(sid, N))
    assert N <= head[1] <= 3 * N


@pytest.mark.parametrize("series", [
    pytest.param(SumId.sigma(2, 3).series, id="sigma(2, 3)"),
    pytest.param(SumId.alt_tilde_h(1).series, id="AltTildeH(1)"),
    Series("H", 2, None, 3, True),
    Series("Ht", 2, None, 2, False),
], ids=str)
def test_split_and_tilde_heads_count_the_floor_of_every_term(series, ctx, monkeypatch):
    # every remainder-split head, of either sign pattern, divides |r_n| by n^s
    # within at least one unit, so the term n = N + 1 adds at least that unit
    # and one for its floor
    heads = []
    monkeypatch.setattr(oracle, "_sum", lambda cfg, plans, head, ctx: heads.append(head))
    oracle._evaluate(series, OracleConfig(1e-20), ctx)
    for N in (0, 37, 300, 1000):
        fx = FixedPoint(ctx, N + 1)
        assert heads[0](N + 1, fx)[1] - heads[0](N, fx)[1] >= 2, N


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
    up = _scaled_up(x, (c, base, k))
    assert up >= x * c / (base * (mid - ulp)) ** k
    assert up <= x * c / (base * (mid + ulp)) ** k * (1 + F(1, 2**40)) + 1


@pytest.mark.parametrize("bits", [1024, 2048, 4096])
def test_constants_contain_mpmath_at_twice_the_precision(bits):
    # each bound counts one rounding to working_bits: zeta's is that rounding
    # (2^(1 - bits) for a value in [1, 2)), the remainder, at most
    # 2^-(bits + 4), and the fixed-point floors; pi's, ln 2's and gamma's is
    # one ulp and their series' error at working_bits + 40 bits; so a bound
    # that counts a second rounding fails here
    ctx = PrecisionContext(working_bits=bits)
    tight = F(2) ** (3 - bits)
    with mpmath.workprec(2 * bits):
        for s in range(2, 14):
            z = zeta_num(s, ctx)
            assert _contains(z, _frac(mpmath.zeta(s)._mpf_)), s
            assert _frac(z.err_tuple()) <= F(2) ** (1 - bits) + F(2) ** -(bits + 3), s
        li4 = li4_half_num(ctx)
        assert _contains(li4, _frac(mpmath.polylog(4, mpmath.mpf(1) / 2)._mpf_))
        assert _frac(li4.err_tuple()) < tight
        for const, ref in ((const_pi, mpmath.pi), (const_log2, mpmath.ln2), (const_gamma, mpmath.euler)):
            c = const(ctx)
            _, _, exp, bc = c.value_tuple()
            assert _contains(c, _frac(ref._mpf_)), const.__name__
            assert _frac(c.err_tuple()) <= F(2) ** (exp + bc - bits) + F(2) ** -(bits + 37), const.__name__


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
    # the Fraction formula of each power's tail coefficients, (p)_m built from
    # scratch for each derivative order m: the table of step 1 that the oracle's
    # expansions read matches it entry for entry, each a reduced fraction with a
    # positive denominator (the first entries of one prefix list per (p, rule),
    # grown across the orders of every test that reads it); and the derivative
    # recurrence, for a term x^-p (R) and x^-p ln x (R ln N + Q) at steps 1 and
    # 2, encloses the sum (a/b) N^-j of its entries
    ctx, N = PrecisionContext(working_bits=256), 1000
    fx, ln, eps = FixedPoint(ctx, N), _ln_bracket(N), F(1, 2**1980)
    for p in range(1, 25):
        n = _pl_length(p, rule, K)
        table = tuple(_prefix(_pl_table(p, rule), n)[:n])
        assert table == _pl_coeffs_direct(p, rule, K, 1, False), p
        assert all(b > 0 and math.gcd(a, b) == 1 for _, a, b in table), p
        if rule == "em" and p == 1:
            continue  # the integral diverges; only the expansions read this table
        for h in (1, 2) if rule == "em" else (1,):
            R, Q = (sum((F(a, b) / F(N) ** j for j, a, b in _pl_coeffs_direct(p, rule, K, h, log)), F(0))
                    for log in (False, True))
            assert _encloses(fx, _pl_tail(rule, [(1, 0, p)], N, K, fx, h)[0](), R, F(0), ln, eps), (p, h)
            assert _encloses(fx, _pl_tail(rule, [(0, 1, p)], N, K, fx, h)[0](), Q, R, ln, eps), (p, h)


@pytest.mark.parametrize("m", [*range(41), 80, 512])
def test_abs_coeffs_and_hslice_match_the_fraction_formulas(m):
    # Int_N^inf |f^(m)| for f = x^-p: the oracle's table of it (_abs_coeffs)
    # matches the Fraction formula; and the bound of the derivative recurrence
    # whose remainder is of order m (Euler-Maclaurin for even m, Boole for odd
    # m), for x^-p and for x^-p ln x, whose bound needs H(p, m) (the running
    # v = H w of the recurrence), is at least the scale times the Fraction
    # formula with H(p, m) a running Fraction sum
    ctx, N = PrecisionContext(working_bits=256), 1000
    fx, ln, eps = FixedPoint(ctx, N), _ln_bracket(N), F(1, 2**1980)
    rule, K = ("em", m // 2) if m % 2 == 0 else ("boole", m) if m > 1 else ("em", 0)
    for p in range(2, 25):
        assert _abs_coeffs.__wrapped__(p, m) == ((p + m - 1, _poch(p, m), p + m - 1),), p
        if not m:
            continue  # no tail rule's remainder is of order 0
        assert _remainder(rule, K)[0] == m
        for a, b in ((1, 0), (0, 1)):
            _, bound = _pl_tail(rule, [(a, b, p)], N, K, fx)
            X, Y = _abs_exact([(a, b, p)], m, N)
            assert F(bound, fx.one) >= (X + Y * (ln + eps)) * _scale_up(_remainder(rule, K)[1]), (p, a, b)


def test_derivative_coefficients_match_the_fraction_formulas():
    for k in range(1, 301):
        assert _em_deriv(k) == (-bernoulli(2 * k) / math.factorial(2 * k), 2 * k - 1), k
        e_k = 2 * (1 - 2 ** (k + 1)) * bernoulli(k + 1) / (k + 1)
        assert _boole_deriv(k) == (e_k / (2 * math.factorial(k)), k), k
