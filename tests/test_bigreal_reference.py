"""BigReal and the library constants against independent references: exact
rationals for the four field operations, mpmath at twice the precision for
ln, integer powers, pi, log 2, Euler's gamma and the powers of pi, and at four
times 80 bits for the powers of pi in the remainder bounds' scales."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from eulersum import PrecisionContext, PrecisionExhausted
from eulersum.numerics import _EPREC, BigReal, _pi_power_up, const_gamma, const_log2, const_pi


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _contains(v: BigReal, exact: F) -> bool:
    return abs(exact - _frac(v.value_tuple())) <= _frac(v.err_tuple())


def _near_mpmath(v: BigReal, ref) -> bool:
    """v's interval, widened by one unit in the last place of ref, contains ref."""
    ref_ulp = F(2) ** (ref.exp + ref.bc - mpmath.mp.prec) if ref else F(0)
    return abs(_frac(ref._mpf_) - _frac(v.value_tuple())) <= _frac(v.err_tuple()) + ref_ulp


_leaves = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)
_trees = st.recursive(
    _leaves,
    lambda sub: st.tuples(st.sampled_from("+-*/"), sub, sub),
    max_leaves=12,
)


def _eval(tree, ctx):
    """(BigReal, exact Fraction) of an expression tree."""
    if isinstance(tree, F):
        return BigReal.from_fraction(tree, ctx), tree
    op, left, right = tree
    (x, qx), (y, qy) = _eval(left, ctx), _eval(right, ctx)
    if op == "+":
        return x + y, qx + qy
    if op == "-":
        return x - y, qx - qy
    if op == "*":
        return x * y, qx * qy
    assume(qy != 0)
    return x / y, qx / qy


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(64, 1024), tree=_trees)
def test_expression_tree_interval_contains_exact_value(bits, tree):
    ctx = PrecisionContext(working_bits=bits)
    try:
        v, exact = _eval(tree, ctx)
    except PrecisionExhausted:
        assume(False)  # a divisor too close to zero for its error bound
    assert _contains(v, exact)


_positive = st.fractions(min_value=F(1, 10**9), max_value=10**9, max_denominator=10**9)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(64, 1024), x=_positive)
def test_ln_contains_mpmath_at_twice_the_precision(bits, x):
    ctx = PrecisionContext(working_bits=bits)
    v = BigReal.from_fraction(x, ctx).ln()
    with mpmath.workprec(2 * bits):
        # ln of x's rounded BigReal value, so only ln's own error is tested
        ref = mpmath.log(mpmath.mpf(BigReal.from_fraction(x, ctx).value_tuple()))
        assert _near_mpmath(v, ref)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(64, 1024), x=_positive, n=st.integers(-12, 12))
def test_integer_power_contains_mpmath_at_twice_the_precision(bits, x, n):
    ctx = PrecisionContext(working_bits=bits)
    base = BigReal.from_fraction(x, ctx)
    v = base**n
    with mpmath.workprec(2 * bits):
        ref = mpmath.mpf(base.value_tuple()) ** n
        assert _near_mpmath(v, ref)


@pytest.mark.parametrize("bits", [192, 1024, 4096])
def test_constants_contain_mpmath_at_twice_the_precision(bits):
    ctx = PrecisionContext(working_bits=bits)
    with mpmath.workprec(2 * bits):
        assert _near_mpmath(const_pi(ctx), mpmath.pi())
        assert _near_mpmath(const_log2(ctx), mpmath.log(2))
        assert _near_mpmath(const_gamma(ctx), mpmath.euler())


def test_remainder_scale_pi_powers_are_upper_ends_within_2_to_the_minus_70():
    # the (base pi)^-k of every remainder scale (_scaled_up), man 2^-t from
    # the lower end of pi at 80 bits: at least the power mpmath gives at four
    # times that precision, and within 2^-70 relative of it for k <= 1024, so
    # no power is rounded to a fixed number of bits after the point
    with mpmath.workprec(4 * _EPREC):
        for base in (1, 2):
            for k in range(1, 1025):
                man, t = _pi_power_up.__wrapped__(base, k)
                ref = _frac(((base * mpmath.pi()) ** -k)._mpf_)
                assert ref <= F(man, 2**t) <= ref * (1 + F(1, 2**70)), (base, k)
