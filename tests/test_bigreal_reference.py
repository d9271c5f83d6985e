"""BigReal and the library constants against independent references: exact
rationals for the four field operations, mpmath at twice the precision for
ln, integer powers, pi, log 2, Euler's gamma and the powers of pi."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from eulersum import PrecisionContext, PrecisionExhausted
from eulersum.numerics import BigReal, const_gamma, const_log2, const_pi, pi_power


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


@settings(max_examples=60, deadline=None)
@given(bits=st.sampled_from([64, 192, 1024, 4096]), base=st.integers(1, 4), k=st.integers(1, 600))
def test_pi_power_contains_mpmath_at_twice_the_precision(bits, base, k):
    ctx = PrecisionContext(working_bits=bits)
    v = pi_power(base, k, ctx)
    assert v.ctx == ctx and pi_power(base, k, ctx).value_tuple() == v.value_tuple()
    with mpmath.workprec(2 * bits):
        assert _near_mpmath(v, (base * mpmath.pi()) ** -k)


@pytest.mark.parametrize("base, k", [(1, 0), (2, -1), (0, 3)])
def test_pi_power_rejects_non_positive_arguments(base, k):
    with pytest.raises(ValueError):
        pi_power(base, k, PrecisionContext(working_bits=128))
