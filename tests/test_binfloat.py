"""binfloat, the integer kernel under BigReal, against mpmath.libmp: the same
tuples for the rounded operations, the same floats and decimal strings, ln
within one ulp, and the constants within their counted error of mpmath's
values at 64 more bits."""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from eulersum import binfloat

_modes = st.sampled_from("nud")


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


@st.composite
def _operands(draw, max_bits=8192):
    """(prec, s, t): two values of at most prec bits, t's exponent sometimes
    more than prec bits away from s's, and either of them sometimes zero."""
    prec = draw(st.integers(53, max_bits))
    exp = draw(st.integers(-20000, 20000))
    gap = draw(st.integers(-prec, prec) | st.integers(prec + 1, 4 * prec) | st.integers(-4 * prec, -prec - 1))
    bound = 2**prec - 1
    s = libmp.from_man_exp(draw(st.integers(-bound, bound)), exp)
    t = libmp.from_man_exp(draw(st.integers(-bound, bound)), exp + gap)
    return prec, s, t


@settings(max_examples=400, deadline=None)
@given(operands=_operands(), rnd=_modes)
def test_arithmetic_returns_libmp_tuples(operands, rnd):
    prec, s, t = operands
    for ours, theirs in ((binfloat.mpf_add, libmp.mpf_add), (binfloat.mpf_sub, libmp.mpf_sub),
                         (binfloat.mpf_mul, libmp.mpf_mul)):
        assert ours(s, t, prec, rnd) == theirs(s, t, prec, rnd), ours.__name__
    if t != libmp.fzero:
        assert binfloat.mpf_div(s, t, prec, rnd) == libmp.mpf_div(s, t, prec, rnd)
    assert binfloat.mpf_lt(s, t) == libmp.mpf_lt(s, t)


def test_a_tiny_error_added_rounding_up_still_rounds_up():
    one, tiny = binfloat.from_int(1), binfloat.from_man_exp(1, -100000)
    up = binfloat.mpf_add(one, tiny, 80, "u")
    assert up == libmp.mpf_add(one, tiny, 80, "u") == binfloat.from_man_exp(2**79 + 1, -79)
    assert binfloat.mpf_sub(one, tiny, 80, "d") == binfloat.from_man_exp(2**80 - 1, -80)


@settings(max_examples=300, deadline=None)
@given(prec=st.integers(53, 8192), rnd=_modes, p=st.integers(-(2**300), 2**300),
       q=st.integers(1, 2**300) | st.integers(-(2**300), -1), man=st.integers(-(2**20000), 2**20000),
       exp=st.integers(-20000, 20000))
def test_conversions_return_libmp_tuples(prec, rnd, p, q, man, exp):
    assert binfloat.from_rational(p, q, prec, rnd) == libmp.from_rational(p, q, prec, rnd)
    assert binfloat.from_man_exp(man, exp, prec, rnd) == libmp.from_man_exp(man, exp, prec, rnd)
    assert binfloat.from_man_exp(man, exp) == libmp.from_man_exp(man, exp)


@settings(max_examples=300, deadline=None)
@given(operands=_operands(), fix=st.integers(-100, 25000))
@example(operands=(53, libmp.from_man_exp(5, -1076), libmp.fzero), fix=0)
@example(operands=(53, libmp.from_man_exp(1, -1080), libmp.fzero), fix=0)
@example(operands=(53, libmp.from_man_exp(2**60 - 1, 1000), libmp.fzero), fix=0)
def test_to_fixed_and_to_float_match_libmp(operands, fix):
    _, s, _ = operands
    assert binfloat.to_fixed(s, fix) == libmp.to_fixed(s, fix)
    assert binfloat.to_float(s) == libmp.to_float(s)


@settings(max_examples=300, deadline=None)
@given(dps=st.integers(1, 1300), prec=st.integers(53, 4500), man=st.integers(1, 2**4500),
       exp=st.integers(-3700, 3700) | st.integers(-15000, 15000), sign=st.booleans())
@example(dps=3, prec=80, man=199, exp=-4096, sign=False)
@example(dps=1233, prec=4096, man=3**2580, exp=-4096, sign=False)
@example(dps=5, prec=53, man=99999, exp=0, sign=True)
def test_to_str_is_byte_equal_to_libmp(dps, prec, man, exp, sign):
    s = libmp.from_man_exp(-man if sign else man, exp, prec, "n")
    assert binfloat.to_str(s, dps) == libmp.to_str(s, dps)


@settings(max_examples=200, deadline=None)
@given(prec=st.integers(53, 2048), man=st.integers(1, 2**2048), exp=st.integers(-5000, 5000), rnd=_modes)
@example(prec=53, man=2**2048 + 1, exp=-2048, rnd="n")
@example(prec=256, man=12345, exp=0, rnd="n")
def test_ln_is_within_one_ulp_of_libmp(prec, man, exp, rnd):
    s = libmp.from_man_exp(man, exp, prec, "n")
    ours, theirs = binfloat.mpf_log(s, prec, rnd), libmp.mpf_log(s, prec, rnd)
    if theirs == libmp.fzero:
        assert ours == theirs
    else:
        assert abs(_frac(ours) - _frac(theirs)) <= F(2) ** (theirs[2] + theirs[3] - prec)


@pytest.mark.parametrize("prec", range(6, 80))
def test_ln_2_and_ln_10_truncate_as_libmp_does(prec):
    # to_str's power of ten for exponents beyond +-3,500 bits comes from these
    assert binfloat.mpf_log(binfloat.from_int(2), prec, "d") == libmp.mpf_ln2(prec, "d")
    assert binfloat.mpf_log(binfloat.from_int(10), prec, "d") == libmp.mpf_ln10(prec, "d")


_CONSTANTS = [(binfloat.pi_fixed, libmp.mpf_pi), (binfloat.ln2_fixed, libmp.mpf_ln2),
              (binfloat.euler_fixed, libmp.mpf_euler)]


@settings(max_examples=25, deadline=None)
@given(prec=st.integers(64, 8192))
@example(prec=64)
@example(prec=8192)
def test_constants_are_within_their_counted_error(prec):
    for series, reference in _CONSTANTS:
        x, e = series(prec)
        ref = reference(prec + 64, "n")
        slack = F(2) ** (ref[2] + ref[3] - prec - 64)
        assert abs(F(x, 2**prec) - _frac(ref)) <= F(e, 2**prec) + slack, series.__name__
        assert e <= 4, series.__name__


@settings(max_examples=200, deadline=None)
@given(man=st.integers(1, 2**300), exp=st.integers(-5000, 5000), dps=st.integers(1, 20), sign=st.integers(0, 1))
def test_to_str_rounding_up_gives_the_least_decimal_at_or_above(man, exp, dps, sign):
    s = binfloat.from_man_exp(-man if sign else man, exp)
    text = binfloat.to_str(s, dps, "u")
    assert text.startswith("-") == bool(sign)
    got, exact = abs(F(text)), abs(_frac(s))
    # at least |s|, and one unit less in its dps-th significant digit is below |s|
    assert got >= exact
    assert got - F(10) ** (Decimal(text).adjusted() - dps + 1) < exact
