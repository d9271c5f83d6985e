"""High-precision numerics with explicit, conservative error bounds.

BigReal wraps a raw binary floating-point tuple (binfloat, the libmp normal
form) together with an absolute error bound.  All arithmetic goes through
binfloat functions that take the precision and rounding mode as arguments,
so there is no global precision state and every operation is a pure
function of (inputs, ctx).  Error propagation is worst-case ulp counting:
cheap, crude, and always valid, which is what identity verification needs.

Long sums of many small terms run in FixedPoint instead: (value, error)
pairs of Python integers in units of 2^-prec, prec = working_bits +
ceil(log2 N) + guard bits, every rounding a floor counted exactly in the
error.  An oracle result (head, tail and bound together), the heads of
zeta_num and li4_half_num, and relation residuals (fixed_dot) are each one
such sum, rounded into a BigReal once (to_big).

Certified tails are sums of power-log terms (A + B ln x) x^-p.  Their
Euler-Maclaurin and Boole sums and the integrals that bound the remainders
are, per power p, A R(N) + B (R(N) ln N + Q(N)): R and Q are sums c N^-j
whose exact rational c do not depend on N (signed A and B for a value, |A|
and |B| for a bound; no two terms share a power).  They are summed as a
pair on the caller's FixedPoint, a rational A or B folded into each floor;
the oracle builds every tail and bound from this layer.  The tables of c are
built on integer pairs, common factors cancelled before each product.  The
table of order K of a power, rule and step is the first entries of one
prefix list, grown under a lock when a higher order is asked for (_pl_table,
_prefix), so no entry is built twice; so are the slices H(p, m) (_hslices),
and the remainders' coefficients are cached (_abs_coeffs).  _pl_coeffs is the
one Euler-Maclaurin/Boole expansion of a power x^-p in the package: the
oracle also reads its weight asymptotics and inner tails from it.

The constants pi, log 2 and gamma are binfloat's counted fixed-point series:
Machin's formula for pi, a hyperbolic Machin-type (acoth) formula for log 2
and Brent-McMillan for gamma, each within a few units of 2^-(wb + 40).  The
value is rounded to wb + 16 bits and then to wb, and assigned the bound
ulp(wb) + ulp(wb + 14), which _lib_const checks covers the counted series
error and the first rounding.  gamma is used only by oracle tail estimates;
it is deliberately not a symbolic atom.

zeta(s) is the sum of the one power-log term n^-s: a FixedPoint head of N
terms and its Euler-Maclaurin tail, N the least power of two from 32 whose
certified remainder is below 2^-(working_bits + 4).  li4(1/2) comes from its
geometrically convergent defining series.

Every memo here is a bounded functools.lru_cache keyed on plain values.
Constants, logarithms (_ln) and monomial values are cached per context and
returned as the finished BigReal: equal contexts are interchangeable, so a
value may carry the equal context of the caller that computed it.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import factorial, gcd, inf, nextafter
from typing import Optional, Union

from . import exact
from .binfloat import (
    euler_fixed,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    ln2_fixed,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    normalize,
    pi_fixed,
    to_fixed,
    to_float,
    to_str,
)
from .symexpr import Atom, SymExpr

__all__ = [
    "GUARD_BITS",
    "PrecisionContext",
    "PrecisionExhausted",
    "BigReal",
    "FixedPoint",
    "fixed_dot",
    "const_pi",
    "pi_power",
    "const_log2",
    "const_gamma",
    "zeta_num",
    "li4_half_num",
    "atom_num",
    "monomial_num",
    "eval_sym",
]

_EPREC = 80  # working precision for the error-bound side channel


class PrecisionExhausted(ArithmeticError):
    """Cancellation ate the guard bits; the result does not meet its contract."""


GUARD_BITS = 32  # the low bits of working precision that absorb rounding noise


class PrecisionContext(namedtuple("PrecisionContext", "working_bits")):
    """Working precision in bits, at least 64.  A result must keep contract_bits =
    working_bits - GUARD_BITS of relative accuracy.  Equal contexts are
    interchangeable, so the caches here key on the context."""

    __slots__ = ()

    def __new__(cls, working_bits: int = 192):
        if type(working_bits) is not int:
            raise ValueError(f"working_bits must be an integer, got {working_bits!r}")
        if working_bits < 64:
            raise ValueError(f"working_bits must be >= 64, got {working_bits}")
        return super().__new__(cls, working_bits)

    @property
    def contract_bits(self) -> int:
        return self.working_bits - GUARD_BITS


DEFAULT_CONTEXT = PrecisionContext()


def _mag(t) -> int:
    # power of two bounding |t| from above: |t| <= 2**_mag(t)
    if t == fzero:
        return -(10**9)
    return t[2] + t[3]


def _ulp(t, wb: int):
    # bound on the round-to-nearest error of a result t at precision wb
    if t == fzero:
        return fzero
    return from_man_exp(1, _mag(t) - wb)


def _eadd(*errs):
    acc = fzero
    for e in errs:
        acc = mpf_add(acc, e, _EPREC, "u")
    return acc


def _emul(a, b):
    return mpf_mul(a, b, _EPREC, "u")


def _float_up(t) -> float:
    """The least float at or above the raw mpf t (inf above the float range).

    to_float truncates t to 53 bits and ends in math.ldexp, which rounds a
    subnormal to nearest, so the float can lie one step below t or be 0.0.
    """
    f = to_float(t)
    return f if f == inf or not mpf_lt(from_float(f), t) else nextafter(f, inf)


class BigReal:
    """A real number at ctx.working_bits precision with an absolute error bound."""

    __slots__ = ("ctx", "_v", "_e")

    def __init__(self, ctx: PrecisionContext, v, e):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_e", e)

    def __setattr__(self, *a):
        raise AttributeError("BigReal is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as __setattr__ refuses slot state
        return BigReal, (self.ctx, self._v, self._e)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: PrecisionContext) -> "BigReal":
        return BigReal(ctx, fzero, fzero)

    @staticmethod
    def from_int(n: int, ctx: PrecisionContext) -> "BigReal":
        return BigReal(ctx, from_int(n), fzero)

    @staticmethod
    def from_fraction(q: Union[Fraction, int], ctx: PrecisionContext) -> "BigReal":
        q = Fraction(q)
        v = from_rational(q.numerator, q.denominator, ctx.working_bits, "n")
        return BigReal(ctx, v, _ulp(v, ctx.working_bits))

    @staticmethod
    def inv_int_power(base: int, p: int, ctx: PrecisionContext) -> "BigReal":
        """base**(-p) for integer base >= 1, p >= 0 (one rounding)."""
        v = from_rational(1, base**p, ctx.working_bits, "n")
        return BigReal(ctx, v, _ulp(v, ctx.working_bits))

    # -- arithmetic ---------------------------------------------------------

    def _wb(self) -> int:
        return self.ctx.working_bits

    def __add__(self, other: "BigReal") -> "BigReal":
        wb = self._wb()
        v = mpf_add(self._v, other._v, wb, "n")
        return BigReal(self.ctx, v, _eadd(self._e, other._e, _ulp(v, wb)))

    def __sub__(self, other: "BigReal") -> "BigReal":
        wb = self._wb()
        v = mpf_sub(self._v, other._v, wb, "n")
        return BigReal(self.ctx, v, _eadd(self._e, other._e, _ulp(v, wb)))

    def __neg__(self) -> "BigReal":
        return BigReal(self.ctx, mpf_neg(self._v), self._e)

    def __abs__(self) -> "BigReal":
        return BigReal(self.ctx, mpf_abs(self._v), self._e)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigReal.from_fraction(other, self.ctx)
        wb = self._wb()
        v = mpf_mul(self._v, other._v, wb, "n")
        e = _eadd(
            _emul(mpf_abs(self._v), other._e),
            _emul(mpf_abs(other._v), self._e),
            _emul(self._e, other._e),
            _ulp(v, wb),
        )
        return BigReal(self.ctx, v, e)

    __rmul__ = __mul__

    def __truediv__(self, other: "BigReal") -> "BigReal":
        if isinstance(other, (int, Fraction)):
            other = BigReal.from_fraction(other, self.ctx)
        wb = self._wb()
        babs = mpf_abs(other._v)
        # need |b| > 2*eb to bound the quotient error
        if other._v == fzero or not mpf_lt(mpf_add(other._e, other._e, _EPREC, "u"), babs):
            raise PrecisionExhausted("division by a quantity indistinguishable from zero")
        v = mpf_div(self._v, other._v, wb, "n")
        num = _eadd(self._e, _emul(mpf_abs(v), other._e))
        den = mpf_sub(babs, other._e, _EPREC, "d")
        e = _eadd(mpf_div(num, den, _EPREC, "u"), _ulp(v, wb))
        return BigReal(self.ctx, v, e)

    def __pow__(self, n: int) -> "BigReal":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return BigReal.from_int(1, self.ctx)
        if n < 0:
            return BigReal.from_int(1, self.ctx) / self.__pow__(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def ln(self) -> "BigReal":
        wb = self._wb()
        if self._v == fzero or self._v[0] == 1:
            raise ValueError("ln needs a positive argument")
        if not mpf_lt(mpf_add(self._e, self._e, _EPREC, "u"), self._v):
            raise PrecisionExhausted("ln argument indistinguishable from zero")
        v = mpf_log(self._v, wb, "n")
        den = mpf_sub(self._v, self._e, _EPREC, "d")
        e = _eadd(mpf_div(self._e, den, _EPREC, "u"), _ulp(v, wb))
        return BigReal(self.ctx, v, e)

    # -- accessors -----------------------------------------------------------

    def widened(self, extra_err) -> "BigReal":
        """Same value with `extra_err` (raw mpf tuple or BigReal upper) folded in."""
        if isinstance(extra_err, BigReal):
            extra_err = extra_err.upper_tuple()
        return BigReal(self.ctx, self._v, _eadd(self._e, extra_err))

    def err_tuple(self):
        return self._e

    def value_tuple(self):
        return self._v

    def upper_tuple(self):
        """Raw tuple bounding |value| + err from above."""
        return mpf_add(mpf_abs(self._v), self._e, _EPREC, "u")

    def __float__(self):
        return to_float(self._v)

    def err_float(self) -> float:
        return _float_up(self._e)

    @property
    def is_exact(self) -> bool:
        return self._e == fzero

    def meets_contract(self) -> bool:
        if self._e == fzero:
            return True
        if self._v == fzero:
            return False
        return _mag(self._e) <= _mag(self._v) - self.ctx.contract_bits

    def certified_digits(self) -> int:
        """Decimal digits that the error bound certifies (at least 1 if any)."""
        if self._v == fzero:
            return 0
        if self._e == fzero:
            return int(self.ctx.working_bits * 0.30102)
        good_bits = _mag(self._v) - _mag(self._e)
        return max(0, int(good_bits * 0.30102) - 1)

    def decimal(self, digits: Optional[int] = None) -> str:
        """Round-to-nearest decimal string, never printing uncertified digits."""
        if self._v == fzero:
            return "0"
        cert = self.certified_digits()
        if digits is None:
            digits = cert
        digits = max(1, min(digits, cert) if cert else 1)
        return to_str(self._v, digits)

    def err_decimal(self) -> str:
        if self._e == fzero:
            return "0"
        return to_str(self._e, 3)

    def __repr__(self):
        return f"BigReal({self.decimal(min(self.certified_digits(), 30) or 6)} ± {self.err_decimal()})"


# -- fixed-point sums ---------------------------------------------------------

_FIX_GUARD = 8  # bits above working_bits + ceil(log2 N), so N roundings stay below 2^-working_bits


class FixedPoint:
    """Integer arithmetic at scale 2^prec for a sum of n_terms terms.

    A value is a pair (x, e) of ints: x stands for x * 2^-prec and e bounds its
    absolute error in units of 2^-prec.  Every rounding is a floor, which moves
    a value by less than one unit, and each operation returns the error bound
    of its result, so a loop keeps an exact count of all the rounding it did.
    to_big turns the final pair into one BigReal.
    """

    __slots__ = ("ctx", "prec", "one")

    def __init__(self, ctx: PrecisionContext, n_terms: int):
        self.ctx = ctx
        self.prec = ctx.working_bits + (n_terms - 1).bit_length() + _FIX_GUARD
        self.one = 1 << self.prec

    def recip(self, base: int, p: int = 1) -> int:
        """base**(-p) for integer base >= 1, p >= 0, floored; its error is below 1 unit."""
        return self.one // base**p

    def mul(self, x: int, ex: int, y: int, ey: int) -> tuple[int, int]:
        """Floored product of (x, ex) and (y, ey), with its error bound.

        The inputs contribute at most |x| ey + |y| ex + ex ey and the floor
        less than one unit; the shift of that sum floors, hence the + 2.
        """
        prec = self.prec
        return (x * y) >> prec, (((abs(x) + ex) * ey + abs(y) * ex) >> prec) + 2

    def from_big(self, v: BigReal) -> tuple[int, int]:
        """v as a pair: its value floored, and its error rounded up plus one unit
        if that floor was inexact (an odd mantissa shifted right)."""
        prec = self.prec
        inexact = v._v != fzero and v._v[2] + prec < 0
        return to_fixed(v._v, prec), -to_fixed(mpf_neg(v._e), prec) + inexact

    def scale(self, x: int, ex: int, c) -> tuple[int, int]:
        """The pair (x, ex) times the rational c in one floor; the error is |c| ex
        rounded up, plus one unit if the floor was inexact."""
        a, b = c.numerator, c.denominator
        q, r = divmod(a * x, b)
        return q, -(-abs(a) * ex // b) + (r != 0)

    def to_big(self, x: int, ex: int) -> BigReal:
        """The pair (x, ex) rounded to working_bits, that rounding added to ex."""
        wb = self.ctx.working_bits
        v = from_man_exp(x, -self.prec, wb, "n")
        return BigReal(self.ctx, v, _eadd(from_man_exp(ex, -self.prec), _ulp(v, wb)))


def fixed_dot(pairs, ctx: PrecisionContext) -> BigReal:
    """sum of c * v over the (c, v) pairs, c rational and v a BigReal, as one FixedPoint sum.

    Each v becomes a pair (from_big) and each c * v one floor of the exact
    rational product (scale), so exact inputs give an exact result.
    """
    pairs = list(pairs)
    fx = FixedPoint(ctx, len(pairs))
    scaled = [fx.scale(*fx.from_big(v), c) for c, v in pairs]
    return fx.to_big(sum(x for x, _ in scaled), sum(e for _, e in scaled))


# -- constants ----------------------------------------------------------------


@lru_cache(maxsize=64)
def _lib_const(series, ctx: PrecisionContext) -> BigReal:
    """A constant's counted series (binfloat) rounded to wb + 16 bits, then to wb.  The
    bound is ulp(wb) + ulp(wb + 14), the latter checked to cover the series error and
    the first rounding."""
    wb = ctx.working_bits
    prec = wb + 40
    x, e = series(prec)
    v16 = from_man_exp(x, -prec, wb + 16, "n")
    v = normalize(*v16[:3], wb, "n")
    if e + abs(to_fixed(v16, prec) - x) > 1 << (_mag(v) + prec - wb - 14):
        raise ArithmeticError("a constant's series error exceeds its assigned bound")
    return BigReal(ctx, v, _eadd(_ulp(v, wb), _ulp(v, wb + 14)))


def const_pi(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(pi_fixed, ctx)


def const_log2(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(ln2_fixed, ctx)


def const_gamma(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(euler_fixed, ctx)


@lru_cache(maxsize=256)
def _pi_power(base: int, k: int, ctx: PrecisionContext) -> BigReal:
    x = const_pi(ctx) if base == 1 else const_pi(ctx) * base
    out = x
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return BigReal.from_int(1, ctx) / out


def pi_power(base: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """(base pi)^-k for integers base, k >= 1, the power built by repeated squaring."""
    if base < 1 or k < 1:
        raise ValueError(f"pi_power needs base, k >= 1, got ({base}, {k})")
    return _pi_power(base, k, ctx)


def _pochhammer(s: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= s + i
    return out


# -- exact rationals as integer pairs ---------------------------------------------
#
# The coefficient tables below are built on reduced pairs (a, b), b > 0, each
# operation one reduction as in Fraction's own: factors common to a numerator
# and the other denominator are cancelled before the product, so the integers
# multiplied stay small.


def _rat_mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b) (c/d) as a reduced pair, for reduced pairs (a, b) and (c, d)."""
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _rat_add(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d as a pair (b, d > 0), reduced when (a, b) and (c, d) are."""
    g = gcd(b, d)
    s = b // g
    t = a * (d // g) + c * s
    g2 = gcd(t, g)
    return t // g2, s * (d // g2)


# -- prefix lists -----------------------------------------------------------------
#
# A table whose entries of order K are those of order K - 1 and a few more is
# one list per shape, grown to the length an order asks for from an endless
# generator of its entries, under _grow_lock; a bounded lru_cache holds each
# shape's (list, generator), so no entry is built twice while its shape is cached.

_grow_lock = threading.RLock()  # reentrant: growing one table may grow another


def _prefix(table: tuple, n: int) -> list:
    """The list of the prefix table (entries, source), grown from source to at
    least n entries; a caller reads only the entries it asked for."""
    entries, source = table
    if len(entries) < n:
        with _grow_lock:
            while len(entries) < n:
                entries.append(next(source))
    return entries


def _hslice_entries(p: int):
    h = (0, 1)
    for i in count(p):
        yield h
        h = _rat_add(*h, 1, i)


@lru_cache(maxsize=256)
def _hslices(p: int) -> tuple:
    """H(p, 0), H(p, 1), ... as reduced pairs, a prefix list (_prefix)."""
    return [], _hslice_entries(p)


def _hslice(p: int, m: int) -> tuple[int, int]:
    """H(p, m) = sum_{i<m} 1/(p+i) as a reduced pair (a, b)."""
    return _prefix(_hslices(p), m + 1)[m]


# -- power-log tails ------------------------------------------------------------
#
# A term (A, B, p) stands for (A + B ln x) x^-p; A and B are rationals or
# BigReals.  For such f,
#
#     f^(m)(N)      = (-1)^m (p)_m (A + B (ln N - H(p, m))) N^-(p+m),
#     Int_N^inf f   = ((A + B ln N) / (p-1) + B / (p-1)^2) N^(1-p),
#
# with H(p, m) = sum_{i<m} 1/(p+i), so every tail quantity below is
# A R + B (R ln N + Q) per power, where R and Q are sums c N^-j over exact
# rationals c that do not depend on N.  Q, the log part, is built only for a
# power whose B is not zero.

def _fx_dot(fx: FixedPoint, x, coeffs, N: int, absolute: bool = False) -> tuple[int, int]:
    """x, or |x| with absolute, times sum (a/b) N^-j over (j, a, b) in coeffs as
    a fixed-point pair.

    A rational x is folded into every floor, so each adds under one unit of
    error whatever the size of x and a/b; a BigReal x multiplies the sum.
    """
    if isinstance(x, BigReal):
        s, e = _fx_dot(fx, 1, coeffs, N)
        return fx.mul(*fx.from_big(abs(x) if absolute else x), s, e)
    num, den = (abs(x.numerator) if absolute else x.numerator) << fx.prec, x.denominator
    return sum(num * a // (den * b * N**j) for j, a, b in coeffs), len(coeffs)


@lru_cache(maxsize=64)
def _ln(n: int, ctx: PrecisionContext) -> BigReal:
    return BigReal.from_int(n, ctx).ln()


def _pl_sum(terms, N: int, coeffs, fx: FixedPoint, absolute: bool = False) -> tuple[int, int]:
    """The (value, error) pair on fx of the sum over the terms of A R +
    B (R ln N + Q), of |A| and |B| with absolute, where R = coeffs(p, False)
    and, only where B is not zero, Q = coeffs(p, True), each a sequence of
    integer triples (j, a, b) for sum (a/b) N^-j.  No two of the callers'
    terms share a power, so each power's coefficients are read once."""
    ln, parts = None, []
    for A, B, p in terms:
        R = coeffs(p, False)
        if A:
            parts.append(_fx_dot(fx, A, R, N, absolute))
        if B:
            ln = ln or fx.from_big(_ln(N, fx.ctx))
            parts += [fx.mul(*_fx_dot(fx, B, R, N, absolute), *ln),
                      _fx_dot(fx, B, coeffs(p, True), N, absolute)]
    return sum(v for v, _ in parts), sum(e for _, e in parts)


def _deriv(rule: str, i: int) -> tuple[Fraction, int]:
    """The i-th derivative term (c, m) of the tail rule, i = 0, 1, ...; the rule
    of order K sums c f^(m)(N) over its first _n_derivs(rule, K) terms.  With
    "em" they are (-1/2, 0) and (-B_2k/(2k)!, 2k - 1), and Int_N^inf f plus
    their sum is the Euler-Maclaurin sum over n > N; with "boole" they are
    (E_k(0)/(2 k!), k) for k = 0 and the odd k, where E_k(0) is not 0."""
    if not i:
        return (-_HALF if rule == "em" else _HALF), 0
    return _em_deriv(i) if rule == "em" else _boole_deriv(2 * i - 1)


def _n_derivs(rule: str, K: int) -> int:
    """The number of derivative terms (_deriv) of the tail rule of order K."""
    return K + 1 if rule == "em" else 1 + K // 2


def _pl_entries(p: int, rule: str, h: int, log: bool):
    """The entries (j, a, b) of _pl_coeffs' tables of (p, rule, h, log), those
    of every order in one endless sequence.  Each is a reduced fraction, built
    in integers (_rat_mul): (p)_m and the factorial in c mostly cancel, so the
    entries of high order stay small."""
    if rule == "em" and p > 1:
        yield p - 1, 1, h * (p - 1) ** 2 if log else h * (p - 1)
    poch, done = 1, 0  # (p)_done, carried across the rising orders m
    for i in count(1 if log else 0):  # Q has no entry for m = 0
        c, m = _deriv(rule, i)
        while done < m:
            poch *= p + done
            done += 1
        a, b = _rat_mul(-poch * h**m if m % 2 else poch * h**m, 1, c.numerator, c.denominator)
        if log:
            a, b = _rat_mul(-a, b, *_hslice(p, m))
        yield p + m, a, b


def _pl_length(p: int, rule: str, K: int, log: bool) -> int:
    """The number of entries in _pl_coeffs' table of order K."""
    return (rule == "em" and p > 1) + _n_derivs(rule, K) - log


@lru_cache(maxsize=1024)
def _pl_table(p: int, rule: str, h: int, log: bool) -> tuple:
    """_pl_entries(p, rule, h, log) as a prefix list (_prefix)."""
    return [], _pl_entries(p, rule, h, log)


def _pl_coeffs(p: int, rule: str, K: int, h: int, log: bool) -> list:
    """R, or Q with log, of the power p for the tail rule of order K and step
    h, as for _pl_sum: with rule "em", Int_N^inf f / h + sum c h^m f^(m)(N)
    over the derivative terms (c, m) of order K (_deriv); with "boole", their
    sum alone; for p = 1 the integral diverges and is left out, as ln N takes
    its place in H_N (oracle._weight_expansion).  The rule of step h at N is
    that of step 1 for g(j) = f(N + h j) at j = 0.  The table of order K is
    the first entries of the prefix list _pl_table."""
    n = _pl_length(p, rule, K, log)
    return _prefix(_pl_table(p, rule, h, log), n)[:n]


@lru_cache(maxsize=4096)
def _abs_coeffs(p: int, m: int, log: bool) -> tuple:
    """R, or Q with log, of the power p in _abs_integral, q = p + m:
    (p)_m / (q-1) N^-(q-1), and that times H(p, m) + 1/(q-1)."""
    q = p + m
    a, b = _rat_add(*_hslice(p, m), 1, q - 1) if log else (1, 1)
    return ((q - 1, _pochhammer(p, m) * a, (q - 1) * b),)


def _abs_integral(terms, m: int, N: int, fx: FixedPoint) -> tuple[int, int]:
    """Upper bound for Int_N^inf |d^m/dx^m sum of the terms| dx, as a pair on fx
    whose value plus error bounds it.

    |f^(m)(x)| <= (p)_m (|A| + |B| H(p, m) + |B| ln x) x^-(p+m) for x >= 1.
    """
    return _pl_sum(terms, N, lambda p, log: _abs_coeffs(p, m, log), fx, absolute=True)


def _abs_tail(terms, N: int, fx: FixedPoint) -> tuple[int, int]:
    """Upper bound for sum over n > N of the terms (a + b ln n) n^-p, as for
    _abs_integral: the integral from N plus the term at N + 1."""
    v, e = _pl_sum(terms, N + 1, lambda p, log: () if log else ((p, 1, 1),), fx, absolute=True)
    w, f = _abs_integral(terms, 0, N, fx)
    return v + w, e + f


def _scaled_up(x: int, scale: tuple, ctx) -> int:
    """An integer at least x times a remainder bound's scale (c, base, k), which
    stands for c (base pi)^-k: x c times pi_power's upper end, rounded up."""
    c, base, k = scale
    a, b = x * c.numerator, c.denominator
    if k:
        _, man, exp, _ = pi_power(base, k, ctx).upper_tuple()
        a, b = a * man, b << -exp  # (base pi)^-k < 1, so exp < 0
    return -(-a // b)


_HALF = Fraction(1, 2)


def _remainder(rule: str, K: int, h: int = 1) -> tuple[int, tuple]:
    """(m, scale) of the remainder bound of the tail rule of order K and step h
    (1 for Boole); for Euler-Maclaurin of order K >= 1 the scale is
    4 h^(2K-1) (2 pi)^-2K, as Int_0^inf |g^(2K)| = h^(2K-1) Int_N^inf |f^(2K)|
    for g(j) = f(N + h j)."""
    if rule == "boole":
        return K, (4, 1, K)
    if K:
        return 2 * K, (4 * h ** (2 * K - 1), 2, 2 * K)
    return 1, (_HALF, 1, 0)


@lru_cache(maxsize=1024)
def _em_deriv(k: int) -> tuple[Fraction, int]:
    """(-B_2k/(2k)!, 2k - 1)."""
    b = exact.bernoulli(2 * k)
    return Fraction(-b.numerator, b.denominator * factorial(2 * k)), 2 * k - 1


@lru_cache(maxsize=1024)
def _boole_deriv(k: int) -> tuple[Fraction, int]:
    """(E_k(0)/(2 k!), k), E_k(0)/2 = (1 - 2^(k+1)) B_(k+1)/(k+1)."""
    b = exact.bernoulli(k + 1)
    return Fraction((1 - 2 ** (k + 1)) * b.numerator, b.denominator * factorial(k + 1)), k


def _tail_value(rule: str, terms, X: int, K: int, fx: FixedPoint, h: int = 1) -> tuple[int, int]:
    """The tail rule of order K over the terms at X, as a pair on fx: with "em",
    their sum over x = X + h, X + 2h, ... by Euler-Maclaurin of step h; with
    "boole", the sum over n >= X of (-1)^(n-X) times them by Boole summation,
    sum_{k<K} E_k(0)/(2 k!) f^(k)(X)."""
    return _pl_sum(terms, X, lambda p, log: _pl_coeffs(p, rule, K, h, log), fx)


@lru_cache(maxsize=256)
def _zeta(s: int, ctx: PrecisionContext) -> BigReal:
    wb = ctx.working_bits
    K, terms = max(8, wb // 16), [(1, 0, s)]
    m, scale = _remainder("em", K)
    N, fx = 32, FixedPoint(ctx, 32)
    while (rem := _scaled_up(sum(_abs_integral(terms, m, N, fx)), scale, ctx)) > fx.one >> (wb + 4):
        N *= 2
        fx = FixedPoint(ctx, N)
    head = fx.to_big(sum(fx.recip(n, s) for n in range(1, N + 1)), N)
    # the tail is rounded apart, on a FixedPoint sized for 4 roundings of each of its
    # K + 2 coefficients; the table of order K serves this one value, which is cached
    # itself, so it is built for this call only and not kept in _pl_table's cache
    tail = FixedPoint(ctx, 4 * (K + 2) + 2)
    value = _pl_sum(terms, N, lambda p, log: list(islice(_pl_entries(p, "em", 1, log), _pl_length(p, "em", K, log))),
                    tail)
    return (head + tail.to_big(*value)).widened(from_man_exp(rem, -fx.prec))


def zeta_num(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """zeta(s) for integer s >= 2: the sum of the power-log term n^-s, a head of
    N terms plus its Euler-Maclaurin tail of order K = max(8, working_bits / 16).

    N is the least of 32, 64, ... whose certified remainder is at most
    2^-(working_bits + 4); the value is widened by that remainder.
    """
    if s < 2:
        raise ValueError(f"zeta_num needs s >= 2, got {s}")
    return _zeta(s, ctx)


@lru_cache(maxsize=64)
def _li4_half(ctx: PrecisionContext) -> BigReal:
    M = ctx.working_bits + 8
    fx = FixedPoint(ctx, M)
    acc = sum(fx.recip(n**4 << n) for n in range(1, M + 1))
    return fx.to_big(acc, M).widened(from_man_exp(1, -M))


def li4_half_num(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """li4(1/2) = sum 1/(2^n n^4); truncating at M leaves a tail < 2^-M."""
    return _li4_half(ctx)


def atom_num(atom: Atom, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    if atom.kind == "pi":
        return const_pi(ctx)
    if atom.kind == "log2":
        return const_log2(ctx)
    if atom.kind == "li4half":
        return li4_half_num(ctx)
    return zeta_num(atom.arg, ctx)


@lru_cache(maxsize=1024)
def _monomial_num(mono, ctx: PrecisionContext) -> BigReal:
    """The value of a non-empty monomial, a product of atom powers."""
    value = None
    for atom, exp in mono:
        p = atom_num(atom, ctx) ** exp
        value = p if value is None else value * p
    return value


def monomial_num(mono, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """The value of a monomial, a product of atom powers, cached per context;
    the constant monomial () is exact 1."""
    if not mono:
        return BigReal.from_int(1, ctx)
    return _monomial_num(mono, ctx)


def eval_sym(e: SymExpr, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """Evaluate a SymExpr numerically; the result carries its achieved error bound.

    The empty expression evaluates to exact 0.  For nonzero expressions the
    result must retain ctx.contract_bits of relative accuracy, otherwise the
    cancellation is reported as PrecisionExhausted.  Each term is its
    coefficient times its monomial's value (monomial_num).
    """
    if e.is_zero:
        return BigReal.zero(ctx)
    acc = BigReal.zero(ctx)
    for mono, coeff in e.terms():
        term = BigReal.from_fraction(coeff, ctx)
        if mono:
            term = term * monomial_num(mono, ctx)
        acc = acc + term
    if not acc.meets_contract():
        raise PrecisionExhausted(
            f"cancellation below contract precision evaluating {e} "
            f"(value ~ {acc.decimal(6) if acc.value_tuple() != fzero else 0}, err {acc.err_decimal()})"
        )
    return acc
