"""High-precision numerics with explicit, conservative error bounds.

BigReal wraps a raw binary floating-point tuple (binfloat, the libmp normal
form) together with an absolute error bound.  All arithmetic goes through
binfloat functions that take the precision and rounding mode as arguments,
so there is no global precision state and every operation is a pure
function of (inputs, ctx).  Error propagation is worst-case ulp counting:
cheap, crude, and always valid, which is what identity verification needs.

Certified numbers are built in FixedPoint instead: (value, error) pairs of
Python integers in units of 2^-prec, prec = working_bits + ceil(log2 N) +
guard bits, every rounding a floor counted exactly in the error.  An oracle
result, zeta_num, li4_half_num, pi, log 2, gamma and each linear combination
of BigReals (fixed_dot: relation residuals and eval_sym) are each one such
sum, rounded into a BigReal once (to_big).

Certified tails are sums of T power-log terms (A + B ln x) x^-p, evaluated
by one pass (_pl_tail): each term's derivatives run down a fixed-point
recurrence, u_(m+1) = -u_m (p+m) h / X, with a second running sequence for
the ln x part, so an Euler-Maclaurin or Boole tail of order K and its
remainder bound, read from the last derivative, take about T K small-integer
steps, every floor counted.  The oracle and zeta_num take every tail from it.
The exact expansion of x^-p (_pl_table), built on integer pairs and kept as a
prefix list (exact._prefix) grown under a lock, serves only the oracle's
weight asymptotics and inner tails (oracle._expansion), whose remainders come
from _remainder and _abs_coeffs.

The constants pi, log 2 and gamma are binfloat's counted fixed-point series:
Machin's formula for pi, a hyperbolic Machin-type (acoth) formula for log 2
and Brent-McMillan for gamma, each a pair (x, e) at wb + 40 bits with e at
most 2 units.  _lib_const rounds that pair to wb bits once; its bound is e
plus that rounding.  gamma is used only by oracle tail estimates; it is
deliberately not a symbolic atom.

zeta(s) is the sum of the one power-log term n^-s: a head of N terms, its
Euler-Maclaurin tail and the tail's certified remainder, N the least power of
two from 32 whose remainder is below 2^-(working_bits + 4).  li4(1/2) is its
geometrically convergent defining series, its truncation in the error.

Every memo here is a bounded functools.lru_cache keyed on plain values.
Constants, logarithms (_ln) and monomial values are cached per context and
returned as the finished BigReal: equal contexts are interchangeable, so a
value may carry the equal context of the caller that computed it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import factorial, gcd, inf, nextafter, perm
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
        """The least 3-digit decimal at or above the error bound, in to_str's notation."""
        if self._e == fzero:
            return "0"
        return to_str(self._e, 3, "u")

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
    """A constant's counted series (binfloat), its pair (x, e) at working_bits + 40
    bits rounded once into a BigReal whose bound is e plus that rounding."""
    fx = FixedPoint(ctx, 1 << 32)  # prec = working_bits + 40
    return fx.to_big(*series(fx.prec))


def const_pi(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(pi_fixed, ctx)


def const_log2(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(ln2_fixed, ctx)


def const_gamma(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const(euler_fixed, ctx)


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


# -- power-log tails ------------------------------------------------------------
#
# A term (A, B, p) stands for (A + B ln x) x^-p; A and B are rationals or
# BigReals.  For such f and m >= -1,
#
#     f^(m)(X) = (-1)^m (p)_m (A + B (ln X - H(p, m))) X^-(p+m),
#
# with H(p, m) = sum_{i<m} 1/(p+i), (p)_-1 = 1/(p-1) and H(p, -1) = -1/(p-1):
# f^(-1) is the antiderivative that vanishes at infinity, so Int_X^inf f =
# -f^(-1)(X), the Euler-Maclaurin derivative term (-1, -1).


def _deriv(rule: str, i: int) -> tuple[Fraction, int]:
    """The i-th derivative term (c, m) of the tail rule, i = 0, 1, ...; the rule
    of order K sums c f^(m)(N) over its first _n_derivs(rule, K) terms.  With
    "em" they are (-1/2, 0) and (-B_2k/(2k)!, 2k - 1), and Int_N^inf f plus
    their sum is the Euler-Maclaurin sum over n > N; with "boole" they are
    (E_k(0)/(2 k!), k) for k = 0 and the odd k, where E_k(0) is not 0."""
    if not i:
        return (_MINUS_HALF if rule == "em" else _HALF), 0
    return _em_deriv(i) if rule == "em" else _boole_deriv(2 * i - 1)


def _n_derivs(rule: str, K: int) -> int:
    """The number of derivative terms (_deriv) of the tail rule of order K."""
    return K + 1 if rule == "em" else 1 + K // 2


def _pl_entries(p: int, rule: str, done):
    """The entries (j, a, b), (a/b) N^-j, of the tail rule of every order for
    f = x^-p, from the one after done: with "em" and p > 1 first Int_N^inf f,
    then c f^(m)(N) for the derivative terms (c, m) (_deriv).  Each is reduced,
    built in integers (_rat_mul), so the entries of high order stay small."""
    integral = rule == "em" and p > 1  # its entry comes first
    if integral and not done:
        yield p - 1, 1, p - 1
    for i in count(max(len(done) - integral, 0)):
        c, m = _deriv(rule, i)
        poch = perm(p + m - 1, m)  # (p)_m
        yield (p + m, *_rat_mul(-poch if m % 2 else poch, 1, c.numerator, c.denominator))


def _pl_length(p: int, rule: str, K: int) -> int:
    """The number of entries of _pl_table(p, rule) in the rule of order K."""
    return (rule == "em" and p > 1) + _n_derivs(rule, K)


@lru_cache(maxsize=1024)
def _pl_table(p: int, rule: str) -> tuple:
    """_pl_entries(p, rule) as a prefix list (exact._prefix), read by oracle._expansion;
    for p = 1 the integral diverges and is left out, as ln N takes its place in H_N."""
    return [], partial(_pl_entries, p, rule)


@lru_cache(maxsize=4096)
def _abs_coeffs(p: int, m: int) -> tuple:
    """Int_N^inf |f^(m)| for f = x^-p as entries (j, a, b) of (a/b) N^-j:
    (p)_m / (q-1) N^-(q-1), q = p + m."""
    return ((p + m - 1, perm(p + m - 1, m), p + m - 1),)


@lru_cache(maxsize=64)
def _ln(n: int, ctx: PrecisionContext) -> BigReal:
    return BigReal.from_int(n, ctx).ln()


def _fx_ratio(fx: FixedPoint, x, num: int, den: int) -> tuple[int, int]:
    """x num / den as a pair on fx, den > 0, in one floor: a rational x folded
    into it, a BigReal x as its pair (from_big), whose error scales with it."""
    if isinstance(x, BigReal):
        y, ey = fx.from_big(x)
        return y * num // den, -(-ey * abs(num) // den) + 1
    return (x.numerator * num << fx.prec) // (x.denominator * den), 1


def _pl_tail(rule: str, terms, X: int, K: int, fx: FixedPoint, h: int = 1):
    """The tail rule of order K and step h over the power-log terms at X as
    (value, bound): value() its value as a pair on fx, bound an integer at
    least its remainder bound in units of 2^-prec.  With "em", Int_X^inf f / h
    + sum c h^m f^(m)(X), the sum over x = X + h, X + 2h, ... (powers p >= 2;
    g(j) = f(X + h j) has g^(m)(0) = h^m f^(m)(X)); with "boole", sum c
    f^(m)(X), the sum over n >= X of (-1)^(n-X) f(n).

    One pass runs each term down the orders m of _rule, keeping u_m = h^m
    (-1)^m (p)_m X^-(p+m) times A, and for B not 0 times B (w_m) and v_m =
    H(p, m) w_m, so h^m f^(m)(X) = u_m + w_m ln X - v_m.  From m to m + d,
    u_(m+d) = (-1)^d P u_m h^d / X^d and v_(m+d) = (-1)^d (P v_m + D w_m) h^d
    / X^d, P = (p+m)_d and D = sum_i P / (p+m+i), as H(p, m + d) - H(p, m) =
    sum_{i<d} 1/(p+m+i) (and v_-1 = w_-1 / (1-p) gives v_0 = 0).  Each is one
    floor, which moves it by under 1 unit: if u_m is within e_m units, u_(m+d)
    is within ceil(e_m P h^d / X^d) + 1, and v_(m+d) within ceil((P e_v +
    D e_w) h^d / X^d) + 1; each start is one floor of the exact rational
    (_fx_ratio).  These counts grow with p and the start errors, so those of
    the largest power and start errors bound every term's.  The sums over the
    terms of u - v and of w are scaled by each c once (FixedPoint.scale), the
    second then times ln X (FixedPoint.mul).

    The remainder, M = m - 1 for the Int |f^(m)| of _remainder: for B = 0,
    f^(M+1) keeps one sign on (X, inf) and tends to 0, so Int_X^inf |f^(M+1)|
    = |f^(M)(X)| = h^-M |u_M|; for B not 0, |f^(M+1)(x)| <= (p)_(M+1) (|A| +
    |B| H(p, M+1) + |B| ln x) x^-(p+M+1), whose integral from X is h^-M (|u_M|
    + |w_M| (ln X + 2/(p+M)) + |v_M|).  Each |.| plus its error, summed over
    the terms, times the remainder's scale over h^M, is rounded up.
    """
    coeffs, first, M, steps = _rule(rule, K)
    n, prec, X2, h2 = len(steps) + 1, fx.prec, X * X, h * h
    S, L = [0] * n, [0] * n
    upper, e, ev, top, logs = 0, 0, 0, 0, []
    for A, B, p in terms:
        num, den = (-1, (p - 1) * h * X ** (p - 1)) if first else (1, X**p)
        u, e0 = _fx_ratio(fx, A, num, den)
        e, top = max(e, e0), max(top, p)
        S[0] += u
        for o, d, i in steps:
            u = (u * ((p + o) * (p + o + 1) * h2) if d == 2 else -u * ((p + o) * h)) // (X2 if d == 2 else X)
            S[i] += u
        upper += abs(u)
        if B:
            w, e0 = _fx_ratio(fx, B, num, den)
            v, ev0 = _fx_ratio(fx, B, -num, den * (p - 1)) if first else (0, 0)
            e, ev = max(e, e0), max(ev, ev0)
            L[0], S[0] = L[0] + w, S[0] - v
            for o, d, i in steps:
                r = p + o
                P, D, hd, Xd = (r * (r + 1), 2 * r + 1, h2, X2) if d == 2 else (r, 1, -h, X)
                v, w = hd * (P * v + D * w) // Xd, hd * P * w // Xd
                L[i], S[i] = L[i] + w, S[i] - v
            logs.append((abs(w), abs(v), p + M))
    # every u and w within e, every v within ev: the counts of the largest power
    T, nB = len(terms), len(logs)
    E, LE = [T * e + nB * ev] + [0] * (n - 1), [nB * e] + [0] * (n - 1)
    for o, d, i in steps:
        r = top + o
        P, D, hd, Xd = (r * (r + 1), 2 * r + 1, h2, X2) if d == 2 else (r, 1, h, X)
        e, ev = (hd * P * e + Xd - 1) // Xd + 1, (hd * (P * ev + D * e) + Xd - 1) // Xd + 1
        E[i], LE[i] = T * e + nB * ev, nB * e
    ln = logs and fx.from_big(_ln(X, fx.ctx))
    upper += T * e + sum(v + ev - (-(w + e) * ((ln[0] + ln[1]) * q + (2 << prec)) // (q << prec)) for w, v, q in logs)

    def value() -> tuple[int, int]:
        x = ex = y = ey = 0
        for c, s, e, w, ew in zip(coeffs, S, E, L, LE):
            s, e = fx.scale(s, e, c)
            w, ew = fx.scale(w, ew, c) if ln else (0, 0)
            x, ex, y, ey = x + s, ex + e, y + w, ey + ew
        y, ey = fx.mul(y, ey, *ln) if ln else (0, 0)
        return x + y, ex + ey

    return value, _scaled_up(upper, _remainder(rule, K, h)[1], h**M)


@lru_cache(maxsize=1024)
def _rule(rule: str, K: int) -> tuple:
    """(coefficients, first, M, steps) of the tail rule of order K: its derivative
    terms' c (_deriv) by m, the integral's -1 at m = -1 first with "em" (first);
    M = m - 1 for _remainder's Int |f^(m)|; steps (m, d, i) from order m to m + d."""
    derivs = [(-1, -1)] * (rule == "em") + [_deriv(rule, i) for i in range(_n_derivs(rule, K))]
    orders = [o for _, o in derivs]
    M = _remainder(rule, K)[0] - 1
    orders += [M] * (orders[-1] < M)  # Boole of odd order has no derivative term at M
    steps = tuple((o, o1 - o, i) for i, (o, o1) in enumerate(zip(orders, orders[1:]), 1))
    return tuple(c for c, _ in derivs), orders[0] < 0, orders[-1], steps


@lru_cache(maxsize=1024)
def _pi_power_up(base: int, k: int) -> tuple[int, int]:
    """(man, t), man of 81 bits, with (base pi)^-k <= man 2^-t: the power of the
    lower end of pi_fixed(_EPREC), rounded up, within about k 2^-79 relative."""
    x, e = pi_fixed(_EPREC)
    d = (base * (x - e)) ** k  # (base pi)^-k <= 2^(_EPREC k) / d
    return -(-(1 << _EPREC + d.bit_length()) // d), _EPREC + d.bit_length() - _EPREC * k


def _scaled_up(x: int, scale: tuple, den: int = 1) -> int:
    """An integer at least x / den times a remainder bound's scale (c, base, k),
    which stands for c (base pi)^-k: x c / den times _pi_power_up, rounded up."""
    c, base, k = scale
    a, b = x * c.numerator, c.denominator * den
    if k:
        man, t = _pi_power_up(base, k)
        a, b = a * man, b << t
    return -(-a // b)


_HALF, _MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)


def _remainder(rule: str, K: int, h: int = 1) -> tuple[int, tuple]:
    """(m, scale) of the remainder bound of the tail rule of order K and step h
    (1 for Boole).  Order 0 of either rule, whose one derivative term is
    +-f(N)/2, is within 1/2 Int |f'|; Boole of order K >= 1 within
    4 pi^-K Int |f^(K)|; for Euler-Maclaurin of order K >= 1 the scale is
    4 h^(2K-1) (2 pi)^-2K, as Int_0^inf |g^(2K)| = h^(2K-1) Int_N^inf |f^(2K)|
    for g(j) = f(N + h j)."""
    if not K:
        return 1, (_HALF, 1, 0)
    if rule == "boole":
        return K, (4, 1, K)
    return 2 * K, (4 * h ** (2 * K - 1), 2, 2 * K)


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


@lru_cache(maxsize=256)
def _zeta(s: int, ctx: PrecisionContext) -> BigReal:
    wb, N = ctx.working_bits, 32
    while True:
        fx = FixedPoint(ctx, N)
        value, rem = _pl_tail("em", [(1, 0, s)], N, max(8, wb // 16), fx)
        if rem <= fx.one >> (wb + 4):
            break
        N, value = 2 * N, None  # a rejected N's pass is dropped before the next
    x, e = value()
    return fx.to_big(sum(fx.recip(n, s) for n in range(1, N + 1)) + x, N + e + rem)


def zeta_num(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """zeta(s) for integer s >= 2: the sum of the power-log term n^-s, a head of
    N terms plus its Euler-Maclaurin tail of order K = max(8, working_bits / 16).

    N is the least of 32, 64, ... whose certified remainder is at most
    2^-(working_bits + 4).  Head, tail and remainder are one FixedPoint sum,
    rounded to working_bits once.
    """
    if s < 2:
        raise ValueError(f"zeta_num needs s >= 2, got {s}")
    return _zeta(s, ctx)


@lru_cache(maxsize=64)
def _li4_half(ctx: PrecisionContext) -> BigReal:
    M = ctx.working_bits + 8
    fx = FixedPoint(ctx, M)
    acc = sum(fx.recip(n**4 << n) for n in range(1, M + 1))
    return fx.to_big(acc, M + (1 << (fx.prec - M)))  # and the tail, below 2^-M


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

    The value is the fixed_dot of the (coefficient, monomial_num) pairs, one
    fixed-point sum rounded once; the empty expression is exact 0.  The result
    must retain ctx.contract_bits of relative accuracy, otherwise the
    cancellation is reported as PrecisionExhausted.
    """
    acc = fixed_dot(((coeff, monomial_num(mono, ctx)) for mono, coeff in e.terms()), ctx)
    if not acc.meets_contract():
        raise PrecisionExhausted(
            f"cancellation below contract precision evaluating {e} "
            f"(value ~ {acc.decimal(6) if acc.value_tuple() != fzero else 0}, err {acc.err_decimal()})"
        )
    return acc
