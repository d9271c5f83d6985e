"""High-precision numerics with explicit, conservative error bounds.

BigReal wraps a raw mpmath.libmp mpf tuple together with an absolute error
bound.  All arithmetic goes through libmp functions that take the precision
and rounding mode as arguments, so there is no global precision state and
every operation is a pure function of (inputs, ctx).  Error propagation is
worst-case ulp counting: cheap, crude, and always valid, which is what
identity verification needs.

Long sums of many small terms (the oracle's heads, the heads of zeta_num and
li4_half_num, and relation residuals through fixed_dot) run in FixedPoint
instead: Python integers scaled by 2^prec, prec = working_bits +
ceil(log2 N) + guard bits, with every rounding a floor
whose error bound is counted exactly, in units of 2^-prec, beside the value.
The sum comes back as one BigReal whose error is that count plus the final
rounding to working_bits.

The constants pi, log 2 and gamma come from mpmath's proven algorithms
(evaluated with 16 extra bits and assigned a 4-ulp bound); zeta values are
computed here by Euler-Maclaurin summation with an explicit remainder bound,
and li4(1/2) by its geometrically convergent defining series.  gamma is used
only by oracle tail estimates; it is deliberately not a symbolic atom.
Computed constants are kept in a bounded least-recently-used cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from math import factorial, log2 as _flog2
from typing import Optional, Union

from mpmath import libmp
from mpmath.libmp import (
    fzero,
    from_int,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    to_fixed,
    to_str,
)

from . import exact
from .symexpr import Atom, SymExpr

__all__ = [
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
    "eval_sym",
]

_EPREC = 80  # working precision for the error-bound side channel


class PrecisionExhausted(ArithmeticError):
    """Cancellation ate the guard bits; the result does not meet its contract."""


class PrecisionContext:
    """Working precision in bits plus guard bits reserved for rounding noise."""

    __slots__ = ("working_bits", "guard_bits")

    def __init__(self, working_bits: int = 192, guard_bits: int = 32):
        if working_bits < 64:
            raise ValueError(f"working_bits must be >= 64, got {working_bits}")
        if not 0 <= guard_bits < working_bits:
            raise ValueError("guard_bits must satisfy 0 <= guard_bits < working_bits")
        object.__setattr__(self, "working_bits", working_bits)
        object.__setattr__(self, "guard_bits", guard_bits)

    def __setattr__(self, *a):
        raise AttributeError("PrecisionContext is immutable")

    @property
    def contract_bits(self) -> int:
        return self.working_bits - self.guard_bits

    def __eq__(self, other):
        return (
            isinstance(other, PrecisionContext)
            and self.working_bits == other.working_bits
            and self.guard_bits == other.guard_bits
        )

    def __hash__(self):
        return hash((self.working_bits, self.guard_bits))

    def __repr__(self):
        return f"PrecisionContext(working_bits={self.working_bits}, guard_bits={self.guard_bits})"


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


class BigReal:
    """A real number at ctx.working_bits precision with an absolute error bound."""

    __slots__ = ("ctx", "_v", "_e")

    def __init__(self, ctx: PrecisionContext, v, e):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_e", e)

    def __setattr__(self, *a):
        raise AttributeError("BigReal is immutable")

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
        return libmp.to_float(self._v)

    def err_float(self) -> float:
        return libmp.to_float(self._e, rnd="u")

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
        """v as a pair; its error gains one unit for each of the two floors."""
        return to_fixed(v._v, self.prec), to_fixed(v._e, self.prec) + 2

    def to_big(self, x: int, ex: int) -> BigReal:
        """The pair (x, ex) rounded to working_bits, that rounding added to ex."""
        wb = self.ctx.working_bits
        v = from_man_exp(x, -self.prec, wb, "n")
        return BigReal(self.ctx, v, _eadd(from_man_exp(ex, -self.prec), _ulp(v, wb)))


def fixed_dot(pairs, ctx: PrecisionContext) -> BigReal:
    """sum of c * v over the (c, v) pairs, c rational and v a BigReal, as one FixedPoint sum.

    Each v becomes floor(v 2^prec) and its error bound a ceiling; each c * x is
    one floor of the exact rational product.  The error count adds |c| times
    the error of x, rounded up, and one unit for each floor that was inexact, so
    exact inputs give an exact result.
    """
    pairs = list(pairs)
    fx = FixedPoint(ctx, len(pairs))
    prec = fx.prec
    acc = err = 0
    for c, v in pairs:
        x = to_fixed(v._v, prec)
        ex = -to_fixed(mpf_neg(v._e), prec) + (v._v != fzero and v._v[2] + prec < 0)
        a, b = c.numerator, c.denominator
        q, r = divmod(a * x, b)
        acc += q
        err += -(-abs(a) * ex // b) + (r != 0)
    return fx.to_big(acc, err)


# -- constants ----------------------------------------------------------------


class LRUCache:
    """Thread-safe map from key to built value that keeps the `size` most recently used."""

    def __init__(self, size: int):
        self._size = size
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        """The value cached under key, or build() cached under key.

        build runs outside the lock; when two threads build the same key, both
        return the value stored first.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        val = build()
        with self._lock:
            val = self._data.setdefault(key, val)
            self._data.move_to_end(key)
            if len(self._data) > self._size:
                self._data.popitem(last=False)
            return val


# keys are (name, working_bits), ("zeta", s, working_bits) and ("pi_power", base, k,
# working_bits): a few dozen per precision
_const_cache = LRUCache(256)


def _lib_const(name: str, fn, ctx: PrecisionContext) -> BigReal:
    def build():
        wb = ctx.working_bits
        v = fn(wb + 16, "n")
        v = libmp.mpf_pos(v, wb, "n")
        return BigReal(ctx, v, _eadd(_ulp(v, wb), _ulp(v, wb + 14)))

    br = _const_cache.get((name, ctx.working_bits), build)
    return BigReal(ctx, br._v, br._e)


def const_pi(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const("pi", libmp.mpf_pi, ctx)


def const_log2(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const("log2", libmp.mpf_ln2, ctx)


def const_gamma(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    return _lib_const("gamma", libmp.mpf_euler, ctx)


def pi_power(base: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """(base pi)^-k for integers base, k >= 1, the power built by repeated squaring."""
    if base < 1 or k < 1:
        raise ValueError(f"pi_power needs base, k >= 1, got ({base}, {k})")

    def build():
        x = const_pi(ctx) if base == 1 else const_pi(ctx) * base
        out = x
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * x
        return BigReal.from_int(1, ctx) / out

    br = _const_cache.get(("pi_power", base, k, ctx.working_bits), build)
    return BigReal(ctx, br._v, br._e)


def _pochhammer(s: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= s + i
    return out


def zeta_num(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """zeta(s) for integer s >= 2 by direct Euler-Maclaurin summation.

    The remainder after K Bernoulli corrections at cutoff N is bounded by
    4 (2 pi)^(-2K) (s)_2K N^(1-s-2K) / (s+2K-1); N is chosen from that bound,
    not from a fixed term count.
    """
    if s < 2:
        raise ValueError(f"zeta_num needs s >= 2, got {s}")

    def build():
        wb = ctx.working_bits
        K = max(8, wb // 16)
        target_log2 = -(wb + 4)
        # pick N from the log of the remainder bound
        log2_poch = _flog2(_pochhammer(s, 2 * K))
        N = 32
        while (2 - 2 * K * _flog2(6.283185307) + log2_poch
               + (1 - s - 2 * K) * _flog2(N) - _flog2(s + 2 * K - 1)) > target_log2:
            N *= 2
        fx = FixedPoint(ctx, N)
        head = fx.to_big(sum(fx.recip(n, s) for n in range(1, N + 1)), N)
        # tail over n > N: integral - f(N)/2 - sum B_2k/(2k)! f^(2k-1)(N) + R
        tail = BigReal.inv_int_power(N, s - 1, ctx) / (s - 1)
        tail = tail - BigReal.inv_int_power(N, s, ctx) / 2
        for k in range(1, K + 1):
            c = exact.bernoulli(2 * k) * Fraction(_pochhammer(s, 2 * k - 1), factorial(2 * k))
            tail = tail + c * BigReal.inv_int_power(N, s + 2 * k - 1, ctx)
        rem = Fraction(4 * _pochhammer(s, 2 * K), (s + 2 * K - 1) * N ** (s + 2 * K - 1))
        rem_t = _emul(
            BigReal.from_fraction(rem, ctx).upper_tuple(),
            pi_power(2, 2 * K, ctx).upper_tuple(),
        )
        return (head + tail).widened(rem_t)

    br = _const_cache.get(("zeta", s, ctx.working_bits), build)
    return BigReal(ctx, br._v, br._e)


def li4_half_num(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """li4(1/2) = sum 1/(2^n n^4); truncating at M leaves a tail < 2^-M."""

    def build():
        M = ctx.working_bits + 8
        fx = FixedPoint(ctx, M)
        acc = sum(fx.recip(n**4 << n) for n in range(1, M + 1))
        return fx.to_big(acc, M).widened(from_man_exp(1, -M))

    br = _const_cache.get(("li4half", ctx.working_bits), build)
    return BigReal(ctx, br._v, br._e)


def atom_num(atom: Atom, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    if atom.kind == "pi":
        return const_pi(ctx)
    if atom.kind == "log2":
        return const_log2(ctx)
    if atom.kind == "li4half":
        return li4_half_num(ctx)
    return zeta_num(atom.arg, ctx)


# keys are (monomial, working_bits): a few hundred monomials per precision
_monomial_cache = LRUCache(1024)


def _monomial_num(mono, ctx: PrecisionContext) -> BigReal:
    """The value of a non-empty monomial, a product of atom powers, at ctx's precision."""

    def build():
        value = None
        for atom, exp in mono:
            p = atom_num(atom, ctx) ** exp
            value = p if value is None else value * p
        return value

    return _monomial_cache.get((mono, ctx.working_bits), build)


def eval_sym(e: SymExpr, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """Evaluate a SymExpr numerically; the result carries its achieved error bound.

    The empty expression evaluates to exact 0.  For nonzero expressions the
    result must retain ctx.contract_bits of relative accuracy, otherwise the
    cancellation is reported as PrecisionExhausted.  Each term is its
    coefficient times its monomial's value, which is cached per working_bits.
    """
    if e.is_zero:
        return BigReal.zero(ctx)
    acc = BigReal.zero(ctx)
    for mono, coeff in e.terms():
        term = BigReal.from_fraction(coeff, ctx)
        if mono:
            term = term * _monomial_num(mono, ctx)
        acc = acc + term
    if not acc.meets_contract():
        raise PrecisionExhausted(
            f"cancellation below contract precision evaluating {e} "
            f"(value ~ {acc.decimal(6) if acc.value_tuple() != fzero else 0}, err {acc.err_decimal()})"
        )
    return acc
