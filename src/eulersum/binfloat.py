"""Binary floating point on Python integers: the raw-value kernel under BigReal.

A value is the tuple (sign, man, exp, bc) standing for (-1)^sign man 2^exp,
with man odd and bc its bit length; zero is (0, 0, 0, 0).  This is the
normal form of mpmath's libmp, and the functions here keep libmp's names and
return the tuples libmp returns, so values printed or compared against
mpmath read the same.  Every operation takes its precision and rounding mode
as arguments: "n" to nearest with ties to even, "d" toward zero and "u" away
from zero; precision 0 means exact.  Each result is the exact result
correctly rounded: add, sub and mul round the exact integer result, div and
from_rational round a quotient carried at least five bits past the precision
with a sticky bit for a remainder, and ln rounds an interval that it narrows
until both ends round alike.

to_str and to_float follow libmp's rules to the byte: to_str floors to
dps + 3 digits, rounds on the next digit and rescales by a power of ten
computed as libmp computes it when the exponent is beyond +-3,500 bits.
Rounding up (rnd "u"), which libmp's to_str lacks, is one exact decimal
division instead.

The constants are fixed-point series with every floor counted, as
numerics.FixedPoint counts them: a pair (x, e) of integers with
|c - x 2^-prec| <= e 2^-prec.  pi is Machin's 16 atan(1/5) - 4 atan(1/239);
ln 2 is 18 acoth(26) - 2 acoth(4801) + 8 acoth(8749); Euler's gamma is the
Brent-McMillan ratio U/V of Bessel-type sums with n = 2^p, whose error
0 < U/V - gamma < pi e^-4n (Brent and McMillan 1980) the choice of n keeps
below one unit.  Each is kept at the highest precision asked for, and a lower
precision is served from it, as libmp keeps its constants.
"""

from __future__ import annotations

import threading
from decimal import ROUND_UP, Context, Decimal
from math import frexp, inf, ldexp, log

__all__ = [
    "fzero",
    "normalize",
    "from_int",
    "from_man_exp",
    "from_rational",
    "from_float",
    "mpf_add",
    "mpf_sub",
    "mpf_mul",
    "mpf_div",
    "mpf_neg",
    "mpf_abs",
    "mpf_lt",
    "mpf_log",
    "to_fixed",
    "to_float",
    "to_str",
    "pi_fixed",
    "ln2_fixed",
    "euler_fixed",
]

fzero = (0, 0, 0, 0)
_fone = (0, 1, 0, 1)


def normalize(sign: int, man: int, exp: int, prec: int, rnd: str = "d") -> tuple:
    """(-1)^sign man 2^exp for an integer man >= 0, rounded to prec bits in mode
    rnd (exactly for prec 0) and put in normal form."""
    if not man:
        return fzero
    n = man.bit_length() - prec
    if prec and n > 0:
        if rnd == "n":
            half = man >> (n - 1)  # the kept bits and the first dropped one
            up = half & 1 and (half & 2 or man & ((1 << (n - 1)) - 1))
            man = (half >> 1) + (1 if up else 0)
        elif rnd == "d":
            man >>= n
        else:
            man = -(-man >> n)
        exp += n
    if not man & 1:
        tz = (man & -man).bit_length() - 1
        man >>= tz
        exp += tz
    return sign, man, exp, man.bit_length()


def from_man_exp(man: int, exp: int, prec: int = 0, rnd: str = "d") -> tuple:
    return normalize(int(man < 0), abs(man), exp, prec, rnd)


def from_int(n: int) -> tuple:
    return normalize(int(n < 0), abs(n), 0, 0)


def from_rational(p: int, q: int, prec: int, rnd: str = "d") -> tuple:
    return mpf_div(from_int(p), from_int(q), prec, rnd)


def from_float(x: float) -> tuple:
    """A finite float, exactly."""
    m, e = frexp(x)
    return from_man_exp(int(m * (1 << 53)), e - 53)


def mpf_neg(s: tuple) -> tuple:
    return (1 - s[0], *s[1:]) if s[1] else s


def mpf_abs(s: tuple) -> tuple:
    return (0, *s[1:]) if s[0] else s


def mpf_add(s: tuple, t: tuple, prec: int, rnd: str = "d") -> tuple:
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    if not tman:
        return normalize(ssign, sman, sexp, prec, rnd)
    if not sman:
        return normalize(tsign, tman, texp, prec, rnd)
    if sexp < texp:
        ssign, sman, sexp, tsign, tman, texp = tsign, tman, texp, ssign, sman, sexp
    man = (-sman if ssign else sman) << (sexp - texp)
    man += -tman if tsign else tman
    return normalize(int(man < 0), abs(man), texp, prec, rnd)


def mpf_sub(s: tuple, t: tuple, prec: int, rnd: str = "d") -> tuple:
    return mpf_add(s, mpf_neg(t), prec, rnd)


def mpf_mul(s: tuple, t: tuple, prec: int, rnd: str = "d") -> tuple:
    return normalize(s[0] ^ t[0], s[1] * t[1], s[2] + t[2], prec, rnd)


def mpf_div(s: tuple, t: tuple, prec: int, rnd: str = "d") -> tuple:
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        raise ZeroDivisionError("division by zero")
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot, extra = quot << 1 | 1, extra + 1
    return normalize(ssign ^ tsign, quot, sexp - texp - extra, prec, rnd)


def mpf_lt(s: tuple, t: tuple) -> bool:
    return mpf_sub(s, t, 1)[0] == 1


def to_fixed(s: tuple, prec: int) -> int:
    """floor(s 2^prec)."""
    sign, man, exp, _ = s
    man = -man if sign else man
    return man << (exp + prec) if exp + prec >= 0 else man >> -(exp + prec)


def _to_int(s: tuple) -> int:
    """s truncated toward zero."""
    sign, man, exp, _ = s
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def to_float(s: tuple) -> float:
    """s truncated to 53 bits and scaled by math.ldexp, as libmp.to_float does
    (ldexp rounds a subnormal to nearest); +-inf above the float range."""
    sign, man, exp, _ = normalize(*s[:3], 53, "d")
    try:
        return ldexp(-man if sign else man, exp)
    except OverflowError:
        return -inf if sign else inf


# -- series ---------------------------------------------------------------------


def _atan_series(a: int, b: int, prec: int, hyperbolic: bool) -> tuple[int, int]:
    """(x, e) for atan(a/b), or atanh(a/b) with hyperbolic, at scale 2^prec, for
    integers 0 <= a and 2 a^2 <= b^2: sum of (-1)^k z^(2k+1) / (2k+1), z = a/b,
    each power z^(2k+1) and each quotient one floor.  Once a power floors to 0,
    the terms left sum to less than the error of that power."""
    a2, b2 = a * a, b * b
    t, et = (a << prec) // b, 1
    x, e, k = t, et, 0
    while t:
        k += 1
        t, et = t * a2 // b2, -(-et * a2 // b2) + 1
        d = 2 * k + 1
        x += t // d if hyperbolic or not k & 1 else -(t // d)
        e += -(-et // d) + 1
    return x, e + et


class _Constant:
    """A constant's counted series, kept at the highest precision asked for.

    Called with prec, it returns (x, e) with |c - x 2^-prec| <= e 2^-prec and
    e <= 2: the series is summed at prec + g bits, g above the count of floors
    it can make there, and taken down to prec by one more floor.  A lower
    precision is served from the kept sum the same way.
    """

    def __init__(self, series):
        self.series, self.kept, self.lock = series, (0, 0, 0, 0), threading.Lock()

    def __call__(self, prec: int) -> tuple[int, int]:
        with self.lock:
            if self.kept[0] < prec:  # kept for a lower precision asked for
                p = prec + prec.bit_length() + 10
                self.kept = (prec, p, *self.series(p))
            _, p, x, e = self.kept
        return x >> (p - prec), (e >> (p - prec)) + 2


def _machin_pi(p: int) -> tuple[int, int]:
    x5, e5 = _atan_series(1, 5, p, False)
    x239, e239 = _atan_series(1, 239, p, False)
    return 16 * x5 - 4 * x239, 16 * e5 + 4 * e239


def _machin_ln2(p: int) -> tuple[int, int]:
    parts = [(c, *_atan_series(1, m, p, True)) for c, m in ((18, 26), (-2, 4801), (8, 8749))]
    return sum(c * x for c, x, _ in parts), sum(abs(c) * e for c, _, e in parts)


def _brent_mcmillan(P: int) -> tuple[int, int]:
    """Euler's gamma at scale 2^P.

    With n = 2^p, b_k = (n^k / k!)^2 and c_k = b_k H_k, gamma is
    S / V - p ln 2 - eps where S = sum c_k, V = sum b_k and
    0 < eps < pi e^-4n <= 2^-P for 5n >= P + 2.  b_k and c_k follow
    b_k = b_(k-1) n^2 / k^2 and c_k = (c_(k-1) n^2 / k + b_k) / k, one floor
    each.  From k >= 2n on both fall by at least half per step, so once b_k
    floors to 0 the sums' tails are below b_k and c_k with their errors.
    """
    p = ((P + 6) // 5 - 1).bit_length()
    n2, one = 1 << 2 * p, 1 << P
    b, eb, c, ec = one, 0, 0, 0
    V, eV, S, eS = b, eb, c, ec
    k = 0
    while b or k < 2 << p:
        k += 1
        k2 = k * k
        b, eb = b * n2 // k2, -(-eb * n2 // k2) + 1
        c, ec = (c * n2 // k + b) // k, -(-(ec * n2 + k * (1 + eb)) // k2) + 1
        V, eV, S, eS = V + b, eV + eb, S + c, eS + ec
    eV, eS = eV + eb + b, eS + ec + c
    q = (S << P) // V
    hi = -(-(S + eS << P) // (V - eV))
    lo = (S - eS << P) // (V + eV)
    L, eL = ln2_fixed(P)
    return q - p * L, max(hi - q, q - lo) + p * eL + 1


pi_fixed = _Constant(_machin_pi)
ln2_fixed = _Constant(_machin_ln2)
euler_fixed = _Constant(_brent_mcmillan)


def mpf_log(s: tuple, prec: int, rnd: str = "d") -> tuple:
    """ln s for s > 0, correctly rounded.

    s = 2^k (1 + z) / (1 - z) with |z| < 0.18, so ln s = k ln 2 + 2 atanh z;
    the sum is evaluated with its counted error at growing precision until
    both ends of its interval round to the same value.
    """
    sign, man, exp, bc = s
    if sign or not man:
        raise ValueError("ln needs a positive argument")
    r = bc if 2 * man * man >= 1 << 2 * bc else bc - 1  # man / 2^r in [1/sqrt 2, sqrt 2)
    k, a, b = exp + r, man - (1 << r), man + (1 << r)
    if not k and not a:
        return fzero
    wp = prec + 20 + (0 if k else b.bit_length() - abs(a).bit_length())
    while True:
        L, eL = ln2_fixed(wp)
        A, eA = _atan_series(abs(a), b, wp, True)
        x, e = k * L + (2 * A if a > 0 else -2 * A), abs(k) * eL + 2 * eA
        lo = from_man_exp(x - e, -wp, prec, rnd)
        if lo == from_man_exp(x + e, -wp, prec, rnd):
            return lo
        wp += wp // 2


# -- decimal output ---------------------------------------------------------------

_LOG2_10 = log(10, 2)  # the float libmp sizes its digit conversion with


def _pow10(n: int, prec: int, rnd: str) -> tuple:
    """10^n rounded as libmp.mpf_pow_int(ften, n, prec, rnd) rounds it, for rnd
    "d" or "u": exactly below 334, else by binary powering with every product
    cut to prec + 4 bitlen(n) + 4 bits in the direction of rnd; a negative
    power is the reciprocal of the positive one, rounded the other way."""
    if n < 0:
        return mpf_div(_fone, _pow10(-n, prec + 5, "u" if rnd == "d" else "d"), prec, rnd)
    if 3 * n < 1000:
        return normalize(0, 5**n, n, prec, rnd)
    workprec = prec + 4 * n.bit_length() + 4

    def cut(m, e):
        over = m.bit_length() - workprec
        if over <= 0:
            return m, e
        return (m >> over if rnd == "d" else -(-m >> over)), e + over

    pm, pe, m, e = 1, 0, 5, 1
    while True:
        if n & 1:
            pm, pe = cut(pm * m, pe + e)
            n -= 1
            if not n:
                return normalize(0, pm, pe, prec, rnd)
        m, e = cut(m * m, e + e)
        n //= 2


def _digits_exp(s: tuple, dps: int) -> tuple[str, str, int]:
    """(sign, digits, exponent) of s != 0: its leading decimal digits, floored,
    as libmp.to_digits_exp gives them."""
    sign, man, exp, bc = s
    bitprec = int(dps * _LOG2_10) + 10
    b = 0
    if abs(exp + bc) > 3500:
        # libmp takes the power of ten to divide by from ln 2 and ln 10 truncated
        # to bitlen(exp) + 5 bits
        expprec = abs(exp).bit_length() + 5
        tmp = mpf_mul(from_int(exp), mpf_log(from_int(2), expprec, "d"), 0)
        b = _to_int(mpf_div(tmp, mpf_log(from_int(10), expprec, "d"), expprec, "d"))
        _, man, exp, bc = mpf_div((0, man, exp, bc), _pow10(b, bitprec, "d"), bitprec, "d")
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str(to_fixed((0, man, exp, bc), fixprec) * 10**fixdps >> fixprec)
    return "-" if sign else "", digits, b + len(digits) - fixdps - 1


def to_str(s: tuple, dps: int, rnd: str = "n") -> str:
    """s as a decimal literal of at most dps >= 1 significant digits, as
    libmp.to_str(s, dps) writes it: fixed-point between 10^min(-dps/3, -5) and
    10^dps, trailing zeros stripped.  With rnd "u" the digits are those of the
    least such decimal at or above |s|, not libmp's rounding."""
    if not s[1]:
        return "0.0"
    if rnd == "u":  # |s| = man / 2^-exp, the quotient rounded once
        _, man, exp, _ = s
        up = Context(prec=dps, rounding=ROUND_UP).divide(Decimal(man << max(exp, 0)), Decimal(1 << max(-exp, 0)))
        sign, exponent = "-" if s[0] else "", up.adjusted()
        digits = "".join(map(str, up.as_tuple().digits)).ljust(dps, "0")
    else:
        sign, digits, exponent = _digits_exp(s, dps + 3)
        if len(digits) > dps and digits[dps] in "56789":
            digits = str(int(digits[:dps]) + 1)
            if len(digits) > dps:
                digits, exponent = digits[:dps], exponent + 1
        else:
            digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if not exponent:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
