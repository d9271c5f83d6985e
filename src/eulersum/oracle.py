"""Independent ground truth: direct summation of every series family.

Each family is summed at its definition: an exactly-evaluated head of N terms
plus a certified tail.  Tails come from Euler-Maclaurin (monotone series) or
Boole summation (alternating series) applied to the explicit asymptotic form
of the summand, with worst-case remainder bounds

    |R_K^EM|    <= 4 (2 pi)^(-2K) Int |f^(2K)|,
    |R_K^Boole| <= 4 pi^(-K)      Int |f^(K)|,

so raw O(log N / N^(s-1)) convergence never limits the tolerance.  Every
weight and inner tail comes from one generator: H_x^(p) expanded in powers of
x from the Bernoulli numbers (enveloping for p = 1, zeta(p) minus the
Euler-Maclaurin tail for p >= 2), taken in the weight's exact combination
sum_i c_i H_(d_i n)^(p), e.g. S_n^(p) = H_2n^(p) - 2^-p H_n^(p), with the
remainders added in absolute value.  For order p >= 2 the sum is split as
C0 - sum_n r_n / n^s, r_n = r0 - w_n the weight's tail, of order n^(1-s-p).

The cutoff N is chosen from the bounds alone, without evaluating the tail.
Each evaluator describes its tail once, as data (_Plan): the power-log terms,
the kernel that expands them, and every bound component as power-log specs
with a scale factor.  That description is evaluated two ways.  Candidates
N = 32, 64, ... are screened with float estimates in log space, which are
lower estimates of the certified bound up to float rounding; a candidate
whose estimate misses tol/2 by more than that is passed over.  The first
candidate the screen lets through is certified in BigReal, and only if that
bound misses tol/2 does the search go on.  So N and the bound are those a
certified bound at every candidate would give, and no float enters them.
The tail value is then built once, at the accepted N.  Value and bound work
on the tail's power-log terms (A + B ln x) x^-p merged by power p: signed
sums of A and B for the value, sums of |A| and |B| for the bound (which is
linear in them, so merging leaves it unchanged).  The per-power factors are
exact rationals, rounded once into BigReal.

The head is summed in numerics.FixedPoint: integers scaled by 2^prec, with
prec = working_bits + ceil(log2 N) + guard bits, where every rounding is a
floor whose error is counted exactly beside the value.  That count is the
head's a-priori rounding bound; it comes back with the head as one BigReal,
and the tail and the remainder bounds are computed in BigReal, so all
rounding is part of the reported bound.  Summation order is fixed (ascending
n) and term counts are chosen deterministically from the bounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, inf, log, log1p
from typing import NamedTuple, Optional

from mpmath.libmp import fzero, mpf_add, to_float

from . import exact
from .numerics import (
    _EPREC,
    BigReal,
    FixedPoint,
    LRUCache,
    PrecisionContext,
    DEFAULT_CONTEXT,
    _pochhammer,
    const_gamma,
    const_log2,
    const_pi,
    zeta_num,
)
from .sums import FAMILIES, SumId

__all__ = [
    "OracleConfig",
    "OracleResult",
    "BudgetExhausted",
    "oracle_eval",
    "oracle_value",
    "partial_sum",
]


class BudgetExhausted(RuntimeError):
    """max_terms cannot certify target_tolerance even with tail corrections."""


class OracleConfig:
    __slots__ = ("target_tolerance", "max_terms", "tail_order")

    def __init__(self, target_tolerance: float = 1e-10, max_terms: int = 10**7, tail_order: int = 4):
        if not target_tolerance > 0:
            raise ValueError("target_tolerance must be positive")
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        if tail_order < 0:
            raise ValueError("tail_order must be >= 0")
        object.__setattr__(self, "target_tolerance", float(target_tolerance))
        object.__setattr__(self, "max_terms", int(max_terms))
        object.__setattr__(self, "tail_order", int(tail_order))

    def __setattr__(self, *a):
        raise AttributeError("OracleConfig is immutable")

    def __repr__(self):
        return (
            f"OracleConfig(target_tolerance={self.target_tolerance!r}, "
            f"max_terms={self.max_terms}, tail_order={self.tail_order})"
        )


class OracleResult(NamedTuple):
    value: BigReal
    achieved_bound: float
    terms_used: int


# ---------------------------------------------------------------------------
# power-log tail machinery: finite sums of (A + B ln n) n^-p
# ---------------------------------------------------------------------------
#
# A term (A, B, p) stands for (A + B ln x) x^-p; A and B are rationals or
# BigReals, and rationals are kept exact as long as possible.  For such f,
#
#     f^(m)(N)      = (-1)^m (p)_m (A + B (ln N - H(p, m))) N^-(p+m),
#     Int_N^inf f   = ((A + B ln N) / (p-1) + B / (p-1)^2) N^(1-p),
#
# with H(p, m) = sum_{i<m} 1/(p+i), so every tail quantity below is
# A R + B (R ln N + Q) per power, with exact rationals R and Q.


@lru_cache(maxsize=1024)
def _hslice(p: int, m: int) -> Fraction:
    return sum((Fraction(1, p + i) for i in range(m)), Fraction(0))


def _br(x, ctx) -> BigReal:
    return x if isinstance(x, BigReal) else BigReal.from_fraction(Fraction(x), ctx)


def _merge(terms, absolute: bool = False) -> list[tuple]:
    """One term per power: A and B summed over the terms sharing p.

    With absolute, |A| and |B| are summed instead; the bounds below are linear
    in (|A|, |B|) at fixed p, so a merged bound equals the sum of the
    per-term bounds.
    """
    merged: dict = {}
    for A, B, p in terms:
        if absolute:
            A, B = abs(A), abs(B)
        if p in merged:
            a, b = merged[p]
            A, B = a + A, b + B
        merged[p] = (A, B)
    return [(A, B, p) for p, (A, B) in merged.items()]


def _pl_combine(A, B, R: Fraction, Q: Fraction, lnN: BigReal, ctx) -> BigReal:
    """A R + B (R ln N + Q)."""
    out = _br(A * R, ctx)
    if B:
        out = out + B * (lnN * R + _br(Q, ctx))
    return out


def _pl_value(terms, N: int, derivs, integral: bool, ctx) -> BigReal:
    """[Int_N^inf f] + sum_m c f^(m)(N) over (c, m) in derivs, f the sum of the terms."""
    lnN = BigReal.from_int(N, ctx).ln()
    val = BigReal.zero(ctx)
    for A, B, p in _merge(terms):
        R = Q = Fraction(0)
        if integral:
            R = Fraction(1, (p - 1) * N ** (p - 1))
            Q = R / (p - 1)
        for c, m in derivs:
            r = c * Fraction((-1) ** m * _pochhammer(p, m), N ** (p + m))
            R += r
            Q -= r * _hslice(p, m)
        val = val + _pl_combine(A, B, R, Q, lnN, ctx)
    return val


def _abs_integral(terms, m: int, N: int, ctx) -> BigReal:
    """Upper bound for Int_N^inf |d^m/dx^m sum of the terms| dx.

    |f^(m)(x)| <= (p)_m (|A| + |B| H(p, m) + |B| ln x) x^-(p+m) for x >= 1.
    """
    lnN = BigReal.from_int(N, ctx).ln()
    total = BigReal.zero(ctx)
    for a, b, p in _merge(terms, absolute=True):
        q = p + m
        R = Fraction(_pochhammer(p, m), (q - 1) * N ** (q - 1))
        total = total + _pl_combine(a, b, R, R * (_hslice(p, m) + Fraction(1, q - 1)), lnN, ctx)
    return total


# Each tail comes as a remainder bound, scale * Int |f^(m)| over the tail terms
# f (see _Plan), and a value, evaluated once at the cutoff the bound accepts.


@lru_cache(maxsize=64)
def _pi_power(base: int, k: int, ctx) -> BigReal:
    """(base pi)^-k for base 1 or 2, built once per precision."""
    pi = const_pi(ctx)
    return (pi if base == 1 else pi * base) ** (-k)


def _em_remainder(K: int, ctx) -> tuple:
    """(m, scale) of the remainder bound of _em_value(terms, N, K)."""
    if K:
        return 2 * K, _pi_power(2, 2 * K, ctx) * 4
    return 1, Fraction(1, 2)


def _em_derivs(K: int) -> list[tuple[Fraction, int]]:
    """[(c, m)] with Int_N^inf f + sum c f^(m)(N) the Euler-Maclaurin sum of order
    K over n > N: Int_N^inf f - f(N)/2 - sum_k B_2k/(2k)! f^(2k-1)(N)."""
    return [(Fraction(-1, 2), 0)] + [(-exact.bernoulli(2 * k) / factorial(2 * k), 2 * k - 1) for k in range(1, K + 1)]


def _em_value(terms, N: int, K: int, ctx) -> BigReal:
    """Sum over n > N of the terms by Euler-Maclaurin of order K."""
    return _pl_value(terms, N, _em_derivs(K), True, ctx)


def _boole_remainder(K: int, ctx) -> tuple:
    """(m, scale) of the remainder bound of _boole_value(terms, M, K), K >= 1."""
    return K, _pi_power(1, K, ctx) * 4


def _boole_derivs(K: int) -> list[tuple[Fraction, int]]:
    """[(E_k(0)/(2 k!), k)] for k < K, skipping even k >= 2 where E_k(0) = 0."""
    derivs = [(Fraction(1, 2), 0)]
    for k in range(1, K, 2):
        e_k = Fraction(2) * (1 - Fraction(2 ** (k + 1))) * exact.bernoulli(k + 1) / (k + 1)
        derivs.append((e_k / (2 * factorial(k)), k))
    return derivs


def _boole_value(terms, M: int, K: int, ctx) -> BigReal:
    """Sum over n >= M of (-1)^(n-M) times the terms, by Boole summation of order K:
    sum_{k<K} E_k(0)/(2 k!) f^(k)(M)."""
    return _pl_value(terms, M, _boole_derivs(K), False, ctx)


def _abs_tail(a, b, p: int, N: int, ctx) -> BigReal:
    """Upper bound for sum over n > N of (a + b ln n) n^-p with a, b >= 0."""
    lnN1 = BigReal.from_int(N + 1, ctx).ln()
    first = _pl_combine(a, b, Fraction(1, (N + 1) ** p), Fraction(0), lnN1, ctx)
    return _abs_integral([(a, b, p)], 0, N, ctx) + first


# ---------------------------------------------------------------------------
# asymptotics of the weight sequences and of the odd kernels
# ---------------------------------------------------------------------------

def _harmonic_expansion(p: int, K: int) -> tuple[tuple[tuple[int, Fraction], ...], Fraction, int]:
    """H_x^(p) minus its constant (gamma for p = 1, else zeta(p)) to order K, at
    integers x >= 1: ((e, a_e), ...), rem and q with |H_x^(p) - const - [ln x
    for p = 1] - sum_e a_e x^-e| <= rem x^-q, times (2 pi)^-2K for p >= 2.

    The series is minus the Euler-Maclaurin expansion of sum_{k>x} k^-p, with
    ln x for the integral when p = 1; then it envelops, so the first omitted
    term bounds the error."""
    a = tuple((p + m, -c * (-1) ** m * _pochhammer(p, m)) for c, m in _em_derivs(K))
    if p == 1:
        return a, abs(exact.bernoulli(2 * K + 2)) / (2 * K + 2), 2 * K + 2
    q = p + 2 * K - 1
    return ((p - 1, Fraction(-1, p - 1)), *a), Fraction(4 * _pochhammer(p, 2 * K), q), q


@lru_cache(maxsize=256)
def _weight_expansion(kind: str, p: int, K: int) -> tuple[tuple[tuple[Fraction, int], ...], tuple, Fraction, int]:
    """(((c_i, d_i), ...), terms, rem, q): the weight of the kind and order p
    (_weight_step) is sum_i c_i H_(d_i n)^(p), less 1/(2n) for H2N1 = H_(2n-1);
    its expansion, the same combination of _harmonic_expansion's, has constant
    sum_i c_i const(H^(p)) and, for p = 1, sum_i c_i ln(d_i n)."""
    combo = ((Fraction(1), 2), (-Fraction(1, 2**p), 1)) if kind == "S" else ((Fraction(1), 1 if kind == "H" else 2),)
    a, rem, q = _harmonic_expansion(p, K)
    out: dict = {}
    for c, d in combo:
        for e, ae in a:
            out[e] = out.get(e, 0) + c * ae / d**e
    if kind == "H2N1":
        out[1] -= Fraction(1, 2)
    return combo, tuple((e, x) for e, x in out.items() if x), sum(abs(c) * rem / d**q for c, d in combo), q


def _weight_pl(kind: str, ctx) -> tuple[list[tuple[BigReal, Fraction, int]], Fraction, int]:
    """The order-1 weight of the kind as power-log terms (A, B, e) to n^-6, and D, q
    with truncation at most D n^-q; at e = 0, sum_i c_i (gamma + ln d_i + ln n)."""
    combo, terms, D, q = _weight_expansion(kind, 1, 2)
    total = sum(c for c, _ in combo)
    A = _br(0, ctx) + const_gamma(ctx) * total
    log2 = sum(c for c, d in combo if d == 2)  # ln d_i = ln 2 or 0
    if log2:
        A = A + const_log2(ctx) * log2
    return [(A, total, 0)] + [(_br(a, ctx), Fraction(0), e) for e, a in terms], D, q


def _weight_step(kind: str, n: int, fx: FixedPoint, order: int = 1) -> tuple[int, int]:
    """w_n - w_(n-1) in fixed point, with its error bound, for the weight of the
    kind and order: H_n^(order), S_n^(order), H_2n^(order), or H_(2n-1)."""
    if kind == "H":
        return fx.recip(n, order), 1
    if kind == "S":
        return fx.recip(2 * n - 1, order), 1
    if kind == "H2N":
        return fx.recip(2 * n - 1, order) + fx.recip(2 * n, order), 2
    # H2N1: H_(2n-1) gains 1/(2n-2) + 1/(2n-1) after the first step
    if n == 1:
        return fx.one, 0
    return fx.recip(2 * n - 2) + fx.recip(2 * n - 1), 2


@lru_cache(maxsize=1024)
def _kernel_coeffs(s: int, c: int, I: int) -> tuple[tuple[Fraction, ...], tuple[float, ...]]:
    """coeff_i for i < I of (2n+c)^-s = sum_i coeff_i n^(-s-i), exact and as floats."""
    coeffs = tuple(Fraction((-c) ** i * comb(s + i - 1, i), 2 ** (s + i)) for i in range(I))
    return coeffs, tuple(map(float, coeffs))


# Float twins of _abs_integral and _abs_tail, in natural logs so that no
# N^-(p+m) underflows.  They estimate the BigReal bounds to float rounding and
# only decide which bounds are worth certifying; they never enter a bound.

_FLOAT_MARGIN = 1e-9  # far above the relative rounding of any float estimate here


def _log_sum(logs) -> float:
    """log(sum(exp(x) for x in logs)), -inf for no terms."""
    logs = list(logs)
    if not logs:
        return -inf
    top = max(logs)
    return top + log(sum(exp(x - top) for x in logs))


_LN2 = log(2)


def _log_pos(x) -> float:
    """Natural log of a positive BigReal or rational, without float underflow."""
    if isinstance(x, BigReal):
        _, man, e, _ = x.value_tuple()
        return log(man) + e * _LN2
    x = Fraction(x)
    return log(x.numerator) - log(x.denominator)


@lru_cache(maxsize=1024)
def _log_poch_hslice(p: int, m: int) -> tuple[float, float]:
    """log (p)_m and H(p, m) as floats."""
    return log(_pochhammer(p, m)), float(_hslice(p, m))


def _log_abs_integral(terms, m: int, N: int) -> float:
    """Natural log of _abs_integral(terms, m, N) in floats, for float terms."""
    lnN = log(N)
    logs = []
    for a, b, p in _merge(terms, absolute=True):
        q = p + m
        log_poch, h = _log_poch_hslice(p, m)
        env = a + b * (lnN + h + 1 / (q - 1))
        if env > 0:
            logs.append(log_poch - log(q - 1) - (q - 1) * lnN + log(env))
    return _log_sum(logs)


def _log_abs_tail(a: float, b: float, p: int, N: int) -> float:
    """Natural log of _abs_tail(a, b, p, N) in floats, for a > 0 and b >= 0."""
    lnN, lnN1 = log(N), log(N + 1)
    t1 = log(a + b * (lnN + 1 / (p - 1))) - log(p - 1) - (p - 1) * lnN
    t2 = log(a + b * lnN1) - p * lnN1
    return max(t1, t2) + log1p(exp(-abs(t1 - t2)))


def _kernel_orders(kern: _Kernel, N: int, first: int = 4):
    """The orders I in first, first + 4, ..., 40 at which the float estimate of
    the kernel truncation bound _abs_tail(a rem, b rem, k + I, N) is
    within limit, and order 40, ascending, as (I, log estimate); a None once N
    is too small for the expansion of an order (q >= 1/2 in _kernel_order).
    """
    k, fa, fb = kern.k, float(kern.a), float(kern.b)
    log_limit = log(kern.limit) + _FLOAT_MARGIN
    for I in range(first, 41, 4):
        if k + I >= (I + 1) * N:
            yield None
            return
        rem = comb(k + I - 1, I) / 2 ** (k + I) / (1 - (k + I) / (2 * (I + 1) * N))
        est = _log_abs_tail(fa * rem, fb * rem, k + I, N)
        if est <= log_limit or I == 40:
            yield I, est


def _kernel_order(kern: _Kernel, N: int, first: int, ctx):
    """Expansion of (2n+c)^-k to the lowest order I in first, first + 4, ..., 40
    whose truncation bound is at most limit, or to order 40.

    Returns (coeffs, bound), or None when N is too small for an order tried.
    Orders the float estimate rules out are passed over; the certified bound
    decides for the others, so the order chosen and the bound returned never
    rest on the float.
    """
    k = kern.k
    for order in _kernel_orders(kern, N, first):
        if order is None:
            return None
        I, _ = order
        coeffs = _kernel_coeffs(k, kern.c, I)[0]
        # the remainder is at most rem n^(-k-I) for n >= N, as q = (k+I) / (2 (I+1) N) < 1/2
        rem = Fraction(comb(k + I - 1, I), 2 ** (k + I)) / (1 - Fraction(k + I, 2 * (I + 1) * N))
        bound = _abs_tail(kern.a * rem, kern.b * rem, k + I, N, ctx)
        if _upper_float(bound) <= kern.limit or I == 40:
            return coeffs, bound


def _upper_float(x: BigReal) -> float:
    return to_float(x.upper_tuple(), rnd="u")


# ---------------------------------------------------------------------------
# tail plans and the cutoff search
# ---------------------------------------------------------------------------


class _Kernel:
    """Expansion of (2n + c)^-k in powers of n, for terms summing to at most
    a + b ln n in absolute value; its truncation bound must meet limit."""

    __slots__ = ("k", "c", "a", "b", "limit")

    def __init__(self, k: int, c: int, a, b, limit: float):
        self.k, self.c, self.a, self.b, self.limit = k, c, a, b, limit


class _Plan:
    """An evaluator's tail and the components of its bound, as data.

    terms, kernel: the tail's power-log terms (A, B, e); with a _Kernel, each
      term is multiplied by the kernel's expansion sum_i c_i n^(-k-i), giving
      (A c_i, B c_i, e + k + i).
    part: (name, (a, b, p), scale): the truncation made outside the kernel,
      bounded by scale * _abs_tail(a, b, p, N); scale None stands for 1.
    tail: (m, scale, at): the remainder of the tail formula, bounded by
      scale * Int_(N+at)^inf |f^(m)| with f the sum of the tail terms.

    _screen and _certify evaluate this one description in floats and in BigReal.
    """

    __slots__ = ("terms", "kernel", "part", "tail")

    def __init__(self, terms: list, kernel: Optional[_Kernel], part: tuple, tail: tuple):
        self.terms, self.kernel, self.part, self.tail = terms, kernel, part, tail


_KERNEL = "kernel truncation"


def _expand(terms, kern: _Kernel, coeffs) -> list:
    return [(A * ci, B * ci, e + kern.k + i) for A, B, e in terms for i, ci in enumerate(coeffs) if ci]


def _screen(plan: _Plan, N: int) -> Optional[tuple[dict, Optional[int]]]:
    """Natural logs of float estimates of the plan's bound components at N, by
    name, and the order the kernel was expanded to (None without a kernel);
    None when N is too small for the kernel expansion.

    The kernel is expanded to the lowest order its float estimate admits.  The
    coefficient lists of the orders are prefixes of one another, so the tail
    remainder estimated from those terms is never above the one certified at
    the order _kernel_order picks, which is never lower.  The kernel estimate
    itself falls as the order rises, so it is no lower estimate and is kept
    apart under _KERNEL.
    """
    terms = [(abs(float(A)), abs(float(B)), e) for A, B, e in plan.terms]
    kern, first = plan.kernel, None
    if kern is not None:
        order = next(_kernel_orders(kern, N))
        if order is None:
            return None
        first, kernel = order
        terms = _expand(terms, kern, _kernel_coeffs(kern.k, kern.c, first)[1])
    name, (a, b, p), scale = plan.part
    m, tail_scale, at = plan.tail
    est = {
        name: _log_abs_tail(float(a), float(b), p, N) + (0.0 if scale is None else _log_pos(scale)),
        "tail remainder": _log_abs_integral(terms, m, N + at) + _log_pos(tail_scale),
    }
    if kern is not None:
        est[_KERNEL] = kernel
    return est, first


def _certify(plan: _Plan, N: int, first: Optional[int], ctx) -> Optional[tuple[list, BigReal]]:
    """(tail terms, bound) of the plan at N in BigReal, or None when N is too
    small for the kernel expansion.  The bound sums the kernel truncation, the
    plan's part and the tail remainder.

    The search for the kernel's order starts at first: the order _screen
    found, below which the float estimate rules every order out.
    """
    terms, kernel = plan.terms, None
    if plan.kernel is not None:
        order = _kernel_order(plan.kernel, N, first, ctx)
        if order is None:
            return None
        coeffs, kernel = order
        terms = _expand(terms, plan.kernel, coeffs)
    _, (a, b, p), scale = plan.part
    total = _abs_tail(a, b, p, N, ctx)
    if scale is not None:
        total = total * scale
    if kernel is not None:
        total = kernel + total
    m, tail_scale, at = plan.tail
    return terms, total + _abs_integral(terms, m, N + at, ctx) * tail_scale


_N_START = 32


def _n_candidates(cfg: OracleConfig):
    """N = 32, 64, ... below max_terms, then max_terms itself."""
    n = _N_START
    while n < cfg.max_terms:
        yield n
        n *= 2
    yield cfg.max_terms


def _select(cfg: OracleConfig, plan: _Plan, ctx) -> tuple[int, list, BigReal]:
    """(N, tail terms, bound) for the first candidate cutoff whose certified bound
    meets tol/2.

    Each candidate N = 32, 64, ... is first screened in floats (_screen): it is
    passed over when the estimate of its bound without the kernel truncation
    exceeds tol/2 by more than float rounding, since its certified bound, never
    below that estimate, would too.  The first candidate the screen lets
    through is certified in BigReal (_certify); if that bound misses tol/2,
    the search goes on.  So N, the bound and the tail terms are those a
    certified bound at every candidate would give, and no float enters them.
    """
    tol = cfg.target_tolerance
    log_half = log(tol / 2) + _FLOAT_MARGIN
    for N in _n_candidates(cfg):
        screened = _screen(plan, N)
        if screened is None:
            continue
        est, first = screened
        if _log_sum(v for k, v in est.items() if k != _KERNEL) > log_half:
            continue
        step = _certify(plan, N, first, ctx)
        if step is not None and _upper_float(step[1]) <= tol / 2:
            return N, *step
    msg = f"cannot certify {tol} within {cfg.max_terms} terms"
    if screened is None:
        raise BudgetExhausted(f"{msg}: N = {N} is too small for the kernel expansion")
    est = screened[0]
    name = max(est, key=est.get)
    raise BudgetExhausted(f"{msg}: at N = {N} the largest bound component is the {name}, "
                          f"about {exp(est[name]):.3e}, against tol/2 = {tol / 2:.3e}")


# ---------------------------------------------------------------------------
# family evaluators
# ---------------------------------------------------------------------------


def _weighted_head(kind: str, kern_c: Optional[int], s: int, N: int, ctx) -> BigReal:
    """sum_{n<=N} w_n * base(n)^-s with base = n (kern_c None) or 2n + kern_c."""
    fx = FixedPoint(ctx, N)
    acc = err = w = we = 0
    for n in range(1, N + 1):
        dw, de = _weight_step(kind, n, fx)
        w += dw
        we += de
        t, te = fx.mul(w, we, fx.recip(n if kern_c is None else 2 * n + kern_c, s), 1)
        acc += t
        err += te
    return fx.to_big(acc, err)


def _eval_weighted(kind: str, kern_c: Optional[int], s: int, cfg: OracleConfig, ctx) -> OracleResult:
    """sum_{n>=1} w_n * base(n)^-s with base = n (kern_c None) or 2n + kern_c."""
    wterms, D, q = _weight_pl(kind, ctx)
    K = cfg.tail_order
    if kern_c is None:
        terms, kern = [(A, B, e + s) for A, B, e in wterms], None
    else:
        sum_a = sum((abs(A) for A, _, _ in wterms), BigReal.zero(ctx))
        sum_b = sum(abs(B) for _, B, _ in wterms)
        terms, kern = wterms, _Kernel(s, kern_c, sum_a, sum_b, cfg.target_tolerance / 8)
    plan = _Plan(terms, kern, ("weight-expansion truncation", (D, 0, s + q), None), (*_em_remainder(K, ctx), 0))
    N, pl, bounds = _select(cfg, plan, ctx)
    return _finish(_weighted_head(kind, kern_c, s, N, ctx) + _em_value(pl, N, K, ctx), bounds, N, cfg)


def _eval_remainder_split(kind: str, s: int, p: int, cfg: OracleConfig, ctx) -> OracleResult:
    """C0 - sum_n r_n / n^s for sigma(s,t>=2), ZetaStar(q,p>=2), E(p>=2,q), where
    w_n = sum_i c_i H_(d_i n)^(p) is the weight of the kind and order p, r0 =
    zeta(p) sum_i c_i its limit, C0 = r0 zeta(s), and the inner tail r_n = r0 - w_n
    is minus the weight's expansion (_weight_expansion), in powers of n."""
    K = cfg.tail_order
    J = max(3, K)
    combo, wterms, rem, q = _weight_expansion(kind, p, J)
    zp, total = zeta_num(p, ctx), sum(c for c, _ in combo)
    r0 = zp if total == 1 else zp * total
    c0 = r0 * zeta_num(s, ctx)
    terms = [(-a, 0, e + s) for e, a in wterms]
    plan = _Plan(terms, None, ("inner-tail remainder", (rem, 0, q + s), _pi_power(2, 2 * J, ctx)),
                 (*_em_remainder(K, ctx), 0))
    N, pl, bounds = _select(cfg, plan, ctx)
    # c0 - sum_{n<=N} r_n n^-s, with r_n = r0 minus the inner terms up to n
    fx = FixedPoint(ctx, N)
    acc, err = fx.from_big(c0)
    r, re = fx.from_big(r0)
    for n in range(1, N + 1):
        dr, de = _weight_step(kind, n, fx, p)
        r -= dr
        re += de
        t, te = fx.mul(r, re, fx.recip(n, s), 1)
        acc -= t
        err += te
    return _finish(fx.to_big(acc, err) - _em_value(pl, N, K, ctx), bounds, N, cfg)


def _alt_euler_star_head(s: int, M: int, ctx) -> BigReal:
    """sum_{n<=M} (-1)^(n-1) H_n n^-s."""
    fx = FixedPoint(ctx, M)
    acc = err = h = 0
    for n in range(1, M + 1):
        h += fx.recip(n)  # h carries n units of error
        t, te = fx.mul(h, n, fx.recip(n, s), 1)
        acc += t if n % 2 else -t
        err += te
    return fx.to_big(acc, err)


def _eval_alt_euler_star(a: int, cfg: OracleConfig, ctx) -> OracleResult:
    s = 2 * a
    KB = max(4, 2 * cfg.tail_order)
    wterms, D, q = _weight_pl("H", ctx)
    pl = [(A, B, e + s) for A, B, e in wterms]
    # the tail starts at n = M+1; M is even, so its sign is +1
    plan = _Plan(pl, None, ("weight-expansion truncation", (D, 0, s + q), None), (*_boole_remainder(KB, ctx), 1))
    M, _, bounds = _select(cfg, plan, ctx)
    return _finish(_alt_euler_star_head(s, M, ctx) + _boole_value(pl, M + 1, KB, ctx), bounds, M, cfg)


def _eval_alt_tilde(a: int, cfg: OracleConfig, ctx) -> OracleResult:
    s = 2 * a
    K = cfg.tail_order
    KB = max(6, 2 * K + 2)
    eta = zeta_num(s, ctx) * (1 - Fraction(2, 2**s))
    lead = -(eta * const_log2(ctx))
    # tau_n = sum_{j>=n} (-1)^(j-n) j^-s expanded by Boole summation at n;
    # the tail sums tau_n / n
    pl = [(c * (-1) ** k * _pochhammer(s, k), 0, s + k + 1) for c, k in _boole_derivs(KB)]
    rem_c = Fraction(4 * _pochhammer(s, KB), s + KB - 1)
    # the Boole remainder of tau_n truncates the weight's expansion
    plan = _Plan(pl, None, ("weight-expansion truncation", (rem_c, 0, s + KB), _pi_power(1, KB, ctx)),
                 (*_em_remainder(K, ctx), 0))
    N, _, bounds = _select(cfg, plan, ctx)
    fx = FixedPoint(ctx, N)
    acc = err = 0
    tau, tau_e = fx.from_big(eta)  # tau_1
    for n in range(1, N + 1):
        t, te = fx.mul(tau, tau_e, fx.recip(n), 1)
        acc += t
        err += te
        tau = fx.recip(n, s) - tau
        tau_e += 1
    return _finish(lead + fx.to_big(acc, err) + _em_value(pl, N, K, ctx), bounds, N, cfg)


def _finish(value: BigReal, math_bounds: BigReal, terms: int, cfg: OracleConfig) -> OracleResult:
    total = mpf_add(value.err_tuple(), math_bounds.upper_tuple(), _EPREC, "u")
    achieved = to_float(total, rnd="u")
    if achieved == 0.0 and total != fzero:
        achieved = 1e-300  # float underflow guard; the BigReal keeps the true bound
    if achieved > cfg.target_tolerance:
        raise BudgetExhausted(
            f"achieved bound {achieved:.3e} exceeds target {cfg.target_tolerance:.3e}"
        )
    return OracleResult(value.widened(total), achieved, terms)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

# far above the distinct (sum, tolerance, precision) keys of one verify or solve run
_cache = LRUCache(1024)


def oracle_eval(sid: SumId, cfg: Optional[OracleConfig] = None,
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> OracleResult:
    """Certified numerical value of the series named by sid.

    |value - true sum| <= achieved_bound <= cfg.target_tolerance, or
    BudgetExhausted.  Deterministic for fixed (sid, cfg, ctx).
    """
    cfg = cfg or OracleConfig()
    floor = 2.0 ** -(ctx.working_bits - ctx.guard_bits)
    if cfg.target_tolerance < floor:
        raise ValueError(
            f"target_tolerance {cfg.target_tolerance:.3e} below the precision "
            f"contract 2^-{ctx.working_bits - ctx.guard_bits}"
        )
    key = (sid, cfg.target_tolerance, cfg.max_terms, cfg.tail_order,
           ctx.working_bits, ctx.guard_bits)
    return _cache.get(key, lambda: _dispatch(sid, cfg, ctx))


# family -> parameters -> (weight kind, weight order, kernel shift or None, power)
# for the series sum_n w_n base(n)^-power, w_n the weight of that kind and order
# (see _weight_step) and base(n) = n, or 2n + shift with a kernel shift.  Order 1
# is summed directly, higher orders by the remainder split.
_ROUTES = {
    "J": lambda b: ("S", 1, None, b),
    "Jbar": lambda b: ("S", 1, -1, b),
    "sigma": lambda s, t: ("S", t, None, s),
    "h": lambda q: ("H", 1, +1, q),
    "Z": lambda a: ("H2N", 1, None, 2 * a),
    "HoddOverOdd": lambda a: ("H2N1", 1, -1, 2 * a),
    "EulerStar": lambda b: ("H", 1, None, b),
    "ZetaStar": lambda q, p: ("H", p, None, q),
    "E": lambda p, q: ("H2N", p, None, q),
}


def _dispatch(sid: SumId, cfg: OracleConfig, ctx) -> OracleResult:
    fam, p = sid.family, sid.params
    if fam == "AltEulerStar":
        return _eval_alt_euler_star(p[0], cfg, ctx)
    if fam == "AltTildeH":
        return _eval_alt_tilde(p[0], cfg, ctx)
    kind, order, kern_c, s = _ROUTES[fam](*p)
    if order == 1:
        return _eval_weighted(kind, kern_c, s, cfg, ctx)
    return _eval_remainder_split(kind, s, order, cfg, ctx)


def oracle_value(sid: SumId, tol: float = 1e-10, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """Convenience wrapper returning just the BigReal (bound folded into its err)."""
    return oracle_eval(sid, OracleConfig(target_tolerance=tol), ctx).value


# ---------------------------------------------------------------------------
# exact rational partial sums of the defining series
# ---------------------------------------------------------------------------


def partial_sum(sid: SumId, n_terms: int) -> Fraction:
    """Exact value of the first n_terms terms of the defining series of sid."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    term = FAMILIES[sid.family].term
    return sum((term(*sid.params, n) for n in range(1, n_terms + 1)), Fraction(0))
