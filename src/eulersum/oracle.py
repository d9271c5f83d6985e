"""Independent ground truth: direct summation of every series family.

Each series is summed at its definition, by the evaluator its shape (sums.Series)
calls for: an exactly-evaluated head of N terms plus a certified tail.  Tails
come from Euler-Maclaurin (monotone series) or Boole summation (alternating
series) applied to the explicit asymptotic form of the summand, with
worst-case remainder bounds

    |R_K^EM|    <= 4 (2 pi)^(-2K) Int |f^(2K)|,
    |R_K^Boole| <= 4 pi^(-K)      Int |f^(K)|,

so raw O(log N / N^(s-1)) convergence never limits the tolerance.  Every
weight and inner tail is read from numerics' one Euler-Maclaurin/Boole table
of a power x^-p (_pl_coeffs, remainders from _abs_coeffs); this module only
combines those expansions and searches for the cutoff.  H_x^(p) is its
constant (gamma + ln x for p = 1, zeta(p) for p >= 2) minus the
Euler-Maclaurin tail of x^-p, which envelops for p = 1, taken in the weight's
exact combination sum_i c_i H_(d_i n)^(p), e.g. S_n^(p) = H_2n^(p) -
2^-p H_n^(p), with the remainders added in absolute value; the tilde sum's
inner tail is the Boole table of x^-s.  For order p >= 2 the sum is split as
C0 - sum_n r_n / n^s, r_n = r0 - w_n the weight's tail, of order n^(1-s-p).
The families over an odd base 2n + c are summed in m = 2n + c, on the odd
lattice with Euler-Maclaurin step 2, their weights being combinations of
H_m and H_(m/2) and ln 2 (Legendre's duplication of psi).

Every order of a tail follows from one order K: Euler-Maclaurin order K,
weights expanded to order max(2, K-2), inner tails to max(3, K), and Boole
order max(4, 2K) (max(6, 2K+2) for the tilde sum).  Each evaluator is a head
of N terms and its tail at order K as data (_Plan): the power-log terms, the
rule and where it starts, and every bound component as power-log terms with a
scale.  One driver (_sum) adds the chosen plan's tail value, signed (-1)^N for
an alternating (Boole) tail, to the head.  The exact tables a plan reads (the
weight expansions, the tilde sum's Boole terms, numerics' coefficient tables)
are built on integer pairs and kept as prefix lists, one per shape, grown
under a lock when a higher order is asked for; each term is stored with the
logs of its coefficients.  So a plan of order K extends the terms of order
K - 1 by those the new order adds (_Plans), the search builds and logs each
entry once, as its order grows, and once the tables are grown it makes no
Fraction.

The cutoff N and the order K are chosen together, from the bounds alone
(_select).  At each candidate N = 32, 64, ... the orders K = 4, 5, ... are
screened with float estimates in log space, which are lower estimates of the
certified bound up to float rounding, while the estimate keeps falling, least
work first: N plus tail powers times derivative terms.  Each plan holds its
screen data (the stored logs of its coefficients, and log (p)_m from lgamma
and H(p, m) per power, from float prefix lists), so a screen is float
arithmetic alone.  A pair whose
estimate meets log(tol) - ln 2 is certified at once, and the first to certify
is taken.  So (N, K) and the bound are those a certified bound at every
screened pair would give, and no float enters them.

Each result is one numerics.FixedPoint sum at the chosen N: integers scaled
by 2^prec, prec = working_bits + ceil(log2 N) + guard bits, each rounding a
floor counted exactly in an error beside the value.  The head, its constants
(C0 and r0, the tilde sum's lead), the tail value and the bound components
are such (value, error) pairs; the tail's come from numerics' power-log layer
(_tail_value, _abs_integral, _abs_tail), which zeta_num shares.  A bound is
an integer U at least its pairs' upper ends times their scales c (base pi)^-k,
accepted when 2 U den <= num 2^prec for tol = num / den exactly.  Head, tail
and U are added as integers and rounded into a BigReal once, so all rounding
is part of the reported bound.  Summation order is fixed (ascending n).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from math import exp, inf, isfinite, lgamma, log, pi
from typing import NamedTuple, Optional

from .numerics import (
    BigReal,
    FixedPoint,
    PrecisionContext,
    DEFAULT_CONTEXT,
    _abs_coeffs,
    _abs_integral,
    _abs_tail,
    _HALF,
    _n_derivs,
    _pl_table,
    _prefix,
    _rat_add,
    _remainder,
    _scaled_up,
    _tail_value,
    const_gamma,
    const_log2,
    zeta_num,
)
from .sums import FAMILIES, Series, SumId

__all__ = [
    "OracleConfig",
    "OracleResult",
    "BudgetExhausted",
    "oracle_eval",
    "partial_sum",
]


class BudgetExhausted(RuntimeError):
    """max_terms cannot certify target_tolerance even with tail corrections."""


class OracleConfig(namedtuple("OracleConfig", "target_tolerance max_terms")):
    """target_tolerance: the bound to certify; max_terms: the largest cutoff N."""

    __slots__ = ()

    def __new__(cls, target_tolerance: float = 1e-10, max_terms: int = 10**7):
        if not isfinite(target_tolerance):
            raise ValueError(f"target_tolerance must be finite, got {target_tolerance!r}")
        if not target_tolerance > 0:
            raise ValueError("target_tolerance must be positive")
        if type(max_terms) is not int:
            raise ValueError(f"max_terms must be an integer, got {max_terms!r}")
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        return super().__new__(cls, float(target_tolerance), max_terms)


class OracleResult(NamedTuple):
    value: BigReal
    achieved_bound: float
    terms_used: int


# ---------------------------------------------------------------------------
# asymptotics of the weight sequences
# ---------------------------------------------------------------------------

# (kind, shift) -> ((c_i, d_i), ...), l: the order-1 weight of the kind at n as
# sum_i c_i H_(d_i m) + l ln 2 in m = 2n + shift, from H_x = psi(x+1) + gamma
# and Legendre's psi(z + 1/2) = 2 psi(2z) - psi(z) - 2 ln 2
_ODD_COMBOS = {
    ("S", -1): (((_HALF, _HALF),), 1),  # S_n = H_(m/2) / 2 + ln 2
    ("H", 1): (((Fraction(2), 1), (Fraction(-1), _HALF)), -2),  # H_n = 2 H_m - H_(m/2) - 2 ln 2
    ("H2N1", -1): (((Fraction(1), 1),), 0),  # H_(2n-1) = H_m
}


@lru_cache(maxsize=256)
def _combo(kind: str, p: int, shift: Optional[int] = None) -> tuple[tuple[Fraction, int], ...]:
    """((c_i, d_i), ...) with the weight of the kind and order p equal to
    sum_i c_i H_(d_i x)^(p) in x = n, or, for order 1 on the odd lattice, to
    that sum in x = m = 2n + shift plus l ln 2 (_ODD_COMBOS)."""
    if shift is not None:
        return _ODD_COMBOS[kind, shift][0]
    if kind == "S":
        return (Fraction(1), 2), (Fraction(-1, 2**p), 1)
    return ((Fraction(1), {"H": 1, "H2N": 2}[kind]),)


_LOG2_OF = {1: 0, 2: 1, _HALF: -1}


@lru_cache(maxsize=256)
def _combo_sums(kind: str, p: int, shift: Optional[int] = None) -> tuple[Fraction, Fraction]:
    """(sum_i c_i, sum_i c_i log2 d_i plus the l of _ODD_COMBOS) for the
    combination of _combo.  The weight's expansion has constant sum_i c_i
    const(H^(p)), and for order 1 also the second times ln 2 and
    sum_i c_i ln x."""
    combo = _combo(kind, p, shift)
    log2 = sum(c * _LOG2_OF[d] for c, d in combo) + (0 if shift is None else _ODD_COMBOS[kind, shift][1])
    return sum(c for c, _ in combo), log2


def _weight_orders(kind: str, p: int, shift: Optional[int]):
    """The entries of _weight_expansion's prefix list, J = 0, 1, ..."""
    combo, table, done = _combo(kind, p, shift), _pl_table(p, "em", 1, False), 0
    for J in count():
        # order J reads the first n entries of the table of order J, or for p = 1 of
        # the table of order J + 1, whose last entry, entry n, gives the remainder
        n = J + 1 if p == 1 else J + 2
        entries = _prefix(table, n + (p == 1))
        terms = []
        for e, a, b in entries[done:n]:
            x = (0, 1)
            for c, d in combo:
                x = _rat_add(*x, -c.numerator * a * d.denominator**e, c.denominator * b * d.numerator**e)  # -c a / d^e
            if x[0]:
                a = Fraction(*x)
                terms.append((e, a, _log_pos(a)))
        done = n
        if p == 1:
            q, ra, rb = entries[n]
        else:
            ((q, ra, rb),) = _abs_coeffs(p, 2 * J, False)
            ra *= 4
        rem = (0, 1)
        for c, d in combo:
            rem = _rat_add(*rem, abs(c.numerator * ra) * d.denominator**q, c.denominator * rb * d.numerator**q)
        rem = Fraction(*rem)
        yield tuple(terms), rem, q, _log_pos(rem)


@lru_cache(maxsize=256)
def _weight_expansion(kind: str, p: int, shift: Optional[int] = None) -> tuple:
    """The expansions of the weight of the kind and order p (_weight_step) to the
    orders J = 0, 1, ..., a prefix list (numerics._prefix) whose entry J is
    (((e, a_e, ln |a_e|), ...), rem, q, ln rem): the terms a_e x^-e that order J
    adds to order J - 1, and the remainder of order J.

    The weight is sum_i c_i H_(d_i x)^(p) (_combo) in x = n or 2n + shift, and
    H_x^(p) = const - sum_{k>x} k^-p, so its expansion to order J is the
    combination of minus the Euler-Maclaurin table of x^-p (numerics._pl_table),
    plus sum_i c_i const(H^(p)) and, for p = 1, sum_i c_i ln(d_i x).  The error
    is at most sum_i |c_i| rem (d_i x)^-q: for p >= 2 times (2 pi)^-2J, from the
    remainder 4 Int_x^inf |f^(2J)|, at integers x >= 1; for p = 1 (ln x for
    the integral), the first omitted term of psi(x) + 1/x = H_x - gamma, which
    envelops at every real x > 0 (DLMF 5.11(ii)), read from the table of order
    J + 1."""
    return [], _weight_orders(kind, p, shift)


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


# Float twins of _abs_integral and _abs_tail, in natural logs of the terms'
# coefficients, so that no coefficient or N^-(p+m) leaves the float range.
# They estimate the certified bounds to float rounding and only decide which
# bounds are worth certifying; they never enter a bound.

_FLOAT_MARGIN = 1e-9  # far above the relative rounding of any float estimate here


def _log_sum(logs) -> float:
    """log(sum(exp(x) for x in logs)), -inf for no terms."""
    logs = [x for x in logs if x > -inf]
    if not logs:
        return -inf
    top = max(logs)
    return top + log(sum(exp(x - top) for x in logs))


_LN2 = log(2)


def _log_pos(x) -> float:
    """Natural log of |x| for a BigReal or rational x (-inf at 0), without
    float overflow or underflow."""
    if isinstance(x, BigReal):
        _, man, e, _ = x.value_tuple()
        return log(man) + e * _LN2 if man else -inf
    return log(abs(x.numerator)) - log(x.denominator) if x else -inf


def _log_scale(scale: tuple) -> float:
    c, base, k = scale
    return _log_pos(c) - k * log(base * pi)


def _log_poch_hslice_entries(p: int):
    lp, h = lgamma(p), 0.0
    for i in count(p):
        yield lgamma(i) - lp, h
        h = h + 1 / i


@lru_cache(maxsize=1024)
def _log_poch_hslice(p: int) -> tuple:
    """log (p)_m, as lgamma(p + m) - lgamma(p), and H(p, m) as floats, for
    m = 0, 1, ..., a prefix list (numerics._prefix)."""
    return [], _log_poch_hslice_entries(p)


def _screen_terms(terms, logs, m: int) -> list[tuple]:
    """The float data of Int |f^(m)| for the power-log terms (A, B, p), with
    logs their (ln |A|, ln |B|): per term (la, lb, p, q - 1, log (p)_m -
    log(q - 1), H(p, m), 1/(q - 1)), q = p + m."""
    out = []
    for (la, lb), (_, _, p) in zip(logs, terms):
        q1 = p + m - 1
        log_poch, h = _prefix(_log_poch_hslice(p), m + 1)[m]
        out.append((la, lb, p, q1, log_poch - log(q1), h, 1 / q1))
    return out


def _log_abs_integral(data, N: int) -> float:
    """Natural log of _abs_integral(terms, m, N) in floats, for data =
    _screen_terms(terms, m)."""
    lnN = log(N)
    out = []
    for la, lb, _, q1, c, h, r in data:
        base = c - q1 * lnN
        out.append(base + la)
        if lb > -inf:
            out.append(base + lb + log(lnN + h + r))
    return _log_sum(out)


def _log_abs_tail(data, N: int) -> float:
    """Natural log of _abs_tail(terms, N) in floats, for data =
    _screen_terms(terms, 0)."""
    lnN1 = log(N + 1)
    first = [x - p * lnN1 for la, lb, p, *_ in data for x in (la, lb + log(lnN1))]
    return _log_sum([_log_abs_integral(data, N), *first])


# ---------------------------------------------------------------------------
# tail plans and the cutoff search
# ---------------------------------------------------------------------------


class _Plan:
    """An evaluator's tail at one order and the components of its bound, as data.

    terms: the tail's power-log terms (A, B, e), no two of one power, in the
      summation variable x = h n + c, (h, c) = lattice: the head ends at
      X = h N + c (start) and the tail sums x = X + h, X + 2h, ...
    part: (name, terms, scale): the truncation made in the tail terms, bounded
      by scale * _abs_tail(terms, X), which covers every x > X.
    tail: (rule, K, at): the tail's value (value) is _tail_value of the rule,
      order K and step h at X + at, and its remainder is bounded by
      scale * Int_(X+at)^inf |f^(m)| with (m, scale) = _remainder(rule, K, h)
      and f the sum of the tail terms.  A "boole" tail (h = 1, at = 1) sums
      (-1)^(n-1) times the terms, which is (-1)^N times the Boole sum from N + 1.
    part_screen, tail_screen: (_screen_terms data, log scale) of the part and
      of the tail remainder, so that _screen is float arithmetic alone.  They
      are built from logs and part_logs, the (ln |A|, ln |B|) of the tail and
      part terms, which the evaluators keep with their tables' entries.
    tail_work: the tail's powers times its derivative terms, for _work.

    value and bound evaluate this one description in FixedPoint integers,
    _screen in floats.
    """

    __slots__ = ("terms", "part", "tail", "lattice", "part_screen", "tail_screen", "tail_work")

    def __init__(self, terms, logs, part: tuple, part_logs, tail: tuple, lattice: tuple[int, int] = (1, 0)):
        self.terms, self.part, self.tail, self.lattice = terms, part, tail, lattice
        rule, K, _ = tail
        m, tail_scale = _remainder(rule, K, lattice[0])
        self.part_screen = _screen_terms(part[1], part_logs, 0), _log_scale(part[2])
        self.tail_screen = _screen_terms(terms, logs, m), _log_scale(tail_scale)
        self.tail_work = len(terms) * (_n_derivs(rule, K) + (rule == "em"))

    def start(self, N: int) -> int:
        """X = h N + c, the last x of the head."""
        h, c = self.lattice
        return h * N + c

    def value(self, N: int, fx: FixedPoint) -> tuple[int, int]:
        """The tail's value after a head of N terms, as a pair on fx."""
        rule, K, at = self.tail
        v, e = _tail_value(rule, self.terms, self.start(N) + at, K, fx, self.lattice[0])
        return -v if rule == "boole" and N % 2 else v, e

    def bound(self, N: int, fx: FixedPoint) -> int:
        """An integer U with U 2^-prec at least the bound at N: the part plus the
        tail remainder, each pair's upper end times its scale, rounded up."""
        _, part, scale = self.part
        rule, K, at = self.tail
        X = self.start(N)
        m, tail_scale = _remainder(rule, K, self.lattice[0])
        return (_scaled_up(sum(_abs_tail(part, X, fx)), scale, fx.ctx)
                + _scaled_up(sum(_abs_integral(self.terms, m, X + at, fx)), tail_scale, fx.ctx))


class _Plans:
    """An evaluator's plans whose tail terms at order J are the entries of
    orders 0 to J of a prefix list (numerics._prefix), after the terms first.
    The entry of order J is (((e, a, ln |a|), ...), rem, q, ln rem): the terms
    a x^-e that order J adds, each the tail term (a, 0, e + s), and the
    truncation's bound rem x^-q, the part term (rem, 0, q + s).  So the terms
    of order J extend those of order J - 1, and each entry's logs are read,
    not taken again."""

    __slots__ = ("table", "s", "terms", "logs", "ends")

    def __init__(self, table: tuple, s: int, first=(), first_logs=()):
        self.table, self.s, self.terms, self.logs, self.ends = table, s, list(first), list(first_logs), []

    def plan(self, J: int, name: str, scale: tuple, tail: tuple, lattice: tuple[int, int] = (1, 0)) -> _Plan:
        """The plan of order J, its part named name and scaled by scale."""
        entries = _prefix(self.table, J + 1)
        while len(self.ends) <= J:
            for e, a, la in entries[len(self.ends)][0]:
                self.terms.append((a, 0, e + self.s))
                self.logs.append((la, -inf))
            self.ends.append(len(self.terms))
        n, (_, rem, q, log_rem) = self.ends[J], entries[J]
        return _Plan(self.terms[:n], self.logs[:n], (name, [(rem, 0, q + self.s)], scale), [(log_rem, -inf)],
                     tail, lattice)


def _work(plan: _Plan, N: int) -> int:
    """N plus the tail's powers times its derivative terms; it does not fall as
    the order K rises."""
    return N + plan.tail_work


def _screen(plan: _Plan, N: int) -> dict:
    """Natural logs of float estimates of the plan's bound components at N, by
    name, from the plan's screen data."""
    X = plan.start(N)
    part, part_scale = plan.part_screen
    tail, tail_scale = plan.tail_screen
    return {
        plan.part[0]: _log_abs_tail(part, X) + part_scale,
        "tail remainder": _log_abs_integral(tail, X + plan.tail[2]) + tail_scale,
    }


_N_START = 32
_K_START = 4  # the least tail order K the search tries; higher orders are tried when they cost less work


def _n_candidates(cfg: OracleConfig):
    """N = 32, 64, ... below max_terms, then max_terms itself."""
    n = _N_START
    while n < cfg.max_terms:
        yield n
        n *= 2
    yield cfg.max_terms


def _select(cfg: OracleConfig, plans, ctx) -> tuple[int, _Plan, FixedPoint, int]:
    """(N, plan, fx, U) for the pair of cutoff N and order K, plan = plans(K),
    of least work whose certified bound meets tol/2: fx = FixedPoint(ctx, N),
    U = plan.bound(N, fx) and 2 U <= tol 2^prec, checked in integers with tol
    as its exact ratio.

    At each candidate N = 32, 64, ... the orders K = 4, 5, ... are screened
    in floats (_screen) while the estimate of the bound keeps falling, up to
    the first K whose estimate meets log(tol) - ln 2 by float rounding.
    Pairs are screened least work (_work) first, so a pair the screen passes
    is of the least work left and is certified (_Plan.bound) at once; the
    first to meet tol/2 is taken.  A pair the screen passes over would not
    certify either, since its certified bound is never below the estimate.
    So N, K and the bound are those a certified bound at every screened pair
    would give, and no float enters them.  The first pair of a cutoff is
    pushed when that of the cutoff before it is taken: it is of more work, so
    the order in which pairs are taken is that of pushing them all at once.
    """
    tol = cfg.target_tolerance
    num, den = tol.as_integer_ratio()
    log_half = log(tol) - _LN2 + _FLOAT_MARGIN
    by_order: dict = {}  # K -> plan, built once per call

    def pair(N: int, K: int, prev: float) -> tuple:
        if K not in by_order:
            by_order[K] = plans(K)
        return _work(by_order[K], N), N, K, prev

    # pairs to screen as (work, N, K, estimate at K - 1), least work first
    cutoffs = _n_candidates(cfg)
    to_screen = [pair(next(cutoffs), _K_START, inf)]
    last = None  # the last pair screened at the largest N, for the message
    while to_screen:
        _, N, K, prev = heappop(to_screen)
        if K == _K_START and (following := next(cutoffs, None)) is not None:
            heappush(to_screen, pair(following, _K_START, inf))
        est = _screen(by_order[K], N)
        if last is None or N >= last[0]:
            last = (N, K, est)
        total = _log_sum(est.values())
        if total <= log_half:
            fx = FixedPoint(ctx, N)
            bound = by_order[K].bound(N, fx)
            if 2 * bound * den <= num << fx.prec:
                return N, by_order[K], fx, bound
        elif total <= prev:
            heappush(to_screen, pair(N, K + 1, total))
    N, K, est = last
    name = max(est, key=est.get)
    raise BudgetExhausted(f"cannot certify {tol} within {cfg.max_terms} terms: at N = {N} (order K = {K}) "
                          f"the largest bound component is the {name}, about {exp(est[name]):.3e}, "
                          f"against tol/2 = {Decimal(tol) / 2:.3e}")


# ---------------------------------------------------------------------------
# family evaluators
# ---------------------------------------------------------------------------


def _sum(cfg: OracleConfig, plans, head, ctx) -> OracleResult:
    """head(N, fx), the first N terms as a pair on fx, plus the tail value of
    the plan _select chooses, its bound U added to the error, rounded into one
    BigReal."""
    N, plan, fx, bound = _select(cfg, plans, ctx)
    x, ex = head(N, fx)
    v, e = plan.value(N, fx)
    value = fx.to_big(x + v, ex + e + bound)
    achieved = value.err_float()
    if achieved > cfg.target_tolerance:
        raise BudgetExhausted(
            f"achieved bound {achieved:.3e} exceeds target {cfg.target_tolerance:.3e}"
        )
    return OracleResult(value, achieved, N)


def _weighted_head(kind: str, shift: Optional[int], s: int, N: int, fx: FixedPoint,
                   alternating: bool = False) -> tuple[int, int]:
    """sum_{n<=N} w_n * base(n)^-s with base = n (shift None) or 2n + shift,
    each term signed (-1)^(n-1) when alternating, as a pair on fx."""
    acc = err = w = we = 0
    for n in range(1, N + 1):
        dw, de = _weight_step(kind, n, fx)
        w += dw
        we += de
        t, te = fx.mul(w, we, fx.recip(n if shift is None else 2 * n + shift, s), 1)
        acc += -t if alternating and not n % 2 else t
        err += te
    return acc, err


def _eval_weighted(kind: str, shift: Optional[int], s: int, cfg: OracleConfig, ctx,
                   alternating: bool = False) -> OracleResult:
    """sum_{n>=1} w_n * base(n)^-s with base = n (shift None) or m = 2n + shift,
    the tail then summed over the odd m with step 2; with alternating (base n),
    sum_{n>=1} (-1)^(n-1) w_n n^-s, the tail by Boole summation.  In x = n or
    m, the order-1 weight sum_i c_i H_(d_i x) (_combo) is A0 + sum_i c_i ln x
    plus the terms of _weight_expansion, A0 = sum_i c_i (gamma + ln d_i) plus
    the ln 2 multiple of _ODD_COMBOS."""
    total, log2 = _combo_sums(kind, 1, shift)
    A0 = const_gamma(ctx) * total
    if log2:
        A0 = A0 + const_log2(ctx) * log2
    lattice = (1, 0) if shift is None else (2, shift)

    plans = _Plans(_weight_expansion(kind, 1, shift), s, [(A0, total, s)], [(_log_pos(A0), _log_pos(total))])

    def plan(K: int) -> _Plan:
        return plans.plan(max(2, K - 2), "weight-expansion truncation", (1, 1, 0),
                          ("boole", max(4, 2 * K), 1) if alternating else ("em", K, 0), lattice)

    return _sum(cfg, plan, lambda N, fx: _weighted_head(kind, shift, s, N, fx, alternating), ctx)


def _eval_remainder_split(kind: str, s: int, p: int, cfg: OracleConfig, ctx) -> OracleResult:
    """sum_{n>=1} w_n / n^s as C0 - sum_n r_n / n^s, for a weight of order p >= 2:
    w_n = sum_i c_i H_(d_i n)^(p) is the weight of the kind and order p, r0 =
    zeta(p) sum_i c_i its limit, C0 = r0 zeta(s), and the inner tail r_n = r0 - w_n
    is minus the weight's expansion (_weight_expansion), in powers of n, so the
    tail -sum_{n>N} r_n / n^s sums the expansion's terms over n^s."""
    zp, zs, total = zeta_num(p, ctx), zeta_num(s, ctx), _combo_sums(kind, p)[0]

    plans = _Plans(_weight_expansion(kind, p), s)

    def plan(K: int) -> _Plan:
        J = max(3, K)
        return plans.plan(J, "inner-tail remainder", (1, 2, 2 * J), ("em", K, 0))

    def head(N: int, fx: FixedPoint) -> tuple[int, int]:
        # C0 - sum_{n<=N} r_n n^-s, with r_n = r0 minus the inner terms up to n
        r, re = fx.scale(*fx.from_big(zp), total)
        acc, err = fx.mul(r, re, *fx.from_big(zs))
        for n in range(1, N + 1):
            dr, de = _weight_step(kind, n, fx, p)
            r -= dr
            re += de
            t, te = fx.mul(r, re, fx.recip(n, s), 1)
            acc -= t
            err += te
        return acc, err

    return _sum(cfg, plan, head, ctx)


def _tilde_orders(s: int):
    """The entries of _tilde_terms' prefix list, J = 0, 1, ..."""
    table, done = _pl_table(s, "boole", 1, False), 0
    for J in count():
        KB = 2 * J + 2
        entries = _prefix(table, J + 2)  # the Boole table of order KB
        terms = []
        for e, a, b in entries[done:J + 2]:
            a = Fraction(a, b)
            terms.append((e, a, _log_pos(a)))
        done = J + 2
        ((q, ra, rb),) = _abs_coeffs(s, KB, False)
        rem = Fraction(4 * ra, rb)
        yield tuple(terms), rem, q, _log_pos(rem)


@lru_cache(maxsize=256)
def _tilde_terms(s: int) -> tuple:
    """tau_n = sum_{j>=n} (-1)^(j-n) j^-s expanded by Boole summation at n, to
    the orders KB = 2J + 2 for J = 0, 1, ..., as a prefix list
    (numerics._prefix) whose entry J is (((e, a, ln |a|), ...), c, q, ln c):
    the terms a n^-e that order KB adds to the Boole table of x^-s
    (numerics._pl_table), and c with the expansion within c pi^-KB n^-q,
    q = s + KB - 1, c = 4 (s)_KB / q from the Boole remainder
    4 pi^-KB Int_n^inf |d^KB/dx^KB x^-s| (numerics._abs_coeffs).  The tail
    sums tau_n / n, each term one power up."""
    return [], _tilde_orders(s)


def _eval_alt_tilde(s: int, cfg: OracleConfig, ctx) -> OracleResult:
    """sum_{n>=1} (-1)^n Ht_(n-1)^(s) / n, as -eta(s) ln 2 plus sum_n tau_n / n."""
    zs, log2 = zeta_num(s, ctx), const_log2(ctx)
    eta_ratio = Fraction(2**s - 2, 2**s)  # eta(s) / zeta(s)

    plans = _Plans(_tilde_terms(s), 1)

    def plan(K: int) -> _Plan:
        J = max(2, K)
        # the Boole remainder of tau_n truncates the weight's expansion
        return plans.plan(J, "weight-expansion truncation", (1, 1, 2 * J + 2), ("em", K, 0))

    def head(N: int, fx: FixedPoint) -> tuple[int, int]:
        tau, tau_e = fx.scale(*fx.from_big(zs), eta_ratio)  # tau_1 = eta(s)
        lead, err = fx.mul(tau, tau_e, *fx.from_big(log2))  # eta(s) ln 2
        acc = -lead
        for n in range(1, N + 1):
            t, te = fx.mul(tau, tau_e, fx.recip(n), 1)
            acc += t
            err += te
            tau = fx.recip(n, s) - tau
            tau_e += 1
        return acc, err

    return _sum(cfg, plan, head, ctx)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _evaluate(series: Series, cfg: OracleConfig, ctx) -> OracleResult:
    """The certified sum of the series by the evaluator for its shape: the tilde
    sum's own, order 1 summed directly, higher orders by the remainder split."""
    kind, order, shift, s, alternating = series
    if kind == "Ht":
        return _eval_alt_tilde(order, cfg, ctx)
    if order == 1:
        return _eval_weighted(kind, shift, s, cfg, ctx, alternating)
    return _eval_remainder_split(kind, s, order, cfg, ctx)


# far above the distinct (series, config, context) keys of one verify or solve run
_cached = lru_cache(maxsize=1024)(_evaluate)


def oracle_eval(sid: SumId, cfg: Optional[OracleConfig] = None,
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> OracleResult:
    """Certified numerical value of the series named by sid.

    |value - true sum| <= achieved_bound <= cfg.target_tolerance, or
    BudgetExhausted.  Deterministic for fixed (sid, cfg, ctx), and cached by
    (sid.series, cfg, ctx): ids of one series shape under equal configs and
    contexts get back one result object, its value in the context of the
    caller that computed it.
    """
    cfg = cfg or OracleConfig()
    if cfg.target_tolerance < 2.0 ** -ctx.contract_bits:
        raise ValueError(
            f"target_tolerance {cfg.target_tolerance:.3e} below the precision "
            f"contract 2^-{ctx.contract_bits}"
        )
    return _cached(sid.series, cfg, ctx)


# ---------------------------------------------------------------------------
# exact rational partial sums of the defining series
# ---------------------------------------------------------------------------


def partial_sum(sid: SumId, n_terms: int) -> Fraction:
    """Exact value of the first n_terms terms of the defining series of sid."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    term = FAMILIES[sid.family].term
    return sum((term(*sid.params, n) for n in range(1, n_terms + 1)), Fraction(0))
