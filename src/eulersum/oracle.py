"""Independent ground truth: direct summation of every series family.

Each series is summed at its definition, by the evaluator its shape (sums.Series)
calls for: an exactly-evaluated head of N terms plus a certified tail; a shape
with no evaluator is refused (ValueError) before any summation.  Tails
come from Euler-Maclaurin (monotone series) or Boole summation (alternating
series) applied to the explicit asymptotic form of the summand, with
worst-case remainder bounds

    |R_K^EM|    <= 4 (2 pi)^(-2K) Int |f^(2K)|,
    |R_K^Boole| <= 4 pi^(-K)      Int |f^(K)|,

so raw O(log N / N^(s-1)) convergence never limits the tolerance.  Every
weight and inner tail is one expansion (_expansion): a combination
sum_i c_i T(d_i x) of the tail T of x^-p in numerics' one Euler-Maclaurin/Boole
table (_pl_table), with the remainder of numerics._remainder applied to
_abs_coeffs, added in absolute value; this module only combines those
expansions and searches for the cutoff.  H_x^(p) is its constant (gamma + ln x
for p = 1, zeta(p) for p >= 2) minus the Euler-Maclaurin tail of x^-p, which
envelops for p = 1, taken in the weight's exact combination
sum_i c_i H_(d_i n)^(p), e.g. S_n^(p) = H_2n^(p) - 2^-p H_n^(p); the inner
tail of Ht^(p) is the Boole tail of x^-p.  A weight with a limit r0 (order
p >= 2, or Ht) is split as sum sign_n w_n / n^s = r0 L(s) - sum_n sign_n r_n /
n^s, L(s) = zeta(s) or eta(s), r_n = r0 - w_n its inner tail, of order n^(1-p).
The families over an odd base 2n + c are summed in m = 2n + c, on the odd
lattice with Euler-Maclaurin step 2, their weights being combinations of
H_m and H_(m/2) and ln 2 (Legendre's duplication of psi).

Every order of a tail follows from one order K: Euler-Maclaurin order K,
weights expanded to order max(2, K-2), inner tails to max(3, K) (Ht's to
Boole order max(6, 2K+2)), and Boole order max(4, 2K).  An evaluator's plans
(_Plans) are its tail at each order K as data: the power-log terms, the rule
and where it starts, and the expansion's truncation as one term with a scale.
The expansions are prefix lists (exact._prefix), one per shape, grown under a
lock, each term stored with the log of its coefficient, so the terms of order
K extend those of order K - 1 and once the tables are grown the search makes
no Fraction.  One driver (_sum) adds the chosen plan's tail value, signed
(-1)^N for an alternating (Boole) tail, to the head.

The cutoff N and the order K are chosen together, from the bounds alone
(_select).  At each candidate N = 32, 64, ... the orders K = 4, 5, ... are
screened with float estimates in log space, which are lower estimates of the
certified bound up to float rounding, while the estimate keeps falling, least
work first: N plus tail powers times derivative terms.  A screen is one pass
over float data built for the orders screened (the terms' logs, log (p)_m by
lgamma, H(p, m) for the first terms); the expansion's is cached by value
(_order_screen), so the evaluations of a shape share it.  A pair whose
estimate meets log(tol) - ln 2 is built as a _Plan and certified at once, and
the first to certify is taken.  So (N, K) and the bound are those a certified
bound at every screened pair would give, and no float enters them.

Each result is one numerics.FixedPoint sum at the chosen N: integers scaled by
2^prec, prec = working_bits + ceil(log2 N) + guard bits, each rounding a floor
counted exactly in an error beside the value.  The head (each term w // base^s
within we / base^s + 1 for w within we), its constants (A0, r0 and r0 L(s))
and the tail value are such (value, error) pairs.  The tail's
value and remainder come from one pass of numerics' derivative recurrence
(_pl_tail), which zeta_num shares; the certification runs it, and the value
reads the same pass.  A bound is an integer U at least the remainder and the
truncation times their scales c (base pi)^-k, accepted when 2 U den <= num
2^prec for tol = num / den exactly.  Head, tail and U are added as integers
and rounded into a BigReal once, so all rounding is part of the reported
bound.  Summation order is fixed (ascending n).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import count
from math import exp, inf, isfinite, lgamma, log, pi
from typing import NamedTuple, Optional

from .exact import _prefix
from .numerics import (
    BigReal,
    FixedPoint,
    PrecisionContext,
    DEFAULT_CONTEXT,
    _abs_coeffs,
    _HALF,
    _n_derivs,
    _pl_length,
    _pl_table,
    _pl_tail,
    _rat_add,
    _remainder,
    _scaled_up,
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


def _expansion_orders(p: int, rule: str, combo: tuple, done):
    """The entries of _expansion's prefix list, K = len(done), len(done) + 1, ..."""
    table, envelops = _pl_table(p, rule), p == 1 and rule == "em"
    used = _pl_length(p, rule, len(done) - 1) if done else 0
    for K in count(len(done)):
        n = _pl_length(p, rule, K)
        entries = _prefix(table, n + envelops)
        terms = []
        for e, a, b in entries[used:n]:
            x = (0, 1)
            for c, d in combo:
                x = _rat_add(*x, c.numerator * a * d.denominator**e, c.denominator * b * d.numerator**e)  # c a / d^e
            if x[0]:
                a = Fraction(*x)
                terms.append((e, a, _log_pos(a)))
        used = n
        if envelops:
            (q, ra, rb), scale = entries[n], (1, 1, 0)
        else:
            m, (f, base, k) = _remainder(rule, K)
            ((q, ra, rb),) = _abs_coeffs(p, m)
            ra, rb, scale = ra * f.numerator, rb * f.denominator, (1, base, k)
        rem = (0, 1)
        for c, d in combo:
            rem = _rat_add(*rem, abs(c.numerator * ra) * d.denominator**q, c.denominator * rb * d.numerator**q)
        rem = Fraction(*rem)
        yield tuple(terms), rem, q, _log_pos(rem), scale


@lru_cache(maxsize=256)
def _expansion(p: int, rule: str, combo: tuple) -> tuple:
    """sum_i c_i T(d_i x) for combo = ((c_i, d_i), ...), T the tail of x^-p by
    the rule ("em" or "boole", step 1) of order K = 0, 1, ..., as a prefix list
    (exact._prefix) whose entry K is (((e, a, ln |a|), ...), rem, q, ln rem,
    scale): the terms a x^-e that order K adds to order K - 1, from numerics'
    table of x^-p (_pl_table), and the remainder of order K, at most rem x^-q
    times scale (1, base, k), which stands for (base pi)^-k.  rem x^-q is
    sum_i |c_i| times the (m, factor) of numerics._remainder(rule, K) applied to
    Int_(d_i x)^inf |f^(m)| (_abs_coeffs); for p = 1 under "em", whose integral
    is left out, sum_i |c_i| times the first omitted term, the next entry of
    the table, which envelops at every real x > 0 (DLMF 5.11(ii))."""
    return [], partial(_expansion_orders, p, rule, combo)


@lru_cache(maxsize=256)
def _weight_expansion(kind: str, p: int, shift: Optional[int] = None) -> tuple:
    """The weight of the kind and order p, sum_i c_i H_(d_i x)^(p) (_combo) in
    x = n or 2n + shift, less sum_i c_i const(H^(p)) and, for p = 1, less
    sum_i c_i ln(d_i x): as H_x^(p) = const - sum_{k>x} k^-p, the _expansion of
    the Euler-Maclaurin tail of x^-p in the combination (-c_i, d_i); for kind
    "Ht", the Boole tail of x^-p, tau_x = sum_{j>=x} (-1)^(j-x) j^-p
    (_eval_remainder_split).  Cached on (kind, p, shift), so a call neither
    negates nor hashes the Fractions."""
    if kind == "Ht":
        return _expansion(p, "boole", ((1, 1),))
    return _expansion(p, "em", tuple((-c, d) for c, d in _combo(kind, p, shift)))


# kind -> step(n, fx, p): w_n - w_(n-1) in fixed point, with its error bound, for
# the weight of the kind and order p, H_n^(p), S_n^(p), H_2n^(p) or H_(2n-1) (p
# = 1), each power floored; for -Ht_(n-1)^(p), its size (n-1)^-p, the step's
# sign being (-1)^(n-1).  A head binds its kind's step once.
_WEIGHT_STEPS = {
    "H": lambda n, fx, p: (fx.one // n**p, 1),
    "S": lambda n, fx, p: (fx.one // (2 * n - 1) ** p, 1),
    "H2N": lambda n, fx, p: (fx.one // (2 * n - 1) ** p + fx.one // (2 * n) ** p, 2),
    "H2N1": lambda n, fx, p: (fx.one // (2 * n - 2) + fx.one // (2 * n - 1), 2) if n > 1 else (fx.one, 0),
    "Ht": lambda n, fx, p: (fx.one // (n - 1) ** p, 1) if n > 1 else (0, 0),
}


# Float twins of the remainder bounds of numerics._pl_tail and of a plan's part,
# in natural logs of the terms' coefficients, so that no coefficient or
# N^-(p+m) leaves the float range.  They estimate the certified bounds to float
# rounding and only decide which bounds are worth certifying; they never enter
# a bound.

_FLOAT_MARGIN = 1e-9  # far above the relative rounding of any float estimate here


def _log_sum(logs) -> float:
    """log(sum(exp(x) for x in logs)), -inf for no terms or none above -inf (a
    -inf term adds exp(-inf) = 0.0, which leaves the float sum as it is)."""
    top = max(logs, default=-inf)
    if top == -inf:
        return -inf
    return top + log(sum([exp(x - top) for x in logs]))


def _log_add(a: float, b: float) -> float:
    top = max(a, b)  # _log_sum([a, b]) to the bit, without the list
    return -inf if top == -inf else top + log(exp(a - top) + exp(b - top))


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


def _harmonic_float_entries(p: int, done):
    h = done[-1] if done else 0.0
    for m in count(len(done)):
        h = h + 1 / (p + m - 1) if m else h
        yield h


@lru_cache(maxsize=256)
def _harmonic_floats(p: int) -> tuple:
    """H(p, m) = sum_(i<m) 1/(p + i), summed in order of i, for m = 0, 1, ..."""
    return [], partial(_harmonic_float_entries, p)


def _screen_data(terms, m: int) -> tuple:
    """The float data of the bound on Int |f^(m)| of the terms (ln |A|, ln |B|,
    p) but N: tuples of each term's c = log (p)_m - log(q - 1), q - 1 and ln |A|,
    q = p + m, and (index, c, q - 1, ln |B|, H(p, m)) for each B not 0."""
    cs, q1s, las, bs = [], [], [], []
    for la, lb, p in terms:
        q1 = p + m - 1
        c = lgamma(p + m) - lgamma(p) - log(q1)
        if lb > -inf:
            bs.append((len(cs), c, q1, lb, _prefix(_harmonic_floats(p), m + 1)[m]))
        cs.append(c)
        q1s.append(q1)
        las.append(la)
    return tuple(cs), tuple(q1s), tuple(las), tuple(bs)


def _log_abs_integral(data, N: int) -> float:
    """Natural log of the bound on Int_N^inf |f^(m)|, data = _screen_data(terms, m):
    per term (p)_m / (q-1) N^(1-q) (|A| + |B| (H(p, m) + 1/(q-1) + ln N))."""
    cs, q1s, las, bs = data
    lnN = log(N)
    out = [c - q1 * lnN + la for c, q1, la in zip(cs, q1s, las)]
    for i, c, q1, lb, h in reversed(bs):
        out.insert(i + 1, c - q1 * lnN + lb + log(lnN + h + 1 / q1))
    return _log_sum(out)


# ---------------------------------------------------------------------------
# tail plans and the cutoff search
# ---------------------------------------------------------------------------


class _Plan:
    """An evaluator's tail at one order and the components of its bound, as data.

    terms: the tail's power-log terms (A, B, e), no two of one power, in the
      summation variable x = h n + c, (h, c) = lattice: the head ends at
      X = h N + c and the tail sums x = X + h, X + 2h, ...
    part: (name, rem, q, scale): the truncation made in the tail terms, at most
      rem x^-q times scale at every x > X, so rem ((X + 1)^-q + Int_X^inf x^-q)
      times scale bounds it.
    tail: (rule, K, at): the tail's value and remainder are numerics._pl_tail
      of the rule, order K and step h at X + at.  A "boole" tail (h = 1,
      at = 1) sums (-1)^(n-1) times the terms, (-1)^N times the Boole sum from N + 1.

    bound evaluates this in FixedPoint integers by one pass of _pl_tail and
    keeps it for value at the same N and fx: a pair that fails certification
    pays for no value.
    """

    __slots__ = ("terms", "part", "tail", "lattice", "_pass")

    def __init__(self, terms, part: tuple, tail: tuple, lattice: tuple[int, int] = (1, 0)):
        self.terms, self.part, self.tail, self.lattice, self._pass = terms, part, tail, lattice, (0, 0, None)

    def _tail(self, N: int, fx: FixedPoint) -> tuple:
        """_pl_tail's (value, bound) after a head of N terms on fx, kept for the last N and fx."""
        if self._pass[:2] != (N, fx.prec):
            rule, K, at = self.tail
            X = self.lattice[0] * N + self.lattice[1] + at
            self._pass = N, fx.prec, _pl_tail(rule, self.terms, X, K, fx, self.lattice[0])
        return self._pass[2]

    def value(self, N: int, fx: FixedPoint) -> tuple[int, int]:
        """The tail's value after a head of N terms, as a pair on fx."""
        v, e = self._tail(N, fx)[0]()
        return -v if self.tail[0] == "boole" and N % 2 else v, e

    def bound(self, N: int, fx: FixedPoint) -> int:
        """An integer U with U 2^-prec at least the bound at N: the part plus the
        tail remainder, each rounded up in units and times its scale."""
        _, rem, q, scale = self.part
        X, a, b = self.lattice[0] * N + self.lattice[1], rem.numerator << fx.prec, rem.denominator
        part = -(-a // (b * (X + 1) ** q)) - (-a // (b * (q - 1) * X ** (q - 1)))
        return _scaled_up(part, scale) + self._tail(N, fx)[1]


@lru_cache(maxsize=1024)
def _order_screen(key: tuple, s: int, lattice: tuple[int, int], J: int, tail: tuple) -> tuple:
    """For a plan (_Plans) reading _weight_expansion(*key) to order J, s powers
    up, its tail on the lattice: the part's (c, q - 1, ln rem, q, log scale),
    the remainder's m, its expansion terms' _screen_data and its log scale."""
    entries = _prefix(_weight_expansion(*key), J + 1)[:J + 1]
    _, _, q, log_rem, part_scale = entries[J]
    m, scale = _remainder(tail[0], tail[1], lattice[0])
    (c,), (q1,), _, _ = _screen_data(((log_rem, -inf, q + s),), 0)
    terms = ((la, -inf, e + s) for added, *_ in entries for e, _, la in added)
    return (c, q1, log_rem, q + s, _log_scale(part_scale)), m, _screen_data(terms, m), _log_scale(scale)


class _Plans:
    """An evaluator's plans, one per order K, and the data that screens them.

    key names the expansion _weight_expansion(*key), whose entry J is (((e, a,
    ln |a|), ...), rem, q, ln rem, scale); spec(K) is (J, tail): plan K reads it
    to order J, and tail is its (rule, order, at) (_Plan).  Its terms are the
    first terms, their (ln |A|, ln |B|, p) in first, then those of orders 0 to J:
    each a x^-e is the tail term (a, 0, e + s), and rem x^-q times scale bounds
    the truncation, the part rem x^-(q + s).
    """

    __slots__ = ("key", "table", "s", "spec", "name", "lattice", "first", "terms", "ends", "works", "orders")

    def __init__(self, key: tuple, s: int, spec, name: str, lattice: tuple[int, int] = (1, 0), first=()):
        self.key, self.table, self.s, self.spec, self.name = key, _weight_expansion(*key), s, spec, name
        self.lattice, self.terms, self.ends, self.works, self.orders = lattice, list(first), [], {}, {}
        self.first = tuple((_log_pos(A), _log_pos(B), p) for A, B, p in first)

    def size(self, J: int) -> int:
        """The number of terms of a plan reading the expansion to order J."""
        entries = _prefix(self.table, J + 1)
        while len(self.ends) <= J:
            self.terms += [(a, 0, e + self.s) for e, a, _ in entries[len(self.ends)][0]]
            self.ends.append(len(self.terms))
        return self.ends[J]

    def order(self, K: int) -> tuple:
        """(at, part, remainder) of plan K: where its tail starts, and the screen
        data of _order_screen, the first terms' joined to the remainder's."""
        if K not in self.orders:
            J, tail = self.spec(K)
            part, m, data, scale = _order_screen(self.key, self.s, self.lattice, J, tail)
            data = tuple(a + b for a, b in zip(_screen_data(self.first, m), data))
            self.orders[K] = tail[2], part, (data, scale)
        return self.orders[K]

    def __call__(self, K: int) -> _Plan:
        """The plan of order K."""
        J, tail = self.spec(K)
        n, (_, rem, q, _, scale) = self.size(J), self.table[0][J]
        return _Plan(self.terms[:n], (self.name, rem, q + self.s, scale), tail, self.lattice)


def _work(plans: _Plans, K: int, N: int) -> int:
    """N plus plan K's tail powers times its derivative terms, kept per K; it
    does not fall as the order K rises, and it builds no screen data."""
    if K not in plans.works:
        J, (rule, k, _) = plans.spec(K)
        plans.works[K] = plans.size(J) * (_n_derivs(rule, k) + (rule == "em"))
    return N + plans.works[K]


def _screen(plans: _Plans, K: int, N: int) -> tuple[float, float]:
    """Natural logs of float estimates of plan K's bound components at N, the
    part and the tail remainder, in one pass over its terms' logs."""
    at, (c, q1, la, q, part_scale), (tail, tail_scale) = plans.order(K)
    X = plans.lattice[0] * N + plans.lattice[1]
    # the part is one term: its integral's log is the one entry c - q1 ln X + la
    return (_log_add(c - q1 * log(X) + la, la - q * log(X + 1)) + part_scale,
            _log_abs_integral(tail, X + at) + tail_scale)


_N_START = 32
_K_START = 4  # the least tail order K the search tries; higher orders are tried when they cost less work


def _n_candidates(cfg: OracleConfig):
    """N = 32, 64, ... below max_terms, then max_terms itself."""
    n = _N_START
    while n < cfg.max_terms:
        yield n
        n *= 2
    yield cfg.max_terms


def _select(cfg: OracleConfig, plans: _Plans, ctx) -> tuple[int, _Plan, FixedPoint, int]:
    """(N, plan, fx, U) for the pair of cutoff N and order K, plan = plans(K),
    of least work whose certified bound meets tol/2: fx = FixedPoint(ctx, N),
    U = plan.bound(N, fx) and 2 U <= tol 2^prec, checked in integers with tol
    as its exact ratio.

    At each candidate N = 32, 64, ... the orders K = 4, 5, ... are screened
    in floats (_screen) while the estimate of the bound keeps falling, up to
    the first K whose estimate meets log(tol) - ln 2 by float rounding.
    Pairs are screened least work (_work) first, so a pair the screen passes
    is of the least work left, and its plan is built and certified
    (_Plan.bound) at once; the first to meet tol/2 is taken.  A pair the
    screen passes over would not certify either, since its certified bound
    is never below the estimate.  So N, K and the bound are those a certified
    bound at every screened pair would give, and no float enters them.  The
    first pair of a cutoff is pushed when that of the cutoff before it is
    taken: it is of more work, so the order in which pairs are taken is that
    of pushing them all at once.
    """
    tol = cfg.target_tolerance
    num, den = tol.as_integer_ratio()
    log_half = log(tol) - _LN2 + _FLOAT_MARGIN

    def pair(N: int, K: int, prev: float) -> tuple:
        return _work(plans, K, N), N, K, prev

    # pairs to screen as (work, N, K, estimate at K - 1), least work first
    cutoffs = _n_candidates(cfg)
    to_screen = [pair(next(cutoffs), _K_START, inf)]
    last = None  # the last pair screened at the largest N, for the message
    while to_screen:
        _, N, K, prev = heappop(to_screen)
        if K == _K_START and (following := next(cutoffs, None)) is not None:
            heappush(to_screen, pair(following, _K_START, inf))
        est = _screen(plans, K, N)
        if last is None or N >= last[0]:
            last = (N, K, est)
        total = _log_add(*est)
        if total <= log_half:
            fx, plan = FixedPoint(ctx, N), plans(K)
            bound = plan.bound(N, fx)
            if 2 * bound * den <= num << fx.prec:
                return N, plan, fx, bound
        elif total <= prev:
            heappush(to_screen, pair(N, K + 1, total))
    N, K, est = last
    name, worst = max(zip((plans.name, "tail remainder"), est), key=lambda c: c[1])
    raise BudgetExhausted(f"cannot certify {tol} within {cfg.max_terms} terms: at N = {N} (order K = {K}) "
                          f"the largest bound component is the {name}, about {exp(worst):.3e}, "
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
    step = _WEIGHT_STEPS[kind]
    for n in range(1, N + 1):
        dw, de = step(n, fx, 1)
        w += dw
        we += de
        d = (n if shift is None else 2 * n + shift) ** s
        acc += -(w // d) if alternating and not n % 2 else w // d
        err += -(-we // d) + 1
    return acc, err


@lru_cache(maxsize=256)
def _weight_constant(kind: str, shift: Optional[int], ctx) -> BigReal:
    """The A0 of _eval_weighted in the context, shared by every tolerance."""
    total, log2 = _combo_sums(kind, 1, shift)
    A0 = const_gamma(ctx) * total
    return A0 + const_log2(ctx) * log2 if log2 else A0


def _eval_weighted(kind: str, shift: Optional[int], s: int, cfg: OracleConfig, ctx,
                   alternating: bool = False) -> OracleResult:
    """sum_{n>=1} w_n * base(n)^-s with base = n (shift None) or m = 2n + shift,
    the tail then summed over the odd m with step 2; with alternating (base n),
    sum_{n>=1} (-1)^(n-1) w_n n^-s, the tail by Boole summation.  In x = n or
    m, the order-1 weight sum_i c_i H_(d_i x) (_combo) is A0 + sum_i c_i ln x
    plus the terms of _weight_expansion, A0 = sum_i c_i (gamma + ln d_i) plus
    the ln 2 multiple of _ODD_COMBOS."""
    A0, total = _weight_constant(kind, shift, ctx), _combo_sums(kind, 1, shift)[0]
    lattice = (1, 0) if shift is None else (2, shift)

    plans = _Plans((kind, 1, shift), s,
                   lambda K: (max(2, K - 2), ("boole", max(4, 2 * K), 1) if alternating else ("em", K, 0)),
                   "weight-expansion truncation", lattice, [(A0, total, s)])
    return _sum(cfg, plans, lambda N, fx: _weighted_head(kind, shift, s, N, fx, alternating), ctx)


def _limit_pair(s: int, alternating: bool, fx: FixedPoint) -> tuple[int, int]:
    """L(s) = sum_{n>=1} sign_n n^-s as a pair on fx: zeta(s), or, alternating,
    eta(s) = (1 - 2^(1-s)) zeta(s) and eta(1) = ln 2."""
    if s == 1:
        return fx.from_big(const_log2(fx.ctx))
    return fx.scale(*fx.from_big(zeta_num(s, fx.ctx)), Fraction(2**s - 2, 2**s) if alternating else 1)


def _eval_remainder_split(kind: str, p: int, s: int, alternating: bool, cfg: OracleConfig, ctx) -> OracleResult:
    """sum_{n>=1} sign_n w_n / n^s as r0 L(s) - sum_n sign_n r_n / n^s, for a
    weight w_n of the kind and order p with a limit r0: r0 = zeta(p) sum_i c_i
    for w_n = sum_i c_i H_(d_i n)^(p), p >= 2, and r0 = -eta(p) for w_n =
    -Ht_(n-1)^(p); L(s) is that of _limit_pair, and the inner tail r_n = r0 -
    w_n is minus the weight's expansion (_weight_expansion), for Ht times
    (-1)^(n-1).  So the tail -sum_{n>N} sign_n r_n / n^s sums the expansion's
    terms over n^s, by Boole summation when exactly one of the outer sign and
    Ht's inner sign alternates, else by Euler-Maclaurin.

    Each head term floors |r_n| / n^s and adds it with its sign, and the
    constant is |r0| L(s) given the sign of r0, so a sum of one sign pattern
    takes one floor and one add a term."""
    inner = kind == "Ht"
    flip = alternating != inner  # the sign of sign_n r_n alternates
    total = 1 if inner else _combo_sums(kind, p)[0]

    plans = _Plans((kind, p, None), s,
                   lambda K: (max(6, 2 * K + 2) if inner else max(3, K),
                              ("boole", max(4, 2 * K), 1) if flip else ("em", K, 0)),
                   "inner-tail remainder")

    def head(N: int, fx: FixedPoint) -> tuple[int, int]:
        # r0 L(s) - sum_{n<=N} sign_n r_n n^-s, with |r_n| = r_(n-1) - step or,
        # for Ht, step - |r_(n-1)| (_WEIGHT_STEPS), from r_0 = r0
        r, re = fx.scale(*_limit_pair(p, inner, fx), total)
        c, err = fx.mul(r, re, *_limit_pair(s, alternating, fx))
        r, acc, step = -r if inner else r, 0, _WEIGHT_STEPS[kind]
        for n in range(1, N + 1):
            dr, de = step(n, fx, p)
            r = dr - r if inner else r - dr
            re += de
            d = n**s
            acc = r // d - acc if flip else acc + r // d  # counted as in the module docstring
            err += -(-re // d) + 1
        acc = c - (acc if N % 2 or not flip else -acc)
        return -acc if inner else acc, err

    return _sum(cfg, plans, head, ctx)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _evaluate(series: Series, cfg: OracleConfig, ctx) -> OracleResult:
    """The certified sum of the series by the evaluator for its shape: order 1
    summed directly (_eval_weighted) on n or on a family's odd lattice, which
    does not alternate, and a weight with a limit by the remainder split: H, S
    and H2N of order >= 2 and Ht of any order, on n.  Any other shape, or one
    that diverges, raises ValueError before any summation."""
    kind, order, shift, s, alternating = series
    if order >= 1 and (s >= 2 or s == 1 and alternating):
        if order == 1 and (shift is None and kind in ("H", "S", "H2N")
                           or (kind, shift) in _ODD_COMBOS and not alternating):
            return _eval_weighted(kind, shift, s, cfg, ctx, alternating)
        if shift is None and (kind == "Ht" or order >= 2 and kind in ("H", "S", "H2N")):
            return _eval_remainder_split(kind, order, s, alternating, cfg, ctx)
    raise ValueError(f"the oracle has no evaluator for {series}: it sums order 1 on n or on a family's "
                     "odd lattice, not alternating there, and weights with a limit on n")


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
