"""Linear relations among sigma-sums of one weight, and their exact solution.

Relations are rational-linear equations over SumIds with a SymExpr right-hand
side.  Three generator families produce them:

  * product relations, from lambda(k) lambda(l) written as a weighted sum of
    the sigma's of weight k+l;
  * the general reduction relation sigma(s,t) -> {sigma(s-i, t+i)}, with the
    h-sum and log 2 terms folded away through the h closed forms, so every
    generated relation is homogeneous in sigma unknowns;
  * its even-t specialization and the two pre-folded variants.

solve_weight assembles the relations of one weight, injects known closed
forms as identity rows, and solves them by exact Gauss-Jordan elimination over
integer rows: each row is one map from the unknowns and the monomials of its
right-hand side to integers, a common-denominator multiple of the relation.
Row operations stay in integers and divide each row by its content; only the
solved values are divided by their pivots.  Degenerate rows must reduce to the
zero SymExpr; anything else would falsify a formula and is reported.

A residual is one fixed-point dot product (numerics.fixed_dot) of the
oracle values of the sigma terms and the monomial values of the right-hand
side, each with its coefficient.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

from . import closedform, exact
from .numerics import BigReal, DEFAULT_CONTEXT, PrecisionContext, fixed_dot, monomial_num
from .oracle import OracleConfig, oracle_eval
from .sums import SumId
from .symexpr import LOG2, SymExpr, _add_into, lambda_sym

__all__ = [
    "Relation",
    "SolveReport",
    "SumTheoremReport",
    "gen_product_relation",
    "reduction_relation",
    "even_order_relation",
    "folded_relation",
    "relations_for_weight",
    "solve_weight",
    "verify_sum_theorem",
    "tabulated_sigma_values",
]


class Relation(namedtuple("Relation", "coeffs rhs")):
    """sum_i coeff_i * sigma_i = rhs, all sigma_i of one weight, rhs a SymExpr.

    Generators may legitimately produce relations with no sigma terms at
    degenerate parameter corners; those are pure identities whose rhs must
    normalize to zero (`is_identity`).
    """

    __slots__ = ()

    def __new__(cls, coeffs: dict[SumId, Fraction], rhs: SymExpr):
        clean = {k: exact.as_fraction(v) for k, v in coeffs.items()}
        clean = {k: c for k, c in clean.items() if c}
        weights = {k.weight for k in clean}
        if len(weights) > 1:
            raise ValueError(f"mixed weights in relation: {sorted(weights)}")
        return super().__new__(cls, clean, rhs)

    @property
    def is_identity(self) -> bool:
        return not self.coeffs

    @property
    def weight(self) -> Optional[int]:
        return next(iter(self.coeffs)).weight if self.coeffs else None

    def __repr__(self):
        lhs = " + ".join(f"{c}*{k}" for k, c in sorted(self.coeffs.items()))
        return f"Relation({lhs or '0'} = {self.rhs})"

    def residual(self, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 cfg: Optional[OracleConfig] = None) -> float:
        """|sum_i c_i * oracle(sigma_i) - rhs|, the absolute value of difference."""
        return self.residual_and_bound(ctx, cfg)[0]

    def residual_and_bound(self, ctx: PrecisionContext = DEFAULT_CONTEXT,
                           cfg: Optional[OracleConfig] = None) -> tuple[float, float]:
        """(residual, certified error of the combination), from difference."""
        d = self.difference(ctx, cfg)
        return abs(float(d)), d.err_float()

    def difference(self, ctx: PrecisionContext = DEFAULT_CONTEXT,
                   cfg: Optional[OracleConfig] = None) -> BigReal:
        """sum_i c_i * oracle(sigma_i) - sum_m r_m * m over the terms r_m * m of
        rhs, as one fixed-point dot product of the oracle values and the
        monomial values (numerics.monomial_num).

        The error folds in |c_i| times each oracle bound and |r_m| times each
        monomial's error, so a true relation has |value| <= error.
        """
        cfg = cfg or OracleConfig()
        pairs = [(c, oracle_eval(sid, cfg, ctx).value)
                 for sid, c in sorted(self.coeffs.items())]
        pairs += [(-r, monomial_num(mono, ctx)) for mono, r in self.rhs.items()]
        return fixed_dot(pairs, ctx)


# the weights 3..20 name 171 pairs
@lru_cache(maxsize=1024)
def _lambda_product(a: int, b: int) -> SymExpr:
    """lambda(a) lambda(b), or lambda(a) ln 2 for b = 1, where lambda diverges;
    one shared value per pair for every relation that names it."""
    return lambda_sym(a) * (SymExpr.atom(LOG2) if b == 1 else lambda_sym(b))


def _combination(*parts: tuple[Fraction | int, SymExpr]) -> SymExpr:
    """sum of c * e over the (c, e) pairs, accumulated in one dict."""
    acc: dict = {}
    for c, e in parts:
        if c:
            _add_into(acc, ((m, c * v) for m, v in e.items()))
    return SymExpr._of(acc)


def gen_product_relation(k: int, l: int) -> Relation:
    """lambda(k) lambda(l) = 2^-w sum_i 2^i [C(w-i-1,l-1)+C(w-i-1,k-1)] sigma(w-i,i)."""
    if k < 2 or l < 2:
        raise ValueError(f"gen_product_relation needs k, l >= 2, got ({k}, {l})")
    w = k + l
    coeffs: dict[SumId, Fraction] = {}
    for i in range(1, w - 1):
        c = Fraction(2**i * (comb(w - i - 1, l - 1) + comb(w - i - 1, k - 1)), 2**w)
        if c:
            coeffs[SumId.sigma(w - i, i)] = c
    return Relation(coeffs, _lambda_product(k, l))


def reduction_relation(s: int, t: int) -> Relation:
    """The general reduction of sigma(s,t) to the sigma's of equal weight.

    ((-1)^t - 1) sigma(s,t) - sum_{i=1..s-2} 2^i C(t+i-1,i) sigma(s-i,t+i)
      = (-1)^t 2^s sum_{j=0..t-2} (-1)^j C(s+j-1,j) lambda(s+j) lambda(t-j)
        - 2^(s-1) C(s+t-2,s-1) h_(s+t-1) - 2^s C(s+t-2,s-1) lambda(s+t-1) ln 2,
    with the h-sum replaced by its closed form so the rhs is explicit.
    For even t the sigma(s,t) coefficient vanishes (it cancels with the i=0
    self-term).
    """
    if s < 2 or t < 1 or s + t < 3:
        raise ValueError(f"reduction_relation needs s >= 2, t >= 1, s+t >= 3, got ({s}, {t})")
    coeffs = {SumId.sigma(s, t): (-1) ** t - 1}
    for i in range(1, s - 1):
        coeffs[SumId.sigma(s - i, t + i)] = -(2**i) * comb(t + i - 1, i)
    c_edge = comb(s + t - 2, s - 1)
    rhs = _combination(
        *(((-1) ** (t + j) * 2**s * comb(s + j - 1, j), _lambda_product(s + j, t - j))
          for j in range(0, t - 1)),
        (-(2 ** (s - 1)) * c_edge, closedform.closed_form_for(SumId.h(s + t - 1))),
        (-(2**s) * c_edge, _lambda_product(s + t - 1, 1)),
    )
    return Relation(coeffs, rhs)


def even_order_relation(s: int, r: int) -> Relation:
    """The even-order specialization (t = 2r):

    sum_{i=1..s-2} 2^(i-1) C(2r+i-1,i) sigma(s-i,2r+i)
      = -2^(s-1) sum_{j=0..2r-2} (-1)^j C(s+j-1,j) lambda(s+j) lambda(2r-j)
        + 2^(s-2) C(s+2r-2,s-1) h_(s+2r-1) + 2^(s-1) C(s+2r-2,s-1) lambda(s+2r-1) ln 2,
    h folded.  Same content as reduction_relation(s, 2r) scaled by -1/2.
    """
    if s < 2 or r < 1:
        raise ValueError(f"even_order_relation needs s >= 2, r >= 1, got ({s}, {r})")
    coeffs: dict[SumId, Fraction] = {}
    for i in range(1, s - 1):
        coeffs[SumId.sigma(s - i, 2 * r + i)] = Fraction(2 ** (i - 1) * comb(2 * r + i - 1, i))
    c_edge = comb(s + 2 * r - 2, s - 1)
    rhs = _combination(
        *((-((-1) ** j) * 2 ** (s - 1) * comb(s + j - 1, j), _lambda_product(s + j, 2 * r - j))
          for j in range(0, 2 * r - 1)),
        (2 ** (s - 2) * c_edge, closedform.closed_form_for(SumId.h(s + 2 * r - 1))),
        (2 ** (s - 1) * c_edge, _lambda_product(s + 2 * r - 1, 1)),
    )
    return Relation(coeffs, rhs)


def folded_relation(variant: int, v: int, r: int) -> Relation:
    """The two pre-folded forms of the even-order relation (no h, no ln 2 terms).

    variant 1 (s = 2v):
      sum_{i=1..2v-2} 2^(i-1) C(2r+i-1,i) sigma(2v-i,2r+i)
        + 2^(2v-1) sum_{j=0..2r-2} (-1)^j C(2v+j-1,j) lambda(2v+j) lambda(2r-j)
        - 2^(2v-3) C(2v+2r-2,2v-1) (2v+2r-1) lambda(2v+2r)
        + 2^(2v-2) C(2v+2r-2,2v-1) sum_{j=1..r+v-2} lambda(2j+1) lambda(2v+2r-2j-1) = 0.
    (Only the binomial upper entry 2v+2r-2 is consistent with the even-order
    relation; the off-by-one variant 2v+2r-1 leaves a nonzero residual -- see
    the regression test.)

    variant 2 (s = 2v+1):
      sum_{i=1..2v-1} 2^(i-1) C(2r+i-1,i) sigma(2v+1-i,2r+i)
        + 2^2v sum_{j=0..2r-2} (-1)^j C(2v+j,j) lambda(2v+1+j) lambda(2r-j)
        - 2^2v C(2v+2r-1,2v) (v+r) lambda(2v+2r+1)
        + 2^2v C(2v+2r-1,2v) sum_{j=1..r+v-1} lambda(2j) lambda(2v+2r-2j+1) = 0.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if v < 1 or r < 1:
        raise ValueError(f"folded_relation needs v >= 1, r >= 1, got ({v}, {r})")
    s = 2 * v if variant == 1 else 2 * v + 1
    coeffs = {SumId.sigma(s - i, 2 * r + i): Fraction(2 ** (i - 1) * comb(2 * r + i - 1, i))
              for i in range(1, s - 1)}
    if variant == 1:
        c_edge = comb(2 * v + 2 * r - 2, 2 * v - 1)
        rhs = _combination(
            *((-((-1) ** j) * 2 ** (s - 1) * comb(s + j - 1, j), _lambda_product(s + j, 2 * r - j))
              for j in range(0, 2 * r - 1)),
            (Fraction(c_edge * (2 * v + 2 * r - 1) * 2 ** (2 * v), 8), lambda_sym(2 * v + 2 * r)),
            *((-(2 ** (2 * v - 2)) * c_edge, _lambda_product(2 * j + 1, 2 * v + 2 * r - 2 * j - 1))
              for j in range(1, r + v - 1)),
        )
        return Relation(coeffs, rhs)
    c_edge = comb(2 * v + 2 * r - 1, 2 * v)
    rhs = _combination(
        *((-((-1) ** j) * 2 ** (2 * v) * comb(2 * v + j, j), _lambda_product(s + j, 2 * r - j))
          for j in range(0, 2 * r - 1)),
        (c_edge * (v + r) * 2 ** (2 * v), lambda_sym(2 * v + 2 * r + 1)),
        *((-(2 ** (2 * v)) * c_edge, _lambda_product(2 * j, 2 * v + 2 * r - 2 * j + 1))
          for j in range(1, r + v)),
    )
    return Relation(coeffs, rhs)


def relations_for_weight(w: int) -> list[Relation]:
    """All generated relations of weight w: products (k <= l), plus reductions."""
    return list(_relations(w))


# shared per weight (a Relation cannot change); far above one run's weights
@lru_cache(maxsize=64)
def _relations(w: int) -> tuple[Relation, ...]:
    if w < 3:
        raise ValueError(f"weight must be >= 3, got {w}")
    rels = [gen_product_relation(k, w - k) for k in range(2, w // 2 + 1)]
    for t in range(1, w - 1):
        s = w - t
        if s >= 2:
            rels.append(reduction_relation(s, t))
    return tuple(rels)


# ---------------------------------------------------------------------------
# known closed-form providers and the exact solver
# ---------------------------------------------------------------------------

KnownProvider = Callable[[SumId], Optional[SymExpr]]


def tabulated_sigma_values(sid: SumId) -> Optional[SymExpr]:
    """Closed forms from the literature for sigma SumIds (the default provider)."""
    if sid.family != "sigma":
        return None
    return closedform.closed_form_for(sid)


class SolveReport(NamedTuple):
    weight: int
    solved: dict[SumId, SymExpr]
    unresolved: list[SumId]
    rank: int
    relations_used: int
    residual_checks: list[tuple[int, float]]
    inconsistent: list[int]  # indices of rows that reduced to 0 = nonzero


def _reduce(row: dict[int, int], pivot: dict[int, int], u: int) -> None:
    """row := (p/g) row - (a/g) pivot, with a and p their entries at column u and
    g = gcd(a, p), then divided by its content; column u drops out."""
    a, p = row[u], pivot[u]
    g = gcd(a, p)
    a, p = a // g, p // g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in pivot.items():
        nv = row.get(k, 0) - a * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    content = gcd(*row.values())
    if content > 1:
        for k in row:
            row[k] //= content


class _Echelon:
    """Exact Gauss-Jordan elimination of rows sum_u a_u u = rhs over integer rows.

    A row is one dict from column to non-zero int: unknown i at column i >= 0,
    each monomial of the right-hand sides at a column < 0.  It stands for the
    relation times a common denominator, divided by the content, so every row
    operation (_reduce) stays in integers; rhs divides by a pivot.

    The pivot of each unknown, in the given order, is the first row not yet a
    pivot, in input order, with a non-zero entry there; it is then eliminated
    from every other row.  pivots lists (column, row) in that order.
    """

    __slots__ = ("unknowns", "rows", "pivots", "_col", "_monos")

    def __init__(self, unknowns: Sequence[Hashable], rows: Sequence[tuple[dict, SymExpr]]):
        self.unknowns = list(unknowns)
        self._col = {u: i for i, u in enumerate(self.unknowns)}
        self._monos: dict = {}  # monomial -> column -1, -2, ... in order of first use
        self.rows = [self._row(coeffs, rhs) for coeffs, rhs in rows]
        self.pivots: list[tuple[int, dict[int, int]]] = []
        remaining = list(self.rows)
        for u in range(len(self.unknowns)):
            i = next((i for i, r in enumerate(remaining) if u in r), None)
            if i is None:
                continue
            pick = remaining.pop(i)
            for r in self.rows:
                if r is not pick and u in r:
                    _reduce(r, pick, u)
            self.pivots.append((u, pick))

    def _row(self, coeffs: dict, rhs: SymExpr) -> dict[int, int]:
        """The integer row of sum_u coeffs[u] u = rhs."""
        entries = [(self._col[u], c) for u, c in coeffs.items()]
        entries += [(self._monos.setdefault(m, -1 - len(self._monos)), c) for m, c in rhs.items()]
        den = lcm(*(c.denominator for _, c in entries))
        row = {k: c.numerator * (den // c.denominator) for k, c in entries}
        content = gcd(*row.values())
        return {k: v // content for k, v in row.items()} if content > 1 else row

    def rhs(self, row: dict[int, int], d: int) -> SymExpr:
        """The right-hand side of row divided by d."""
        monos = list(self._monos)
        return SymExpr._of({monos[-1 - k]: Fraction(v, d) for k, v in row.items() if k < 0})

    def unknowns_sum(self) -> Optional[SymExpr]:
        """The sum of all unknowns from the row space, or None if it is not determined.

        The row sum_u u - S = 0, with S one more unknown at the next column, is
        reduced against the pivots.  When S alone is left, the all-ones row lies
        in the row space and the reduced row gives S.
        """
        n = len(self.unknowns)
        ones = dict.fromkeys(range(n), 1)
        ones[n] = -1
        for u, pivot in self.pivots:
            if u in ones:
                _reduce(ones, pivot, u)
        return None if any(0 <= k < n for k in ones) else self.rhs(ones, ones[n])


def _system(w: int, providers: Sequence[KnownProvider]) -> tuple[list[SumId], list[Relation], list[tuple]]:
    """(unknowns, generated relations, rows) of the weight-w sigma system: the
    rows, as (coefficients, right-hand side), are the generated relations, then
    one identity row per unknown whose value the first provider that knows it
    gives."""
    unknowns = [SumId.sigma(w - i, i) for i in range(1, w - 1)]
    generated = [r for r in relations_for_weight(w) if not r.is_identity]
    rows = [(r.coeffs, r.rhs) for r in generated]
    for u in unknowns:
        for provider in providers:
            val = provider(u)
            if val is not None:
                rows.append(({u: Fraction(1)}, val))
                break
    return unknowns, generated, rows


def solve_weight(
    w: int,
    known_providers: Optional[Sequence[KnownProvider]] = None,
    *,
    with_residuals: bool = True,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    cfg: Optional[OracleConfig] = None,
) -> SolveReport:
    """Assemble the weight-w system, inject known values, and solve exactly.

    Known closed forms enter as identity rows (coefficient 1), so if the
    generated relations independently determine one of them, elimination
    reduces the identity row to 0 = 0 -- an automatic exact-consistency check.
    Rows that reduce to 0 = (nonzero SymExpr) are reported as inconsistent
    rather than raised: they would falsify a closed form.
    """
    if w < 3:
        raise ValueError(f"weight must be >= 3, got {w}")
    providers = list(known_providers) if known_providers is not None else [tabulated_sigma_values]
    unknowns, generated, rows = _system(w, providers)
    ech = _Echelon(unknowns, rows)
    solved: dict[SumId, SymExpr] = {}
    for u, row in ech.pivots:
        if all(k < 0 or k == u for k in row):
            solved[unknowns[u]] = ech.rhs(row, row[u])
    unresolved = [u for u in unknowns if u not in solved]
    inconsistent = [i for i, r in enumerate(ech.rows) if r and max(r) < 0]
    residuals: list[tuple[int, float]] = []
    if with_residuals:
        for i, rel in enumerate(generated):
            residuals.append((i, rel.residual(ctx, cfg)))
    return SolveReport(
        weight=w,
        solved=solved,
        unresolved=unresolved,
        rank=len(ech.pivots),
        relations_used=len(rows),
        residual_checks=residuals,
        inconsistent=inconsistent,
    )


class SumTheoremReport(NamedTuple):
    weight: int
    numeric_residual: float
    symbolic_ok: Optional[bool]
    path: str  # "closed-forms" | "relation-span" | "numeric-only"
    numeric_bound: float  # certified error of the numeric sum minus (w-1) lambda(w)


def _sum_via_rowspace(w: int) -> Optional[SymExpr]:
    """Express sum_i sigma(w-i,i) from the relation row space, if possible.

    The system of solve_weight (known closed forms as identity rows) is
    eliminated, and the sum of its unknowns is read from the row space.
    """
    unknowns, _, rows = _system(w, [tabulated_sigma_values])
    return _Echelon(unknowns, rows).unknowns_sum()


def verify_sum_theorem(
    w: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    cfg: Optional[OracleConfig] = None,
) -> SumTheoremReport:
    """Check sum_{i=1..w-2} sigma(w-i,i) = (w-1) lambda(w), numerically always
    (the residual holds when it is at most numeric_bound), symbolically when the
    closed forms or the relation row space determine the sum."""
    if w < 3:
        raise ValueError(f"weight must be >= 3, got {w}")
    target = closedform.sigma_weight_sum(w)
    rel = Relation({SumId.sigma(w - i, i): 1 for i in range(1, w - 1)}, target)
    residual, bound = rel.residual_and_bound(ctx, cfg)

    values = [tabulated_sigma_values(SumId.sigma(w - i, i)) for i in range(1, w - 1)]
    if all(v is not None for v in values):
        total = SymExpr.zero()
        for v in values:
            total = total + v
        return SumTheoremReport(w, residual, total == target, "closed-forms", bound)
    span_sum = _sum_via_rowspace(w)
    if span_sum is not None:
        return SumTheoremReport(w, residual, span_sum == target, "relation-span", bound)
    return SumTheoremReport(w, residual, None, "numeric-only", bound)
