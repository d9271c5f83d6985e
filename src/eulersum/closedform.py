"""Closed forms for Jordan's sums, sigma-Euler sums and the related families.

One function per closed form, each returning a SymExpr over the canonical
basis.  Where the literature gives both a zeta-form and a lambda-form, the
lambda-form is the implementation and the zeta-form is re-derived in tests
(both must normalize to the identical SymExpr).  Empty index ranges
contribute 0.

``closed_form_for`` maps a SumId to its known closed form (or None), which is
what the CLI, the solver's known-value providers and the oracle
cross-validation suite consume.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional

from .sums import FAMILIES, SumId
from .symexpr import LI4_HALF, LOG2, SymExpr, eta_sym, lambda_sym, zeta_sym

__all__ = [
    "euler_star",
    "alt_euler_star",
    "h2n_sum",
    "h_odd_over_odd",
    "jordan_even",
    "jordan_even_zeta_form",
    "jordan_3",
    "jordan_bar_even",
    "jordan_reflection",
    "jordan_bar_3",
    "h_even",
    "h_odd",
    "h_odd_first_variant",
    "h_odd_second_variant",
    "h_sum",
    "alt_tilde_sum",
    "sigma_2_odd",
    "sigma_odd_2",
    "zeta_star_odd_2",
    "e_2_odd",
    "sigma_even_3",
    "sigma_special",
    "weighted_sigma_sum",
    "sigma33_plus_3sigma24",
    "sigma_weight_sum",
    "closed_form_for",
    "known_closed_form_ids",
]

_zero = SymExpr.zero


def _ln2(exp: int = 1) -> SymExpr:
    return SymExpr.atom(LOG2, exp)


def _li4() -> SymExpr:
    return SymExpr.atom(LI4_HALF)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def euler_star(b: int) -> SymExpr:
    """Classical Euler star sum zeta*(b,1) = sum H_n/n^b, b >= 2."""
    _require(b >= 2, f"euler_star needs b >= 2, got {b}")
    out = zeta_sym(b + 1).scaled(1 + Fraction(b, 2))
    for j in range(2, b):
        out = out - (zeta_sym(j) * zeta_sym(b + 1 - j)).scaled(Fraction(1, 2))
    return out


def alt_euler_star(a: int) -> SymExpr:
    """Alternating Euler star sum: sum (-1)^(n-1) H_n/n^(2a), a >= 1."""
    _require(a >= 1, f"alt_euler_star needs a >= 1, got {a}")
    out = eta_sym(2 * a + 1).scaled(Fraction(2 * a + 1, 2)) - zeta_sym(2 * a + 1).scaled(Fraction(1, 2))
    for j in range(1, a):
        out = out - eta_sym(2 * j) * zeta_sym(2 * a + 1 - 2 * j)
    return out


def h2n_sum(a: int) -> SymExpr:
    """sum H_2n / n^(2a), a >= 1."""
    _require(a >= 1, f"h2n_sum needs a >= 1, got {a}")
    out = zeta_sym(2 * a + 1).scaled(Fraction(2 * a + 1 + 2 ** (2 * a + 1), 4))
    for j in range(1, a):
        out = out - (zeta_sym(2 * j) * zeta_sym(2 * a + 1 - 2 * j)).scaled(2 ** (2 * a - 2 * j))
    return out


def h_odd_over_odd(a: int) -> SymExpr:
    """sum H_(2n-1) / (2n-1)^(2a), a >= 1."""
    _require(a >= 1, f"h_odd_over_odd needs a >= 1, got {a}")
    out = lambda_sym(2 * a + 1).scaled(Fraction(2 * a + 1, 2))
    for j in range(1, a):
        out = out - zeta_sym(2 * a + 1 - 2 * j) * lambda_sym(2 * j)
    return out


def jordan_even(a: int) -> SymExpr:
    """J(2a) = sum S_n / n^(2a), a >= 1 (lambda form)."""
    _require(a >= 1, f"jordan_even needs a >= 1, got {a}")
    out = lambda_sym(2 * a + 1).scaled(2 ** (2 * a - 1))
    for j in range(1, a):
        out = out - (lambda_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)).scaled(2 ** (2 * j))
    return out


def jordan_even_zeta_form(a: int) -> SymExpr:
    """J(2a) in the equivalent zeta form; must normalize identically to jordan_even."""
    _require(a >= 1, f"jordan_even_zeta_form needs a >= 1, got {a}")
    out = zeta_sym(2 * a + 1).scaled(Fraction(2 ** (2 * a + 1) - 1, 4))
    for j in range(1, a):
        out = out - (zeta_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)).scaled(
            Fraction(2 ** (2 * j + 1) - 1, 2)
        )
    return out


def jordan_3() -> SymExpr:
    """J(3), the odd case that needs li4(1/2)."""
    return (
        _li4().scaled(8)
        - zeta_sym(4).scaled(Fraction(53, 8))
        - (zeta_sym(2) * _ln2(2)).scaled(2)
        + _ln2(4).scaled(Fraction(1, 3))
        + (zeta_sym(3) * _ln2()).scaled(7)
    )


def jordan_bar_even(a: int) -> SymExpr:
    """Jbar(2a) = sum S_n / (2n-1)^(2a), a >= 1."""
    _require(a >= 1, f"jordan_bar_even needs a >= 1, got {a}")
    out = lambda_sym(2 * a) * _ln2() + lambda_sym(2 * a + 1).scaled(Fraction(1, 2))
    for j in range(1, a):
        out = out - (lambda_sym(2 * a - 2 * j) * zeta_sym(2 * j + 1)).scaled(
            Fraction(1, 2 ** (2 * j + 1))
        )
    return out


def jordan_reflection(b: int) -> SymExpr:
    """Value of Jbar(b) + (-1)^(b-1) 2^(-b) J(b), for every integer b >= 2."""
    _require(b >= 2, f"jordan_reflection needs b >= 2, got {b}")
    out = lambda_sym(b) * _ln2()
    for j in range(1, b - 1):
        out = out + (lambda_sym(b - j) * zeta_sym(j + 1)).scaled(
            Fraction((-1) ** (j + 1), 2 ** (j + 1))
        )
    return out


def jordan_bar_3() -> SymExpr:
    """Jbar(3), from J(3) and the reflection relation."""
    return (
        -_li4()
        + zeta_sym(4).scaled(Fraction(83, 64))
        + (zeta_sym(2) * _ln2(2)).scaled(Fraction(1, 4))
        - _ln2(4).scaled(Fraction(1, 24))
    )


def h_even(a: int) -> SymExpr:
    """h_2a = sum H_n / (2n+1)^(2a), a >= 1; only lambda series appear."""
    _require(a >= 1, f"h_even needs a >= 1, got {a}")
    out = (lambda_sym(2 * a) * _ln2()).scaled(-2) + lambda_sym(2 * a + 1).scaled(2 * a)
    for j in range(1, a):
        out = out - (lambda_sym(2 * j) * lambda_sym(2 * a + 1 - 2 * j)).scaled(2)
    return out


def h_odd(a: int) -> SymExpr:
    """h_(2a-1) = sum H_p / (2p+1)^(2a-1), a >= 2."""
    _require(a >= 2, f"h_odd needs a >= 2, got {a}")
    out = (lambda_sym(2 * a - 1) * _ln2()).scaled(-2) + lambda_sym(2 * a).scaled(
        Fraction(2 * a - 1, 2)
    )
    for q in range(1, a - 1):
        out = out - lambda_sym(2 * q + 1) * lambda_sym(2 * a - 2 * q - 1)
    return out


def h_odd_first_variant(b: int) -> SymExpr:
    """h_(4b-1) regrouped; normalizes identically to h_odd(2b)."""
    _require(b >= 1, f"h_odd_first_variant needs b >= 1, got {b}")
    out = (lambda_sym(4 * b - 1) * _ln2()).scaled(-2) + lambda_sym(4 * b).scaled(
        Fraction(4 * b - 1, 2)
    )
    for q in range(1, b):
        out = out - (lambda_sym(2 * q + 1) * lambda_sym(4 * b - 2 * q - 1)).scaled(2)
    return out


def h_odd_second_variant(b: int) -> SymExpr:
    """h_(4b+1) regrouped; normalizes identically to h_odd(2b+1)."""
    _require(b >= 1, f"h_odd_second_variant needs b >= 1, got {b}")
    out = (
        (lambda_sym(4 * b + 1) * _ln2()).scaled(-2)
        + lambda_sym(4 * b + 2).scaled(Fraction(4 * b + 1, 2))
        - lambda_sym(2 * b + 1) * lambda_sym(2 * b + 1)
    )
    for q in range(1, b):
        out = out - (lambda_sym(2 * q + 1) * lambda_sym(4 * b - 2 * q + 1)).scaled(2)
    return out


def h_sum(q: int) -> SymExpr:
    """sum H_p / (2p+1)^q for any q >= 2, dispatching on parity."""
    _require(q >= 2, f"h_sum needs q >= 2, got {q}")
    return h_even(q // 2) if q % 2 == 0 else h_odd((q + 1) // 2)


def alt_tilde_sum(a: int) -> SymExpr:
    """sum (-1)^n Ht_(n-1)^(2a) / n, a >= 1.

    At a=2 the zeta(3)zeta(2) term carries a plus sign; the sign-flipped
    variant is numerically refuted (see the regression tests).
    """
    _require(a >= 1, f"alt_tilde_sum needs a >= 1, got {a}")
    out = (
        zeta_sym(2 * a + 1).scaled(Fraction(1, 2))
        - eta_sym(2 * a + 1).scaled(Fraction(2 * a + 1, 2))
        + _ln2() * zeta_sym(2 * a)
    )
    for j in range(1, a):
        out = out + eta_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)
    return out


def sigma_2_odd(a: int) -> SymExpr:
    """sigma(2, 2a-1), a >= 1."""
    _require(a >= 1, f"sigma_2_odd needs a >= 1, got {a}")
    out = lambda_sym(2 * a + 1).scaled(2 * a * (2 * a - 1))
    for j in range(1, a):
        out = out - (lambda_sym(2 * a - 2 * j) * lambda_sym(2 * j + 1)).scaled(8 * j)
    return out


def sigma_odd_2(a: int) -> SymExpr:
    """sigma(2a-1, 2), a >= 2."""
    _require(a >= 2, f"sigma_odd_2 needs a >= 2, got {a}")
    out = lambda_sym(2 * a + 1).scaled(-a * 2 ** (2 * a - 1)) + (
        lambda_sym(2) * lambda_sym(2 * a - 1)
    ).scaled(Fraction(2 ** (2 * a - 1) * (2 * a + 1), 3))
    for j in range(1, a - 1):
        out = out + (lambda_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)).scaled(j * 2 ** (2 * j))
    return out


def zeta_star_odd_2(a: int) -> SymExpr:
    """zeta*(2a-1, 2) = sum H_n^(2) / n^(2a-1), a >= 2."""
    _require(a >= 2, f"zeta_star_odd_2 needs a >= 2, got {a}")
    out = zeta_sym(2 * a + 1).scaled(-Fraction(2 * a * a + a - 1, 2)) + (
        zeta_sym(2) * zeta_sym(2 * a - 1)
    ).scaled(2 * a - 1)
    for j in range(1, a - 1):
        out = out + (zeta_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)).scaled(2 * j)
    return out


def e_2_odd(a: int) -> SymExpr:
    """E_(2, 2a-1) = sum (sum_{k<=2n} k^-2) / n^(2a-1), a >= 2."""
    _require(a >= 2, f"e_2_odd needs a >= 2, got {a}")
    out = (zeta_sym(2) * zeta_sym(2 * a - 1)).scaled(
        Fraction((2 * a + 1) * 2 ** (2 * a - 3)) - Fraction(1, 2)
    ) - zeta_sym(2 * a + 1).scaled(
        Fraction(a * 2 ** (2 * a - 1)) + Fraction(2 * a * a - a - 1, 8)
    )
    for j in range(1, a - 1):
        out = out + (zeta_sym(2 * j + 1) * zeta_sym(2 * a - 2 * j)).scaled(j * 2 ** (2 * j))
    return out


def sigma_even_3(a: int) -> SymExpr:
    """sigma(2a-2, 3) for a >= 3.

    The same expression at a=2 is numerically refuted (it misses sigma(2,3) by
    about 1.73), so a=2 is rejected; see the known-anomaly regression test.
    """
    _require(a >= 3, f"sigma_even_3 needs a >= 3, got {a}")
    out = lambda_sym(2 * a + 1).scaled(a * (2 * a - 1) * 2 ** (2 * a - 3)) - (
        zeta_sym(2) * lambda_sym(2 * a - 1)
    ).scaled((a - 1) * (2 * a + 3) * 2 ** (2 * a - 4))
    for j in range(2, a - 1):
        out = out - (zeta_sym(2 * a - 2 * j) * lambda_sym(2 * j + 1)).scaled(
            j * (2 * j - 1) * 2 ** (2 * j - 2)
        )
    return out


def sigma_special(s: int, t: int) -> SymExpr:
    """Tabulated sigma values of weights 4 and 7 that fall outside the general formulas."""
    if (s, t) == (2, 2):
        return (
            _li4().scaled(-8)
            + (zeta_sym(2) * _ln2(2)).scaled(2)
            - _ln2(4).scaled(Fraction(1, 3))
            - (zeta_sym(3) * _ln2()).scaled(7)
            + zeta_sym(4).scaled(Fraction(151, 16))
        )
    if (s, t) == (3, 1):
        return jordan_3()
    if (s, t) == (3, 2):
        return sigma_odd_2(2)
    if (s, t) == (4, 3):
        return lambda_sym(7).scaled(120) - (lambda_sym(2) * lambda_sym(5)).scaled(96)
    if (s, t) == (3, 4):
        return (
            lambda_sym(7).scaled(-80)
            + (lambda_sym(3) * lambda_sym(4)).scaled(8)
            + (lambda_sym(2) * lambda_sym(5)).scaled(Fraction(176, 3))
        )
    raise ValueError(f"no tabulated special value for sigma({s}, {t})")


def weighted_sigma_sum(a: int) -> SymExpr:
    """Value of sum_{i=1..2a-2} 2^(i-1) sigma(2a-i, 1+i), a >= 2."""
    _require(a >= 2, f"weighted_sigma_sum needs a >= 2, got {a}")
    inner = lambda_sym(2 * a + 1).scaled(a - 1)
    for j in range(1, a):
        inner = inner + (zeta_sym(2 * j) * lambda_sym(2 * a + 1 - 2 * j)).scaled(
            Fraction(3, 2 ** (2 * j)) - 1
        )
    return inner.scaled(2 ** (2 * a - 1))


def sigma33_plus_3sigma24() -> SymExpr:
    """Value of sigma(3,3) + 3 sigma(2,4)."""
    return lambda_sym(6).scaled(15) - (lambda_sym(3) * lambda_sym(3)).scaled(8)


def sigma_weight_sum(w: int) -> SymExpr:
    """sigma-sum theorem right-hand side: sum of all sigma of weight w is (w-1) lambda(w)."""
    _require(w >= 3, f"sigma_weight_sum needs w >= 3, got {w}")
    return lambda_sym(w).scaled(w - 1)


def known_closed_form_ids(max_weight: int) -> list["SumId"]:
    """Every SumId of weight <= max_weight whose closed form is known, ordered by
    weight, then family (in registry order), then parameters."""
    ids = [SumId(family, *params)
           for family, fam in FAMILIES.items()
           for params in product(range(1, max_weight + 1), repeat=len(fam.params))
           if fam.valid(*params) and fam.weight(*params) <= max_weight]
    ids.sort(key=lambda sid: sid.weight)  # stable, so family and parameter order stay
    return [sid for sid in ids if closed_form_for(sid) is not None]


_SPECIAL_SIGMA = {(2, 2), (3, 4)}


# one entry per id asked for; a SymExpr never changes, so callers may share it
@lru_cache(maxsize=1024)
def closed_form_for(sid: SumId) -> Optional[SymExpr]:
    """Known closed form for a SumId, or None when the value is not elementary."""
    fam, p = sid.family, sid.params
    if fam == "J":
        b = p[0]
        if b % 2 == 0:
            return jordan_even(b // 2)
        return jordan_3() if b == 3 else None
    if fam == "Jbar":
        b = p[0]
        if b % 2 == 0:
            return jordan_bar_even(b // 2)
        return jordan_bar_3() if b == 3 else None
    if fam == "sigma":
        s, t = p
        if t == 1:
            return closed_form_for(SumId.J(s))
        if s == 2 and t % 2 == 1:
            return sigma_2_odd((t + 1) // 2)
        if t == 2 and s % 2 == 1:
            return sigma_odd_2((s + 1) // 2)
        if t == 3 and s % 2 == 0 and s >= 4:
            return sigma_even_3((s + 2) // 2)
        if (s, t) in _SPECIAL_SIGMA:
            return sigma_special(s, t)
        return None
    if fam == "h":
        return h_sum(p[0])
    if fam == "Z":
        return h2n_sum(p[0])
    if fam == "HoddOverOdd":
        return h_odd_over_odd(p[0])
    if fam == "EulerStar":
        return euler_star(p[0])
    if fam == "AltEulerStar":
        return alt_euler_star(p[0])
    if fam == "ZetaStar":
        q, pp = p
        if pp == 1:
            return euler_star(q)
        if pp == 2 and q % 2 == 1:
            return zeta_star_odd_2((q + 1) // 2)
        return None
    if fam == "AltTildeH":
        return alt_tilde_sum(p[0])
    if fam == "E":
        pp, q = p
        if pp == 2 and q % 2 == 1 and q >= 3:
            return e_2_odd((q + 1) // 2)
        if pp == 1 and q % 2 == 0:
            return h2n_sum(q // 2)
        return None
    return None
