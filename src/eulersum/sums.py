"""Identifiers for the series families the package evaluates, and the family registry.

A SumId names one convergent series with integer parameters; it is the common
currency between the closed-form table, the summation oracle, the linear
relations and the CLI.  FAMILIES holds one Family record per family: its
parameter names, the shape of its series (Series) and its exact n-th term.
Validity, weight, the oracle's evaluator and cache key, the exact partial
sums, the enumeration of known closed forms and the CLI's parameter flags
follow from the record.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .exact import alternating, harmonic, plain, semi

__all__ = ["SumId", "Series", "Family", "FAMILIES"]


class Series(NamedTuple):
    """The shape sum_{n>=1} sign_n w_n / base_n^power of a family's series.

    w_n, by kind, is H_n^(order) ("H"), S_n^(order) ("S"), H_2n^(order)
    ("H2N"), H_(2n-1)^(order) ("H2N1") or -Ht_(n-1)^(order) ("Ht"); base_n
    is n (shift None) or the odd 2n + shift; sign_n is (-1)^(n-1) when
    alternating, else 1.  So AltTildeH(a), sum (-1)^n Ht_(n-1)^(2a) / n, is
    Series("Ht", 2a, None, 1, True): the sign times the weight's minus.
    """

    kind: str
    order: int
    shift: Optional[int]
    power: int
    alternating: bool = False


class Family(NamedTuple):
    """One series family: its parameter names, series(*params), the shape of
    its series, and term(*params, n), the exact n-th term of the defining
    series, written out by hand as the reference the shape is tested against."""

    params: tuple[str, ...]
    series: Callable[..., Series]
    term: Callable[..., Fraction]

    def valid(self, *params: int) -> bool:
        """Every parameter is >= 1, and the power is >= 2 or the series alternates."""
        s = self.series(*params)
        return min(params) >= 1 and (s.power >= 2 or s.alternating)

    def weight(self, *params: int) -> int:
        s = self.series(*params)
        return s.order + s.power


FAMILIES = {
    "J": Family(("b",), lambda b: Series("S", 1, None, b),
                lambda b, n: harmonic(n, semi(1)) / Fraction(n) ** b),
    "Jbar": Family(("b",), lambda b: Series("S", 1, -1, b),
                   lambda b, n: harmonic(n, semi(1)) / Fraction(2 * n - 1) ** b),
    "sigma": Family(("s", "t"), lambda s, t: Series("S", t, None, s),
                    lambda s, t, n: harmonic(n, semi(t)) / Fraction(n) ** s),
    "h": Family(("q",), lambda q: Series("H", 1, 1, q),
                lambda q, n: harmonic(n, plain(1)) / Fraction(2 * n + 1) ** q),
    "Z": Family(("a",), lambda a: Series("H2N", 1, None, 2 * a),
                lambda a, n: harmonic(2 * n, plain(1)) / Fraction(n) ** (2 * a)),
    "HoddOverOdd": Family(("a",), lambda a: Series("H2N1", 1, -1, 2 * a),
                          lambda a, n: harmonic(2 * n - 1, plain(1)) / Fraction(2 * n - 1) ** (2 * a)),
    "EulerStar": Family(("b",), lambda b: Series("H", 1, None, b),
                        lambda b, n: harmonic(n, plain(1)) / Fraction(n) ** b),
    "AltEulerStar": Family(("a",), lambda a: Series("H", 1, None, 2 * a, True),
                           lambda a, n: (-1) ** (n - 1) * harmonic(n, plain(1)) / Fraction(n) ** (2 * a)),
    "ZetaStar": Family(("q", "p"), lambda q, p: Series("H", p, None, q),
                       lambda q, p, n: harmonic(n, plain(p)) / Fraction(n) ** q),
    "AltTildeH": Family(("a",), lambda a: Series("Ht", 2 * a, None, 1, True),
                        lambda a, n: (-1) ** n * harmonic(n - 1, alternating(2 * a)) / n),
    "E": Family(("p", "q"), lambda p, q: Series("H2N", p, None, q),
                lambda p, q, n: harmonic(2 * n, plain(p)) / Fraction(n) ** q),
}


class SumId(namedtuple("SumId", "family params")):
    """One series family instance, e.g. SumId.sigma(2, 3) or SumId.J(4).

    The defining series:
      J(b)            sum S_n / n^b
      Jbar(b)         sum S_n / (2n-1)^b
      sigma(s, t)     sum S_n^(t) / n^s
      h(q)            sum H_p / (2p+1)^q
      Z(a)            sum H_2n / n^(2a)
      HoddOverOdd(a)  sum H_(2n-1) / (2n-1)^(2a)
      EulerStar(b)    sum H_n / n^b
      AltEulerStar(a) sum (-1)^(n-1) H_n / n^(2a)
      ZetaStar(q, p)  sum H_n^(p) / n^q
      AltTildeH(a)    sum (-1)^n Ht_(n-1)^(2a) / n
      E(p, q)         sum (sum_{k<=2n} k^-p) / n^q

    Its shape is series (FAMILIES[family].series); two ids of one shape, such
    as sigma(s, 1) and J(s), name the same series.  An id is the tuple
    (family, params), and it compares, hashes and sorts as that tuple.
    """

    __slots__ = ()

    def __new__(cls, family: str, *params: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        fam = FAMILIES[family]
        if len(params) != len(fam.params):
            raise ValueError(f"{family} takes parameters {fam.params}, got {params}")
        if not all(type(p) is int for p in params):
            raise ValueError(f"{family} parameters must be integers, got {params}")
        if not fam.valid(*params):
            raise ValueError(f"parameters {params} out of range for family {family}")
        return super().__new__(cls, family, params)

    def __getnewargs__(self):  # for copy and pickle, which call __new__ with these
        return (self.family, *self.params)

    # family constructors
    @staticmethod
    def J(b: int) -> "SumId":
        return SumId("J", b)

    @staticmethod
    def Jbar(b: int) -> "SumId":
        return SumId("Jbar", b)

    # one shared id per (s, t), checked once; typed, so 2.0 is not served as 2
    @staticmethod
    @lru_cache(maxsize=1024, typed=True)
    def sigma(s: int, t: int) -> "SumId":
        return SumId("sigma", s, t)

    @staticmethod
    def h(q: int) -> "SumId":
        return SumId("h", q)

    @staticmethod
    def Z(a: int) -> "SumId":
        return SumId("Z", a)

    @staticmethod
    def hodd_over_odd(a: int) -> "SumId":
        return SumId("HoddOverOdd", a)

    @staticmethod
    def euler_star(b: int) -> "SumId":
        return SumId("EulerStar", b)

    @staticmethod
    def alt_euler_star(a: int) -> "SumId":
        return SumId("AltEulerStar", a)

    @staticmethod
    def zeta_star(q: int, p: int) -> "SumId":
        return SumId("ZetaStar", q, p)

    @staticmethod
    def alt_tilde_h(a: int) -> "SumId":
        return SumId("AltTildeH", a)

    @staticmethod
    def E(p: int, q: int) -> "SumId":
        return SumId("E", p, q)

    @property
    def weight(self) -> int:
        return FAMILIES[self.family].weight(*self.params)

    @property
    def series(self) -> Series:
        return FAMILIES[self.family].series(*self.params)

    @property
    def param_names(self) -> tuple[str, ...]:
        return FAMILIES[self.family].params

    def __str__(self):
        return f"{self.family}({', '.join(map(str, self.params))})"

    __repr__ = __str__
