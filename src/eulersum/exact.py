"""Exact rational building blocks: harmonic-type numbers, Bernoulli numbers.

Everything here is a pure function returning `fractions.Fraction` (always stored
reduced, denominator > 0), which is the coefficient domain for the whole package.
Speed is secondary to exactness.  Harmonic prefixes are memoized per kind in a
bounded lru_cache (_prefixes), Bernoulli numbers in one list; both lists are
extended only under one lock.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "HarmonicKind",
    "plain",
    "semi",
    "alternating",
    "harmonic",
    "bernoulli",
    "as_fraction",
]


class HarmonicKind(namedtuple("HarmonicKind", "variant order")):
    """Tagged kind of a harmonic-type partial sum.

    variant "plain":       H_n^(p)  = sum_{k<=n} 1/k^p
    variant "semi":        S_n^(t)  = sum_{k<=n} 1/(2k-1)^t
    variant "alternating": Ht_n^(b) = sum_{k<=n} (-1)^(k-1)/k^b
    """

    __slots__ = ()

    def __new__(cls, variant: str, order: int):
        if variant not in ("plain", "semi", "alternating"):
            raise ValueError(f"unknown harmonic variant {variant!r}")
        if type(order) is not int:
            raise ValueError(f"harmonic order must be an integer, got {order!r}")
        if order < 1:
            raise ValueError(f"harmonic order must be >= 1, got {order}")
        return super().__new__(cls, variant, order)


def plain(p: int = 1) -> HarmonicKind:
    return HarmonicKind("plain", p)


def semi(t: int = 1) -> HarmonicKind:
    return HarmonicKind("semi", t)


def alternating(b: int = 1) -> HarmonicKind:
    return HarmonicKind("alternating", b)


@lru_cache(maxsize=64)
def _prefixes(kind: HarmonicKind) -> list[Fraction]:
    """[v_0, v_1, ...] (v_0 = 0) of the kind, extended by harmonic under _cache_lock."""
    return [Fraction(0)]


_cache_lock = threading.Lock()


def harmonic(n: int, kind: HarmonicKind) -> Fraction:
    """n-th harmonic-type number of the given kind, exactly.

    harmonic(0, kind) == 0 for every kind.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not isinstance(kind, HarmonicKind):
        raise TypeError("kind must be a HarmonicKind")
    with _cache_lock:
        vals = _prefixes(kind)
        p = kind.order
        while len(vals) <= n:
            k = len(vals)
            if kind.variant == "plain":
                step = Fraction(1, k**p)
            elif kind.variant == "semi":
                step = Fraction(1, (2 * k - 1) ** p)
            else:
                step = Fraction((-1) ** (k - 1), k**p)
            vals.append(vals[-1] + step)
        return vals[n]


_bernoulli_cache: list[Fraction] = [Fraction(1)]  # B_0


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed from the defining recurrence sum_{k=0..n} C(n+1,k) B_k = 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    with _cache_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            if m > 1 and m % 2 == 1:
                _bernoulli_cache.append(Fraction(0))
                continue
            acc = sum(
                (Fraction(comb(m + 1, k)) * _bernoulli_cache[k] for k in range(m)),
                Fraction(0),
            )
            _bernoulli_cache.append(-acc / (m + 1))
        return _bernoulli_cache[n]


def as_fraction(c) -> Fraction:
    """c as a Fraction, for an int or a Fraction only.

    A float would convert to its binary value (0.1 becomes
    3602879701896397/36028797018963968), so anything else raises TypeError.
    """
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient must be an int or a Fraction, got {type(c).__name__} {c!r}")
