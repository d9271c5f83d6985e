"""Exact rational building blocks: harmonic-type numbers, Bernoulli numbers.

Everything here is a pure function returning `fractions.Fraction` (always stored
reduced, denominator > 0), which is the coefficient domain for the whole package.
Speed is secondary to exactness.  Harmonic numbers (per kind, in a bounded
lru_cache, _prefixes) and Bernoulli numbers are prefix lists (_prefix): a list
grown under one lock from a fresh generator of the entries after those kept,
read without the lock once an entry is there.  numerics and oracle keep their
tables as such lists too.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
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


# -- prefix lists -----------------------------------------------------------------
#
# A table whose entries of order K are those of order K - 1 and a few more is
# one list per shape, grown under _grow_lock; a bounded lru_cache holds each
# shape's (list, generator function), the function taking the kept entries
# last, so a build that an exception cut short resumes, and is not lost.

_grow_lock = threading.RLock()  # reentrant: growing one table may grow another


def _prefix(table: tuple, n: int) -> list:
    """The list of the prefix table (entries, entries_from), grown to at least n
    entries from entries_from(entries), a fresh generator of the entries after
    those kept (an exception in it reaches the caller, and the next read
    resumes); a caller reads only the entries it asked for."""
    entries, entries_from = table
    if len(entries) < n:
        with _grow_lock:
            source = entries_from(entries)
            while len(entries) < n:
                entries.append(next(source))
    return entries


def _harmonic_entries(kind: HarmonicKind, done):
    """v_k for k = len(done), len(done) + 1, ..., from v_(k-1), the last of done."""
    v, signed, odd = done[-1] if done else Fraction(0), kind.variant == "alternating", kind.variant == "semi"
    for k in count(len(done)):
        if k:
            v += Fraction(-1 if signed and not k % 2 else 1, (2 * k - 1 if odd else k) ** kind.order)
        yield v


@lru_cache(maxsize=64)
def _prefixes(kind: HarmonicKind) -> tuple:
    """v_0 = 0, v_1, ... of the kind, a prefix list (_prefix)."""
    return [], partial(_harmonic_entries, kind)


def harmonic(n: int, kind: HarmonicKind) -> Fraction:
    """n-th harmonic-type number of the given kind, exactly.

    harmonic(0, kind) == 0 for every kind.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not isinstance(kind, HarmonicKind):
        raise TypeError("kind must be a HarmonicKind")
    return _prefix(_prefixes(kind), n + 1)[n]


def _bernoulli_entries(done: list):
    """B_m for m = len(done), len(done) + 1, ..., each from done, the list of
    B_0 to B_(m-1) they are appended to."""
    for m in count(len(done)):
        yield (Fraction(1) if not m else Fraction(0) if m > 1 and m % 2
               else -sum(comb(m + 1, k) * done[k] for k in range(m)) / (m + 1))


_BERNOULLI = [], _bernoulli_entries  # a prefix list


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed from the defining recurrence sum_{k=0..n} C(n+1,k) B_k = 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _prefix(_BERNOULLI, n + 1)[n]


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
