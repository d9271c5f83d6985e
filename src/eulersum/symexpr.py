"""Symbolic linear combinations over the constant basis {pi, log2, li4(1/2), zeta(odd)}.

Every closed form in the package is a SymExpr: a finite rational-linear
combination of monomials in those atoms.  Even zeta values never appear as
atoms; ``zeta_sym`` eliminates them at the source via Bernoulli numbers, so
identities such as lambda(2)^2 = pi^4/64 hold as *structural* equalities of
normal forms, not numeric coincidences.

Equality of SymExpr is equality of normal forms.  The atoms are treated as
algebraically independent (the standard conjecture); numerical evaluation in
``numerics`` is the safety net.

The public constructors normalise their input and accept only exact
coefficients (int or Fraction).  The ring operations build their results in
normal form directly, without a second normalising pass.  A SymExpr never
changes after it is built, so ``zeta_sym``, ``lambda_sym`` and ``eta_sym``
keep their values in bounded caches and hand the same object to every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Optional, Union

from . import exact

__all__ = [
    "Atom",
    "PI",
    "LOG2",
    "LI4_HALF",
    "odd_zeta",
    "SymExpr",
    "zeta_sym",
    "lambda_sym",
    "eta_sym",
]

Rat = Union[Fraction, int]

_ATOM_RANK = {"pi": 0, "log2": 1, "li4half": 2, "zeta": 3}


# the one Atom per (kind, arg); never evicted, since two atoms of one (kind,
# arg) would compare unequal.  It holds the atoms a process names, a few dozen.
_ATOMS: dict[tuple[str, int], "Atom"] = {}


class Atom:
    """One basis constant: pi, log2, li4half, or zeta(s) with odd s >= 3.

    Atoms are interned: Atom(kind, arg) returns the one atom of that (kind,
    arg), so atoms compare and hash by identity.
    """

    __slots__ = ("kind", "arg")

    def __new__(cls, kind: str, arg: int = 0):
        if type(arg) is not int:
            raise ValueError(f"atom argument must be an integer, got {arg!r}")
        atom = _ATOMS.get((kind, arg))
        if atom is not None:
            return atom
        if kind not in _ATOM_RANK:
            raise ValueError(f"unknown atom kind {kind!r}")
        if kind == "zeta":
            if arg < 3 or arg % 2 == 0:
                raise ValueError(f"zeta atom needs odd argument >= 3, got {arg}")
        elif arg != 0:
            raise ValueError(f"{kind} atom takes no argument")
        atom = object.__new__(cls)
        object.__setattr__(atom, "kind", kind)
        object.__setattr__(atom, "arg", arg)
        return _ATOMS.setdefault((kind, arg), atom)

    def __setattr__(self, *a):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so they return the interned atom
        return Atom, (self.kind, self.arg)

    @property
    def weight(self) -> int:
        if self.kind == "zeta":
            return self.arg
        return 4 if self.kind == "li4half" else 1

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_ATOM_RANK[self.kind], self.arg)

    @property
    def name(self) -> str:
        return f"zeta({self.arg})" if self.kind == "zeta" else self.kind

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Atom({self.name})"


PI = Atom("pi")
LOG2 = Atom("log2")
LI4_HALF = Atom("li4half")


def odd_zeta(s: int) -> Atom:
    return Atom("zeta", s)


# A monomial is a tuple of (atom, positive exponent) pairs, atom-sorted;
# the empty tuple is the constant 1.
Monomial = tuple[tuple[Atom, int], ...]


def _monomial_weight(mono: Monomial) -> int:
    return sum(atom.weight * e for atom, e in mono)


# the monomials of one run number in the hundreds
@lru_cache(maxsize=4096)
def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[Atom, int] = dict(a)
    for atom, e in b:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items(), key=lambda it: it[0].sort_key))


def _add_into(acc: dict[Monomial, Fraction], items) -> dict[Monomial, Fraction]:
    """Add the (monomial, non-zero coefficient) pairs into acc, dropping sums that cancel."""
    for mono, c in items:
        s = acc.get(mono)
        if s is None:
            acc[mono] = c
        else:
            s += c
            if s:
                acc[mono] = s
            else:
                del acc[mono]
    return acc


class SymExpr:
    """Normalized rational-linear combination of monomials (zero coeffs dropped)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[Monomial, Rat]] = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = exact.as_fraction(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "_terms", clean)

    @staticmethod
    def _of(terms: dict[Monomial, Fraction]) -> "SymExpr":
        """Trusted constructor: terms is already normal (every value a non-zero
        Fraction) and is kept, not copied, so the caller must not change it."""
        e = object.__new__(SymExpr)
        object.__setattr__(e, "_terms", terms)
        return e

    def __setattr__(self, *a):
        raise AttributeError("SymExpr is immutable")

    def __reduce__(self):
        return SymExpr, (self._terms,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymExpr":
        return SymExpr._of({})

    @staticmethod
    def rational(c: Rat) -> "SymExpr":
        return SymExpr({(): c})

    @staticmethod
    def atom(a: Atom, exp: int = 1, coeff: Rat = 1) -> "SymExpr":
        if exp < 1:
            raise ValueError("exponent must be >= 1")
        return SymExpr({((a, exp),): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        if not isinstance(other, SymExpr):
            return NotImplemented
        return SymExpr._of(_add_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        if not isinstance(other, SymExpr):
            return NotImplemented
        return SymExpr._of(_add_into(dict(self._terms), ((m, -c) for m, c in other._terms.items())))

    def __neg__(self) -> "SymExpr":
        return SymExpr._of({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymExpr):
            return SymExpr._of(_add_into({}, (
                (_mul_monomials(ma, mb), ca * cb)
                for ma, ca in self._terms.items()
                for mb, cb in other._terms.items()
            )))
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def scaled(self, c: Rat) -> "SymExpr":
        c = exact.as_fraction(c)
        if not c:
            return SymExpr._of({})
        return SymExpr._of({m: c * v for m, v in self._terms.items()})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda it: _mono_sort_key(it[0]))

    def items(self) -> Iterable[tuple[Monomial, Fraction]]:
        """The (monomial, coefficient) pairs in no fixed order; terms() sorts them."""
        return self._terms.items()

    def atoms(self) -> set[Atom]:
        return {a for mono in self._terms for a, _ in mono}

    def homogeneous_weight(self) -> Optional[int]:
        """Common weight of all monomials, or None (mixed weights or zero)."""
        weights = {_monomial_weight(m) for m in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def is_homogeneous(self, w: int) -> bool:
        """True when every monomial has weight w; vacuously true for zero."""
        return all(_monomial_weight(m) == w for m in self._terms)

    def __eq__(self, other):
        return isinstance(other, SymExpr) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Canonical serialization: sorted [{"atoms": [[name, exp], ...], "coeff": "p/q"}]."""
        out = []
        for mono, coeff in self.terms():
            out.append(
                {
                    "atoms": [[a.name, e] for a, e in mono],
                    "coeff": str(coeff),
                }
            )
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.terms()):
            body = "*".join(a.name if e == 1 else f"{a.name}^{e}" for a, e in mono)
            mag = abs(coeff)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            if i == 0:
                parts.append(chunk if coeff > 0 else f"-{chunk}")
            else:
                parts.append(f"+ {chunk}" if coeff > 0 else f"- {chunk}")
        return " ".join(parts)

    def __repr__(self):
        return f"SymExpr({self})"


def _mono_sort_key(mono: Monomial):
    return tuple((a.sort_key, e) for a, e in mono)


# -- the zeta/lambda/eta family ---------------------------------------------


# one entry per s in each of the zeta/lambda/eta caches
@lru_cache(maxsize=256)
def zeta_sym(s: int) -> SymExpr:
    """zeta(s) over the basis: the odd atom itself, or a rational multiple of pi^s.

    Even case uses zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!).
    """
    if s < 2:
        raise ValueError(f"zeta_sym needs s >= 2, got {s}")
    if s % 2 == 1:
        return SymExpr.atom(odd_zeta(s))
    n = s // 2
    coeff = Fraction((-1) ** (n + 1)) * exact.bernoulli(2 * n) * Fraction(2 ** (2 * n - 1), factorial(2 * n))
    return SymExpr.atom(PI, s, coeff)


@lru_cache(maxsize=256)
def lambda_sym(s: int) -> SymExpr:
    """Sum over odd integers (2n-1)^(-s) = (1 - 2^-s) zeta(s)."""
    if s < 2:
        raise ValueError(f"lambda_sym needs s >= 2, got {s}")
    return zeta_sym(s).scaled(1 - Fraction(1, 2**s))


@lru_cache(maxsize=256)
def eta_sym(s: int) -> SymExpr:
    """Alternating zeta sum (-1)^(n-1) n^(-s) = (1 - 2^(1-s)) zeta(s)."""
    if s < 2:
        raise ValueError(f"eta_sym needs s >= 2, got {s}")
    return zeta_sym(s).scaled(1 - Fraction(2, 2**s))
