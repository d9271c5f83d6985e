import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulersum.closedform import closed_form_for, known_closed_form_ids
from eulersum.symexpr import (
    LI4_HALF,
    LOG2,
    PI,
    Atom,
    SymExpr,
    eta_sym,
    lambda_sym,
    odd_zeta,
    zeta_sym,
)


def test_atom_validation():
    with pytest.raises(ValueError):
        odd_zeta(2)
    with pytest.raises(ValueError):
        odd_zeta(1)
    with pytest.raises(ValueError):
        Atom("nope")


def test_atoms_are_interned():
    import copy
    import pickle

    from eulersum import symexpr

    assert Atom("zeta", 5) is odd_zeta(5)
    assert Atom("pi") is PI
    for x in (odd_zeta(5), PI):
        assert pickle.loads(pickle.dumps(x)) is x and copy.copy(x) is x and copy.deepcopy(x) is x
    ((mono, _),) = (zeta_sym(5) * lambda_sym(2)).items()
    assert copy.copy(mono) is mono and copy.deepcopy(mono) is mono
    again = pickle.loads(pickle.dumps(mono))
    assert again == mono and all(b is a for (a, _), (b, _) in zip(mono, again))
    before = set(symexpr._ATOMS)
    for kind, arg in (("nope", 0), ("zeta", 4), ("pi", 1), ("zeta", 5.0), ("pi", False)):
        with pytest.raises(ValueError):
            Atom(kind, arg)
    assert set(symexpr._ATOMS) == before
    n = len(symexpr._ATOMS)
    assert all(odd_zeta(7) is odd_zeta(7) for _ in range(1000))
    assert len(symexpr._ATOMS) <= n + 1


def test_atom_canonical_order():
    atoms = [odd_zeta(5), LI4_HALF, odd_zeta(3), LOG2, PI]
    assert sorted(atoms) == [PI, LOG2, LI4_HALF, odd_zeta(3), odd_zeta(5)]


def test_zeta_sym_values():
    assert zeta_sym(3) == SymExpr.atom(odd_zeta(3))
    assert zeta_sym(2) == SymExpr.atom(PI, 2, Fraction(1, 6))
    assert zeta_sym(4) == SymExpr.atom(PI, 4, Fraction(1, 90))
    assert zeta_sym(6) == SymExpr.atom(PI, 6, Fraction(1, 945))
    with pytest.raises(ValueError):
        zeta_sym(1)


def test_lambda_sym_values():
    assert lambda_sym(3) == zeta_sym(3).scaled(Fraction(7, 8))
    assert lambda_sym(2) == SymExpr.atom(PI, 2, Fraction(1, 8))
    assert lambda_sym(4) == SymExpr.atom(PI, 4, Fraction(1, 96))
    with pytest.raises(ValueError):
        lambda_sym(1)


def test_eta_sym_values():
    assert eta_sym(3) == zeta_sym(3).scaled(Fraction(3, 4))
    assert eta_sym(2) == SymExpr.atom(PI, 2, Fraction(1, 12))
    assert eta_sym(5) == zeta_sym(5).scaled(Fraction(15, 16))
    with pytest.raises(ValueError):
        eta_sym(0)


def test_no_even_zeta_atoms_anywhere():
    exprs = [zeta_sym(s) for s in range(2, 14)]
    exprs += [lambda_sym(s) * eta_sym(t) for s in range(2, 8) for t in range(2, 8)]
    for e in exprs:
        for a in e.atoms():
            assert a.kind != "zeta" or a.arg % 2 == 1


def test_additive_inverse_gives_zero():
    e = lambda_sym(3).scaled(2) + lambda_sym(3).scaled(-2)
    assert e.is_zero
    assert e == SymExpr.zero()


def test_lambda2_squared_is_pi4_over_64():
    assert lambda_sym(2) * lambda_sym(2) == SymExpr.atom(PI, 4, Fraction(1, 64))


def test_scale_example():
    assert zeta_sym(3).scaled(Fraction(7, 4)) == SymExpr.atom(odd_zeta(3), 1, Fraction(7, 4))


def test_homogeneous_weight_examples():
    assert zeta_sym(3).scaled(Fraction(7, 4)).homogeneous_weight() == 3
    jbar4 = (
        (zeta_sym(4) * SymExpr.atom(LOG2)).scaled(Fraction(15, 16))
        + zeta_sym(5).scaled(Fraction(31, 64))
        - (zeta_sym(2) * zeta_sym(3)).scaled(Fraction(3, 32))
    )
    assert jbar4.homogeneous_weight() == 5
    assert (zeta_sym(3) + SymExpr.atom(PI, 2)).homogeneous_weight() is None


def test_zero_expr_is_vacuously_homogeneous():
    z = SymExpr.zero()
    assert z.homogeneous_weight() is None
    for w in (0, 3, 7, 13):
        assert z.is_homogeneous(w)


def test_weight_of_product_adds():
    a = lambda_sym(3) * SymExpr.atom(LOG2)  # weight 4
    b = zeta_sym(5)
    assert (a * b).homogeneous_weight() == 9


def _random_expr(rng) -> SymExpr:
    out = SymExpr.zero()
    for _ in range(rng.randrange(0, 4)):
        coeff = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        mono = SymExpr.rational(coeff)
        for _ in range(rng.randrange(0, 3)):
            atom = rng.choice([PI, LOG2, LI4_HALF, odd_zeta(3), odd_zeta(5)])
            mono = mono * SymExpr.atom(atom, rng.randrange(1, 3))
        out = out + mono
    return out


def test_ring_axioms_randomized():
    rng = random.Random(20240809)
    for _ in range(60):
        a, b, c = (_random_expr(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        r = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        assert (a + b).scaled(r) == a.scaled(r) + b.scaled(r)
        assert a + SymExpr.zero() == a
        assert a * SymExpr.rational(1) == a


def test_normalization_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        a = _random_expr(rng)
        again = SymExpr(dict(a.terms()))
        assert again == a
        assert SymExpr(dict(again.terms())) == again


def test_lambda_convolution_identity():
    # sum_{j=1..n-1} lambda(2j) lambda(2n-2j) = (n - 1/2) lambda(2n), n = 2..10
    for n in range(2, 11):
        lhs = SymExpr.zero()
        for j in range(1, n):
            lhs = lhs + lambda_sym(2 * j) * lambda_sym(2 * n - 2 * j)
        assert lhs == lambda_sym(2 * n).scaled(Fraction(2 * n - 1, 2)), n


GOLDEN_JBAR4 = [
    {"atoms": [["pi", 2], ["zeta(3)", 1]], "coeff": "-1/64"},
    {"atoms": [["pi", 4], ["log2", 1]], "coeff": "1/96"},
    {"atoms": [["zeta(5)", 1]], "coeff": "31/64"},
]

GOLDEN_J3 = [
    {"atoms": [["pi", 2], ["log2", 2]], "coeff": "-1/3"},
    {"atoms": [["pi", 4]], "coeff": "-53/720"},
    {"atoms": [["log2", 1], ["zeta(3)", 1]], "coeff": "7"},
    {"atoms": [["log2", 4]], "coeff": "1/3"},
    {"atoms": [["li4half", 1]], "coeff": "8"},
]


def test_json_golden_fixtures():
    from eulersum.closedform import jordan_3, jordan_bar_even

    assert jordan_bar_even(2).to_json() == GOLDEN_JBAR4
    assert jordan_3().to_json() == GOLDEN_J3


def test_str_rendering():
    assert str(SymExpr.zero()) == "0"
    assert str(zeta_sym(3).scaled(Fraction(7, 4))) == "7/4*zeta(3)"
    assert str(lambda_sym(2) - lambda_sym(2)) == "0"
    assert str(SymExpr.atom(PI, 2, -1) + zeta_sym(3)) == "-pi^2 + zeta(3)"


@pytest.mark.parametrize("bad", [0.5, 0.1, 0.0, Decimal("0.5"), "1/2", None])
@pytest.mark.parametrize("entry", ["constructor", "atom", "rational", "scaled"])
def test_inexact_coefficients_are_rejected(entry, bad):
    build = {
        "constructor": lambda: SymExpr({((PI, 2),): bad}),
        "atom": lambda: SymExpr.atom(PI, 2, bad),
        "rational": lambda: SymExpr.rational(bad),
        "scaled": lambda: zeta_sym(3).scaled(bad),
    }[entry]
    with pytest.raises(TypeError):
        build()


# -- the fast ring against plain Fraction dict arithmetic ----------------------

_ATOMS = [PI, LOG2, LI4_HALF, odd_zeta(3), odd_zeta(5)]
# few monomials and coefficients, so that sums and products often cancel
_monomials = st.lists(st.tuples(st.sampled_from(_ATOMS), st.integers(1, 2)), max_size=2).map(
    lambda pairs: tuple(sorted(dict(pairs).items(), key=lambda it: it[0].sort_key))
)
_coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_exprs = st.dictionaries(_monomials, _coeffs, max_size=5).map(SymExpr)


def _ref_mono_mul(a, b):
    exps = Counter(dict(a))
    exps.update(dict(b))
    return tuple(sorted(exps.items(), key=lambda it: it[0].sort_key))


def _ref_add(a, b, sign=1):
    out = dict(a.terms())
    for m, c in b.terms():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return SymExpr(out)


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            m = _ref_mono_mul(ma, mb)
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return SymExpr(out)


def _is_normal(e):
    return all(type(c) is Fraction and c != 0 for _, c in e.terms())


@settings(max_examples=300, deadline=None)
@given(a=_exprs, b=_exprs, r=_coeffs)
def test_ring_operations_match_fraction_dict_reference(a, b, r):
    cases = [
        (a + b, _ref_add(a, b)),
        (a - b, _ref_add(a, b, -1)),
        (a * b, _ref_mul(a, b)),
        (a.scaled(r), SymExpr({m: r * c for m, c in a.terms()})),
        (a * r, SymExpr({m: r * c for m, c in a.terms()})),
        (-a, SymExpr({m: -c for m, c in a.terms()})),
    ]
    for got, want in cases:
        assert got == want
        assert _is_normal(got)
    assert (a - a).is_zero and a - a == SymExpr.zero()
    assert (a.scaled(0)).is_zero
    assert hash(a + b) == hash(b + a) and hash(a * b) == hash(b * a)
    assert hash(a) == hash(SymExpr(dict(a.terms())))


_CACHED_IDS = known_closed_form_ids(8)


@settings(max_examples=100, deadline=None)
@given(s=st.integers(2, 12), idx=st.integers(0, len(_CACHED_IDS) - 1), b=_exprs, r=_coeffs)
def test_memoized_values_are_never_changed(s, idx, b, r):
    sid = _CACHED_IDS[idx]
    for cached, fresh in (
        (lambda: zeta_sym(s), lambda: zeta_sym.__wrapped__(s)),
        (lambda: lambda_sym(s), lambda: lambda_sym.__wrapped__(s)),
        (lambda: eta_sym(s), lambda: eta_sym.__wrapped__(s)),
        (lambda: closed_form_for(sid), lambda: closed_form_for.__wrapped__(sid)),
    ):
        x = cached()
        assert cached() is x
        _ = (x + b, x - b, b - x, x * b, b * x, x.scaled(r), -x, x + x, x - x)
        assert x == fresh() and cached() == fresh()
