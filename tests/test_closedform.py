from fractions import Fraction as F

import pytest

from eulersum import closedform as cf
from eulersum.sums import SumId
from eulersum.symexpr import LI4_HALF, LOG2, PI, SymExpr, lambda_sym, zeta_sym

LN2 = SymExpr.atom(LOG2)


# -- Euler star sums ----------------------------------------------------------


def test_euler_star_values():
    assert cf.euler_star(2) == zeta_sym(3).scaled(2)
    assert cf.euler_star(3) == zeta_sym(4).scaled(F(5, 4))  # collapses through pi^4
    assert cf.euler_star(4) == zeta_sym(5).scaled(3) - zeta_sym(2) * zeta_sym(3)


def test_alt_euler_star_values():
    assert cf.alt_euler_star(1) == zeta_sym(3).scaled(F(5, 8))
    assert cf.alt_euler_star(2) == zeta_sym(5).scaled(F(59, 32)) - (zeta_sym(2) * zeta_sym(3)).scaled(F(1, 2))
    # empty correction sum at a=1: single zeta monomial only
    assert len(cf.alt_euler_star(1).to_json()) == 1


# -- H_2n and H_(2n-1) families ------------------------------------------------


def test_h2n_sum_values():
    assert cf.h2n_sum(1) == zeta_sym(3).scaled(F(11, 4))
    assert cf.h2n_sum(2) == zeta_sym(5).scaled(F(37, 4)) - (zeta_sym(2) * zeta_sym(3)).scaled(4)


def test_h2n_sum_equals_jordan_plus_half_euler_star():
    for a in range(1, 6):
        assert cf.h2n_sum(a) == cf.jordan_even(a) + cf.euler_star(2 * a).scaled(F(1, 2))


def test_h_odd_over_odd_values():
    assert cf.h_odd_over_odd(1) == lambda_sym(3).scaled(F(3, 2))
    assert cf.h_odd_over_odd(1) == zeta_sym(3).scaled(F(21, 16))
    assert cf.h_odd_over_odd(2) == lambda_sym(5).scaled(F(5, 2)) - zeta_sym(3) * lambda_sym(2)


# -- Jordan sums ---------------------------------------------------------------


def test_jordan_even_examples():
    assert cf.jordan_even(1) == zeta_sym(3).scaled(F(7, 4))
    assert cf.jordan_even(2) == zeta_sym(5).scaled(F(31, 4)) - (zeta_sym(3) * zeta_sym(2)).scaled(F(7, 2))


def test_jordan_even_a3_lambda_form():
    assert cf.jordan_even(3) == (
        lambda_sym(7).scaled(32)
        - (lambda_sym(3) * zeta_sym(4)).scaled(4)
        - (lambda_sym(5) * zeta_sym(2)).scaled(16)
    )


def test_jordan_two_forms_identical():
    for a in range(1, 7):
        assert cf.jordan_even(a) == cf.jordan_even_zeta_form(a), a


def test_jordan_3():
    j3 = cf.jordan_3()
    assert j3.coefficient(((LI4_HALF, 1),)) == 8
    assert j3.homogeneous_weight() == 4
    assert j3 == (
        SymExpr.atom(LI4_HALF, 1, 8)
        - zeta_sym(4).scaled(F(53, 8))
        - (zeta_sym(2) * SymExpr.atom(LOG2, 2)).scaled(2)
        + SymExpr.atom(LOG2, 4, F(1, 3))
        + (zeta_sym(3) * LN2).scaled(7)
    )


def test_jordan_bar_even_examples():
    assert cf.jordan_bar_even(1) == (zeta_sym(2) * LN2).scaled(F(3, 4)) + zeta_sym(3).scaled(F(7, 16))
    assert cf.jordan_bar_even(2) == (
        (zeta_sym(4) * LN2).scaled(F(15, 16))
        + zeta_sym(5).scaled(F(31, 64))
        - (zeta_sym(2) * zeta_sym(3)).scaled(F(3, 32))
    )
    # void correction sum at a=1: exactly two monomials
    assert len(cf.jordan_bar_even(1).to_json()) == 2


def test_jordan_reflection_examples():
    assert cf.jordan_reflection(2) == lambda_sym(2) * LN2
    assert cf.jordan_reflection(3) == (zeta_sym(3) * LN2).scaled(F(7, 8)) + zeta_sym(4).scaled(F(15, 32))
    # b=4, consistent with Jbar(4) - J(4)/16
    assert cf.jordan_reflection(4) == (
        lambda_sym(4) * LN2 + (lambda_sym(3) * zeta_sym(2)).scaled(F(1, 4)) - (lambda_sym(2) * zeta_sym(3)).scaled(F(1, 8))
    )


def test_reflection_consistency_even():
    for a in range(1, 6):
        combo = cf.jordan_bar_even(a) - cf.jordan_even(a).scaled(F(1, 2 ** (2 * a)))
        assert combo == cf.jordan_reflection(2 * a), a


def test_reflection_consistency_b3():
    assert cf.jordan_bar_3() + cf.jordan_3().scaled(F(1, 8)) == cf.jordan_reflection(3)


def test_jordan_bar_3_coefficients():
    assert cf.jordan_bar_3().coefficient(((LI4_HALF, 1),)) == -1


# -- h sums ---------------------------------------------------------------------


def test_h_even_examples():
    assert cf.h_even(1) == SymExpr.atom(PI, 2, F(-1, 4)) * LN2 + lambda_sym(3).scaled(2)
    assert cf.h_even(2) == (
        SymExpr.atom(PI, 4, F(-1, 48)) * LN2 + lambda_sym(5).scaled(4) - SymExpr.atom(PI, 2, F(1, 4)) * lambda_sym(3)
    )


def test_h_odd_examples():
    # weight 4 case equals lambda(2)^2 - 2 lambda(3) log2 = pi^4/64 - 7/4 zeta(3) log2
    h3 = cf.h_odd(2)
    assert h3 == (lambda_sym(3) * LN2).scaled(-2) + lambda_sym(4).scaled(F(3, 2))
    assert h3 == lambda_sym(2) * lambda_sym(2) - (lambda_sym(3) * LN2).scaled(2)
    assert h3 == SymExpr.atom(PI, 4, F(1, 64)) - (zeta_sym(3) * LN2).scaled(F(7, 4))
    assert cf.h_odd(3) == (lambda_sym(5) * LN2).scaled(-2) + lambda_sym(6).scaled(F(5, 2)) - lambda_sym(3) * lambda_sym(3)
    assert cf.h_odd(4) == (lambda_sym(7) * LN2).scaled(-2) + lambda_sym(8).scaled(F(7, 2)) - (lambda_sym(3) * lambda_sym(5)).scaled(2)


def test_h_odd_variants_identical_on_shared_domains():
    for b in range(1, 4):
        assert cf.h_odd_first_variant(b) == cf.h_odd(2 * b), b
        assert cf.h_odd_second_variant(b) == cf.h_odd(2 * b + 1), b


def test_h9_includes_lambda5_squared():
    # a circulating variant omits -lambda(5)^2; the formula requires it
    with_term = (
        (lambda_sym(9) * LN2).scaled(-2)
        + lambda_sym(10).scaled(F(9, 2))
        - lambda_sym(5) * lambda_sym(5)
        - (lambda_sym(3) * lambda_sym(7)).scaled(2)
    )
    without_term = (
        (lambda_sym(9) * LN2).scaled(-2)
        + lambda_sym(10).scaled(F(9, 2))
        - (lambda_sym(3) * lambda_sym(7)).scaled(2)
    )
    assert cf.h_odd(5) == with_term
    assert cf.h_odd(5) != without_term


# -- alternating tilde sums ------------------------------------------------------


def test_alt_tilde_sum_values():
    assert cf.alt_tilde_sum(1) == LN2 * zeta_sym(2) - zeta_sym(3).scaled(F(5, 8))
    # formula value at a=2; the sign-flipped variant is wrong
    formula = LN2 * zeta_sym(4) - zeta_sym(5).scaled(F(59, 32)) + (zeta_sym(3) * zeta_sym(2)).scaled(F(3, 4))
    sign_flipped = LN2 * zeta_sym(4) - zeta_sym(5).scaled(F(59, 32)) - (zeta_sym(3) * zeta_sym(2)).scaled(F(3, 4))
    assert cf.alt_tilde_sum(2) == formula
    assert cf.alt_tilde_sum(2) != sign_flipped


# -- sigma families ----------------------------------------------------------------


def test_sigma_2_odd_values():
    assert cf.sigma_2_odd(1) == lambda_sym(3).scaled(2) == zeta_sym(3).scaled(F(7, 4))
    assert cf.sigma_2_odd(2) == lambda_sym(5).scaled(12) - (lambda_sym(2) * lambda_sym(3)).scaled(8)
    assert cf.sigma_2_odd(2) == zeta_sym(5).scaled(F(93, 8)) - (zeta_sym(2) * zeta_sym(3)).scaled(F(21, 4))
    assert cf.sigma_2_odd(3) == (
        lambda_sym(7).scaled(30) - (lambda_sym(4) * lambda_sym(3)).scaled(8) - (lambda_sym(5) * lambda_sym(2)).scaled(16)
    )


def test_sigma_odd_2_values():
    assert cf.sigma_odd_2(2) == lambda_sym(5).scaled(-16) + (lambda_sym(2) * lambda_sym(3)).scaled(F(40, 3))
    assert cf.sigma_odd_2(2) == zeta_sym(5).scaled(F(-31, 2)) + (zeta_sym(2) * zeta_sym(3)).scaled(F(35, 4))
    assert cf.sigma_odd_2(3) == (
        lambda_sym(7).scaled(-96)
        + (lambda_sym(2) * lambda_sym(5)).scaled(F(224, 3))
        + (lambda_sym(3) * zeta_sym(4)).scaled(4)
    )


def test_zeta_star_odd_2_values():
    assert cf.zeta_star_odd_2(2) == zeta_sym(5).scaled(F(-9, 2)) + (zeta_sym(2) * zeta_sym(3)).scaled(3)
    assert cf.zeta_star_odd_2(3) == (
        zeta_sym(7).scaled(-10) + (zeta_sym(2) * zeta_sym(5)).scaled(5) + (zeta_sym(3) * zeta_sym(4)).scaled(2)
    )


def test_e_2_odd_value_and_triangle():
    assert cf.e_2_odd(2) == (zeta_sym(2) * zeta_sym(3)).scaled(F(19, 2)) - zeta_sym(5).scaled(F(133, 8))
    for a in range(2, 6):
        assert cf.sigma_odd_2(a) + cf.zeta_star_odd_2(a).scaled(F(1, 4)) == cf.e_2_odd(a), a


def test_sigma_even_3_values():
    assert cf.sigma_even_3(3) == lambda_sym(7).scaled(120) - (zeta_sym(2) * lambda_sym(5)).scaled(72)
    assert cf.sigma_even_3(3) == lambda_sym(7).scaled(120) - (lambda_sym(2) * lambda_sym(5)).scaled(96)
    assert cf.sigma_even_3(4) == (
        lambda_sym(9).scaled(896)
        - (zeta_sym(2) * lambda_sym(7)).scaled(528)
        - (zeta_sym(4) * lambda_sym(5)).scaled(24)
    )


def test_sigma_even_3_rejects_a2():
    with pytest.raises(ValueError):
        cf.sigma_even_3(2)


def test_sigma_special_values():
    assert cf.sigma_special(3, 1) == cf.jordan_3()
    assert cf.sigma_special(3, 2) == cf.sigma_odd_2(2)
    assert cf.sigma_special(4, 3) == cf.sigma_even_3(3)
    assert cf.jordan_3() + cf.sigma_special(2, 2) == lambda_sym(4).scaled(3)
    assert lambda_sym(4).scaled(3) == zeta_sym(4).scaled(F(45, 16))
    assert cf.sigma_special(3, 4) == (
        lambda_sym(7).scaled(-80)
        + (lambda_sym(3) * lambda_sym(4)).scaled(8)
        + (lambda_sym(2) * lambda_sym(5)).scaled(F(176, 3))
    )
    with pytest.raises(ValueError):
        cf.sigma_special(4, 4)


def test_weighted_sigma_sum_consistency():
    # equals the route -J(2a) + 2^(2a-2) h_2a + 2^(2a-1) lambda(2a) log2 exactly
    for a in range(2, 6):
        alt = (
            -cf.jordan_even(a)
            + cf.h_even(a).scaled(2 ** (2 * a - 2))
            + (lambda_sym(2 * a) * LN2).scaled(2 ** (2 * a - 1))
        )
        assert cf.weighted_sigma_sum(a) == alt, a


def test_sigma33_relation_value():
    v = cf.sigma33_plus_3sigma24()
    assert v == lambda_sym(6).scaled(15) - (lambda_sym(3) * lambda_sym(3)).scaled(8)
    assert v.homogeneous_weight() == 6


def test_sigma_weight_sum():
    assert cf.sigma_weight_sum(3) == lambda_sym(3).scaled(2)
    assert cf.sigma_weight_sum(4) == zeta_sym(4).scaled(F(45, 16))
    assert cf.sigma_weight_sum(7) == lambda_sym(7).scaled(6)
    with pytest.raises(ValueError):
        cf.sigma_weight_sum(2)


# -- weight homogeneity over every in-range parameter to weight 13 ---------------


def test_weight_homogeneity_sweep():
    for sid in cf.known_closed_form_ids(13):
        expr = cf.closed_form_for(sid)
        assert expr.is_homogeneous(sid.weight), sid
        assert expr.homogeneous_weight() == sid.weight, sid
    for b in range(2, 13):
        assert cf.jordan_reflection(b).homogeneous_weight() == b + 1
    for a in range(2, 7):
        assert cf.weighted_sigma_sum(a).homogeneous_weight() == 2 * a + 1
    for w in range(3, 14):
        assert cf.sigma_weight_sum(w).homogeneous_weight() == w


# -- precondition checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "fn,bad",
    [
        (cf.euler_star, 1),
        (cf.alt_euler_star, 0),
        (cf.h2n_sum, 0),
        (cf.h_odd_over_odd, 0),
        (cf.jordan_even, 0),
        (cf.jordan_bar_even, 0),
        (cf.jordan_reflection, 1),
        (cf.h_even, 0),
        (cf.h_odd, 1),
        (cf.sigma_2_odd, 0),
        (cf.sigma_odd_2, 1),
        (cf.zeta_star_odd_2, 1),
        (cf.e_2_odd, 1),
        (cf.sigma_even_3, 2),
        (cf.weighted_sigma_sum, 1),
        (cf.h_sum, 1),
    ],
)
def test_preconditions(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


# -- dispatcher --------------------------------------------------------------------


def test_closed_form_dispatch():
    assert cf.closed_form_for(SumId.J(4)) == cf.jordan_even(2)
    assert cf.closed_form_for(SumId.J(3)) == cf.jordan_3()
    assert cf.closed_form_for(SumId.J(5)) is None
    assert cf.closed_form_for(SumId.Jbar(3)) == cf.jordan_bar_3()
    assert cf.closed_form_for(SumId.sigma(2, 1)) == cf.jordan_even(1)
    assert cf.closed_form_for(SumId.sigma(3, 1)) == cf.jordan_3()
    assert cf.closed_form_for(SumId.sigma(2, 5)) == cf.sigma_2_odd(3)
    assert cf.closed_form_for(SumId.sigma(5, 2)) == cf.sigma_odd_2(3)
    assert cf.closed_form_for(SumId.sigma(6, 3)) == cf.sigma_even_3(4)
    assert cf.closed_form_for(SumId.sigma(2, 2)) == cf.sigma_special(2, 2)
    assert cf.closed_form_for(SumId.sigma(4, 4)) is None
    assert cf.closed_form_for(SumId.h(6)) == cf.h_even(3)
    assert cf.closed_form_for(SumId.h(7)) == cf.h_odd(4)
    assert cf.closed_form_for(SumId.zeta_star(4, 1)) == cf.euler_star(4)
    assert cf.closed_form_for(SumId.zeta_star(5, 2)) == cf.zeta_star_odd_2(3)
    assert cf.closed_form_for(SumId.zeta_star(4, 2)) is None
    assert cf.closed_form_for(SumId.E(2, 5)) == cf.e_2_odd(3)
    assert cf.closed_form_for(SumId.E(1, 4)) == cf.h2n_sum(2)
    assert cf.closed_form_for(SumId.E(3, 4)) is None


def test_known_closed_form_ids_cover_expected_weights():
    ids = cf.known_closed_form_ids(11)
    assert SumId.J(10) in ids and SumId.sigma(2, 9) in ids and SumId.E(2, 9) in ids
    assert all(sid.weight <= 11 for sid in ids)
    assert all(cf.closed_form_for(sid) is not None for sid in ids)
    assert len(ids) == len(set(ids))


def test_known_closed_form_ids_reach_the_top_weight():
    assert SumId.sigma(10, 1) in cf.known_closed_form_ids(11)
    ids = cf.known_closed_form_ids(13)
    assert len(ids) == 110
    assert [sid.weight for sid in ids] == sorted(sid.weight for sid in ids)
