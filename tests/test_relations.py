from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from eulersum import closedform as cf
from eulersum import (
    OracleConfig,
    PrecisionContext,
    Relation,
    eval_sym,
    even_order_relation,
    folded_relation,
    gen_product_relation,
    oracle_eval,
    reduction_relation,
    relations_for_weight,
    solve_weight,
    verify_sum_theorem,
)
from eulersum.relations import _combination, tabulated_sigma_values
from eulersum.sums import SumId
from eulersum.symexpr import LOG2, PI, SymExpr, lambda_sym, odd_zeta


def test_product_relation_2_2():
    r = gen_product_relation(2, 2)
    assert r.coeffs == {SumId.sigma(2, 2): F(1, 2), SumId.sigma(3, 1): F(1, 2)}
    assert r.rhs == lambda_sym(2) * lambda_sym(2)


def test_product_relation_symmetry():
    assert gen_product_relation(2, 5) == gen_product_relation(5, 2)
    assert gen_product_relation(3, 4) == gen_product_relation(4, 3)


def test_product_relation_drops_vanishing_binomials():
    # weight 7, (3,4): the sigma(2,5) coefficient is 2^5 [C(1,3)+C(1,2)] = 0
    r = gen_product_relation(3, 4)
    assert SumId.sigma(2, 5) not in r.coeffs
    assert set(r.coeffs) == {SumId.sigma(w - i, i) for w, i in [(7, 1), (7, 2), (7, 3), (7, 4)]}


def test_product_relation_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_product_relation(1, 5)


@pytest.mark.parametrize("bad", [0.5, 0.0, "1/2"])
def test_relation_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        Relation({SumId.sigma(2, 2): bad}, SymExpr.zero())


def test_reduction_relation_small_cases():
    r21 = reduction_relation(2, 1)
    assert r21.coeffs == {SumId.sigma(2, 1): F(-2)}
    assert r21.rhs == lambda_sym(3).scaled(-4)  # sigma(2,1) = 2 lambda(3) after folding

    r31 = reduction_relation(3, 1)
    assert r31.coeffs == {SumId.sigma(3, 1): F(-2), SumId.sigma(2, 2): F(-2)}
    assert r31.rhs == lambda_sym(4).scaled(-6)  # sigma(3,1)+sigma(2,2) = 3 lambda(4)


def test_reduction_relation_even_t_drops_self_term():
    r = reduction_relation(4, 2)
    assert SumId.sigma(4, 2) not in r.coeffs
    assert set(r.coeffs) == {SumId.sigma(3, 3), SumId.sigma(2, 4)}


def test_reduction_relation_degenerate_is_zero_identity():
    r = reduction_relation(2, 2)
    assert r.is_identity and r.rhs.is_zero


def test_reduction_solves_sigma_2_3():
    # eliminating with the (2, t) relation alone: -2 sigma(2,3) = rhs
    r = reduction_relation(2, 3)
    assert r.coeffs == {SumId.sigma(2, 3): F(-2)}
    assert r.rhs.scaled(F(-1, 2)) == cf.sigma_2_odd(2)


def test_even_order_relation_examples():
    assert even_order_relation(2, 1).is_identity
    assert even_order_relation(2, 1).rhs.is_zero
    r = even_order_relation(4, 1)
    assert r.coeffs == {SumId.sigma(3, 3): F(2), SumId.sigma(2, 4): F(6)}
    assert r.rhs == cf.sigma33_plus_3sigma24().scaled(2)


def test_even_order_matches_reduction_scaled():
    for s in range(2, 7):
        for r in range(1, 4):
            if s + 2 * r > 11:
                continue
            a = even_order_relation(s, r)
            b = reduction_relation(s, 2 * r)
            assert {k: -2 * v for k, v in a.coeffs.items()} == b.coeffs
            assert a.rhs.scaled(-2) == b.rhs


def test_folded_equals_even_order():
    for v in range(1, 4):
        for r in range(1, 4):
            assert folded_relation(1, v, r) == even_order_relation(2 * v, r), (1, v, r)
            assert folded_relation(2, v, r) == even_order_relation(2 * v + 1, r), (2, v, r)


def test_folded_v1_weight4_identity():
    r = folded_relation(1, 1, 1)
    assert r.is_identity and r.rhs.is_zero


def test_off_by_one_binomial_variant_is_refuted():
    # a last-block binomial of C(2v+2r-1, 2v-1) fails: at (v,r)=(1,2) it
    # differs from the correct C(2v+2r-2, 2v-1) form by exactly lambda(3)^2
    v, r = 1, 2
    derived = folded_relation(1, v, r)
    assert derived.is_identity and derived.rhs.is_zero
    c_wrong = F(2 ** (2 * v - 2)) * 5  # C(2v+2r-1, 2v-1) = C(5,1) = 5 instead of C(4,1) = 4
    wrong_last = SymExpr.zero()
    for j in range(1, r + v - 1):
        wrong_last = wrong_last - (lambda_sym(2 * j + 1) * lambda_sym(2 * v + 2 * r - 2 * j - 1)).scaled(c_wrong)
    correct_last = SymExpr.zero()
    for j in range(1, r + v - 1):
        correct_last = correct_last - (lambda_sym(2 * j + 1) * lambda_sym(2 * v + 2 * r - 2 * j - 1)).scaled(
            F(2 ** (2 * v - 2)) * 4
        )
    variant_rhs = derived.rhs - correct_last + wrong_last
    assert variant_rhs == (lambda_sym(3) * lambda_sym(3)).scaled(-1)


def test_relation_weight_consistency():
    for w in range(4, 11):
        for rel in relations_for_weight(w):
            if rel.is_identity:
                continue
            assert rel.weight == w
            assert rel.rhs.is_homogeneous(w)


def test_relation_rejects_mixed_weights():
    with pytest.raises(ValueError):
        Relation({SumId.sigma(2, 1): F(1), SumId.sigma(2, 2): F(1)}, SymExpr.zero())


@pytest.mark.parametrize("w", range(4, 9))
def test_relation_residuals(w, ctx, cfg):
    for i, rel in enumerate(relations_for_weight(w)):
        if rel.is_identity:
            assert rel.rhs.is_zero, (w, i)
            continue
        res = rel.residual(ctx, cfg)
        assert res <= 1e-8, (w, i, res)


def test_residual_within_combined_oracle_bounds(ctx, cfg):
    # sharper than the 1e-8 gate: the residual must sit inside the error
    # budget that the oracle bounds themselves imply
    from eulersum import BigReal

    for rel in (gen_product_relation(2, 4), gen_product_relation(3, 4), reduction_relation(3, 2)):
        acc = BigReal.zero(ctx)
        for sid, c in sorted(rel.coeffs.items()):
            res = oracle_eval(sid, cfg, ctx)
            acc = acc + res.value * c
        acc = acc - eval_sym(rel.rhs, ctx)
        assert abs(float(acc)) <= acc.err_float(), rel


TIGHT_CTX = PrecisionContext(working_bits=256)
TIGHT_CFG = OracleConfig(target_tolerance=1e-25)


@pytest.mark.parametrize("i", [5, 6, 7])
def test_weight10_residual_within_certified_error(i):
    # these residuals exceed 1e-25 although every sum in them is certified to
    # 1e-25: the relation's coefficients scale the oracle errors
    rel = relations_for_weight(10)[i]
    residual, bound = rel.residual_and_bound(TIGHT_CTX, TIGHT_CFG)
    assert residual <= bound, (i, residual, bound)
    assert residual == rel.residual(TIGHT_CTX, TIGHT_CFG)


def test_shifted_relation_exceeds_certified_error():
    rel = relations_for_weight(10)[5]
    _, bound = rel.residual_and_bound(TIGHT_CTX, TIGHT_CFG)
    shifted = Relation(rel.coeffs, rel.rhs + SymExpr.rational(F(10 * bound)))
    residual, shifted_bound = shifted.residual_and_bound(TIGHT_CTX, TIGHT_CFG)
    assert residual > shifted_bound, (residual, shifted_bound)


def test_sum_theorem_within_certified_error():
    rep = verify_sum_theorem(10, TIGHT_CTX, TIGHT_CFG)
    assert 0 < rep.numeric_bound < 1e-22
    assert rep.numeric_residual <= rep.numeric_bound


def test_solve_weight_7_exact(ctx, cfg):
    rep = solve_weight(7, with_residuals=False)
    assert rep.solved[SumId.sigma(4, 3)] == lambda_sym(7).scaled(120) - (lambda_sym(2) * lambda_sym(5)).scaled(96)
    assert rep.solved[SumId.sigma(3, 4)] == (
        lambda_sym(7).scaled(-80)
        + (lambda_sym(3) * lambda_sym(4)).scaled(8)
        + (lambda_sym(2) * lambda_sym(5)).scaled(F(176, 3))
    )
    assert not rep.unresolved and not rep.inconsistent
    # re-substitution: every weight-7 relation reduces to the zero SymExpr
    for rel in relations_for_weight(7):
        acc = SymExpr.zero()
        for sid, c in rel.coeffs.items():
            acc = acc + rep.solved[sid].scaled(c)
        assert acc - rel.rhs == SymExpr.zero()


def test_solve_weight_4(ctx):
    rep = solve_weight(4, with_residuals=False)
    assert rep.solved[SumId.sigma(2, 2)] == cf.sigma_special(2, 2)
    assert rep.solved[SumId.sigma(3, 1)] == cf.jordan_3()
    assert not rep.inconsistent


def test_solve_weight_6_partial(ctx):
    rep = solve_weight(6, with_residuals=False)
    assert not rep.inconsistent
    assert SumId.sigma(5, 1) in rep.unresolved  # J(5) has no elementary form
    assert rep.rank < len(rep.solved) + len(rep.unresolved) + 1


def test_solve_weight_9_report(ctx, cfg):
    rep = solve_weight(9, with_residuals=True, ctx=ctx, cfg=cfg)
    assert rep.rank <= rep.relations_used
    assert not rep.inconsistent
    for i, res in rep.residual_checks:
        assert res <= 1e-8, (i, res)
    # whatever got solved must match the oracle
    for sid, expr in rep.solved.items():
        diff = abs(float(eval_sym(expr, ctx) - oracle_eval(sid, cfg, ctx).value))
        assert diff <= 1e-8, (sid, diff)


def test_solver_flags_inconsistent_known_values():
    # a deliberately wrong closed form must surface as an inconsistent row,
    # not silently propagate
    def wrong_provider(sid):
        if sid == SumId.sigma(3, 1):
            return lambda_sym(4)  # wrong value
        return tabulated_sigma_values(sid)

    rep = solve_weight(4, known_providers=[wrong_provider], with_residuals=False)
    assert rep.inconsistent


def test_known_provider_precedence_keeps_exact_consistency():
    # paper values coexist with solver-derived ones; the identity rows reduce
    # to 0 = 0 exactly when both agree
    rep = solve_weight(7, with_residuals=False)
    assert rep.solved[SumId.sigma(2, 5)] == cf.sigma_2_odd(3)
    assert rep.solved[SumId.sigma(5, 2)] == cf.sigma_odd_2(3)
    assert rep.solved[SumId.sigma(6, 1)] == cf.jordan_even(3)


@pytest.mark.parametrize("w", range(3, 11))
def test_sum_theorem(w, ctx, cfg):
    rep = verify_sum_theorem(w, ctx, cfg)
    assert rep.numeric_residual <= 1e-8
    assert rep.symbolic_ok is True
    if w in (3, 4, 5, 7):
        assert rep.path == "closed-forms"
    if w == 6:
        assert rep.path == "relation-span"


def test_sum_theorem_rejects_small_weight(ctx, cfg):
    with pytest.raises(ValueError):
        verify_sum_theorem(2, ctx, cfg)


_MONOS = [(), ((LOG2, 1),), ((PI, 2),), ((PI, 2), (odd_zeta(3), 1)), ((odd_zeta(5), 1),)]
_coeff = st.integers(-6, 6) | st.builds(F, st.integers(-6, 6), st.integers(1, 6))
_expr = st.dictionaries(st.sampled_from(_MONOS), st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
                        min_size=1, max_size=4).map(SymExpr)
# each drawn pair, and with a flag also its negation, so that monomials cancel and come back
_parts = st.lists(st.tuples(_coeff, _expr, st.booleans()), max_size=6).map(
    lambda drawn: [p for c, e, cancel in drawn for p in ([(c, e), (-c, e)] if cancel else [(c, e)])])


@settings(max_examples=300, deadline=None)
@given(parts=_parts)
def test_combination_matches_the_sum_of_scaled_expressions(parts):
    got = _combination(*parts)
    want = SymExpr.zero()
    for c, e in parts:
        want = want + e.scaled(c)
    assert got == want
    assert all(type(c) is F and c for _, c in got.items())
    # the monomials in the order SymExpr addition leaves them
    assert [m for m, _ in got.items()] == [m for m, _ in want.items()]


def _rebuilt_relations(w):
    """relations_for_weight(w) written out from the formulas, with every
    lambda(a) lambda(b) product multiplied afresh and every id built anew."""
    lam = lambda_sym.__wrapped__
    rels = []
    for k in range(2, w // 2 + 1):
        l = w - k
        coeffs = {SumId("sigma", w - i, i): F(2**i * (comb(w - i - 1, l - 1) + comb(w - i - 1, k - 1)), 2**w)
                  for i in range(1, w - 1)}
        rels.append(Relation(coeffs, lam(k) * lam(l)))
    for t in range(1, w - 1):
        s = w - t
        coeffs = {SumId("sigma", s, t): F((-1) ** t - 1)}
        for i in range(1, s - 1):
            coeffs[SumId("sigma", s - i, t + i)] = F(-(2**i) * comb(t + i - 1, i))
        c_edge = comb(s + t - 2, s - 1)
        rhs = SymExpr.zero()
        for j in range(t - 1):
            rhs = rhs + (lam(s + j) * lam(t - j)).scaled((-1) ** (t + j) * 2**s * comb(s + j - 1, j))
        rhs = rhs - cf.closed_form_for(SumId("h", s + t - 1)).scaled(2 ** (s - 1) * c_edge)
        rhs = rhs - (lam(s + t - 1) * SymExpr.atom(LOG2)).scaled(2**s * c_edge)
        rels.append(Relation(coeffs, rhs))
    return rels


@pytest.mark.parametrize("w", range(3, 21))
def test_generated_relations_match_uncached_products_and_ids(w):
    assert relations_for_weight(w) == _rebuilt_relations(w)


def test_sigma_ids_are_shared_and_still_validated():
    assert SumId.sigma(3, 4) is SumId.sigma(3, 4)
    assert SumId.sigma(3, 4) == SumId("sigma", 3, 4)
    with pytest.raises(ValueError):
        SumId.sigma(1, 1)
    with pytest.raises(ValueError):
        SumId.sigma(2.0, 3)


@pytest.mark.parametrize("params", [(2, True), (True, 2), (2, 1.0)])
def test_sum_ids_refuse_parameters_that_are_not_integers(params):
    # sigma(2, True) used to equal sigma(2, 1) and print as sigma(2, True)
    with pytest.raises(ValueError, match="integers"):
        SumId("sigma", *params)


def test_closed_forms_and_relations_survive_pickle_and_deepcopy():
    import copy
    import pickle

    from eulersum.symexpr import Atom, zeta_sym

    rel = Relation({SumId.J(3): 2, SumId.sigma(2, 2): F(-1, 3)}, zeta_sym(3) + lambda_sym(3) * SymExpr.atom(LOG2))
    for x in (PI, odd_zeta(5), zeta_sym(5), rel.rhs, rel):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x
            assert x is rel or hash(y) == hash(x)
            # atoms are interned, so a copy of one is the atom itself
            assert y is x or not isinstance(x, Atom)
    again = pickle.loads(pickle.dumps(rel))
    assert again.residual(PrecisionContext(192)) == rel.residual(PrecisionContext(192))
