"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s or in captured output).
Tolerances are pinned here: exact structural equality where stated, 1e-8 for
oracle agreement at 192 working bits, oracle calls capped at 10^7 terms.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from eulersum import closedform as cf
from eulersum import (
    OracleConfig,
    PrecisionContext,
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
from eulersum.sums import SumId
from eulersum.symexpr import LI4_HALF, LOG2, PI, SymExpr, lambda_sym, zeta_sym

CTX = PrecisionContext(working_bits=192)
CFG = OracleConfig(target_tolerance=1e-10, max_terms=10**7)
TOL = 1e-8
LN2 = SymExpr.atom(LOG2)


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {n} PASS: {title}")


def test_criterion_1_symbolic_golden_table():
    with criterion(1, "symbolic golden table reproduced exactly (zero tolerance)"):
        z, lam = zeta_sym, lambda_sym
        # Jordan sums
        assert cf.jordan_even(1) == z(3).scaled(F(7, 4))
        assert cf.jordan_even(2) == z(5).scaled(F(31, 4)) - (z(3) * z(2)).scaled(F(7, 2))
        # Jbar examples
        assert cf.jordan_bar_even(1) == (z(2) * LN2).scaled(F(3, 4)) + z(3).scaled(F(7, 16))
        assert cf.jordan_bar_even(2) == (
            (z(4) * LN2).scaled(F(15, 16)) + z(5).scaled(F(31, 64)) - (z(2) * z(3)).scaled(F(3, 32))
        )
        # alternating Euler star examples
        assert cf.alt_euler_star(1) == z(3).scaled(F(5, 8))
        assert cf.alt_euler_star(2) == z(5).scaled(F(59, 32)) - (z(2) * z(3)).scaled(F(1, 2))
        # h values at even exponents
        assert cf.h_even(1) == SymExpr.atom(PI, 2, F(-1, 4)) * LN2 + lam(3).scaled(2)
        assert cf.h_even(2) == (
            SymExpr.atom(PI, 4, F(-1, 48)) * LN2 + lam(5).scaled(4) - SymExpr.atom(PI, 2, F(1, 4)) * lam(3)
        )
        # h values at odd exponents
        assert cf.h_odd(2) == (lam(3) * LN2).scaled(-2) + lam(4).scaled(F(3, 2))
        assert cf.h_odd(4) == (lam(7) * LN2).scaled(-2) + lam(8).scaled(F(7, 2)) - (lam(3) * lam(5)).scaled(2)
        assert cf.h_odd(3) == (lam(5) * LN2).scaled(-2) + lam(6).scaled(F(5, 2)) - lam(3) * lam(3)
        # the weight-4 h value in its pi-form
        assert cf.h_odd(2) == SymExpr.atom(PI, 4, F(1, 64)) - (z(3) * LN2).scaled(F(7, 4))
        assert cf.h_odd(2) == lam(2) * lam(2) - (lam(3) * LN2).scaled(2)
        # sigma examples
        assert cf.sigma_2_odd(1) == lam(3).scaled(2)
        assert cf.sigma_2_odd(2) == lam(5).scaled(12) - (lam(2) * lam(3)).scaled(8)
        assert cf.sigma_2_odd(3) == lam(7).scaled(30) - (lam(4) * lam(3)).scaled(8) - (lam(5) * lam(2)).scaled(16)
        assert cf.sigma_odd_2(2) == lam(5).scaled(-16) + (lam(2) * lam(3)).scaled(F(40, 3))
        assert cf.sigma_odd_2(3) == (
            lam(7).scaled(-96) + (lam(2) * lam(5)).scaled(F(224, 3)) + (lam(3) * z(4)).scaled(4)
        )
        # weight-7 solved values
        assert cf.sigma_special(4, 3) == lam(7).scaled(120) - (lam(2) * lam(5)).scaled(96)
        assert cf.sigma_special(3, 4) == (
            lam(7).scaled(-80) + (lam(3) * lam(4)).scaled(8) + (lam(2) * lam(5)).scaled(F(176, 3))
        )
        # weight-4 split
        assert cf.jordan_3() + cf.sigma_special(2, 2) == lam(4).scaled(3) == z(4).scaled(F(45, 16))
        # li4 values
        assert cf.jordan_3() == (
            SymExpr.atom(LI4_HALF, 1, 8)
            - z(4).scaled(F(53, 8))
            - (z(2) * SymExpr.atom(LOG2, 2)).scaled(2)
            + SymExpr.atom(LOG2, 4, F(1, 3))
            + (z(3) * LN2).scaled(7)
        )
        assert cf.jordan_bar_3() == (
            SymExpr.atom(LI4_HALF, 1, -1)
            + z(4).scaled(F(83, 64))
            + (z(2) * SymExpr.atom(LOG2, 2)).scaled(F(1, 4))
            - SymExpr.atom(LOG2, 4, F(1, 24))
        )
        assert cf.sigma_special(2, 2) == (
            SymExpr.atom(LI4_HALF, 1, -8)
            + (z(2) * SymExpr.atom(LOG2, 2)).scaled(2)
            - SymExpr.atom(LOG2, 4, F(1, 3))
            - (z(3) * LN2).scaled(7)
            + z(4).scaled(F(151, 16))
        )


def test_criterion_2_oracle_cross_validation():
    with criterion(2, "every closed form agrees with the oracle to 1e-8 (weights <= 11)"):
        checked = 0
        for sid in cf.known_closed_form_ids(11):
            t0 = time.time()
            res = oracle_eval(sid, CFG, CTX)
            elapsed = time.time() - t0
            assert elapsed < 10.0, (sid, elapsed)
            assert res.terms_used <= 10**7
            diff = abs(float(eval_sym(cf.closed_form_for(sid), CTX) - res.value))
            assert diff <= TOL, (str(sid), diff)
            checked += 1
        assert checked >= 70
        # combination closed forms without a single defining series
        for b in range(2, 11):
            combo = oracle_eval(SumId.Jbar(b), CFG, CTX).value + oracle_eval(SumId.J(b), CFG, CTX).value * F(
                (-1) ** (b - 1), 2**b
            )
            diff = abs(float(eval_sym(cf.jordan_reflection(b), CTX) - combo))
            assert diff <= TOL, ("reflection", b, diff)
        for a in range(2, 6):
            total = sum(
                (
                    oracle_eval(SumId.sigma(2 * a - i, 1 + i), CFG, CTX).value * F(2 ** (i - 1))
                    for i in range(1, 2 * a - 1)
                ),
                eval_sym(SymExpr.zero(), CTX),
            )
            diff = abs(float(eval_sym(cf.weighted_sigma_sum(a), CTX) - total))
            assert diff <= TOL, ("weighted", a, diff)
        combo = oracle_eval(SumId.sigma(3, 3), CFG, CTX).value + oracle_eval(SumId.sigma(2, 4), CFG, CTX).value * 3
        assert abs(float(eval_sym(cf.sigma33_plus_3sigma24(), CTX) - combo)) <= TOL


def test_criterion_3_sum_theorem():
    with criterion(3, "sigma-sum theorem: residual <= 1e-8 for w=3..10, symbolic for 3..7"):
        for w in range(3, 11):
            rep = verify_sum_theorem(w, CTX, CFG)
            assert rep.numeric_residual <= TOL, (w, rep.numeric_residual)
            if w in (3, 4, 5, 6, 7):
                assert rep.symbolic_ok is True, (w, rep.path)
            print(f"  weight {w}: residual {rep.numeric_residual:.2e}, path {rep.path}")


def test_criterion_4_solver_fidelity():
    with criterion(4, "solve_weight(7) returns the exact closed forms; re-substitution is zero"):
        rep = solve_weight(7, with_residuals=False)
        assert rep.solved[SumId.sigma(4, 3)] == lambda_sym(7).scaled(120) - (
            lambda_sym(2) * lambda_sym(5)
        ).scaled(96)
        assert rep.solved[SumId.sigma(3, 4)] == (
            lambda_sym(7).scaled(-80)
            + (lambda_sym(3) * lambda_sym(4)).scaled(8)
            + (lambda_sym(2) * lambda_sym(5)).scaled(F(176, 3))
        )
        for rel in relations_for_weight(7):
            acc = SymExpr.zero()
            for sid, c in rel.coeffs.items():
                acc = acc + rep.solved[sid].scaled(c)
            assert (acc - rel.rhs).is_zero


def test_criterion_5_lambda_convolution():
    with criterion(5, "lambda-convolution identity exact for n=2..10"):
        for n in range(2, 11):
            lhs = SymExpr.zero()
            for j in range(1, n):
                lhs = lhs + lambda_sym(2 * j) * lambda_sym(2 * n - 2 * j)
            rhs = lambda_sym(2 * n).scaled(F(2 * n - 1, 2))
            assert lhs == rhs, n
            assert lhs.homogeneous_weight() == 2 * n


def test_criterion_6_weight_homogeneity():
    with criterion(6, "100% of closed forms weight-homogeneous to weight 13"):
        count = 0
        for sid in cf.known_closed_form_ids(13):
            expr = cf.closed_form_for(sid)
            assert expr.homogeneous_weight() == sid.weight, sid
            count += 1
        for b in range(2, 13):
            assert cf.jordan_reflection(b).homogeneous_weight() == b + 1
        for a in range(2, 7):
            assert cf.weighted_sigma_sum(a).homogeneous_weight() == 2 * a + 1
        for w in range(3, 14):
            assert cf.sigma_weight_sum(w).homogeneous_weight() == w
        assert count >= 100


def test_criterion_7_relation_residuals():
    with criterion(7, "all generated relations have oracle residual <= 1e-8 (weights 4..10)"):
        total = 0
        for w in range(4, 11):
            for k in range(2, w // 2 + 1):
                rels = [gen_product_relation(k, w - k)]
                for rel in rels:
                    assert rel.residual(CTX, CFG) <= TOL, ("product", w, k)
                    total += 1
            for t in range(1, w - 1):
                s = w - t
                if s < 2:
                    continue
                rel = reduction_relation(s, t)
                if rel.is_identity:
                    assert rel.rhs.is_zero, ("reduction", s, t)
                else:
                    assert rel.residual(CTX, CFG) <= TOL, ("reduction", s, t)
                total += 1
            for r in range(1, (w - 2) // 2 + 1):
                s = w - 2 * r
                if s >= 2:
                    rel = even_order_relation(s, r)
                    if rel.is_identity:
                        assert rel.rhs.is_zero
                    else:
                        assert rel.residual(CTX, CFG) <= TOL, ("even-order", s, r)
                    total += 1
            for v in range(1, w // 2):
                r = (w - 2 * v) // 2
                if r >= 1 and 2 * v + 2 * r == w:
                    rel = folded_relation(1, v, r)
                    if rel.is_identity:
                        assert rel.rhs.is_zero
                    else:
                        assert rel.residual(CTX, CFG) <= TOL, ("folded-1", v, r)
                    total += 1
                r = (w - 2 * v - 1) // 2
                if r >= 1 and 2 * v + 1 + 2 * r == w:
                    rel = folded_relation(2, v, r)
                    if rel.is_identity:
                        assert rel.rhs.is_zero
                    else:
                        assert rel.residual(CTX, CFG) <= TOL, ("folded-2", v, r)
                    total += 1
        assert total >= 60


def test_criterion_8_consistency_triangles():
    with criterion(8, "sigma/zeta*/E and Jordan reflection consistency exact"):
        for a in range(2, 6):
            assert cf.sigma_odd_2(a) + cf.zeta_star_odd_2(a).scaled(F(1, 4)) == cf.e_2_odd(a), a
        for a in range(1, 6):
            assert cf.jordan_bar_even(a) - cf.jordan_even(a).scaled(F(1, 2 ** (2 * a))) == cf.jordan_reflection(
                2 * a
            ), a


def test_criterion_9_known_anomaly_regression():
    with criterion(9, "the even-first-argument/3 formula stays rejected at a=2"):
        with pytest.raises(ValueError):
            cf.sigma_even_3(2)
        # the general expression written at a=2 misses the true value by
        # about 1.73, while the dedicated weight-5 formula agrees
        a = 2
        formula_at_2 = lambda_sym(2 * a + 1).scaled(a * (2 * a - 1) * 2 ** (2 * a - 3)) - (
            zeta_sym(2) * lambda_sym(2 * a - 1)
        ).scaled((a - 1) * (2 * a + 3) * 2 ** (2 * a - 4))
        oracle_val = oracle_eval(SumId.sigma(2, 3), CFG, CTX).value
        gap = abs(float(eval_sym(formula_at_2, CTX) - oracle_val))
        assert 1.5 < gap < 2.0, gap
        good = abs(float(eval_sym(cf.sigma_2_odd(2), CTX) - oracle_val))
        assert good <= TOL
