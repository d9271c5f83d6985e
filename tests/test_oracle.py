import json
import math
import re
import time
from fractions import Fraction as F
from itertools import product

import pytest

from eulersum import (
    BudgetExhausted,
    OracleConfig,
    PrecisionContext,
    eval_sym,
    oracle_eval,
    partial_sum,
)
from eulersum import exact, numerics, oracle
from eulersum.closedform import closed_form_for, known_closed_form_ids
from eulersum.exact import bernoulli
from eulersum.oracle import _evaluate
from eulersum.sums import FAMILIES, Series, SumId


def test_partial_sum_examples():
    assert partial_sum(SumId.J(2), 1) == 1
    assert partial_sum(SumId.J(2), 2) == F(4, 3)  # S_1 + S_2/4
    assert partial_sum(SumId.sigma(2, 3), 2) == F(34, 27)  # 1 + (28/27)/4
    assert partial_sum(SumId.Jbar(2), 1) == 1
    assert partial_sum(SumId.euler_star(2), 2) == 1 + F(3, 8)
    assert partial_sum(SumId.alt_tilde_h(1), 2) == F(1, 2)  # n=1 term is 0
    with pytest.raises(ValueError):
        partial_sum(SumId.J(2), 0)


def test_partial_sum_converges_toward_oracle(ctx, cfg):
    val = oracle_eval(SumId.J(2), cfg, ctx).value
    p40 = partial_sum(SumId.J(2), 40)
    p80 = partial_sum(SumId.J(2), 80)
    assert abs(float(val) - float(p80)) < abs(float(val) - float(p40))


SMOKE_IDS = [
    SumId.J(2),
    SumId.J(3),
    SumId.Jbar(4),
    SumId.sigma(2, 3),
    SumId.sigma(5, 2),
    SumId.sigma(4, 3),
    SumId.h(3),
    SumId.h(8),
    SumId.Z(2),
    SumId.hodd_over_odd(2),
    SumId.euler_star(5),
    SumId.alt_euler_star(2),
    SumId.zeta_star(5, 2),
    SumId.alt_tilde_h(2),
    SumId.E(2, 5),
    SumId.E(1, 6),
]


@pytest.mark.parametrize("sid", SMOKE_IDS, ids=str)
def test_oracle_matches_closed_form(sid, ctx, cfg):
    res = oracle_eval(sid, cfg, ctx)
    assert res.achieved_bound <= cfg.target_tolerance
    assert res.terms_used <= cfg.max_terms
    expr = closed_form_for(sid)
    assert expr is not None
    diff = abs(float(eval_sym(expr, ctx) - res.value))
    assert diff <= res.achieved_bound + 1e-45, (sid, diff)


def test_oracle_j2_value(ctx, cfg):
    v = oracle_eval(SumId.J(2), cfg, ctx).value
    assert v.decimal(11) == "2.1035995805"


def test_frozen_reference_values(ctx):
    # values recomputed by this oracle and frozen; independently cross-checked
    # against plain summation at loose tolerance in the tests below
    cfg = OracleConfig(target_tolerance=1e-18)
    expected = {
        SumId.sigma(2, 3): "1.67343731448087",
        SumId.sigma(3, 2): "1.22903286037911",
        SumId.sigma(4, 3): "1.08556003490415",
        SumId.sigma(3, 4): "1.20469700316219",
        SumId.sigma(6, 3): "1.01800033232122",
        SumId.J(3): "1.29817551577187",
        SumId.Jbar(3): "1.07411913546609",
        SumId.Z(1): "3.30565648368888",
        SumId.hodd_over_odd(2): "1.02833114426488",
        SumId.h(4): "0.0162406578502357",
        SumId.alt_tilde_h(1): "0.388895846168106",
    }
    for sid, digits in expected.items():
        got = oracle_eval(sid, cfg, ctx).value.decimal(len(digits.replace(".", "").lstrip("0")))
        assert got == digits, (sid, got)


# head lengths of the benchmark's oracle ladder at (192 bits, 1e-20); the
# cutoff search must keep choosing the same N
PINNED_TERMS = {
    SumId.J(2): 32,
    SumId.J(4): 32,
    SumId.Jbar(3): 32,
    SumId.h(3): 32,
    SumId.sigma(2, 3): 32,
    SumId.zeta_star(3, 2): 32,
    SumId.E(2, 3): 32,
    SumId.alt_euler_star(1): 64,
    SumId.alt_tilde_h(1): 32,
}

# the same cutoffs with K held at 4; choosing N and K together never exceeds them
FIXED_ORDER_TERMS = {
    SumId.J(2): 256,
    SumId.J(4): 128,
    SumId.Jbar(3): 128,
    SumId.h(3): 256,
    SumId.sigma(2, 3): 64,
    SumId.zeta_star(3, 2): 128,
    SumId.E(2, 3): 128,
    SumId.alt_euler_star(1): 512,
    SumId.alt_tilde_h(1): 128,
}


@pytest.mark.parametrize("sid", PINNED_TERMS, ids=str)
def test_terms_used_pinned(sid, ctx):
    cfg = OracleConfig(target_tolerance=1e-20)
    res = oracle_eval(sid, cfg, ctx)
    assert res.terms_used == PINNED_TERMS[sid]
    assert PINNED_TERMS[sid] <= FIXED_ORDER_TERMS[sid]
    assert res.achieved_bound <= cfg.target_tolerance


def test_tolerance_monotonicity(ctx):
    loose = oracle_eval(SumId.sigma(2, 2), OracleConfig(1e-9), ctx)
    tight = oracle_eval(SumId.sigma(2, 2), OracleConfig(1e-18), ctx)
    assert tight.achieved_bound <= 1e-18
    assert abs(float(loose.value) - float(tight.value)) <= loose.achieved_bound


def test_oracle_is_deterministic(ctx, cfg):
    a = _evaluate(SumId.h(5).series, cfg, ctx)
    b = _evaluate(SumId.h(5).series, cfg, ctx)
    assert a.value.value_tuple() == b.value.value_tuple()
    assert a.achieved_bound == b.achieved_bound and a.terms_used == b.terms_used


def test_budget_exhausted(ctx):
    with pytest.raises(BudgetExhausted):
        oracle_eval(SumId.sigma(2, 2), OracleConfig(target_tolerance=1e-20, max_terms=8), ctx)


def test_tolerance_floor_validation():
    small = PrecisionContext(working_bits=128)
    with pytest.raises(ValueError):
        oracle_eval(SumId.J(2), OracleConfig(target_tolerance=1e-60), small)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(target_tolerance=0)
    with pytest.raises(ValueError):
        OracleConfig(max_terms=0)
    for tol in (float("inf"), float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            OracleConfig(target_tolerance=tol)


@pytest.mark.parametrize("max_terms", [40.7, 1e7, True])
def test_config_refuses_a_term_budget_that_is_not_an_integer(max_terms):
    # 40.7 used to become 40, and True a budget of one term
    with pytest.raises(ValueError, match="integer"):
        OracleConfig(max_terms=max_terms)


def test_sigma_t1_equals_jordan_route(ctx, cfg):
    a = oracle_eval(SumId.sigma(2, 1), cfg, ctx)
    b = oracle_eval(SumId.J(2), cfg, ctx)
    assert a.value.value_tuple() == b.value.value_tuple()


def test_oracle_calls_are_fast(ctx):
    cfg = OracleConfig(target_tolerance=1e-9)
    t0 = time.time()
    oracle_eval(SumId.sigma(2, 9), cfg, ctx)
    oracle_eval(SumId.h(10), cfg, ctx)
    assert time.time() - t0 < 10.0


# ---------------------------------------------------------------------------
# independent second summation routes at loose tolerance
# ---------------------------------------------------------------------------


def _naive_sigma(s: int, t: int, n_terms: int) -> float:
    import numpy as np

    k = np.arange(1, n_terms + 1, dtype=np.float64)
    semi = np.cumsum((2 * k - 1) ** (-float(t)))
    return float(np.sum(semi * k ** (-float(s))))


@pytest.mark.parametrize("s,t", [(2, 3), (3, 2), (4, 3), (2, 2)])
def test_sigma_split_agrees_with_naive_direct(s, t, ctx, cfg):
    # naive tail bound: remaining terms are below lambda(t) * N^(1-s) / (s-1)
    n = 2_000_000 if s == 2 else 40_000
    naive = _naive_sigma(s, t, n)
    bound = 1.3 * n ** (1 - s) / (s - 1)
    val = float(oracle_eval(SumId.sigma(s, t), cfg, ctx).value)
    assert abs(val - naive) <= bound + 1e-6, (s, t, abs(val - naive), bound)


@pytest.mark.parametrize("a", [1, 2])
def test_alt_euler_star_vs_plain_bracketing(a, ctx, cfg):
    # plain alternating partial sums bracket the limit; terms decrease
    import numpy as np

    n = 4000
    k = np.arange(1, n + 1, dtype=np.float64)
    terms = np.cumsum(1.0 / k) * k ** (-2.0 * a)
    signs = np.where(k % 2 == 1, 1.0, -1.0)
    partial = float(np.sum(signs * terms))
    bracket = terms[-1]
    val = float(oracle_eval(SumId.alt_euler_star(a), cfg, ctx).value)
    assert abs(val - partial) <= bracket + 1e-9


@pytest.mark.parametrize("a", [1, 2])
def test_alt_tilde_vs_plain_bracketing(a, ctx, cfg):
    # direct partial sums of (-1)^n Ht_(n-1)/n; tail bounded by the first
    # omitted |Ht_(n-1) - eta| / n plus the alternating eta * harmonic tail
    import numpy as np

    n = 200_000
    k = np.arange(1, n + 1, dtype=np.float64)
    talt = np.where(k % 2 == 1, 1.0, -1.0) * k ** (-2.0 * a)
    ht = np.concatenate([[0.0], np.cumsum(talt)[:-1]])  # Ht_(n-1)
    partial = float(np.sum(np.where(k % 2 == 0, 1.0, -1.0) * ht / k))
    # |sum_{m>n}| <= eta/n + 1/(2 n^{2a}) style bound; keep it generous
    bracket = 2.0 / n
    val = float(oracle_eval(SumId.alt_tilde_h(a), cfg, ctx).value)
    assert abs(val - partial) <= bracket, (a, abs(val - partial))


def test_budget_exhausted_names_the_largest_bound_component(ctx, monkeypatch):
    cfg = OracleConfig(target_tolerance=1e-20, max_terms=8)
    with pytest.raises(BudgetExhausted) as info:
        oracle_eval(SumId.sigma(2, 2), cfg, ctx)
    msg = str(info.value)
    assert "N = 8" in msg
    assert "tail remainder" in msg and "inner-tail remainder" not in msg
    assert "tol/2 = 5.000e-21" in msg
    # the name given is the argmax of the screen's estimates at the pair named
    K = int(re.search(r"\(order K = (\d+)\)", msg).group(1))
    plans = _plan_of(SumId.sigma(2, 2), cfg, ctx, monkeypatch)
    part, tail = oracle._screen(plans, K, 8)
    assert f"the {plans.name if part >= tail else 'tail remainder'}," in msg


def test_budget_exhausted_prints_half_the_least_subnormal_tolerance():
    # tol / 2 underflows to 0.0 as a float; the message takes it exactly
    with pytest.raises(BudgetExhausted, match=r"against tol/2 = 2\.470e-324$"):
        oracle_eval(SumId.J(2), OracleConfig(5e-324, max_terms=64), PrecisionContext(working_bits=1200))


# head lengths of the benchmark's oracle ladder at (256 bits, 1e-32)
PINNED_TERMS_256 = {
    SumId.J(2): 64,
    SumId.J(4): 64,
    SumId.Jbar(3): 64,
    SumId.h(3): 64,
    SumId.sigma(2, 3): 64,
    SumId.zeta_star(3, 2): 64,
    SumId.E(2, 3): 64,
    SumId.alt_euler_star(1): 128,
    SumId.alt_tilde_h(1): 128,
}

FIXED_ORDER_TERMS_256 = {
    SumId.J(2): 16384,
    SumId.J(4): 2048,
    SumId.Jbar(3): 4096,
    SumId.h(3): 8192,
    SumId.sigma(2, 3): 1024,
    SumId.zeta_star(3, 2): 1024,
    SumId.E(2, 3): 1024,
    SumId.alt_euler_star(1): 16384,
    SumId.alt_tilde_h(1): 2048,
}


@pytest.mark.parametrize("sid", PINNED_TERMS_256, ids=str)
def test_terms_used_pinned_at_256_bits(sid):
    cfg = OracleConfig(target_tolerance=1e-32)
    res = oracle_eval(sid, cfg, PrecisionContext(working_bits=256))
    assert res.terms_used == PINNED_TERMS_256[sid]
    assert PINNED_TERMS_256[sid] <= FIXED_ORDER_TERMS_256[sid]
    assert res.achieved_bound <= cfg.target_tolerance


class _Planned(Exception):
    pass


def _plan_of(sid, cfg, ctx, monkeypatch):
    """The plans (oracle._Plans, the function of K to the _Plan of order K) that
    the evaluator of sid hands to the cutoff search."""
    seen = []

    def capture(cfg, plans, ctx):
        seen.append(plans)
        raise _Planned

    monkeypatch.setattr(oracle, "_select", capture)
    with pytest.raises(_Planned):
        _evaluate(sid.series, cfg, ctx)
    return seen[0]


def _screened_pairs(cfg, plans, ctx, monkeypatch):
    """Every (N, K) pair _select screens, in order, and what it returns (None
    for BudgetExhausted)."""
    seen = []
    screen = oracle._screen

    def record(plans, K, N):
        seen.append((N, K))
        return screen(plans, K, N)

    monkeypatch.setattr(oracle, "_screen", record)
    try:
        got = oracle._select(cfg, plans, ctx)
    except BudgetExhausted:
        got = None
    monkeypatch.undo()
    return seen, got


@pytest.mark.parametrize("k_start", [0, 2, 4])
@pytest.mark.parametrize("bits,tol", [(192, 1e-20), (256, 1e-32)])
@pytest.mark.parametrize("sid", PINNED_TERMS, ids=str)
def test_screen_is_a_lower_estimate_of_the_certified_bound(sid, bits, tol, k_start, monkeypatch):
    # every (N, K) pair the search screens, from its own least order 4 and,
    # with the module constant lowered, from orders 0 and 2
    ctx = PrecisionContext(working_bits=bits)
    cfg = OracleConfig(target_tolerance=tol)
    plans = _plan_of(sid, cfg, ctx, monkeypatch)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_K_START", k_start)
    pairs, got = _screened_pairs(cfg, plans, ctx, monkeypatch)
    assert pairs
    accepted = None
    for N, K in pairs:
        screened = oracle._log_sum(oracle._screen(plans, K, N))
        fx, plan = numerics.FixedPoint(ctx, N), plans(K)
        bound = F(plan.bound(N, fx), fx.one)
        assert F(math.exp(screened)) <= bound * (1 + F(1e-9)), (N, math.exp(screened), float(bound))
        if bound <= F(tol) / 2:
            pair = (oracle._work(plans, K, N), N, plan.tail[1])
            accepted = min(accepted or pair, pair)
    # the search takes the pair of least work a certification at every screened pair accepts
    if accepted is None:
        assert got is None
    else:
        assert (got[0], got[1].tail[1]) == accepted[1:]


@pytest.mark.parametrize("loose_screen", [False, True])
@pytest.mark.parametrize("bits,tol", [(192, 1e-20), (256, 1e-32)])
@pytest.mark.parametrize("sid", PINNED_TERMS, ids=str)
def test_accepted_bound_meets_half_the_tolerance_exactly(sid, bits, tol, loose_screen, monkeypatch):
    # with the screen's margin raised to ln 4 it passes estimates up to 2 tol,
    # so only the exact check holds the bound to tol/2
    ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=tol)
    plans = _plan_of(sid, cfg, ctx, monkeypatch)
    monkeypatch.undo()
    if loose_screen:
        monkeypatch.setattr(oracle, "_FLOAT_MARGIN", math.log(4))
    N, plan, fx, bound = oracle._select(cfg, plans, ctx)
    assert fx.prec == numerics.FixedPoint(ctx, N).prec
    assert bound == plan.bound(N, fx)
    assert F(bound, 2**fx.prec) <= F(tol) / 2


@pytest.mark.parametrize("sid", PINNED_TERMS, ids=str)
def test_a_plan_bound_is_its_exact_part_and_tail_bounds_rounded_up(sid, monkeypatch):
    # the truncation part, rem times the sum over x > X of x^-q, is bounded by
    # the term at X + 1 and the integral from X; a plan's bound is that, times
    # the part's scale, rounded up, plus the tail pass's own bound, and lies
    # within a few units above them
    import mpmath

    ctx, cfg = PrecisionContext(working_bits=256), OracleConfig(target_tolerance=1e-32)
    plans = _plan_of(sid, cfg, ctx, monkeypatch)
    with mpmath.workprec(600):
        pi_lo, pi_hi = (_frac(mpmath.pi._mpf_) + d for d in (-F(1, 2**590), F(1, 2**590)))
    for K, N in product((4, 9, 20), (1, 32, 1000)):
        plan, fx = plans(K), numerics.FixedPoint(ctx, N)
        _, rem, q, (c, base, k) = plan.part
        X = plan.lattice[0] * N + plan.lattice[1]
        part = rem * (F(1, (X + 1) ** q) + F(1, (q - 1) * X ** (q - 1))) * fx.one * c
        rule, order, at = plan.tail
        rest = plan.bound(N, fx) - numerics._pl_tail(rule, plan.terms, X + at, order, fx, plan.lattice[0])[1]
        assert part / (base * pi_lo) ** k <= rest <= part / (base * pi_hi) ** k * (1 + F(1, 2**70)) + 3 * c, (K, N)


# the (N, rule, order of the rule) the cutoff search picks for the benchmark's
# ladder sums at its three rungs and at (512 bits, 1e-100), recorded from the
# search that built its screen data on every call; the Boole order of
# AltEulerStar is 2K.  Screening from data built once per plan, and building
# the tables in integers, must not move any of them.
FROZEN_RUNGS = ((192, 1e-20), (192, 1e-25), (256, 1e-32), (512, 1e-100))
FROZEN_CHOICES = {
    SumId.J(2): ((32, "em", 7), (64, "em", 7), (64, "em", 10), (256, "em", 27)),
    SumId.J(4): ((32, "em", 6), (64, "em", 6), (64, "em", 9), (256, "em", 26)),
    SumId.Jbar(3): ((32, "em", 6), (64, "em", 7), (64, "em", 9), (256, "em", 26)),
    SumId.h(3): ((32, "em", 6), (64, "em", 7), (64, "em", 9), (256, "em", 26)),
    SumId.sigma(2, 3): ((32, "em", 6), (64, "em", 6), (64, "em", 8), (256, "em", 25)),
    SumId.zeta_star(3, 2): ((32, "em", 6), (64, "em", 6), (64, "em", 9), (256, "em", 26)),
    SumId.E(2, 3): ((32, "em", 6), (64, "em", 6), (64, "em", 9), (256, "em", 26)),
    SumId.alt_euler_star(1): ((64, "boole", 14), (64, "boole", 18), (128, "boole", 20), (512, "boole", 54)),
    SumId.alt_tilde_h(1): ((32, "em", 7), (64, "em", 7), (128, "em", 8), (512, "em", 25)),
}


@pytest.mark.parametrize("sid", FROZEN_CHOICES, ids=str)
def test_the_search_keeps_its_frozen_choices(sid, monkeypatch):
    for (bits, tol), frozen in zip(FROZEN_RUNGS, FROZEN_CHOICES[sid]):
        ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=tol)
        plans = _plan_of(sid, cfg, ctx, monkeypatch)
        monkeypatch.undo()
        N, plan, _, _ = oracle._select(cfg, plans, ctx)
        assert (N, *plan.tail[:2]) == frozen, (bits, tol)


@pytest.mark.parametrize("sid", FROZEN_CHOICES, ids=str)
def test_screening_a_built_plan_makes_no_fraction(sid, monkeypatch):
    # a deterministic cost proxy: the screen is float arithmetic on data each
    # order computes once, so it constructs no Fraction at any cutoff or order;
    # and with the exact tables cached, neither does the whole search
    ctx, cfg = PrecisionContext(working_bits=256), OracleConfig(target_tolerance=1e-32)
    plans = _plan_of(sid, cfg, ctx, monkeypatch)
    monkeypatch.undo()
    orders = (0, 1, 4, 9, 30)
    for K in orders:
        plans.order(K)
    chosen = oracle._select(cfg, plans, ctx)
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    F(1, 3)
    assert len(made) == 1
    for K in orders:
        for N in (1, 32, 1000, 10**7):
            oracle._screen(plans, K, N)
    assert len(made) == 1, made[1:6]
    again = oracle._select(cfg, plans, ctx)
    assert len(made) == 1, made[1:6]
    assert (again[0], again[1].tail, again[3]) == (chosen[0], chosen[1].tail, chosen[3])


def test_float_pochhammer_and_harmonic_slices_match_the_exact_values():
    # the screen data of one term with a log part: log (p)_m from lgamma, read
    # back from c = log (p)_m - log(q - 1), and H(p, m) from a float prefix
    # list, within 1e-12 relative of the exact integer's log and the exact
    # rational (q - 1 = 0 at p = 1, m = 0, where no screen reads it)
    for p in range(1, 65):
        poch, H = 1, F(0)
        for m in range(601):
            if p > 1 or m:
                (c,), (q1,), _, ((_, c_b, _, _, h),) = oracle._screen_data(((0.0, 0.0, p),), m)
                log_poch = c + math.log(q1)
                assert c_b == c and abs(log_poch - math.log(poch)) <= 1e-12 * math.log(poch), (p, m)
                assert abs(h - H) <= 1e-12 * H, (p, m)
            poch, H = poch * (p + m), H + F(1, p + m)


def test_each_computed_oracle_eval_rounds_into_bigreal_once(monkeypatch):
    # with zeta and the constants cached (each is rounded through to_big too),
    # an evaluation sums its head, tail and bound as integers and rounds them
    # into a BigReal once; a tolerance no other test uses makes every call
    # below compute
    ctx, cfg = PrecisionContext(working_bits=200), OracleConfig(target_tolerance=3.7e-21)
    for s in range(2, 12):
        numerics.zeta_num(s, ctx)
    for const in (numerics.const_pi, numerics.const_log2, numerics.const_gamma):
        const(ctx)
    calls = []
    to_big = numerics.FixedPoint.to_big

    def counted(fx, x, ex):
        calls.append((x, ex))
        return to_big(fx, x, ex)

    monkeypatch.setattr(numerics.FixedPoint, "to_big", counted)
    computed = 0
    for sid in SMOKE_IDS:
        misses = oracle._cached.cache_info().misses
        calls.clear()
        oracle_eval(sid, cfg, ctx)
        if oracle._cached.cache_info().misses > misses:
            computed += 1
            assert len(calls) == 1, sid
    assert computed == len({sid.series for sid in SMOKE_IDS})


def test_max_terms_is_the_last_candidate():
    assert list(oracle._n_candidates(OracleConfig(max_terms=100))) == [32, 64, 100]
    with pytest.raises(BudgetExhausted, match="at N = 100"):
        oracle_eval(SumId.alt_euler_star(1), OracleConfig(1e-140, max_terms=100), PrecisionContext(working_bits=512))


# -- every family against exact partial sums of its defining series ----------------

_SOUND_N = 64


def _smallest(family: str) -> SumId:
    fam = FAMILIES[family]
    return next(SumId(family, *p) for p in product(range(1, 8), repeat=len(fam.params)) if fam.valid(*p))


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


# every family at its smallest parameters, and the remainder split of each
# family that has one, which the smallest parameters do not reach
@pytest.mark.parametrize("case", [*FAMILIES, SumId.sigma(2, 2), SumId.zeta_star(2, 2), SumId.E(2, 2)], ids=str)
def test_oracle_interval_is_consistent_with_exact_partial_sums(case):
    sid = _smallest(case) if isinstance(case, str) else case
    family = sid.family
    v = oracle_eval(sid, OracleConfig(1e-15), PrecisionContext(working_bits=192)).value
    mid, err = _frac(v.value_tuple()), _frac(v.err_tuple())
    lo, hi = mid - err, mid + err
    N = _SOUND_N
    terms = [FAMILIES[family].term(*sid.params, n) for n in range(1, N + 2)]
    s_n = partial_sum(sid, N)
    s_n1 = s_n + terms[N]
    if all(t >= 0 for t in terms):
        # Crude tail envelope: in every case the terms are at most (1 + ln 2n) / n^2, which decreases, so the sum past N is at
        # most Int_N^inf (1 + ln 2x) / x^2 dx = (2 + ln 2N) / N.
        assert all(t <= (1 + math.log(2 * n)) / n**2 for n, t in enumerate(terms, 1))
        assert s_n <= hi
        assert lo <= s_n + F((2 + math.log(2 * N)) / N)
    else:
        # alternating, with terms falling in size: the sum lies between S_N and S_(N+1)
        assert min(s_n, s_n1) <= lo and hi <= max(s_n, s_n1)


# -- the one power-sum generator behind every weight and inner tail -----------------


def _exact_weight(kind: str, p: int, n: int) -> F:
    if kind == "S":
        return sum((F(1, (2 * k - 1) ** p) for k in range(1, n + 1)), F(0))
    if kind == "Ht":
        return -sum((F((-1) ** (k - 1), k**p) for k in range(1, n)), F(0))
    top = {"H": n, "H2N": 2 * n, "H2N1": 2 * n - 1}[kind]
    return sum((F(1, k**p) for k in range(1, top + 1)), F(0))


# -- the registry: each family is one shape ------------------------------------------

# the validators and weights the families spelled out one by one before both
# followed from the shape
_SPELLED_OUT = {
    "J": (lambda b: b >= 2, lambda b: b + 1),
    "Jbar": (lambda b: b >= 2, lambda b: b + 1),
    "sigma": (lambda s, t: s >= 2 and t >= 1, lambda s, t: s + t),
    "h": (lambda q: q >= 2, lambda q: q + 1),
    "Z": (lambda a: a >= 1, lambda a: 2 * a + 1),
    "HoddOverOdd": (lambda a: a >= 1, lambda a: 2 * a + 1),
    "EulerStar": (lambda b: b >= 2, lambda b: b + 1),
    "AltEulerStar": (lambda a: a >= 1, lambda a: 2 * a + 1),
    "ZetaStar": (lambda q, p: q >= 2 and p >= 1, lambda q, p: q + p),
    "AltTildeH": (lambda a: a >= 1, lambda a: 2 * a + 1),
    "E": (lambda p, q: p >= 1 and q >= 2, lambda p, q: p + q),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_validity_and_weight_of_the_shape_match_the_spelled_out_rules(family):
    fam = FAMILIES[family]
    valid, weight = _SPELLED_OUT[family]
    for p in product(range(-3, 15), repeat=len(fam.params)):
        assert fam.valid(*p) == valid(*p), p
        assert fam.weight(*p) == weight(*p), p


@pytest.mark.parametrize("family", FAMILIES)
def test_term_is_the_nth_term_of_the_shape(family):
    # the shape the oracle sums, rebuilt from direct weight sums, against the
    # hand-written exact term
    fam = FAMILIES[family]
    cases = [p for p in product(range(1, 5), repeat=len(fam.params)) if fam.valid(*p)]
    assert cases
    for p in cases:
        kind, order, shift, power, alternating = fam.series(*p)
        for n in range(1, 31):
            base = n if shift is None else 2 * n + shift
            sign = -1 if alternating and n % 2 == 0 else 1
            assert fam.term(*p, n) == sign * _exact_weight(kind, order, n) / F(base) ** power, (p, n)


# every convergent shape of the five kinds at orders and powers 1 to 3, on n
# and on both odd lattices, of either sign
_SHAPES = [Series(kind, order, shift, power, alternating)
           for kind, order, shift, power, alternating
           in product(("H", "S", "H2N", "H2N1", "Ht"), range(1, 4), (None, -1, 1), range(1, 4), (False, True))
           if power >= 2 or alternating]
_FAMILY_SHAPES = {fam.series(*p)[:3] for fam in FAMILIES.values() for p in product(range(1, 4), repeat=len(fam.params))}


def _summed(series) -> bool:
    """A family's (kind, order, shift), not alternating on the odd lattice, or a
    weight with a limit (H, S and H2N of order >= 2, Ht of any order) on n."""
    kind, order, shift, _, alternating = series
    limit = shift is None and (kind == "Ht" or order >= 2 and kind != "H2N1")
    return series[:3] in _FAMILY_SHAPES and not (shift is not None and alternating) or limit


def test_every_shape_is_summed_or_refused(ctx, cfg, monkeypatch):
    # a shape the oracle has no evaluator for raises ValueError naming it
    # before any summation; every other shape is certified
    summed = [series for series in _SHAPES if _summed(series)]
    assert len(summed) == 66 and len(_SHAPES) == 225
    for series in summed:
        assert _evaluate(series, cfg, ctx).achieved_bound <= cfg.target_tolerance, series

    def no_summation(*args):
        raise AssertionError("summed a refused shape")

    monkeypatch.setattr(oracle, "_sum", no_summation)
    for series in _SHAPES:
        if not _summed(series):
            with pytest.raises(ValueError, match=re.escape(str(series))):
                _evaluate(series, cfg, ctx)


def _certified(*shapes) -> list:
    """(value, bound) of each shape as exact rationals, at 256 bits and tol 1e-50."""
    ctx, cfg = PrecisionContext(working_bits=256), OracleConfig(target_tolerance=1e-50)
    values = [_evaluate(series, cfg, ctx).value for series in shapes]
    return [(_frac(v.value_tuple()), _frac(v.err_tuple())) for v in values]


def _zeta_eta(s: int, alternating: bool) -> F:
    """zeta(s), or eta(s) when alternating (eta(1) = ln 2), by mpmath at 512 bits."""
    import mpmath

    with mpmath.workprec(512):
        return _frac((mpmath.altzeta(s) if alternating else mpmath.zeta(s))._mpf_)


_REF_ERR = F(1, 2**500)  # above the error of a product of two mpmath values at 512 bits


@pytest.mark.parametrize("p,q", list(product(range(2, 5), repeat=2)))
def test_sums_of_mixed_signs_satisfy_the_reflection_formula(p, q):
    # patterns (+,-) and (-,+) of Flajolet and Salvy: sum (-1)^(n-1) H_n^(p) / n^q
    # plus sum_n n^-p sum_(k<n) (-1)^(k-1) k^-q, the second minus Ht's shape,
    # is the sum over every (n, k), zeta(p) eta(q)
    (a, ea), (b, eb) = _certified(Series("H", p, None, q, True), Series("Ht", q, None, p, False))
    assert abs(a - b - _zeta_eta(p, False) * _zeta_eta(q, True)) <= ea + eb + _REF_ERR


@pytest.mark.parametrize("p,q", list(product(range(1, 5), repeat=2)))
def test_alternating_tilde_sums_satisfy_the_reflection_formula(p, q):
    # pattern (-,-): the strict sums over k < n and n < k of (-1)^(n+k) k^-p
    # n^-q are minus the two shapes, and with the diagonal they make eta(p) eta(q)
    (a, ea), (b, eb) = _certified(Series("Ht", p, None, q, True), Series("Ht", q, None, p, True))
    exact = _zeta_eta(p + q, False) - _zeta_eta(p, True) * _zeta_eta(q, True)
    assert abs(a + b - exact) <= ea + eb + _REF_ERR


@pytest.mark.parametrize("t,q", list(product((2, 3), (1, 2, 3))))
def test_alternating_split_sums_follow_the_translation_between_kinds(t, q):
    # S_n^(t) = H_2n^(t) - 2^-t H_n^(t), term by term under the alternating sign
    (s, es), (e, ee), (h, eh) = _certified(*(Series(kind, t, None, q, True) for kind in ("S", "H2N", "H")))
    assert abs(s - e + h / 2**t) <= es + ee + eh / 2**t


@pytest.mark.parametrize("alias,sid", [(SumId.sigma(4, 1), SumId.J(4)),
                                       (SumId.zeta_star(3, 1), SumId.euler_star(3)),
                                       (SumId.E(1, 4), SumId.Z(2))], ids=str)
def test_ids_of_one_series_share_one_cached_result(alias, sid, ctx, cfg):
    assert alias.series == sid.series
    misses = oracle._cached.cache_info().misses
    a, b = oracle_eval(alias, cfg, ctx), oracle_eval(sid, cfg, ctx)
    assert oracle._cached.cache_info().misses <= misses + 1
    assert a is b


def test_equal_configs_and_contexts_share_one_cached_result():
    # the cache keys on the config and the context, so equal but distinct ones
    # get back the one result; a tolerance no other test uses makes the first
    # call compute
    calls = [(OracleConfig(target_tolerance=4.1e-23), PrecisionContext(working_bits=200)) for _ in range(2)]
    assert calls[0] == calls[1] and calls[0][0] is not calls[1][0] and calls[0][1] is not calls[1][1]
    misses = oracle._cached.cache_info().misses
    a, b = (oracle_eval(SumId.J(2), cfg, c) for cfg, c in calls)
    assert oracle._cached.cache_info().misses == misses + 1
    assert a is b and a.value.ctx == calls[1][1]


def _mp(x):
    import mpmath

    x = F(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _expansion(kind: str, p: int, J: int, shift=None) -> tuple:
    """(((e, a_e), ...), rem, q): the weight's expansion to order J, the terms
    that orders 0 to J add in oracle._weight_expansion's prefix list.  Each
    a_e and rem is a Fraction, stored with its natural log."""
    orders = exact._prefix(oracle._weight_expansion(kind, p, shift), J + 1)[:J + 1]
    terms = tuple(t for added, *_ in orders for t in added)
    _, rem, q, log_rem, _ = orders[J]
    assert all(type(a) is F and la == oracle._log_pos(a) for _, a, la in terms)
    assert type(rem) is F and log_rem == oracle._log_pos(rem)
    return tuple((e, a) for e, a, _ in terms), rem, q


# every (kind, order) the routes use: order 1 summed directly, orders >= 2 by
# the split, and the order-1 weights summed in m = 2n + shift on the odd lattice
_EXPANSION_CASES = [
    *(pytest.param(kind, 1, K, None, id=f"{kind}-1-{K}") for kind in ("H", "S", "H2N") for K in (2, 5)),
    *(pytest.param(kind, p, K, None, id=f"{kind}-{p}-{K}")
      for kind in ("H", "S", "H2N") for p in (2, 3, 5) for K in (0, 3, 4, 8)),
    *(pytest.param(kind, 1, K, shift, id=f"{kind}-1-{K}-m=2n{shift:+d}") for kind, shift in oracle._ODD_COMBOS
      for K in (2, 5)),
]


@pytest.mark.parametrize("kind,p,K,shift", _EXPANSION_CASES)
def test_weight_expansion_is_within_its_remainder(kind, p, K, shift):
    import mpmath

    combo, (terms, rem, q) = oracle._combo(kind, p, shift), _expansion(kind, p, K, shift)
    total = sum(c for c, _ in combo)
    with mpmath.workprec(600):
        if p == 1:
            const = sum(_mp(c) * (mpmath.euler + mpmath.log(_mp(d))) for c, d in combo)
            if shift is not None:
                const += oracle._ODD_COMBOS[kind, shift][1] * mpmath.log(2)
            scale = 1
        else:
            const = _mp(total) * mpmath.zeta(p)
            scale = (2 * mpmath.pi) ** (-2 * K)
        for n in (1, 2, 3, 7, 30, 100):
            x = n if shift is None else 2 * n + shift
            approx = const + sum(_mp(a) * mpmath.mpf(x) ** -e for e, a in terms)
            if p == 1:
                approx += _mp(total) * mpmath.log(x)
            bound = _mp(rem) * scale * mpmath.mpf(x) ** -q
            err = abs(_mp(_exact_weight(kind, p, n)) - approx)
            assert err <= bound, (n, float(err / bound))
        if shift is not None:
            # H_y = psi(y + 1) + gamma at the half-integers y = m/2 is within the
            # expansion's remainder, as at the integers
            terms_h, rem_h, q_h = _expansion("H", 1, K)
            for y in (mpmath.mpf(m) / 2 for m in (1, 3, 5, 21, 201)):
                approx = mpmath.euler + mpmath.log(y) + sum(_mp(a) * y**-e for e, a in terms_h)
                err = abs(mpmath.digamma(y + 1) + mpmath.euler - approx)
                assert err <= _mp(rem_h) * y**-q_h, (y, float(err))


@pytest.mark.parametrize("p", range(2, 9))
def test_step_two_tail_encloses_the_hurwitz_zeta(p):
    # sum over m = M + 2, M + 4, ... of m^-p, M = 2N + c, is 2^-p zeta(p, N + 1 + c/2)
    import mpmath

    ctx, terms = PrecisionContext(working_bits=256), [(F(1), 0, p)]
    for N, c, K in product((1, 8, 32), (-1, 1), range(21)):
        M, fx = 2 * N + c, numerics.FixedPoint(ctx, N)
        tail, bound = numerics._pl_tail("em", terms, M, K, fx, 2)
        value, value_err = tail()
        with mpmath.workprec(600):
            exact = _frac((mpmath.zeta(p, N + 1 + mpmath.mpf(c) / 2) / 2**p)._mpf_)
        slack = F(value_err + bound, fx.one)
        assert abs(exact - F(value, fx.one)) <= slack, (N, c, K)


# the weight tables as Fraction formulas, the independent reference for the
# expansions read from numerics' tables


def _harmonic_expansion_fraction(p: int, k: int) -> tuple:
    c, m = numerics._em_deriv(k) if k else (F(-1, 2), 0)
    a = ((p + m, -c * (-1) ** m * math.perm(p + m - 1, m)),)
    if p == 1:
        return a, abs(bernoulli(2 * k + 2)) / (2 * k + 2), 2 * k + 2
    if k == 0:  # the integral's term, and the remainder 1/2 Int |f'|
        return ((p - 1, F(-1, p - 1)), *a), F(1, 2), p
    q = p + 2 * k - 1
    return a, F(4 * math.perm(p + 2 * k - 1, 2 * k), q), q


def _weight_terms_fraction(kind: str, p: int, k: int, shift) -> tuple:
    out: dict = {}
    for c, d in oracle._combo(kind, p, shift):
        for e, ae in _harmonic_expansion_fraction(p, k)[0]:
            out[e] = out.get(e, 0) + c * ae / F(d) ** e
    return tuple((e, x) for e, x in out.items() if x)


def _weight_expansion_fraction(kind: str, p: int, K: int, shift) -> tuple:
    combo = oracle._combo(kind, p, shift)
    _, rem, q = _harmonic_expansion_fraction(p, K)
    terms = tuple(t for k in range(K + 1) for t in _weight_terms_fraction(kind, p, k, shift))
    return terms, sum(abs(c) * rem / F(d) ** q for c, d in combo), q


# every kind and shift of _combo and _ODD_COMBOS, at the orders each is summed with
_TABLE_CASES = [*((kind, p, None) for kind in ("H", "S", "H2N") for p in range(1, 9)),
                *((kind, 1, shift) for kind, shift in oracle._ODD_COMBOS)]


@pytest.mark.parametrize("kind,p,shift", _TABLE_CASES, ids=str)
def test_weight_tables_match_the_fraction_formulas(kind, p, shift):
    combo = oracle._combo(kind, p, shift)
    log2 = sum(c * {1: 0, 2: 1, F(1, 2): -1}[d] for c, d in combo)
    log2 += 0 if shift is None else oracle._ODD_COMBOS[kind, shift][1]
    assert oracle._combo_sums(kind, p, shift) == (sum(c for c, _ in combo), log2)
    for k in range(41):
        expansion = _weight_expansion_fraction(kind, p, k, shift)
        assert _expansion(kind, p, k, shift) == expansion, k


# every weight combination of _TABLE_CASES, and the tilde sum's Boole tails
_EXPANSION_LISTS = [
    *(pytest.param(p, "em", tuple((-c, d) for c, d in oracle._combo(kind, p, shift)), id=f"{kind}-{p}-{shift}")
      for kind, p, shift in _TABLE_CASES),
    *(pytest.param(s, "boole", ((1, 1),), id=f"tilde-{s}") for s in range(1, 6)),
]


@pytest.mark.parametrize("p,rule,combo", _EXPANSION_LISTS)
def test_expansion_remainders_follow_numerics_remainder(p, rule, combo):
    # the remainder of order K is numerics._remainder's applied to _abs_coeffs,
    # in the combination's |c_i|, or for p = 1 under "em" the enveloping first
    # omitted term; odd Boole orders add no term
    entries = exact._prefix(oracle._expansion(p, rule, combo), 41)[:41]
    for K, (terms, rem, q, log_rem, scale) in enumerate(entries):
        if p == 1 and rule == "em":
            n = numerics._pl_length(1, "em", K + 1)
            e, a, b = exact._prefix(numerics._pl_table(1, "em"), n)[n - 1]
            factor, want_scale = F(abs(a), b), (1, 1, 0)
        else:
            m, (f, base, k) = numerics._remainder(rule, K)
            ((e, a, b),) = numerics._abs_coeffs(p, m)
            factor, want_scale = f * F(a, b), (1, base, k)
        want = sum(abs(c) * factor / F(d) ** e for c, d in combo)
        assert (rem, q, scale) == (want, e, want_scale), K
        assert type(rem) is F and log_rem == oracle._log_pos(rem), K
        if rule == "boole" and K % 2:
            assert terms == (), K


@pytest.mark.parametrize("s", range(1, 6))
def test_tilde_tail_is_within_its_remainder(s):
    # tau_n = sum_{k>=0} (-1)^k (n + k)^-s, from the Hurwitz zeta (digamma for
    # s = 1) at n/2 and (n+1)/2, against the Boole tail of x^-s of order K and
    # its remainder, order 0 (the term n^-s / 2, within 1/2 Int |f'|) and odd
    # orders among them
    import mpmath

    entries = exact._prefix(oracle._expansion(s, "boole", ((1, 1),)), 11)
    with mpmath.workprec(300):
        for n in (1, 2, 3, 7, 30):
            x, y = mpmath.mpf(n) / 2, mpmath.mpf(n + 1) / 2
            if s == 1:
                tau = (mpmath.digamma(y) - mpmath.digamma(x)) / 2
            else:
                tau = (mpmath.zeta(s, x) - mpmath.zeta(s, y)) / 2**s
            for K in (0, 1, 2, 3, 6, 7, 10):
                terms = [t for added, *_ in entries[:K + 1] for t in added]
                _, rem, q, _, (c, base, k) = entries[K]
                err = abs(tau - sum(_mp(a) * mpmath.mpf(n) ** -e for e, a, _ in terms))
                assert err <= _mp(rem) * c * (base * mpmath.pi) ** -k * mpmath.mpf(n) ** -q, (K, n)


@pytest.mark.parametrize("s", range(1, 6))
def test_tilde_terms_match_the_fraction_formula(s):
    # the Boole table of x^-s one power up, and the remainder's c, of order KB:
    # the terms that orders 0 to KB add in the tilde sum's prefix list, each a
    # Fraction stored with its natural log
    derivs = [(F(1, 2), 0), *map(numerics._boole_deriv, range(1, 83, 2))]
    for KB in range(6, 83, 2):
        terms = [(c * (-1) ** k * math.perm(s + k - 1, k), 0, s + k + 1) for c, k in derivs[:1 + KB // 2]]
        rem_c = F(4 * math.perm(s + KB - 1, KB), s + KB - 1)
        orders = exact._prefix(oracle._expansion(s, "boole", ((1, 1),)), KB + 1)[:KB + 1]
        added = [t for new, *_ in orders for t in new]
        assert all(type(a) is F and la == oracle._log_pos(a) for _, a, la in added), KB
        _, rem, q, log_rem, scale = orders[-1]
        assert type(rem) is F and log_rem == oracle._log_pos(rem) and q == s + KB - 1, KB
        assert scale == (1, 1, KB), KB
        assert (tuple((a, 0, e + 1) for e, a, _ in added), rem) == (tuple(terms), rem_c), KB


def test_order_one_expansion_reproduces_the_hand_table():
    # kind -> ((gamma multiple, ln 2 multiple) of the constant, terms to n^-4, D of D n^-6)
    table = {
        "H": ((1, 0), ((1, F(1, 2)), (2, F(-1, 12)), (4, F(1, 120))), F(1, 252)),
        "S": ((F(1, 2), 1), ((2, F(1, 48)), (4, F(-7, 1920))), F(33, 16128)),
        "H2N": ((1, 1), ((1, F(1, 4)), (2, F(-1, 48)), (4, F(1, 1920))), F(1, 16128)),
    }
    for kind, (const, terms, D) in table.items():
        combo = oracle._combo(kind, 1)
        assert (sum(c for c, _ in combo), sum(c for c, d in combo if d == 2)) == const
        assert _expansion(kind, 1, 2) == (terms, D, 6)


# -- tails of any order: N and K chosen together -------------------------------------


def _agrees_with_closed_form(sid, res) -> bool:
    """|oracle - closed form at 1,024 bits| within the sum of the two bounds."""
    ref = eval_sym(closed_form_for(sid), PrecisionContext(working_bits=1024))
    diff = abs(_frac(res.value.value_tuple()) - _frac(ref.value_tuple()))
    return diff <= _frac(res.value.err_tuple()) + _frac(ref.err_tuple())


# every closed form of weight <= 11, the benchmark ladder's nine sums among them
@pytest.mark.parametrize("sid", known_closed_form_ids(11), ids=str)
def test_closed_forms_agree_with_the_oracle_at_1e_100_and_512_bits(sid):
    res = oracle_eval(sid, OracleConfig(1e-100), PrecisionContext(working_bits=512))
    assert res.achieved_bound <= 1e-100
    assert _agrees_with_closed_form(sid, res)


def test_j2_at_1e_50_sums_a_short_head():
    res = oracle_eval(SumId.J(2), OracleConfig(1e-50), PrecisionContext(working_bits=256))
    assert res.terms_used <= 1024
    assert _agrees_with_closed_form(SumId.J(2), res)


@pytest.mark.parametrize("bits", [192, 256, 384, 512])
def test_cutoff_stays_short_at_the_precision_contract(bits):
    # tol = 2^-(bits - 40), 2^8 times the floor 2^-(bits - 32) of the default 32 guard bits
    ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(2.0 ** -(bits - 40))
    for sid in PINNED_TERMS:
        assert oracle_eval(sid, cfg, ctx).terms_used <= 4096, sid


# per odd max_terms, a tolerance certified at N = max_terms
_ODD_CUTOFF_TOL = {1: 2.0, 3: 1e-3, 17: 1e-20, 31: 1e-30, 33: 1e-30, 47: 1e-30}


@pytest.mark.parametrize("max_terms", _ODD_CUTOFF_TOL)
@pytest.mark.parametrize("a", [1, 2, 3])
def test_alt_euler_star_is_sound_at_odd_cutoffs(a, max_terms, ctx):
    # after an odd cutoff N the alternating tail starts with a negative term
    sid = SumId.alt_euler_star(a)
    res = oracle_eval(sid, OracleConfig(_ODD_CUTOFF_TOL[max_terms], max_terms), ctx)
    assert res.terms_used == max_terms
    ref = eval_sym(closed_form_for(sid), PrecisionContext(working_bits=1024))
    diff = abs(_frac(res.value.value_tuple()) - _frac(ref.value_tuple()))
    assert diff <= F(res.achieved_bound) + _frac(ref.err_tuple()), (a, max_terms, float(diff))


def test_cli_oracle_alt_euler_star_at_an_odd_cutoff(capsys):
    from eulersum import cli

    argv = ["oracle", "--family", "AltEulerStar", "--a", "1", "--tol", "1e-30", "--max-terms", "33"]
    assert cli.run([*argv, "--bits", "192"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == 33
    ref = eval_sym(closed_form_for(SumId.alt_euler_star(1)), PrecisionContext(working_bits=1024))
    # the printed value is within the printed bound (rounded to 4 digits), plus
    # half a unit of its last digit, of the closed form
    half_ulp = F(1, 2 * 10 ** len(doc["value"].split(".")[1]))
    slack = F(doc["bound"]) * F(1001, 1000) + half_ulp + _frac(ref.err_tuple())
    assert abs(F(doc["value"]) - _frac(ref.value_tuple())) <= slack


def test_values_and_oracle_results_survive_pickle_and_deepcopy():
    import copy
    import pickle

    def same(a, b):
        return (a.value_tuple(), a.err_tuple(), a.ctx) == (b.value_tuple(), b.err_tuple(), b.ctx)

    ctx = PrecisionContext(working_bits=200)
    res = oracle_eval(SumId.J(2), OracleConfig(1e-20), ctx)
    for copied in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
        assert type(copied) is oracle.OracleResult and type(copied.value) is numerics.BigReal
        assert (copied.achieved_bound, copied.terms_used) == (res.achieved_bound, res.terms_used)
        assert same(copied.value, res.value)
    for x in (res.value, numerics.zeta_num(3, ctx)):
        assert same(pickle.loads(pickle.dumps(x)), x) and same(copy.deepcopy(x), x)


def _cold_tables():
    for table in (numerics._pl_table, oracle._expansion, oracle._weight_expansion, oracle._harmonic_floats,
                  oracle._order_screen):
        table.cache_clear()


@pytest.mark.parametrize("sid", [SumId.J(2), SumId.sigma(2, 3), SumId.alt_tilde_h(1), SumId.alt_euler_star(1)],
                         ids=str)
def test_the_cutoff_search_grows_linearly_in_the_order(sid, monkeypatch):
    # a deterministic cost proxy: one cold search builds each table entry, and
    # takes each log of a coefficient, once, so both counts grow as the largest
    # order it screens, K, and not as K^2 (building each order's plan from
    # scratch took 1,036 and 6,142 logs for J(2) at the two rungs below); the
    # float entries it stores for the screen, H(p, m) for the powers p of the
    # terms with a log part (none in the remainder split and the tilde sum),
    # grow as K too (float prefix lists of log (p)_m and H(p, m) for every
    # power held 14,873 entries after J(2) at both rungs)
    counts = []
    for bits, tol in ((512, 1e-100), (1100, 1e-300)):
        ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=tol)
        _cold_tables()
        plans = _plan_of(sid, cfg, ctx, monkeypatch)
        monkeypatch.undo()
        orders, logs, entries, floats = [], [0], [0], [0]
        screen, log_pos, pl_entries = oracle._screen, oracle._log_pos, numerics._pl_entries
        float_entries = oracle._harmonic_float_entries

        def counted_screen(plans, K, N):
            orders.append(K)
            return screen(plans, K, N)

        def counted_log(x):
            logs[0] += 1
            return log_pos(x)

        def counted_entries(*key):
            for entry in pl_entries(*key):
                entries[0] += 1
                yield entry

        def counted_floats(*key):
            for entry in float_entries(*key):
                floats[0] += 1
                yield entry

        monkeypatch.setattr(oracle, "_screen", counted_screen)
        monkeypatch.setattr(oracle, "_log_pos", counted_log)
        monkeypatch.setattr(numerics, "_pl_entries", counted_entries)
        monkeypatch.setattr(oracle, "_harmonic_float_entries", counted_floats)
        oracle._select(cfg, plans, ctx)
        monkeypatch.undo()
        counts.append((max(orders), logs[0], entries[0], floats[0]))
    (k1, logs1, entries1, floats1), (k2, logs2, entries2, floats2) = counts
    r = k2 / k1
    assert r > 2, counts
    assert logs2 / logs1 < 1.25 * r and entries2 / entries1 < 1.25 * r, counts
    assert floats2 <= 1.25 * r * floats1 and floats2 <= 3 * k2 + 3, counts


@pytest.mark.parametrize("sid", [SumId.J(2), SumId.sigma(2, 3), SumId.alt_tilde_h(1), SumId.alt_euler_star(1)],
                         ids=str)
def test_the_chosen_tail_takes_linearly_many_steps_per_term(sid, monkeypatch):
    # a deterministic cost proxy: the chosen plan's bound and value are one
    # pass of the derivative recurrence (numerics._pl_tail), each of its T
    # terms run once down the rule's derivative orders, so the integer steps
    # per term grow as the order K, and the pass reads no coefficient table;
    # reading a table of order K for each of the T powers built 3,967 table
    # entries for the value of J(2) at the second rung below
    counts = []
    for bits, tol in ((512, 1e-100), (1100, 1e-300)):
        ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=tol)
        plans = _plan_of(sid, cfg, ctx, monkeypatch)
        monkeypatch.undo()
        N, plan, fx, _ = oracle._select(cfg, plans, ctx)
        _cold_tables()
        passes, entries = [], [0]
        pl_tail, pl_entries = numerics._pl_tail, numerics._pl_entries

        def counted_tail(rule, terms, X, K, fx, h=1):
            passes.append((len(terms), len(numerics._rule(rule, K)[3])))
            return pl_tail(rule, terms, X, K, fx, h)

        def counted_entries(*key):
            for entry in pl_entries(*key):
                entries[0] += 1
                yield entry

        monkeypatch.setattr(oracle, "_pl_tail", counted_tail)
        monkeypatch.setattr(numerics, "_pl_entries", counted_entries)
        again = plans(plan.tail[1] // 2 if plan.tail[0] == "boole" else plan.tail[1])  # a fresh plan of that order
        again.bound(N, fx)
        again.value(N, fx)
        monkeypatch.undo()
        assert again.tail == plan.tail and entries == [0] and len(passes) == 1, (passes, entries)
        (terms, steps), = passes
        counts.append((plan.tail[1], terms, steps))
    (k1, t1, s1), (k2, t2, s2) = counts
    r = k2 / k1
    assert r > 2, counts
    assert s1 <= k1 + 1 and s2 <= k2 + 1 and s2 / s1 < 1.25 * r, counts


def test_prefix_lists_grow_alike_under_concurrent_readers(monkeypatch):
    # threads growing the same cold prefix lists at once, with the interpreter
    # switching threads as often as it can, see and leave the entries that one
    # thread alone builds: none lost, repeated or out of order
    import random
    import sys
    import threading
    from itertools import islice

    keys = [(p, rule) for p in (1, 2, 3, 4) for rule in ("em", "boole")]
    tables = {key: list(islice(numerics._pl_entries(*key, ()), numerics._pl_length(*key, 60))) for key in keys}
    weights = list(islice(oracle._expansion_orders(2, "em", tuple((-c, d) for c, d in oracle._combo("S", 2)), ()), 41))
    kinds = [exact.plain(1), exact.semi(2), exact.alternating(3)]
    harmonics = {kind: list(islice(exact._harmonic_entries(kind, ()), 61)) for kind in kinds}
    floats = {p: list(islice(oracle._harmonic_float_entries(p, ()), 61)) for p in (1, 2, 5)}
    bernoullis = [bernoulli(n) for n in range(61)]
    wrong, interval = [], sys.getswitchinterval()

    def read(seed):
        rng = random.Random(seed)
        try:
            for K in rng.sample(range(61), 61):
                for p, rule in rng.sample(keys, len(keys)):
                    n = numerics._pl_length(p, rule, K)
                    if exact._prefix(numerics._pl_table(p, rule), n)[:n] != tables[p, rule][:n]:
                        wrong.append((p, rule, K))
                if exact._prefix(oracle._weight_expansion("S", 2), K // 3 + 1)[:K // 3 + 1] != weights[:K // 3 + 1]:
                    wrong.append(("S", K))
                for kind in rng.sample(kinds, len(kinds)):
                    if exact.harmonic(K, kind) != harmonics[kind][K]:
                        wrong.append((kind, K))
                for p in rng.sample(list(floats), len(floats)):
                    if exact._prefix(oracle._harmonic_floats(p), K + 1)[:K + 1] != floats[p][:K + 1]:
                        wrong.append(("H", p, K))
                if bernoulli(K) != bernoullis[K]:
                    wrong.append(("B", K))
        except Exception as e:  # recorded for the assertion below, which a thread cannot make
            wrong.append(repr(e))

    for attempt in range(5):
        _cold_tables()
        exact._prefixes.cache_clear()
        cold = []
        monkeypatch.setattr(exact, "_BERNOULLI", (cold, exact._bernoulli_entries))
        threads = [threading.Thread(target=read, args=(6 * attempt + i,)) for i in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong, wrong[:5]
        for key, table in tables.items():
            assert numerics._pl_table(*key)[0] == table, key
