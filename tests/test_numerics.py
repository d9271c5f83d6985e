import copy
import importlib
import pkgutil
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

import eulersum
from eulersum import (
    BigReal,
    HarmonicKind,
    OracleConfig,
    PrecisionContext,
    PrecisionExhausted,
    Relation,
    const_gamma,
    const_log2,
    const_pi,
    eval_sym,
    li4_half_num,
    zeta_num,
)
from eulersum.closedform import closed_form_for, known_closed_form_ids
from eulersum.numerics import GUARD_BITS, atom_num, monomial_num
from eulersum.sums import SumId
from eulersum.symexpr import LOG2, PI, SymExpr, lambda_sym, zeta_sym


# ---------------------------------------------------------------------------
# independent rational oracles for the constants (alternating/geometric
# brackets computed in exact arithmetic, so the bounds are proofs)
# ---------------------------------------------------------------------------


def _atan_inv_bracket(q: int, terms: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) enclosing atan(1/q) from the alternating Taylor series."""
    s = Fraction(0)
    lo = hi = None
    for k in range(terms):
        term = Fraction((-1) ** k, (2 * k + 1) * q ** (2 * k + 1))
        s += term
        if k >= terms - 2:
            if term > 0:
                hi = s
            else:
                lo = s
    return (lo, hi) if lo < hi else (hi, lo)


def _pi_bracket() -> tuple[Fraction, Fraction]:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    lo5, hi5 = _atan_inv_bracket(5, 60)
    lo239, hi239 = _atan_inv_bracket(239, 30)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _log2_bracket() -> tuple[Fraction, Fraction]:
    # log 2 = sum 1/(n 2^n); tail after N is < 2^-N
    N = 200
    s = sum(Fraction(1, n * 2**n) for n in range(1, N + 1))
    return s, s + Fraction(1, 2**N)


def _gamma_bracket() -> tuple[Fraction, Fraction]:
    # gamma = H_N - ln N - 1/(2N) + 1/(12 N^2) - 1/(120 N^4) + theta/(252 N^6)
    # with N = 64 = 2^6, so ln N = 6 log 2 from the log2 bracket.
    N = 64
    H = sum(Fraction(1, k) for k in range(1, N + 1))
    l2lo, l2hi = _log2_bracket()
    base = H - Fraction(1, 2 * N) + Fraction(1, 12 * N**2) - Fraction(1, 120 * N**4)
    return base - 6 * l2hi, base - 6 * l2lo + Fraction(1, 252 * N**6)


def _tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    if man == 0 and exp == 0:
        return Fraction(0)
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _assert_in_bracket(value: BigReal, lo: Fraction, hi: Fraction):
    # fully exact comparison: the computed value +/- its error bound must
    # intersect the independently proven rational bracket, and the center
    # must not escape the bracket by more than the error bound
    v = _tuple_to_fraction(value.value_tuple())
    e = _tuple_to_fraction(value.err_tuple())
    assert v - e <= hi and v + e >= lo
    assert lo - e <= v <= hi + e


def test_const_pi_against_machin(ctx):
    lo, hi = _pi_bracket()
    assert hi - lo < Fraction(1, 10**40)
    _assert_in_bracket(const_pi(ctx), lo, hi)
    assert const_pi(ctx).decimal(21) == "3.14159265358979323846"


def test_const_log2_against_series(ctx):
    lo, hi = _log2_bracket()
    _assert_in_bracket(const_log2(ctx), lo, hi)
    assert const_log2(ctx).decimal(21) == "0.693147180559945309417"


def test_const_gamma_against_euler_maclaurin(ctx):
    lo, hi = _gamma_bracket()
    assert hi - lo < Fraction(1, 10**10)
    _assert_in_bracket(const_gamma(ctx), lo, hi)
    assert const_gamma(ctx).decimal(21) == "0.577215664901532860607"


def test_zeta_num_against_mpmath(ctx):
    mp.prec = 260
    for s in range(2, 14):
        mine = mpf(zeta_num(s, ctx).value_tuple())
        assert abs(mine - mp.zeta(s)) < mpf(2) ** -185, s


def test_zeta_num_spec_digits(ctx):
    assert zeta_num(2, ctx).decimal(21) == "1.64493406684822643647"
    assert zeta_num(3, ctx).decimal(21) == "1.2020569031595942854"
    assert zeta_num(5, ctx).decimal(21) == "1.03692775514336992633"


def test_zeta_num_rejects_small_s(ctx):
    with pytest.raises(ValueError):
        zeta_num(1, ctx)


def test_bernoulli_vs_direct_zeta_routes(ctx):
    # eval_sym(zeta_sym(2k)) goes through pi; zeta_num(2k) is direct summation
    for k in range(1, 9):
        a = eval_sym(zeta_sym(2 * k), ctx)
        b = zeta_num(2 * k, ctx)
        d = abs(float(a - b))
        assert d < 2.0 ** -ctx.contract_bits * 4, (k, d)


def test_li4_half_value(ctx):
    mp.prec = 260
    mine = mpf(li4_half_num(ctx).value_tuple())
    assert abs(mine - mp.polylog(4, mpf(1) / 2)) < mpf(2) ** -185
    assert li4_half_num(ctx).decimal(21) == "0.517479061673899386331"


def test_li4_half_partial_sums_exact():
    # defining series prefixes: 1/2, then 1/2 + 1/64
    terms = [Fraction(1, 2**n * n**4) for n in range(1, 3)]
    assert terms[0] == Fraction(1, 2)
    assert terms[0] + terms[1] == Fraction(33, 64)
    assert float(terms[0] + terms[1]) == 0.515625


def test_lambda_identity_numeric(ctx):
    for s in range(2, 13):
        a = eval_sym(lambda_sym(s), ctx)
        b = zeta_num(s, ctx) * (1 - Fraction(1, 2**s))
        assert abs(float(a - b)) < 1e-45


def test_eval_sym_examples(ctx):
    v = eval_sym(zeta_sym(3).scaled(Fraction(7, 4)), ctx)
    assert v.decimal(15) == "2.10359958052929"
    z = eval_sym(SymExpr.zero(), ctx)
    assert z.is_exact and float(z) == 0.0


def test_eval_sym_linearity_randomized(ctx):
    rng = random.Random(99)
    pool = [zeta_sym(3), lambda_sym(4), SymExpr.atom(LOG2), SymExpr.atom(PI, 2), zeta_sym(5)]
    for _ in range(25):
        a = sum((rng.choice(pool).scaled(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(2)), SymExpr.zero())
        b = sum((rng.choice(pool).scaled(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(2)), SymExpr.zero())
        lhs = eval_sym(a, ctx) + eval_sym(b, ctx)
        try:
            rhs = eval_sym(a + b, ctx)
        except PrecisionExhausted:
            continue  # a + b normalized into a catastrophic cancellation; fine
        assert abs(float(lhs - rhs)) <= lhs.err_float() + rhs.err_float() + 1e-50


def _eval_sym_per_term(e: SymExpr, ctx: PrecisionContext) -> BigReal:
    """Reference: every atom power rebuilt for every term, nothing cached."""
    acc = BigReal.zero(ctx)
    for mono, coeff in e.terms():
        term = BigReal.from_fraction(coeff, ctx)
        for atom, exp in mono:
            term = term * atom_num(atom, ctx) ** exp
        acc = acc + term
    return acc


@pytest.mark.parametrize("bits", [192, 1024])
def test_eval_sym_agrees_with_per_term_reference(bits):
    ctx = PrecisionContext(working_bits=bits)
    for sid in known_closed_form_ids(13):
        e = closed_form_for(sid)
        got, ref = eval_sym(e, ctx), _eval_sym_per_term(e, ctx)
        diff = abs(_tuple_to_fraction(got.value_tuple()) - _tuple_to_fraction(ref.value_tuple()))
        assert diff <= _tuple_to_fraction(got.err_tuple()) + _tuple_to_fraction(ref.err_tuple()), sid
        # one fixed-point sum, rounded once, counts no more than the BigReal sum of products
        assert _tuple_to_fraction(got.err_tuple()) <= _tuple_to_fraction(ref.err_tuple()), sid


def test_eval_sym_builds_each_result_at_its_own_precision():
    # monomial values are cached per context; an equal context shares them
    e = closed_form_for(SumId.J(3))
    contexts = [PrecisionContext(working_bits=192), PrecisionContext(working_bits=256),
                PrecisionContext(working_bits=256)]
    vals = [eval_sym(e, c) for c in contexts]
    for c, v in zip(contexts, vals):
        assert v.ctx is c and v.meets_contract()
    lo, hi = vals[0], vals[1]
    assert abs(_tuple_to_fraction(lo.value_tuple()) - _tuple_to_fraction(hi.value_tuple())) <= _tuple_to_fraction(lo.err_tuple())
    assert hi.err_float() < lo.err_float() * 2.0**-60
    assert vals[2].value_tuple() == hi.value_tuple() and vals[2].err_tuple() == hi.err_tuple()


@pytest.mark.parametrize("bits", [192, 1024])
def test_equal_contexts_share_one_cached_value(bits):
    # the caches key on the context, so an equal but distinct one gets back the
    # value already built, in the context of the caller that built it
    a, b = PrecisionContext(working_bits=bits), PrecisionContext(working_bits=bits)
    assert a == b and a is not b
    for make in (const_pi, lambda c: zeta_num(5, c), li4_half_num,
                 lambda c: monomial_num(((PI, 2), (LOG2, 1)), c)):
        x = make(a)
        assert make(b) is x and x.ctx == b


def test_every_module_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(eulersum.__path__):
        module = importlib.import_module(f"eulersum.{info.name}")
        # module functions, and the static methods of the module's classes
        found = list(vars(module).items())
        found += [(f"{name}.{attr}", v.__func__) for name, value in vars(module).items()
                  if isinstance(value, type) for attr, v in vars(value).items() if isinstance(v, staticmethod)]
        for name, value in found:
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"numerics._lib_const", "numerics._zeta", "numerics._li4_half",
            "numerics._monomial_num", "numerics._pl_table", "numerics._rule", "numerics._pi_power_up",
            "oracle._expansion", "oracle._weight_expansion", "oracle._harmonic_floats", "oracle._order_screen",
            "oracle._cached",
            "exact._prefixes",
            "relations._lambda_product", "sums.SumId.sigma", "sums._series"} <= set(caches)
    assert all(size is not None for size in caches.values()), caches


def test_monotone_precision():
    small = PrecisionContext(working_bits=128)
    big = PrecisionContext(working_bits=256)
    for e in (zeta_sym(3).scaled(Fraction(7, 4)), lambda_sym(2) * lambda_sym(5), SymExpr.atom(LOG2, 4)):
        lo = eval_sym(e, small)
        hi = eval_sym(e, big)
        # the higher-precision result stays inside the lower-precision bound
        assert abs(_tuple_to_fraction(lo.value_tuple()) - _tuple_to_fraction(hi.value_tuple())) <= _tuple_to_fraction(lo.err_tuple())
        assert hi.err_float() < lo.err_float()


def test_precision_exhausted_on_cancellation(ctx):
    # zeta(3) minus its own 170-bit truncation: value ~ 2^-171, guard bits gone
    z3 = zeta_num(3, ctx)
    approx = Fraction(int(float(z3) * 2**60), 2**60)
    mp.prec = 260
    exact_trunc = mpf(z3.value_tuple())
    num = int(exact_trunc * 2**170)
    expr = zeta_sym(3) - SymExpr.rational(Fraction(num, 2**170))
    with pytest.raises(PrecisionExhausted):
        eval_sym(expr, ctx)


def test_bigreal_division_guard(ctx):
    tiny = BigReal(ctx, from_man_exp(1, -200), from_man_exp(1, -190))
    with pytest.raises(PrecisionExhausted):
        BigReal.from_int(1, ctx) / tiny


def test_bigreal_decimal_never_overstates(ctx):
    v = const_pi(ctx)
    d = v.certified_digits()
    assert d > 40
    s = v.decimal()
    assert len(s.replace(".", "").lstrip("-")) <= d + 1


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(working_bits=32)
    with pytest.raises(TypeError):  # the guard bits are the constant GUARD_BITS
        PrecisionContext(working_bits=128, guard_bits=32)
    assert PrecisionContext(working_bits=128).contract_bits == 128 - GUARD_BITS


@pytest.mark.parametrize("bits", [100.5, 256.0, True, "192"])
def test_context_refuses_a_width_that_is_not_an_integer(bits):
    # 100.5 used to be accepted and fail later inside FixedPoint
    with pytest.raises(ValueError, match="integer"):
        PrecisionContext(working_bits=bits)


@pytest.mark.parametrize("make,other", [
    (lambda: PrecisionContext(working_bits=256), PrecisionContext(working_bits=257)),
    (lambda: OracleConfig(target_tolerance=1e-20, max_terms=500), OracleConfig(target_tolerance=1e-20)),
    (lambda: HarmonicKind("semi", 3), HarmonicKind("plain", 3)),
    (lambda: SumId.E(2, 3), SumId.E(3, 2)),
    (lambda: Relation({SumId.J(3): 2}, zeta_sym(3)), Relation({SumId.J(3): 1}, zeta_sym(3))),
], ids=["PrecisionContext", "OracleConfig", "HarmonicKind", "SumId", "Relation"])
def test_value_records_are_immutable_and_compare_by_value(make, other):
    a, b = make(), make()
    assert a == b and a is not b and a != other and copy.copy(a) == a
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
    if isinstance(a, Relation):
        with pytest.raises(TypeError):  # its coefficients are a dict
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b, other}) == 2


def test_config_repr_is_unchanged():
    assert repr(OracleConfig()) == "OracleConfig(target_tolerance=1e-10, max_terms=10000000)"
