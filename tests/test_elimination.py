"""Exact elimination over integer rows and the fixed-point residuals, against
the Fraction arithmetic they replace.

The reference below is Gauss-Jordan elimination with Fraction rows: each pivot
row is scaled to 1 at its unknown and subtracted from every other row.  The
integer rows must give the same pivots, pivot rows, degenerate rows and
row-space sums, and the residuals the same intervals as BigReal sums and as
the oracle sum minus eval_sym of the right-hand side.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from eulersum import (BigReal, OracleConfig, PrecisionContext, Relation, SumId, eval_sym, oracle_eval,
                      relations_for_weight, solve_weight, verify_sum_theorem)
from eulersum import closedform as cf
from eulersum import relations
from eulersum.numerics import fixed_dot, monomial_num
from eulersum.relations import _Echelon, tabulated_sigma_values
from eulersum.symexpr import LOG2, PI, SymExpr, odd_zeta


def _submul(row, other, c):
    coeffs = dict(row[0])
    for k, v in other[0].items():
        nv = coeffs.get(k, F(0)) - c * v
        if nv:
            coeffs[k] = nv
        else:
            coeffs.pop(k, None)
    return coeffs, row[1] - other[1].scaled(c)


def _gauss_jordan(unknowns, rows):
    """(pivots as (unknown, row index), reduced rows) by Fraction Gauss-Jordan."""
    rows = [(dict(c), rhs) for c, rhs in rows]
    pivots, remaining = [], list(range(len(rows)))
    for u in unknowns:
        pick = next((i for i in remaining if u in rows[i][0]), None)
        if pick is None:
            continue
        remaining.remove(pick)
        inv = 1 / rows[pick][0][u]
        rows[pick] = ({k: inv * v for k, v in rows[pick][0].items()}, rows[pick][1].scaled(inv))
        for i in range(len(rows)):
            if i != pick and u in rows[i][0]:
                rows[i] = _submul(rows[i], rows[pick], rows[i][0][u])
        pivots.append((u, pick))
    return pivots, rows


def _reference_sum(unknowns, pivots, rows):
    """The sum of the unknowns from the row space, or None."""
    ones = (dict.fromkeys(unknowns, F(1)), SymExpr.zero())
    for u, i in pivots:
        if u in ones[0]:
            ones = _submul(ones, rows[i], ones[0][u])
    return None if ones[0] else -ones[1]


def _assert_matches_reference(unknowns, rows):
    ech = _Echelon(unknowns, rows)
    pivots, ref = _gauss_jordan(unknowns, rows)
    index = {id(r): i for i, r in enumerate(ech.rows)}
    assert [(unknowns[u], index[id(row)]) for u, row in ech.pivots] == pivots
    for u, row in ech.pivots:
        i = index[id(row)]
        assert {unknowns[k]: F(v, row[u]) for k, v in row.items() if k >= 0} == ref[i][0]
        assert ech.rhs(row, row[u]) == ref[i][1]
    pivot_rows = {i for _, i in pivots}
    for i, row in enumerate(ech.rows):
        if i in pivot_rows:
            continue
        # no unknown is left, and the right-hand side is the reference's up to a factor
        coeffs, rhs = ref[i]
        assert not coeffs and all(k < 0 for k in row)
        if rhs.is_zero:
            assert not row
        else:
            mono, c = next(iter(rhs.items()))
            got = ech.rhs(row, 1)
            assert got == rhs.scaled(got.coefficient(mono) / c)
    assert ech.unknowns_sum() == _reference_sum(unknowns, pivots, ref)


_MONOS = [(), ((PI, 2),), ((LOG2, 1),), ((PI, 1), (odd_zeta(3), 1))]
_nonzero = st.builds(lambda s, n, d: F(s * n, d), st.sampled_from([1, -1]), st.integers(1, 12), st.integers(1, 6))
_rhs = st.dictionaries(st.sampled_from(_MONOS), _nonzero, max_size=3).map(SymExpr)


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 5))
    unknowns = [f"x{i}" for i in range(n)]
    row = st.tuples(st.dictionaries(st.sampled_from(unknowns), _nonzero, max_size=n), _rhs)
    rows = draw(st.lists(row, max_size=8))
    # scaled copies of rows, some with a shifted right-hand side: a copy
    # reduces to 0 = 0, a shifted copy to 0 = (non-zero)
    for k, shift in draw(st.lists(st.tuples(_nonzero, _rhs), max_size=3)):
        if rows:
            coeffs, rhs = rows[draw(st.integers(0, len(rows) - 1))]
            rows.insert(draw(st.integers(0, len(rows))), ({u: k * v for u, v in coeffs.items()}, rhs.scaled(k) + shift))
    return unknowns, rows


_x, _y = "x0", "x1"
_a = SymExpr.atom(PI, 2, F(1, 6))
_b = SymExpr.atom(LOG2) + SymExpr.rational(3)


@settings(max_examples=300, deadline=None)
@given(system=_systems())
@example(system=([_x, _y], [
    ({}, SymExpr.zero()),                                   # zero row
    ({_x: F(2), _y: F(-3, 4)}, _a),
    ({_x: F(-4), _y: F(3, 2)}, _a.scaled(-2)),             # duplicate, scaled
    ({_x: F(2), _y: F(-3, 4)}, _a + _b),                   # inconsistent with the first
    ({}, _b),                                               # inconsistent as given
    ({_y: F(5, 3)}, _b),
]))
def test_integer_elimination_matches_fraction_gauss_jordan(system):
    _assert_matches_reference(*system)


@pytest.mark.parametrize("w", range(3, 21))
def test_solve_weight_matches_fraction_gauss_jordan(w):
    unknowns, _, rows = relations._system(w, [tabulated_sigma_values])
    _assert_matches_reference(unknowns, rows)
    pivots, ref = _gauss_jordan(unknowns, rows)
    solved = {u: ref[i][1] for u, i in pivots if set(ref[i][0]) == {u}}
    rep = solve_weight(w, with_residuals=False)
    assert rep.weight == w
    assert list(rep.solved.items()) == list(solved.items())
    assert rep.unresolved == [u for u in unknowns if u not in solved]
    assert rep.rank == len(pivots)
    assert rep.relations_used == len(rows)
    assert rep.residual_checks == []
    assert rep.inconsistent == [i for i, (c, rhs) in enumerate(ref) if not c and not rhs.is_zero]
    assert relations._sum_via_rowspace(w) == _reference_sum(unknowns, pivots, ref)


def _frac(t) -> F:
    sign, man, exp, _ = t
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _big_sum(pairs, ctx) -> BigReal:
    """sum of c * v term by term in BigReal: the arithmetic fixed_dot replaced."""
    acc = BigReal.zero(ctx)
    for c, v in pairs:
        acc = acc + v * c
    return acc


def _assert_same_interval(fixed: BigReal, big: BigReal, pairs):
    """The intervals meet, the fixed-point bound exceeds the BigReal one by at
    most 2^-150 and covers the inputs' errors scaled by |c|."""
    fv, fe, bv, be = (_frac(t) for t in (fixed.value_tuple(), fixed.err_tuple(), big.value_tuple(), big.err_tuple()))
    assert abs(fv - bv) <= fe + be
    assert fe <= be + F(1, 2**150)
    assert fe >= sum(abs(c) * _frac(v.err_tuple()) for c, v in pairs)


@pytest.mark.parametrize("w", range(3, 13))
def test_relation_difference_matches_bigreal_sum(w, ctx, cfg):
    for rel in relations_for_weight(w):
        pairs = [(c, oracle_eval(sid, cfg, ctx).value) for sid, c in rel.coeffs.items()]
        pairs.append((-1, eval_sym(rel.rhs, ctx)))
        d = rel.difference(ctx, cfg)
        _assert_same_interval(d, _big_sum(pairs, ctx), pairs)
        assert rel.residual_and_bound(ctx, cfg) == (abs(float(d)), d.err_float())


@pytest.mark.parametrize("w", range(3, 11))
def test_sum_theorem_residual_matches_bigreal_sum(w, ctx, cfg):
    pairs = [(1, oracle_eval(SumId.sigma(w - i, i), cfg, ctx).value) for i in range(1, w - 1)]
    pairs.append((-1, eval_sym(cf.sigma_weight_sum(w), ctx)))
    d = fixed_dot(pairs, ctx)
    _assert_same_interval(d, _big_sum(pairs, ctx), pairs)
    rep = verify_sum_theorem(w, ctx, cfg)
    assert (rep.numeric_residual, rep.numeric_bound) == (abs(float(d)), d.err_float())


def _folded_cases():
    """Every generated relation of weight 3..12, then the one-term relation
    sid = closed form of every known closed form of weight <= 11."""
    for w in range(3, 13):
        yield from relations_for_weight(w)
    for sid in cf.known_closed_form_ids(11):
        yield Relation({sid: 1}, cf.closed_form_for(sid))


@pytest.mark.parametrize("bits, tol", [(192, 1e-10), (256, 1e-20)])
def test_folded_difference_is_sound_and_agrees_with_eval_sym(bits, tol):
    # difference folds the right-hand side's monomials into the oracle's dot
    # product; the sum it replaced evaluated the right-hand side on its own
    ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=tol)
    for rel in _folded_cases():
        d = rel.difference(ctx, cfg)
        dv, de = _frac(d.value_tuple()), _frac(d.err_tuple())
        assert abs(dv) <= de, rel
        pairs = [(c, oracle_eval(sid, cfg, ctx).value) for sid, c in rel.coeffs.items()]
        monos = [(r, monomial_num(m, ctx)) for m, r in rel.rhs.items()]
        assert de >= sum(abs(c) * _frac(v.err_tuple()) for c, v in pairs + monos), rel
        unfolded = fixed_dot(pairs, ctx) - eval_sym(rel.rhs, ctx)
        assert abs(dv - _frac(unfolded.value_tuple())) <= de + _frac(unfolded.err_tuple()), rel
