"""How the summation oracle certifies its values.

Every series is summed at its definition: a short exactly-tracked head plus a
tail from Euler-Maclaurin (or Boole summation for the alternating families)
with a worst-case remainder bound.  The reported bound covers head rounding,
asymptotic-expansion remainders and the tail correction error, so tightening
the tolerance can only shrink the interval around the same limit.
Run with:  python demos/03_oracle_summation.py
"""

from eulersum import BudgetExhausted, OracleConfig, PrecisionContext, SumId, oracle_eval, partial_sum
from eulersum.cli import _bound

ctx = PrecisionContext(working_bits=192)

print("Tolerance ladder for sigma(2,3) = sum S_n^(3) / n^2")
print("=" * 64)
sid = SumId.sigma(2, 3)
for tol in (1e-8, 1e-12, 1e-16, 1e-24, 1e-32):
    res = oracle_eval(sid, OracleConfig(target_tolerance=tol), ctx)
    print(f"tol {tol:8.0e}:  {res.value.decimal(36):40s} bound {_bound(res.achieved_bound, 2)}  head {res.terms_used}")
print()

print("Exact rational prefixes of the defining series (regression anchors)")
print("=" * 64)
for sid2, n in [(SumId.J(2), 1), (SumId.J(2), 2), (SumId.J(2), 4), (SumId.sigma(2, 3), 2)]:
    print(f"first {n} terms of {sid2}: {partial_sum(sid2, n)}")
print()

print("Alternating families go through Boole summation")
print("=" * 64)
for sid3 in (SumId.alt_euler_star(1), SumId.alt_euler_star(3), SumId.alt_tilde_h(1), SumId.alt_tilde_h(2)):
    res = oracle_eval(sid3, OracleConfig(target_tolerance=1e-14), ctx)
    print(f"{str(sid3):18s} {res.value.decimal(24):28s} bound {_bound(res.achieved_bound, 2)}")
print()

print("The term budget is enforced, not silently ignored")
print("=" * 64)
try:
    oracle_eval(SumId.sigma(2, 2), OracleConfig(target_tolerance=1e-24, max_terms=8), ctx)
except BudgetExhausted as e:
    print(f"BudgetExhausted: {e}")
