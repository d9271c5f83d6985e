"""Tour of Jordan's sums: closed forms, the reflection relation, li4(1/2) cases.

The two families are

    J(b)    = sum_{n>=1} S_n / n^b,
    Jbar(b) = sum_{n>=1} S_n / (2n-1)^b,      S_n = 1 + 1/3 + ... + 1/(2n-1).

Even arguments have closed forms over {pi, log 2, zeta(odd)}; b = 3 needs the
extra constant li4(1/2).  Run with:  python demos/01_jordan_sums.py
"""

from fractions import Fraction

from eulersum import OracleConfig, PrecisionContext, SumId, eval_sym, oracle_eval
from eulersum.cli import _bound
from eulersum.closedform import (
    closed_form_for,
    jordan_3,
    jordan_bar_3,
    jordan_bar_even,
    jordan_even,
    jordan_reflection,
)

ctx = PrecisionContext(working_bits=192)
cfg = OracleConfig(target_tolerance=1e-12)


def show(label, expr, sid):
    num = eval_sym(expr, ctx)
    orc = oracle_eval(sid, cfg, ctx)
    print(f"{label:10s} = {expr}")
    print(f"{'':10s}   closed form {num.decimal(25)}")
    print(f"{'':10s}   oracle      {orc.value.decimal(25)}   (bound {_bound(orc.achieved_bound, 2)}, {orc.terms_used} head terms)")
    print()


print("Even Jordan sums J(2a) and Jbar(2a)")
print("=" * 60)
for a in (1, 2, 3):
    show(f"J({2 * a})", jordan_even(a), SumId.J(2 * a))
    show(f"Jbar({2 * a})", jordan_bar_even(a), SumId.Jbar(2 * a))

print("The odd case b = 3 brings in li4(1/2)")
print("=" * 60)
show("J(3)", jordan_3(), SumId.J(3))
show("Jbar(3)", jordan_bar_3(), SumId.Jbar(3))

print("Reflection relation: Jbar(b) + (-1)^(b-1) 2^-b J(b) is elementary for ALL b")
print("=" * 60)
for b in (2, 3, 4, 5, 6):
    rhs = jordan_reflection(b)
    combo = oracle_eval(SumId.Jbar(b), cfg, ctx).value + oracle_eval(SumId.J(b), cfg, ctx).value * Fraction(
        (-1) ** (b - 1), 2**b
    )
    print(f"b={b}:  {rhs}")
    print(f"      symbolic side {eval_sym(rhs, ctx).decimal(25)}")
    print(f"      oracle combo  {combo.decimal(25)}")
    # b = 5: neither J(5) nor Jbar(5) has a known elementary form, yet the
    # combination does -- the relation pins one in terms of the other.
    if closed_form_for(SumId.J(b)) is None:
        print(f"      (no elementary J({b}) is known; the combination still is)")
    print()
