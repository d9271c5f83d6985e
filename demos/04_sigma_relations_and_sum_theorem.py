"""Linear relations among sigma-sums of one weight, solved exactly.

sigma(s,t) = sum_n S_n^(t) / n^s has weight s+t.  Products lambda(k)lambda(l)
and the reduction of sigma(s,t) to its equal-weight relatives give exact
rational relations; solving them recovers the tabulated weight-7 values and
certifies the sum theorem  sum_{i=1..w-2} sigma(w-i,i) = (w-1) lambda(w).
Run with:  python demos/04_sigma_relations_and_sum_theorem.py
"""

from eulersum import (
    OracleConfig,
    PrecisionContext,
    SumId,
    eval_sym,
    gen_product_relation,
    oracle_eval,
    solve_weight,
    verify_sum_theorem,
)

ctx = PrecisionContext(working_bits=192)
cfg = OracleConfig(target_tolerance=1e-12)

print("A product relation and its oracle residual")
print("=" * 70)
rel = gen_product_relation(2, 5)
print(rel)
print(f"residual with oracle values: {rel.residual(ctx, cfg):.2e}")
print()

print("Solving weight 7")
print("=" * 70)
rep = solve_weight(7, ctx=ctx, cfg=cfg)
print(f"rank {rep.rank} from {rep.relations_used} rows; unresolved: {rep.unresolved or 'none'}")
for sid, expr in sorted(rep.solved.items()):
    print(f"  {sid} = {expr}")
print(f"residuals of the generated relations: "
      + ", ".join(f"{r:.1e}" for _, r in rep.residual_checks))
print()

print("Weight 9: the reduction relations close the system")
print("=" * 70)
rep9 = solve_weight(9, with_residuals=False)
for sid, expr in sorted(rep9.solved.items()):
    ours = eval_sym(expr, ctx)
    orc = oracle_eval(sid, cfg, ctx)
    print(f"  {sid} = {expr}")
    print(f"      solved {ours.decimal(22)}   oracle {orc.value.decimal(22)}")
print()

print("The sigma-sum theorem, weights 3..10")
print("=" * 70)
for w in range(3, 11):
    rep = verify_sum_theorem(w, ctx, cfg)
    print(f"w={w:2d}: numeric residual {rep.numeric_residual:.2e}   symbolic: {rep.symbolic_ok}   via {rep.path}")
