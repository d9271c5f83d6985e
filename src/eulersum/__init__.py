"""Exact and high-precision evaluation of Jordan's sums and sigma-Euler sums.

The package has three layers:

* symbolic: closed forms as exact rational combinations over the constant
  basis {pi, log 2, zeta(odd), li4(1/2)} (`closedform`, `symexpr`, `exact`);
* numeric: certified evaluation of those expressions and of the defining
  series themselves (`numerics`, `oracle`);
* relational: generation and exact solution of the linear relations among
  sigma-sums of one weight, including the sigma-sum theorem (`relations`).

A CLI (`eulersum ...` or `python -m eulersum.cli ...`) exposes all of it.
"""

from .exact import HarmonicKind, alternating, bernoulli, harmonic, plain, semi
from .numerics import (
    BigReal,
    PrecisionContext,
    PrecisionExhausted,
    const_gamma,
    const_log2,
    const_pi,
    eval_sym,
    li4_half_num,
    zeta_num,
)
from .oracle import BudgetExhausted, OracleConfig, OracleResult, oracle_eval, partial_sum
from .relations import (
    Relation,
    SolveReport,
    SumTheoremReport,
    even_order_relation,
    folded_relation,
    gen_product_relation,
    reduction_relation,
    relations_for_weight,
    solve_weight,
    verify_sum_theorem,
)
from .sums import SumId
from .symexpr import (
    Atom,
    LI4_HALF,
    LOG2,
    PI,
    SymExpr,
    eta_sym,
    lambda_sym,
    odd_zeta,
    zeta_sym,
)
from . import closedform

__version__ = "0.1.0"
