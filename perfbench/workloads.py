"""The benchmark's workloads: the CLI ops each one runs, and the checks on their output.

Every op is an argv list for ``eulersum.cli.run``.  Every op passes ``--bits``
so that no environment default can change the work.  The seed fixes the op
order only; the set of ops is the same for every seed.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal

import mpmath

# The 109 ids of known_closed_form_ids(13) at the time the benchmark was
# defined, written out so that a later change to that function cannot change
# the workload unnoticed.
CLOSED_FORM_IDS = (
    "J:2 Jbar:2 EulerStar:2 h:2 J:3 Jbar:3 EulerStar:3 h:3 J:4 Jbar:4 EulerStar:4 h:4 "
    "EulerStar:5 h:5 J:6 Jbar:6 EulerStar:6 h:6 EulerStar:7 h:7 J:8 Jbar:8 EulerStar:8 h:8 "
    "EulerStar:9 h:9 J:10 Jbar:10 EulerStar:10 h:10 EulerStar:11 h:11 J:12 Jbar:12 "
    "EulerStar:12 h:12 Z:1 HoddOverOdd:1 AltEulerStar:1 AltTildeH:1 Z:2 HoddOverOdd:2 "
    "AltEulerStar:2 AltTildeH:2 Z:3 HoddOverOdd:3 AltEulerStar:3 AltTildeH:3 Z:4 "
    "HoddOverOdd:4 AltEulerStar:4 AltTildeH:4 Z:5 HoddOverOdd:5 AltEulerStar:5 AltTildeH:5 "
    "Z:6 HoddOverOdd:6 AltEulerStar:6 AltTildeH:6 sigma:2,1 sigma:2,2 sigma:2,3 sigma:2,5 "
    "sigma:2,7 sigma:2,9 sigma:2,11 sigma:3,1 sigma:3,2 sigma:3,4 sigma:4,1 sigma:4,3 "
    "sigma:5,2 sigma:6,1 sigma:6,3 sigma:7,2 sigma:8,1 sigma:8,3 sigma:9,2 sigma:10,1 "
    "sigma:10,3 sigma:11,2 ZetaStar:2,1 E:1,2 ZetaStar:3,1 ZetaStar:3,2 E:2,3 ZetaStar:4,1 "
    "E:1,4 ZetaStar:5,1 ZetaStar:5,2 E:2,5 ZetaStar:6,1 E:1,6 ZetaStar:7,1 ZetaStar:7,2 "
    "E:2,7 ZetaStar:8,1 E:1,8 ZetaStar:9,1 ZetaStar:9,2 E:2,9 ZetaStar:10,1 E:1,10 "
    "ZetaStar:11,1 ZetaStar:11,2 E:2,11 ZetaStar:12,1 E:1,12"
).split()

# Parameter flag names per family, in SumId order.
PARAM_FLAGS = {
    "J": ("b",), "Jbar": ("b",), "EulerStar": ("b",), "h": ("q",), "Z": ("a",),
    "HoddOverOdd": ("a",), "AltEulerStar": ("a",), "AltTildeH": ("a",),
    "sigma": ("s", "t"), "ZetaStar": ("q", "p"), "E": ("p", "q"),
}

# One sum per oracle evaluator path: weighted (plain and kernel), remainder
# split (sigma, ZetaStar, E), Boole (AltEulerStar) and the alternating tilde sum.
LADDER_SUMS = ("J:2", "J:4", "Jbar:3", "h:3", "sigma:2,3", "ZetaStar:3,2", "E:2,3",
               "AltEulerStar:1", "AltTildeH:1")
# (bits, tolerance) rungs.  The head length N grows as the tolerance tightens.
LADDER_RUNGS = (("192", "1e-20"), ("192", "1e-25"), ("256", "1e-32"))

VERIFY_ARGV = ["verify", "--weight", "3..10", "--tol", "1e-20", "--bits", "256"]
VERIFY_CHECKS = 159
HIPREC_BITS = ("1024", "2048", "4096")
SOLVE_WEIGHTS = range(3, 21)
SOLVE_TOL = 1e-10

# sigma(4,3) and sigma(3,4) as the paper states them, as terms of
# lambda(7), lambda(2) lambda(5) and lambda(3) lambda(4).
PAPER_WEIGHT7 = {
    "sigma(4, 3)": {(7,): 120, (2, 5): -96},
    "sigma(3, 4)": {(7,): -80, (3, 4): 8, (2, 5): "176/3"},
}


def _sum_flags(spec: str) -> list[str]:
    family, params = spec.split(":")
    flags = ["--family", family]
    for name, value in zip(PARAM_FLAGS[family], params.split(",")):
        flags += [f"--{name}", value]
    return flags


WORKLOADS = ("verify-deep", "oracle-ladder", "closed-forms-hiprec", "solve-sweep")


def _weight(spec: str) -> int:
    family, params = spec.split(":")
    p = [int(x) for x in params.split(",")]
    if family in ("Z", "HoddOverOdd", "AltEulerStar", "AltTildeH"):
        return 2 * p[0] + 1
    return p[0] + 1 if len(p) == 1 else p[0] + p[1]


def _op_groups(name: str) -> list[list[list[str]]]:
    """The workload's ops in groups; the seed shuffles ops only within a group.

    closed-forms-hiprec has one group per (bits, weight).  Its slowest ops are
    the first to need a constant at a new precision, and a free shuffle would
    let one op pay for all of them on one seed and for none on another, so
    op_max_s would measure the seed.
    """
    if name == "verify-deep":
        return [[list(VERIFY_ARGV)]]
    if name == "oracle-ladder":
        return [[["oracle", *_sum_flags(s), "--tol", tol, "--bits", bits]
                 for bits, tol in LADDER_RUNGS for s in LADDER_SUMS]]
    if name == "closed-forms-hiprec":
        weights = sorted({_weight(s) for s in CLOSED_FORM_IDS})
        return [[["eval", *_sum_flags(s), "--bits", bits] for s in CLOSED_FORM_IDS if _weight(s) == w]
                for bits in HIPREC_BITS for w in weights]
    if name == "solve-sweep":
        return [[["solve", "--weight", str(w), "--bits", "192"] for w in SOLVE_WEIGHTS]]
    raise KeyError(name)


def make_ops(name: str, seed: int) -> list[list[str]]:
    """The workload's ops in the order fixed by seed."""
    rng = random.Random(seed)
    ops = []
    for group in _op_groups(name):
        rng.shuffle(group)
        ops += group
    return ops


# -- output checks -------------------------------------------------------------
#
# Each checker takes the ops of one pass that printed output, as dicts with
# "argv" and "out", and returns for each op a problem string if its output is
# wrong, else None.


def _half_ulp(printed: str, digits: int | None = None) -> mpmath.mpf:
    """Half a unit in the last place of a printed decimal.

    With digits, the place is that of the digits-th significant digit: the
    CLI rounds to that many digits and may drop trailing zeros.
    """
    d = Decimal(printed)
    exp = d.adjusted() - digits + 1 if digits else d.as_tuple().exponent
    return mpmath.mpf(10) ** exp / 2


def _op_key(op: dict) -> str:
    return " ".join(op["argv"])


def check_verify(ops: list[dict]) -> list:
    out = []
    for op in ops:
        doc = json.loads(op["out"])
        if doc["passed"] != VERIFY_CHECKS or doc["failed"] != 0:
            out.append(f"{_op_key(op)}: passed {doc['passed']} failed {doc['failed']}")
        else:
            out.append(None)
    return out


def _closed_form_value(family: str, params: list[int], bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(value, error bound) of eval_sym(closed_form_for(sid)) at bits."""
    from eulersum import PrecisionContext, SumId, eval_sym
    from eulersum.closedform import closed_form_for

    v = eval_sym(closed_form_for(SumId(family, *params)), PrecisionContext(working_bits=bits))
    return mpmath.mpf(v.value_tuple()), mpmath.mpf(v.err_tuple())


def _flag_values(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def check_oracle(ops: list[dict]) -> list:
    out = []
    with mpmath.workprec(1024):
        for op in ops:
            doc = json.loads(op["out"])
            flags = _flag_values(op["argv"])
            params = [int(flags[n]) for n in PARAM_FLAGS[doc["family"]]]
            exact, exact_err = _closed_form_value(doc["family"], params, int(flags["bits"]))
            printed = mpmath.mpf(doc["value"])
            # the printed bound is rounded to 4 significant digits
            allowed = mpmath.mpf(doc["bound"]) * (1 + 1e-3) + exact_err + _half_ulp(doc["value"])
            diff = abs(printed - exact)
            if float(doc["bound"]) > float(flags["tol"]) * (1 + 1e-3):
                out.append(f"{_op_key(op)}: bound {doc['bound']} above the tolerance")
            elif diff > allowed:
                out.append(f"{_op_key(op)}: |oracle - closed form| = {mpmath.nstr(diff, 3)} > {mpmath.nstr(allowed, 3)}")
            else:
                out.append(None)
    return out


def _mp_atom(name: str):
    if name == "pi":
        return mpmath.pi
    if name == "log2":
        return mpmath.log(2)
    if name == "li4half":
        return mpmath.polylog(4, mpmath.mpf(1) / 2)
    if name.startswith("zeta(") and name.endswith(")"):
        return mpmath.zeta(int(name[5:-1]))
    raise ValueError(f"unknown atom {name!r}")


def check_closed_forms(ops: list[dict]) -> list:
    """Printed values against mpmath's zeta, polylog, pi and log 2 at 64 more bits."""
    out = []
    atoms: dict = {}
    for op in ops:
        doc = json.loads(op["out"])
        bits = doc["bits"]
        with mpmath.workprec(bits + 64):
            ref = mpmath.mpf(0)
            for term in doc["symbolic"]["terms"]:
                num, _, den = term["coeff"].partition("/")
                t = mpmath.mpf(int(num)) / int(den or 1)
                for name, exp in term["atoms"]:
                    if (name, bits) not in atoms:
                        atoms[name, bits] = _mp_atom(name)
                    t *= atoms[name, bits] ** exp
                ref += t
            num = doc["numeric"]
            allowed = mpmath.mpf(num["bound"]) * (1 + 1e-2) + _half_ulp(num["value"], num["digits"])
            diff = abs(mpmath.mpf(num["value"]) - ref)
            ok = num["digits"] >= 1 and diff <= allowed
            out.append(None if ok else f"{_op_key(op)}: |value - mpmath| = {mpmath.nstr(diff, 3)} > {mpmath.nstr(allowed, 3)}")
    return out


def _paper_form(terms: dict):
    from fractions import Fraction

    from eulersum.symexpr import SymExpr, lambda_sym

    expr = SymExpr.zero()
    for args, coeff in terms.items():
        prod = lambda_sym(args[0])
        for a in args[1:]:
            prod = prod * lambda_sym(a)
        expr = expr + prod.scaled(Fraction(coeff))
    return expr.to_json()


def check_solve(ops: list[dict]) -> list:
    out = []
    for op in ops:
        doc = json.loads(op["out"])
        problems = []
        if doc["inconsistent_rows"]:
            problems.append(f"inconsistent rows {doc['inconsistent_rows']}")
        worst = max((float(r) for _, r in doc["residuals"]), default=0.0)
        if worst > SOLVE_TOL:
            problems.append(f"residual {worst:.3e} > {SOLVE_TOL}")
        if doc["weight"] == 7:
            for name, terms in PAPER_WEIGHT7.items():
                got = doc["solved"].get(name, {}).get("terms")
                if got != _paper_form(terms):
                    problems.append(f"{name} = {got} differs from the paper's form")
        out.append(f"{_op_key(op)}: {'; '.join(problems)}" if problems else None)
    return out


# A layer each workload must reach; a traced pass that records no calls there
# has lost its wrappers.
REQUIRED_CALLS = {
    "verify-deep": "oracle.calls",
    "oracle-ladder": "oracle.calls",
    "closed-forms-hiprec": "numerics.eval_sym.calls",
    "solve-sweep": "relations.residual.calls",
}

CHECKS = {
    "verify-deep": check_verify,
    "oracle-ladder": check_oracle,
    "closed-forms-hiprec": check_closed_forms,
    "solve-sweep": check_solve,
}
