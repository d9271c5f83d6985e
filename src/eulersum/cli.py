"""Command-line surface: eval, oracle, verify, solve, table.

Output is a single JSON document on stdout (schema "eulersum/1"), rendered
human-readable with --pretty / --format pretty, or as TSV for table.  Exit
codes: 0 success, 1 usage error, 2 verification failure, 3 oracle budget
exhaustion, 141 stdout closed early.  EULERSUM_DEFAULT_BITS is honored when
--bits is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import closedform, relations
from .numerics import BigReal, PrecisionContext, PrecisionExhausted, eval_sym
from .oracle import BudgetExhausted, OracleConfig, oracle_eval
from .sums import FAMILIES, SumId
from .symexpr import SymExpr, lambda_sym

SCHEMA = "eulersum/1"
# every family's parameter names, each once, in registry order
_PARAM_FLAGS = tuple(dict.fromkeys(n for fam in FAMILIES.values() for n in fam.params))

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """--tol as a finite double; zero and negative values are left to OracleConfig.

    A non-zero decimal that rounds to 0.0 is refused rather than read as 0:
    tolerances below a double's range need an exact tolerance (ROADMAP item 2).
    """
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}")
    if not math.isfinite(tol):
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not a finite double")
    if tol == 0 and Decimal(text) != 0:
        raise argparse.ArgumentTypeError(
            f"tolerance {text!r} is below a double's range; such tolerances wait for "
            "an exact tolerance (ROADMAP item 2)")
    return tol


@lru_cache(maxsize=8)
def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser for an argv whose first word is command, built on first use.
    Every command is listed, but only that command's arguments are added (all
    of them for None, when the first word names no command), which is all such
    an argv can reach.  parse_args leaves it unchanged, so every run shares it."""
    p = _Parser(prog="eulersum", description="Jordan and sigma-Euler sum calculator")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, tol_default=None, formats=("json", "pretty")):
        sp.add_argument("--bits", type=int, default=None, help="working precision in bits (>= 64)")
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--pretty", action="store_true", help="same as --format pretty")
        if tol_default is not None:
            sp.add_argument("--tol", type=_tolerance, default=tol_default)
            sp.add_argument("--max-terms", type=int, default=10**7, dest="max_terms")

    def add_params(sp):
        sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
        for name in _PARAM_FLAGS:
            sp.add_argument(f"--{name}", default=None)

    def to_fill(name, text):
        sp = sub.add_parser(name, help=text)
        return sp if command in (None, name) else None

    if sp := to_fill("eval", "closed form of one sum, symbolic and numeric"):
        add_params(sp)
        add_common(sp)

    if sp := to_fill("oracle", "certified direct summation of one sum"):
        add_params(sp)
        add_common(sp, tol_default=1e-10)

    if sp := to_fill("verify", "run the identity verification suite"):
        sp.add_argument("--family", default=None, choices=sorted(FAMILIES))
        sp.add_argument("--weight", default=None, help="weight or range, e.g. 7 or 3..10")
        add_common(sp, tol_default=1e-8)

    if sp := to_fill("solve", "solve the sigma system of one weight"):
        sp.add_argument("--weight", required=True)
        add_common(sp, tol_default=1e-10)

    if sp := to_fill("table", "tabulate a family over a parameter range"):
        add_params(sp)
        add_common(sp, tol_default=1e-10, formats=("json", "tsv", "pretty"))
    return p


def _context(args) -> PrecisionContext:
    if args.bits is not None:
        return PrecisionContext(working_bits=args.bits)
    raw = os.environ.get("EULERSUM_DEFAULT_BITS", "192")
    try:
        return PrecisionContext(working_bits=int(raw))
    except ValueError as e:  # not an integer, or one the context refuses
        raise _UsageError(f"EULERSUM_DEFAULT_BITS={raw!r}: {e}")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _sum_id(args, ranged_ok: bool = False):
    """Build a SumId from --family plus its parameter flags.

    With ranged_ok, exactly one parameter may be a range lo..hi; returns
    (template values, ranged name, lo, hi).
    """
    names = FAMILIES[args.family].params
    vals: dict[str, object] = {}
    ranged: Optional[tuple[str, int, int]] = None
    for name in names:
        raw = getattr(args, name)
        if raw is None:
            raise _UsageError(f"family {args.family} needs --{name}")
        if ranged_ok and ".." in str(raw):
            if ranged is not None:
                raise _UsageError("only one parameter may be a range")
            lo, hi = _parse_range(str(raw))
            ranged = (name, lo, hi)
            vals[name] = lo
        else:
            try:
                vals[name] = int(raw)
            except ValueError:
                raise _UsageError(f"--{name} must be an integer, got {raw!r}")
    extra = [n for n in _PARAM_FLAGS if getattr(args, n) is not None and n not in names]
    if extra:
        raise _UsageError(f"family {args.family} does not take --{extra[0]}")
    if ranged_ok:
        return vals, ranged
    try:
        return SumId(args.family, *(vals[n] for n in names))
    except ValueError as e:
        raise _UsageError(str(e))


def _bound(x: float, digits: int = 4) -> str:
    """A bound x >= 0 as f"{x:.3e}" writes it (to digits digits), rounded up: that
    text if it is not below x (its nearest float is above x, or equal to x and
    not below it exactly), else with its last digit bumped, 9.999e+k to 1.000e+(k+1)."""
    text = f"{x:.{digits - 1}e}"
    if not x > 0 or not math.isfinite(x) or (near := float(text)) > x:
        return text
    d, e = int(text[:digits + 1].replace(".", "")), int(text[digits + 2:]) - digits + 1  # text = d 10^e
    if near == x:
        n, m = x.as_integer_ratio()
        if d * m * 10 ** max(e, 0) >= n * 10 ** max(-e, 0):
            return text
    d, e = (d + 1, e) if d + 1 < 10**digits else (10 ** (digits - 1), e + 1)
    return f"{str(d)[0]}.{str(d)[1:]}e{e + digits - 1:+03d}"


def _sym_json(e: SymExpr) -> dict:
    return {"terms": e.to_json(), "string": str(e), "weight": e.homogeneous_weight()}


def _num_json(v: BigReal) -> dict:
    return {"value": v.decimal(), "bound": v.err_decimal(), "digits": v.certified_digits()}


def _emit(doc: dict, args) -> None:
    if args.format == "pretty" or args.pretty:
        _pretty(doc)
    else:
        print(json.dumps(doc))


def _pretty(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _tsv(doc: dict) -> None:
    print("params\tsymbolic\tnumeric\tbound")
    for r in doc["rows"]:
        print(f"{r['params']}\t{r['symbolic']}\t{r['numeric']}\t{r['bound']}")


# -- commands -----------------------------------------------------------------


def _cmd_eval(args) -> int:
    ctx = _context(args)
    sid = _sum_id(args)
    expr = closedform.closed_form_for(sid)
    if expr is None:
        print(f"no known closed form for {sid}", file=sys.stderr)
        return 1
    val = eval_sym(expr, ctx)
    doc = {
        "schema": SCHEMA,
        "command": "eval",
        "family": sid.family,
        "params": dict(zip(sid.param_names, sid.params)),
        "weight": sid.weight,
        "symbolic": _sym_json(expr),
        "numeric": _num_json(val),
        "bits": ctx.working_bits,
    }
    _emit(doc, args)
    return 0


def _cmd_oracle(args) -> int:
    ctx = _context(args)
    sid = _sum_id(args)
    cfg = OracleConfig(target_tolerance=args.tol, max_terms=args.max_terms)
    res = oracle_eval(sid, cfg, ctx)
    doc = {
        "schema": SCHEMA,
        "command": "oracle",
        "family": sid.family,
        "params": dict(zip(sid.param_names, sid.params)),
        "weight": sid.weight,
        "value": res.value.decimal(),
        "bound": _bound(res.achieved_bound),
        "terms": res.terms_used,
        "tolerance": args.tol,
        "bits": ctx.working_bits,
    }
    _emit(doc, args)
    return 0


def _verify_checks(args, ctx, cfg):
    """Yield (name, ok, measure) verification outcomes for the requested scope."""
    w_lo, w_hi = (3, 11) if args.weight is None else _parse_range(args.weight)
    fam = args.family

    # exact structural identities (independent of scope weight, cheap)
    if fam is None:
        for a in range(1, 6):
            yield (
                f"jordan-even-two-forms a={a}",
                closedform.jordan_even(a) == closedform.jordan_even_zeta_form(a),
                "exact",
            )
            yield (
                f"reflection-consistency a={a}",
                closedform.jordan_bar_even(a) - closedform.jordan_even(a).scaled(Fraction(1, 4**a))
                == closedform.jordan_reflection(2 * a),
                "exact",
            )
        yield (
            "reflection-consistency b=3",
            closedform.jordan_bar_3() + closedform.jordan_3().scaled(Fraction(1, 8))
            == closedform.jordan_reflection(3),
            "exact",
        )
        for a in range(2, 6):
            yield (
                f"sigma-zetastar-E-triangle a={a}",
                closedform.sigma_odd_2(a) + closedform.zeta_star_odd_2(a).scaled(Fraction(1, 4))
                == closedform.e_2_odd(a),
                "exact",
            )
        yield (
            "weight4-split",
            closedform.jordan_3() + closedform.sigma_special(2, 2) == closedform.sigma_weight_sum(4),
            "exact",
        )
        for n in range(2, 11):
            lhs = SymExpr.zero()
            for j in range(1, n):
                lhs = lhs + lambda_sym(2 * j) * lambda_sym(2 * n - 2 * j)
            yield (
                f"lambda-convolution n={n}",
                lhs == lambda_sym(2 * n).scaled(Fraction(2 * n - 1, 2)),
                "exact",
            )

    # closed form vs oracle
    for sid in closedform.known_closed_form_ids(min(w_hi, 11)):
        if sid.weight < w_lo or (fam is not None and sid.family != fam):
            continue
        r, bound = relations.Relation({sid: 1}, closedform.closed_form_for(sid)).residual_and_bound(ctx, cfg)
        yield (f"oracle-vs-closed-form {sid}", r <= bound, f"{r:.3e} (bound {_bound(bound)})")

    if fam is None:
        # relation residuals
        for w in range(max(4, w_lo), min(w_hi, 10) + 1):
            for i, rel in enumerate(relations.relations_for_weight(w)):
                if rel.is_identity:
                    yield (f"relation-identity w={w}#{i}", rel.rhs.is_zero, "exact")
                    continue
                r, bound = rel.residual_and_bound(ctx, cfg)
                yield (f"relation-residual w={w}#{i}", r <= bound, f"{r:.3e} (bound {_bound(bound)})")
        # sum theorem
        for w in range(max(3, w_lo), min(w_hi, 10) + 1):
            rep = relations.verify_sum_theorem(w, ctx, cfg)
            ok = rep.numeric_residual <= rep.numeric_bound and rep.symbolic_ok is not False
            yield (
                f"sigma-sum-theorem w={w}",
                ok,
                f"{rep.numeric_residual:.3e} (bound {_bound(rep.numeric_bound)}) [{rep.path}]",
            )


def _cmd_verify(args) -> int:
    ctx = _context(args)
    cfg = OracleConfig(target_tolerance=args.tol, max_terms=args.max_terms)
    checks = []
    failed = 0
    for name, ok, measure in _verify_checks(args, ctx, cfg):
        checks.append({"name": name, "status": "pass" if ok else "FAIL", "measure": measure})
        failed += 0 if ok else 1
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "tolerance": args.tol,
        "bits": ctx.working_bits,
        "passed": len(checks) - failed,
        "failed": failed,
        "checks": checks,
    }
    if args.format == "pretty" or args.pretty:
        for c in checks:
            print(f"[{c['status']:4s}] {c['name']}  ({c['measure']})")
        print(f"passed {len(checks) - failed} / {len(checks)}")
    else:
        _emit(doc, args)
    return 0 if failed == 0 else 2


def _cmd_solve(args) -> int:
    ctx = _context(args)
    cfg = OracleConfig(target_tolerance=args.tol, max_terms=args.max_terms)
    lo, hi = _parse_range(args.weight)
    if lo != hi:
        raise _UsageError("solve takes a single weight")
    rep = relations.solve_weight(lo, ctx=ctx, cfg=cfg)
    doc = {
        "schema": SCHEMA,
        "command": "solve",
        "weight": rep.weight,
        "rank": rep.rank,
        "relations": rep.relations_used,
        "solved": {
            str(sid): _sym_json(expr)
            for sid, expr in sorted(rep.solved.items())
        },
        "unresolved": [str(s) for s in rep.unresolved],
        "inconsistent_rows": rep.inconsistent,
        "residuals": [[i, f"{r:.3e}"] for i, r in rep.residual_checks],
        "bits": ctx.working_bits,
    }
    _emit(doc, args)
    return 0


def _cmd_table(args) -> int:
    ctx = _context(args)
    cfg = OracleConfig(target_tolerance=args.tol, max_terms=args.max_terms)
    vals, ranged = _sum_id(args, ranged_ok=True)
    names = FAMILIES[args.family].params
    if ranged is None:
        name0 = names[0]
        ranged = (name0, int(vals[name0]), int(vals[name0]))
    rname, lo, hi = ranged
    rows = []
    for x in range(lo, hi + 1):
        vals[rname] = x
        try:
            sid = SumId(args.family, *(int(vals[n]) for n in names))
        except ValueError:
            continue
        expr = closedform.closed_form_for(sid)
        params = ",".join(f"{n}={vals[n]}" for n in names)
        if expr is not None:
            v = eval_sym(expr, ctx)
            rows.append(
                {"params": params, "symbolic": str(expr), "numeric": v.decimal(), "bound": v.err_decimal()}
            )
        else:
            res = oracle_eval(sid, cfg, ctx)
            rows.append(
                {
                    "params": params,
                    "symbolic": "",
                    "numeric": res.value.decimal(),
                    "bound": _bound(res.achieved_bound),
                }
            )
    doc = {
        "schema": SCHEMA,
        "command": "table",
        "family": args.family,
        "rows": rows,
        "bits": ctx.working_bits,
    }
    if args.format == "json" and not args.pretty:
        print(json.dumps(doc))
    else:
        _tsv(doc)
    return 0


_COMMANDS = {"eval": _cmd_eval, "oracle": _cmd_oracle, "verify": _cmd_verify,
             "solve": _cmd_solve, "table": _cmd_table}


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PrecisionExhausted as e:
        print(f"error: precision exhausted: {e}", file=sys.stderr)
        return 2
    except BudgetExhausted as e:
        print(f"error: oracle budget exhausted: {e}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as head does): exit as SIGPIPE would, with
        # no traceback, and with stdout on os.devnull so the flush at exit
        # does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
