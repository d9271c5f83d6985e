"""Command-line surface: eval, oracle, verify, solve, table.

One pipeline in run serves every command: it parses the argv, builds the
precision context (--bits, else EULERSUM_DEFAULT_BITS, else 192 bits), runs the
command and prints its document (schema "eulersum/1") on stdout: as one JSON
line, or with --format pretty as indented JSON, verify's check lines or
table's TSV (which --format tsv also prints).  --pretty sets --format pretty;
of the two flags the later one wins.  Exit codes: 0 success, 1 usage error,
2 verification failure or precision exhausted, 3 oracle budget exhaustion,
141 stdout closed early.
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
from .numerics import PrecisionContext, PrecisionExhausted, eval_sym
from .oracle import BudgetExhausted, OracleConfig, oracle_eval
from .sums import FAMILIES, SumId
from .symexpr import SymExpr, lambda_sym

SCHEMA = "eulersum/1"
# the fields of a table row, in JSON and TSV order
_ROW_KEYS = ("params", "symbolic", "numeric", "bound")
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
        sp.add_argument("--pretty", dest="format", action="store_const", const="pretty",
                        help="same as --format pretty")
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


def _config(args) -> OracleConfig:
    return OracleConfig(target_tolerance=args.tol, max_terms=args.max_terms)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _params(args, ranged_ok: bool = False) -> tuple[dict[str, int], tuple[str, int, int]]:
    """The values of --family's parameter flags, in the family's order, and
    (name, lo, hi) of the one parameter given as a range lo..hi (allowed only
    with ranged_ok; its value is lo), else of the first parameter, lo == hi."""
    names = FAMILIES[args.family].params
    vals: dict[str, int] = {}
    ranged: Optional[tuple[str, int, int]] = None
    for name in names:
        raw = getattr(args, name)
        if raw is None:
            raise _UsageError(f"family {args.family} needs --{name}")
        if ranged_ok and ".." in raw:
            if ranged is not None:
                raise _UsageError("only one parameter may be a range")
            ranged = (name, *_parse_range(raw))
            vals[name] = ranged[1]
        else:
            try:
                vals[name] = int(raw)
            except ValueError:
                raise _UsageError(f"--{name} must be an integer, got {raw!r}")
    extra = [n for n in _PARAM_FLAGS if getattr(args, n) is not None and n not in names]
    if extra:
        raise _UsageError(f"family {args.family} does not take --{extra[0]}")
    return vals, ranged or (names[0], vals[names[0]], vals[names[0]])


def _sum_id(args) -> SumId:
    return SumId(args.family, *_params(args)[0].values())


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


def _id_fields(sid: SumId) -> dict:
    return {
        "family": sid.family,
        "params": dict(zip(sid.param_names, sid.params)),
        "weight": sid.weight,
    }


# -- commands -----------------------------------------------------------------
#
# Each takes the parsed args and the precision context and returns the fields
# of its document after "command", and the lines that --format pretty (and
# tsv) print in place of the JSON, or None to print the JSON indented.


def _cmd_eval(args, ctx):
    sid = _sum_id(args)
    expr = closedform.closed_form_for(sid)
    if expr is None:
        raise _UsageError(f"no known closed form for {sid}")
    val = eval_sym(expr, ctx)
    return {
        **_id_fields(sid),
        "symbolic": _sym_json(expr),
        "numeric": {"value": val.decimal(), "bound": val.err_decimal(), "digits": val.certified_digits()},
        "bits": ctx.working_bits,
    }, None


def _cmd_oracle(args, ctx):
    sid = _sum_id(args)
    res = oracle_eval(sid, _config(args), ctx)
    return {
        **_id_fields(sid),
        "value": res.value.decimal(),
        "bound": _bound(res.achieved_bound),
        "terms": res.terms_used,
        "tolerance": args.tol,
        "bits": ctx.working_bits,
    }, None


def _identities():
    """Yield (name, lhs, rhs) for each exact structural identity verify checks."""
    for a in range(1, 6):
        yield (
            f"jordan-even-two-forms a={a}",
            closedform.jordan_even(a),
            closedform.jordan_even_zeta_form(a),
        )
        yield (
            f"reflection-consistency a={a}",
            closedform.jordan_bar_even(a) - closedform.jordan_even(a).scaled(Fraction(1, 4**a)),
            closedform.jordan_reflection(2 * a),
        )
    yield (
        "reflection-consistency b=3",
        closedform.jordan_bar_3() + closedform.jordan_3().scaled(Fraction(1, 8)),
        closedform.jordan_reflection(3),
    )
    for a in range(2, 6):
        yield (
            f"sigma-zetastar-E-triangle a={a}",
            closedform.sigma_odd_2(a) + closedform.zeta_star_odd_2(a).scaled(Fraction(1, 4)),
            closedform.e_2_odd(a),
        )
    yield (
        "weight4-split",
        closedform.jordan_3() + closedform.sigma_special(2, 2),
        closedform.sigma_weight_sum(4),
    )
    for n in range(2, 11):
        yield (
            f"lambda-convolution n={n}",
            sum((lambda_sym(2 * j) * lambda_sym(2 * n - 2 * j) for j in range(1, n)), SymExpr.zero()),
            lambda_sym(2 * n).scaled(Fraction(2 * n - 1, 2)),
        )


def _verify_checks(args, ctx, cfg):
    """Yield (name, ok, measure) verification outcomes for the requested scope."""
    w_lo, w_hi = (3, 11) if args.weight is None else _parse_range(args.weight)
    fam = args.family

    # exact structural identities (independent of scope weight, cheap)
    if fam is None:
        for name, lhs, rhs in _identities():
            yield name, lhs == rhs, "exact"

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


def _cmd_verify(args, ctx):
    checks = [
        {"name": name, "status": "pass" if ok else "FAIL", "measure": measure}
        for name, ok, measure in _verify_checks(args, ctx, _config(args))
    ]
    failed = sum(c["status"] == "FAIL" for c in checks)
    lines = [f"[{c['status']:4s}] {c['name']}  ({c['measure']})" for c in checks]
    return {
        "tolerance": args.tol,
        "bits": ctx.working_bits,
        "passed": len(checks) - failed,
        "failed": failed,
        "checks": checks,
    }, [*lines, f"passed {len(checks) - failed} / {len(checks)}"]


def _cmd_solve(args, ctx):
    cfg = _config(args)
    lo, hi = _parse_range(args.weight)
    if lo != hi:
        raise _UsageError("solve takes a single weight")
    rep = relations.solve_weight(lo, ctx=ctx, cfg=cfg)
    return {
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
    }, None


def _cmd_table(args, ctx):
    cfg = _config(args)
    vals, (rname, lo, hi) = _params(args, ranged_ok=True)
    rows = []
    for x in range(lo, hi + 1):
        vals[rname] = x
        try:
            sid = SumId(args.family, *vals.values())
        except ValueError:
            continue
        expr = closedform.closed_form_for(sid)
        params = ",".join(f"{n}={vals[n]}" for n in vals)
        if expr is not None:
            v = eval_sym(expr, ctx)
            row = (params, str(expr), v.decimal(), v.err_decimal())
        else:
            res = oracle_eval(sid, cfg, ctx)
            row = (params, "", res.value.decimal(), _bound(res.achieved_bound))
        rows.append(dict(zip(_ROW_KEYS, row)))
    return {
        "family": args.family,
        "rows": rows,
        "bits": ctx.working_bits,
    }, ["\t".join(_ROW_KEYS), *("\t".join(r.values()) for r in rows)]


_COMMANDS = {"eval": _cmd_eval, "oracle": _cmd_oracle, "verify": _cmd_verify,
             "solve": _cmd_solve, "table": _cmd_table}


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        fields, lines = _COMMANDS[args.command](args, _context(args))
    except (_UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PrecisionExhausted as e:
        print(f"error: precision exhausted: {e}", file=sys.stderr)
        return 2
    except BudgetExhausted as e:
        print(f"error: oracle budget exhausted: {e}", file=sys.stderr)
        return 3
    doc = {"schema": SCHEMA, "command": args.command, **fields}
    if args.format == "json":
        print(json.dumps(doc))
    elif lines is None:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 2 if doc.get("failed") else 0  # only verify counts failures


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
