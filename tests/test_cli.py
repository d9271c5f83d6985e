import json
import os
import runpy
import subprocess
import sys
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eulersum import cli
from eulersum import closedform
from eulersum.numerics import PrecisionContext, eval_sym
from eulersum.oracle import OracleConfig, oracle_eval
from eulersum.symexpr import SymExpr, lambda_sym


def _run(capsys, *argv):
    rc = cli.run(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_eval_jordan_4(capsys):
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "4", "--bits", "128")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "eulersum/1"
    assert doc["command"] == "eval"
    assert doc["params"] == {"b": 4}
    assert doc["weight"] == 5
    assert doc["bits"] == 128
    # (31/4) zeta(5) - (7/12) pi^2 zeta(3) after normalization
    assert doc["symbolic"]["terms"] == [
        {"atoms": [["pi", 2], ["zeta(3)", 1]], "coeff": "-7/12"},
        {"atoms": [["zeta(5)", 1]], "coeff": "31/4"},
    ]
    assert doc["numeric"]["value"].startswith("1.115624876320580515")


def test_eval_is_deterministic(capsys):
    rc1, out1, _ = _run(capsys, "eval", "--family", "Jbar", "--b", "2")
    rc2, out2, _ = _run(capsys, "eval", "--family", "Jbar", "--b", "2")
    assert rc1 == rc2 == 0 and out1 == out2


def test_eval_no_closed_form_is_usage_error(capsys):
    assert _run(capsys, "eval", "--family", "J", "--b", "5") == (1, "", "error: no known closed form for J(5)\n")


def test_unknown_family_exits_1(capsys):
    rc, out, err = _run(capsys, "eval", "--family", "Nope", "--b", "4")
    assert rc == 1
    assert err


def test_out_of_range_parameter_exits_1(capsys):
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "1")
    assert rc == 1
    assert "out of range" in err


def test_missing_parameter_exits_1(capsys):
    rc, out, err = _run(capsys, "eval", "--family", "sigma", "--s", "2")
    assert rc == 1
    assert "--t" in err


def test_wrong_parameter_flag_exits_1(capsys):
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "4", "--a", "2")
    assert rc == 1


def test_oracle_command(capsys):
    rc, out, err = _run(capsys, "oracle", "--family", "sigma", "--s", "2", "--t", "3", "--tol", "1e-9")
    assert rc == 0
    doc = json.loads(out)
    assert {"value", "bound", "terms"} <= set(doc)
    assert isinstance(doc["terms"], int)
    assert float(doc["bound"]) <= 1e-9
    assert doc["value"].startswith("1.6734373144")


def _half_ulp(printed: str) -> Fraction:
    """Half a unit in the last printed digit of a decimal string."""
    return Fraction(1, 2) * Fraction(Decimal(1).scaleb(Decimal(printed).as_tuple().exponent))


def test_oracle_certifies_tolerances_below_the_normal_float_range(capsys):
    # 1e-320 is a subnormal float; the bound once underflowed to a 1e-300 guard
    rc, out, err = _run(capsys, "oracle", "--family", "J", "--b", "2", "--tol", "1e-320", "--bits", "1100")
    assert rc == 0, err
    doc = json.loads(out)
    assert 0 < float(doc["bound"]) <= 1e-320
    rc, out, _ = _run(capsys, "eval", "--family", "J", "--b", "2", "--bits", "1100")
    assert rc == 0
    ev = json.loads(out)["numeric"]
    gap = abs(Fraction(Decimal(doc["value"])) - Fraction(Decimal(ev["value"])))
    slack = Fraction(Decimal(ev["bound"])) + _half_ulp(doc["value"]) + _half_ulp(ev["value"])
    assert gap <= Fraction(Decimal(doc["bound"])) + slack


def test_oracle_certifies_the_least_subnormal_tolerance(capsys):
    # 5e-324 is the least positive float: tol / 2 underflows to 0.0, so half the
    # tolerance is taken in logs for the screen and exactly for the bound
    rc, out, err = _run(capsys, "oracle", "--family", "J", "--b", "2", "--tol", "5e-324", "--bits", "1200")
    assert rc == 0, err
    doc = json.loads(out)
    assert 0 < float(doc["bound"]) <= 5e-324


def test_oracle_budget_exhaustion_exits_3(capsys):
    rc, out, err = _run(
        capsys, "oracle", "--family", "sigma", "--s", "2", "--t", "2",
        "--tol", "1e-20", "--max-terms", "8",
    )
    assert rc == 3 and out == ""
    assert "budget" in err


def test_eval_and_oracle_agree(capsys):
    rc, out, _ = _run(capsys, "eval", "--family", "AltEulerStar", "--a", "2")
    ev = json.loads(out)
    rc2, out2, _ = _run(capsys, "oracle", "--family", "AltEulerStar", "--a", "2", "--tol", "1e-10")
    ov = json.loads(out2)
    assert rc == rc2 == 0
    assert abs(float(ev["numeric"]["value"]) - float(ov["value"])) <= 1e-9


def test_solve_weight_7(capsys):
    rc, out, err = _run(capsys, "solve", "--weight", "7", "--bits", "192")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["weight"] == 7 and doc["unresolved"] == [] and doc["inconsistent_rows"] == []
    s43 = doc["solved"]["sigma(4, 3)"]["terms"]
    expect = (lambda_sym(7).scaled(120) - (lambda_sym(2) * lambda_sym(5)).scaled(96)).to_json()
    assert s43 == expect
    assert all(float(r) <= 1e-8 for _, r in doc["residuals"])


def test_verify_weight_range_scope(capsys):
    rc, out, err = _run(capsys, "verify", "--weight", "3..6", "--tol", "1e-8", "--bits", "192")
    assert rc == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    names = [c["name"] for c in doc["checks"]]
    assert any(n.startswith("lambda-convolution") for n in names)
    assert any(n.startswith("relation-residual w=6") for n in names)
    assert any(n == "sigma-sum-theorem w=6" for n in names)
    assert not any("w=7" in n for n in names if "sum-theorem" in n)


def test_verify_small_scope(capsys):
    rc, out, err = _run(capsys, "verify", "--family", "Jbar", "--weight", "3..5", "--tol", "1e-8")
    assert rc == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["passed"] >= 2
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_checks_the_top_weight_sigma(capsys):
    # sigma(w-1, 1) = J(w-1) is the sigma of weight w that the family enumeration reaches last
    rc, out, err = _run(capsys, "verify", "--weight", "4")
    assert rc == 0
    assert "oracle-vs-closed-form sigma(3, 1)" in [c["name"] for c in json.loads(out)["checks"]]


def test_verify_weight_3_to_10_check_count(capsys):
    rc, out, err = _run(capsys, "verify", "--weight", "3..10")
    doc = json.loads(out)
    assert rc == 0 and doc["passed"] == 159 and doc["failed"] == 0


def test_verify_generates_the_relations_of_each_weight_once(capsys, monkeypatch):
    from eulersum import relations

    calls = []
    real = relations.gen_product_relation

    def counted(k, l):
        calls.append((k, l))
        return real(k, l)

    monkeypatch.setattr(relations, "gen_product_relation", counted)
    relations._relations.cache_clear()
    rc, out, err = _run(capsys, "verify", "--weight", "3..10")
    assert rc == 0
    # the residual checks and the sum theorem's row space share each weight's relations
    assert len(calls) == len(set(calls)) == sum(w // 2 - 1 for w in range(4, 11))


def test_verify_failure_exits_2(capsys, monkeypatch):
    # a wrong closed form must be caught by the oracle cross-check
    wrong = lambda_sym(4)
    real = closedform.closed_form_for

    def patched(sid):
        if str(sid) == "Jbar(3)":
            return wrong
        return real(sid)

    monkeypatch.setattr(closedform, "closed_form_for", patched)
    rc, out, err = _run(capsys, "verify", "--family", "Jbar", "--weight", "3..5", "--tol", "1e-8")
    assert rc == 2
    doc = json.loads(out)
    assert doc["failed"] >= 1


@pytest.mark.parametrize("shift, status", [(Fraction(1, 10**25), "pass"), (Fraction(1, 10**21), "FAIL")])
def test_verify_holds_closed_forms_to_the_certified_bound(capsys, monkeypatch, shift, status):
    # at tol 1e-20 the certified bound of J(3) is about 5e-23: a shift of 1e-21
    # lies within the tolerance but outside the bound, one of 1e-25 inside both
    real = closedform.closed_form_for
    monkeypatch.setattr(closedform, "closed_form_for",
                        lambda sid: real(sid) + SymExpr.rational(shift) if str(sid) == "J(3)" else real(sid))
    rc, out, err = _run(capsys, "verify", "--family", "J", "--weight", "4", "--tol", "1e-20", "--bits", "256")
    [check] = json.loads(out)["checks"]
    assert check["name"] == "oracle-vs-closed-form J(3)" and check["status"] == status
    assert rc == (0 if status == "pass" else 2)


def test_verify_pretty_output(capsys):
    rc, out, err = _run(capsys, "verify", "--family", "Z", "--weight", "3..5", "--pretty")
    assert rc == 0
    assert "[pass]" in out and "passed" in out


def test_table_tsv(capsys):
    rc, out, err = _run(capsys, "table", "--family", "J", "--b", "2..5", "--format", "tsv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "params\tsymbolic\tnumeric\tbound"
    assert len(lines) == 5
    row5 = dict(zip(lines[0].split("\t"), lines[4].split("\t")))
    assert row5["params"] == "b=5" and row5["symbolic"] == ""  # oracle fallback


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "J", "--b", "4"],
    ["oracle", "--family", "J", "--b", "2"],
    ["verify", "--weight", "4"],
    ["solve", "--weight", "5"],
])
def test_tsv_is_rejected_outside_table(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_context", lambda args: pytest.fail("the command started work"))
    rc, out, err = _run(capsys, *argv, "--format", "tsv")
    assert rc == 1 and out == "" and "tsv" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--family", "J", "--b", "2"],
    ["verify", "--weight", "4"],
    ["solve", "--weight", "5"],
    ["table", "--family", "h", "--q", "2..4"],
])
@pytest.mark.parametrize("tol, reason", [
    ("inf", "not a finite double"),
    ("nan", "not a finite double"),
    ("1e400", "not a finite double"),
    ("1e-400", "below a double's range"),
])
def test_tolerance_outside_the_finite_doubles_is_rejected(capsys, monkeypatch, argv, tol, reason):
    # inf would print "tolerance": Infinity, which is not JSON; 1e-400 would
    # round to 0.0 and fail as "must be positive"
    monkeypatch.setattr(cli, "_context", lambda args: pytest.fail("the command started work"))
    rc, out, err = _run(capsys, *argv, "--tol", tol)
    assert rc == 1 and out == ""
    assert f"tolerance {tol!r}" in err and reason in err


def test_table_json(capsys):
    rc, out, err = _run(capsys, "table", "--family", "h", "--q", "2..4")
    assert rc == 0
    doc = json.loads(out)
    assert [r["params"] for r in doc["rows"]] == ["q=2", "q=3", "q=4"]


def test_env_default_bits(capsys, monkeypatch):
    monkeypatch.setenv("EULERSUM_DEFAULT_BITS", "96")
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "2")
    assert rc == 0
    assert json.loads(out)["bits"] == 96


@pytest.mark.parametrize("value,message", [
    ("abc", "EULERSUM_DEFAULT_BITS='abc': invalid literal for int() with base 10: 'abc'"),
    ("32", "EULERSUM_DEFAULT_BITS='32': working_bits must be >= 64, got 32"),
])
def test_bad_env_default_bits_is_named(capsys, monkeypatch, value, message):
    monkeypatch.setenv("EULERSUM_DEFAULT_BITS", value)
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "2")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_bits_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("EULERSUM_DEFAULT_BITS", "96")
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "2", "--bits", "160")
    assert rc == 0
    assert json.loads(out)["bits"] == 160


def _frac(t) -> Fraction:
    sign, man, exp, _ = t
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _bound_by_decimal(x: float, digits: int) -> str:
    """The least decimal of the given digits at or above x's exact value, from
    x's exact Decimal, written as f"{x:.3e}" writes a float."""
    if not x:
        return f"{x:.{digits - 1}e}"
    up = Context(prec=digits, rounding=ROUND_CEILING).plus(Decimal(x))
    text = str(int(up.scaleb(digits - 1 - up.adjusted())))
    return f"{text[0]}.{text[1:]}e{up.adjusted():+03d}"


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(min_value=0, allow_infinity=False, allow_nan=False), digits=st.sampled_from([2, 4]))
def test_bound_text_is_the_decimal_rounded_up(x, digits):
    # the fast path (the text of :.3e, its last digit bumped when it lies below
    # x) against rounding x's exact Decimal up, subnormals and carries included
    assert cli._bound(x, digits) == _bound_by_decimal(x, digits)


@pytest.mark.parametrize("x", [5e-324, 2.5e-323, 2.2250738585072014e-308, 1.848e-18, 9.9991, 9.99951e-5,
                               9.95, 1.7976931348623157e308, 1.0, 0.0])
def test_bound_text_rounds_subnormals_and_carries_up(x):
    # 9.9991 prints as 9.999e+00, below it, so it becomes 1.000e+01; 9.95 (a
    # float below 9.95) prints 2 digits as 9.9e+00, which becomes 1.0e+01
    for digits in (2, 4):
        assert cli._bound(x, digits) == _bound_by_decimal(x, digits), digits
    assert cli._bound(9.9991) == "1.000e+01" and cli._bound(9.95, 2) == "1.0e+01"


@pytest.mark.parametrize("bits", [192, 256])
def test_printed_bounds_are_at_least_the_certified_bounds(capsys, bits):
    # eval's bound (err_decimal) and oracle's (a float) are printed rounded up,
    # so the decimal read back is never below the bound the value carries
    ctx, cfg = PrecisionContext(working_bits=bits), OracleConfig(target_tolerance=1e-20)
    for sid in closedform.known_closed_form_ids(9):
        params = [a for n, v in zip(sid.param_names, sid.params) for a in (f"--{n}", str(v))]
        _, out, _ = _run(capsys, "eval", "--family", sid.family, *params, "--bits", str(bits))
        certified = _frac(eval_sym(closedform.closed_form_for(sid), ctx).err_tuple())
        assert Fraction(json.loads(out)["numeric"]["bound"]) >= certified, (sid, "eval")
        _, out, _ = _run(capsys, "oracle", "--family", sid.family, *params, "--tol", "1e-20", "--bits", str(bits))
        certified = _frac(oracle_eval(sid, cfg, ctx).value.err_tuple())
        assert Fraction(json.loads(out)["bound"]) >= certified, (sid, "oracle")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("eval_J3_4096.txt", ["eval", "--family", "J", "--b", "3", "--bits", "4096"]),
    ("oracle_J2_1e-32_256.txt", ["oracle", "--family", "J", "--b", "2", "--tol", "1e-32", "--bits", "256"]),
    ("oracle_J2_5e-324_1200.txt", ["oracle", "--family", "J", "--b", "2", "--tol", "5e-324", "--bits", "1200"]),
    ("verify_3-4_1e-20_256.txt", ["verify", "--weight", "3..4", "--tol", "1e-20", "--bits", "256"]),
    ("oracle_sigma2-3_1e-100_512.txt",
     ["oracle", "--family", "sigma", "--s", "2", "--t", "3", "--tol", "1e-100", "--bits", "512"]),
    ("oracle_AltTildeH1_1e-100_512.txt",
     ["oracle", "--family", "AltTildeH", "--a", "1", "--tol", "1e-100", "--bits", "512"]),
    ("oracle_h3_1e-100_512.txt", ["oracle", "--family", "h", "--q", "3", "--tol", "1e-100", "--bits", "512"]),
    ("table_sigma_s2-6_t2_192.txt", ["table", "--family", "sigma", "--s", "2..6", "--t", "2", "--bits", "192"]),
    ("oracle_AltEulerStar1_1e-100_512.txt",
     ["oracle", "--family", "AltEulerStar", "--a", "1", "--tol", "1e-100", "--bits", "512"]),
    ("solve_12_192.txt", ["solve", "--weight", "12", "--bits", "192"]),
    ("oracle_AltEulerStar1_1e-300_1100.txt",
     ["oracle", "--family", "AltEulerStar", "--a", "1", "--tol", "1e-300", "--bits", "1100"]),
    ("oracle_sigma2-3_1e-300_1100.txt",
     ["oracle", "--family", "sigma", "--s", "2", "--t", "3", "--tol", "1e-300", "--bits", "1100"]),
    ("oracle_AltTildeH1_1e-300_1100.txt",
     ["oracle", "--family", "AltTildeH", "--a", "1", "--tol", "1e-300", "--bits", "1100"]),
    ("oracle_E2-3_1e-100_512.txt",
     ["oracle", "--family", "E", "--p", "2", "--q", "3", "--tol", "1e-100", "--bits", "512"]),
    ("solve_20_192.txt", ["solve", "--weight", "20", "--bits", "192"]),
    ("verify_3-10_1e-20_256.txt", ["verify", "--weight", "3..10", "--tol", "1e-20", "--bits", "256"]),
    ("verify_3-4_1e-20_256_pretty.txt",
     ["verify", "--weight", "3..4", "--tol", "1e-20", "--bits", "256", "--pretty"]),
    ("table_J_b2-5_192_tsv.txt", ["table", "--family", "J", "--b", "2..5", "--bits", "192", "--format", "tsv"]),
    ("table_h_q2-4_192_pretty.txt", ["table", "--family", "h", "--q", "2..4", "--bits", "192", "--pretty"]),
    ("eval_J3_256_pretty.txt", ["eval", "--family", "J", "--b", "3", "--bits", "256", "--format", "pretty"]),
    ("solve_7_192_pretty.txt", ["solve", "--weight", "7", "--bits", "192", "--pretty"]),
    ("oracle_sigma2-3_1e-20_192_pretty.txt",
     ["oracle", "--family", "sigma", "--s", "2", "--t", "3", "--tol", "1e-20", "--bits", "192", "--format", "pretty"]),
])
def test_stdout_matches_the_frozen_output(capsys, name, argv):
    # every printed digit and bound: values as mpmath.libmp prints them, bounds
    # rounded up.  The three oracle runs at 512 bits (remainder split, tilde
    # sum, odd lattice) were frozen before the weight and tilde expansions were
    # read from numerics' tables; the table prints both kinds of bound, the
    # closed-form rows' from err_decimal and the oracle rows' from a float.
    # The Boole tail (AltEulerStar) and solve's residuals, whose digits follow
    # every rounding of the oracle values, were frozen before the tails were
    # evaluated by the derivative recurrence; the two at 1,100 bits (the
    # alternating weighted head and the remainder-split head, each of 2,048
    # terms) before the heads divided each weight by base^s; the tilde head at
    # 1,100 bits and the remainder split of kind H2N before the split took the
    # outer sign and summed the tilde sum; solve at weight 20 and verify at
    # weights 3..10 before atoms were interned and the relations' right-hand
    # sides were summed on integer pairs; the text renderings (verify's check
    # lines, table's TSV, the indented JSON of the others) before every command
    # printed through one pipeline
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_stdout_matches_the_frozen_output(capsys, demo):
    # every value a demo prints, oracle values among them, as the golden-outputs
    # CI job diffs them
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{demo}.txt").read_text()


def _package_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_the_cli_runs_without_mpmath_dataclasses_or_inspect():
    script = """
import contextlib, io, sys
from eulersum import cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.run(["oracle", "--family", "J", "--b", "2", "--tol", "1e-20", "--bits", "256"]),
           cli.run(["eval", "--family", "J", "--b", "3", "--bits", "4096"]),
           cli.run(["solve", "--weight", "7"])]
assert rcs == [0, 0, 0], rcs
print(sorted(m for m in sys.modules if m.split(".")[0] in ("mpmath", "dataclasses", "inspect")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_package_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_closed_stdout_exits_141_and_prints_nothing_on_stderr():
    # stdout is a pipe whose read end is closed before the run, as when a
    # reader such as head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "eulersum.cli", "solve", "--weight", "20", "--bits", "192"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_package_env(), timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _commands(parser):
    (action,) = parser._subparsers._group_actions
    return action.choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_parser_matches_the_full_parser(command):
    # an argv naming a command reads a parser that lists every command but holds
    # only that one's arguments; its top-level and command help and usage are
    # those of the parser with every command's arguments
    own, full = cli._build_parser(command), cli._build_parser()
    assert own is not full
    assert (own.format_help(), own.format_usage()) == (full.format_help(), full.format_usage())
    assert list(_commands(own)) == list(_commands(full)) == list(cli._COMMANDS)
    mine, theirs = _commands(own)[command], _commands(full)[command]
    assert (mine.format_help(), mine.format_usage()) == (theirs.format_help(), theirs.format_usage())


_USAGE_ERRORS = [
    "", "nope", "--bits 128", "eval", "eval --family X --b 2", "eval --family J --b 2 --tol 1e-5",
    "oracle --family J --b 2 --tol abc", "oracle --family J --b 2 --tol 1e-400", "oracle --family J --b 2 extra",
    "verify --weight", "verify --family J --fam", "solve", "solve --weight 7 --format tsv",
    "table --family J --b 2..4 --format xml", "table --family J --b 2 --bits x",
]


@pytest.mark.parametrize("line", _USAGE_ERRORS)
def test_usage_errors_read_as_from_the_full_parser(capsys, monkeypatch, line):
    # the parser of the command argv names fails as the full parser does
    argv = line.split()
    rc, out, err = _run(capsys, *argv)
    full = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full)
    assert (rc, out, err) == _run(capsys, *argv)
    assert rc == 1 and not out and err.startswith("error: ")


_ONE_OF_EACH = [
    ["eval", "--family", "J", "--b", "3", "--bits", "128"],
    ["oracle", "--family", "J", "--b", "2", "--bits", "128"],
    ["verify", "--family", "Z", "--weight", "3..5", "--bits", "128"],
    ["solve", "--weight", "5", "--bits", "128"],
    ["table", "--family", "h", "--q", "2..4", "--bits", "128"],
]


@pytest.mark.parametrize("argv", _ONE_OF_EACH, ids=lambda argv: argv[0])
def test_pretty_is_format_pretty_and_the_later_flag_wins(capsys, argv):
    # --pretty stores "pretty" in --format's setting, so a repeated setting
    # follows its last flag, as every argparse option does
    assert not hasattr(cli._build_parser(argv[0]).parse_args(argv + ["--pretty"]), "pretty")
    pretty, plain = _run(capsys, *argv, "--pretty"), _run(capsys, *argv)
    assert pretty == _run(capsys, *argv, "--format", "pretty") == _run(capsys, *argv, "--format", "json", "--pretty")
    assert plain == _run(capsys, *argv, "--pretty", "--format", "json")
    assert pretty[0] == plain[0] == 0 and pretty[1] != plain[1]
    assert json.loads(plain[1])["command"] == argv[0]


@pytest.mark.parametrize("line, expected", [
    ("oracle --family J --b 2 --tol 0", (1, "", "error: target_tolerance must be positive\n")),
    ("oracle --family J --b 2 --max-terms 0", (1, "", "error: max_terms must be positive\n")),
    ("solve --weight 3..4", (1, "", "error: solve takes a single weight\n")),
    ("solve --weight 2", (1, "", "error: weight must be >= 3, got 2\n")),
    ("table --family J --b 3..2", (1, "", "error: empty range '3..2'\n")),
    ("verify --weight 3..a", (1, "", "error: invalid literal for int() with base 10: 'a'\n")),
])
def test_an_error_in_a_command_prints_one_line_and_nothing_on_stdout(capsys, line, expected):
    assert _run(capsys, *line.split()) == expected
