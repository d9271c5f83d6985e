import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from eulersum import cli
from eulersum import closedform
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
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "5")
    assert rc == 1
    assert "closed form" in err


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
    assert rc == 3
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


def test_bits_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("EULERSUM_DEFAULT_BITS", "96")
    rc, out, err = _run(capsys, "eval", "--family", "J", "--b", "2", "--bits", "160")
    assert rc == 0
    assert json.loads(out)["bits"] == 160


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
])
def test_stdout_matches_the_frozen_output(capsys, name, argv):
    # every printed digit and bound, frozen when BigReal still ran on mpmath.libmp;
    # the 4096-bit eval prints a bound below 2^-3500, which to_str rescales.  The
    # three oracle runs at 512 bits (remainder split, tilde sum, odd lattice) were
    # frozen before the weight and tilde expansions were read from numerics' tables
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
