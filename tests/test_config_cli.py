import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from localsft.cli import main
from localsft.config import parse_config, render_config
from localsft.errors import ConfigError

EXAMPLE = Path(__file__).resolve().parents[1] / "src" / "localsft" / "data" / "example.cfg"

SMALL = """
truncation 6

orbit gamma elliptic theta=3/10 max_iterate=4
orbit h hyperbolic cz1=1

curve v closed=yes index=0 rel_c1_doubled=2
curve vminus index=0 rel_c1_doubled=0 pos=(gamma)

cover w base=cyl:gamma degree=2 pos=(gamma,gamma) neg=(gamma^2)

table T orbit=gamma
  (gamma,gamma) (gamma^2) 1/2
  (gamma) (gamma) -3
end
"""


class TestParsing:
    def test_small_document(self):
        doc = parse_config(SMALL)
        assert doc.truncation == 6
        assert doc.registry.get("gamma").theta == Fraction(3, 10)
        assert doc.curves["v"].closed
        assert doc.covers["w"].degree == 2
        key = ((("gamma", 1), ("gamma", 1)), (("gamma", 2),))
        assert doc.tables["T"].entries[key] == Fraction(1, 2)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_config("# hello\n\ntruncation 3 # trailing\n")
        assert doc.truncation == 3

    def test_roundtrip_fixpoint(self):
        doc = parse_config(SMALL)
        rendered = render_config(doc)
        again = parse_config(rendered)
        assert again == doc
        assert render_config(again) == rendered

    def test_example_config_roundtrips(self):
        doc = parse_config(EXAMPLE.read_text())
        rendered = render_config(doc)
        assert parse_config(rendered) == doc
        assert render_config(parse_config(rendered)) == rendered

    def test_unknown_statement_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("truncation 4\nfrobnicate x\n")
        assert err.value.line == 2

    def test_unknown_orbit_reference_reports_line(self):
        text = "orbit a hyperbolic cz1=2\ncurve w index=0 pos=(zzz)\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 2
        assert "zzz" in str(err.value)

    def test_bad_fraction_reports_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config("orbit a elliptic theta=abc max_iterate=4\n")
        assert err.value.line == 1
        assert err.value.column is not None

    def test_table_without_end_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("orbit a hyperbolic cz1=2\ntable T orbit=a\n  (a) (a) 1\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("orbit a hyperbolic cz1=2\norbit a hyperbolic cz1=4\n")

    def test_elliptic_denominator_bound_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("orbit a elliptic theta=1/3 max_iterate=4\n")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCli:
    def test_check_on_shipped_example_passes(self):
        code, out, err = run_cli("--config", str(EXAMPLE), "check")
        assert code == 0, out + err
        assert "18/18 checks passed" in out

    def test_cz_table(self):
        code, out, _ = run_cli("--config", str(EXAMPLE), "cz", "gamma")
        assert code == 0
        lines = [l.split() for l in out.splitlines()[2:]]
        assert [l[1] for l in lines] == ["1", "2", "3", "4", "5", "6"]
        assert [l[2] for l in lines[:3]] == ["1", "1", "1"]

    def test_exceptional_reports_minus_one_quarter(self):
        code, out, _ = run_cli("--config", str(EXAMPLE), "exceptional", "v")
        assert code == 0
        assert "-1/4" in out
        for step in ("invariants", "divisor", "recursion", "obstruction",
                     "euler", "total"):
            assert f"[{step}]" in out

    def test_neckstretch_elliptic(self):
        code, out, _ = run_cli("--config", str(EXAMPLE), "neckstretch", "stretch")
        assert code == 0
        assert "defect -1" in out
        assert "CONSISTENT" in out

    def test_neckstretch_hyperbolic(self):
        code, out, _ = run_cli("--config", str(EXAMPLE), "neckstretch", "stretch_hyp")
        assert code == 0
        assert "CONTRADICTION" in out
        assert "not applicable" in out

    def test_hurwitz_subcommand(self):
        code, out, _ = run_cli("hurwitz", "--degree", "2", "--profile", "2",
                               "--profile", "2")
        assert code == 0
        assert "1/2" in out

    def test_determinism_byte_identical(self):
        for argv in (("--config", str(EXAMPLE), "check", "--format", "records"),
                     ("--config", str(EXAMPLE), "moduli"),
                     ("--config", str(EXAMPLE), "strata", "cyl_pair",
                      "--format", "records"),
                     ("--config", str(EXAMPLE), "neckstretch", "stretch_hyp",
                      "--format", "records")):
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second

    def test_missing_config_exits_two(self):
        code, _, err = run_cli("--config", "/nonexistent/zzz.cfg", "check")
        assert code == 2
        assert "error E_PARSE" in err

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("orbit a elliptic theta=1/2 max_iterate=4\n")
        code, _, err = run_cli("--config", str(bad), "cz")
        assert code == 2
        assert "error E_PARSE" in err
        assert "line 1" in err

    def test_hypothesis_violation_exits_three(self, tmp_path):
        cfg = tmp_path / "neck.cfg"
        cfg.write_text(
            "orbit g elliptic theta=3/10 max_iterate=4 morse=no\n"
            "curve p index=0 rel_c1_doubled=2 neg=(g)\n"
            "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
            "neck n orbits=(g) plus=p minus=m\n")
        code, _, err = run_cli("--config", str(cfg), "neckstretch", "n")
        assert code == 3
        assert "error E_NOT_MORSE" in err

    def test_vanishing_failure_exits_one(self, tmp_path):
        cfg = tmp_path / "ham.cfg"
        cfg.write_text(
            "orbit g elliptic theta=3/10 max_iterate=4\n"
            "table H orbit=g\n  (g) (g) 1\nend\n")
        code, out, _ = run_cli("--config", str(cfg), "hamiltonian", "H")
        assert code == 1
        assert "fail" in out

    def test_compose_identity(self, tmp_path):
        cfg = tmp_path / "compose.cfg"
        cfg.write_text(
            "truncation 6\n"
            "orbit g elliptic theta=3/10 max_iterate=3\n"
            "orbit e elliptic theta=7/10 max_iterate=3\n"
            "curve left index=0 rel_c1_doubled=0 pos=(e) neg=(g)\n"
            "table F curve=left\n  (e) (g) 2\nend\n"
            "table E orbit=g\n  (g) (g) 1\n  (g^2) (g^2) 2\n  (g^3) (g^3) 3\nend\n")
        # E is the identity table: weights 1/kappa^2 * count = 1/kappa
        code, out, _ = run_cli("--config", str(cfg), "compose", "E", "F",
                               "--middle", "g")
        assert code == 0
        assert out.strip() == "2*p+[e]*q-[g]"

    def test_strata_records_lists_neck_products(self):
        code, out, _ = run_cli("--config", str(EXAMPLE), "strata", "sphere_double",
                               "--neck", "stretch", "--format", "records")
        assert code == 0
        assert "(gamma^2)" in out
        assert "(gamma,gamma)" in out

    def test_module_entry_point_subprocess(self):
        import subprocess
        proc = subprocess.run(
            [sys.executable, "-m", "localsft.cli", "--config", str(EXAMPLE),
             "exceptional", "v"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "-1/4" in proc.stdout


def test_cylinder_neck_and_unordered_collection_roundtrip(tmp_path):
    text = (
        "orbit e elliptic theta=3/10 max_iterate=4\n"
        "orbit h hyperbolic cz1=2\n"
        "curve c index=2 rel_c1_doubled=0 pos=(e^2,e)\n"
        "neck n orbits=(h) plus=cyl:h minus=cyl:e\n")
    doc = parse_config(text)
    rendered = render_config(doc)
    assert "pos=(e,e^2)" in rendered
    assert "plus=cyl:h minus=cyl:e" in rendered
    assert parse_config(rendered) == doc
    cfg = tmp_path / "roundtrip.cfg"
    cfg.write_text(text)
    code, out, err = run_cli("--config", str(cfg), "check")
    assert code == 0, out + err
    assert "config-roundtrip  pass" in out


@pytest.mark.parametrize("argv", [
    ("hurwitz", "--degree", "2", "--profile", "2,x"),
    ("hurwitz", "--degree", "0"),
    ("hurwitz", "--degree", "2", "--branch-points", "-1"),
    ("hurwitz", "--degree", "2", "--profile", "2,0"),
    ("--config", str(EXAMPLE), "strata", "cyl_pair", "--max-codim", "-1"),
    ("--config", str(EXAMPLE), "cz", "--max-k", "0"),
])
def test_invalid_arguments_give_one_error_line(argv):
    code, _, err = run_cli(*argv)
    assert code in (1, 2)
    assert re.fullmatch(r"error E_[A-Z_]+: [^\n]+\n", err), err


def test_compose_over_odd_hyperbolic_orbit_skips_bad_iterates():
    # zeta has odd cz1, so its even iterates are bad and carry no variables
    args = ("--config", str(EXAMPLE), "compose", "F_vminus", "F_vminus", "--middle", "zeta")
    code, out, err = run_cli(*args)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(*args, "--max-k", "1")


@pytest.mark.parametrize("argv", [
    ("--truncation", "-1", "potential", "F_vminus"),
    ("compose", "F_vminus", "F_vminus", "--middle", "gamma", "--order", "-1"),
    ("compose", "F_vminus", "F_vminus", "--middle", "gamma", "--max-k", "0"),
])
def test_negative_numeric_arguments_are_parse_errors(argv):
    code, out, err = run_cli("--config", str(EXAMPLE), *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error E_PARSE: [^\n]+\n", err), err


def test_zero_truncation_keeps_the_config_value():
    assert run_cli("--config", str(EXAMPLE), "--truncation", "0", "potential", "F_vminus") \
        == run_cli("--config", str(EXAMPLE), "potential", "F_vminus")
