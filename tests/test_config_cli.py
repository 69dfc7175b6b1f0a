import importlib.util
import io
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsft import cli, config, covers
from localsft.cli import main
from localsft.config import _parse_fraction, parse_config, render_config
from localsft.covers import HURWITZ_BRANCH_POINT_BOUND, HURWITZ_DEGREE_BOUND, hurwitz_count
from localsft.errors import ConfigError, IterateOutOfRange, LocalSFTError
from localsft.orbits import OrbitRegistry
from localsft.potentials import CountTable

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

    def test_weight_roundtrip_failure_exits_one(self, tmp_path):
        # at truncation 2 the series drops the row (g,g,g), so the table read back lacks it
        cfg = tmp_path / "roundtrip.cfg"
        cfg.write_text(
            "orbit g elliptic theta=3/10 max_iterate=4\n"
            "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
            "table T curve=m\n(g) () 1\n(g,g) () 1/2\n(g,g,g) () 1/3\nend\n")
        argv = ("--config", str(cfg), "--format", "records", "potential", "T")
        assert run_cli("--truncation", "2", *argv) == (
            1, "field=series\tvalue=p+[g] + 1/4*p+[g]^2\nfield=weight_roundtrip\tvalue=fail\n",
            "")
        code, out, err = run_cli("--truncation", "3", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "field=weight_roundtrip\tvalue=pass"

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

    @pytest.mark.parametrize("argv", [["cz", "gamma"], ["cz", "zeta", "--max-k", "10000"]])
    def test_a_closed_stdout_exits_one_with_nothing_on_stderr(self, argv):
        import os
        import subprocess
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "localsft.cli", "--config", str(EXAMPLE),
                                   *argv], stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


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
    assert code == 1, out + err
    assert "config-roundtrip  pass" in out
    # the limit curves end off the neck, so check fails the neck as strata --neck does
    assert ("neck:n            FAIL    E_COVER: neck limit curve cyl(h) must have negative "
            "ends (h) and no positive end") in out


@pytest.mark.parametrize("argv", [
    ("hurwitz", "--degree", "2", "--profile", "2,x"),
    ("hurwitz", "--degree", "0"),
    ("hurwitz", "--degree", "2", "--branch-points", "-1"),
    ("hurwitz", "--degree", "2", "--profile", "2,0"),
    ("hurwitz", "--degree", "2", "--branch-points", "1001"),
    ("--config", str(EXAMPLE), "strata", "cyl_pair", "--max-codim", "-1"),
    ("--config", str(EXAMPLE), "cz", "--max-k", "0"),
    ("--config", str(EXAMPLE), "cz", "--max-k", "10001"),
    ("--config", str(EXAMPLE), "compose", "F_vminus", "F_vminus", "--middle", "gamma",
     "--max-k", "10001"),
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
    ("cz", "--max-k", "10001"),
    ("compose", "F_vminus", "F_vminus", "--middle", "gamma", "--max-k", "10001"),
])
def test_negative_numeric_arguments_are_parse_errors(argv):
    code, out, err = run_cli("--config", str(EXAMPLE), *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error E_PARSE: [^\n]+\n", err), err


@pytest.mark.parametrize("argv, name", [
    (("cz", "nosuch"), "nosuch"),
    (("cz", "gamma", "nosuch"), "nosuch"),
    (("compose", "F_vminus", "F_vminus", "--middle", "nosuch"), "nosuch"),
    (("compose", "F_vminus", "F_vminus", "--middle", ","), ""),
], ids=["cz", "cz-second-name", "compose", "compose-empty-name"])
def test_unknown_orbit_names_are_parse_errors(argv, name):
    # like every other unknown name on the command line
    code, out, err = run_cli("--config", str(EXAMPLE), *argv)
    assert (code, out, err) == (2, "", f"error E_PARSE: unknown orbit {name!r}\n")


def test_zero_truncation_keeps_the_config_value():
    assert run_cli("--config", str(EXAMPLE), "--truncation", "0", "potential", "F_vminus") \
        == run_cli("--config", str(EXAMPLE), "potential", "F_vminus")


def test_check_compares_hurwitz_formula_with_enumeration(monkeypatch):
    from localsft import covers
    enumerate_ = covers._hurwitz_by_enumeration
    calls = []

    def spy(d, profiles, b):
        calls.append((d, b))
        return enumerate_(d, profiles, b)

    monkeypatch.setattr(covers, "_hurwitz_by_enumeration", spy)
    code, out, _ = run_cli("--config", str(EXAMPLE), "check")
    assert code == 0
    assert re.search(r"^hurwitz-oracle +pass +4 frozen values$", out, re.MULTILINE)
    assert len(calls) == 4
    monkeypatch.setattr(covers, "_hurwitz_by_enumeration",
                        lambda d, profiles, b: enumerate_(d, profiles, b) + 1)
    code, out, _ = run_cli("--config", str(EXAMPLE), "check")
    assert code == 1
    assert re.search(r"^hurwitz-oracle +FAIL +.*enumeration", out, re.MULTILINE)


@pytest.mark.parametrize("d", [7, 12])
def test_hurwitz_beyond_the_enumeration_degrees(d):
    code, out, err = run_cli("hurwitz", "--degree", str(d), "--profile", str(d),
                             "--branch-points", str(d - 1), "--format", "records")
    assert (code, err) == (0, "")
    assert out == f"degree={d}\tprofiles={d}\tbranch_points={d - 1}\tcount={d ** (d - 3)}\n"


def test_hurwitz_at_the_branch_point_bound():
    # a numerator of about 1,800 digits, printed in full
    b = HURWITZ_BRANCH_POINT_BOUND
    code, out, err = run_cli("hurwitz", "--degree", "12", "--branch-points", str(b),
                             "--format", "records")
    assert (code, err) == (0, "")
    assert out == f"degree=12\tprofiles=-\tbranch_points={b}\tcount={hurwitz_count(12, [], b)}\n"


def test_iterate_zero_in_a_collection_is_a_parse_error():
    with pytest.raises(ConfigError, match="iterate multiplicity must be positive"):
        parse_config("orbit h hyperbolic cz1=2\ncurve c index=0 pos=(h^0)\n")


_NAMES = st.sampled_from(["v", "vminus", "cyl_pair", "sphere_double", "plane_double",
                          "H_gamma", "F_vminus", "stretch", "stretch_hyp", "gamma",
                          "zeta", "eta", "nope", ""])
_SMALL = st.integers(-2, 5).map(str)
_PROFILE = st.one_of(
    st.lists(st.integers(-1, 13), min_size=1, max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,-x ", max_size=8),
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _hurwitz_argv():
    degree = st.integers(-1, HURWITZ_DEGREE_BOUND + 1)
    return st.builds(
        lambda d, profiles, b: ["hurwitz", "--degree", str(d), "--branch-points", str(b),
                                *[x for p in profiles for x in ("--profile", p)]],
        degree, st.lists(_PROFILE, max_size=3), st.integers(-1, 3))


def _config_argv():
    return st.one_of(
        st.builds(lambda names, k: ["cz", *names, *k], st.lists(_NAMES, max_size=2),
                  _flag("--max-k", _SMALL)),
        st.sampled_from([["index"], ["moduli"], ["check"]]),
        st.builds(lambda c, codim, neck: ["strata", c, *codim, *neck], _NAMES,
                  _flag("--max-codim", _SMALL), _flag("--neck", _NAMES)),
        st.builds(lambda cmd, name: [cmd, name],
                  st.sampled_from(["hamiltonian", "potential", "exceptional", "neckstretch"]),
                  _NAMES),
        st.builds(lambda a, b, middle, order, k: ["compose", a, b, "--middle", ",".join(middle),
                                                  *order, *k],
                  _NAMES, _NAMES, st.lists(_NAMES, min_size=1, max_size=2),
                  _flag("--order", _SMALL), _flag("--max-k", _SMALL)),
    ).map(lambda argv: ["--config", str(EXAMPLE), *argv])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_hurwitz_argv(), _config_argv()),
       _flag("--format", st.sampled_from(["table", "records", "json"])),
       _flag("--truncation", _SMALL))
def test_generated_argv_exit_codes_and_one_error_line(argv, fmt, truncation):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*argv, *fmt, *truncation])
        except SystemExit as exc:    # argparse rejects the argv with its usage text
            code = exc.code
            assert code == 2 and err.getvalue().startswith("usage: ")
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(re.findall(r"^error E_[A-Z_]+: ", err, re.MULTILINE)) <= 1
    if err and not err.startswith("usage: "):
        assert re.fullmatch(r"error E_[A-Z_]+: [^\n]+\n", err), err


# `strata sphere_marked --neck stretch --max-codim 2 --format records` on the
# example, verbatim: the order of the edges is part of the output.
SPHERE_MARKED_NECK_STRATA = [
    ("vplus:d2:()/(gamma^2):r0c0:n1:middle",
     "vminus:d2:(gamma^2)/():r1c1:n1:middle", "(gamma^2)"),
    ("vplus:d2:()/(gamma^2):r1c1:n1:middle",
     "vminus:d2:(gamma^2)/():r0c0:n1:middle", "(gamma^2)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n1:middle",
     "vminus:d2:(gamma,gamma)/():r1c1:n2:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n2:middle",
     "vminus:d2:(gamma,gamma)/():r1c1:n1:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r1c1:n1:middle",
     "vminus:d2:(gamma,gamma)/():r0c0:n2:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r1c1:n2:middle",
     "vminus:d2:(gamma,gamma)/():r0c0:n1:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma^2):r0c0:n1:bottom-cylinder", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma^2)/(gamma^2):r1c1:n1:top-cylinder",
     "vminus:d2:(gamma^2)/():r0c0:n1:middle", "(gamma^2)"),
    ("cyl(gamma):d2:(gamma^2)/(gamma,gamma):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r1c1:n2:middle", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma^2)/(gamma,gamma):r1c1:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r0c0:n2:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma^2):r0c0:n1:middle",
     "cyl(gamma):d2:(gamma^2)/(gamma^2):r1c1:n1:bottom-cylinder", "(gamma^2)"),
    ("vplus:d2:()/(gamma,gamma):r1c1:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma^2):r0c0:n1:bottom-cylinder", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma^2):r1c1:n1:bottom-cylinder", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma^2)/(gamma,gamma):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r0c0:n2:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma^2):r0c0:n1:middle",
     "cyl(gamma):d2:(gamma^2)/(gamma,gamma):r0c0:n1:bottom-cylinder", "(gamma^2)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r0c0:n1:bottom-cylinder", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma^2):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma^2)/():r1c1:n1:middle", "(gamma^2)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma^2):r1c1:n1:top-cylinder",
     "vminus:d2:(gamma^2)/():r0c0:n1:middle", "(gamma^2)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r1c1:n2:middle", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r1c1:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r0c0:n2:middle", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r1c1:n2:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r0c0:n1:middle", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma^2):r1c1:n1:middle",
     "cyl(gamma):d2:(gamma^2)/(gamma,gamma):r0c0:n1:bottom-cylinder", "(gamma^2)"),
    ("vplus:d2:()/(gamma^2):r0c0:n1:middle",
     "cyl(gamma):d2:(gamma^2)/(gamma,gamma):r1c1:n1:bottom-cylinder", "(gamma^2)"),
    ("vplus:d2:()/(gamma,gamma):r1c1:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r0c0:n1:bottom-cylinder", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n2:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r1c1:n1:bottom-cylinder", "(gamma,gamma)"),
    ("vplus:d2:()/(gamma,gamma):r0c0:n1:middle",
     "cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r1c1:n2:bottom-cylinder", "(gamma,gamma)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma^2):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma^2)/():r0c0:n1:middle", "(gamma^2)"),
    ("cyl(gamma):d2:(gamma,gamma)/(gamma,gamma):r0c0:n1:top-cylinder",
     "vminus:d2:(gamma,gamma)/():r0c0:n2:middle", "(gamma,gamma)"),
]


def test_strata_records_edge_order_golden():
    code, out, err = run_cli("--config", str(EXAMPLE), "strata", "sphere_marked", "--neck",
                             "stretch", "--max-codim", "2", "--format", "records")
    assert (code, err) == (0, "")
    assert out == "".join("\t".join(row) + "\n" for row in SPHERE_MARKED_NECK_STRATA)


@st.composite
def _documents(draw):
    """Config text with orbits, curves, covers and necks; collections in any order."""
    lines = [f"truncation {draw(st.integers(1, 9))}"]
    tops = {}
    for i in range(draw(st.integers(1, 4))):
        morse = draw(st.sampled_from(["", " morse=no"]))
        if draw(st.booleans()):
            top = draw(st.integers(1, 6))
            theta = draw(st.integers(top + 1, top + 5).flatmap(
                lambda den: st.integers(1, 3 * den).map(lambda num: Fraction(num, den)))
                .filter(lambda t: t.denominator > top))
            lines.append(f"orbit e{i} elliptic theta={theta} max_iterate={top}{morse}")
            tops[f"e{i}"] = top
        else:
            lines.append(f"orbit h{i} hyperbolic cz1={draw(st.integers(-5, 5))}{morse}")
            tops[f"h{i}"] = 4
    names = sorted(tops)
    atom = st.sampled_from(names).flatmap(
        lambda name: st.integers(1, tops[name]).map(lambda k: name if k == 1 else f"{name}^{k}"))
    # written in drawn order, which is rarely the sorted order the renderer writes
    collection = st.lists(atom, max_size=4).map(lambda atoms: f"({','.join(atoms)})")
    curves = [f"cyl:{name}" for name in names]
    rigid = list(curves)
    for i in range(draw(st.integers(0, 3))):
        index = draw(st.integers(-1, 1))
        bits = [f"curve c{i} index={index} rel_c1_doubled={draw(st.integers(-4, 4))}"]
        if draw(st.booleans()):
            bits.append("immersed=no")
        if draw(st.booleans()):
            bits.append("closed=yes")
        else:
            bits.append(f"pos={draw(collection)} neg={draw(collection)}")
        lines.append(" ".join(bits))
        curves.append(f"c{i}")
        if index == 0:
            rigid.append(f"c{i}")
    for i in range(draw(st.integers(0, 3))):
        marked = draw(st.integers(0, 2))
        lines.append(f"cover w{i} base={draw(st.sampled_from(curves))} "
                     f"degree={draw(st.integers(1, 4))} pos={draw(collection)} "
                     f"neg={draw(collection)} marked={marked} "
                     f"constrained={draw(st.integers(0, marked))}")
    for i in range(draw(st.integers(0, 2))):
        orbits = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        lines.append(f"neck n{i} orbits=({','.join(orbits)}) "
                     f"plus={draw(st.sampled_from(rigid))} minus={draw(st.sampled_from(rigid))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_documents())
def test_generated_documents_roundtrip(text):
    doc = parse_config(text)
    rendered = render_config(doc)
    assert parse_config(rendered) == doc
    assert render_config(parse_config(rendered)) == rendered


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [line for line in README.read_text().splitlines()
                   if line.startswith("localsft --config ")]


def test_readme_lists_commands():
    assert len(README_COMMANDS) >= 10


@pytest.mark.parametrize("line", README_COMMANDS,
                         ids=[line.partition("example.cfg ")[2] or line for line in README_COMMANDS])
def test_readme_commands_run_on_the_shipped_example(line):
    argv = shlex.split(line)[1:]
    assert argv[1] == "src/localsft/data/example.cfg"
    argv[1] = str(EXAMPLE)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    assert out.getvalue() and not err.getvalue()


def test_max_iterate_above_the_bound_is_one_error_line(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("truncation 4\norbit g elliptic theta=1/1000001 max_iterate=1000000\n")
    code, out, err = run_cli("--config", str(cfg), "cz")
    assert (code, out) == (1, "")
    assert err == ("error E_ITERATE_RANGE: line 2: orbit g: max_iterate 1000000 exceeds "
                   "MAX_ITERATE_BOUND=10000\n")


def test_iterate_beyond_max_iterate_in_a_collection_keeps_its_code(tmp_path):
    # the same error code and exit status as an orbit's own bound, not a parse error
    cfg = tmp_path / "beyond.cfg"
    cfg.write_text("orbit g elliptic theta=3/10 max_iterate=4\n"
                   "cover c base=cyl:g degree=5 pos=(g^5) neg=(g^5)\n")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, out) == (1, "")
    assert err == "error E_ITERATE_RANGE: line 2 col 29: g^5: beyond declared bound max_iterate=4\n"


@pytest.mark.parametrize("statement, message", [
    ("cover c base=nosuch degree=1", "line 2 col 9: unknown curve 'nosuch'"),
    ("cover c base=cyl:nosuch degree=1", "line 2 col 9: unknown orbit 'nosuch'"),
    ("table T curve=nosuch\nend", "line 2 col 9: unknown curve 'nosuch'"),
    ("table T orbit=nosuch\nend", "line 2 col 9: unknown orbit 'nosuch'"),
    ("neck n orbits=(g) plus=cyl:g minus=nosuch", "line 2 col 30: unknown curve 'nosuch'"),
    ("neck n orbits=(g,nosuch) plus=cyl:g minus=cyl:g", "line 2 col 8: unknown orbit 'nosuch'"),
], ids=["cover", "cover-cylinder", "curve-table", "orbit-table", "neck-side", "neck-orbit"])
def test_unknown_names_are_positioned_parse_errors(statement, message):
    with pytest.raises(ConfigError) as err:
        parse_config(f"orbit g elliptic theta=3/10 max_iterate=4\n{statement}\n")
    assert str(err.value) == message


# faults placed at their own token, after the line "orbit g elliptic theta=3/10 max_iterate=4"
_COLUMN_CASES = [
    ("curve c index=0 pos=(g) pos=(g)", "line 2 col 25: duplicate key 'pos'"),
    ("curve c index=0 pos=(g) s=(g)", "line 2 col 25: unknown curve key 's'"),
    ("table T orbit=g\n(g) () g\nend", "line 3 col 8: expected a rational number, got 'g'"),
    ("orbit z hyperbolic cz1=1\ntable T orbit=z\n(z) (z) 1\n(z^2) (z^2) 1\nend",
     "line 5 col 1: key (z^2)|(z^2): bad iterate z^2 carries no variables"),
    ("orbit h hyperbolic cz1=2\ntable T orbit=h\n(h,h) (h^2) 1\nend",
     "line 4 col 1: key (h,h)|(h^2): odd iterate h repeats; its monomial vanishes and "
     "the weight is not invertible"),
    ("table T orbit=g\n(g) (g) 1\n(g^2) (g) 1\nend",
     "line 4 col 1: key (g^2)|(g): sides imply different degrees [1, 2]"),
    ("curve w index=0 neg=(g)\ntable T curve=w\n(g) () 1\nend",
     "line 4 col 1: key (g)|(): implies covering degree 0; cover degree must be positive"),
    ("curve w index=0 rel_c1_doubled=0 pos=(g^2)\ntable T curve=w\n(g^3) () 1\nend",
     "line 4 col 1: key (g^3)|(): multiplicity 3 is not a multiple of the base profile 2"),
    ("curve s closed=yes index=0 rel_c1_doubled=2\ntable T curve=s\n() () 1\nend",
     "line 4 col 1: key ()|(): cannot infer a covering degree"),
    ("curve w index=0 rel_c1_doubled=0 pos=(g,g,g)\ntable T curve=w\n(g^2,g^2,g^2) () 1\nend",
     "line 4 col 1: key (g^2,g^2,g^2)|(): M[w,2]((g^2,g^2,g^2)|()): negative total "
     "ramification"),
    ("table T orbit=g\n(g) (g) 1\n(g) (g) 2\nend", "line 4 col 1: duplicate table row"),
    # the atom g^5 first occurs on line 4: a rejected atom is resolved again where it recurs
    ("table T orbit=g\n(g) (g) 1\n(g^5) (g^5) 1\nend",
     "line 4 col 1: g^5: beyond declared bound max_iterate=4"),
    ("truncation 0", "line 2 col 12: truncation must be positive"),
    ("orbit a elliptic theta=3/10 max_iterate=4 morse=maybe",
     "line 2 col 43: expected yes/no, got 'maybe'"),
    ("curve c index=0 pos=a", "line 2 col 17: expected a parenthesized list, got 'a'"),
    ("curve c index", "line 2 col 9: expected key=value, got 'index'"),
    ("truncation 3 4", "line 2 col 1: truncation takes exactly one value"),
    ("truncation 3\ntruncation 4", "line 3 col 1: duplicate truncation statement"),
    ("neck n orbits=() plus=p minus=m", "line 2 col 8: neck needs at least one orbit"),
]
_COLUMN_IDS = ["repeated-token", "suffix-of-earlier-token", "table-row", "bad-iterate-row",
               "odd-repeat-row", "unequal-degrees-row", "degree-zero-row", "not-a-multiple-row",
               "closed-curve-row", "negative-ramification-row", "duplicate-row",
               "iterate-range-row", "truncation-value", "bool-value", "list-value",
               "bare-key", "truncation-arity", "truncation-twice", "empty-neck"]


@pytest.mark.parametrize("statement, message", _COLUMN_CASES, ids=_COLUMN_IDS)
def test_error_column_is_that_of_the_token_itself(statement, message):
    # not that of an earlier token with the same text, or containing it
    with pytest.raises(LocalSFTError) as err:
        parse_config(f"orbit g elliptic theta=3/10 max_iterate=4\n{statement}\n")
    # an iterate out of range keeps its own code; every other error is a parse error
    assert type(err.value) is (IterateOutOfRange if "beyond declared bound" in message
                               else ConfigError)
    assert str(err.value) == message


# the commands that read no table row, and those that read them, with arguments for example.cfg
_ROWLESS_COMMANDS = [["cz"], ["index"], ["moduli"], ["strata", "cyl_pair"],
                     ["neckstretch", "stretch"], ["exceptional", "v"]]
_ROW_COMMANDS = [["check"], ["potential", "F_vminus"], ["hamiltonian", "H_gamma"],
                 ["compose", "F_vminus", "F_vminus", "--middle", "gamma"]]
_ROW_CASES = [(case, id_) for case, id_ in zip(_COLUMN_CASES, _COLUMN_IDS) if "table " in case[0]]


@pytest.mark.parametrize("statement, message", [case for case, _ in _ROW_CASES],
                         ids=[id_ for _, id_ in _ROW_CASES])
def test_a_row_fault_fails_only_the_commands_that_read_rows(tmp_path, statement, message):
    # the faulty table ahead of example.cfg keeps the lines of the message
    prefix = "orbit g elliptic theta=3/10 max_iterate=4\n"
    faulty, clean = tmp_path / "faulty.cfg", tmp_path / "clean.cfg"
    faulty.write_text(f"{prefix}{statement}\n{EXAMPLE.read_text()}")
    clean.write_text(prefix + statement[:statement.index("table ")] + EXAMPLE.read_text())
    for command in _ROWLESS_COMMANDS:
        want = run_cli("--config", str(clean), *command)
        assert want[0] == 0, (command, want)
        assert run_cli("--config", str(faulty), *command) == want, command
    code, exit_code = (("E_ITERATE_RANGE", 1) if "beyond declared bound" in message
                       else ("E_PARSE", 2))
    for command in _ROW_COMMANDS:
        assert run_cli("--config", str(faulty), *command) == (
            exit_code, "", f"error {code}: {message}\n"), command


@pytest.mark.parametrize("statement, message", [
    ("table T orbit=g\n(g) (g) 1", "line {0}: table 'T' is missing its end line"),
    ("table T orbit=g\n(g) (g)\nend", "line {1} col 1: table rows are: <pos> <neg> <count>"),
    ("table T orbit=g\n(g) (g) 1 1\nend", "line {1} col 1: table rows are: <pos> <neg> <count>"),
    ("table T orbit=nosuch\n(g) (g) 1\nend", "line {0} col 9: unknown orbit 'nosuch'"),
    ("table T curve=nosuch\n(g) () 1\nend", "line {0} col 9: unknown curve 'nosuch'"),
    ("table T orbit=g curve=vminus\nend",
     "line {0}: table statement needs exactly one of orbit=.../curve=..."),
    ("table T\nend", "line {0}: table statement needs exactly one of orbit=.../curve=..."),
    ("table F_vminus curve=vminus\nend", "line {0}: duplicate table name 'F_vminus'"),
], ids=["missing-end", "two-tokens", "four-tokens", "unknown-orbit", "unknown-curve",
        "both-contexts", "no-context", "duplicate-name"])
def test_a_table_fault_outside_its_rows_fails_every_command(tmp_path, statement, message):
    # after example.cfg, so that a table without end runs to the end of the document
    text = "orbit g elliptic theta=3/10 max_iterate=4\n" + EXAMPLE.read_text()
    first = text.count("\n") + 1
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(f"{text}{statement}\n")
    want = (2, "", f"error E_PARSE: {message.format(first, first + 1)}\n")
    for command in _ROWLESS_COMMANDS + _ROW_COMMANDS:
        assert run_cli("--config", str(cfg), *command) == want, command


def test_a_row_fault_precedes_later_faults_only_where_rows_are_read(tmp_path):
    cfg = tmp_path / "order.cfg"
    cfg.write_text("orbit z hyperbolic cz1=1\ntable T orbit=z\n(z) (z) 1\n(z^2) (z^2) 1\nend\n"
                   "cover c base=nosuch degree=1\n")
    assert run_cli("--config", str(cfg), "check") == (
        2, "", "error E_PARSE: line 4 col 1: key (z^2)|(z^2): bad iterate z^2 carries no "
               "variables\n")
    assert run_cli("--config", str(cfg), "cz") == (
        2, "", "error E_PARSE: line 6 col 9: unknown curve 'nosuch'\n")


def test_rowless_commands_read_no_table_row(monkeypatch):
    lines = EXAMPLE.read_text().splitlines()
    bodies, inside = set(), False
    for number, line in enumerate(lines, 1):
        inside = line.startswith("table ") or (inside and line != "end")
        if inside and not line.startswith("table "):
            bodies.add(number)
    added, parsed_at = [], []
    add, parse_collection = CountTable._add, config._parse_collection
    monkeypatch.setattr(CountTable, "_add", lambda self, *args: (
        added.append(args), add(self, *args))[1])
    monkeypatch.setattr(config, "_parse_collection", lambda text, lines, registry, sign, line, col: (
        parsed_at.append(line), parse_collection(text, lines, registry, sign, line, col))[1])
    for command in (["cz"], ["strata", "cyl_pair"]):
        assert run_cli("--config", str(EXAMPLE), *command)[0] == 0
    assert added == [] and parsed_at and not bodies & set(parsed_at)
    # the spies see the rows of a command that reads them
    assert run_cli("--config", str(EXAMPLE), "potential", "F_vminus")[0] == 0
    assert len(added) == 1 and bodies & set(parsed_at)


def test_orbit_cylinders_are_built_once_per_document():
    doc = parse_config("orbit g elliptic theta=3/10 max_iterate=4\n"
                       "cover a base=cyl:g degree=2 pos=(g,g) neg=(g,g)\n"
                       "cover b base=cyl:g degree=1 pos=(g) neg=(g)\n"
                       "table T orbit=g\n(g) (g) 1\nend\n")
    assert doc.covers["a"].base is doc.covers["b"].base is doc.tables["T"].base
    assert doc.curve("cyl:g") is doc.tables["T"].base
    assert parse_config(render_config(doc)) == doc


@pytest.mark.parametrize("name", ["cyl(g)", "cyl:g"])
def test_curve_names_of_orbit_cylinders_are_reserved(tmp_path, name):
    # cyl(g) would render as cyl:g, the cylinder over g; cyl:g could never be referred to
    cfg = tmp_path / "cyl.cfg"
    cfg.write_text("orbit g elliptic theta=3/10 max_iterate=4\n"
                   f"curve {name} index=0 rel_c1_doubled=2 pos=(g)\n"
                   f"cover c base={name} degree=2 pos=(g,g)\n")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, out) == (2, "")
    assert err == (f"error E_PARSE: line 2 col 7: curve name {name!r} is reserved "
                   f"for orbit cylinders\n")


def test_table_row_off_the_base_orbits_names_its_key(tmp_path):
    # the row's multiplicity is the base's, but over another orbit
    cfg = tmp_path / "offbase.cfg"
    cfg.write_text("orbit e0 elliptic theta=3/10 max_iterate=4\n"
                   "orbit h3 hyperbolic cz1=3\n"
                   "curve me0 index=0 rel_c1_doubled=0 pos=(e0)\n"
                   "table T curve=me0\n"
                   "(e0) () 1\n"
                   "(h3) () 1\n"
                   "end\n")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, out) == (2, "")
    assert err == ("error E_PARSE: line 6 col 1: key (h3)|(): M[me0,1]((h3)|()): positive "
                   "ends {'h3': 1} do not cover the base profile {'e0': 1} with degree 1\n")


def test_a_hyperbolic_orbit_rejects_max_iterate(tmp_path):
    # the renderer writes max_iterate for elliptic orbits only, so a hyperbolic orbit
    # that kept it would not round-trip: it is refused on its own line
    cfg = tmp_path / "hyperbolic.cfg"
    cfg.write_text("orbit a hyperbolic cz1=1 max_iterate=3\n")
    assert run_cli("--config", str(cfg), "check") == (
        2, "", "error E_PARSE: line 1: orbit a: max_iterate is elliptic-only data\n")


def test_covers_outside_the_rank_hypotheses_are_reported_not_rejected(tmp_path):
    # a hyperbolic end, and a base that is not immersed: the rank is E_HYPOTHESIS for
    # both, the dimension is unknown for the second, and check still passes
    cfg = tmp_path / "hypotheses.cfg"
    cfg.write_text("orbit e elliptic theta=3/10 max_iterate=6\norbit h hyperbolic cz1=1\n"
                   "curve w index=0 rel_c1_doubled=0 pos=(h)\n"
                   "curve x immersed=no index=0 rel_c1_doubled=0 pos=(e)\n"
                   "cover cw base=w degree=2 pos=(h,h)\ncover cx base=x degree=2 pos=(e,e)\n")
    assert run_cli("--config", str(cfg), "--format", "records", "moduli") == (0, (
        "cover=cw\tdegree=2\tindex=2\tbranch=2\tdim=4\tvirdim=2\trank=E_HYPOTHESIS\t"
        "c_N_doubled=0\tc1_Nu=-4\tnotes=domain automorphisms left unquotiented "
        "(fewer than three special points)\n"
        "cover=cx\tdegree=2\tindex=2\tbranch=2\tdim=-\tvirdim=2\trank=E_HYPOTHESIS\t"
        "c_N_doubled=0\tc1_Nu=-4\tnotes=E_NOT_IMMERSED\n"), "")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, err) == (0, "")
    for name in ("cw", "cx"):
        assert re.search(rf"^cover:{name} +pass +Z=2 ind=2 rank n/a \(E_HYPOTHESIS\) strata=2$",
                         out, re.MULTILINE), out


ZERO_COUNT = ("orbit g elliptic theta=3/10 max_iterate=4\n"
              "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
              "table T curve=m\n(g) () 0\n(g,g) () 1/2\nend\n")


def test_a_zero_count_passes_the_weight_round_trip(tmp_path):
    # a count table is finitely supported: the series drops the zero row, and a table
    # read back without it is the same table
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_COUNT)
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, err) == (0, ""), out
    assert re.search(r"^table:T +pass +round-trip ok$", out, re.MULTILINE)
    code, out, err = run_cli("--config", str(cfg), "--format", "records", "potential", "T")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "field=weight_roundtrip\tvalue=pass"
    # rendering keeps the zero row, so parse -> render -> parse stays a fixpoint
    rendered = render_config(parse_config(ZERO_COUNT))
    assert "  (g) () 0\n" in rendered
    assert render_config(parse_config(rendered)) == rendered


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-/._e", max_size=8))
@example("3/-4")  # int("-4") accepts the denominator
@example("1_000")  # Fraction rejects it on Python 3.10, int accepts it
@example("0.25")
@example("1e3")
@example("5/0")
@example("+5/3")
@example("-0")
@example("/3")
def test_rationals_are_read_as_fraction_reads_them(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = f"line 1 col 1: expected a rational number, got {text!r}"
    try:
        got = _parse_fraction(text, 1, 1)
    except ConfigError as exc:
        got = str(exc)
    assert (type(got), got) == (type(want), want)


def test_parse_checks_rows_by_arithmetic_and_resolves_each_atom_once(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text = workloads.stress_config(0)[0]
    validated, names, atoms = [], [], set()
    monkeypatch.setattr(covers, "validate_cover", lambda spec: validated.append(spec))
    get = OrbitRegistry.get
    parse_collection = config._parse_collection
    inside = []

    def collection_spy(text, *args):
        atoms.update(text[1:-1].split(",") if text != "()" else ())
        inside.append(text)
        try:
            return parse_collection(text, *args)
        finally:
            inside.pop()

    # the lookups that resolve collection atoms; tables, cylinders and necks look up names
    monkeypatch.setattr(config, "_parse_collection", collection_spy)
    monkeypatch.setattr(OrbitRegistry, "get", lambda self, name: (
        names.append(name) if inside else None) or get(self, name))
    doc = parse_config(text)
    assert sum(len(table.entries) for table in doc.tables.values()) > 50
    assert validated == []
    assert sorted(names) == sorted(atom.partition("^")[0] for atom in atoms)


_EXAMPLE_LINES = EXAMPLE.read_text().splitlines()
_TOKENS = [(i, j) for i, line in enumerate(_EXAMPLE_LINES) if not line.startswith("#")
           for j in range(len(line.split()))]


@st.composite
def _mutated_examples(draw):
    """The shipped example with one token made an unknown name or deleted, or a line doubled."""
    lines = list(_EXAMPLE_LINES)
    i, j = draw(st.sampled_from(_TOKENS))
    op = draw(st.sampled_from(["unknown", "delete", "duplicate"]))
    if op == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        if op == "unknown":
            key, eq, _ = tokens[j].rpartition("=")
            tokens[j] = key + eq + draw(st.sampled_from(["nosuch", "cyl:nosuch", "(nosuch)"]))
        else:
            del tokens[j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_mutated_examples())
@example(EXAMPLE.read_text().replace("base=vminus", "base=nosuch"))
def test_mutated_example_check_gives_one_unquoted_error_line(tmp_path_factory, text):
    cfg = tmp_path_factory.getbasetemp() / "mutated.cfg"
    cfg.write_text(text)
    code, _, err = run_cli("--config", str(cfg), "check")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert err == "" or re.fullmatch(r"error E_[A-Z_]+: [^\n]+\n", err), err
    assert '"unknown' not in err


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    import subprocess
    assert cli.build_parser() is cli.build_parser()
    code, records, _ = run_cli("--config", str(EXAMPLE), "cz", "--format", "records")
    assert code == 0 and records.startswith("orbit=")
    with pytest.raises(SystemExit) as exit_:
        run_cli("strata")  # the cover argument is missing: argparse exits
    assert exit_.value.code == 2
    assert run_cli("--config", str(EXAMPLE), "strata", "nosuch") == (
        2, "", "error E_PARSE: unknown cover 'nosuch'\n")
    code, out, err = run_cli("--config", str(EXAMPLE), "cz")
    fresh = subprocess.run([sys.executable, "-m", "localsft.cli", "--config", str(EXAMPLE), "cz"],
                           capture_output=True, text=True)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert out.startswith("orbit  k  cz")


def test_strata_on_a_neck_whose_sides_miss_its_orbits_gives_one_cover_error(tmp_path):
    # the cylinder-sided neck parses and passes check (see the round trip above),
    # but its limit curves do not end on the breaking orbit alone
    cfg = tmp_path / "cylneck.cfg"
    cfg.write_text(
        "orbit e elliptic theta=3/10 max_iterate=4\n"
        "orbit h hyperbolic cz1=2\n"
        "curve s closed=yes index=0 rel_c1_doubled=2\n"
        "cover s3 base=s degree=3\n"
        "neck n orbits=(h) plus=cyl:h minus=cyl:e\n")
    assert run_cli("--config", str(cfg), "strata", "s3", "--neck", "n") == (
        1, "", "error E_COVER: neck limit curve cyl(h) must have negative ends (h) "
               "and no positive end\n")


@pytest.mark.parametrize("statement, line, col", [
    ("curve c index=0 rel_c1_doubled=0 pos=(g^)", 2, 34),
    ("curve c index=0 rel_c1_doubled=0 pos=(g,)", 2, 34),
    ("curve c index=0 rel_c1_doubled=0 pos=(g,,g)", 2, 34),
    ("curve c index=0 rel_c1_doubled=0 neg=(,)", 2, 34),
    ("curve p index=0 rel_c1_doubled=0 neg=(g)\n"
     "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
     "neck n orbits=(g,) plus=p minus=m", 4, 8),
], ids=["empty-exponent", "trailing-comma", "double-comma", "lone-comma", "neck-orbits"])
def test_empty_atoms_and_exponents_are_parse_errors(tmp_path, statement, line, col):
    cfg = tmp_path / "atoms.cfg"
    cfg.write_text(f"orbit g elliptic theta=3/10 max_iterate=4\n{statement}\n")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error E_PARSE: line {line} col {col}: [^\n]+\n", err), err


def test_values_past_the_int_to_str_digit_limit_print_exactly(tmp_path):
    # two 3,001-digit counts compose to a 6,001-digit one, past Python's default limit
    # of 4,300 digits; the CLI lifts the limit while it runs and restores it after
    count = "1" + "0" * 3000
    cfg = tmp_path / "long.cfg"
    cfg.write_text(
        "orbit g elliptic theta=3/10 max_iterate=3\n"
        "orbit e elliptic theta=7/10 max_iterate=3\n"
        "curve left index=0 rel_c1_doubled=0 pos=(e) neg=(g)\n"
        f"table F curve=left\n  (e) (g) {count}\nend\n"
        f"table E orbit=g\n  (g) (g) {count}\nend\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run_cli("--config", str(cfg), "compose", "E", "F", "--middle", "g") == (
        0, "1" + "0" * 6000 + "*p+[e]*q-[g]\n", "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_count_with_a_large_exponent_prints_exactly(tmp_path):
    # 1e5000 parses exactly; the potential weighs the double cover by 1/2
    cfg = tmp_path / "exponent.cfg"
    cfg.write_text(
        "orbit gamma elliptic theta=3/10 max_iterate=4\n"
        "curve vminus index=0 rel_c1_doubled=0 pos=(gamma)\n"
        "table T curve=vminus\n  (gamma^2) () 1e5000\nend\n")
    assert run_cli("--config", str(cfg), "--format", "records", "potential", "T") == (
        0, "field=series\tvalue=5" + "0" * 4999 + "*p+[gamma^2]\nfield=weight_roundtrip\tvalue=pass\n",
        "")
    code, out, err = run_cli("--config", str(cfg), "check")
    assert (code, err) == (0, "")
    assert out.endswith("summary: 5/5 checks passed\n")


def test_an_unreadable_config_file_is_one_parse_error_line(tmp_path):
    # a directory, and a file whose bytes are not UTF-8: exit 2, no traceback
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"orbit g elliptic theta=3/10 max_iterate=4\n# \xff\n")
    for path, message in (
            (tmp_path, "cannot be read: Is a directory"),
            (binary, "is not UTF-8 text: invalid start byte at byte 44")):
        for command in ("cz", "check"):
            assert run_cli("--config", str(path), command) == (
                2, "", f"error E_PARSE: config file {str(path)!r} {message}\n")
