import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from surd_sails import cfrac
from surd_sails.arith import QuadraticSurd
from surd_sails.cfrac import PeriodicCF, value
from surd_sails.cli import main, parse_cf, parse_surd, parse_surd_spec
from surd_sails.errors import ParseError

from conftest import src_env


class TestParser:
    def test_surd_expressions(self):
        assert parse_surd("sqrt(2)").key() == (0, 1, 1, 2)
        assert parse_surd("(1+sqrt(5))/2").key() == (1, 1, 2, 5)
        assert parse_surd("1+sqrt(2)").key() == (1, 1, 1, 2)
        assert parse_surd("-sqrt(2)").key() == (0, -1, 1, 2)
        assert parse_surd("2*sqrt(3)/5").key() == (0, 2, 5, 3)
        assert parse_surd("(3-2*sqrt(7))/5").key() == (3, -2, 5, 7)
        assert parse_surd("sqrt(5/4)").key() == (0, 1, 2, 5)

    def test_round_trip_through_text(self):
        for surd in [QuadraticSurd(1, 1, 2, 5), QuadraticSurd(3, -2, 5, 7),
                     QuadraticSurd(0, -1, 1, 2), QuadraticSurd(0, 2, 5, 3),
                     QuadraticSurd(-4, 7, 3, 11)]:
            assert parse_surd(str(surd)) == surd

    def test_root_form(self):
        assert parse_surd("root+ 1 -1 -1").key() == (1, 1, 2, 5)
        assert parse_surd("root- 1 -1 -1").key() == (1, -1, 2, 5)

    def test_cf_literals(self):
        assert parse_cf("[1; (2)]") == PeriodicCF((1,), (2,))
        assert parse_cf("[(1, 2)]") == PeriodicCF((), (1, 2))
        assert parse_cf("[4; 1, (3)]") == PeriodicCF((4, 1), (3,))
        assert parse_cf("[-2; 1, (2)]") == PeriodicCF((-2, 1), (2,))

    def test_cf_spec_evaluates(self):
        assert parse_surd("[1; (2)]").key() == (0, 1, 1, 2)
        assert isinstance(parse_surd_spec("[1; (2)]"), PeriodicCF)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_surd("sqrt(2")
        assert info.value.position == 6
        with pytest.raises(ParseError):
            parse_surd("3/4")  # rational
        with pytest.raises(ParseError):
            parse_surd("sqrt(sqrt(2))")
        with pytest.raises(ParseError):
            parse_surd("hello(2)")


class TestCommands:
    def test_expand(self, capsys):
        assert main(["expand", "sqrt(2)"]) == 0
        assert capsys.readouterr().out.strip() == "[1; (2)]"

    def test_expand_json_roundtrip(self, capsys):
        assert main(["expand", "sqrt(19)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cf = PeriodicCF(payload["preperiod"], payload["period"])
        assert str(value(cf)) == payload["surd"]

    def test_value(self, capsys):
        assert main(["value", "[1; (2)]"]) == 0
        assert capsys.readouterr().out.strip() == "sqrt(2)"

    def test_classify(self, capsys):
        assert main(["classify", "root+ 1 -1 -1"]) == 0
        out = capsys.readouterr().out
        assert "flags: b, c, d" in out

    def test_classify_json(self, capsys):
        assert main(["classify", "sqrt(3)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flags"] == ["a", "b", "c"]
        assert payload["witnesses"]["a"]["omega"] == "sqrt(3)"

    def test_convergents(self, capsys):
        assert main(["convergents", "sqrt(2)", "-n", "4"]) == 0
        assert capsys.readouterr().out.split() == ["1/1", "3/2", "7/5", "17/12"]

    def test_equiv(self, capsys):
        assert main(["equiv", "sqrt(2)", "(1+sqrt(2))/1"]) == 0
        out = capsys.readouterr().out
        assert "equivalent: true" in out
        assert "certificate" in out
        assert main(["equiv", "sqrt(2)", "sqrt(3)"]) == 0
        assert "equivalent: false" in capsys.readouterr().out

    def test_auto(self, capsys):
        assert main(["auto", "1", "0", "-2"]) == 0
        out = capsys.readouterr().out
        assert "automorphism: [[3, 2], [4, 3]]" in out
        assert "form preserved: true" in out

    def test_auto_rejects_definite(self, capsys):
        assert main(["auto", "1", "0", "2"]) == 1

    def test_sail(self, capsys, tmp_path):
        svg_path = tmp_path / "out.svg"
        assert main(["sail", "1+sqrt(2)", "--range", "0:3", "--svg", str(svg_path)]) == 0
        out = capsys.readouterr().out
        assert "v_0 = (1, 2)" in out
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")

    def test_sail_json(self, capsys):
        assert main(["sail", "sqrt(2)", "--range", "0:2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sails"][0]["vertices"][0] == [0, 1, 2]

    def test_survey_stdout(self, capsys):
        assert main(["survey", "--dmax", "20"]) == 0
        out = capsys.readouterr().out
        assert "(1+sqrt(5))/2" in out
        assert "total: 9 reduced surds" in out

    def test_survey_files(self, capsys, tmp_path):
        json_path = tmp_path / "survey.json"
        csv_path = tmp_path / "survey.csv"
        assert main(["survey", "--dmax", "30", "--json", str(json_path)]) == 0
        assert main(["survey", "--dmax", "30", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["rows"][0]["surd"] == "(1+sqrt(5))/2"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "discriminant,surd,period,flags"
        assert len(lines) == len(payload["rows"]) + 1

    def test_survey_golden_csv_digest(self, capsys, tmp_path):
        csv_path = tmp_path / "survey.csv"
        assert main(["survey", "--dmax", "3000", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert digest == "40ed6f950d8dee3cf2c8afd72eea8f18922fcabc43f3c077ca9a309bd35d1ef5"


class TestExitCodes:
    def test_parse_error(self, capsys):
        assert main(["expand", "sqrt(2"]) == 1
        assert "position" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        assert main(["expand", "sqrt(4)"]) == 1
        assert "RationalValue" in capsys.readouterr().err

    def test_walk_limit_is_a_domain_error(self, capsys, monkeypatch):
        # sqrt(19) = [4; (2, 1, 3, 1, 2, 8)] needs seven steps to close its cycle
        monkeypatch.setattr(cfrac, "_ITERATION_CAP", 5)
        assert main(["expand", "sqrt(19)"]) == 1
        err = capsys.readouterr().err
        assert "ResourceLimit" in err
        assert "limit of 5 steps" in err

    def test_auto_walk_limit(self, capsys, monkeypatch):
        # the automorph of x^2 - 19 comes from the expansion of sqrt(19)
        monkeypatch.setattr(cfrac, "_ITERATION_CAP", 5)
        assert main(["auto", "1", "0", "-19"]) == 1
        err = capsys.readouterr().err
        assert "ResourceLimit" in err
        assert "limit of 5 steps" in err

    def test_factoring_limit_is_a_domain_error(self, capsys):
        # the radicand's squarefree part needs trial division past the divisor limit
        assert main(["expand", "sqrt(1000000000000000000000007)"]) == 1
        err = capsys.readouterr().err
        assert "ResourceLimit" in err
        assert "trial division within the limit of 1000000" in err

    def test_integers_beyond_4300_digits(self, capsys):
        assert main(["auto", "1", "0", "-100000000001"]) == 0
        out = capsys.readouterr().out
        assert "form preserved: true" in out
        assert max(len(n) for n in re.findall(r"\d+", out)) > 4300

    def test_negative_argument_after_double_dash(self, capsys):
        assert main(["expand", "--", "-sqrt(2)"]) == 0
        assert capsys.readouterr().out.strip() == str(cfrac.expand(QuadraticSurd(0, -1, 1, 2)))
        with pytest.raises(SystemExit):
            main(["--help"])
        assert 'surd-sails expand -- "-sqrt(2)"' in " ".join(capsys.readouterr().out.split())

    def test_usage_error(self, capsys):
        assert main(["survey"]) == 1  # missing --dmax
        capsys.readouterr()

    def test_survey_json_and_csv_is_usage_error(self, capsys, tmp_path):
        json_path, csv_path = tmp_path / "survey.json", tmp_path / "survey.csv"
        assert main(["survey", "--dmax", "20", "--json", str(json_path), "--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err and captured.out == ""
        assert not json_path.exists() and not csv_path.exists()

    def test_success(self):
        assert main(["expand", "sqrt(2)"]) == 0


class TestFreshProcess:
    def test_every_command_matches_in_process_output(self, capsys, tmp_path):
        # each command in its own interpreter: in this process every layer is
        # already imported, so a command's missing import would not show here
        svg, csv = str(tmp_path / "sail.svg"), str(tmp_path / "survey.csv")
        commands = [
            ["expand", "(3-2*sqrt(7))/5"],
            ["value", "[4; (2, 1, 3, 1, 2, 8)]"],
            ["classify", "2+sqrt(19)", "--json"],
            ["convergents", "sqrt(19)", "-n", "12"],
            ["equiv", "sqrt(19)", "1/(sqrt(19)-4)"],
            ["auto", "1", "-1", "-1"],
            ["sail", "1+sqrt(2)", "--range=-2:8", "--svg", svg],
            ["survey", "--dmax", "60", "--csv", csv],
        ]
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "surd_sails.cli", *argv], env=src_env(),
                                  capture_output=True, text=True)
            assert done.returncode == 0, (argv, done.stderr)
            written = {path: Path(path).read_bytes() for path in (svg, csv) if path in argv}
            capsys.readouterr()
            assert main(argv) == 0
            assert done.stdout == capsys.readouterr().out, argv
            assert all(Path(path).read_bytes() == data for path, data in written.items()), argv
