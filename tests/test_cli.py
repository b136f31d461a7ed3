"""Tests for the batch front end: flags, exit codes, determinism."""

import importlib
import json
from pathlib import Path

import pytest

from g2kit import suites
from g2kit.cli import main
from g2kit.errors import PrecisionError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(reports):
    out = []
    for rep in reports:
        rep = dict(rep)
        rep.pop("wall_time", None)
        out.append(rep)
    return out


def test_octonion_suite_passes(capsys):
    code, out = run_cli(["--suite", "octonion", "--seed", "1"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["schema"] == "g2kit-report/1"
    assert all(c["status"] == "pass" for c in reports[0]["checks"])


def test_precision_exhaustion_exits_3(capsys, monkeypatch):
    """A check that raises PrecisionError is reported precision-exhausted
    with the error's text, the other checks still run, and the exit code
    is 3."""
    def exhausted(cfg, rng, table):
        raise PrecisionError("window exhausted")
    rows = [check._replace(run=exhausted) if check.name == "unit-law"
            else check for check in suites.CHECKS]
    monkeypatch.setattr(suites, "CHECKS", tuple(rows))
    code, out = run_cli(["--suite", "octonion"], capsys)
    assert code == 3
    checks = json.loads(out)[0]["checks"]
    assert checks[0] == {"name": "unit-law", "status": "precision-exhausted",
                         "counterexample": "window exhausted"}
    assert all(c["status"] == "pass" for c in checks[1:]) and checks[1:]


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "bogus"])
    assert exc.value.code == 2


def test_bad_prime_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "octonion", "--p", "4"])
    assert exc.value.code == 2


def test_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--suite", "strata", "--seed", "7",
                 "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["--suite", "strata", "--seed", "7",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    a = strip_wall_time(json.loads(out1.read_text()))
    b = strip_wall_time(json.loads(out2.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_text_format(capsys):
    code, out = run_cli(["--suite", "strata", "--format", "text"], capsys)
    assert code == 0
    assert "suite strata" in out
    assert "corpus-classification" in out


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _ = run_cli(["--suite", "octonion", "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert data[0]["suite"] == "octonion"
    assert data[0]["config"] == {"p": 5, "precision": 8, "seed": 1}


def test_console_script_names_an_importable_callable():
    """[project.scripts] in pyproject.toml points the g2kit console script
    at a callable that imports: what `pip install .` wires up."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["g2kit"] == "g2kit.cli:main"
    module, _, name = scripts["g2kit"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
