"""Exactness guard: the desk-suite reports, timing aside, are the ones
committed in tests/golden.  A change to a hot path must leave every report
identical; the files are regenerated only by a change that means to alter
a report, which then says so."""

import json
import random
from functools import partial
from pathlib import Path

import pytest

from g2kit.scalars import FieldConfig
from g2kit.suites import CHECKS, _RunTable, run_check, run_suite

GOLDEN = Path(__file__).parent / "golden"


def _run_checks(suite, cfg, names):
    """The named checks of one suite as run_suite runs them, from one
    random.Random(1) and one table, without the suite's other checks."""
    rng, table = random.Random(1), _RunTable()
    return [run_check(c.name, partial(c.run, cfg, rng, table))
            for c in CHECKS if c.suite == suite and c.name in names]


@pytest.mark.parametrize("p", (5, 7, 11))
def test_triality_report_matches_golden(p):
    report = run_suite("triality", FieldConfig(p, 8), 1)
    report.pop("wall_time")
    path = GOLDEN / f"triality_p{p}_n8_seed1.json"
    assert report == json.loads(path.read_text())


# the checks that reach the hermitian code (endo.HermitianSpace)
HERMITIAN_CHECKS = ("dim2-family", "product-decomposition", "extend-su21",
                    "corpus-classification", "lift-depth")


@pytest.mark.parametrize("ext", ("unramified", "ramified"))
def test_hermitian_checks_over_extensions_match_golden(ext):
    """The hermitian checks at (5, 8) over each quadratic extension, run
    as run_suite runs them but without the suite's other checks, grouped
    by suite: product-decomposition, decided on the 64 basis pairs, draws
    nothing from the rng.  Over the ramified extension,
    extend-su21, corpus-classification and lift-depth fail; the golden
    keeps their counterexample strings."""
    cfg = FieldConfig(5, 8, ext)
    suites = dict.fromkeys(c.suite for c in CHECKS
                           if c.name in HERMITIAN_CHECKS)
    report = {suite: _run_checks(suite, cfg, HERMITIAN_CHECKS)
              for suite in suites}
    path = GOLDEN / "hermitian_checks_p5_n8_seed1.json"
    assert report == json.loads(path.read_text())[ext]


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("suite", ("octonion", "norms", "strata"))
def test_desk_suite_report_matches_golden(suite, p):
    report = run_suite(suite, FieldConfig(p, 8), 1)
    report.pop("wall_time")
    path = GOLDEN / f"{suite}_p{p}_n8_seed1.json"
    assert report == json.loads(path.read_text())


@pytest.mark.parametrize("ext", ("unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_strata_report_over_extensions_matches_golden(p, ext):
    """The strata suite over each quadratic extension at p = 5 and 7.
    Over the ramified extension corpus-classification and lift-depth fail
    with the LiftError of the depth check; the golden keeps those
    counterexample strings."""
    report = run_suite("strata", FieldConfig(p, 8, ext), 1)
    report.pop("wall_time")
    path = GOLDEN / f"strata_p{p}_n8_{ext}_seed1.json"
    assert report == json.loads(path.read_text())


# the filtration checks other than gamma-perp-*, which ignore cfg (they
# work over F_5 and F_7 whatever the report's p; ROADMAP item 9), so a
# golden per p would repeat their verdicts
FILTRATION_CHECKS = ("moy-counterexample", "quotient-congruences",
                     "psi-homomorphism", "psi-equivariance",
                     "psi-injectivity", "trace-invariance")


@pytest.mark.parametrize("p", (5, 11))
def test_filtration_checks_match_golden(p):
    """The filtration checks without the two gamma-perp checks (they come
    last and draw nothing the others use)."""
    report = _run_checks("filtration", FieldConfig(p, 8), FILTRATION_CHECKS)
    assert [c["name"] for c in report] == list(FILTRATION_CHECKS)
    path = GOLDEN / f"filtration_p{p}_n8_seed1.json"
    assert report == json.loads(path.read_text())


def test_golden_check_lists_are_table_checks():
    names = {c.name for c in CHECKS}
    assert set(HERMITIAN_CHECKS) <= names and set(FILTRATION_CHECKS) <= names
