"""Exactness guard: the desk-suite reports, timing aside, are the ones
committed in tests/golden.  A change to a hot path must leave every report
identical; the files are regenerated only by a change that means to alter
a report, which then says so."""

import json
from pathlib import Path

import pytest

from g2kit.scalars import FieldConfig
from g2kit.suites import run_suite

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("p", (5, 11))
def test_triality_report_matches_golden(p):
    report = run_suite("triality", FieldConfig(p, 8), 1)
    report.pop("wall_time")
    path = GOLDEN / f"triality_p{p}_n8_seed1.json"
    assert report == json.loads(path.read_text())


@pytest.mark.parametrize("p", (5, 11))
@pytest.mark.parametrize("suite", ("octonion", "norms", "strata"))
def test_desk_suite_report_matches_golden(suite, p):
    report = run_suite(suite, FieldConfig(p, 8), 1)
    report.pop("wall_time")
    path = GOLDEN / f"{suite}_p{p}_n8_seed1.json"
    assert report == json.loads(path.read_text())
