"""Self-tests of the benchmark: tiny smoke runs of every workload, traced
against untraced verdicts, the tracer's restore and absent targets, and the
refusal to run without the library's sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import run  # noqa: E402  (perfbench/ is the test's own directory)

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace and workload == "modp-symplectic":
        for op in ("mul", "add", "sub", "neg", "inv"):
            assert result["metrics"][f"scalars.{op}.calls"]["value"] == 0


def _verdicts(items):
    return [v for item in items for v in run.run_item(item)]


@pytest.mark.parametrize("build", [workloads.build_cayley_quotients,
                                   workloads.build_modp_symplectic])
def test_traced_verdicts_equal_untraced(build):
    wl = build(5, tiny=True)
    untraced = _verdicts(wl.items)
    with tracer.Tracer() as tr:
        traced = _verdicts(wl.items)
    assert traced == untraced
    assert all(ok for _, _, ok in untraced)
    assert sum(calls for calls, _, _ in tr.stats.values()) > 0


def _snapshot():
    """Identity of every attribute of every g2kit module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "g2kit" or name.startswith("g2kit.")):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = id(val)
            if isinstance(val, type) and val.__module__ == name:
                for ckey, cval in vars(val).items():
                    snap[(name, key, ckey)] = id(cval)
    return snap


def test_tracer_restores_every_patched_attribute():
    from g2kit import endo, linalg, scalars
    before = _snapshot()
    original_mul, original_inv = scalars.Scalar.__mul__, endo.inv
    tr = tracer.Tracer().install()
    try:
        assert scalars.Scalar.__mul__ is not original_mul
        assert endo.inv is not original_inv and linalg.inv is endo.inv
        assert not tr.absent
    finally:
        tr.uninstall()
    assert _snapshot() == before


def test_absent_target_is_recorded_not_fatal():
    targets = tracer.TARGETS + (
        ("gone", "method", "g2kit.scalars", "Scalar.no_such_method"),
        ("gone", "module", "g2kit.no_such_module", "f"))
    with tracer.Tracer(targets) as tr:
        pass
    assert tr.absent == ["g2kit.scalars:Scalar.no_such_method",
                         "g2kit.no_such_module:f"]
    metrics = tr.metrics()
    assert metrics["gone.method.calls"] == (0, "count")
    assert metrics["trace.absent_targets"] == (2, "count")


def test_failed_and_raised_verdicts_are_counted():
    def boom():
        raise ZeroDivisionError("inversion of zero scalar")
    items = [workloads.Item("k", "ok", lambda: [("a", True)]),
             workloads.Item("k", "wrong", lambda: [("b", False)]),
             workloads.Item("k", "raises", boom)]
    first = _verdicts(items)
    attempted, bad, stable = run.check_verdicts([first, first[:1]])
    assert (attempted, stable) == (4, True)
    assert [v[0] for v in bad] == ["wrong", "raises"]
    assert "ZeroDivisionError" in bad[1][1]
    assert run.check_verdicts([first, [first[1]]])[2] is False


def test_input_hash_follows_the_seed():
    a = workloads.build_modp_symplectic(1, tiny=True).input_hash()
    assert a == workloads.build_modp_symplectic(1, tiny=True).input_hash()
    assert a != workloads.build_modp_symplectic(2, tiny=True).input_hash()


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("modp-symplectic", 0, cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
