"""One item of every kind of the cayley-quotients benchmark workload, run
here so that a change that breaks an item fails the tests rather than
only the benchmark.  The workload's --tiny runs leave out the
quotient-iso and psi-equivariance items, the ones that call
GroupTriality.apply, inverse_word and GroupGenerator.matrix."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)


def test_one_item_of_each_cayley_quotients_kind_passes():
    wl = workloads.build_cayley_quotients(1)
    first = {}
    for item in wl.items:
        first.setdefault(item.kind, item)
    assert {"quotient-iso", "moy", "psi-homomorphism", "psi-equivariance",
            "psi-injectivity"} <= set(first)
    for kind, item in first.items():
        verdicts = item.run()
        assert verdicts, kind
        for label, ok in verdicts:
            assert ok, (kind, label)
