"""Acceptance suite: every criterion runs at its stated sample counts and
time budgets, printing one pass/fail line per criterion.  All arithmetic
is exact, so the tolerances are zero everywhere."""

import random
import time
from fractions import Fraction

from g2kit import fixtures, suites
from g2kit.filtration import (enumerate_subspaces, gamma_perp,
                              moy_counterexample, quotient_iso_check,
                              random_stable_subspace,
                              standard_symplectic_cycle,
                              standard_symplectic_swap)
from g2kit.norms import lattice_seq_from_norm, standard_norm, extend_sl3
from g2kit.octonions import hyperbolic_plane
from g2kit.scalars import FieldConfig
from g2kit.suites import CHECKS, _RunTable

CFG = FieldConfig(5, 8)
RUN = {c.name: c.run for c in CHECKS}


def check(name, rng=None, table=None):
    """The named check at CFG, from a fresh rng and table unless given."""
    return RUN[name](CFG, rng or random.Random(1), table or _RunTable())


def report(num, label, failures, elapsed, budget=None):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" < {budget}s)" if budget else ")")
    print(f"[{status}] criterion {num}: {label}{extra}")
    assert not failures, f"criterion {num}: {failures}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_octonion_axioms():
    rng = random.Random(1)
    start = time.monotonic()
    failures = []
    for name in ("unit-law", "norm-multiplicative", "conjugation",
                 "f-transfer", "alternative-laws"):
        bad = check(name, rng)
        if bad:
            failures.append(f"{name}: {bad}")
    report(1, "octonion axioms decided on the basis", failures,
           time.monotonic() - start, budget=5)


def test_criterion_2_doubling():
    start = time.monotonic()
    bad = check("doubling-chains")
    report(2, "doubling formula entrywise on three chains",
           [bad] if bad else [], time.monotonic() - start)


def test_criterion_3_idempotents():
    rng = random.Random(3)
    start = time.monotonic()
    bad = check("idempotent-identities", rng)
    report(3, "idempotent identities on 100 random isotropic pairs",
           [bad] if bad else [], time.monotonic() - start)


def test_criterion_4_triality_families():
    start = time.monotonic()
    failures = []
    for name in ("root-triples", "diagonal-triples", "glw-family",
                 "dim4-family", "dim2-family", "orbit-triples"):
        bad = check(name)
        if bad:
            failures.append(f"{name}: {bad}")
    report(4, "all explicit triality families and orbits", failures,
           time.monotonic() - start, budget=10)


def test_criterion_5_fixed_points():
    start = time.monotonic()
    bad = check("fixed-point-consistency")
    report(5, "derivation <=> diagonal triple decided on the basis",
           [bad] if bad else [], time.monotonic() - start)


def test_criterion_6_norm_machinery():
    start = time.monotonic()
    failures = []
    table = _RunTable()
    for name in ("extend-sl3", "extend-su21", "extend-dim4",
                 "uniqueness-perturbation"):
        bad = check(name, table=table)
        if bad:
            failures.append(f"{name}: {bad}")
    report(6, "norm extensions: algebra, self-dual, restriction, uniqueness",
           failures, time.monotonic() - start)


def test_criterion_7_filtration_congruences():
    start = time.monotonic()
    failures = []
    table = _RunTable()
    bad = check("exponent-identities", table=table)
    if bad:
        failures.append(f"(i) exponent identities: {bad}")
    d = hyperbolic_plane(CFG)
    std = lattice_seq_from_norm(standard_norm(CFG))
    thirds = lattice_seq_from_norm(extend_sl3(fixtures.wplus_norm(
        CFG, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), d))
    for seq in (std, thirds):
        for (r, s) in ((1, 1), (1, 2), (2, 3), (2, 4)):
            rep = quotient_iso_check(seq, r, s)
            if rep["violations"]:
                failures.append(
                    f"(ii) m={seq.m} ({r},{s}): {rep['violations'][0]}")
    rng = random.Random(7)
    for name in ("psi-homomorphism", "psi-equivariance", "psi-injectivity"):
        bad = check(name, rng, table)
        if bad:
            failures.append(f"(iii) {name}: {bad}")
    report(7, "Cayley/triality congruences and the character pairing",
           failures, time.monotonic() - start, budget=30)


def test_criterion_8_moy():
    start = time.monotonic()
    failures = []
    for u in (CFG.t(), CFG.t(2), CFG.t() * 3):
        if not moy_counterexample(u):
            failures.append(f"u = {u}")
    report(8, "Cayley transform misses the automorphism group "
              "(u, u, -2u)", failures, time.monotonic() - start)


def test_criterion_9_gamma_perp():
    start = time.monotonic()
    failures = []
    sp = standard_symplectic_swap(5)
    checked = 0
    for x in enumerate_subspaces(5, 4):
        if sp.stable(x):
            checked += 1
            if not gamma_perp(sp, x):
                failures.append(f"dim-4 stable subspace of dim {x.dim}")
    assert checked > 2
    sp3 = standard_symplectic_cycle(7)
    rng = random.Random(9)
    for k in range(50):
        if not gamma_perp(sp3, random_stable_subspace(sp3, rng)):
            failures.append(f"dim-6 random subspace {k}")
    report(9, "symplectic fixed-point identity (exhaustive + randomized)",
           failures, time.monotonic() - start, budget=60)


def test_criterion_10_strata():
    start = time.monotonic()
    failures = []
    table = _RunTable()
    for name in ("corpus-classification", "lift-roundtrip",
                 "corrupted-rejection"):
        bad = check(name, table=table)
        if bad:
            failures.append(f"{name}: {bad}")
    corpus = suites._stratum_corpus(CFG, table)
    if len(corpus) < 12:
        failures.append("corpus smaller than 12")
    by_case = {}
    for tag, s in corpus:
        by_case.setdefault(tag, []).append(s)
    if len(by_case) != 4 or any(len(v) < 3 for v in by_case.values()):
        failures.append("fewer than 3 strata in some case")
    report(10, "strata corpus classification, lifts and corrupted fixtures",
           failures, time.monotonic() - start)
