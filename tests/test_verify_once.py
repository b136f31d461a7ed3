"""Each object a suite run builds is verified once: the checks read the
verdict of the constructor that built it (norms._check_extension,
TrialityTriple) and share the fixtures of the run, and classify reads the
decisions of validate.  Call counts only, no timing."""

from collections import Counter

from g2kit import endo, fixtures, norms, strata, suites, triality
from g2kit.scalars import FieldConfig

EXTEND_CHECKS = ("extend-sl3", "extend-su21", "extend-dim4")


def _spy(monkeypatch, calls, check, module, name):
    """Record (check running, args) for each call of module.name."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((check[0], name, args))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)


def _run(monkeypatch, suite, targets):
    """One run_suite at (5, 8), seed 1, with the targets spied on; the
    calls come back tagged with the check that made them.  The so(V)
    triality tables are built first, so the Leibniz checks of their
    one-off verification are not counted as a check's."""
    triality._lie_tables()
    calls, check = [], [None]
    run_check = suites.run_check

    def tagged(name, thunk):
        check[0] = name
        return run_check(name, thunk)
    monkeypatch.setattr(suites, "run_check", tagged)
    for module, name in targets:
        _spy(monkeypatch, calls, check, module, name)
    report = suites.run_suite(suite, FieldConfig(5, 8), 1)
    assert all(c["status"] == "pass" for c in report["checks"])
    return calls


def test_norm_suite_extends_each_sl3_input_once(monkeypatch):
    calls = _run(monkeypatch, "norms", [(suites, "extend_sl3")])
    extended = Counter(tuple(args[0].values) for _, _, args in calls)
    inputs = {tuple(vals) for vals in fixtures.sl3_norm_values()}
    assert fixtures.THIRDS in inputs
    assert extended == Counter(inputs)


def test_extend_checks_verify_each_extension_once(monkeypatch):
    """Inside the extend-* checks every is_algebra_norm call, through
    norms or through the suite, is one extension's _check_extension: one
    per norm, six per check, and no is_self_dual call of the suite's."""
    calls = _run(monkeypatch, "norms",
                 [(norms, "is_algebra_norm"), (suites, "is_algebra_norm"),
                  (suites, "is_self_dual")])
    calls = [(c, name, args) for c, name, args in calls
             if c in EXTEND_CHECKS]
    assert all(name == "is_algebra_norm" for _, name, _ in calls)
    assert Counter(c for c, _, _ in calls) == dict.fromkeys(EXTEND_CHECKS, 6)
    assert len({id(args[0]) for _, _, args in calls}) == 18


def test_each_root_and_diagonal_triple_is_checked_once(monkeypatch):
    """check_related reads the identity through leibniz_holds (Lie
    triples) or multiplicative_holds (group triples)."""
    calls = _run(monkeypatch, "triality",
                 [(triality, "leibniz_holds"),
                  (triality, "multiplicative_holds")])
    for check, count in (("root-triples", 96), ("diagonal-triples", 4)):
        # calls keeps every argument alive, so ids are not reused
        triples = [tuple(map(id, args[:3])) for c, _, args in calls
                   if c == check]
        assert len(triples) == len(set(triples)) == count


def test_filtration_suite_builds_each_sequence_once(monkeypatch):
    """The standard sequence, read by quotient-congruences and the three
    psi checks, and the (1/3, 1/3, -2/3) sequence are built once each."""
    calls = _run(monkeypatch, "filtration",
                 [(suites, "lattice_seq_from_norm"), (suites, "extend_sl3")])
    built = Counter(name for _, name, _ in calls)
    assert built == {"lattice_seq_from_norm": 2, "extend_sl3": 1}


def test_strata_suite_lifts_the_sl3_regular_data_once(monkeypatch):
    """lift-roundtrip and refinement-congruence read one type-D lift of
    fixtures.sl3_regular_data; refinement-congruence lifts only its
    perturbed data itself."""
    calls = _run(monkeypatch, "strata", [(suites, "lift_type_d_sl3")])
    assert Counter(c for c, _, _ in calls) == {"lift-roundtrip": 1,
                                              "refinement-congruence": 1}
    [(_, _, (data, _))] = [c for c in calls if c[0] == "lift-roundtrip"]
    assert data.phi == fixtures.sl3_regular_data(FieldConfig(5, 8)).phi


def test_classify_verifies_each_witness_once(monkeypatch):
    """classify decides that beta is a derivation and verifies its witness
    blocks once, in validate, whichever module makes the call."""
    corpus = fixtures.stratum_corpus(FieldConfig(5, 8))
    calls = []
    for module in (endo, strata):
        for name in ("is_derivation", "verify_witness_blocks"):
            _spy(monkeypatch, calls, [None], module, name)
    for tag, s in corpus:
        calls.clear()
        assert strata.classify(s).case_tag == tag
        assert Counter(name for _, name, _ in calls) == {
            "is_derivation": 1, "verify_witness_blocks": 1}
