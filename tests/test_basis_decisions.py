"""The identity checks that the octonion, triality, norms and filtration
suites decide on a basis, the checks that read the verdict of a
constructor that verifies the object it returns, the other norm checks,
the strata checks and moy-counterexample: each reports fail under a
seeded fault in the data it decides and pass without it (ROADMAP item 8).
The sampled sweeps the basis decisions replaced (sampled_sweeps) still
pass where they pass, and every check name here is a row of the one check
table, suites.CHECKS."""

import random
from functools import partial

import pytest
from sampled_sweeps import (barwedge_sweep, fixed_points_sweep,
                            maximinorante_sweep)

from g2kit import (endo, filtration, fixtures, norms, octonions, strata,
                   suites, triality)
from g2kit.errors import DomainError
from g2kit.norms import NormFn
from g2kit.octonions import IDX
from g2kit.scalars import FieldConfig
from g2kit.suites import CHECKS, SUITE_NAMES, _RunTable, run_check

# the checks that read the sl3 extensions of fixtures.sl3_norm_values()
SL3_READERS = ("extend-sl3", "duality-involution", "maximinorante",
               "uniqueness-perturbation", "exponent-identities",
               "filtration-multiplicativity")


def _report(name, cfg):
    """The check's report entry, run alone from random.Random(1)."""
    [check] = [c for c in CHECKS if c.name == name]
    return run_check(name, partial(check.run, cfg, random.Random(1),
                                   _RunTable()))


def _flip_product(monkeypatch, left, right, module=octonions):
    """A copy of BASIS_PRODUCT with the sign of e_left e_right flipped,
    for the module's readers only: Octonion.__mul__ for octonions, the
    triality identities (leibniz_holds, leibniz_defects,
    multiplicative_holds) for endo."""
    table = [list(row) for row in module.BASIS_PRODUCT]
    k, sign = table[IDX[left]][IDX[right]]
    table[IDX[left]][IDX[right]] = (k, -sign)
    monkeypatch.setattr(module, "BASIS_PRODUCT",
                        tuple(tuple(row) for row in table))


def _flip_lie_table(monkeypatch, field, word=None):
    """A copy of the triality tables with one root entry of t2 (or of the
    word's table) negated: column 7 of so(V) moves to another root with
    the wrong sign."""
    tables = triality._lie_tables()
    source = tables.words[word] if word else getattr(tables, field)
    table = [dict(col) for col in source]
    [(m, c)] = table[7].items()
    table[7][m] = -c
    if word:
        patched = tables._replace(words={**tables.words, word: table})
    else:
        patched = tables._replace(**{field: table})
    monkeypatch.setattr(triality, "_lie_tables", lambda: patched)


def _raise_alpha(monkeypatch):
    """The thirds norm with its first value raised by 1: alpha_0 plus the
    value of its dual partner then exceeds v(f) of the pair."""
    thirds = suites._thirds_norm

    def raised(cfg, table):
        alpha = thirds(cfg, table)
        return NormFn(cfg, alpha.basis, [alpha.values[0] + 1]
                      + alpha.values[1:])
    monkeypatch.setattr(suites, "_thirds_norm", raised)


def _lower_sharp_dual(monkeypatch):
    """The sharp dual into another subspace (W- for the sl3 extension)
    with its first value lowered by 1, so extend_sl3 builds a norm that is
    not self-dual; the dual inside a norm's own span, which is_self_dual
    reads, is left alone."""
    sharp = norms.sharp_dual

    def lowered(alpha, target):
        out = sharp(alpha, target)
        if target is alpha.space:
            return out
        return NormFn(out.cfg, out.basis, [out.values[0] - 1]
                      + out.values[1:])
    monkeypatch.setattr(norms, "sharp_dual", lowered)


def _rotate_reorder(monkeypatch):
    """reorder_to_standard with the values of e_1, e_2, e_3 moved to e_2,
    e_3, e_1 and those of e_-1, e_-2, e_-3 likewise.  The cyclic shift of
    the labels is an automorphism, so the result is still a self-dual
    algebra norm, but it no longer takes the given values on W+."""
    reorder = norms.reorder_to_standard

    def rotated(alpha):
        out = reorder(alpha)
        if out is alpha:
            return out
        v = out.values  # in the label order of octonions.LABELS
        return NormFn(out.cfg, out.basis,
                      [v[0], v[3], v[1], v[2], v[5], v[6], v[4], v[7]])
    monkeypatch.setattr(norms, "reorder_to_standard", rotated)


def _lower_suite_dual(monkeypatch):
    """The duality check's dual_norm with its first value lowered by 1;
    the dual that _check_extension reads is left alone."""
    dual = suites.dual_norm

    def lowered(alpha):
        out = dual(alpha)
        return NormFn(out.cfg, out.basis, [out.values[0] - 1]
                      + out.values[1:])
    monkeypatch.setattr(suites, "dual_norm", lowered)


def _accept_every_norm(monkeypatch):
    """The uniqueness check's algebra-norm and self-duality tests accept
    every norm, so each perturbation passes; _check_extension reads the
    ones in norms."""
    monkeypatch.setattr(suites, "is_algebra_norm", lambda alpha: True)
    monkeypatch.setattr(suites, "is_self_dual", lambda alpha: True)


def _drop_label_signs(monkeypatch):
    """The exponent check reads e_|l| for e_l, so e_i + e_-i pairs a
    value with itself; extend_sl3 reads basis_octonion through norms."""
    basis_octonion = suites.basis_octonion
    monkeypatch.setattr(suites, "basis_octonion",
                        lambda cfg, lbl: basis_octonion(cfg, abs(lbl)))


def _lower_generator_level(monkeypatch):
    """The multiplicativity check's generators of A_k taken from A_(k-1)."""
    generators = suites.lie_generators
    monkeypatch.setattr(suites, "lie_generators",
                        lambda seq, k: generators(seq, k - 1))


def _raise_vc(monkeypatch):
    """v_F'(c) raised by 1 in every HermitianNorm: extend_su21 gives the
    vectors c b of W values off by 1/e."""
    init = norms.HermitianNorm.__init__

    def raised(self, d, basis, values):
        init(self, d, basis, values)
        self.vc += 1
    monkeypatch.setattr(norms.HermitianNorm, "__init__", raised)


def _swap_idempotents(monkeypatch):
    """extend_dim4 given (e-, e+, -c) for (e+, e-, c): the values
    -alpha(h) - alpha(k) and alpha(h) + alpha(k) land on e- b and e+ b."""
    pair = norms.idempotents_from_isotropic_pair

    def swapped(h, hp):
        eplus, eminus, c = pair(h, hp)
        return eminus, eplus, -c
    monkeypatch.setattr(norms, "idempotents_from_isotropic_pair", swapped)


def _negate_diag_t3(monkeypatch):
    """The third component of every diagonal triple negated: the columns
    of D_1..D_4 in the t3 table, which diag_lie_triple reads through
    solve_lie_triple."""
    tables = triality._lie_tables()
    t3 = [{m: -c for m, c in col.items()} if k < 4 else col
          for k, col in enumerate(tables.t3)]
    patched = tables._replace(t3=t3)
    monkeypatch.setattr(triality, "_lie_tables", lambda: patched)


def _shift_dim4_scalar(monkeypatch):
    """The scalar u = beta_W^2 of the dim-4 analysis times t, so a square
    u reads as a non-square: case (iii) strata classify as (iv)."""
    square_scalar = strata._square_scalar_on
    monkeypatch.setattr(strata, "_square_scalar_on", lambda beta, w: (
        square_scalar(beta, w) * beta.cfg.t()))


def _lower_suite_valuation(monkeypatch):
    """The lift-depth check's seq_valuation one too low; the lifts read
    the one in strata."""
    valuation = suites.seq_valuation
    monkeypatch.setattr(suites, "seq_valuation",
                        lambda seq, x: valuation(seq, x) - 1)


def _negate_restriction(monkeypatch):
    """The matrix of beta on an adapted basis negated in the analysis, so
    the case (i) restriction to W+ is -phi."""
    restrict = strata.restrict_to_basis
    monkeypatch.setattr(strata, "restrict_to_basis", lambda beta, basis: [
        [-c for c in row] for row in restrict(beta, basis)])


def _accept_every_splitting(monkeypatch):
    """validate reads every sequence as split by the witness blocks."""
    monkeypatch.setattr(strata, "_lattice_split_by", lambda seq, wit: True)


def _lower_regular_r(monkeypatch):
    """The sl3 regular data with r = -2: refinement-congruence then asks
    for the congruence modulo A_1, which the unit perturbation leaves."""
    data = fixtures.sl3_regular_data
    monkeypatch.setattr(fixtures, "sl3_regular_data",
                        lambda cfg: data(cfg, r=-2))


def _unit_cayley_scalar(monkeypatch):
    """C(lambda) = 1 for every lambda: the determinant of C(X) on W+ then
    reads 1, against the basis test, which still finds C(X) outside the
    automorphism group."""
    monkeypatch.setattr(filtration, "cayley_scalar",
                        lambda lam: lam.cfg.one())


def _double_inverse_corner(monkeypatch):
    """triality's matrix inverse with entry (0, 0) doubled: iota then acts
    on (e_-1, e_-2, e_-3) by a matrix that is not the inverse transpose
    of g."""
    invert = triality.inv

    def doubled(a):
        out = [list(row) for row in invert(a)]
        out[0][0] = out[0][0] + out[0][0]
        return out
    monkeypatch.setattr(triality, "inv", doubled)


def _negate_assembled_column(monkeypatch):
    """triality's assemble with image column 4 negated: each map of a
    dim-4 triple sends its fifth basis vector to minus its image."""
    assemble = triality.assemble

    def negated(cfg, basis_oct, image_cols):
        cols = list(image_cols)
        cols[4] = [-c for c in cols[4]]
        return assemble(cfg, basis_oct, cols)
    monkeypatch.setattr(triality, "assemble", negated)


def _repeat_first_idempotent(monkeypatch):
    """standard_idempotents gives (e+, e+): W- is then W+, which W+ . W+
    does not drop into."""
    idempotents = octonions.standard_idempotents

    def repeated(d):
        eplus, _ = idempotents(d)
        return eplus, eplus
    monkeypatch.setattr(octonions, "standard_idempotents", repeated)


def _negate_bar_wedge(monkeypatch):
    wedge = triality.HermitianModel.bar_wedge
    monkeypatch.setattr(triality.HermitianModel, "bar_wedge",
                        lambda self, w1, w2: -wedge(self, w1, w2))


FAULTS = {
    # e_-4 e_1 = e_1 is the unit's left action on e_1
    "unit-law": lambda mp: _flip_product(mp, -4, 1),
    "norm-multiplicative": lambda mp: _flip_product(mp, 1, 2),
    "conjugation": lambda mp: _flip_product(mp, 1, 2),
    "f-transfer": lambda mp: _flip_product(mp, 1, 2),
    "alternative-laws": lambda mp: _flip_product(mp, 1, 2),
    "doubling-chains": lambda mp: _flip_product(mp, 1, 2),
    "fixed-point-consistency": lambda mp: _flip_lie_table(mp, "t2"),
    "product-decomposition": _negate_bar_wedge,
    "split-polarization": _repeat_first_idempotent,
    "maximinorante": _raise_alpha,
    "trace-invariance": lambda mp: _flip_lie_table(mp, None, "rho"),
    # the faults below act on what a constructor verifies before it returns
    "extend-sl3": _lower_sharp_dual,
    "extend-su21": _raise_vc,
    "extend-dim4": _swap_idempotents,
    "root-triples": lambda mp: _flip_product(mp, 1, 2, endo),
    "diagonal-triples": _negate_diag_t3,
    "dim2-family": lambda mp: _flip_product(mp, 1, 2, endo),
    "orbit-triples": lambda mp: _flip_product(mp, 1, 2, endo),
    "glw-family": _double_inverse_corner,
    "dim4-family": _negate_assembled_column,
    # -h h' and -h' h then fail idempotents_from_isotropic_pair's checks
    "idempotent-identities": lambda mp: _flip_product(mp, 1, -1),
    # the faults below act on what the check decides from an intact
    # extension
    "duality-involution": _lower_suite_dual,
    "uniqueness-perturbation": _accept_every_norm,
    "exponent-identities": _drop_label_signs,
    "filtration-multiplicativity": _lower_generator_level,
    # the strata checks: a fault in the analysis, in a check's own reader,
    # in validate and in the data
    "corpus-classification": _shift_dim4_scalar,
    "lift-depth": _lower_suite_valuation,
    "lift-roundtrip": _negate_restriction,
    "corrupted-rejection": _accept_every_splitting,
    "refinement-congruence": _lower_regular_r,
    # the filtration check reads two verdicts and fails when they differ
    "moy-counterexample": _unit_cayley_scalar,
}


@pytest.mark.parametrize("name", list(FAULTS))
@pytest.mark.parametrize("p", (5, 7))
def test_decided_check_fails_under_its_fault(p, name, monkeypatch):
    cfg = FieldConfig(p, 8)
    assert _report(name, cfg)["status"] == "pass"
    FAULTS[name](monkeypatch)
    assert _report(name, cfg)["status"] == "fail"


@pytest.mark.parametrize("p", (5, 7))
def test_uniqueness_reaches_its_self_duality_test(p, monkeypatch):
    """Lowering every value off e_4, e_-4 keeps the algebra-norm property,
    so with only the self-duality test accepting every norm the check
    fails."""
    cfg = FieldConfig(p, 8)
    monkeypatch.setattr(suites, "is_self_dual", lambda alpha: True)
    assert _report("uniqueness-perturbation", cfg)["counterexample"] == \
        "perturbation off the unit lines accepted"


@pytest.mark.parametrize("p", (5, 7))
def test_extend_sl3_verifies_the_norm_it_returns(p, monkeypatch):
    """The reordered norm is the one _check_extension verifies, so a
    reorder_to_standard that moves values is caught where it happens."""
    cfg = FieldConfig(p, 8)
    _rotate_reorder(monkeypatch)
    alpha = fixtures.wplus_norm(cfg, fixtures.THIRDS)
    with pytest.raises(DomainError, match="restrict"):
        norms.extend_sl3(alpha, octonions.hyperbolic_plane(cfg))


@pytest.mark.parametrize("name", SL3_READERS)
@pytest.mark.parametrize("p", (5, 7))
def test_sl3_readers_fail_under_a_moving_reorder(p, name, monkeypatch):
    cfg = FieldConfig(p, 8)
    _rotate_reorder(monkeypatch)
    assert _report(name, cfg)["status"] == "fail"


def _negate_first_defect(monkeypatch):
    """suites' leibniz_defects with the first nonzero defect of the first
    so(V) basis element negated.  That element is no derivation, and some
    derivation has a nonzero coordinate on it, so the kernel of the
    Leibniz map moves; the solver does not read the defects."""
    defects = endo.leibniz_defects

    def moved(x):
        out = defects(x)
        if x == suites._so_basis(x.cfg)[0]:
            pair = next(n for n, d in enumerate(out)
                        if any(c.coeffs for c in d.values()))
            out[pair] = {m: -c for m, c in out[pair].items()}
        return out
    monkeypatch.setattr(suites, "leibniz_defects", moved)


@pytest.mark.parametrize("p", (5, 7))
def test_fixed_points_fail_when_the_leibniz_side_moves(p, monkeypatch):
    """A moved Leibniz defect moves the derivations but not the solver:
    the two kernels then differ."""
    cfg = FieldConfig(p, 8)
    _negate_first_defect(monkeypatch)
    assert _report("fixed-point-consistency", cfg)["counterexample"] \
        .startswith("fixed space of dimension 14 against")


def test_sampled_oracles_pass_where_the_decisions_pass():
    cfg = FieldConfig(5, 8)
    rng = random.Random(1)
    assert fixed_points_sweep(cfg, rng, 200) is None
    assert barwedge_sweep(cfg, rng, 200) is None
    assert maximinorante_sweep(cfg, rng, 500) is None


# the checks that sample their input from the suite's rng
SAMPLED = ("idempotent-identities", "psi-homomorphism", "gamma-perp-random")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_only_the_sampled_checks_draw_from_the_rng(suite):
    """The suite's checks as run_suite runs them, from one rng and one
    table."""
    cfg = FieldConfig(5, 8)
    rng, table = random.Random(1), _RunTable()
    checks = [c for c in CHECKS if c.suite == suite]
    drew = []
    for check in checks:
        state = rng.getstate()
        assert run_check(check.name, partial(check.run, cfg, rng, table))[
            "status"] == "pass"
        if rng.getstate() != state:
            drew.append(check.name)
    assert drew == [c.name for c in checks if c.name in SAMPLED]


def test_check_names_are_unique():
    names = [c.name for c in CHECKS]
    assert len(set(names)) == len(names)


def test_faults_and_readers_are_table_checks():
    names = {c.name for c in CHECKS}
    assert set(FAULTS) <= names and set(SL3_READERS) <= names
