"""Tests for Cayley/filtration machinery, the character pairing, and the
symplectic fixed-point identity."""

import random
from fractions import Fraction

import pytest

from g2kit.endo import EndV, d_torus_lie, u_root_lie
from g2kit.errors import DomainError, MembershipError
from g2kit.filtration import (FiltrationQuotient, ModpSubspace,
                              SymplecticSpace, cayley, cayley_inv,
                              cayley_scalar, character_counts,
                              enumerate_subspaces, gamma_perp,
                              lie_generators, moy_counterexample, psi_b,
                              quotient_iso_check, random_stable_subspace,
                              standard_symplectic_cycle,
                              standard_symplectic_swap,
                              trace_triality_invariance)
from g2kit.norms import (NormFn, extend_sl3, filtration_lattice,
                         lattice_seq_from_norm, standard_norm)
from g2kit.octonions import basis_octonion, hyperbolic_plane
from g2kit.scalars import FieldConfig
from g2kit.triality import GroupTriality, LieTrialityGroup

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
D = hyperbolic_plane(CFG)
STD = lattice_seq_from_norm(standard_norm(CFG))


def thirds_seq():
    alpha = extend_sl3(NormFn(CFG, [E[1], E[2], E[3]],
                              [Fraction(1, 3), Fraction(1, 3),
                               Fraction(-2, 3)]), D)
    return lattice_seq_from_norm(alpha)


def test_cayley_basics():
    assert cayley(EndV.zero(CFG)) == EndV.identity(CFG)
    x = d_torus_lie(CFG, 1, CFG.t())
    g = cayley(x)
    assert g.entry(1, 1) == cayley_scalar(CFG.t())
    # the inverse transform recovers x through the precision window
    from g2kit.endo import endv_congruent
    assert endv_congruent(cayley_inv(g), x, CFG.precision - 1)
    u = u_root_lie(CFG, 1, 2, CFG.t())
    from g2kit.endo import u_root
    assert cayley(u) == u_root(CFG, 1, 2, CFG.t())
    assert cayley_inv(cayley(u)) == u  # nilpotent case is division-free


def test_cayley_inverse_roundtrip():
    rng = random.Random(61)
    fl = filtration_lattice(STD, 1)
    from g2kit.endo import endv_congruent, random_so
    for _ in range(20):
        x = random_so(CFG, rng, width=1, vmin=1, vmax=2)
        if not fl.contains(x):
            continue
        assert endv_congruent(cayley_inv(cayley(x)), x, CFG.precision - 1)


def test_moy_counterexample():
    for u in (CFG.t(), CFG.t(2), CFG.t() * 3):
        assert moy_counterexample(u)
    with pytest.raises(DomainError):
        moy_counterexample(CFG.zero())
    with pytest.raises(DomainError):
        moy_counterexample(CFG.one())


def test_quotient_preconditions():
    with pytest.raises(DomainError):
        FiltrationQuotient(STD, 1, 3)
    with pytest.raises(DomainError):
        FiltrationQuotient(STD, 2, 1)
    FiltrationQuotient(STD, 1, 2)
    FiltrationQuotient(STD, 2, 4)


def test_quotient_reduce_canonical():
    q = FiltrationQuotient(STD, 1, 2)
    x = d_torus_lie(CFG, 1, CFG.t() + CFG.t(3))
    y = d_torus_lie(CFG, 1, CFG.t())
    assert q.congruent_lie(x, y)
    assert q.reduce(x) == q.reduce(y)
    z = d_torus_lie(CFG, 1, CFG.t() * 2)
    assert not q.congruent_lie(x, z)
    assert q.reduce(x) != q.reduce(z)


def test_quotient_iso_m1():
    rep = quotient_iso_check(STD, 1, 2)
    assert rep["violations"] == []
    rep11 = quotient_iso_check(STD, 1, 1)
    assert rep11["violations"] == []


def test_quotient_iso_m3():
    rep = quotient_iso_check(thirds_seq(), 2, 4)
    assert rep["violations"] == []


def test_quotient_iso_reports_both_orders(monkeypatch):
    """A generator pushed out of A_r breaks the homomorphism with some
    partners; each failing unordered pair is reported as (a, b) and as
    (b, a), in the order and wording of the full ordered-pair scan."""
    from g2kit import filtration
    original = filtration.lie_generators

    def corrupted(seq, r):
        gens = original(seq, r)
        gens[5].lie = gens[5].lie * CFG.t(-1)
        return gens
    monkeypatch.setattr(filtration, "lie_generators", corrupted)
    gens = corrupted(STD, 1)
    q = FiltrationQuotient(STD, 1, 2)
    expected = [f"homomorphism failure at {ga.name}, {gb.name}"
                for ga in gens for gb in gens
                if not q.congruent_group(cayley(ga.lie) * cayley(gb.lie),
                                         cayley(ga.lie + gb.lie))]
    rep = quotient_iso_check(STD, 1, 2)
    hom = [v for v in rep["violations"] if v.startswith("homomorphism")]
    assert hom == expected
    bad = gens[5].name
    prefix = f"homomorphism failure at {bad}, "
    partners = [v[len(prefix):] for v in hom
                if v.startswith(prefix) and v != prefix + bad]
    assert partners
    for other in partners:
        assert f"homomorphism failure at {other}, {bad}" in hom
    assert f"Cayley image mismatch at {bad}" in rep["violations"]


def test_filtration_lattice_built_once_per_sequence():
    a = filtration_lattice(STD, 1)
    assert filtration_lattice(STD, 1) is a
    assert STD.lattice(1) is a
    assert filtration_lattice(STD, 2) is not a
    other = lattice_seq_from_norm(standard_norm(CFG))
    assert filtration_lattice(other, 1) is not a
    assert filtration_lattice(thirds_seq(), 1) is not a


def test_commutator_filtration():
    # [P^r, P^s] lands in P^{r+s} on generators
    for (r, s) in ((1, 1), (1, 2), (2, 2)):
        gr = lie_generators(STD, r)
        gs = lie_generators(STD, s)
        target = filtration_lattice(STD, r + s)
        for ga in gr[:8]:
            for gb in gs[:8]:
                a, b = cayley(ga.lie), cayley(gb.lie)
                comm = a * b * a.inverse() * b.inverse()
                assert target.contains_group(comm)


def test_psi_b_character():
    seq = STD
    r, s = 1, 2
    zero_b = EndV.zero(CFG)
    gens = lie_generators(seq, r)
    xs = [cayley(g.lie) for g in gens]
    assert all(psi_b(seq, s, zero_b, x, r) == 0 for x in xs[:6])
    b = d_torus_lie(CFG, 1, CFG.t(-1))
    # homomorphism modulo P^s
    rng = random.Random(62)
    for _ in range(40):
        x = xs[rng.randrange(len(xs))]
        y = xs[rng.randrange(len(xs))]
        lhs = psi_b(seq, s, b, x * y, r)
        rhs = (psi_b(seq, s, b, x, r) + psi_b(seq, s, b, y, r)) % CFG.p
        assert lhs == rhs


def test_psi_b_membership_errors():
    b_bad = d_torus_lie(CFG, 1, CFG.t(-3))
    x = cayley(d_torus_lie(CFG, 1, CFG.t()))
    with pytest.raises(MembershipError):
        psi_b(STD, 2, b_bad, x, 1)
    b = d_torus_lie(CFG, 1, CFG.t(-1))
    with pytest.raises(MembershipError):
        psi_b(STD, 2, b, EndV.identity(CFG) * CFG.from_int(2), 1)


def test_psi_b_equivariance():
    seq = STD
    r, s = 1, 2
    lie_gamma = LieTrialityGroup()
    grp_gamma = GroupTriality(CFG)
    bs = [d_torus_lie(CFG, 1, CFG.t(-1)),
          u_root_lie(CFG, -1, -3, CFG.t(-1)),
          u_root_lie(CFG, 1, -2, CFG.t(-1))]
    gens = lie_generators(seq, r)
    for b in bs:
        for word in LieTrialityGroup.WORDS:
            dnu_b = lie_gamma.apply(word, b)
            winv = grp_gamma.inverse_word(word)
            for g in gens:
                x = g.group.matrix(CFG)
                lhs = psi_b(seq, s, dnu_b, x, r)
                rhs = psi_b(seq, s, b,
                            grp_gamma.apply(winv, g.group), r)
                assert lhs == rhs


def test_psi_b_injectivity_small_quotient():
    # b -> psi_b is injective mod A_{1-r}: a spanning set of A_{-1} with
    # nonzero class is separated from 0 by some generator, and the
    # F_p-dimension counting matches
    seq, r, s = STD, 1, 2
    d1, d2 = character_counts(seq, r, s)
    assert d1 == d2
    gens = lie_generators(seq, r)
    xs = [g.group.matrix(CFG) for g in gens]
    span = []
    for c in range(1, CFG.p):
        span.append(d_torus_lie(CFG, 1, CFG.monomial(c, -1)))
        span.append(u_root_lie(CFG, 1, 2, CFG.monomial(c, -1)))
        span.append(u_root_lie(CFG, 2, -4, CFG.monomial(c, -1)))
    a0 = filtration_lattice(seq, 0)
    for b in span:
        assert not a0.contains(b)  # nonzero class mod A_0 = A_{1-r}
        assert any(psi_b(seq, s, b, x, r) != 0 for x in xs)


def test_trace_triality_invariance():
    x = d_torus_lie(CFG, 1, CFG.t())
    y = d_torus_lie(CFG, 1, CFG.one())
    assert trace_triality_invariance(x, y)
    a = u_root_lie(CFG, 1, 2, CFG.t())
    b = u_root_lie(CFG, 2, 1, CFG.one())
    assert trace_triality_invariance(a, b)
    # derivations are fixed: trivially equal
    from g2kit.triality import random_g2_lie
    rng = random.Random(63)
    d1 = random_g2_lie(CFG, rng, width=1, vmin=0, vmax=1)
    d2 = random_g2_lie(CFG, rng, width=1, vmin=0, vmax=1)
    assert trace_triality_invariance(d1, d2)


def test_symplectic_space_validation():
    with pytest.raises(DomainError):
        SymplecticSpace(5, [[0, 1], [1, 0]], [[1, 0], [0, 1]])  # symmetric
    with pytest.raises(DomainError):
        SymplecticSpace(5, [[0, 0], [0, 0]], [[1, 0], [0, 1]])  # degenerate
    sp = standard_symplectic_swap(5)
    assert sp.order == 2
    sp3 = standard_symplectic_cycle(7)
    assert sp3.order == 3


def test_gamma_perp_trivial_action():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    form = standard_symplectic_swap(5).form
    sp = SymplecticSpace(5, form, ident)


def test_gamma_perp_swap_lagrangian():
    sp = standard_symplectic_swap(5)
    # a stable Lagrangian: span((1,0,1,0), (0,1,0,1)) is gamma-fixed
    x = ModpSubspace(5, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert sp.stable(x)
    assert gamma_perp(sp, x)


def test_gamma_perp_exhaustive_dim4():
    sp = standard_symplectic_swap(5)
    subs = enumerate_subspaces(5, 4)
    assert len(subs) == 1 + 156 + 806 + 156 + 1
    stable = [x for x in subs if sp.stable(x)]
    assert len(stable) > 2
    for x in stable:
        assert gamma_perp(sp, x)


def test_gamma_perp_random_dim6_order3():
    sp = standard_symplectic_cycle(7)
    rng = random.Random(64)
    for _ in range(50):
        x = random_stable_subspace(sp, rng)
        assert sp.stable(x)
        assert gamma_perp(sp, x)


def test_gamma_perp_rejects_unstable():
    sp = standard_symplectic_swap(5)
    x = ModpSubspace(5, 4, [[1, 0, 0, 0]])
    assert not sp.stable(x)
    with pytest.raises(DomainError):
        gamma_perp(sp, x)
