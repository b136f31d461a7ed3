"""Tests for Cayley/filtration machinery, the character pairing, and the
symplectic fixed-point identity."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from g2kit.endo import EndV, d_torus_lie, u_root_lie
from g2kit.errors import (ConfigMismatchError, DomainError, MembershipError,
                          PrecisionError, SingularError)
from g2kit.filtration import (FiltrationQuotient, ModpSubspace,
                              SymplecticSpace, _fixed_sides, cayley,
                              cayley_offset, cayley_scalar, character_counts,
                              enumerate_subspaces, gamma_perp, lie_generators,
                              moy_counterexample, psi_b,
                              quotient_iso_check, random_stable_subspace,
                              standard_symplectic_cycle,
                              standard_symplectic_swap,
                              trace_triality_invariance)
from g2kit.linalg import Subspace, identity, kernel, mat_vec, transpose
from g2kit.norms import (NormFn, extend_sl3, filtration_lattice,
                         lattice_seq_from_norm, standard_norm)
from g2kit.octonions import (IDX, basis_octonion, gram_scalar,
                             hyperbolic_plane)
from g2kit.residue import PrimeField
from g2kit.scalars import FieldConfig
from g2kit.triality import (_LETTERS, GroupTriality, LieTrialityGroup,
                            random_g2_lie)
from oracles import RefModpSubspace, ref_modp_kernel, trace, truncate

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
    assert ref_congruent_mod(ref_cayley_inv(g), x, CFG.precision - 1)
    u = u_root_lie(CFG, 1, 2, CFG.t())
    from g2kit.endo import u_root
    assert cayley(u) == u_root(CFG, 1, 2, CFG.t())
    assert ref_cayley_inv(cayley(u)) == u  # nilpotent case is division-free


def test_cayley_inverse_roundtrip():
    rng = random.Random(61)
    fl = filtration_lattice(STD, 1)
    from g2kit.endo import random_so
    for _ in range(20):
        x = random_so(CFG, rng, width=1, vmin=1, vmax=2)
        if not fl.contains(x):
            continue
        assert ref_congruent_mod(ref_cayley_inv(cayley(x)), x,
                                 CFG.precision - 1)


def test_moy_counterexample():
    for u in (CFG.t(), CFG.t(2), CFG.t() * 3):
        assert moy_counterexample(u)
    with pytest.raises(DomainError):
        moy_counterexample(CFG.zero())
    with pytest.raises(DomainError):
        moy_counterexample(CFG.one())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4", raises=AssertionError)
@pytest.mark.parametrize("n", (5, 6))
def test_moy_counterexample_at_short_windows(n):
    """C(t^2)^2 C(-2 t^2) - 1 has its first nonzero digit at t^6, past
    the 5- and 6-coefficient windows: the answer is True (as at N = 8) or
    PrecisionError, never False from zero-filled digits."""
    cfg = FieldConfig(5, n)
    try:
        assert moy_counterexample(cfg.t(2)) is True
    except PrecisionError:
        pass


def test_quotient_preconditions():
    """Any r <= s constructs, and r > s is refused; congruent, the one
    reading of the group quotient, needs 1 <= r <= s <= 2r, and the
    quotient check refuses other levels before any Cayley transform (at
    r = 0 a generator's 1 - X/2 is singular)."""
    with pytest.raises(DomainError):
        FiltrationQuotient(STD, 2, 1)
    x = {(0, 0): CFG.t()}
    for r, s in ((1, 3), (-1, 0), (0, 1)):
        q = FiltrationQuotient(STD, r, s)
        with pytest.raises(DomainError, match="need 1 <= r <= s <= 2r"):
            q.congruent(x, x)
        with pytest.raises(DomainError, match="need 1 <= r <= s <= 2r"):
            quotient_iso_check(STD, r, s)
    FiltrationQuotient(STD, 1, 2)
    FiltrationQuotient(STD, 2, 4)


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
                if not ref_congruent_group(q, cayley(ga.lie) * cayley(gb.lie),
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
                assert ref_contains_group(target, comm)


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
    assert sp.order == 1
    subs = enumerate_subspaces(5, 4)
    assert all(sp.stable(x) for x in subs)
    assert all(gamma_perp(sp, x) for x in subs)


def test_gamma_perp_swap_lagrangian():
    sp = standard_symplectic_swap(5)
    # a stable Lagrangian: span((1,0,1,0), (0,1,0,1)) is gamma-fixed
    x = Subspace(PrimeField(5), 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
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


def broken_swap():
    """standard_symplectic_swap(5) with the form on the second plane
    doubled (B(e2, e3) = 2), built past the constructor, which refuses
    it: gamma swaps the planes and so no longer preserves the form."""
    good = standard_symplectic_swap(5)
    bad = object.__new__(SymplecticSpace)
    bad.p, bad.field, bad.n = good.p, good.field, good.n
    bad.gamma, bad.order = good.gamma, good.order
    bad.form = [list(row) for row in good.form]
    bad.form[2][3], bad.form[3][2] = 2, 3
    return bad


def test_gamma_perp_fails_when_gamma_breaks_the_form():
    """Negative control: gamma_perp is False on every stable X.  The
    X-free half (V = V_1 perp V_s) fails whatever X is, and 43 of the 64
    already fail the X-dependent half (the orthogonal of X^Gamma inside
    V^Gamma against (X^perp)^Gamma), so both halves are seen failing."""
    bad = broken_swap()
    with pytest.raises(DomainError, match="preserve the form"):
        SymplecticSpace(5, bad.form, bad.gamma)
    stable = [x for x in enumerate_subspaces(5, 4) if bad.stable(x)]
    assert len(stable) == 64
    assert not any(gamma_perp(bad, x) for x in stable)


def test_gamma_perp_random_dim6_order3():
    sp = standard_symplectic_cycle(7)
    rng = random.Random(64)
    for _ in range(50):
        x = random_stable_subspace(sp, rng)
        assert sp.stable(x)
        assert gamma_perp(sp, x)


def test_gamma_perp_rejects_unstable():
    sp = standard_symplectic_swap(5)
    x = Subspace(PrimeField(5), 4, [[1, 0, 0, 0]])
    assert not sp.stable(x)
    with pytest.raises(DomainError):
        gamma_perp(sp, x)


# -- gamma_perp against the enumeration it replaced ----------------------------

def ref_gamma_perp(space, x):
    """gamma_perp as it was before it took intersections, its lines as they
    were: the verdict, with the three spans it compared, X^Gamma, the
    orthogonal of X^Gamma inside V^Gamma and (X^perp)^Gamma, each the span
    of the listed vectors (ModpSubspace.vectors) that pass a test."""
    if not space.stable(x):
        raise DomainError("subspace must be gamma-stable")
    field, n = space.field, space.n
    vectors = ModpSubspace.vectors
    fixed = space.fixed_subspace()
    x_fixed = Subspace(field, n, [r for r in vectors(x) if fixed.contains(r)])
    # orthogonal of X^Gamma inside V^Gamma, by direct scan of V^Gamma
    lhs = Subspace(field, n, [v for v in vectors(fixed)
                              if all(space.pair(v, r) == 0
                                     for r in x_fixed.rows)])
    rhs = Subspace(field, n, [r for r in vectors(space.perp(x))
                              if fixed.contains(r)])
    parts = (x_fixed, lhs, rhs)
    if lhs != rhs:
        return False, parts
    # V = V_1 perp V_s, V_s the kernel of the orbit sum
    # 1 + gamma + ... + gamma^(order - 1); for order 1 it is zero
    sums = [[sum(c) % space.p for c in zip(*space.orbit(e))]
            for e in identity(field, n)]
    vs = Subspace(field, n, kernel(transpose(sums), field))
    if fixed.dim + vs.dim != n:
        return False, parts
    for u in fixed.rows:
        for w in vs.rows:
            if space.pair(u, w):
                return False, parts
    return True, parts


def x_half_failures(space, xs):
    """Check X^Gamma, both sides of the identity (filtration._fixed_sides)
    and the verdict of each X against the enumeration; returns how many X
    fail the X-dependent half on the intersection route and on the
    enumeration."""
    got_fails = want_fails = 0
    for x in xs:
        got = _fixed_sides(space, x, space.fixed_subspace())
        verdict, want = ref_gamma_perp(space, x)
        assert got == want
        assert gamma_perp(space, x) == verdict
        got_fails += got[1] != got[2]
        want_fails += want[1] != want[2]
    return got_fails, want_fails


def stable_draws(space, rng, count, max_dim):
    """count random_stable_subspace draws of dimension at most max_dim."""
    out = []
    while len(out) < count:
        x = random_stable_subspace(space, rng)
        if x.dim <= max_dim:
            out.append(x)
    return out


def test_gamma_perp_matches_the_enumeration_on_the_swap_space():
    swap = standard_symplectic_swap(5)
    stable = [x for x in enumerate_subspaces(5, 4) if swap.stable(x)]
    assert len(stable) == 64
    assert x_half_failures(swap, stable) == (0, 0)


def test_gamma_perp_matches_the_enumeration_under_the_trivial_action(
        monkeypatch):
    """All 1,120 subspaces of F_5^4.  The enumeration lists V^Gamma = V
    and pairs each of its 625 vectors with the rows of X^Gamma, for every
    X; the listings and the pairings are memoized here, which changes no
    value: unmemoized, the enumeration alone took about 7 s."""
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    sp = SymplecticSpace(5, standard_symplectic_swap(5).form, ident)
    sp.pair = functools.lru_cache(maxsize=None)(sp.pair)
    listings, vectors = {}, ModpSubspace.vectors

    def listed(x):
        key = tuple(x.rows)
        if key not in listings:
            listings[key] = vectors(x)
        return listings[key]
    monkeypatch.setattr(ModpSubspace, "vectors", staticmethod(listed))
    subs = enumerate_subspaces(5, 4)
    assert len(subs) == 1120
    assert x_half_failures(sp, subs) == (0, 0)


def test_gamma_perp_matches_the_enumeration_on_the_broken_swap():
    """43 of the 64 stable X fail the X-dependent half on both routes;
    test_gamma_perp_fails_when_gamma_breaks_the_form sees all 64 fail."""
    bad = broken_swap()
    stable = [x for x in enumerate_subspaces(5, 4) if bad.stable(x)]
    assert len(stable) == 64
    assert x_half_failures(bad, stable) == (43, 43)


@pytest.mark.parametrize("p, count, max_dim",
                         [(7, 20, 4), (5, 20, 3), (11, 8, 3), (13, 8, 3)])
def test_gamma_perp_matches_the_enumeration_on_cycle_spaces(p, count,
                                                            max_dim):
    """Draws on three cycled planes.  At p = 5 and 11 (2 mod 3) gamma has
    no eigenvalue on the complement of V^Gamma, which is an
    F_{p^2}-space; p = 11 is also 3 mod 4."""
    sp = standard_symplectic_cycle(p)
    xs = stable_draws(sp, random.Random(p), count, max_dim)
    assert x_half_failures(sp, xs) == (0, 0)


# -- linalg over F_p against the separate F_p code it replaced ------------------
# ref_modp_rref, ref_modp_kernel and RefModpSubspace (tests/oracles.py) are
# the row reduction, kernel and subspace that filtration kept for F_p before
# rref, kernel and Subspace took a residue.PrimeField.

def ref_perp(space, x):
    """SymplecticSpace.perp as it was, on the reference code."""
    p, n = space.p, space.n
    if not x.rows:
        return RefModpSubspace(p, n, [[int(i == j) for j in range(n)]
                                      for i in range(n)])
    rows = [[sum(r[i] * space.form[i][j] for i in range(n)) % p
             for j in range(n)] for r in x.rows]
    return RefModpSubspace(p, n, ref_modp_kernel(rows, p, n))


def assert_same_subspace(got, want, probes):
    assert got.rows == want.rows
    assert got.pivots == want.pivots
    assert got.dim == want.dim
    assert [got.contains(v) for v in probes] \
        == [want.contains(v) for v in probes]


def spanning_sets(rng, p, n, rows):
    """Spanning sets of span(rows) with unreduced entries: the rows moved
    by multiples of p, plus a random combination and a zero vector."""
    moved = [[a + p * rng.randrange(-2, 3) for a in r] for r in rows]
    combo = [sum(rng.randrange(p) * r[t] for r in rows) for t in range(n)]
    return moved + [combo, [0] * n]


def probe_vectors(rng, p, n, rows, count):
    """Random vectors with unreduced entries, and members of span(rows)."""
    out = [tuple(rng.randrange(-p, 2 * p) for _ in range(n))
           for _ in range(count)]
    for _ in range(count // 2):
        out.append(tuple(sum(rng.randrange(p) * r[t] for r in rows) - p
                         for t in range(n)))
    return out


def test_modp_linalg_matches_the_reference_code():
    rng = random.Random(67)
    f5 = PrimeField(5)
    subs = enumerate_subspaces(5, 4)
    assert len(subs) == 1120
    for x in subs:
        probes = probe_vectors(rng, 5, 4, x.rows, 12)
        assert_same_subspace(x, RefModpSubspace(5, 4, x.rows), probes)
        span = spanning_sets(rng, 5, 4, x.rows)
        assert_same_subspace(Subspace(f5, 4, span),
                             RefModpSubspace(5, 4, span), probes)
    # random subspaces and kernels of F_7^6 and F_11^6 (both 3 mod 4)
    for p in (7, 11):
        field = PrimeField(p)
        for k in range(8):
            for _ in range(12):
                vecs = [[rng.randrange(-p, 2 * p) for _ in range(6)]
                        for _ in range(k)]
                if k > 2:  # a dependent vector lowers the rank
                    vecs.append([a - 2 * b for a, b in zip(vecs[0], vecs[1])])
                probes = probe_vectors(rng, p, 6, vecs, 16)
                assert_same_subspace(Subspace(field, 6, vecs),
                                     RefModpSubspace(p, 6, vecs), probes)
                if vecs:
                    reduced = [[a % p for a in v] for v in vecs]
                    assert kernel(reduced, field) \
                        == ref_modp_kernel(reduced, p, 6)
    # the fixed subspace and perps of both standard spaces
    for sp in (standard_symplectic_swap(5), standard_symplectic_swap(11),
               standard_symplectic_cycle(7), standard_symplectic_cycle(11)):
        p, n = sp.p, sp.n
        rows = [[(sp.gamma[i][j] - (i == j)) % p for j in range(n)]
                for i in range(n)]
        fixed = sp.fixed_subspace()
        probes = probe_vectors(rng, p, n, fixed.rows, 40)
        assert_same_subspace(
            fixed, RefModpSubspace(p, n, ref_modp_kernel(rows, p, n)), probes)
        xs = ([Subspace(sp.field, n, []), fixed]
              + [random_stable_subspace(sp, rng) for _ in range(10)]
              + [Subspace(sp.field, n, [[rng.randrange(p) for _ in range(n)]])
                 for _ in range(5)])
        for x in xs:
            assert_same_subspace(sp.perp(x), ref_perp(sp, x), probes)
    # the form checks raise as they did
    with pytest.raises(DomainError, match="form must be alternating"):
        SymplecticSpace(5, [[0, 1], [1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(DomainError, match="form must be non-degenerate"):
        SymplecticSpace(5, [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    with pytest.raises(DomainError, match="form must be non-degenerate"):
        SymplecticSpace(7, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
                        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])



def test_subspace_perp_over_a_prime_field():
    """Subspace.perp pairs its rows with the Gram matrix by the field's
    row_times, over F_p as over F_p((t)); SymplecticSpace.perp is
    Subspace.perp with the form, and equals ref_perp's int row products on
    the swap and cycle spaces."""
    f5 = PrimeField(5)
    perp = Subspace(f5, 2, [[1, 0]]).perp([[0, 1], [4, 0]])
    assert perp == Subspace(f5, 2, [[1, 0]])
    assert perp.rows == [(1, 0)]
    assert Subspace(f5, 2, []).perp([[0, 1], [4, 0]]).dim == 2
    # r gram, not gram r, and reduced: (1, 1) pairs to (5, 5) = 0 with the
    # first form, and to (0, 1) with the second
    assert Subspace(f5, 2, [[1, 1]]).perp([[1, 2], [4, 3]]).dim == 2
    assert Subspace(f5, 2, [[1, 0]]).perp([[0, 1], [0, 0]]).rows == [(1, 0)]
    cfg = FieldConfig(5, 8)
    one, zero = cfg.one(), cfg.zero()
    assert Subspace(cfg, 2, [[one, zero]]).perp(
        [[zero, one], [zero, zero]]).rows == [(one, zero)]
    swap = standard_symplectic_swap(5)
    for x in enumerate_subspaces(5, 4):
        assert swap.perp(x).rows == ref_perp(swap, x).rows
    rng = random.Random(5)
    cycle = standard_symplectic_cycle(7)
    for _ in range(40):
        x = random_stable_subspace(cycle, rng)
        assert cycle.perp(x).rows == ref_perp(cycle, x).rows
    # over F_p((t)), the same subspaces as the column products gram r
    for cfg in (FieldConfig(5, 8), FieldConfig(7, 8, "ramified")):
        gram = gram_scalar(cfg)
        for vecs in ([E8(cfg, 1)], [E8(cfg, 1), E8(cfg, -1)],
                     [E8(cfg, -4) + E8(cfg, 4).scale(cfg.t()), E8(cfg, 2)]):
            x = Subspace(cfg, 8, [v.coords for v in vecs])
            want = Subspace(cfg, 8, kernel([mat_vec(gram, list(r))
                                            for r in x.rows]))
            assert x.perp(gram).rows == want.rows


def E8(cfg, lbl):
    return basis_octonion(cfg, lbl)

# -- the quotient check against the parent's code ------------------------------
# ref_* are the versions that formed every 8x8 difference, the identity and
# the product b (x - 1), and transformed every triality image anew;
# ref_contains is FiltrationLattice.contains as it was when they were, and
# ref_cayley the dense formula that cayley was before it was formed from
# the sparse offset C(X) - 1, and ref_cayley_offset that offset as it was
# before it came from one row reduction of [1 - X/2 | X];
# ref_cayley_offset_rref is that row reduction, which cayley_offset was
# for every input before it solved by back substitution and kept a row
# reduction for the vertices on or above a cycle alone.  On the group
# side, ref_group_matrix builds a torus through iota (a 3 x 3 linalg.inv
# and EndV.from_action), RefGroupTriality reads the hat of a torus off
# hat(matrix), and ref_group_offset is (matrix - 1).entries(), as they
# were before the group side was read from the descriptors.

from g2kit import filtration, linalg, triality  # noqa: E402
from g2kit.endo import u_root  # noqa: E402
from g2kit.errors import PrecisionError  # noqa: E402
from g2kit.fixtures import wplus_norm  # noqa: E402
from g2kit.scalars import Scalar  # noqa: E402
from g2kit.triality import GroupGenerator, hat, iota  # noqa: E402
from g2kit.endo import SO_LABELS, SO_PLACES, so_coords, so_matrix  # noqa: E402

LEVELS = ((1, 1), (1, 2), (2, 3), (2, 4))
ONE = EndV.identity(CFG)


def ref_cayley(x):
    """C(X) = (1 + X/2)(1 - X/2)^{-1} on the whole 8x8 matrix."""
    cfg = x.cfg
    half = cfg.from_int(2).inv()
    ident = EndV.identity(cfg)
    xh = x * half
    return (ident + xh) * (ident - xh).inverse()


def ref_cayley_offset(x):
    """C(X) - 1 as the parent computed it: X (1 - X/2)^{-1} on the support
    block of X, with the inverse row-reduced from [1 - X/2 | 1] and then
    multiplied in."""
    entries = x.entries() if isinstance(x, EndV) else x
    block = sorted({k for ij, c in entries.items() if c.coeffs for k in ij})
    if not block:
        return {}
    cfg = next(iter(entries.values())).cfg
    pos = {k: a for a, k in enumerate(block)}
    xb = linalg.zeros(cfg, len(block), len(block))
    minus = linalg.identity(cfg, len(block))
    for (i, j), c in entries.items():
        if c.coeffs:
            a, b = pos[i], pos[j]
            xb[a][b] = c
            minus[a][b] = minus[a][b] - cfg.half * c
    prod = linalg.mat_mul(xb, linalg.inv(minus))
    return {(block[a], block[b]): c for a, row in enumerate(prod)
            for b, c in enumerate(row) if c.coeffs}


def ref_cayley_offset_rref(x):
    """C(X) - 1 as one row reduction of [1 - X/2 | X] on the support
    block of X, for every input."""
    entries = x.entries() if isinstance(x, EndV) else x
    block = sorted({k for ij, c in entries.items() if c.coeffs for k in ij})
    if not block:
        return {}
    cfg = next(iter(entries.values())).cfg
    k = len(block)
    pos = {i: a for a, i in enumerate(block)}
    aug = [row + [cfg.zero()] * k for row in linalg.identity(cfg, k)]
    for (i, j), c in entries.items():
        if c.coeffs:
            a, b = pos[i], pos[j]
            aug[a][b] = aug[a][b] - cfg.half * c
            aug[a][k + b] = c
    red, pivots = linalg.rref(aug)
    if pivots != list(range(k)):
        raise SingularError("1 - X/2 is not invertible")
    return {(block[a], block[b]): c for a, row in enumerate(red)
            for b, c in enumerate(row[k:]) if c.coeffs}


def ref_cayley_inv(g):
    """C^{-1}(g) = 2 (g + 1)^{-1} (g - 1), the right half of
    [g + 1 | 2 (g - 1)] once that is row-reduced (g - 1 commutes with
    g + 1)."""
    cfg = g.cfg
    one, two = cfg.one(), cfg.from_int(2)
    aug = [[c + one if i == j else c for j, c in enumerate(row)]
           + [two * (c - one if i == j else c) for j, c in enumerate(row)]
           for i, row in enumerate(g.rows)]
    red, pivots = linalg.rref(aug)
    if pivots != list(range(8)):
        raise SingularError("g + 1 is not invertible")
    return EndV.adopt(cfg, [row[8:] for row in red])


def ref_congruent_mod(x, y, cutoff):
    """x = y entrywise modulo p_F^cutoff."""
    return all(truncate(c, cutoff).is_zero for row in (x - y).rows
               for c in row)


def offset(g):
    """The sparse offset g - 1 of a group element g."""
    return (g - EndV.identity(g.cfg)).entries()


def ref_contains(lat, x):
    y = lat.in_basis(x)
    for l in range(8):
        for j in range(8):
            c = y[l][j]
            if not c.is_zero and c.valuation < lat.entry_bound(l, j):
                return False
    return True


def ref_contains_group(lat, g):
    return ref_contains(lat, g - EndV.identity(lat.cfg))


def ref_congruent_group(q, g, h):
    return ref_contains(q.lat_s, g - h)


def ref_congruent_lie(q, x, y):
    return ref_contains(q.lat_s, x - y)


def ref_group_matrix(cfg, gen):
    """The generator's matrix, a torus as iota(u, diag(m1, m2, m3))."""
    if gen.kind == "root":
        return u_root(cfg, *gen.data)
    u, m1, m2, m3 = gen.data
    z = cfg.zero()
    return iota(cfg, u, [[m1, z, z], [z, m2, z], [z, z, m3]])


def ref_group_offset(cfg, gen):
    return (ref_group_matrix(cfg, gen) - EndV.identity(cfg)).entries()


class RefGroupTriality(GroupTriality):
    """GroupTriality with the hat of a torus read off hat(matrix)."""

    def _hat(self, gen):
        if gen.kind != "torus":
            return super()._hat(gen)
        m = hat(ref_group_matrix(self.cfg, gen))
        return GroupGenerator.torus(m.entry(4, 4), m.entry(1, 1),
                                    m.entry(2, 2), m.entry(3, 3))


def ref_quotient_iso_check(seq, r, s):
    cayley = filtration.cayley
    q = FiltrationQuotient(seq, r, s)
    cfg = seq.cfg
    gens = filtration.lie_generators(seq, r)
    violations = []
    images = [cayley(g.lie) for g in gens]
    failed = []
    for i, ga in enumerate(gens):
        for j in range(i, len(gens)):
            both = cayley(ga.lie + gens[j].lie)
            for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
                if not ref_congruent_group(q, images[a] * images[b], both):
                    failed.append((a, b))
    violations += [f"homomorphism failure at {gens[a].name}, {gens[b].name}"
                   for a, b in sorted(failed)]
    lie_gamma = LieTrialityGroup()
    grp_gamma = RefGroupTriality(cfg)
    for g, cx in zip(gens, images):
        if cx != ref_group_matrix(cfg, g.group):
            violations.append(f"Cayley image mismatch at {g.name}")
            continue
        for word in LieTrialityGroup.WORDS:
            lhs = cayley(lie_gamma.apply(word, g.lie))
            rhs = ref_group_matrix(cfg, grp_gamma._apply_desc(word, g.group))
            if not ref_congruent_group(q, lhs, rhs):
                violations.append(
                    f"triality congruence failure at {g.name}, {word}")
    basis, fixed, rank, moved, _ = ref_fixed_space(seq, r, s)
    violations += [f"{word} moves A_{r} or A_{s}" for word in moved]
    if len(fixed) != rank:
        violations.append(f"fixed space of dimension {len(fixed)} where "
                          f"the averages span {rank}")
    for vector in fixed:
        x = ref_lift(cfg, zip(basis, vector))
        lifted = lie_gamma.average(x)
        if not ref_contains(q.lat_r, lifted):
            violations.append("lift leaves A_r")
        if not filtration.is_derivation(lifted):
            violations.append("lift is not a derivation")
        if not ref_congruent_lie(q, lifted, x):
            violations.append("lift changes the coset")
    return {
        "check": "quotient_iso",
        "parameters": {"r": r, "s": s, "m": seq.m, "p": cfg.p},
        "generators_tested": len(gens),
        "violations": violations,
    }


def ref_quotient_basis(seq, r, s):
    """The pairs (k, v) with e * entry_bound <= v < e * entry_bound at
    the first place of so(V) coordinate k, at r and at s."""
    e = seq.cfg.e
    lo, hi = seq.lattice(r), seq.lattice(s)
    return [(k, v) for k, (place, _) in enumerate(SO_PLACES)
            for v in range(e * lo.entry_bound(*place),
                           e * hi.entry_bound(*place))]


def ref_lift(cfg, terms):
    """sum c u^v e_k over the terms ((k, v), c), formed dense."""
    x = EndV.zero(cfg)
    for (k, v), c in terms:
        x = x + so_matrix(cfg, {k: cfg.monomial(c, v)})
    return x


def ref_digit(c, v):
    """The digit of u^v in the scalar c, as an int (a residue of F_{p^2}
    that lies in F_p as its first component)."""
    i = v - c.val
    if not c.coeffs or not 0 <= i < len(c.coeffs):
        return 0
    d = c.coeffs[i]
    if isinstance(d, tuple):
        assert d[1] == 0
        d = d[0]
    return d


def ref_fixed_space(seq, r, s):
    """(basis, kernel vectors, rank, moved words, matrices) from dense
    images: a word moves A_r or A_s when the image of some u^bound e_k,
    applied by LieTrialityGroup.apply, leaves the lattice; otherwise the
    matrices of sigma, rho and LieTrialityGroup.average on the basis,
    keyed "sigma", "rho" and "average", are the digits, read from
    so_coords, of the images of the basis lifts, the kernel is
    linalg.kernel of [S - 1; R - 1] over PrimeField(p), and rank is that
    of the matrix of the average.  No matrix is formed where a word moves
    a lattice."""
    cfg, p = seq.cfg, seq.cfg.p
    gamma = LieTrialityGroup()
    basis = ref_quotient_basis(seq, r, s)
    moved = []
    for word in ("sigma", "rho"):
        for lat in (seq.lattice(r), seq.lattice(s)):
            for k, (place, _) in enumerate(SO_PLACES):
                x = ref_lift(cfg, [((k, cfg.e * lat.entry_bound(*place)), 1)])
                if not ref_contains(lat, gamma.apply(word, x)):
                    moved.append(word)
    moved = list(dict.fromkeys(moved))
    if moved:
        return basis, [], 0, moved, {}
    mats = {}
    for name, image in (("sigma", lambda x: gamma.apply("sigma", x)),
                        ("rho", lambda x: gamma.apply("rho", x)),
                        ("average", gamma.average)):
        cols = []
        for kv in basis:
            y = so_coords(image(ref_lift(cfg, [(kv, 1)])))
            cols.append([ref_digit(y[m], w) for m, w in basis])
        mats[name] = linalg.transpose(cols)
    if not basis:
        return basis, [], 0, moved, mats
    d = len(basis)
    shifted = [[(c - (a == n)) % p for n, c in enumerate(row)]
               for word in ("sigma", "rho")
               for a, row in enumerate(mats[word])]
    field = PrimeField(p)
    return (basis, kernel(shifted, field),
            Subspace(field, d, mats["average"]).dim, moved, mats)


def ref_psi_b(seq, s, b, x, r):
    if not ref_contains(seq.lattice(1 - s), b):
        raise MembershipError("b must lie in A_{1-s}")
    if not ref_contains_group(seq.lattice(r), x):
        raise MembershipError("x must lie in P^r")
    ident = EndV.identity(seq.cfg)
    return trace(b * (x - ident)).conductor_character()


def benchmark_sequences(cfg):
    """The standard and the (1/3, 1/3, -2/3) sequences of the benchmark."""
    std = lattice_seq_from_norm(standard_norm(cfg))
    thirds = lattice_seq_from_norm(extend_sl3(wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]),
        hyperbolic_plane(cfg)))
    return std, thirds


def skew_seq(cfg=CFG):
    """A sequence whose splitting basis is not the standard one."""
    e = {lbl: basis_octonion(cfg, lbl) for lbl in (1, 2, 3)}
    alpha = extend_sl3(NormFn(cfg, [e[1] + e[2], e[2], e[3]],
                              [Fraction(1, 3), Fraction(1, 3),
                               Fraction(-2, 3)]), hyperbolic_plane(cfg))
    return lattice_seq_from_norm(alpha)


def outcome(f, *args):
    """f's value, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def rref_spy(monkeypatch):
    """The shapes of the matrices that filtration.rref is given, in call
    order."""
    shapes = []
    original = filtration.rref
    monkeypatch.setattr(
        filtration, "rref",
        lambda m: shapes.append((len(m), len(m[0]))) or original(m))
    return shapes


def cayley_offset_spy(monkeypatch):
    """The inputs that filtration.cayley_offset is given, in call order;
    the pivot table, where the caller passes one, is forwarded."""
    seen = []
    original = filtration.cayley_offset
    monkeypatch.setattr(filtration, "cayley_offset",
                        lambda x, *table: seen.append(x) or original(x, *table))
    return seen


def longest_path(edges):
    """The number of edges of a longest path in the graph with the edges
    i -> j, or None when the graph has a cycle (a self-loop is one):
    walks of m + 1 edges for m = 0, 1, ..., until a walk closes or none
    is left."""
    succ = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
    paths, m = set(edges), 0
    while paths:
        if any(i == j for i, j in paths):
            return None
        m += 1
        paths = {(i, k) for i, j in paths for k in succ.get(j, ())}
    return m


@pytest.mark.parametrize("p", (5, 7))
def test_quotient_iso_matches_reference(p, monkeypatch):
    """Both benchmark sequences at every level: the same report, and 229
    Cayley offsets per check (28 images, the 184 pair sums of generators
    that do not annihilate each other and the 17 triality images that are
    no generator) where the reference takes 602 Cayley transforms (28
    images, all 406 pair sums and the 17 triality images).  Only the 12
    opposite-root pairs, whose support graph has a cycle of two vertices,
    are row-reduced; back substitution solves the other 217."""
    calls = cayley_offset_spy(monkeypatch)
    shapes = rref_spy(monkeypatch)
    for seq in benchmark_sequences(FieldConfig(p, 8)):
        assert seq.lattice(1)._std
        for r, s in LEVELS:
            del calls[:], shapes[:]
            rep = quotient_iso_check(seq, r, s)
            assert (len(calls), len(shapes)) == (229, 12)
            del calls[:]
            assert rep == ref_quotient_iso_check(seq, r, s)
            assert len(calls) == 602
            assert rep["violations"] == []


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_annihilating_pairs_need_no_cayley_transform(p, ext):
    """Every pair of generators of A_1 and of A_2 on both benchmark
    sequences that the key test decides has X_a X_b = X_b X_a = 0 in the
    exact sparse product, and only those do: 888 of the 1624 unordered
    pairs.  On each, the Cayley offset of the pair sum is the product
    offset of the two images, A + B, digit for digit."""
    cfg = FieldConfig(p, 8, ext)
    pairs = decided = 0
    for seq in benchmark_sequences(cfg):
        for r in (1, 2):
            gens = [g.lie for g in lie_generators(seq, r)]
            lies = [x.entries() for x in gens]
            keyed = filtration._annihilating_pairs(lies)
            for a, xa in enumerate(gens):
                for b in range(a, len(gens)):
                    xb = gens[b]
                    pairs += 1
                    exact = (xa * xb).is_zero and (xb * xa).is_zero
                    assert ((a, b) in keyed) == exact
                    if exact:
                        decided += 1
                        ca, cb = cayley_offset(lies[a]), cayley_offset(lies[b])
                        both = filtration._sparse_sum(lies[a], lies[b])
                        want = filtration._product_offset(ca, cb)
                        assert want == filtration._sparse_sum(ca, cb)
                        assert cayley_offset(both) == want
    assert (decided, pairs) == (888, 1624)


def test_a_linked_pair_goes_through_the_cayley_transform(monkeypatch):
    """Negative control: a generator given one more entry, in a column
    that is a row of a partner it annihilated (so X_a X_b != 0), loses
    the decision, and the pair sum goes through cayley_offset."""
    seq, r, s = STD, 1, 2
    lies = [g.lie.entries() for g in lie_generators(seq, r)]
    a, b = min((a, b) for a, b in filtration._annihilating_pairs(lies)
               if a != b)
    (i, _), c = next(iter(lies[a].items()))
    row = next(k for k, _ in lies[b])
    linked = {**lies[a], (i, row): c}
    assert not (EndV.from_entries(CFG, linked)
                * EndV.from_entries(CFG, lies[b])).is_zero
    assert (a, b) not in filtration._annihilating_pairs(
        [linked if k == a else x for k, x in enumerate(lies)])
    original = filtration.lie_generators

    def rekeyed(seq, r):
        out = original(seq, r)
        out[a].lie = EndV.from_entries(seq.cfg, linked)
        return out

    seen = cayley_offset_spy(monkeypatch)
    quotient_iso_check(seq, r, s)
    assert filtration._sparse_sum(lies[a], lies[b]) not in seen
    monkeypatch.setattr(filtration, "lie_generators", rekeyed)
    del seen[:]
    quotient_iso_check(seq, r, s)
    assert filtration._sparse_sum(linked, lies[b]) in seen


@pytest.mark.parametrize("p", (5, 7))
def test_cayley_offset_matches_the_parent_formula(p):
    """The 28 generators and 406 pair sums of A_1 and of A_2 on both
    benchmark sequences: 1 + cayley_offset(x) is the parent's C(X) digit
    for digit, and the offset is C(X) - 1 digit for digit off the
    diagonal.  A diagonal entry of the offset holds one window from its
    own valuation, and so digits at t^N and past, where C(X) - 1 stops
    at the t^(N-1) edge of the 1 it subtracted; below t^N they agree."""
    cfg = FieldConfig(p, 8)
    one = EndV.identity(cfg)
    n = cfg.precision
    longer = 0
    for seq in benchmark_sequences(cfg):
        for r in (1, 2):
            gens = [g.lie for g in lie_generators(seq, r)]
            xs = gens + [a + b for i, a in enumerate(gens) for b in gens[i:]]
            assert len(xs) == 28 + 406
            for x in xs:
                got = cayley_offset(x)
                want = ref_cayley(x)
                assert (one + EndV.from_entries(cfg, got)).rows == want.rows
                want = offset(want)
                assert got.keys() == want.keys()
                for (i, j), c in got.items():
                    if c != want[i, j]:
                        assert i == j and truncate(c, n) == want[i, j]
                        longer += 1
    assert longer


@pytest.mark.parametrize("p, ext", ((5, "none"), (7, "none"),
                                    (5, "unramified"), (5, "ramified")))
def test_cayley_offset_matches_the_parent_route(p, ext):
    """The 28 generators and 406 pair sums of A_1 and of A_2 on both
    benchmark sequences: the offset, solved from (1 - X/2) Y = X by back
    substitution and a row reduction of any cyclic core, is the parent's
    X (1 - X/2)^{-1} digit for digit."""
    cfg = FieldConfig(p, 8, ext)
    count = 0
    for seq in benchmark_sequences(cfg):
        for r in (1, 2):
            gens = [g.lie for g in lie_generators(seq, r)]
            for x in gens + [a + b for i, a in enumerate(gens)
                             for b in gens[i:]]:
                assert cayley_offset(x) == ref_cayley_offset(x)
                count += 1
    assert count == 4 * (28 + 406)


def first_wrong(g, truth):
    """The least exponent at which the digits of g, read as exact with
    zeros past its window, differ from those of truth, a matrix over a
    longer window; inf where none do."""
    big = truth.cfg
    out = math.inf
    for ra, rb in zip(g.rows, truth.rows):
        for a, b in zip(ra, rb):
            d = big.from_coeffs(a.val, a.coeffs) - b
            if not d.is_zero:
                out = min(out, d.val)
    return out


@pytest.mark.parametrize("p", (5, 7))
def test_cayley_on_dense_inputs_agrees_below_the_window_edge(p):
    """On dense derivations of valuation 0 and 1 the offset route and the
    parent formula truncate at different steps, and both can go wrong
    before the window edge (at p = 7 one draw has both wrong from t^4
    on).  Against the same input lifted to a 40-digit window, the offset
    route is right on every digit below the exponent where the parent
    formula first goes wrong; where the parent is right below t^(N-1),
    the two agree there."""
    cfg, big = FieldConfig(p, 8), FieldConfig(p, 40)
    rng = random.Random(70)
    differ = 0
    for _ in range(45):
        x = random_g2_lie(cfg, rng, width=3, vmin=0, vmax=1)
        truth = ref_cayley(EndV(big, [[big.from_coeffs(c.val, c.coeffs)
                                       for c in row] for row in x.rows]))
        got, want = cayley(x), ref_cayley(x)
        assert first_wrong(got, truth) >= first_wrong(want, truth)
        differ += got != want
    assert differ  # the edge digit does differ: ROADMAP item 4


@pytest.mark.parametrize("p", (5, 7))
def test_cayley_offset_takes_an_endv_or_its_entries(p):
    """The inputs of test_cayley_offset_matches_the_parent_formula: an
    EndV and its entries give the same offset digit for digit, and so do
    a pair sum and its entries merged as quotient_iso_check merges them."""
    cfg = FieldConfig(p, 8)
    count = 0
    for seq in benchmark_sequences(cfg):
        for r in (1, 2):
            gens = [g.lie for g in lie_generators(seq, r)]
            for i, a in enumerate(gens):
                x = a.entries()
                assert cayley_offset(a) == cayley_offset(x)
                count += 1
                for b in gens[i:]:
                    want = cayley_offset(a + b)
                    assert cayley_offset((a + b).entries()) == want
                    assert cayley_offset(
                        filtration._sparse_sum(x, b.entries())) == want
                    count += 1
    assert count == 1736


def test_cayley_offset_leaves_zero_entries_out_of_the_block(monkeypatch):
    """An explicit zero entry, such as a merged sum that cancels, adds no
    index to the block that is row-reduced, nor an edge to the support
    graph: k rows of [1 - X/2 | X], 2k columns, for an opposite-root pair
    (a cycle of two vertices), and the same back substitution, with no
    row reduction, for a torus element (its diagonal entries are
    self-loops) and a root element."""
    shapes = rref_spy(monkeypatch)
    x = {(1, 6): CFG.t(1), (6, 1): CFG.monomial(3, 1)}
    free = min(set(range(8)) - {k for ij in x for k in ij})
    padded = dict(x)
    padded[free, free] = CFG.zero()
    assert cayley_offset(padded) == cayley_offset(x)
    (k, cols), _ = shapes
    assert shapes[0] == shapes[1] and k < 8 and cols == 2 * k
    assert cayley_offset({(free, free): CFG.zero()}) == {}
    assert len(shapes) == 2
    for x in (d_torus_lie(CFG, 1, CFG.t(1)).entries(),
              u_root_lie(CFG, 1, 2, CFG.t(1)).entries()):
        free = min(set(range(8)) - {k for ij in x for k in ij})
        padded = {**x, (free, free): CFG.zero()}
        assert cayley_offset(padded) == cayley_offset(x)
        assert cayley_offset(x) == ref_cayley_offset_rref(x)
    assert len(shapes) == 2


@pytest.mark.parametrize("p", (5, 7, 11))
def test_nilpotent_offsets_match_the_row_reduction(p, monkeypatch):
    """Every cayley_offset input of quotient_iso_check on both benchmark
    sequences at every level, at N = 5, 6 and 8: back substitution and
    the row reduction of the whole support block give the same digits
    (or the same exception class), the entries in row-major order, as
    _add_product sums them.  Per check 150 of the 229 inputs have a
    support graph with no cycle, 30 of them with longest path L = 1 and
    120 with L = 2."""
    seen = cayley_offset_spy(monkeypatch)
    for n in (5, 6, 8):
        for seq in benchmark_sequences(FieldConfig(p, n)):
            for r, s in LEVELS:
                del seen[:]
                quotient_iso_check(seq, r, s)
                lengths = Counter()
                for x in seen:
                    nonzero = {k: c for k, c in x.items() if c.coeffs}
                    lengths[longest_path(nonzero)] += 1
                    got = outcome(cayley_offset, x)
                    assert got == outcome(ref_cayley_offset_rref, x)
                    assert isinstance(got, type) or list(got) == sorted(got)
                assert lengths == {None: 79, 1: 30, 2: 120}


def test_a_chain_of_length_three_takes_the_finite_sum(monkeypatch):
    """A chain e_a -> e_b -> e_c -> e_d (L = 3; the generators and their
    pair sums reach L = 2 only): back substitution forms
    X + X^2/2 + X^3/4 with no row reduction, equal to the row reduction
    and to the dense formula."""
    shapes = rref_spy(monkeypatch)
    for p in (5, 7, 11):
        cfg = FieldConfig(p, 8)
        x = {(6, 1): cfg.monomial(2, 1) + cfg.monomial(1, 3),
             (1, 4): cfg.monomial(3, -1),
             (4, 0): cfg.one() + cfg.monomial(4, 2)}
        assert longest_path(x) == 3
        got = cayley_offset(x)
        assert len(shapes) == 0
        assert got == ref_cayley_offset_rref(x)
        m = EndV.from_entries(cfg, x)
        half = cfg.half
        want = m + m * m * half + m * m * m * (half * half)
        assert got == want.entries()
        assert (EndV.identity(cfg) + EndV.from_entries(cfg, got)).rows \
            == ref_cayley(m).rows
        del shapes[:]


@pytest.mark.parametrize("x, shapes", (
    ({(2, 2): 1}, []),
    ({(0, 0): 1, (7, 7): -1}, []),
    ({(1, 6): 1, (6, 1): 3}, [(2, 4)]),
    ({(1, 2): 1, (2, 3): 2, (3, 1): 1}, [(3, 6)]),
    # 1 <-> 6 feeds 6 -> 4 -> 0: the core {1, 6}, its right sides on the
    # columns 0, 1, 4, 6
    ({(1, 6): 1, (6, 1): 3, (6, 4): 2, (4, 0): 4}, [(2, 6)]),
    # 0 -> 3 -> 1 feeds 1 <-> 6: every vertex is on or above the cycle
    ({(0, 3): 2, (3, 1): 1, (1, 6): 1, (6, 1): 3}, [(4, 7)]),
    # a self-loop at 5 above 1 -> 2 -> 3 -> 1, and one at 7 below it
    ({(5, 5): 1, (5, 1): 2, (1, 2): 1, (2, 3): 2, (3, 1): 1, (3, 7): 3,
      (7, 7): 4}, [(4, 9)]),
), ids=("self-loop", "torus", "opposite-roots", "three-cycle",
        "two-cycle-feeds-a-chain", "chain-feeds-a-two-cycle",
        "loops-around-a-three-cycle"))
def test_cyclic_inputs_still_row_reduce(x, shapes, monkeypatch):
    """Control: a support graph with a cycle gives the digits of the one
    row reduction of [1 - X/2 | X] on its whole support block.  Self-loops
    alone take back substitution and no row reduction; a cycle of two or
    more vertices row-reduces only the vertices on or above it, in one
    block [1 - X_LL/2 | R], R on the columns its right sides reach."""
    seen = rref_spy(monkeypatch)
    x = {k: CFG.monomial(c % 5, 1) for k, c in x.items()}
    assert longest_path(x) is None
    assert cayley_offset(x) == ref_cayley_offset_rref(x)
    assert seen == shapes


def random_support_graph(rng):
    """The edges of a random DAG on 0..7 (a shuffled order, edges forward
    in it), with one or two back edges and sometimes a self-loop."""
    order = rng.sample(range(8), 8)
    edges = set()
    for _ in range(rng.randrange(2, 10)):
        a, b = sorted(rng.sample(range(8), 2))
        edges.add((order[a], order[b]))
    for _ in range(rng.randrange(1, 3)):
        a, b = sorted(rng.sample(range(8), 2))
        edges.add((order[b], order[a]))
    if rng.random() < 0.5:
        a = rng.randrange(8)
        edges.add((a, a))
    return sorted(edges)


def cyclic_core(edges):
    """The vertices with a row that lie on or above a cycle of two or
    more vertices, from the transitive closure of the edges i -> j,
    i != j."""
    reach = {(i, j) for i, j in edges if i != j}
    while True:
        more = reach | {(i, k) for i, j in reach for j2, k in reach
                        if j2 == j}
        if more == reach:
            break
        reach = more
    on_cycle = {i for i, j in reach if i == j}
    return {i for i, j in reach if i in on_cycle or j in on_cycle}


# support graphs for the post-order walk of cayley_offset, walked from the
# least vertex, successors in increasing order
WALK_SHAPES = {
    # 0 -> 1, 2 -> 3 -> 5: the shared successor 3 is solved once, first
    "diamond": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5)],
    # the same with a self-loop at 3, and with a 2-cycle 3 <-> 6 below
    "diamond-with-a-loop": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3), (3, 5)],
    "diamond-over-a-two-cycle": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 6),
                                 (6, 3)],
    # 3 reaches the 2-cycle 1 <-> 2 only through 0, finished before the
    # walk starts at 3
    "through-a-finished-vertex": [(0, 1), (1, 2), (2, 1), (3, 0)],
    # 3 reaches only 4, finished and solved when the walk starts at 3
    "beside-a-two-cycle": [(0, 4), (1, 2), (2, 1), (3, 4)],
    # a self-loop at 4 below the 2-cycle 1 <-> 6, and 0 below it
    "loop-below-a-two-cycle": [(1, 6), (6, 1), (6, 4), (4, 4), (4, 0)],
}


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("shape", sorted(WALK_SHAPES))
def test_walk_shapes_match_the_row_reduction(shape, p, ext, monkeypatch):
    """On each shape of WALK_SHAPES, with monomials of valuation 0 to 2
    off the diagonal and 1 to 2 on it (the pivots are units),
    cayley_offset gives the digits of one row reduction of the whole
    support block, in key order, and row-reduces one block: the vertices
    on or above a cycle of two or more vertices (no block where there is
    no such cycle, the cycle alone where a vertex lies beside it).  A
    vertex with a self-loop whose pivot 1 - x_ii/2 is zero raises
    SingularError as the row reduction does, also where back substitution
    reaches it below a cycle."""
    cfg = FieldConfig(p, 8, ext)
    rng = random.Random(74)
    edges = WALK_SHAPES[shape]
    core = cyclic_core(edges)
    shapes = rref_spy(monkeypatch)
    for _ in range(6):
        x = {(i, j): cfg.monomial(rng.randrange(1, p),
                                  rng.randrange(i == j, 3))
             for i, j in edges}
        del shapes[:]
        got = cayley_offset(x)
        assert got == ref_cayley_offset_rref(x)
        assert list(got) == sorted(got)
        assert [k for k, _ in shapes] == ([len(core)] if core else [])
    loops = [i for i, j in edges if i == j]
    for i in loops:
        x[i, i] = cfg.from_int(2)  # 1 - x_ii/2 = 0
        for f in (cayley_offset, ref_cayley_offset_rref):
            with pytest.raises(SingularError,
                               match="1 - X/2 is not invertible"):
                f(x)
    assert bool(loops) == ("loop" in shape)


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7, 11))
def test_random_support_graphs_match_the_row_reduction(p, ext,
                                                        monkeypatch):
    """Random support graphs whose entries are monomials of valuation 0
    to 2: back substitution, with the row reduction of the vertices on or
    above a cycle, gives the digits (or the exception class) of one row
    reduction of the whole support block, and row-reduces one block with
    a row for each vertex on or above a cycle of two or more vertices.
    With wide entries of valuation -2 to 2 on the same graphs, both raise
    where either does, and raise the same class."""
    cfg = FieldConfig(p, 8, ext)
    rng = random.Random(72)
    shapes = rref_spy(monkeypatch)
    cyclic = 0
    for _ in range(40):
        edges = random_support_graph(rng)
        x = {k: cfg.monomial(rng.randrange(1, p), rng.randrange(3))
             for k in edges}
        del shapes[:]
        got = outcome(cayley_offset, x)
        assert got == outcome(ref_cayley_offset_rref, x)
        if isinstance(got, dict):
            core = cyclic_core(edges)
            assert [k for k, _ in shapes] == ([len(core)] if core else [])
            cyclic += bool(core)
        x = {k: cfg.random(rng, width=rng.choice((1, 3, 8)), vmin=-2, vmax=2)
             for k in edges}
        got, want = (outcome(f, x) for f in
                     (cayley_offset, ref_cayley_offset_rref))
        assert (got if isinstance(got, type) else dict) \
            == (want if isinstance(want, type) else dict)
    assert cyclic >= 10


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: back substitution and the row "
                   "reduction invent different digits")
def test_random_support_graphs_are_right_where_the_row_reduction_is():
    """Random support graphs with wide entries of valuation -2 to 2,
    against the same input lifted to a 40-digit window, at p = 5, 7 and
    11 over all three extensions.  Neither route tracks the digits that a
    cancellation leaves unknown: back substitution cancels in
    x_ij + 1/2 x_ij y_jj where 1 - x_jj/2 has negative valuation, and in
    the right sides of a cyclic core, where the row reduction of the
    whole block pivots on a row of least valuation first; elsewhere the
    row reduction cancels where back substitution does not.  So on some
    draws the first wrong digit of back substitution lies below that of
    the row reduction, and on others above it."""
    better = 0
    for p in (5, 7, 11):
        for ext in ("none", "unramified", "ramified"):
            cfg, big = FieldConfig(p, 8, ext), FieldConfig(p, 40, ext)
            rng = random.Random(73)
            for _ in range(40):
                x = {k: cfg.random(rng, width=rng.choice((1, 3, 8)),
                                   vmin=-2, vmax=2)
                     for k in random_support_graph(rng)}
                if outcome(ref_cayley_offset_rref, x) is SingularError:
                    continue
                truth = ref_cayley_offset_rref(
                    {k: big.from_coeffs(c.val, c.coeffs)
                     for k, c in x.items()})
                truth = EndV.from_entries(big, truth)
                got, want = (EndV.from_entries(cfg, f(x)) for f in
                             (cayley_offset, ref_cayley_offset_rref))
                assert first_wrong(got, truth) >= first_wrong(want, truth)
                better += first_wrong(got, truth) > first_wrong(want, truth)
    assert better


@pytest.mark.parametrize("p, ext", ((5, "none"), (7, "unramified"),
                                    (7, "ramified")))
def test_finite_sum_is_right_where_the_row_reduction_is(p, ext):
    """Random nilpotent inputs with wide entries of valuation -2 to 2,
    against the same input lifted to a 40-digit window.  On an acyclic
    support graph back substitution needs no inverse; it gives the
    finite sum X + X^2/2 + ...  On this sample (seed 71) it is right on
    every digit below the exponent where the row reduction first goes
    wrong, and on some inputs past it.  That holds only on the sample:
    test_acyclic_inputs_where_the_row_reduction_is_more_right pins two
    draws of this generator where it fails."""
    cfg, big = FieldConfig(p, 8, ext), FieldConfig(p, 40, ext)
    rng = random.Random(71)
    better = 0
    for _ in range(60):
        order = rng.sample(range(8), 8)
        x = {}
        for _ in range(rng.randrange(1, 12)):
            a, b = sorted(rng.sample(range(8), 2))
            x[order[a], order[b]] = cfg.random(
                rng, width=rng.choice((1, 3, 8)), vmin=-2, vmax=2)
        if not any(c.coeffs for c in x.values()):
            continue
        truth = cayley_offset({k: big.from_coeffs(c.val, c.coeffs)
                               for k, c in x.items()})
        truth = EndV.from_entries(big, truth)
        got, want = (EndV.from_entries(cfg, f(x)) for f in
                     (cayley_offset, ref_cayley_offset_rref))
        assert first_wrong(got, truth) >= first_wrong(want, truth)
        better += first_wrong(got, truth) > first_wrong(want, truth)
    assert better


# two acyclic draws of the generator of
# test_finite_sum_is_right_where_the_row_reduction_is, as
# {(i, j): (val, coeffs)}: at (5, 8) seed 50, draw 21, and at
# (7, 8, ramified) seed 6, draw 39
ACYCLIC_COUNTEREXAMPLES = (
    (5, "none", {
        (1, 7): (0, (1, 0, 2, 2, 3, 3)), (2, 6): (-2, (1,)),
        (3, 7): (1, (4,)), (4, 2): (-1, (4, 4, 1, 3, 4, 1, 2, 2)),
        (4, 3): (-2, (3, 4, 4, 0, 3, 0, 4, 3)), (5, 7): (2, (4, 2, 3)),
        (6, 1): (2, (3, 3, 2)), (7, 0): (0, (4, 3, 3))}),
    (7, "ramified", {
        (0, 6): (0, (5, 6, 6, 0, 6, 4, 0, 3)), (1, 7): (1, (2,)),
        (2, 7): (1, (6, 2, 4)), (3, 6): (-2, (5,)), (4, 0): (-2, (2,)),
        (4, 1): (1, (5, 3, 5, 1, 1, 3, 3, 1)), (4, 7): (-1, (6, 0, 2)),
        (7, 3): (1, (4, 5, 1, 3, 3, 5))}),
)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4")
@pytest.mark.parametrize("p, ext, entries", ACYCLIC_COUNTEREXAMPLES,
                         ids=("5-none", "7-ramified"))
def test_acyclic_inputs_where_the_row_reduction_is_more_right(p, ext,
                                                              entries):
    """Acyclic inputs on which back substitution, against the same input
    lifted to a 40-digit window, first goes wrong at a lower exponent
    than the row reduction: at 7 and 6 (Scalar.val units), where the row
    reduction is right; it first goes wrong at 8 and 7.  Neither route
    tracks the digits that a cancellation leaves unknown."""
    cfg, big = FieldConfig(p, 8, ext), FieldConfig(p, 40, ext)
    x = {k: cfg.from_coeffs(v, c) for k, (v, c) in entries.items()}
    assert longest_path(x) is not None
    truth = EndV.from_entries(big, cayley_offset(
        {k: big.from_coeffs(c.val, c.coeffs) for k, c in x.items()}))
    got, want = (EndV.from_entries(cfg, f(x)) for f in
                 (cayley_offset, ref_cayley_offset_rref))
    assert first_wrong(got, truth) >= first_wrong(want, truth)


@pytest.mark.parametrize("entries", (
    {(0, 0): 2},                                    # 1 - 2/2 = 0
    {(1, 1): 1, (1, 6): 1, (6, 1): 1, (6, 6): 1},   # rank one block
    {(0, 0): 2, (0, 1): 1},                         # solved, above 1
    {(0, 0): 2, (0, 1): 1, (1, 6): 1, (6, 1): 1},   # above a 2-cycle
), ids=("one-entry", "rank-one-block", "solved-vertex-with-a-successor",
        "vertex-above-a-cycle"))
def test_cayley_offset_rejects_a_singular_one_minus_half_x(entries):
    """Negative control: where 1 - X/2 is singular both input forms raise
    the same SingularError, and so does the row reduction of the whole
    support block.  The zero pivot 1 - x_00/2 falls on a vertex that back
    substitution solves after its successor, and on one above a cyclic
    core, which the row reduction of the core rejects."""
    x = EndV.from_entries(CFG, {k: CFG.from_int(c)
                                for k, c in entries.items()})
    table = {}
    for f in (cayley_offset, ref_cayley_offset_rref,
              functools.partial(cayley_offset, inverses=table)):
        for form in (x, x.entries(), x.entries()):
            with pytest.raises(SingularError,
                               match="1 - X/2 is not invertible"):
                f(form)
    # a shared pivot table keeps no entry for the zero pivot 1 - 2/2, and
    # raises on it every time
    assert (0, CFG.from_int(2).coeffs) not in table


def test_quotient_iso_reports_a_flipped_offset_digit(monkeypatch):
    """A digit of a generator's Cayley offset changed below its A_s bound
    breaks the image test and the homomorphism at that generator.  The
    report is the reference's, which reads the same offset through
    cayley, less the homomorphism failures at mutually annihilating
    pairs: those are decided exactly with no Cayley transform, so a fault
    in the transform cannot reach them."""
    seq, r, s = STD, 1, 2
    gen = lie_generators(seq, r)[5]
    (l, j), c = next(iter(cayley_offset(gen.lie).items()))
    bound = seq.lattice(s).entry_bound(l, j)
    assert c.val < bound
    key = gen.lie.entries()
    original = filtration.cayley_offset

    def flipped(x, *table):
        # the check passes entries and its pivot table; the reference,
        # through cayley, an EndV
        out = original(x, *table)
        if (x.entries() if isinstance(x, EndV) else x) == key:
            out[l, j] = out[l, j] + CFG.monomial(1, c.val)
        return out
    monkeypatch.setattr(filtration, "cayley_offset", flipped)
    rep = quotient_iso_check(seq, r, s)
    assert f"Cayley image mismatch at {gen.name}" in rep["violations"]
    ref = ref_quotient_iso_check(seq, r, s)
    gens = lie_generators(seq, r)
    decided = set()
    for a, b in filtration._annihilating_pairs(
            [g.lie.entries() for g in gens]):
        for ga, gb in ((gens[a], gens[b]), (gens[b], gens[a])):
            decided.add(f"homomorphism failure at {ga.name}, {gb.name}")
    want = [v for v in ref["violations"] if v not in decided]
    assert (len(want), len(ref["violations"])) == (29, 58)
    assert rep == {**ref, "violations": want}


def test_quotient_iso_matches_reference_with_a_corrupted_generator(monkeypatch):
    original = filtration.lie_generators

    def corrupted(seq, r):
        gens = original(seq, r)
        gens[5].lie = gens[5].lie * CFG.t(-1)
        return gens
    monkeypatch.setattr(filtration, "lie_generators", corrupted)
    rep = quotient_iso_check(STD, 1, 2)
    assert rep["violations"]
    assert rep == ref_quotient_iso_check(STD, 1, 2)


def test_quotient_iso_reports_a_wrong_triality_image(monkeypatch):
    """A triality image whose group side is off shows as a congruence
    failure, as the reference reports it."""
    original = GroupTriality._apply_desc

    def skewed(self, word, gen):
        out = original(self, word, gen)
        if word == "rho" and out.kind == "root":
            i, j, lam = out.data
            return type(out).root(i, j, lam * 2)
        return out
    monkeypatch.setattr(GroupTriality, "_apply_desc", skewed)
    seq = thirds_seq()
    rep = quotient_iso_check(seq, 2, 3)
    assert any(v.startswith("triality congruence failure")
               for v in rep["violations"])
    assert rep == ref_quotient_iso_check(seq, 2, 3)


# -- the group side on offsets and weights ---------------------------------

EXTENSION_CONFIGS = ((5, "none"), (7, "none"), (11, "none"),
                     (5, "unramified"), (5, "ramified"),
                     (7, "unramified"), (7, "ramified"))


def reached_generators(cfg):
    """The generators of A_1 and A_2 on both benchmark sequences: those
    whose descriptors quotient_iso_check reaches at every level."""
    return [g for seq in benchmark_sequences(cfg) for r in (1, 2)
            for g in lie_generators(seq, r)]


@pytest.mark.parametrize("p, ext", EXTENSION_CONFIGS)
def test_group_descriptors_match_the_parent_routes(p, ext):
    """Every descriptor the check reaches, all six words of every
    generator: the descriptor, its matrix and its offset are the
    parent's digit for digit, and the offset in the parent's key order."""
    cfg = FieldConfig(p, 8, ext)
    new, ref = GroupTriality(cfg), RefGroupTriality(cfg)
    tori = 0
    for g in reached_generators(cfg):
        for word in LieTrialityGroup.WORDS:
            got = new._apply_desc(word, g.group)
            want = ref._apply_desc(word, g.group)
            assert (got.kind, got.data) == (want.kind, want.data)
            assert got.matrix(cfg).rows == ref_group_matrix(cfg, want).rows
            off, ref_off = got.offset(cfg), ref_group_offset(cfg, want)
            assert off == ref_off
            assert list(off) == list(ref_off)
            tori += got.kind == "torus"
    assert tori == 2 * 2 * 4 * 6


@pytest.mark.parametrize("p, ext", EXTENSION_CONFIGS)
def test_kept_images_match_a_fresh_instance(p, ext):
    """A GroupTriality and a RefGroupTriality that have applied every word
    to every reached generator once, and so keep their letter images, give
    the descriptor of a fresh instance of their class for every word, the
    second time as the first."""
    cfg = FieldConfig(p, 8, ext)
    gens = reached_generators(cfg)
    for cls in (GroupTriality, RefGroupTriality):
        kept = cls(cfg)
        for _ in range(2):
            for g in gens:
                for word in LieTrialityGroup.WORDS:
                    got = kept._apply_desc(word, g.group)
                    want = cls(cfg)._apply_desc(word, g.group)
                    assert (got.kind, got.data) == (want.kind, want.data)


def test_a_new_group_triality_forms_its_images_again(monkeypatch):
    """An instance forms the image of a descriptor under a letter once, a
    torus image's square root included; a second instance forms them all
    again, as many as the first did: the images live with the instance."""
    calls = Counter()
    for name in ("_t2", "_hat"):
        original = getattr(GroupTriality, name)

        def counted(self, gen, original=original, name=name):
            calls[name] = calls[name] + 1
            return original(self, gen)
        monkeypatch.setattr(GroupTriality, name, counted)
    sqrt = Scalar.sqrt_one_unit
    monkeypatch.setattr(Scalar, "sqrt_one_unit", lambda self: calls.update(
        ["sqrt"]) or sqrt(self))
    gens = [g.group for g in reached_generators(CFG)]

    def apply_all(gamma):
        before = Counter(calls)
        for gen in gens:
            for word in LieTrialityGroup.WORDS:
                gamma._apply_desc(word, gen)
        return calls - before
    first = GroupTriality(CFG)
    formed = apply_all(first)
    # every letter of every word on every generator, formed each time
    letters = sum(map(len, _LETTERS.values())) * len(gens)
    assert 0 < formed["sqrt"] < formed["_t2"] < letters
    assert apply_all(first) == Counter()
    assert apply_all(GroupTriality(CFG)) == formed


def inversions(monkeypatch):
    """The scalars that Scalar.inv is asked to invert, in call order."""
    seen = []
    original = Scalar.inv
    monkeypatch.setattr(Scalar, "inv",
                        lambda self: seen.append(self) or original(self))
    return seen


@pytest.mark.parametrize("p, ext", EXTENSION_CONFIGS)
def test_cayley_offset_inverts_each_distinct_pivot_once(p, ext, monkeypatch):
    """The torus generators of A_1 and A_2 and their sums with every
    generator, all solved by back substitution: with one pivot table
    shared across the calls the offsets are those of separate calls,
    digit for digit and in key order, the table holds one inverse per
    distinct diagonal entry, and only those are inverted; separate calls
    invert each distinct pivot of their own input (a sum of two tori holds
    x_ii = lam at two vertices)."""
    cfg = FieldConfig(p, 8, ext)
    xs = []
    for seq in benchmark_sequences(cfg):
        for r in (1, 2):
            lies = [g.lie.entries() for g in lie_generators(seq, r)]
            xs += lies[:4] + [filtration._sparse_sum(t, x)
                              for t in lies[:4] for x in lies]
    want = [cayley_offset(x) for x in xs]
    diagonal = [c for x in xs for (i, j), c in x.items()
                if i == j and c.coeffs]
    seen = inversions(monkeypatch)
    table = {}
    got = [cayley_offset(x, table) for x in xs]
    assert got == want
    assert [list(y) for y in got] == [list(y) for y in want]
    pivots = {(c.val, c.coeffs) for c in diagonal}
    assert set(table) == pivots and len(seen) == len(pivots)
    assert all(f == (cfg.one() - cfg.half * c).inv()
               for c in diagonal for f in [table[c.val, c.coeffs]])
    del seen[:]
    for x in xs:
        cayley_offset(x)
    per_call = sum(len({(c.val, c.coeffs) for (i, j), c in x.items()
                        if i == j and c.coeffs}) for x in xs)
    assert len(seen) == per_call > 10 * len(pivots)


@pytest.mark.parametrize("p", (5, 7))
def test_two_checks_in_a_row_make_the_same_inversions(p, monkeypatch):
    """quotient_iso_check keeps its pivot table and its GroupTriality for
    the call: a second check at the same level inverts the same scalars,
    as many as the first, among them each distinct pivot 1 - x_ii/2 of
    the generators.  The triality tables and their rationals as scalars,
    which stay for the process, are formed before the count."""
    cfg = FieldConfig(p, 8)
    tables = triality._lie_tables()
    for table in (*tables.words.values(), tables.average):
        for col in table:
            for q in col.values():
                triality._scalar(cfg, q)
    seen = inversions(monkeypatch)
    for seq in benchmark_sequences(cfg):
        for r, s in LEVELS:
            pivots = {cfg.one() - cfg.half * c
                      for g in lie_generators(seq, r)
                      for (i, j), c in g.lie.entries().items() if i == j}
            del seen[:]
            quotient_iso_check(seq, r, s)
            first = list(seen)
            del seen[:]
            quotient_iso_check(seq, r, s)
            assert seen == first and len(first) > 28
            assert len(pivots) == 2 and pivots <= set(first)


def module_state():
    """The length of every dict, list and set, and the size of every
    lru_cache, held at the top level of filtration, triality and scalars
    or by a class they define."""
    from g2kit import scalars
    out = {}
    for mod in (filtration, triality, scalars):
        spaces = [(mod.__name__, vars(mod))]
        spaces += [(f"{mod.__name__}.{name}", vars(v))
                   for name, v in vars(mod).items()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        for where, space in spaces:
            for name, v in space.items():
                if isinstance(v, (dict, list, set)):
                    out[where, name] = len(v)
                elif hasattr(v, "cache_info"):
                    out[where, name] = v.cache_info().currsize
    return out


def test_no_module_state_grows_across_calls():
    """The benchmark's filtration calls on the standard sequence at levels
    (1, 1) and (1, 2), then on the thirds sequence at (2, 3) and (2, 4),
    with new generators, pivots and descriptors: the second round leaves
    every module-level and class-level container of filtration, triality
    and scalars at the size the first left it.  The calls are the checks,
    psi_b's equivariance through GroupTriality.apply, and orbit_entries."""
    def one_round(seq, r, levels):
        for s in levels:
            quotient_iso_check(seq, r, s)
        gens = lie_generators(seq, r)
        lie_gamma, grp_gamma = LieTrialityGroup(), GroupTriality(CFG)
        b = d_torus_lie(CFG, 1, CFG.one())
        for word in LieTrialityGroup.WORDS:
            for g in gens:
                psi_b(seq, 2, b, grp_gamma.apply(word, g.group), 1)
                lie_gamma.orbit_entries(g.lie)
    std, thirds = benchmark_sequences(CFG)
    one_round(std, 1, (1, 2))
    before = module_state()
    assert len(before) > 5
    one_round(thirds, 2, (3, 4))
    assert module_state() == before


def random_generators(cfg, rng):
    """Root descriptors on every root pair and torus descriptors with
    random 1-unit weights, some of them exactly one."""
    labels = (-4, -1, -2, -3, 3, 2, 1, 4)
    gens = [GroupGenerator.root(i, j, cfg.random(rng, width=2, vmin=1,
                                                 vmax=3))
            for i in labels for j in labels if i != j and i != -j]
    for _ in range(20):
        w = [cfg.one() if rng.random() < 0.3 else
             cfg.one() + cfg.random(rng, width=3, vmin=1, vmax=2)
             for _ in range(4)]
        gens.append(GroupGenerator.torus(*w))
    return gens


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_random_group_descriptors_match_the_parent_routes(p):
    """Root and torus descriptors the check does not reach: the offset
    (digits and key order), the torus matrix and the torus hat are the
    parent's."""
    cfg = FieldConfig(p, 8)
    new, ref = GroupTriality(cfg), RefGroupTriality(cfg)
    for gen in random_generators(cfg, random.Random(120 + p)):
        off, want = gen.offset(cfg), ref_group_offset(cfg, gen)
        assert off == want and list(off) == list(want)
        assert gen.matrix(cfg).rows == ref_group_matrix(cfg, gen).rows
        got, want = new._hat(gen), ref._hat(gen)
        assert (got.kind, got.data) == (want.kind, want.data)


@pytest.mark.parametrize("p, ext", EXTENSION_CONFIGS)
def test_orbit_entries_match_the_dense_orbit(p, ext):
    """The generators, the quotient basis lifts and the fixed-space lifts
    of the check: each image of orbit_entries is apply(w, x).entries(),
    digit for digit and in key order."""
    cfg = FieldConfig(p, 8, ext)
    gamma = LieTrialityGroup()
    xs = [g.lie for g in reached_generators(cfg)]
    for seq in benchmark_sequences(cfg):
        for r, s in LEVELS:
            basis, fixed, _, _, _ = ref_fixed_space(seq, r, s)
            xs += [ref_lift(cfg, [(kv, 1)]) for kv in basis]
            xs += [ref_lift(cfg, zip(basis, v)) for v in fixed]
    for x in xs:
        got = gamma.orbit_entries(x)
        want = [(w, gamma.apply(w, x).entries()) for w in gamma.WORDS]
        assert got == want
        assert [list(e) for _, e in got] == [list(e) for _, e in want]


def test_the_group_side_forms_no_inverse_and_no_difference(monkeypatch):
    """The check and psi_b on generator matrices make no linalg.inv (the
    3 x 3 inverse of a torus), no EndV.from_action and no 8 x 8
    difference: generators give g - 1, torus weights are read, and the
    triality images come as entries."""
    def forbidden(*args):
        raise AssertionError("dense route taken")
    monkeypatch.setattr(EndV, "from_action", forbidden)
    monkeypatch.setattr(EndV, "__sub__", forbidden)
    import g2kit.triality as triality_mod
    monkeypatch.setattr(triality_mod, "inv", forbidden)
    assert quotient_iso_check(thirds_seq(), 1, 2)["violations"] == []
    b = d_torus_lie(CFG, 1, CFG.t(-1))
    values = {psi_b(STD, 2, b, g.group.matrix(CFG), 1)
              for g in lie_generators(STD, 1)}
    assert values <= set(range(CFG.p)) and len(values) > 1


def test_quotient_iso_reports_a_changed_torus_weight(monkeypatch):
    """Negative control for the diagonal branch of the exact image test:
    the weight m_1 of D_1's group descriptor changed at t^(N-1), the last
    digit of the window, is a Cayley image mismatch at D_1, as the
    reference reports it."""
    original = filtration.lie_generators
    n = CFG.precision

    def changed(seq, r):
        gens = original(seq, r)
        u, m1, m2, m3 = gens[0].group.data
        gens[0].group = GroupGenerator.torus(u, m1 + CFG.t(n - 1), m2, m3)
        return gens
    monkeypatch.setattr(filtration, "lie_generators", changed)
    for seq, r, s in ((STD, 1, 2), (thirds_seq(), 2, 3)):
        rep = quotient_iso_check(seq, r, s)
        name = original(seq, r)[0].name
        assert name.startswith("D_1(")
        assert rep["violations"] == [f"Cayley image mismatch at {name}"]
        assert rep == ref_quotient_iso_check(seq, r, s)


def test_quotient_iso_reports_a_wrong_torus_triality_image(monkeypatch):
    """A torus descriptor out of _apply_desc whose weight m_1 is off
    shows as a congruence failure, as the reference reports it."""
    original = GroupTriality._apply_desc

    def skewed(self, word, gen):
        out = original(self, word, gen)
        if word == "rho" and out.kind == "torus":
            u, m1, m2, m3 = out.data
            return GroupGenerator.torus(u, m1 * 2, m2, m3)
        return out
    monkeypatch.setattr(GroupTriality, "_apply_desc", skewed)
    seq = thirds_seq()
    rep = quotient_iso_check(seq, 2, 3)
    assert rep["violations"] == [
        f"triality congruence failure at {g.name}, rho"
        for g in lie_generators(seq, 2)[:4]]
    assert rep == ref_quotient_iso_check(seq, 2, 3)


def test_a_torus_offset_holds_a_digit_past_the_window():
    """Item 11's window caveat: a torus generator's Cayley offset holds a
    digit at t^N, which 1 + offset cannot, so offsets compared as they are
    would differ; compared through 1 + entry on the diagonal they agree,
    and the check reports no mismatch."""
    n = CFG.precision
    gen = lie_generators(STD, 1)[0]
    cx = cayley_offset(gen.lie)
    off = gen.group.offset(CFG)
    assert any(i == j and c.val + len(c.coeffs) - 1 >= n
               for (i, j), c in cx.items())
    assert cx != off
    assert filtration._same_image(cx, off, CFG)
    assert not any(v.startswith("Cayley image mismatch")
                   for v in quotient_iso_check(STD, 1, 2)["violations"])


def random_endv(rng, cfg, vmin, vmax, width):
    return EndV(cfg, [[cfg.random(rng, width=width, vmin=vmin, vmax=vmax)
                       for _ in range(8)] for _ in range(8)])


def congruence_pairs(rng, cfg, lat):
    """(g, h) pairs around the entry bounds of lat: equal matrices, one
    entry moved by a term of valuation near its bound, one entry with the
    same coefficients at another valuation, and unrelated matrices."""
    out = []
    for _ in range(12):
        g = random_endv(rng, cfg, -1, 2, rng.choice((1, 2, 8)))
        rows = [list(row) for row in g.rows]
        out.append((g, EndV(cfg, rows)))
        l, j = rng.randrange(8), rng.randrange(8)
        k = lat.entry_bound(l, j) + rng.choice((-1, 0, 1))
        moved = [list(row) for row in rows]
        moved[l][j] = moved[l][j] + cfg.monomial(rng.randrange(1, cfg.p), k)
        out.append((g, EndV(cfg, moved)))
        shifted = [list(row) for row in rows]
        c = shifted[l][j]
        if not c.is_zero:
            shifted[l][j] = Scalar(cfg, c.val + rng.choice((-1, 1)), c.coeffs)
            out.append((g, EndV(cfg, shifted)))
        out.append((g, random_endv(rng, cfg, 0, 3, 2)))
    return out


def lattices():
    std, thirds = benchmark_sequences(CFG)
    skew = skew_seq()
    assert not skew.lattice(1)._std
    return [seq.lattice(k) for seq in (std, thirds, skew) for k in (-1, 1, 2)]


def test_entrywise_congruence_matches_the_difference():
    rng = random.Random(65)
    verdicts = set()
    for lat in lattices():
        for g, h in congruence_pairs(rng, CFG, lat):
            want = ref_contains(lat, g - h)
            assert lat.contains_difference(g.entries(), h.entries()) == want
            assert lat.contains(g - h) == want
            verdicts.add((lat._std, want))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_quotient_congruences_match_the_difference():
    rng = random.Random(66)
    seen = set()
    for seq in (STD, thirds_seq(), skew_seq()):
        for r, s in LEVELS:
            q = FiltrationQuotient(seq, r, s)
            for g, h in congruence_pairs(rng, CFG, q.lat_s):
                want = ref_congruent_group(q, g, h)
                assert q.congruent(offset(g), offset(h)) == want
                assert (q.congruent(g.entries(), h.entries())
                        == ref_congruent_lie(q, g, h))
                seen.add(want)
    assert seen == {True, False}


def group_elements(rng, cfg, lat):
    """1 + y for y around the entry bounds of lat: most lie in the group
    piece, some miss it by one entry, some have exact ones on the
    diagonal."""
    out = []
    for _ in range(10):
        rows = [[cfg.random(rng, width=rng.choice((1, 3)),
                            vmin=lat.entry_bound(l, j),
                            vmax=lat.entry_bound(l, j) + 2)
                 for j in range(8)] for l in range(8)]
        for i in range(rng.randrange(4)):
            rows[i][i] = cfg.zero()
        l, j = rng.randrange(8), rng.randrange(8)
        off = [list(row) for row in rows]
        off[l][j] = cfg.monomial(1, lat.entry_bound(l, j) - 1)
        for y in (rows, off):
            out.append(EndV.identity(cfg) + EndV(cfg, y))
    return out


def test_entrywise_group_membership_matches_the_difference():
    rng = random.Random(67)
    verdicts = set()
    for lat in lattices():
        if lat.k < 1:
            continue
        for g in group_elements(rng, CFG, lat) + [EndV.identity(CFG)]:
            want = ref_contains_group(lat, g)
            assert lat.offset_columns(g)[0] == want
            verdicts.add((lat._std, want))
        assert not lat.offset_columns(EndV.identity(CFG) * CFG.from_int(2))[0]
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_entrywise_decisions_raise_where_the_difference_raises():
    """The entries are walked on after a failing entry too, so an entry
    over another field config after it raises the ConfigMismatchError
    that forming the full difference raises."""
    foreign = FieldConfig(7, 8)
    for lat in (STD.lattice(1), skew_seq().lattice(1)):
        one = EndV.identity(CFG)
        bad = [list(row) for row in one.rows]
        bad[0][1] = CFG.t(-3)          # fails the bound first
        failing = EndV(CFG, bad)
        bad[7][7] = foreign.one() + foreign.t()  # then raises on subtraction
        g = EndV(CFG, bad)
        assert outcome(ref_contains_group, lat, failing) is False
        assert outcome(lat.offset_columns, failing)[0] is False
        assert outcome(ref_contains_group, lat, g) is ConfigMismatchError
        assert outcome(lat.offset_columns, g) is ConfigMismatchError
        assert outcome(lambda: ref_contains(lat, g - one)) is ConfigMismatchError
        # the entries given sparse, as cayley_offset gives them
        fs, gs, ones = failing.entries(), g.entries(), one.entries()
        assert outcome(lat.contains_difference, fs, ones) is False
        assert outcome(lat.contains_difference, ones, fs) is False
        assert outcome(lat.contains_difference, gs, ones) is ConfigMismatchError
        assert outcome(lat.contains_difference, ones, gs) is ConfigMismatchError
        # equal entries are skipped: their difference is an exact zero
        assert outcome(ref_contains, lat, failing - failing) is True
        assert outcome(lat.contains_difference, fs, fs) is True


def test_entries_at_or_above_their_bounds_are_not_subtracted(monkeypatch):
    """Over the standard basis an entry whose two sides both lie at or
    above its bound is accepted with no subtraction: a spy on
    Scalar.__sub__ sees no call for such pairs, full-window and unequal,
    and the verdict is the difference's.  An entry below its bound on
    either side is still formed."""
    rng = random.Random(75)
    pairs = []
    for lat in (STD.lattice(1), STD.lattice(2), thirds_seq().lattice(2)):
        assert lat._std
        for _ in range(10):
            keys = rng.sample([(l, j) for l in range(8) for j in range(8)],
                              rng.randrange(1, 12))
            xs, ys = ({k: CFG.random(rng, width=rng.choice((1, 8)),
                                     vmin=lat._val_bounds[k[0]][k[1]],
                                     vmax=lat._val_bounds[k[0]][k[1]] + 2,
                                     nonzero=True) for k in keys}
                      for _ in range(2))
            pairs.append((lat, xs, ys, True))
            (l, j), c = next(iter(xs.items()))
            v = lat._val_bounds[l][j] - 1
            below = {**ys, (l, j): Scalar(CFG, v, c.coeffs)}
            pairs.append((lat, xs, below, False))
    wants = [ref_contains(lat, EndV.from_entries(CFG, xs)
                          - EndV.from_entries(CFG, ys))
             for lat, xs, ys, _ in pairs]
    assert wants == [inside for *_, inside in pairs]
    calls = []
    original = Scalar.__sub__
    monkeypatch.setattr(Scalar, "__sub__",
                        lambda a, b: calls.append((a, b)) or original(a, b))
    for (lat, xs, ys, inside), want in zip(pairs, wants):
        del calls[:]
        assert lat.contains_difference(xs, ys) is want
        assert bool(calls) is not inside


@pytest.mark.parametrize("p, q", ((5, 7), (7, 11)))
def test_lattice_membership_refuses_another_field(p, q):
    """Over a p-lattice, on either basis, an input over F_q((t)) raises
    ConfigMismatchError on every membership route, whatever its
    valuations: contains, contains_difference on either side (equal
    entries too), offset_columns, FiltrationQuotient.congruent, and psi_b
    with a foreign b inside or outside A_{1-s}."""
    cfg, other = FieldConfig(p, 8), FieldConfig(q, 8)
    own = u_root_lie(cfg, 1, 2, cfg.t(3)).entries()
    for seq in (lattice_seq_from_norm(standard_norm(cfg)), skew_seq(cfg)):
        lat, quot = seq.lattice(1), FiltrationQuotient(seq, 1, 2)
        for v in (0, 3):  # outside and inside A_1
            z = u_root_lie(other, 1, 2, other.t(v))
            zs = z.entries()
            for f, *args in ((lat.contains, z),
                             (lat.contains_difference, zs, {}),
                             (lat.contains_difference, own, zs),
                             (lat.contains_difference, zs, zs),
                             (lat.offset_columns, cayley(z)),
                             (quot.congruent, zs, own)):
                assert outcome(f, *args) is ConfigMismatchError, f
        g = cayley(d_torus_lie(cfg, 1, cfg.t()))
        for v in (-3, -1):  # outside and inside A_{-1}
            b = d_torus_lie(other, 1, other.t(v))
            assert outcome(psi_b, seq, 2, b, g, 1) is ConfigMismatchError


def test_an_equal_config_built_separately_keeps_the_entry_route(monkeypatch):
    """Entries over a FieldConfig equal to the lattice's but built apart
    are decided entry by entry, with the verdicts of the difference."""
    twin = FieldConfig(CFG.p, CFG.precision)
    assert twin is not CFG and twin == CFG
    lat = STD.lattice(1)
    mine = u_root_lie(CFG, 1, 2, CFG.t())
    xs = [u_root_lie(twin, 1, 2, twin.t(k)) for k in (0, 1, 2)]
    want = [ref_contains(lat, x - mine) for x in xs]
    assert want == [False, True, True]
    pairs = [(x.entries(), mine.entries()) for x in xs]

    def forbidden(*args):
        raise AssertionError("dense route taken")
    monkeypatch.setattr(EndV, "from_entries", forbidden)
    assert [lat.contains_difference(x, y) for x, y in pairs] == want
    assert [lat.contains(x) for x in xs] == [False, True, True]


def test_psi_b_matches_reference_on_generator_images():
    r, s = 1, 2
    bs = [EndV.zero(CFG), d_torus_lie(CFG, 1, CFG.t(-1)),
          d_torus_lie(CFG, 1, CFG.t(-1)) + u_root_lie(CFG, 1, 2, CFG.t(-1)),
          u_root_lie(CFG, -1, -3, CFG.t(-1)), d_torus_lie(CFG, 1, CFG.t(-3))]
    values = set()
    for seq in (STD, thirds_seq()):
        gens = lie_generators(seq, r)
        xs = [cayley(g.lie) for g in gens] + [g.group.matrix(CFG) for g in gens]
        xs += [xs[0] * xs[5], xs[3] * xs[7] * xs[12]]
        for b in bs:
            for x in xs:
                want = outcome(ref_psi_b, seq, s, b, x, r)
                assert outcome(psi_b, seq, s, b, x, r) == want
                values.add(want)
    assert MembershipError in values
    assert len(values - {MembershipError}) > 1


def test_psi_b_matches_reference_on_random_elements():
    """Dense b in A_{1-s} and dense x in P^r, and x just outside P^r."""
    rng = random.Random(68)
    values = set()
    for seq in (STD, thirds_seq(), skew_seq()):
        for r, s in ((1, 2), (2, 3)):
            lat_b = seq.lattice(1 - s)
            for x in group_elements(rng, CFG, seq.lattice(r)):
                b = EndV(CFG, [[CFG.random(rng, width=rng.choice((1, 4)),
                                           vmin=lat_b.entry_bound(l, j),
                                           vmax=lat_b.entry_bound(l, j) + 1)
                                for j in range(8)] for l in range(8)])
                want = outcome(ref_psi_b, seq, s, b, x, r)
                assert outcome(psi_b, seq, s, b, x, r) == want
                values.add(want)
    assert MembershipError in values
    assert len(values - {MembershipError}) > 1


def benchmark_psi_inputs(cfg, seq, seed):
    """The (b, x) pairs of the cayley-quotients benchmark's psi_b items at
    (r, s) = (1, 2): zero b and b = D_1(t^-1) + U_1,2(t^-1) on the Cayley
    images and on 100 seeded products of two; three b and their triality
    images on the group generators and their triality images; and the
    b of valuation -1 on the generators."""
    gens = lie_generators(seq, 1)
    rng = random.Random(seed)
    pairs = [(rng.randrange(len(gens)), rng.randrange(len(gens)))
             for _ in range(100)]
    xs = [cayley(g.lie) for g in gens]
    hom_b = d_torus_lie(cfg, 1, cfg.t(-1)) + u_root_lie(cfg, 1, 2, cfg.t(-1))
    out = [(EndV.zero(cfg), x) for x in xs]
    for i, j in pairs:
        out += [(hom_b, xs[i] * xs[j]), (hom_b, xs[i]), (hom_b, xs[j])]
    lie_gamma, grp_gamma = LieTrialityGroup(), GroupTriality(cfg)
    for b in (d_torus_lie(cfg, 1, cfg.t(-1)),
              u_root_lie(cfg, -1, -3, cfg.t(-1)),
              u_root_lie(cfg, 1, -2, cfg.t(-1))):
        for word in LieTrialityGroup.WORDS:
            winv = grp_gamma.inverse_word(word)
            for g in gens:
                out.append((lie_gamma.apply(word, b), g.group.matrix(cfg)))
                out.append((b, grp_gamma.apply(winv, g.group)))
    for c in range(1, cfg.p):
        lam = cfg.monomial(c, -1)
        for b in (d_torus_lie(cfg, 1, lam), u_root_lie(cfg, 1, 2, lam),
                  u_root_lie(cfg, 2, -4, lam)):
            out += [(b, g.group.matrix(cfg)) for g in gens]
    return out


@pytest.mark.parametrize("seed", (1, 2))
def test_psi_b_matches_reference_on_the_benchmark_inputs(seed):
    """The one pass over x gives the dense route's value on every psi_b
    call of a benchmark pass."""
    seq = STD
    assert seq.lattice(1)._std
    values = Counter()
    for b, x in benchmark_psi_inputs(CFG, seq, seed):
        want = outcome(ref_psi_b, seq, 2, b, x, 1)
        assert outcome(psi_b, seq, 2, b, x, 1) == want
        values[want] += 1
    assert len(values) == CFG.p and MembershipError not in values


def raised(f, *args):
    """f's value, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def test_psi_b_one_pass_raises_as_the_dense_route():
    """On the thirds sequence (standard basis, one pass) and on the skew
    one (dense route): the same MembershipErrors, b before x, and a
    ConfigMismatchError from forming x - 1 on the diagonal raised after
    an entry of x - 1 has already failed its bound, as forming the whole
    difference raises it; an x over another field raises the
    ConfigMismatchError that forming x - 1 raises."""
    r, s = 1, 2
    for seq, one_pass in ((thirds_seq(), True), (skew_seq(), False)):
        assert seq.lattice(r)._std == one_pass
        bound = seq.lattice(1 - s).entry_bound(0, 0)
        good_b = d_torus_lie(CFG, 1, CFG.t(bound))
        bad_b = d_torus_lie(CFG, 1, CFG.t(bound - 1))
        lat = seq.lattice(r)
        # U_{-4,-2} at its bound on the splitting basis: in P^r on both
        good_x = cayley(u_root_lie(CFG, -4, -2, CFG.t(
            lat.entry_bound(IDX[2], IDX[-4]))))
        y = EndV.zero(CFG).rows
        y[0][1] = CFG.t(lat.entry_bound(0, 1) - 1)  # fails its bound
        if not one_pass:  # the matrix with coordinates y on the basis
            y = linalg.mat_mul(lat._b, linalg.mat_mul(y, lat._binv))
        bad_x = ONE + EndV(CFG, y)
        foreign = FieldConfig(7, 8)
        bad = [list(row) for row in bad_x.rows]
        bad[7][7] = foreign.one() + foreign.t()  # then raises on subtraction
        mixed_x = EndV(CFG, bad)
        foreign_x = cayley(u_root_lie(foreign, 1, 2, foreign.t(3)))
        seen = set()
        for b in (good_b, bad_b):
            for x in (good_x, bad_x, mixed_x, foreign_x):
                want = raised(ref_psi_b, seq, s, b, x, r)
                assert raised(psi_b, seq, s, b, x, r) == want
                seen.add(want if isinstance(want, tuple) else int)
        assert seen == {int, (MembershipError, "b must lie in A_{1-s}"),
                        (MembershipError, "x must lie in P^r"),
                        raised(lambda: mixed_x - ONE),
                        raised(lambda: foreign_x - ONE)}
        assert raised(lambda: mixed_x - ONE) == raised(lambda: foreign_x - ONE)


def test_trace_triality_invariance_matches_the_word_loop():
    rng = random.Random(69)
    gamma = LieTrialityGroup()
    from g2kit.endo import random_so
    for _ in range(6):
        x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        y = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        target = trace(x * y)
        want = all(trace(gamma.apply(w, x) * gamma.apply(w, y)) == target
                   for w in LieTrialityGroup.WORDS)
        assert trace_triality_invariance(x, y) == want


# -- the quotient basis and part (c) of the quotient check -----------------

def ref_lie_generators(seq, r):
    """(name, lie, descriptor) of each generator of A_r, built from the
    entry bounds on the standard matrix coordinates."""
    cfg, fl, one = seq.cfg, seq.lattice(r), seq.cfg.one()
    out = []
    for i in (1, 2, 3, 4):
        b = fl.entry_bound(IDX[i], IDX[i])
        mu = cayley_scalar(cfg.t(b))
        ms = [mu if i == k else one for k in (1, 2, 3)]
        out.append((f"D_{i}(t^{b})", d_torus_lie(cfg, i, cfg.t(b)),
                    GroupGenerator.torus(mu if i == 4 else one, *ms)))
    for i, j in SO_LABELS[4:]:
        b = fl.entry_bound(IDX[-j], IDX[i])
        out.append((f"U_{i},{j}(t^{b})", u_root_lie(cfg, i, j, cfg.t(b)),
                    GroupGenerator.root(i, j, cfg.t(b))))
    return out


def ref_entry_count(seq, r, s):
    """The count of A_r/A_s from the entry bounds in t units."""
    lo, hi = seq.lattice(r), seq.lattice(s)
    return sum(hi.entry_bound(*place) - lo.entry_bound(*place)
               for place, _ in SO_PLACES)


QUOTIENT_LEVELS = LEVELS + ((-1, 0), (-3, -1), (0, 3), (-2, 2))


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_quotient_basis_reads_the_entry_bounds(p, ext):
    """On the three sequences, the skew one too, and on levels outside
    1 <= r <= s <= 2r: FiltrationQuotient.basis is the pairs of the
    entry bounds in val units, character_counts is the lengths of two
    bases, which is e times the entry-bound count in t units; r > s is
    refused."""
    cfg = FieldConfig(p, 8, ext)
    for seq in benchmark_sequences(cfg) + (skew_seq(cfg),):
        for r, s in QUOTIENT_LEVELS:
            basis = FiltrationQuotient(seq, r, s).basis
            assert basis == ref_quotient_basis(seq, r, s)
            assert len(basis) == cfg.e * ref_entry_count(seq, r, s)
        for r, s in ((1, 2), (2, 3), (2, 4)):
            counts = character_counts(seq, r, s)
            assert counts == (len(ref_quotient_basis(seq, 1 - s, 1 - r)),
                              len(ref_quotient_basis(seq, r, s)))
            assert counts[0] == counts[1]
        with pytest.raises(DomainError):
            FiltrationQuotient(seq, 2, 1)
    std, thirds = benchmark_sequences(cfg)
    assert character_counts(std, 1, 2) == (28 * cfg.e, 28 * cfg.e)
    assert character_counts(thirds, 2, 4) == (19 * cfg.e, 19 * cfg.e)


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_lift_of_a_basis_pair_is_the_dense_element(p, ext):
    """FiltrationQuotient.lift of one basis pair (k, v) is u^v e_k formed
    dense (ref_lift), on both benchmark sequences at every level,
    negative ones included; so is the lift of a vector with every
    coordinate nonzero, whose terms share a coordinate k where the
    quotient has more than one digit."""
    cfg = FieldConfig(p, 8, ext)
    for seq in benchmark_sequences(cfg):
        for r, s in QUOTIENT_LEVELS:
            q = FiltrationQuotient(seq, r, s)
            for kv in q.basis:
                assert q.lift([(kv, 1)]) == ref_lift(cfg, [(kv, 1)])
            vector = [1 + n % (p - 1) for n in range(len(q.basis))]
            assert q.lift(zip(q.basis, vector)) \
                == ref_lift(cfg, zip(q.basis, vector))


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_lie_generators_take_the_lowest_basis_exponent(p, ext):
    """Names, Lie elements and group descriptors are those built from
    the entry bounds, on both benchmark sequences at r = 1, 2, 3."""
    cfg = FieldConfig(p, 8, ext)
    for seq in benchmark_sequences(cfg):
        for r in (1, 2, 3):
            got = lie_generators(seq, r)
            want = ref_lie_generators(seq, r)
            assert [g.name for g in got] == [w[0] for w in want]
            assert [g.lie for g in got] == [w[1] for w in want]
            assert ([(g.group.kind, g.group.data) for g in got]
                    == [(w[2].kind, w[2].data) for w in want])


# (standard, thirds) fixed-space dimensions at LEVELS in t units
FIXED_DIMS = ((0, 14, 14, 28), (0, 3, 3, 11))


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7))
def test_fixed_space_matches_the_dense_images(p, ext):
    """FiltrationQuotient.action of sigma, rho and the average, from the
    int tables, is the matrix of the dense images column by column, so
    the int-table fixed space is the dense one: the same kernel vectors,
    the same rank of the average and no moved word, with the pinned
    dimensions (doubled over the ramified field, whose digits are in 1/2
    units)."""
    cfg = FieldConfig(p, 8, ext)
    tables = triality._lie_tables()
    tables = {"sigma": tables.words["sigma"], "rho": tables.words["rho"],
              "average": tables.average}
    field = PrimeField(p)
    for seq, dims in zip(benchmark_sequences(cfg), FIXED_DIMS):
        got_dims = []
        for r, s in LEVELS:
            basis, fixed, rank, moved, mats = ref_fixed_space(seq, r, s)
            q = FiltrationQuotient(seq, r, s)
            assert q.basis == basis
            got = {name: q.action(table) for name, table in tables.items()}
            for name, mat in mats.items():
                for n, kv in enumerate(basis):
                    assert ([row[n] for row in got[name]]
                            == [row[n] for row in mat]), (name, kv)
            if basis:
                shifted = [[(c - (a == n)) % p for n, c in enumerate(row)]
                           for word in ("sigma", "rho")
                           for a, row in enumerate(got[word])]
                assert kernel(shifted, field) == fixed
                assert Subspace(field, len(basis), got["average"]).dim \
                    == rank
            assert moved == [] and rank == len(fixed)
            got_dims.append(len(fixed))
        assert tuple(got_dims) == tuple(cfg.e * d for d in dims)


@pytest.mark.parametrize("p", (5, 7))
def test_a_skew_splitting_basis_is_refused(p):
    """lie_generators builds u^v e_k as a matrix: over the skew basis
    (e_1 + e_2, e_2, e_3, ...) the bounds of the splitting basis make 7 of
    the 28 generators of A_1 and 6 of A_2 miss their lattice, and the
    check reported spurious homomorphism failures.  The lift refuses that
    basis, so the generators and the check raise; the basis and its
    counts, which form no matrix, are still read."""
    cfg = FieldConfig(p, 8)
    skew = skew_seq(cfg)
    for r, missing in ((1, 7), (2, 6)):
        lat = skew.lattice(r)
        assert sum(not lat.contains(x) for _, x, _ in
                   ref_lie_generators(skew, r)) == missing
        with pytest.raises(DomainError):
            lie_generators(skew, r)
    for r, s in ((1, 2), (2, 3)):
        with pytest.raises(DomainError):
            quotient_iso_check(skew, r, s)
        assert character_counts(skew, r, s) == (9, 9)
    with pytest.raises(DomainError):
        FiltrationQuotient(skew, 1, 2).lift([((4, 1), 1)])


@pytest.mark.parametrize("p", (5, 7))
def test_part_c_reports_an_average_that_moves_the_coset(p, monkeypatch):
    """Negative control: an average that adds u^v e_k with
    bound_k(r) <= v < bound_k(s) changes the coset of every fixed-space
    lift, 14 on the standard sequence at (1, 2), and stops being a
    derivation."""
    cfg = FieldConfig(p, 8)
    std, _ = benchmark_sequences(cfg)
    r, s = 1, 2
    (k, v) = FiltrationQuotient(std, r, s).basis[0]
    assert std.lattice(r).entry_bound(*SO_PLACES[k][0]) <= v \
        < std.lattice(s).entry_bound(*SO_PLACES[k][0])
    original = LieTrialityGroup.average

    def shifted(self, x):
        return original(self, x) + ref_lift(cfg, [((k, v), 1)])
    monkeypatch.setattr(LieTrialityGroup, "average", shifted)
    rep = quotient_iso_check(std, r, s)
    assert rep["violations"] == ["lift is not a derivation",
                                 "lift changes the coset"] * 14


@pytest.mark.parametrize("p", (5, 7))
def test_part_c_reports_a_flipped_sign_in_the_sigma_table(p, monkeypatch):
    """Negative control: sigma(U_{-4,-1}) = U_{3,2} read as -U_{3,2} in a
    copy of the table that part (c) builds from shrinks the kernel to 13
    while the average still spans 14; the lifts, averaged with the true
    tables, pass."""
    tables = triality._lie_tables()
    sigma = [dict(col) for col in tables.words["sigma"]]
    k = SO_LABELS.index((-4, -1))
    [(m, q)] = sigma[k].items()
    assert (SO_LABELS[m], q) == ((3, 2), 1)
    sigma[k][m] = -q
    flipped = tables._replace(words={**tables.words, "sigma": sigma})
    monkeypatch.setattr(filtration, "_lie_tables", lambda: flipped)
    std, _ = benchmark_sequences(FieldConfig(p, 8))
    rep = quotient_iso_check(std, 1, 2)
    assert rep["violations"] == [
        "fixed space of dimension 13 where the averages span 14"]


@pytest.mark.parametrize("word", ("sigma", "rho"))
@pytest.mark.parametrize("p", (5, 7))
def test_part_c_reports_a_table_that_moves_a_lattice(p, word, monkeypatch):
    """Negative control: a column of the table that sends e_k to an e_m
    of larger bound does not keep A_r and A_s.  Part (c) reports the word
    with r and s filled in and forms no kernel, so no dimension line and
    no lift follow.  The thirds sequence has such a pair at (2, 4); on
    the standard sequence every coordinate has the same bound, so no
    table can move it."""
    std, thirds = benchmark_sequences(FieldConfig(p, 8))
    r, s = 2, 4

    def bounds(seq, level):
        lat = seq.lattice(level)
        return [lat.entry_bound(*place) for place, _ in SO_PLACES]
    for level in (r, s):
        assert len(set(bounds(std, level))) == 1
    lo = bounds(thirds, r)
    k, m = next((k, m) for k in range(len(lo)) for m in range(len(lo))
                if lo[m] > lo[k])
    tables = triality._lie_tables()
    table = [dict(col) for col in tables.words[word]]
    table[k] = {m: Fraction(1)}
    moved = tables._replace(words={**tables.words, word: table})
    monkeypatch.setattr(filtration, "_lie_tables", lambda: moved)
    rep = quotient_iso_check(thirds, r, s)
    assert rep["violations"] == [f"{word} moves A_2 or A_4"]
