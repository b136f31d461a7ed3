"""Tests for Cayley/filtration machinery, the character pairing, and the
symplectic fixed-point identity."""

import random
from fractions import Fraction

import pytest

from g2kit.endo import EndV, d_torus_lie, u_root_lie
from g2kit.errors import DomainError, MembershipError, PrecisionError
from g2kit.filtration import (FiltrationQuotient, SymplecticSpace, cayley,
                              cayley_inv, cayley_scalar, character_counts,
                              enumerate_subspaces, gamma_perp,
                              lie_generators, moy_counterexample, psi_b,
                              quotient_iso_check, random_stable_subspace,
                              standard_symplectic_cycle,
                              standard_symplectic_swap,
                              trace_triality_invariance)
from g2kit.linalg import Subspace, kernel
from g2kit.norms import (NormFn, extend_sl3, filtration_lattice,
                         lattice_seq_from_norm, standard_norm)
from g2kit.octonions import basis_octonion, hyperbolic_plane
from g2kit.residue import PrimeField
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


# -- linalg over F_p against the separate F_p code it replaced ------------------
# ref_modp_rref, ref_modp_kernel and RefModpSubspace are the row reduction,
# kernel and subspace that filtration kept for F_p before rref, kernel and
# Subspace took a residue.PrimeField.

def ref_modp_rref(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def ref_modp_kernel(rows, p, m):
    red, pivots = ref_modp_rref(rows, p)
    free = [c for c in range(m) if c not in pivots]
    out = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        out.append(v)
    return out


class RefModpSubspace:
    def __init__(self, p, n, vectors):
        self.p = p
        self.n = n
        rows, pivots = ref_modp_rref(
            [v for v in vectors if any(x % p for x in v)], p)
        self.rows = [tuple(r) for r in rows]
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        v = [x % self.p for x in v]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [(a - f * b) % self.p for a, b in zip(v, row)]
        return not any(v)


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


# -- the quotient check against the parent's code ------------------------------
# ref_* are the versions that formed every 8x8 difference, the identity and
# the product b (x - 1), and transformed every triality image anew;
# ref_contains is FiltrationLattice.contains as it was when they were.

from g2kit import filtration  # noqa: E402
from g2kit.errors import PrecisionError  # noqa: E402
from g2kit.fixtures import wplus_norm  # noqa: E402
from g2kit.scalars import Scalar  # noqa: E402

LEVELS = ((1, 1), (1, 2), (2, 3), (2, 4))


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


def ref_quotient_iso_check(seq, r, s):
    cayley = filtration.cayley
    q = FiltrationQuotient(seq, r, s)
    cfg = seq.cfg
    gens = q.generators()
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
    grp_gamma = GroupTriality(cfg)
    for g, cx in zip(gens, images):
        if cx != g.group.matrix(cfg):
            violations.append(f"Cayley image mismatch at {g.name}")
            continue
        for word in LieTrialityGroup.WORDS:
            lhs = cayley(lie_gamma.apply(word, g.lie))
            rhs = grp_gamma.apply(word, g.group)
            if not ref_congruent_group(q, lhs, rhs):
                violations.append(
                    f"triality congruence failure at {g.name}, {word}")
    for x in filtration._quotient_fixed_samples(seq, r, s):
        for word in LieTrialityGroup.WORDS:
            if not ref_congruent_lie(q, lie_gamma.apply(word, x), x):
                violations.append("sample is not quotient-fixed")
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


def ref_psi_b(seq, s, b, x, r):
    if not ref_contains(seq.lattice(1 - s), b):
        raise MembershipError("b must lie in A_{1-s}")
    if not ref_contains_group(seq.lattice(r), x):
        raise MembershipError("x must lie in P^r")
    ident = EndV.identity(seq.cfg)
    return ((b * (x - ident)).trace()).conductor_character()


def benchmark_sequences(cfg):
    """The standard and the (1/3, 1/3, -2/3) sequences of the benchmark."""
    std = lattice_seq_from_norm(standard_norm(cfg))
    thirds = lattice_seq_from_norm(extend_sl3(wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]),
        hyperbolic_plane(cfg)))
    return std, thirds


def skew_seq():
    """A sequence whose splitting basis is not the standard one."""
    alpha = extend_sl3(NormFn(CFG, [E[1] + E[2], E[2], E[3]],
                              [Fraction(1, 3), Fraction(1, 3),
                               Fraction(-2, 3)]), D)
    return lattice_seq_from_norm(alpha)


def outcome(f, *args):
    """f's value, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@pytest.mark.parametrize("p", (5, 7))
def test_quotient_iso_matches_reference(p, monkeypatch):
    """Both benchmark sequences at every level: the same report, and 451
    Cayley transforms per check where the reference takes 602 (28 images,
    406 pair sums and the 17 triality images that are no generator)."""
    calls = []
    original = filtration.cayley

    def counting(x):
        calls.append(1)
        return original(x)
    monkeypatch.setattr(filtration, "cayley", counting)
    for seq in benchmark_sequences(FieldConfig(p, 8)):
        assert seq.lattice(1)._std
        for r, s in LEVELS:
            del calls[:]
            rep = quotient_iso_check(seq, r, s)
            assert len(calls) == 451
            del calls[:]
            assert rep == ref_quotient_iso_check(seq, r, s)
            assert len(calls) == 602
            assert rep["violations"] == []


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
            assert lat.contains_difference(g, h) == want
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
                assert q.congruent_group(g, h) == want
                assert q.congruent_lie(g, h) == ref_congruent_lie(q, g, h)
                seen.add(want)
    assert seen == {True, False}


def test_quotient_reduce_on_a_skew_basis():
    """Over a splitting basis that is not the standard one, reduce(x) is
    congruent to x, has no coordinate digit at or past its A_s bound, is
    fixed by reduce, and is the same for x moved by an element of A_s."""
    seq = skew_seq()
    rng = random.Random(69)
    for r, s in LEVELS:
        q = FiltrationQuotient(seq, r, s)
        lat = q.lat_s
        assert not lat._std
        for _ in range(6):
            x = random_endv(rng, CFG, -1, 3, 3)
            rep = q.reduce(x)
            assert q.congruent_lie(rep, x)
            coords = lat.in_basis(rep)
            assert all(coords[l][j].truncate(lat.entry_bound(l, j))
                       == coords[l][j] for l in range(8) for j in range(8))
            assert q.reduce(rep) == rep
            a = random_endv(rng, CFG, 4, 6, 2)
            assert lat.contains(a)
            assert q.reduce(x + a) == rep
            assert rep != x


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
            assert lat.contains_group(g) == want
            verdicts.add((lat._std, want))
        assert not lat.contains_group(EndV.identity(CFG) * CFG.from_int(2))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def overwide(cfg):
    """1 + t^N with N + 1 stored coefficients: subtracting 1 cancels the
    whole window and leaves a tail, which raises PrecisionError."""
    return Scalar(cfg, 0, (1,) + (0,) * (cfg.precision - 1) + (1,))


def test_entrywise_decisions_raise_where_the_difference_raises():
    """The differences are formed after a failing entry too, so the error
    of the last entry is raised as the full difference raises it."""
    for lat in (STD.lattice(1), skew_seq().lattice(1)):
        one = EndV.identity(CFG)
        bad = [list(row) for row in one.rows]
        bad[0][1] = CFG.one()          # fails the bound first
        bad[7][7] = overwide(CFG)      # then raises on subtraction
        g = EndV(CFG, bad)
        assert outcome(ref_contains_group, lat, g) is PrecisionError
        assert outcome(lat.contains_group, g) is PrecisionError
        assert outcome(lambda: ref_contains(lat, g - one)) is PrecisionError
        assert outcome(lat.contains_difference, g, one) is PrecisionError
        assert outcome(lat.contains_difference, one, g) is PrecisionError
        # equal entries are skipped: their difference is an exact zero
        assert outcome(ref_contains, lat, g - g) is True
        assert outcome(lat.contains_difference, g, g) is True


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


def test_trace_triality_invariance_matches_the_word_loop():
    rng = random.Random(69)
    gamma = LieTrialityGroup()
    from g2kit.endo import random_so
    for _ in range(6):
        x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        y = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        target = (x * y).trace()
        want = all((gamma.apply(w, x) * gamma.apply(w, y)).trace() == target
                   for w in LieTrialityGroup.WORDS)
        assert trace_triality_invariance(x, y) == want
