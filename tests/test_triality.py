"""Tests for related triples: root/diagonal families, GLW, the dim-4 and
anisotropic dim-2 stabilizer families, orbits and fixed points."""

import random
from functools import lru_cache

import pytest

from g2kit.endo import (SO_LABELS, EndV, _first_unrelated_pair, adjoint,
                        is_derivation, leibniz_defects,
                        multiplicative_holds, random_so,
                        so_basis_labels, so_coords, so_entries, so_matrix,
                        d_torus_lie, u_root, u_root_lie,
                        special_hermitian_basis)
from g2kit.errors import (ConfigMismatchError, DomainError, G2KitError,
                          SingularError, TripleError, WitnessError)
from g2kit.linalg import Subspace, lin_comb, mat_mul, transpose
from g2kit.octonions import (BASIS_PRODUCT, CONJ_MAT, GRAM, LABELS,
                             Octonion, anisotropic_plane, basis_octonion,
                             octonion_unit, sqrt_scalar, standard_split_dim4)
from g2kit.scalars import FieldConfig
from g2kit.suites import run_suite
from g2kit.triality import (GroupGenerator, GroupTriality, HermitianModel,
                            LieTrialityGroup, TrialityTriple,
                            check_related, det_d, diag_lie_triple, hat, iota,
                            is_g2_element, is_g2_lie, orbit_triples,
                            random_g2_lie, root_triple, solve_dim2,
                            solve_dim4, solve_glw, solve_lie_triple)
from oracles import (PREV, dense_first_unrelated_pair, dense_leibniz_defects,
                     is_isometry, root_triple_descriptors)

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
ONE = octonion_unit(CFG)
IDENT = EndV.identity(CFG)


def d_torus(cfg, i, lam):
    """d_i(lam): e_i -> lam e_i, e_{-i} -> lam^{-1} e_{-i}, the matrix of
    the torus descriptor with weight lam on e_i (u on e_4)."""
    one = cfg.one()
    return GroupGenerator.torus(*(lam if k == i else one
                                  for k in (4, 1, 2, 3))).matrix(cfg)


def all_root_pairs():
    for i in (-4, -1, -2, -3, 3, 2, 1, 4):
        for j in (-4, -1, -2, -3, 3, 2, 1, 4):
            if i != j and i != -j:
                yield i, j


def test_hat_identity_and_involution():
    assert hat(IDENT) == IDENT
    rng = random.Random(41)
    for _ in range(100):
        t = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        assert hat(hat(t)) == t


def test_hat_swaps_diagonal_weights():
    g = iota(CFG, CFG.one() + CFG.t(), [[CFG.one() if i == j else CFG.zero()
                                         for j in range(3)] for i in range(3)])
    h = hat(g)
    assert h.entry(4, 4) == (CFG.one() + CFG.t()).inv()
    assert h.entry(-4, -4) == CFG.one() + CFG.t()


def test_check_related_trivial_cases():
    assert check_related(IDENT, IDENT, IDENT)
    assert check_related(IDENT, IDENT * -1, IDENT * -1)
    assert not check_related(IDENT, IDENT, IDENT * -1)


def test_all_root_triples_related():
    """Each root triple is related, and each component, read off the tables
    derived from the multiplication table, is the u_{a,b}(+-lam) of the
    oracle's hand-kept descriptors."""
    lam = CFG.t()
    for (i, j) in all_root_pairs():
        for lie, mk in ((False, u_root), (True, u_root_lie)):
            tri = root_triple(CFG, i, j, lam, lie=lie)
            assert check_related(tri.t1, tri.t2, tri.t3, lie)
            assert [tri.t1, tri.t2, tri.t3] == [
                mk(CFG, a, b, lam if s > 0 else -lam)
                for a, b, s in root_triple_descriptors(i, j)]


def root_family_triple(cfg, i, negative, lam, lie=False):
    """The two listed root-group families, indexed by the cyclic triple
    (i, i+, i++): heads u_{-i,-i++} (negative) or u_{i,i++}."""
    if i not in (1, 2, 3):
        raise DomainError("family index must be 1..3")
    ipp = PREV[i]
    if negative:
        return root_triple(cfg, -i, -ipp, lam, lie=lie)
    return root_triple(cfg, i, ipp, lam, lie=lie)

def test_root_family_triples_all_six_patterns():
    lam = CFG.t()
    for i in (1, 2, 3):
        for negative in (False, True):
            for lie in (False, True):
                tri = root_family_triple(CFG, i, negative, lam, lie=lie)
                assert check_related(tri.t1, tri.t2, tri.t3, lie)


def test_group_triples_are_special_isometries():
    from g2kit.linalg import det
    lam = CFG.t()
    one = CFG.one()
    samples = [root_triple(CFG, -1, -3, lam),
               root_triple(CFG, 4, 2, lam),
               solve_glw(CFG, one, [[4, 0, 0], [0, 1, 0], [0, 0, 1]],
                         CFG.from_int(2))]
    for tri in samples:
        for t in (tri.t1, tri.t2, tri.t3):
            assert is_isometry(t)
            assert det(t.rows) == one


def test_mixed_sign_roots_fixed():
    lam = CFG.t()
    tri = root_triple(CFG, 1, -2, lam)
    assert tri.t1 == tri.t2 == tri.t3
    assert is_g2_element(tri.t1)


def test_spec_root_triple_example():
    # the (1,2,3)-pattern triple at lam = t
    lam = CFG.t()
    tri = root_triple(CFG, -1, -3, lam)
    assert tri.t1 == u_root(CFG, -1, -3, lam)
    assert tri.t2 == u_root(CFG, 4, 2, lam)
    assert tri.t3 == u_root(CFG, 2, -4, lam)


def test_diag_lie_triples():
    s = CFG.t()
    half = s * CFG.from_int(2).inv()
    for i in (1, 2, 3, 4):
        tri = diag_lie_triple(CFG, i, s)
        assert check_related(tri.t1, tri.t2, tri.t3, lie=True)
    tri4 = diag_lie_triple(CFG, 4, s)
    expect_t3 = EndV.zero(CFG)
    for k in (1, 2, 3, 4):
        expect_t3 = expect_t3 + d_torus_lie(CFG, k, half)
    assert tri4.t3 == expect_t3


def test_orbit_triples():
    lam = CFG.t()
    tri = root_triple(CFG, -1, -3, lam)
    orb = orbit_triples(tri)
    assert len(orb) == 6
    for t in orb:
        assert check_related(t.t1, t.t2, t.t3)
    tri_l = root_triple(CFG, -1, -3, lam, lie=True)
    for t in orbit_triples(tri_l):
        assert check_related(t.t1, t.t2, t.t3, lie=True)
    # order-3 move applied three times returns the original triple
    def order3(t):
        return TrialityTriple(hat(t.t2), t.t3, hat(t.t1), t.lie)
    assert order3(order3(order3(tri))) == tri


def test_orbit_of_identity():
    for t in orbit_triples(TrialityTriple(IDENT, IDENT, IDENT)):
        assert t.t1 == IDENT and t.t2 == IDENT and t.t3 == IDENT


def test_orbit_requires_related():
    with pytest.raises(TripleError):
        TrialityTriple(IDENT, IDENT, IDENT * -1)


def test_solve_glw():
    tri = solve_glw(CFG, CFG.one(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    CFG.one())
    assert tri.t1 == IDENT and tri.t2 == IDENT and tri.t3 == IDENT
    # u = 1, g = diag(a, a^{-1}, 1): in the GL(W+) stabilizer
    a = CFG.one() + CFG.t()
    g = [[a, CFG.zero(), CFG.zero()],
         [CFG.zero(), a.inv(), CFG.zero()],
         [CFG.zero(), CFG.zero(), CFG.one()]]
    tri2 = solve_glw(CFG, CFG.one(), g, CFG.one())
    assert is_isometry(tri2.t1)
    # two witnesses +-lam give two distinct solutions
    u = CFG.one() + CFG.t()
    g2 = [[4, 0, 0], [0, 1, 0], [0, 0, 1]]
    lam = sqrt_scalar(u * CFG.from_int(4))
    s1 = solve_glw(CFG, u, g2, lam)
    s2 = solve_glw(CFG, u, g2, -lam)
    assert s1.t2 != s2.t2


def test_solve_glw_rejects_bad_witness():
    with pytest.raises(WitnessError):
        solve_glw(CFG, CFG.t(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], CFG.one())


def test_glw_nonsquare_has_no_integer_witness():
    # u det g = 2 is not a square mod 5: any scalar witness must fail
    with pytest.raises(WitnessError):
        solve_glw(CFG, CFG.from_int(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  CFG.one())


def test_solve_dim4():
    d4 = standard_split_dim4(CFG)
    a = E[2] + E[-2]
    u1 = E[-4].scale(CFG.from_int(2)) + E[4].scale(CFG.from_int(3))
    tri = solve_dim4(d4, a, ONE, u1, ONE, u1, CFG.one())
    assert tri.t1 == tri.t2 == tri.t3
    assert is_g2_element(tri.t1)
    u2 = E[-4].scale(CFG.from_int(4)) + E[4].scale(CFG.from_int(4))
    tri2 = solve_dim4(d4, a, ONE, u2, ONE, ONE, CFG.one())
    tri3 = solve_dim4(d4, a, ONE, u2, ONE, ONE, -CFG.one())
    assert tri2.t2 != tri3.t2
    with pytest.raises(WitnessError):
        solve_dim4(d4, a, ONE, u2, ONE, ONE, CFG.from_int(2))


def norm_one_elements(d):
    c = d.traceless_generator()
    out = []
    for x in range(CFG.p):
        for y in range(CFG.p):
            el = (octonion_unit(CFG).scale(CFG.from_int(x))
                  + c.scale(CFG.from_int(y)))
            if el.norm() == CFG.one():
                out.append(el)
    return out


def test_solve_dim2():
    d = anisotropic_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    wbasis = [wm, w0, wp]
    z = Octonion(CFG, [CFG.zero()] * 8)
    ident3 = [[ONE if i == j else z for j in range(3)] for i in range(3)]
    tri = solve_dim2(d, wbasis, ONE, ident3, ONE)
    assert tri.t1 == tri.t2 == tri.t3
    mu = [el for el in norm_one_elements(d) if el != ONE and el != -ONE][0]
    tri2 = solve_dim2(d, wbasis, mu * mu, ident3, mu)
    # t2: v0 + w -> mu v0 + mu w
    c = d.traceless_generator()
    assert tri2.t2.apply(c) == mu * c
    assert tri2.t2.apply(wm) == mu * wm
    with pytest.raises(WitnessError):
        solve_dim2(d, wbasis, mu * mu, ident3, ONE)
    # the two witnesses +-xi give the two distinct solutions
    tri_p = solve_dim2(d, wbasis, mu * mu, ident3, mu)
    tri_m = solve_dim2(d, wbasis, mu * mu, ident3, -mu)
    assert tri_p.t2 != tri_m.t2


def test_barwedge_product_formula():
    d = anisotropic_plane(CFG)
    model = HermitianModel(d)
    rng = random.Random(42)
    one = octonion_unit(CFG)
    c = d.traceless_generator()

    def rand_w():
        out = Octonion(CFG, [CFG.zero()] * 8)
        for bb in model.space.basis:
            lam = (one.scale(CFG.random(rng, width=1, vmin=0, vmax=0))
                   + c.scale(CFG.random(rng, width=1, vmin=0, vmax=0)))
            out = out + lam * bb
        return out

    def rand_v0():
        return (one.scale(CFG.random(rng, width=1, vmin=0, vmax=0))
                + c.scale(CFG.random(rng, width=1, vmin=0, vmax=0)))

    for _ in range(200):
        v1, v2, w1, w2 = rand_v0(), rand_v0(), rand_w(), rand_w()
        assert model.product_via_decomposition(v1, w1, v2, w2) \
            == (v1 + w1) * (v2 + w2)
    # right-module bilinearity of the wedge
    w1, w2, lam, lamp = rand_w(), rand_w(), rand_v0(), rand_v0()
    assert model.bar_wedge(w1 * lam, w2 * lamp) \
        == (lam * lamp) * model.bar_wedge(w1, w2)


@pytest.mark.parametrize("p", (5, 7))
def test_hermitian_model_rejects_vectors_outside_w(p):
    """The unit and c lie in D, not in W = D-perp: their D-coordinates
    over {a, b, ab} do not exist, so d_coordinates and bar_wedge raise
    instead of returning coordinates that do not recombine to the input.
    Vectors of W recombine exactly."""
    cfg = FieldConfig(p, 8)
    d = anisotropic_plane(cfg)
    model = HermitianModel(d)
    w = model.space.basis[0]
    for x in (octonion_unit(cfg), d.traceless_generator()):
        with pytest.raises(SingularError):
            d_coordinates(model, x)
        with pytest.raises(SingularError):
            model.bar_wedge(x, w)
        with pytest.raises(SingularError):
            model.bar_wedge(w, x)
    zero = Octonion(cfg, [cfg.zero()] * 8)
    fbasis = model.space.fbasis
    for z in fbasis + [fbasis[1] + fbasis[4]]:
        co = d_coordinates(model, z)
        assert sum((lam * b for lam, b in zip(co, model.space.basis)),
                   zero) == z


def test_is_g2_element_families():
    # iota(1, g) with det g = 1
    a = CFG.one() + CFG.t()
    g = [[a, CFG.zero(), CFG.zero()],
         [CFG.zero(), a.inv(), CFG.zero()],
         [CFG.zero(), CFG.zero(), CFG.one()]]
    assert is_g2_element(iota(CFG, CFG.one(), g))
    assert is_g2_element(u_root(CFG, 1, -2, CFG.t()))
    # d_1(lam) d_2(lam^{-1}) is an automorphism; d_1(lam) alone is not
    lam = CFG.from_int(2)
    assert is_g2_element(d_torus(CFG, 1, lam) * d_torus(CFG, 2, lam.inv()))
    assert not is_g2_element(d_torus(CFG, 1, lam))


def test_lie_solver_fixed_point_consistency():
    rng = random.Random(43)
    for _ in range(100):
        x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        tri = solve_lie_triple(x)
        assert check_related(tri.t1, tri.t2, tri.t3, lie=True)
        assert (tri.t2 == x and tri.t3 == x) == is_g2_lie(x)
    for _ in range(100):
        y = random_g2_lie(CFG, rng, width=1, vmin=0, vmax=1)
        tri = solve_lie_triple(y)
        assert tri.t2 == y and tri.t3 == y


def test_gamma_group_relations_and_average():
    G = LieTrialityGroup()
    rng = random.Random(44)
    x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
    assert G.apply("rho", G.apply("rho", G.apply("rho", x))) == x
    assert G.apply("sigma", G.apply("sigma", x)) == x
    avg = G.average(x)
    assert is_derivation(avg)
    assert G.average(avg) == avg


def test_g2_dimension_is_14():
    G = LieTrialityGroup()
    diag, roots = so_basis_labels()
    one = CFG.one()
    vecs = []
    for i in diag:
        m = G.average(d_torus_lie(CFG, i, one))
        vecs.append([x for row in m.rows for x in row])
    for (i, j) in roots:
        m = G.average(u_root_lie(CFG, i, j, one))
        vecs.append([x for row in m.rows for x in row])
    assert Subspace(CFG, 64, vecs).dim == 14


def test_group_triality_on_generators():
    GT = GroupTriality(CFG)
    gen = GroupGenerator.root(4, 2, CFG.t())
    tor = GroupGenerator.torus(CFG.one() + CFG.t(), CFG.one() + CFG.t(2),
                               CFG.one(), CFG.one())
    for g in (gen, tor):
        for w in ("sigma", "rho", "rho2", "sigma_rho", "sigma_rho2"):
            assert is_isometry(GT.apply(w, g))
        r3 = GT._apply_desc("rho", GT._apply_desc("rho",
                                                  GT._apply_desc("rho", g)))
        assert r3.matrix(CFG) == g.matrix(CFG)


def test_triple_json():
    tri = root_triple(CFG, -1, -3, CFG.t())
    data = tri.to_json()
    assert set(data) == {"t1", "t2", "t3", "lie"}
    assert data["lie"] is False


# -- the coordinate tables against the dense constructions they replace ---------

ORACLE_PRIMES = [5, 7, 11, 13]


def dense_diag_triple(cfg, i):
    """(t2, t3) of the triple headed by D_i(1), summed from D_k(+-1/2)."""
    half = cfg.from_int(2).inv()
    t2 = d_torus_lie(cfg, i, half)
    for k in (1, 2, 3, 4):
        if k != i:
            t2 = t2 + d_torus_lie(cfg, k, -half)
    t3 = EndV.zero(cfg)
    for k in (1, 2, 3, 4):
        t3 = t3 + d_torus_lie(cfg, k, half if k in (i, 4) or i == 4 else -half)
    return t2, t3


def dense_solver(cfg):
    """Solve by summing scaled t2/t3 matrices of the generator triples,
    the root ones built from the hand-kept root_triple_descriptors."""
    one = cfg.one()
    tables = {i: dense_diag_triple(cfg, i) for i in (1, 2, 3, 4)}
    for (i, j) in so_basis_labels()[1]:
        _, d2, d3 = root_triple_descriptors(i, j)
        tables[(i, j)] = tuple(u_root_lie(cfg, a, b, one if s > 0 else -one)
                               for a, b, s in (d2, d3))

    def solve(x):
        t2, t3 = EndV.zero(cfg), EndV.zero(cfg)
        for label, c in zip(SO_LABELS, so_coords(x)):
            if not c.is_zero:
                t2 = t2 + tables[label][0] * c
                t3 = t3 + tables[label][1] * c
        return t2, t3
    return solve


def dense_hat(t):
    c = [[t.cfg.from_int(v) for v in row] for row in CONJ_MAT]
    return EndV(t.cfg, mat_mul(c, mat_mul(t.rows, c)))


def dense_adjoint(x):
    g = [[x.cfg.from_int(v) for v in row] for row in GRAM]
    return EndV(x.cfg, mat_mul(g, mat_mul(transpose(x.rows), g)))


def octonion_leibniz(t1, t2, t3):
    """The triality identity through octonion products."""
    e = [basis_octonion(t1.cfg, lbl) for lbl in LABELS]
    return all(t1.apply(a * b) == t2.apply(a) * b + a * t3.apply(b)
               for a in e for b in e)


def dense_orbit(solve, x):
    """The six words by the recursive chains over the dense solver."""
    def sigma(y):
        return solve(y)[0]

    def rho(y):
        return dense_hat(solve(y)[0])
    r1 = rho(x)
    r2 = rho(r1)
    return {"id": x, "rho": r1, "rho2": r2, "sigma": sigma(x),
            "sigma_rho": sigma(r1), "sigma_rho2": sigma(r2)}


def so_samples(cfg, rng):
    one = cfg.one()
    basis = [d_torus_lie(cfg, i, one) for i in (1, 2, 3, 4)]
    basis += [u_root_lie(cfg, i, j, one) for (i, j) in so_basis_labels()[1]]
    return basis + [random_so(cfg, rng, width=1, vmin=0, vmax=1)
                    for _ in range(3)]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_hat_adjoint_conj_match_dense_products(p):
    cfg = FieldConfig(p, 8)
    rng = random.Random(p)
    for _ in range(5):
        t = EndV(cfg, [[cfg.random(rng, width=1) for _ in range(8)]
                       for _ in range(8)])
        assert hat(t) == dense_hat(t)
        assert adjoint(t) == dense_adjoint(t)
        x = Octonion(cfg, [cfg.random(rng, width=1) for _ in range(8)])
        assert x.conj() == Octonion(cfg, [
            sum((x.coords[j] * CONJ_MAT[i][j] for j in range(8)), cfg.zero())
            for i in range(8)])


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_solver_words_and_average_match_dense_oracle(p):
    cfg = FieldConfig(p, 8)
    rng = random.Random(100 + p)
    solve = dense_solver(cfg)
    G = LieTrialityGroup()
    six = cfg.from_int(6).inv()
    for x in so_samples(cfg, rng):
        tri = solve_lie_triple(x)
        assert (tri.t2, tri.t3) == solve(x)
        orbit = dense_orbit(solve, x)
        total = EndV.zero(cfg)
        for word in LieTrialityGroup.WORDS:
            assert G.apply(word, x) == orbit[word], word
            total = total + orbit[word]
        assert G.average(x) == total * six


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_every_table_column_is_related(p):
    cfg = FieldConfig(p, 8)
    one = cfg.one()
    basis = [d_torus_lie(cfg, i, one) for i in (1, 2, 3, 4)]
    basis += [u_root_lie(cfg, i, j, one) for (i, j) in so_basis_labels()[1]]
    for b in basis:
        tri = solve_lie_triple(b)
        assert check_related(tri.t1, tri.t2, tri.t3, lie=True)
        assert octonion_leibniz(tri.t1, tri.t2, tri.t3)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_orbit_is_the_six_applies_from_one_coordinate_read(p, monkeypatch):
    import g2kit.triality as triality_mod
    cfg = FieldConfig(p, 8)
    G = LieTrialityGroup()
    reads = []
    original = triality_mod.so_coords

    def counting(x):
        reads.append(1)
        return original(x)
    monkeypatch.setattr(triality_mod, "so_coords", counting)
    for x in so_samples(cfg, random.Random(110 + p)):
        del reads[:]
        orbit = G.orbit_entries(x)
        assert len(reads) == 1
        assert [w for w, _ in orbit] == list(LieTrialityGroup.WORDS)
        assert orbit[0][1] == x.entries()
        for word, y in orbit:
            assert y == G.apply(word, x).entries(), word
    not_so = d_torus_lie(cfg, 1, cfg.one()) + EndV.identity(cfg)
    with pytest.raises(DomainError):
        G.orbit_entries(not_so)


@pytest.mark.parametrize("fault", ("a forced to 0", "one sign flipped"))
def test_a_perturbed_derivation_fails_the_table_checks(monkeypatch, fault):
    """With no equation to read a from, or with the sign of one scanned
    equation flipped, the derived t2 and t3 miss the triality identity
    and the first _lie_tables() raises TripleError; the verified tables
    are rebuilt afterwards."""
    import g2kit.triality as triality_mod
    equations = triality_mod._associator_equations()
    if fault == "one sign flipped":
        w, (u, v, m, c) = equations[0]
        equations[0] = w, (u, v, m, -c)
    else:
        equations = []
    monkeypatch.setattr(triality_mod, "_associator_equations",
                        lambda: equations)
    triality_mod._lie_tables.cache_clear()
    try:
        with pytest.raises(TripleError, match="derived Lie triple fails"):
            triality_mod._lie_tables()
    finally:
        monkeypatch.undo()
        triality_mod._lie_tables.cache_clear()
        triality_mod._lie_tables()


def test_inverse_words_compose_to_identity():
    G = LieTrialityGroup()
    x = random_so(CFG, random.Random(45), width=1, vmin=0, vmax=1)
    for word in LieTrialityGroup.WORDS:
        inv_word = GroupTriality(CFG).inverse_word(word)
        assert G.apply(inv_word, G.apply(word, x)) == x


# -- negative tests ---------------------------------------------------------------

def bump(x, r, c, cfg):
    """x with one t-adic coefficient of entry (r, c) changed."""
    rows = [list(row) for row in x.rows]
    rows[r][c] = rows[r][c] + cfg.t()
    return EndV(cfg, rows)


@pytest.mark.parametrize("p", [5, 11])
def test_one_changed_coefficient_breaks_a_lie_triple(p):
    cfg = FieldConfig(p, 8)
    rng = random.Random(200 + p)
    tri = solve_lie_triple(random_so(cfg, rng, width=1, vmin=0, vmax=1))
    parts = list(tri)
    for k in range(3):
        for r in range(8):
            for c in range(8):
                changed = list(parts)
                changed[k] = bump(parts[k], r, c, cfg)
                assert not check_related(*changed, lie=True), (k, r, c)
    assert not octonion_leibniz(parts[0], bump(parts[1], 3, 5, cfg), parts[2])


@pytest.mark.parametrize("p", [5, 11])
def test_one_changed_coefficient_breaks_a_derivation(p):
    cfg = FieldConfig(p, 8)
    d = random_g2_lie(cfg, random.Random(300 + p), width=1, vmin=0, vmax=1)
    assert is_derivation(d)
    for r in range(8):
        for c in range(8):
            assert not is_derivation(bump(d, r, c, cfg)), (r, c)


def test_non_so_matrix_is_rejected():
    x = random_so(CFG, random.Random(46), width=1, vmin=0, vmax=1)
    for bad in (IDENT, bump(x, 0, 3, CFG)):
        with pytest.raises(DomainError):
            solve_lie_triple(bad)
        with pytest.raises(DomainError):
            LieTrialityGroup().average(bad)
        for word in LieTrialityGroup.WORDS[1:]:
            with pytest.raises(DomainError):
                LieTrialityGroup().apply(word, bad)
    with pytest.raises(DomainError):
        LieTrialityGroup().apply("tau", x)


# -- bar-wedge by cofactors ---------------------------------------------------------

def d_coordinates(model, w):
    """Left-multiplication D-coordinates of w in the basis {a, b, ab}."""
    space = model.space
    co = space.coords.solve(list(w.coords))
    return [space.unit.scale(co[2 * k]) + space.c.scale(co[2 * k + 1])
            for k in range(3)]


def wedge3(model, w1, w2, w3):
    """w1 ^ w2 ^ w3 = Q(ab) det of the 3 x 3 matrix of D-coordinates."""
    m = [d_coordinates(model, w) for w in (w1, w2, w3)]
    return det_d(model.d, m).scale(model.qab)


def ref_bar_wedge(model, w1, w2):
    """The bar-wedge read off its definition: one wedge3 (three coordinate
    replays and a det_d) and one d.coordinates solve per F-basis vector."""
    fbasis = model.space.fbasis
    rhs_all = []
    for z in fbasis:
        target = model.d.coordinates(wedge3(model, w1, w2, z))
        rhs_all.append(target[0])
        rhs_all.append(target[1])
    co = model.space.pairing.solve(rhs_all)
    return Octonion(model.cfg, lin_comb(model.cfg, co,
                                        [z.coords for z in fbasis]))


def random_w(model, rng, width):
    """sum_k (x0 + x1 c) b_k over the D-basis {a, b, ab}, with x0, x1 of
    valuation 0 and the given coefficient width."""
    cfg, space = model.cfg, model.space
    out = Octonion(cfg, [cfg.zero()] * 8)
    for bb in space.basis:
        lam = (space.unit.scale(cfg.random(rng, width=width, vmin=0, vmax=0))
               + space.c.scale(cfg.random(rng, width=width, vmin=0, vmax=0)))
        out = out + lam * bb
    return out


class CountingReduction:
    """A RowReduction stand-in that counts its replays."""

    def __init__(self, reduction):
        self.reduction, self.calls = reduction, 0

    def solve(self, rhs):
        self.calls += 1
        return self.reduction.solve(rhs)


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_bar_wedge_matches_the_wedge3_definition(p, ext):
    cfg = FieldConfig(p, 8, ext)
    model = HermitianModel(anisotropic_plane(cfg))
    rng = random.Random(p)
    for width in (1, 2):
        for _ in range(4):
            w1, w2 = random_w(model, rng, width), random_w(model, rng, width)
            assert model.bar_wedge(w1, w2).coords \
                == ref_bar_wedge(model, w1, w2).coords, (width, w1, w2)


def test_bar_wedge_reads_coordinates_twice_and_multiplies_no_octonions(
        monkeypatch):
    model = HermitianModel(anisotropic_plane(CFG))
    rng = random.Random(7)
    w1, w2 = random_w(model, rng, 2), random_w(model, rng, 2)
    counter = CountingReduction(model.space.coords)
    monkeypatch.setattr(model.space, "coords", counter)
    ref_bar_wedge(model, w1, w2)
    assert counter.calls == 18
    counter.calls = 0
    products = []
    mul = Octonion.__mul__

    def counting_mul(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(Octonion, "__mul__", counting_mul)
    model.bar_wedge(w1, w2)
    assert counter.calls == 2
    assert products == []


@lru_cache(maxsize=None)
def unramified_statuses(p):
    report = run_suite("triality", FieldConfig(p, 8, "unramified"), 1)
    return {ch["name"]: ch["status"] for ch in report["checks"]}


@pytest.mark.parametrize("p", (5, 7, 11))
def test_dim2_family_passes_over_the_unramified_extension(p):
    """No norm-1 x + y c with y != 0 has x, y in F_p over the unramified
    extension; the search runs over the residue field F_{p^2}."""
    status = unramified_statuses(p)
    assert status["dim2-family"] == "pass"
    assert status["product-decomposition"] == "pass"


@pytest.mark.parametrize("p", (5, 7, 11))
def test_glw_family_passes_over_the_unramified_extension(p):
    """glw-family takes square roots of scalars; over the unramified
    extension their leading residues are square roots in F_{p^2}."""
    assert unramified_statuses(p)["glw-family"] == "pass"
    assert set(unramified_statuses(p).values()) == {"pass"}


@pytest.mark.parametrize("p", (5, 7, 11))
def test_sqrt_scalar_over_the_unramified_extension(p):
    cfg = FieldConfig(p, 8, "unramified")
    rng = random.Random(70 + p)
    for _ in range(20):
        x = cfg.random(rng, width=3, nonzero=True)
        y = sqrt_scalar(x * x)
        assert y * y == x * x
        assert y == x or y == -x
    with pytest.raises(DomainError):
        sqrt_scalar(cfg.monomial((0, 1), 0) * cfg.t())  # odd valuation


# -- the group triality identity by column reads ------------------------------------

def ref_multiplicative_holds(t1, t2, t3):
    """t1(e_i e_j) = t2(e_i) t3(e_j) through basis products and mat_vec."""
    cfg = t1.cfg
    e = [basis_octonion(cfg, lbl) for lbl in LABELS]
    t2e = [t2.apply(v) for v in e]
    t3e = t2e if t3 is t2 else [t3.apply(v) for v in e]
    for i in range(8):
        for j in range(8):
            if t1.apply(e[i] * e[j]) != t2e[i] * t3e[j]:
                return False
    return True


def related_group_triples(cfg):
    lam = cfg.t()
    for i, j in all_root_pairs():
        yield root_triple(cfg, i, j, lam)
    u = cfg.one() + cfg.t()
    g = [[cfg.from_int(4), cfg.zero(), cfg.zero()],
         [cfg.zero(), cfg.one(), cfg.zero()],
         [cfg.zero(), cfg.zero(), cfg.one()]]
    yield solve_glw(cfg, u, g, sqrt_scalar(u * cfg.from_int(4)))
    e = {lbl: basis_octonion(cfg, lbl) for lbl in LABELS}
    one = octonion_unit(cfg)
    u2 = e[-4].scale(cfg.from_int(4)) + e[4].scale(cfg.from_int(4))
    yield solve_dim4(standard_split_dim4(cfg), e[2] + e[-2], one, u2, one,
                     one, cfg.from_int(4))


def flip(t, r, c):
    rows = [list(row) for row in t.rows]
    rows[r][c] = -rows[r][c]
    return EndV(t.cfg, rows)


@pytest.mark.parametrize("p", (5, 11))
def test_multiplicative_holds_matches_basis_products(p):
    """Related triples pass both versions; one flipped sign in t2 or t3
    fails both."""
    cfg = FieldConfig(p, 8)
    rng = random.Random(p)
    for k, tri in enumerate(related_group_triples(cfg)):
        t1, t2, t3 = tri
        assert multiplicative_holds(t1, t2, t3)
        assert ref_multiplicative_holds(t1, t2, t3)
        if k % 8:
            continue
        for which in (1, 2):
            t = (t2, t3)[which - 1]
            nonzero = [(r, c) for r in range(8) for c in range(8)
                       if not t.rows[r][c].is_zero]
            for r, c in rng.sample(nonzero, 4):
                parts = [t1, t2, t3]
                parts[which] = flip(t, r, c)
                assert not multiplicative_holds(*parts), (k, which, r, c)
                assert not ref_multiplicative_holds(*parts), (k, which, r, c)
    # automorphisms and non-automorphisms of the torus (t1 = t2 = t3)
    lam = cfg.from_int(2)
    for g, want in ((d_torus(cfg, 1, lam) * d_torus(cfg, 2, lam.inv()), True),
                    (d_torus(cfg, 1, lam), False)):
        assert multiplicative_holds(g, g, g) is want
        assert ref_multiplicative_holds(g, g, g) is want


def test_apply_to_a_signed_basis_vector_is_the_signed_column():
    rng = random.Random(11)
    x = EndV(CFG, [[CFG.random(rng, width=2, vmin=-1, vmax=1)
                    for _ in range(8)] for _ in range(8)])
    for k, lbl in enumerate(LABELS):
        col = [row[k] for row in x.rows]
        assert x.apply(E[lbl]).coords == tuple(col)
        assert x.apply(-E[lbl]).coords == tuple(-v for v in col)


# -- so(V) entries and root entries -----------------------------------------

@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_so_entries_are_the_nonzero_entries_of_so_rows(p):
    """so_entries gives the nonzero entries of so_matrix in row-major
    order, for coordinates with and without zeros."""
    cfg = FieldConfig(p, 8)
    rng = random.Random(130 + p)
    for _ in range(30):
        coords = [cfg.zero() if rng.random() < 0.6 else
                  cfg.random(rng, width=2, vmin=-1, vmax=2)
                  for _ in SO_LABELS]
        got, want = so_entries(coords), so_matrix(cfg, coords).entries()
        assert got == want and list(got) == list(want)


def test_root_generators_keep_their_checks():
    """u_root_lie and a root descriptor's offset, built from the two
    entries, still reject i = +-j, a label outside +-1..+-4 and a lambda
    from another config; so do root_triple, which once recursed without
    end on a label outside +-1..+-4, and GroupTriality on such a root."""
    other = FieldConfig(7, 8)
    for make in (u_root_lie, lambda cfg, i, j, lam:
                 GroupGenerator.root(i, j, lam).offset(cfg)):
        for i, j in ((1, 1), (2, -2), (-4, 4)):
            with pytest.raises(DomainError, match="i != \\+-j"):
                make(CFG, i, j, CFG.t())
        for i, j in ((1, 0), (5, 1)):
            with pytest.raises(DomainError, match="labels"):
                make(CFG, i, j, CFG.t())
        with pytest.raises(ConfigMismatchError):
            make(CFG, 1, 2, other.t())
    for lie in (False, True):
        with pytest.raises(DomainError, match="labels"):
            root_triple(CFG, 5, 1, CFG.t(), lie=lie)
    for i, j in ((1, 1), (5, 1)):
        with pytest.raises(DomainError, match="not a root"):
            GroupTriality(CFG).apply("sigma",
                                     GroupGenerator.root(i, j, CFG.t()))
    assert u_root_lie(CFG, 1, 2, CFG.t()) == u_root(CFG, 1, 2, CFG.t()) - IDENT
    assert u_root_lie(CFG, 1, 2, CFG.zero()) == EndV.zero(CFG)


# -- the triality identities on column supports against the dense routes ---------

WALK_CONFIGS = [FieldConfig(p, 8, ext) for p, ext in (
    (5, "none"), (7, "none"), (11, "none"), (5, "unramified"),
    (7, "unramified"), (5, "ramified"), (7, "ramified"))]


def _outcome(f, *args):
    """f(*args), or the type of the error it raised."""
    try:
        return f(*args)
    except (G2KitError, ZeroDivisionError) as exc:
        return type(exc)


def _moved(t, r, c, k):
    """t with the entry (r, c) multiplied by t^k."""
    rows = [list(row) for row in t.rows]
    rows[r][c] = rows[r][c] * t.cfg.t(k)
    return EndV(t.cfg, rows)


def _corruptions(rng, t):
    """One nonzero entry of t moved by t^k, and one flipped in sign."""
    nonzero = [(r, c) for r in range(8) for c in range(8)
               if not t.rows[r][c].is_zero]
    r, c = rng.choice(nonzero)
    yield _moved(t, r, c, rng.randrange(1, 4))
    r, c = rng.choice(nonzero)
    yield flip(t, r, c)


def _group_triples(cfg, rng):
    """Root triples at lam = t, and products of three root triples at
    lambdas of width 4: their products t2(e_i) t3(e_j) outgrow the window
    and fold, and the truncated identity fails at some pair for some."""
    pairs = list(all_root_pairs())
    for i, j in rng.sample(pairs, 6):
        yield tuple(root_triple(cfg, i, j, cfg.t())), True
    for _ in range(6):
        a, b, c = (root_triple(cfg, *ij, cfg.random(rng, width=4, nonzero=True))
                   for ij in rng.sample(pairs, 3))
        yield tuple(x * y * z for x, y, z in zip(a, b, c)), False


def _first_pair_holds(cfg, rng):
    """Maps t2, t3 of full-window entries at valuation 0 and a t1 whose
    column k, for e_0 e_0 = s e_k, is s t2(e_0) t3(e_0) formed densely:
    pair (0, 0) holds and a later one fails.  The left fold of a
    product's coordinate depends on the order of its terms once a partial
    sum cancels leading digits, which such entries make frequent."""
    def entry():
        return (cfg.random(rng, width=cfg.precision, vmin=0, vmax=0)
                if rng.random() < 0.7 else cfg.zero())

    t2, t3 = (EndV(cfg, [[entry() for _ in range(8)] for _ in range(8)])
              for _ in range(2))
    k, s = BASIS_PRODUCT[0][0]
    prod = Octonion(cfg, [r[0] for r in t2.rows]) \
        * Octonion(cfg, [r[0] for r in t3.rows])
    rows = [[cfg.zero()] * 8 for _ in range(8)]
    for m, c in enumerate(prod.coords):
        rows[m][k] = c if s > 0 else -c
    return EndV(cfg, rows), t2, t3


@pytest.mark.parametrize("cfg", WALK_CONFIGS, ids=repr)
def test_first_unrelated_pair_matches_the_dense_products(cfg):
    """The column-support walk of multiplicative_holds fails at the pair
    where the dense products first differ, or raises what they raise;
    each corruption of t1, t2 or t3 is rejected by both at that pair, and
    maps whose first pair holds in the dense fold fail at the same later
    pair."""
    rng = random.Random(cfg.p * 10 + len(cfg.extension))
    for tri, exact in _group_triples(cfg, rng):
        want = _outcome(dense_first_unrelated_pair, *tri)
        assert _outcome(_first_unrelated_pair, *tri) == want
        if exact:
            assert want is None and multiplicative_holds(*tri)
        for which in range(3):
            for bad in _corruptions(rng, tri[which]):
                parts = list(tri)
                parts[which] = bad
                want = _outcome(dense_first_unrelated_pair, *parts)
                assert _outcome(_first_unrelated_pair, *parts) == want
                if exact:
                    assert want is not None
    for _ in range(30):
        tri = _first_pair_holds(cfg, rng)
        want = _outcome(dense_first_unrelated_pair, *tri)
        assert want not in (None, (0, 0))
        assert _outcome(_first_unrelated_pair, *tri) == want
    lam = cfg.from_int(2)
    for g, want in ((d_torus(cfg, 1, lam) * d_torus(cfg, 2, lam.inv()), True),
                    (d_torus(cfg, 1, lam), False)):
        pair = dense_first_unrelated_pair(g, g, g)
        assert _first_unrelated_pair(g, g, g) == pair
        assert (pair is None) is want is multiplicative_holds(g, g, g)


@pytest.mark.parametrize("cfg", WALK_CONFIGS, ids=repr)
def test_leibniz_defects_match_the_dense_difference(cfg):
    """leibniz_defects equals x(e_i e_j) - x(e_i) e_j - e_i x(e_j) formed
    from dense octonions, coordinate by coordinate and digit for digit:
    on derivations (every defect zero), on so(V) elements of short and of
    full-window entries, and on derivations with one entry moved by t^k or
    flipped in sign, whose first nonzero defect is then at the same pair."""
    rng = random.Random(cfg.p * 10 + len(cfg.extension))
    derivations = [u_root_lie(cfg, 1, -2, cfg.t()),
                   random_g2_lie(cfg, rng)]
    n = cfg.precision
    xs = derivations + [random_so(cfg, rng), random_so(cfg, rng, width=n),
                        random_so(cfg, rng, width=n, vmin=0, vmax=0)]
    for x in derivations:
        xs += list(_corruptions(rng, x))
    zero = cfg.zero()
    for k, x in enumerate(xs):
        want = dense_leibniz_defects(x)
        got = leibniz_defects(x)
        assert [[(d.get(m, zero).val, d.get(m, zero).coeffs) for m in range(8)]
                for d in got] == \
            [[(c.val, c.coeffs) for c in o.coords] for o in want]
        first = next((k for k, o in enumerate(want) if not o.is_zero), None)
        assert first == next((k for k, d in enumerate(got)
                              if any(c.coeffs for c in d.values())), None)
        assert is_derivation(x) is (first is None)
        assert (first is None) is (k < len(derivations))
