"""Tests for endomorphisms: adjoint, derivations, lifts, semisimple analysis."""

import random

import pytest

from g2kit.endo import (SO_LABELS, EndV, HermitianSpace, WitnessBlock,
                        _is_d_linear, adjoint, analyze_semisimple,
                        d_torus_lie, dim4_kernel_derivation,
                        is_derivation, is_so, lift_sl3,
                        lift_su21, multiplicative_holds, random_so, so_coords,
                        so_matrix, special_hermitian_basis, u_root,
                        u_root_lie)
from g2kit.errors import DomainError, LiftError, WitnessError
from g2kit.linalg import Subspace, mat_vec
from g2kit.octonions import (Octonion, anisotropic_plane, basis_octonion,
                             hyperbolic_plane, octonion_unit,
                             split_polarization, standard_split_dim4)
from g2kit.scalars import FieldConfig
from g2kit.triality import GroupGenerator
from oracles import is_isometry

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
D_HYP = hyperbolic_plane(CFG)


def commutator(x, y):
    return x * y - y * x


def hermitian_form(d, x, y):
    """Phi(x, y) in D, as HermitianSpace(d).form(x, y)."""
    return HermitianSpace(d).form(x, y)


# -- centralizer containment predicates (case-by-case lemmas) ------------------

def stabilizes(g, space):
    return all(space.contains(mat_vec(g.rows, list(r))) for r in space.rows)


def centralizer_shape_dim2_field(g, v0, w_space):
    """g preserves the V0 + W splitting and is V0-linear on W (the
    containment O(V0) x U(W) of the anisotropic-plane case)."""
    return (stabilizes(g, v0.space) and stabilizes(g, w_space)
            and _is_d_linear(g, v0, w_space))


def centralizer_shape_dim2_split(g, v0):
    """g preserves V0, W+ and W- (the SO(V0) x GL(W+) containment)."""
    if not stabilizes(g, v0.space):
        return False
    wplus, wminus = split_polarization(v0)
    return stabilizes(g, wplus) and stabilizes(g, wminus)


def d_torus(cfg, i, lam):
    """d_i(lam): e_i -> lam e_i, e_{-i} -> lam^{-1} e_{-i}, the matrix of
    the torus descriptor with weight lam on e_i (u on e_4)."""
    one = cfg.one()
    return GroupGenerator.torus(*(lam if k == i else one
                                  for k in (4, 1, 2, 3))).matrix(cfg)


def sc(k):
    return CFG.from_int(k)


def mat3(entries):
    return [[sc(x) if isinstance(x, int) else x for x in row] for row in entries]


def test_adjoint_identity_involution():
    ident = EndV.identity(CFG)
    assert adjoint(ident) == ident
    rng = random.Random(21)
    for _ in range(200):
        x = EndV(CFG, [[CFG.random(rng, width=1, vmin=0, vmax=1)
                        for _ in range(8)] for _ in range(8)])
        assert adjoint(adjoint(x)) == x


def test_u_root_in_so_and_isometry():
    lam = CFG.t()
    x = u_root_lie(CFG, 1, 2, lam)
    assert is_so(x)
    g = u_root(CFG, 1, 2, lam)
    assert is_isometry(g)
    assert is_isometry(d_torus(CFG, 1, CFG.one() + CFG.t()))


def test_so_random():
    rng = random.Random(22)
    for _ in range(50):
        x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        assert is_so(x)


def test_so_coords_roundtrip():
    rng = random.Random(23)
    for _ in range(20):
        x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
        y = EndV.zero(CFG)
        for label, c in zip(SO_LABELS, so_coords(x)):
            if isinstance(label, int):
                y = y + d_torus_lie(CFG, label, c)
            elif not c.is_zero:
                y = y + u_root_lie(CFG, *label, c)
        assert y == x
        assert so_matrix(CFG, so_coords(x)) == x


@pytest.mark.parametrize("p", (5, 7))
def test_so_coords_rejects_each_broken_entry(p):
    """so(V) membership is decided on the 56 SO_PLACES entries and the 8
    anti-diagonal ones; a break in either kind is refused, and the verdict
    is the adjoint's on random_so, random_g2_lie and the identity."""
    from g2kit.endo import SO_PLACES
    from g2kit.octonions import IDX
    from g2kit.triality import random_g2_lie
    cfg = FieldConfig(p, 8)
    c = cfg.one() + cfg.t()

    def with_entries(entries):
        return EndV.from_entries(cfg, entries)

    unpaired = with_entries({SO_PLACES[7][0]: c})
    (i, j), (k, l) = SO_PLACES[1]  # a diagonal pair D_2: (2, 2), (-2, -2)
    unnegated = with_entries({(i, j): c, (k, l): c})
    anti = with_entries({(IDX[-1], IDX[1]): c})
    for x in (unpaired, unnegated, anti):
        assert not is_so(x)
        with pytest.raises(DomainError):
            so_coords(x)
    assert so_coords(with_entries({(i, j): c, (k, l): -c}))[1] == c
    rng = random.Random(p)
    for x in ([random_so(cfg, rng, width=2) for _ in range(10)]
              + [random_g2_lie(cfg, rng, width=1) for _ in range(10)]
              + [EndV.identity(cfg)]):
        assert is_so(x) == (adjoint(x) == x * -1)
    assert not is_so(EndV.identity(cfg))


def test_lift_sl3_is_derivation():
    phi = mat3([[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    x = lift_sl3(phi, D_HYP)
    assert is_derivation(x)
    assert is_so(x)
    assert x.apply(octonion_unit(CFG)).is_zero


def test_lift_sl3_rejects_trace():
    with pytest.raises(LiftError):
        lift_sl3(mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), D_HYP)


def test_lift_sl3_zero():
    assert lift_sl3(mat3([[0] * 3] * 3), D_HYP).is_zero


def test_endv_is_zero_is_a_property():
    """EndV.is_zero is a bool attribute like Scalar.is_zero and
    Octonion.is_zero, not a bound method that is always truthy."""
    assert EndV.zero(CFG).is_zero is True
    assert EndV.identity(CFG).is_zero is False
    assert u_root_lie(CFG, 1, 2, CFG.t(3)).is_zero is False
    x = u_root_lie(CFG, 1, 2, CFG.t())
    assert (x - x).is_zero is True


def test_lift_sl3_eigenvalues():
    # phi = diag(a, b, -a-b) acts with eigenvalues {0, +-a, +-b, +-(a+b)}
    a, b = sc(1), sc(2)
    phi = mat3([[a, sc(0), sc(0)], [sc(0), b, sc(0)], [sc(0), sc(0), -(a + b)]])
    x = lift_sl3(phi, D_HYP)
    assert x.apply(E[1]) == E[1].scale(a)
    assert x.apply(E[-1]) == E[-1].scale(-a)
    assert x.apply(E[3]) == E[3].scale(-(a + b))
    assert x.apply(E[-4]).is_zero and x.apply(E[4]).is_zero


def test_lift_homomorphism():
    rng = random.Random(24)
    for _ in range(20):
        def rnd():
            m = [[CFG.random(rng, width=1, vmin=0, vmax=1) for _ in range(3)]
                 for _ in range(3)]
            tr = m[0][0] + m[1][1] + m[2][2]
            m[2][2] = m[2][2] - tr
            return m
        phi, psi = rnd(), rnd()
        br = [[sum((phi[i][k] * psi[k][j] - psi[i][k] * phi[k][j]
                    for k in range(3)), CFG.zero()) for j in range(3)]
              for i in range(3)]
        lhs = lift_sl3(br, D_HYP)
        rhs = commutator(lift_sl3(phi, D_HYP), lift_sl3(psi, D_HYP))
        assert lhs == rhs


def test_lift_acts_by_minus_transpose_on_wminus():
    # for any traceless phi, the lift acts on the dual basis of W- by the
    # negated transpose and kills D
    rng = random.Random(25)
    from g2kit.octonions import ordered_polarization
    wp, wm = ordered_polarization(D_HYP)
    for _ in range(10):
        m = [[CFG.random(rng, width=1, vmin=0, vmax=1) for _ in range(3)]
             for _ in range(3)]
        tr = m[0][0] + m[1][1] + m[2][2]
        m[2][2] = m[2][2] - tr
        x = lift_sl3(m, D_HYP)
        for b in D_HYP.basis:
            assert x.apply(b).is_zero
        for j in range(3):
            img = x.apply(wm[j])
            expect = Octonion(CFG, [CFG.zero()] * 8)
            for i in range(3):
                expect = expect - wm[i].scale(m[j][i])
            assert img == expect


def test_generic_so_not_derivation():
    x = d_torus_lie(CFG, 1, CFG.t())
    assert is_so(x)
    assert not is_derivation(x)


def test_bracket_of_derivations_is_derivation():
    phi = mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    psi = mat3([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    x, y = lift_sl3(phi, D_HYP), lift_sl3(psi, D_HYP)
    assert is_derivation(commutator(x, y))


def test_mixed_sign_roots_are_derivations():
    lam = CFG.t()
    for (i, j) in ((1, -2), (2, -3), (3, -1), (-1, 2)):
        assert is_derivation(u_root_lie(CFG, i, j, lam))
        g = u_root(CFG, i, j, lam)
        assert multiplicative_holds(g, g, g)


def test_hermitian_form_properties():
    d = anisotropic_plane(CFG)
    c = d.traceless_generator()
    w = d.orthogonal_basis_octonions()
    # f = tr o Phi and conjugate symmetry on a few vectors
    from g2kit.octonions import bilinear_f
    for x in w[:2]:
        for y in w[:2]:
            ph = hermitian_form(d, x, y)
            assert ph.trace() == bilinear_f(x, y)
            assert hermitian_form(d, y, x) == ph.conj()
            assert hermitian_form(d, c * x, y) == c * ph


def test_special_hermitian_basis():
    d = anisotropic_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    one = octonion_unit(CFG)
    assert wm.norm().is_zero and wp.norm().is_zero
    assert hermitian_form(d, wm, wp) == one
    assert w0 == (wm + wp) * (wm - wp)


def test_lift_su21_is_derivation():
    d = anisotropic_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    zero = Octonion(CFG, [CFG.zero()] * 8)
    # diagonal anti-hermitian traceless: diag(c, -2c, c) w.r.t. orthogonal
    # basis is not anti-hermitian in the Witt basis; use the Witt-adapted one:
    # phi(w-) = lam w-, phi(w+) = -conj(lam) w+, phi(w0) = (conj(lam)-lam) w0
    lam = c  # conj(lam) = -lam
    phi = [[lam, zero, zero],
           [zero, (lam.conj() - lam), zero],
           [zero, zero, -lam.conj()]]
    x = lift_su21(phi, d, [wm, w0, wp])
    assert is_derivation(x)
    assert x.apply(c).is_zero


def test_analyze_case_i():
    # eigenvalues and their negatives must stay pairwise distinct, which
    # forces t-dependence at p = 5
    a, b = CFG.t(-1), CFG.t(-1) + CFG.one()
    phi = [[a, CFG.zero(), CFG.zero()],
           [CFG.zero(), b, CFG.zero()],
           [CFG.zero(), CFG.zero(), -(a + b)]]
    beta = lift_sl3(phi, D_HYP)
    wit = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [E[-4].coords, E[4].coords])),
        WitnessBlock([-a, 1], Subspace(CFG, 8, [E[1].coords])),
        WitnessBlock([-b, 1], Subspace(CFG, 8, [E[2].coords])),
        WitnessBlock([a + b, 1], Subspace(CFG, 8, [E[3].coords])),
        WitnessBlock([a, 1], Subspace(CFG, 8, [E[-1].coords])),
        WitnessBlock([b, 1], Subspace(CFG, 8, [E[-2].coords])),
        WitnessBlock([-(a + b), 1], Subspace(CFG, 8, [E[-3].coords])),
    ]
    an = analyze_semisimple(beta, wit)
    assert an.case_tag == "(i) hyperbolic-plane"
    assert an.v0.space == D_HYP.space
    bw = an.extras["beta_wplus"]
    assert bw[0][0] == a and bw[1][1] == b


def test_analyze_case_iv_and_iii():
    d4 = standard_split_dim4(CFG)
    a = E[2] + E[-2]
    # case (iv): c^2 = t, a non-square
    c = E[1].scale(CFG.t()) + E[-1]  # traceless, Q = t, c^2 = -t
    beta = dim4_kernel_derivation(d4, a, c)
    assert is_derivation(beta)
    u = -CFG.t()
    wit = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [b.coords for b in d4.basis])),
        WitnessBlock([-u, 0, 1],
                     Subspace(CFG, 8, [E[2].coords, E[-2].coords,
                                       E[3].coords, E[-3].coords])),
    ]
    an = analyze_semisimple(beta, wit)
    assert an.case_tag == "(iv) dim4-hermitian"
    assert an.extras["u"] == u
    # case (iii): c = lam (e_-4 - e_4), c^2 = lam^2
    lam = CFG.t(-1)
    c2 = (E[-4] - E[4]).scale(lam)
    beta2 = dim4_kernel_derivation(d4, a, c2)
    assert is_derivation(beta2)
    wit2 = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [b.coords for b in d4.basis])),
        WitnessBlock([-lam, 1],
                     Subspace(CFG, 8, [(E[2]).coords, (E[-3]).coords])),
        WitnessBlock([lam, 1],
                     Subspace(CFG, 8, [(E[-2]).coords, (E[3]).coords])),
    ]
    an2 = analyze_semisimple(beta2, wit2)
    assert an2.case_tag == "(iii) dim4-split-eigen"
    assert an2.extras["lambda"] == lam
    # W_lambda = (e+ V0) a for the idempotent pair of F[c2/lam]
    wl = an2.extras["w_lambda"]
    eplus = E[-4]  # (1 + c2/lam)/2 for c2 = lam (e_-4 - e_4)
    for b in d4.basis:
        img = (eplus * b) * a
        if not img.is_zero:
            assert wl.contains(img.coords)


def test_analyze_case_ii():
    d = anisotropic_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    zero = Octonion(CFG, [CFG.zero()] * 8)
    lam = c.scale(CFG.t(-1))
    phi = [[lam, zero, zero],
           [zero, (lam.conj() - lam), zero],
           [zero, zero, -lam.conj()]]
    beta = lift_su21(phi, d, [wm, w0, wp])
    eps = -(c.norm())  # c^2 = eps
    u1 = CFG.t(-2) * eps
    u2 = CFG.t(-2) * eps * 4
    wit = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [b.coords for b in d.basis])),
        WitnessBlock([-u1, 0, 1],
                     Subspace(CFG, 8, [wm.coords, (c * wm).coords,
                                       wp.coords, (c * wp).coords])),
        WitnessBlock([-u2, 0, 1],
                     Subspace(CFG, 8, [w0.coords, (c * w0).coords])),
    ]
    an = analyze_semisimple(beta, wit)
    assert an.case_tag == "(ii) quadratic-extension"


def test_witness_rejects_bad_factor():
    beta = lift_sl3(mat3([[1, 0, 0], [0, 2, 0], [0, 0, -3]]), D_HYP)
    bad = [WitnessBlock([0, 1],
                        Subspace(CFG, 8, [E[-4].coords, E[4].coords,
                                          E[1].coords, E[-1].coords,
                                          E[2].coords, E[-2].coords,
                                          E[3].coords, E[-3].coords]))]
    with pytest.raises(WitnessError):
        analyze_semisimple(beta, bad)


def test_endv_json_roundtrip():
    rng = random.Random(77)
    x = random_so(CFG, rng, width=1, vmin=0, vmax=1)
    data = x.to_json()
    assert len(data) == 64
    assert EndV.from_json(CFG, data) == x
    unr = FieldConfig(5, 8, "unramified")
    y = random_so(unr, rng, width=2, vmin=0, vmax=1)
    assert EndV.from_json(unr, y.to_json()) == y


def test_centralizer_shapes():
    # split case: a torus element of GL(W+) centralizes the regular beta
    g = d_torus(CFG, 1, CFG.from_int(2))
    assert centralizer_shape_dim2_split(g, D_HYP)
    d = anisotropic_plane(CFG)
    ident = EndV.identity(CFG)
    assert centralizer_shape_dim2_field(ident, d,
                                        d.space.perp(
                                            __import__("g2kit.octonions",
                                                       fromlist=["gram_scalar"]
                                                       ).gram_scalar(CFG)))


def test_from_offset_places_the_entries_on_the_identity():
    """EndV.from_offset gives the digits of identity + from_entries: 1 + c
    for a diagonal entry c, the entry itself off the diagonal; u_root is
    1 + its root entries."""
    rng = random.Random(24)
    one = EndV.identity(CFG)

    def digits(x):
        return [(c.val, c.coeffs) for row in x.rows for c in row]
    for _ in range(30):
        entries = {(rng.randrange(8), rng.randrange(8)):
                   CFG.random(rng, width=rng.choice((1, 3)), vmin=-1, vmax=2)
                   for _ in range(rng.randrange(1, 7))}
        if rng.randrange(2):
            entries[(3, 3)] = CFG.one()
        got = EndV.from_offset(CFG, entries)
        assert digits(got) == digits(one + EndV.from_entries(CFG, entries))
    assert EndV.from_offset(CFG, {}) == one
    for i, j in ((1, 2), (-4, 3), (2, -1)):
        lam = CFG.t() + CFG.t(3)
        assert digits(u_root(CFG, i, j, lam)) \
            == digits(one + u_root_lie(CFG, i, j, lam))


def test_public_constructor_copies_and_checks_adopt_wraps():
    rows = [[sc(i + j) for j in range(8)] for i in range(8)]
    x = EndV(CFG, rows)
    rows[0][0] = sc(3)
    assert x.rows[0][0] == sc(0)
    with pytest.raises(DomainError):
        EndV(CFG, rows[:7])
    with pytest.raises(DomainError):
        EndV(CFG, [r[:7] for r in rows])
    y = EndV.adopt(CFG, rows)
    assert y.rows is rows and y == EndV(CFG, rows)
    # products, sums and inverses wrap their fresh rows unshared
    a, b = u_root(CFG, 1, 2, sc(2)), d_torus(CFG, 3, CFG.t())
    for z in (a * b, a + b, a - b, a.inverse(), a * 3, adjoint(a)):
        assert len(z.rows) == 8 and all(len(r) == 8 for r in z.rows)
        assert all(r is not s for r in z.rows for s in a.rows + b.rows)
    assert (a * b) == EndV(CFG, (a * b).rows)
