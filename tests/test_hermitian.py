"""endo.HermitianSpace against the code it replaced.

The ref_* functions and classes below are the hand-built hermitian
structures as they were before HermitianSpace: HermitianNorm's eval and
dual on its own 6 x 6 pairing system, HermitianModel's set-up with its own
F-basis, coordinate reduction and 12 x 6 pairing system, lift_su21 and
solve_dim2 with their own Gram matrices, d_linear_map and the candidate
scan of special_hermitian_basis.  The new code must agree with them digit
for digit, and raise the same errors, at p = 5 and 7 over all three
extensions."""

import random
from fractions import Fraction

import pytest

from g2kit.endo import (EndV, assemble, lift_su21, special_hermitian_basis)
from g2kit.errors import (DomainError, G2KitError, KindError, LiftError,
                          WitnessError)
from g2kit.linalg import (RowReduction, Subspace, kernel, lin_comb, mat_vec,
                          transpose)
from g2kit.norms import HermitianNorm
from g2kit.octonions import (Octonion, anisotropic_plane, bilinear_f,
                             gram_scalar, hyperbolic_plane, octonion_unit,
                             ramified_plane)
from g2kit.scalars import FieldConfig, dot
from g2kit.triality import (HermitianModel, TrialityTriple, det_d,
                            solve_dim2)

CONFIGS = [FieldConfig(p, 8, ext) for p in (5, 7)
           for ext in ("none", "unramified", "ramified")]
PLANES = (anisotropic_plane, ramified_plane)
VALUES = ((-1, 0, 1), (0, 0, 0), (-2, 0, 2))


def outcome(f, *args):
    """f(*args), or the type and message of the G2KitError it raises."""
    try:
        return f(*args)
    except G2KitError as exc:
        return type(exc), str(exc)


def coords(x):
    return x.coords if isinstance(x, Octonion) else x


def rows(x):
    return x.rows if isinstance(x, EndV) else x


def triple_rows(tri):
    if isinstance(tri, TrialityTriple):
        return [t.rows for t in tri]
    return tri


# -- the reference code -----------------------------------------------------------

def ref_hermitian_form(d, x, y):
    cfg = d.cfg
    c = d.traceless_generator()
    gamma = -(c.norm())  # c^2 = gamma
    half = cfg.from_int(2).inv()
    unit = octonion_unit(cfg)
    fxy = bilinear_f(x, y)
    fcxy = bilinear_f(c * x, y)
    return unit.scale(half * fxy) + c.scale(half * fcxy * gamma.inv())


def ref_hermitian_gram(d, wbasis):
    return [[ref_hermitian_form(d, x, y) for y in wbasis] for x in wbasis]


def ref_special_hermitian_basis(d):
    cfg = d.cfg
    w_oct = d.orthogonal_basis_octonions()
    cands = w_oct + [x + y for x in w_oct for y in w_oct if x != y]
    iso = None
    for cand in cands:
        if not cand.is_zero and cand.norm().is_zero:
            iso = cand
            break
    if iso is None:
        raise DomainError("no isotropic vector found in D-perp")
    partner = None
    for cand in cands:
        mu = ref_hermitian_form(d, cand, iso)
        if not mu.is_zero and not mu.norm().is_zero:
            partner = cand
            break
    if partner is None:
        raise DomainError("no dual partner found")
    ppp = ref_hermitian_form(d, partner, partner)
    ppi = ref_hermitian_form(d, partner, iso)
    half = cfg.from_int(2).inv()
    corr = (ppp * ppi.inv()).scale(half)
    partner = partner - corr * iso
    mu = ref_hermitian_form(d, iso, partner)
    partner = mu.conj().inv() * partner
    w0 = (iso + partner) * (iso - partner)
    return iso, w0, partner


class RefHermitianNorm:
    def __init__(self, d, basis, values):
        self.d = d
        self.cfg = d.cfg
        self.basis = list(basis)
        self.values = [Fraction(v) for v in values]
        self.c = d.traceless_generator()
        self.gamma = -(self.c.norm())
        vg = self.gamma.valuation
        self.e = 2 if (vg * 1) % 2 == 1 else 1
        self.vc = Fraction(self.e * vg, 2)
        cols = []
        for b in self.basis:
            cols.append(list(b.coords))
            cols.append(list((self.c * b).coords))
        self._reduction = RowReduction(transpose(cols))

    def v_fprime(self, x, y):
        cands = []
        if not x.is_zero:
            cands.append(Fraction(self.e) * x.valuation)
        if not y.is_zero:
            cands.append(Fraction(self.e) * y.valuation + self.vc)
        return min(cands) if cands else float("inf")

    def eval(self, w):
        if w.is_zero:
            return float("inf")
        co = self._reduction.solve(list(w.coords))
        return min(self.v_fprime(co[2 * k], co[2 * k + 1]) + a
                   for k, a in enumerate(self.values))

    def dual(self):
        cfg = self.cfg
        fbasis = []
        for b in self.basis:
            fbasis += [b, self.c * b]
        amat = []
        for b in self.basis:
            row1, rowc = [], []
            for x in fbasis:
                co = self.d.coordinates(ref_hermitian_form(self.d, x, b))
                row1.append(co[0])
                rowc.append(co[1])
            amat += [row1, rowc]
        reduction = RowReduction(amat)
        vecs = [x.coords for x in fbasis]
        dualb = []
        for k in range(len(self.basis)):
            rhs = [cfg.one() if i == 2 * k else cfg.zero()
                   for i in range(len(amat))]
            dualb.append(Octonion(cfg, lin_comb(cfg, reduction.solve(rhs),
                                                vecs)))
        return RefHermitianNorm(self.d, dualb, [-v for v in self.values])


class RefHermitianModel:
    def __init__(self, d):
        self.d = d
        self.cfg = d.cfg
        self.c = d.traceless_generator()
        self.unit = octonion_unit(self.cfg)
        woct = d.orthogonal_basis_octonions()
        a = self._first_anisotropic(woct)
        rest = self._perp_of(list(d.basis) + [a, self.c * a])
        b = self._first_anisotropic(rest)
        self.basis3 = [a, b, a * b]
        self.qab = (a * b).norm()
        self.fbasis = []
        for x in self.basis3:
            self.fbasis.append(x)
            self.fbasis.append(self.c * x)
        self._coords = RowReduction(transpose([list(z.coords)
                                               for z in self.fbasis]))
        amat = []
        for z in self.fbasis:
            row1, rowc = [], []
            for bb in self.fbasis:
                co = self.d.coordinates(ref_hermitian_form(self.d, z, bb))
                row1.append(co[0])
                rowc.append(co[1])
            amat.append(row1)
            amat.append(rowc)
        self._phi = RowReduction(amat)
        self._gamma = -self.c.norm()
        u = d.coordinates(self.unit)
        v = d.coordinates(self.c)
        self._rhs_rows = ([(self.qab * u[i], self.qab * v[i]) for i in (0, 1)]
                          + [(self.qab * v[i], self._gamma * self.qab * u[i])
                             for i in (0, 1)])

    def _first_anisotropic(self, vs):
        for cand in vs + [x + y for x in vs for y in vs if x != y]:
            if not cand.is_zero and not cand.norm().is_zero:
                return cand
        raise DomainError("no anisotropic vector found")

    def _perp_of(self, vs):
        sp = Subspace(self.cfg, 8, [v.coords for v in vs])
        gram = gram_scalar(self.cfg)
        perp = kernel([mat_vec(gram, list(r)) for r in sp.rows])
        return [Octonion(self.cfg, r)
                for r in Subspace(self.cfg, 8, perp).rows]

    def bar_wedge(self, w1, w2):
        cfg = self.cfg
        x = self._coords.solve(list(w1.coords))
        y = self._coords.solve(list(w2.coords))
        gx = [self._gamma * x[2 * k + 1] for k in range(3)]
        rhs_all = []
        for i, j in ((2, 4), (4, 0), (0, 2)):
            c0 = dot(cfg, [(1, x[i], y[j]), (1, gx[i // 2], y[j + 1]),
                           (-1, x[j], y[i]), (-1, gx[j // 2], y[i + 1])])
            c1 = dot(cfg, [(1, x[i], y[j + 1]), (1, x[i + 1], y[j]),
                           (-1, x[j], y[i + 1]), (-1, x[j + 1], y[i])])
            rhs_all += [dot(cfg, [(1, c0, r0), (1, c1, r1)])
                        for r0, r1 in self._rhs_rows]
        co = self._phi.solve(rhs_all)
        return Octonion(self.cfg, lin_comb(self.cfg, co,
                                           [z.coords for z in self.fbasis]))

    def product_via_decomposition(self, v1, w1, v2, w2):
        scalar_part = v1 * v2 - ref_hermitian_form(self.d, w1, w2)
        vector_part = v1 * w2 + w1 * v2 + self.bar_wedge(w1, w2)
        return scalar_part + vector_part


def ref_d_linear_map(d, v0_images, wbasis, g):
    cfg = d.cfg
    c = d.traceless_generator()
    basis_oct = list(d.basis)
    cols = [list(v.coords) for v in v0_images]
    for j, w in enumerate(wbasis):
        img = Octonion(cfg, [cfg.zero()] * 8)
        for i in range(3):
            if not g[i][j].is_zero:
                img = img + g[i][j] * wbasis[i]
        basis_oct += [w, c * w]
        cols += [list(img.coords), list((c * img).coords)]
    return assemble(cfg, basis_oct, cols)


def ref_lift_su21(phi, d, wbasis):
    cfg = d.cfg
    if d.kind != "field-dim2":
        raise KindError("su(2,1) lift needs an anisotropic plane")
    tr = phi[0][0] + phi[1][1] + phi[2][2]
    if not tr.is_zero:
        raise LiftError("matrix must be traceless over D")
    h = ref_hermitian_gram(d, wbasis)
    for i in range(3):
        for j in range(3):
            acc = Octonion(cfg, [cfg.zero()] * 8)
            for k in range(3):
                acc = acc + phi[k][i] * h[k][j] + h[i][k] * phi[k][j].conj()
            if not acc.is_zero:
                raise LiftError("matrix is not Phi-anti-hermitian")
    zero = Octonion(cfg, [cfg.zero()] * 8)
    return ref_d_linear_map(d, [zero for _ in d.basis], wbasis, phi)


def ref_solve_dim2(d, wbasis, lam1, g1, xi):
    cfg = d.cfg
    if d.kind != "field-dim2":
        raise KindError("this family needs an anisotropic plane")
    one = cfg.one()
    if lam1.norm() != one or not d.contains(lam1):
        raise WitnessError("lam1 must be a norm-1 element of D")
    if xi.norm() != one or not d.contains(xi):
        raise WitnessError("xi must be a norm-1 element of D")
    h = ref_hermitian_gram(d, wbasis)
    for i in range(3):
        for j in range(3):
            acc = Octonion(cfg, [cfg.zero()] * 8)
            for k in range(3):
                for l in range(3):
                    acc = acc + g1[k][i] * (h[k][l] * g1[l][j].conj())
            if acc != h[i][j]:
                raise WitnessError("g1 does not preserve the hermitian form")
    if xi * xi != lam1 * det_d(d, g1).conj():
        raise WitnessError(
            "witness does not satisfy xi^2 = lam1 conj(det g1)")
    xii = xi.inv()

    def stab(lam, g):
        return ref_d_linear_map(d, [lam * b for b in d.basis], wbasis, g)
    g_xi = [[xi * g1[i][j] for j in range(3)] for i in range(3)]
    g_xil = [[(xi * lam1.conj()) * g1[i][j] for j in range(3)]
             for i in range(3)]
    return TrialityTriple(stab(lam1, g1), stab(xii * lam1, g_xi),
                          stab(xi, g_xil), lie=False)


# -- the comparisons --------------------------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_special_basis_and_dual_bases_match_the_reference(cfg):
    for plane in PLANES:
        d = plane(cfg)
        basis = special_hermitian_basis(d)
        assert [w.coords for w in basis] \
            == [w.coords for w in ref_special_hermitian_basis(d)]
        for values in VALUES:
            new = HermitianNorm(d, basis, values)
            ref = RefHermitianNorm(d, basis, values)
            assert (new.e, new.vc) == (ref.e, ref.vc)
            dual, ref_dual = new.dual(), ref.dual()
            assert [z.coords for z in dual.basis] \
                == [z.coords for z in ref_dual.basis]
            assert dual.values == ref_dual.values
            probes = (list(basis) + dual.basis + new.space.fbasis
                      + [basis[0] + dual.basis[2]])
            for w in probes:
                assert outcome(new.eval, w) == outcome(ref.eval, w)
        # D is not in W: coordinates raise the same SingularError
        for x in (octonion_unit(cfg), d.traceless_generator()):
            assert outcome(new.eval, x) == outcome(ref.eval, x)
            assert isinstance(outcome(new.eval, x), tuple)


def random_d(model, rng, width):
    """x0 + x1 c with coordinates of the given width and valuations -2..2."""
    cfg = model.cfg
    return (model.unit.scale(cfg.random(rng, width=width, vmin=-2, vmax=2))
            + model.c.scale(cfg.random(rng, width=width, vmin=-2, vmax=2)))


def random_w(model, rng, width):
    out = Octonion(model.cfg, [model.cfg.zero()] * 8)
    for bb in model.basis3:
        out = out + random_d(model, rng, width) * bb
    return out


@pytest.mark.parametrize("ext", ("none", "unramified", "ramified"))
@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_bar_wedge_matches_the_reference(p, ext):
    """The 240-pair draw: 20 pairs of W-vectors per (p, extension), with
    D-coordinates of width 1 and 2 spread over valuations -2..2, where the
    window truncates and some pairs raise SingularError."""
    cfg = FieldConfig(p, 8, ext)
    d = anisotropic_plane(cfg)
    model, ref = HermitianModel(d), RefHermitianModel(d)
    assert [w.coords for w in model.space.basis] \
        == [w.coords for w in ref.basis3]
    assert [f.coords for f in model.space.fbasis] \
        == [f.coords for f in ref.fbasis]
    rng = random.Random(p)
    for width in (1, 2):
        for _ in range(10):
            w1, w2 = random_w(ref, rng, width), random_w(ref, rng, width)
            assert coords(outcome(model.bar_wedge, w1, w2)) \
                == coords(outcome(ref.bar_wedge, w1, w2))
            v1, v2 = random_d(ref, rng, 1), random_d(ref, rng, 1)
            assert coords(outcome(model.product_via_decomposition,
                                  v1, w1, v2, w2)) \
                == coords(outcome(ref.product_via_decomposition,
                                  v1, w1, v2, w2))
    w = ref.basis3[0]
    for x in (ref.unit, ref.c):
        for args in ((x, w), (w, x)):
            got = outcome(model.bar_wedge, *args)
            assert isinstance(got, tuple)
            assert got == outcome(ref.bar_wedge, *args)


def su21_phis(cfg, d):
    """The fixtures' anti-hermitian phi, and bad inputs: a trace, a
    traceless matrix that is not anti-hermitian."""
    c = d.traceless_generator()
    one = octonion_unit(cfg)
    z = Octonion(cfg, [cfg.zero()] * 8)
    lam = c.scale(cfg.t(-1))
    good = [[lam, z, z], [z, lam.conj() - lam, z], [z, z, -lam.conj()]]
    shear = [[z, c, z], [z, z, z], [z, z, z]]
    trace = [[one, z, z], [z, z, z], [z, z, z]]
    not_anti = [[one, z, z], [z, -one, z], [z, z, z]]
    return [good, shear, trace, not_anti]


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_lift_su21_matches_the_reference(cfg):
    for plane in PLANES:
        d = plane(cfg)
        basis = special_hermitian_basis(d)
        for phi in su21_phis(cfg, d):
            assert rows(outcome(lift_su21, phi, d, basis)) \
                == rows(outcome(ref_lift_su21, phi, d, basis))
    split = hyperbolic_plane(cfg)
    phi = su21_phis(cfg, anisotropic_plane(cfg))[0]
    assert outcome(lift_su21, phi, split, basis) \
        == outcome(ref_lift_su21, phi, split, basis)


def norm_one(cfg, d):
    """A norm-1 mu = x + y c with y != 0 and x, y in the residue field."""
    c = d.traceless_generator()
    one = octonion_unit(cfg)
    p = cfg.p
    if cfg.extension == "unramified":
        residue = [cfg.monomial((a, b), 0) for a in range(p) for b in range(p)]
    else:
        residue = [cfg.from_int(a) for a in range(p)]
    qc = c.norm()
    x, y = next((x, y) for x in residue for y in residue[1:]
                if x * x + y * y * qc == cfg.one())
    return one.scale(x) + c.scale(y)


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_solve_dim2_matches_the_reference(cfg):
    d = anisotropic_plane(cfg)
    basis = special_hermitian_basis(d)
    one = octonion_unit(cfg)
    z = Octonion(cfg, [cfg.zero()] * 8)
    ident3 = [[one if i == j else z for j in range(3)] for i in range(3)]
    mu = norm_one(cfg, d)
    # a unitary non-diagonal g1: swap w- and w+ and conjugate-scale w0
    swap = [[z, z, one], [z, mu, z], [one, z, z]]
    cases = [(one, ident3, one), (mu * mu, ident3, mu),
             (mu * mu, ident3, -mu),
             (mu * mu, ident3, one),          # bad witness
             (one, [[x.scale(cfg.from_int(2)) for x in r] for r in ident3],
              one),                           # g1 not unitary
             (one.scale(cfg.from_int(2)), ident3, one),  # lam1 not norm 1
             (one, swap, one), (mu, swap, mu)]
    for lam1, g1, xi in cases:
        assert triple_rows(outcome(solve_dim2, d, basis, lam1, g1, xi)) \
            == triple_rows(outcome(ref_solve_dim2, d, basis, lam1, g1, xi))
    split = hyperbolic_plane(cfg)
    assert outcome(solve_dim2, split, basis, one, ident3, one) \
        == outcome(ref_solve_dim2, split, basis, one, ident3, one)
