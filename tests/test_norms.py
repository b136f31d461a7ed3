"""Tests for norms, duality, volume, extensions and lattice sequences."""

import math
import random
from fractions import Fraction

import pytest

from g2kit import fixtures
from g2kit.endo import EndV, d_torus_lie, u_root_lie
from g2kit.errors import (ConfigMismatchError, DomainError, DualityError,
                          VolumeError)
from g2kit.linalg import Subspace
from g2kit.norms import (HermitianNorm, NormFn, dual_norm, extend_dim4,
                         extend_sl3, extend_su21, filtration_lattice,
                         is_algebra_norm, is_self_dual, lattice_seq_from_norm,
                         seq_valuation, sharp_dual, special_basis,
                         standard_norm, volume)
from g2kit.octonions import (Octonion, anisotropic_plane, basis_octonion,
                             bilinear_f, division_quaternion, hyperbolic_plane,
                             octonion_unit, ordered_polarization,
                             ramified_plane, split_polarization,
                             standard_split_dim4)
from g2kit.scalars import FieldConfig
from oracles import ref_is_algebra_norm, ref_norm_eval

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
D = hyperbolic_plane(CFG)
WPLUS_BASIS = [E[1], E[2], E[3]]


def wplus_norm(values):
    return NormFn(CFG, WPLUS_BASIS, values)


def test_eval_basics():
    alpha = wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    assert alpha.eval(E[1]) == Fraction(1, 3)
    assert alpha.eval(E[1].scale(CFG.t())) == Fraction(4, 3)
    assert alpha.eval(E[1] + E[3]) == Fraction(-2, 3)
    assert alpha.eval(Octonion_zero()) == math.inf
    with pytest.raises(DomainError):
        alpha.eval(E[4])


def test_eval_tests_membership_below_dimension_8(monkeypatch):
    """A 3-dimensional norm still rejects a vector outside its span; an
    8-dimensional one spans V, forms no membership test, and still
    rejects a vector of another field config."""
    alpha = wplus_norm([0, 0, 0])
    for x in (E[4], E[1] + E[-1]):
        with pytest.raises(DomainError, match="outside the span"):
            alpha.eval(x)
    full = standard_norm(CFG)
    calls = []
    contains = Subspace.contains
    monkeypatch.setattr(Subspace, "contains",
                        lambda self, v: calls.append(v) or contains(self, v))
    assert [full.eval(x) for x in E.values()] == [0] * 8
    assert calls == []
    other = FieldConfig(7, 8)
    with pytest.raises(ConfigMismatchError):
        full.eval(basis_octonion(other, 1) + basis_octonion(other, -2))


def Octonion_zero():
    from g2kit.octonions import Octonion
    return Octonion(CFG, [CFG.zero()] * 8)


def test_split_plane_norm_formula():
    # alpha(xi e+ + mu e-) = min(v(xi), v(mu)) for the plane norm
    alpha0 = NormFn(CFG, [E[-4], E[4]], [0, 0])
    x = E[-4].scale(CFG.t(2)) + E[4].scale(CFG.t(-1))
    assert alpha0.eval(x) == -1


def test_anisotropic_restriction_is_half_vq():
    d = anisotropic_plane(CFG)
    c = d.traceless_generator()
    alpha0 = NormFn(CFG, [octonion_unit(CFG), c],
                    [0, Fraction(c.norm().valuation, 2)])
    # fixture elements: alpha = (1/2) v(Q(x))
    rng = random.Random(51)
    for _ in range(50):
        a = CFG.random(rng, width=1, vmin=-1, vmax=1)
        b = CFG.random(rng, width=1, vmin=-1, vmax=1)
        x = octonion_unit(CFG).scale(a) + c.scale(b)
        if x.is_zero:
            continue
        assert alpha0.eval(x) == Fraction(x.norm().valuation, 2)


def test_dual_norm_rules():
    # dual basis rule alpha*(b_i*) = -alpha(b_i) on a plane where f is
    # non-degenerate, and involutivity
    alpha = NormFn(CFG, [E[-4], E[4]], [Fraction(1, 2), Fraction(-1, 2)])
    dual = dual_norm(alpha)
    assert sorted(dual.values) == [Fraction(-1, 2), Fraction(1, 2)]
    assert dual_norm(dual) == alpha
    std = standard_norm(CFG)
    assert dual_norm(std) == std
    full = extend_sl3(wplus_norm([1, -1, 0]), D)
    assert dual_norm(dual_norm(full)) == full


def test_norm_equality_is_two_way():
    # y takes x's values on y's splitting basis, but y(e2) = -1 < x(e2) = 0:
    # equal only if each norm also takes the other's values on its basis
    x = NormFn(CFG, [E[1], E[2]], [0, 0])
    y = NormFn(CFG, [E[1], E[1] + E[2].scale(CFG.t())], [0, 0])
    assert x.eval(E[1] + E[2].scale(CFG.t())) == 0 and y.eval(E[2]) == -1
    assert x != y and y != x
    assert x == NormFn(CFG, [E[1], E[1] + E[2]], [0, 0])


def test_sharp_dual_and_self_duality():
    wplus, wminus = split_polarization(D)
    alpha_p = wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    sharp = sharp_dual(alpha_p, wminus)
    for b in sharp.basis:
        assert wminus.contains(b.coords)
    ext = extend_sl3(alpha_p, D)
    assert is_self_dual(ext)


def test_standard_norm_is_algebra_norm():
    std = standard_norm(CFG)
    assert is_algebra_norm(std)
    assert is_self_dual(std)
    assert std.eval(octonion_unit(CFG)) == 0


def test_volume():
    assert volume(wplus_norm([0, 0, 0]), D) == 0
    assert volume(wplus_norm([1, 0, 0]), D) == -1
    assert volume(wplus_norm([Fraction(1, 3)] * 2 + [Fraction(-2, 3)]), D) == 0
    # scaled basis shifts the reference lattice
    tb = [E[1].scale(CFG.t()), E[2], E[3]]
    assert volume(NormFn(CFG, tb, [0, 0, 0]), D) == 1
    assert volume(NormFn(CFG, tb, [1, 0, 0]), D) == 0


def test_special_basis_products():
    f1, f2, f3 = special_basis(D)
    wp, wm = ordered_polarization(D)
    assert f3 == wm[0] * wm[1]
    # volume is invariant across special bases built from other bases
    alt = [E[2], E[3], (dualize(E[2]) * dualize(E[3]))]
    assert volume(NormFn(CFG, alt, [0, 0, 0]), D) == 0


def dualize(x):
    # dual partner of e_i is e_-i in the canonical polarization
    from g2kit.octonions import IDX, LABELS
    lbl = next(l for l in LABELS if x == E[l])
    return E[-lbl]


def test_extend_sl3_standard():
    ext = extend_sl3(wplus_norm([0, 0, 0]), D)
    assert ext == standard_norm(CFG)


def test_extend_sl3_thirds():
    alpha_p = wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    ext = extend_sl3(alpha_p, D)
    assert is_algebra_norm(ext)
    assert is_self_dual(ext)
    assert lattice_seq_from_norm(ext).m == 3


def test_extend_sl3_rejects_nonzero_volume():
    with pytest.raises(VolumeError):
        extend_sl3(wplus_norm([1, 0, 0]), D)


def test_extend_sl3_fixture_set():
    fixtures = [
        [0, 0, 0],
        [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
        [1, -1, 0],
        [Fraction(1, 2), Fraction(-1, 2), 0],
        [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)],
        [2, -1, -1],
    ]
    for vals in fixtures:
        ext = extend_sl3(wplus_norm(vals), D)
        assert is_algebra_norm(ext)
        assert is_self_dual(ext)
        for b, v in zip(WPLUS_BASIS, vals):
            assert ext.eval(b) == v


def test_extension_uniqueness_by_perturbation():
    alpha_p = wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    ext = extend_sl3(alpha_p, D)
    # perturbing the forced plane values breaks the algebra-norm property
    bad_vals = list(ext.values)
    bad_vals[0] += 1
    bad = NormFn(CFG, ext.basis, bad_vals)
    assert not (is_algebra_norm(bad) and is_self_dual(bad))


def fixture_hermitian(d):
    from g2kit.endo import special_hermitian_basis
    wm, w0, wp = special_hermitian_basis(d)
    return wm, w0, wp


@pytest.mark.parametrize("plane,a_vals", [
    ("unramified", [0, 1, 2]),
    ("ramified", [0, 1, 3]),
])
def test_extend_su21(plane, a_vals):
    d = anisotropic_plane(CFG) if plane == "unramified" else ramified_plane(CFG)
    wm, w0, wp = fixture_hermitian(d)
    for a in a_vals:
        ah = HermitianNorm(d, [wm, w0, wp], [-a, 0, a])
        assert ah.is_self_dual()
        ext = extend_su21(ah, d)
        assert is_algebra_norm(ext)
        assert is_self_dual(ext)
        e = ah.e
        assert ext.eval(wm) == Fraction(-a, e)
        assert ext.eval(wp) == Fraction(a, e)
        assert ext.eval(w0) == 0
    assert (2 if plane == "ramified" else 1) == ah.e


def test_su21_rejects_non_self_dual():
    d = anisotropic_plane(CFG)
    wm, w0, wp = fixture_hermitian(d)
    ah = HermitianNorm(d, [wm, w0, wp], [1, 0, 1])
    with pytest.raises(DualityError):
        extend_su21(ah, d)


def test_extend_dim4_split():
    d4 = standard_split_dim4(CFG)
    cases = [(0, 0), (1, -1), (Fraction(1, 2), 0), (Fraction(1, 3), 1),
             (2, Fraction(-1, 2))]
    for ah, ak in cases:
        alpha_w = NormFn(CFG, [E[2], E[-2], E[3], E[-3]], [ah, -ah, ak, -ak])
        ext = extend_dim4(alpha_w, d4)
        assert is_algebra_norm(ext)
        assert is_self_dual(ext)
        for b, v in zip(alpha_w.basis, alpha_w.values):
            assert ext.eval(b) == v
    # standard case reproduces the standard norm
    ext0 = extend_dim4(NormFn(CFG, [E[2], E[-2], E[3], E[-3]], [0] * 4), d4)
    assert ext0 == standard_norm(CFG)


def test_extend_dim4_uniqueness():
    d4 = standard_split_dim4(CFG)
    alpha_w = NormFn(CFG, [E[2], E[-2], E[3], E[-3]], [1, -1, 0, 0])
    ext = extend_dim4(alpha_w, d4)
    # perturbing the forced value on e+ b breaks the extension
    bad_vals = list(ext.values)
    bad_vals[2] += 1
    bad = NormFn(CFG, ext.basis, bad_vals)
    assert not (is_algebra_norm(bad) and is_self_dual(bad))


def test_extend_dim4_anisotropic():
    d4 = division_quaternion(CFG)
    wbasis = d4.orthogonal_basis_octonions()
    # orthogonalize W (it is D4 * a for an anisotropic a)
    ortho = []
    for x in wbasis:
        y = x
        for z in ortho:
            y = y - z.scale(bilinear_f(y, z) * (2 * z.norm()).inv())
        if not y.is_zero:
            ortho.append(y)
    alpha_w = NormFn(CFG, ortho,
                     [Fraction(x.norm().valuation, 2) for x in ortho])
    ext = extend_dim4(alpha_w, d4)
    assert is_algebra_norm(ext)
    assert is_self_dual(ext)
    assert lattice_seq_from_norm(ext).m == 2


def test_maximinorante_inequality():
    # alpha(x) + alpha(y) <= v(f(x, y)) for accepted self-dual norms
    rng = random.Random(52)
    alpha = extend_sl3(
        wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), D)
    from g2kit.octonions import random_octonion
    for _ in range(500):
        x = random_octonion(CFG, rng)
        y = random_octonion(CFG, rng)
        fv = bilinear_f(x, y)
        if x.is_zero or y.is_zero or fv.is_zero:
            continue
        assert alpha.eval(x) + alpha.eval(y) <= fv.valuation


def test_lattice_seq_standard():
    seq = lattice_seq_from_norm(standard_norm(CFG))
    assert seq.m == 1
    assert seq.exponents(0) == (0,) * 8
    assert seq.exponents(1) == (1,) * 8
    assert is_self_dual(seq.norm)


def test_lattice_seq_jump_table():
    alpha = extend_sl3(
        wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), D)
    seq = lattice_seq_from_norm(alpha)
    assert seq.m == 3
    table = seq.jump_table()
    assert len(table.splitlines()) == 3


def test_filtration_lattice_bounds():
    std = lattice_seq_from_norm(standard_norm(CFG))
    a0 = filtration_lattice(std, 0)
    for l in range(8):
        for j in range(8):
            assert a0.entry_bound(l, j) == 0
    assert a0.contains(EndV.identity(CFG))
    a1 = filtration_lattice(std, 1)
    assert not a1.contains(EndV.identity(CFG))
    assert a1.contains(EndV.identity(CFG) * CFG.t())


def test_filtration_multiplicativity():
    alpha = extend_sl3(
        wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), D)
    seq = lattice_seq_from_norm(alpha)
    gens = []
    for k in (1, 2):
        fl = filtration_lattice(seq, k)
        for i in (1, 2, 3, 4):
            gens.append((k, d_torus_lie(CFG, i, CFG.t(fl.entry_bound(0, 0)))))
        from g2kit.octonions import IDX
        for (i, j) in ((1, 2), (4, 1), (-1, -3), (2, -4)):
            b = fl.entry_bound(IDX[-j], IDX[i])
            gens.append((k, u_root_lie(CFG, i, j, CFG.t(b))))
    for (k1, x) in gens:
        for (k2, y) in gens:
            prod = x * y
            assert filtration_lattice(seq, k1 + k2).contains(prod)


def test_exponent_identities():
    # alpha(e4) = alpha(e-4) = 0; alpha(e_i) + alpha(e_-i) = 0;
    # sum over i of alpha(e_i) = 0: triality stability of the bounds
    for vals in ([0, 0, 0], [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
                 [1, -1, 0]):
        ext = extend_sl3(wplus_norm(vals), D)
        assert ext.eval(E[4]) == 0 and ext.eval(E[-4]) == 0
        total = Fraction(0)
        for i in (1, 2, 3):
            assert ext.eval(E[i]) + ext.eval(E[-i]) == 0
            total += ext.eval(E[i])
        assert total == 0


def test_seq_valuation():
    std = lattice_seq_from_norm(standard_norm(CFG))
    x = d_torus_lie(CFG, 1, CFG.t(-1))
    assert seq_valuation(std, x) == -1
    assert seq_valuation(std, EndV.identity(CFG)) == 0
    alpha = extend_sl3(
        wplus_norm([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), D)
    seq3 = lattice_seq_from_norm(alpha)
    assert seq_valuation(seq3, EndV.identity(CFG)) == 0
    assert seq_valuation(seq3, u_root_lie(CFG, 1, 2, CFG.one())) == -2


def test_norm_json():
    alpha = wplus_norm([Fraction(1, 3), 0, Fraction(-1, 3)])
    data = alpha.to_json()
    assert data["values"] == ["1/3", "0", "-1/3"]
    assert len(data["basis"]) == 3


# -- evaluation in integer keys against the Fraction minimum -----------------------

KEY_CONFIGS = [FieldConfig(p, 8, ext) for p, ext in (
    (5, "none"), (7, "none"), (11, "none"), (5, "unramified"),
    (7, "unramified"), (5, "ramified"), (7, "ramified"))]


def _key_norms(cfg, rng):
    """(norm, is an algebra norm): the sl3 extensions of the fixture values
    (thirds and halves among them), each with one value raised, the
    standard norm, a norm on a random basis and a W+ norm."""
    d = hyperbolic_plane(cfg)
    out = [(standard_norm(cfg), True)]
    for vals in fixtures.sl3_norm_values():
        ext = extend_sl3(fixtures.wplus_norm(cfg, vals), d)
        bad = list(ext.values)
        bad[rng.randrange(8)] += Fraction(1, 6)
        out += [(ext, True), (NormFn(cfg, ext.basis, bad), False)]
    while True:
        basis = [Octonion(cfg, [cfg.random(rng, width=2) for _ in range(8)])
                 for _ in range(8)]
        if Subspace(cfg, 8, [b.coords for b in basis]).dim == 8:
            break
    out.append((NormFn(cfg, basis, [Fraction(rng.randrange(-6, 7), 6)
                                    for _ in range(8)]), None))
    out.append((fixtures.wplus_norm(cfg, fixtures.THIRDS), None))
    return out


@pytest.mark.parametrize("cfg", KEY_CONFIGS, ids=repr)
def test_eval_in_integer_keys_is_the_fraction_minimum(cfg):
    """NormFn.eval equals min(v(c_i) + a_i) formed in Fractions, as a
    Fraction, on vectors of the norm's span; is_algebra_norm, which
    compares integer keys, agrees with the same test in Fractions."""
    rng = random.Random(cfg.p * 10 + len(cfg.extension))
    for alpha, algebra in _key_norms(cfg, rng):
        for _ in range(25):
            coeffs = [cfg.random(rng, width=2) if rng.random() < 0.6
                      else cfg.zero() for _ in alpha.basis]
            x = sum((b.scale(c) for b, c in zip(alpha.basis, coeffs)),
                    Octonion(cfg, [cfg.zero()] * 8))
            got, want = alpha.eval(x), ref_norm_eval(alpha, x)
            assert got == want
            assert got == math.inf or type(got) is Fraction
        if alpha.dim == 8:
            want = ref_is_algebra_norm(alpha)
            assert is_algebra_norm(alpha) is want
            assert algebra is None or want is algebra
