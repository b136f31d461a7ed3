"""The desk-scale fixture corpus: norms for each extension procedure and
a classified collection of strata covering the four cases, plus the
deliberately corrupted variants used to exercise the validators."""

from __future__ import annotations

from fractions import Fraction

from .endo import (HermitianSpace, d_torus_lie, dim4_kernel_derivation,
                   special_hermitian_basis)
from .linalg import Subspace
from .norms import HermitianNorm, NormFn, lattice_seq_from_norm, standard_norm
from .octonions import (Octonion, anisotropic_plane, basis_octonion,
                        hyperbolic_plane, ramified_plane, standard_split_dim4)
from .strata import (Stratum, StratumData, WitnessBlock, lift_type_d_sl3,
                     lift_type_d_su21)


THIRDS = (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))


def e(cfg, lbl):
    return basis_octonion(cfg, lbl)


def wplus_norm(cfg, values) -> NormFn:
    return NormFn(cfg, [e(cfg, 1), e(cfg, 2), e(cfg, 3)], values)


def sl3_norm_values():
    return [
        [0, 0, 0],
        list(THIRDS),
        [1, -1, 0],
        [Fraction(1, 2), Fraction(-1, 2), 0],
        [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)],
        [2, -1, -1],
    ]


def su21_values():
    return [0, 1, 2]


def dim4_witt_values():
    return [(0, 0), (1, -1), (Fraction(1, 2), 0), (Fraction(1, 3), 1),
            (2, Fraction(-1, 2))]


def _zero_oct(cfg):
    return Octonion(cfg, [cfg.zero()] * 8)


def _diag_phi(cfg, a, b):
    z = cfg.zero()
    return [[a, z, z], [z, b, z], [z, z, -(a + b)]]


def sl3_regular_data(cfg, scale=1, norm_values=(0, 0, 0), n=1, r=0):
    a = cfg.t(-scale)
    b = cfg.t(-scale) * (cfg.one() + cfg.t())
    phi = _diag_phi(cfg, a, b)
    blocks = [([-a, 1], [e(cfg, 1)]), ([-b, 1], [e(cfg, 2)]),
              ([a + b, 1], [e(cfg, 3)])]
    return StratumData(wplus_norm(cfg, list(norm_values)), n, r, phi,
                       blocks)


def case_i_strata(cfg):
    d = hyperbolic_plane(cfg)
    out = [lift_type_d_sl3(sl3_regular_data(cfg), d)]
    a = cfg.t(-1)
    merged = StratumData(
        wplus_norm(cfg, [0, 0, 0]), 1, 0, _diag_phi(cfg, a, a),
        [([-a, 1], [e(cfg, 1), e(cfg, 2)]), ([a + a, 1], [e(cfg, 3)])])
    out.append(lift_type_d_sl3(merged, d))
    out.append(lift_type_d_sl3(
        sl3_regular_data(cfg, norm_values=THIRDS, n=3), d))
    u = cfg.t(-2)
    z = cfg.zero()
    cubic = StratumData(
        wplus_norm(cfg, [0, 0, 0]), 2, 0,
        [[z, z, u], [cfg.one(), z, z], [z, cfg.one(), z]],
        [([-u, z, z, 1], [e(cfg, 1), e(cfg, 2), e(cfg, 3)])])
    out.append(lift_type_d_sl3(cubic, d))
    return out


def su21_stratum(cfg, plane, a_val=0, scale=1, n=1, r=0):
    d = plane
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    z = _zero_oct(cfg)
    lam = c.scale(cfg.t(-scale))
    phi = [[lam, z, z], [z, lam.conj() - lam, z], [z, z, -lam.conj()]]
    eps = -(c.norm())
    u1 = cfg.t(-2 * scale) * eps
    blocks = [([-u1, cfg.zero(), 1], HermitianSpace(d, [wm, wp]).fbasis),
              ([-(u1 * 4), cfg.zero(), 1], HermitianSpace(d, [w0]).fbasis)]
    ah = HermitianNorm(d, [wm, w0, wp], [-a_val, 0, a_val])
    return lift_type_d_su21(StratumData(ah, n, r, phi, blocks), d)


def case_ii_strata(cfg):
    return [
        su21_stratum(cfg, anisotropic_plane(cfg)),
        su21_stratum(cfg, anisotropic_plane(cfg), a_val=1),
        su21_stratum(cfg, ramified_plane(cfg)),
        su21_stratum(cfg, ramified_plane(cfg), a_val=1),
    ]


def _dim4_stratum(cfg, c, factors, n, r=0, a=None):
    d4 = standard_split_dim4(cfg)
    std_seq = lattice_seq_from_norm(standard_norm(cfg))
    a = a or (e(cfg, 2) + e(cfg, -2))
    beta = dim4_kernel_derivation(d4, a, c)
    blocks = [WitnessBlock([0, 1],
                           Subspace(cfg, 8, [b.coords for b in d4.basis]))]
    for coeffs, vecs in factors:
        blocks.append(WitnessBlock(coeffs,
                                   Subspace(cfg, 8, [v.coords for v in vecs])))
    return Stratum(std_seq, n, r, beta, blocks)


def case_iii_strata(cfg):
    out = []
    for scale, axis in ((1, 2), (2, 2), (1, 3)):
        lam = cfg.t(-scale)
        c = (e(cfg, -4) - e(cfg, 4)).scale(lam)
        other = 5 - axis  # 2 <-> 3
        a = e(cfg, axis) + e(cfg, -axis)
        wl = [e(cfg, axis), e(cfg, -other)]
        wml = [e(cfg, -axis), e(cfg, other)]
        out.append(_dim4_stratum(cfg, c, [([-lam, 1], wl), ([lam, 1], wml)],
                                 n=scale, a=a))
    return out


def case_iv_strata(cfg):
    out = []
    # a traceless unit-norm-class generator with -Q a non-square, valid
    # at every p: reuse the anisotropic-plane search
    c_unit = anisotropic_plane(cfg).traceless_generator()
    specs = [
        (e(cfg, 1) + e(cfg, -1).scale(cfg.t(-1)), 1),
        (e(cfg, 1).scale(cfg.t(-1)) + e(cfg, -1).scale(cfg.t(-2)), 2),
        (c_unit.scale(cfg.t(-1)), 1),
    ]
    for c, n in specs:
        u = -(c.norm())
        wvecs = [e(cfg, 2), e(cfg, -2), e(cfg, 3), e(cfg, -3)]
        out.append(_dim4_stratum(cfg, c, [([-u, cfg.zero(), 1], wvecs)], n=n))
    return out


def stratum_corpus(cfg):
    """At least three strata per classification case, tagged."""
    corpus = []
    for s in case_i_strata(cfg):
        corpus.append(("(i) hyperbolic-plane", s))
    for s in case_ii_strata(cfg):
        corpus.append(("(ii) quadratic-extension", s))
    for s in case_iii_strata(cfg):
        corpus.append(("(iii) dim4-split-eigen", s))
    for s in case_iv_strata(cfg):
        corpus.append(("(iv) dim4-hermitian", s))
    return corpus


def corrupted_strata(cfg):
    """Five deliberately broken fixtures, tagged by the check that must
    catch each of them."""
    d = hyperbolic_plane(cfg)
    base = lift_type_d_sl3(sl3_regular_data(cfg), d)
    deep = lift_type_d_sl3(sl3_regular_data(cfg, scale=2, n=2), d)
    out = [("valuation", Stratum(deep.seq, 1, 0, deep.beta, deep.witness))]
    w2 = list(base.witness)
    w2[1] = WitnessBlock(w2[2].factor, w2[1].space)
    out.append(("coprimality", Stratum(base.seq, 1, 0, base.beta, w2)))
    w3 = list(base.witness)
    w3[1] = WitnessBlock(w3[1].factor, base.witness[2].space)
    w3[2] = WitnessBlock(w3[2].factor, base.witness[1].space)
    out.append(("witness", Stratum(base.seq, 1, 0, base.beta, w3)))
    skew_basis = [e(cfg, -4), e(cfg, -1), e(cfg, -2), e(cfg, -3),
                  e(cfg, 3), e(cfg, 2), e(cfg, 1) + e(cfg, -4), e(cfg, 4)]
    skew = NormFn(cfg, skew_basis, [0, 0, 0, 0, 0, 0, 1, 0])
    out.append(("lattice-splitting",
                Stratum(lattice_seq_from_norm(skew), 1, 0, base.beta,
                        base.witness)))
    x = d_torus_lie(cfg, 1, cfg.t(-1))
    wit = [
        WitnessBlock([0, 1], Subspace(cfg, 8, [
            e(cfg, -4).coords, e(cfg, 4).coords, e(cfg, 2).coords,
            e(cfg, -2).coords, e(cfg, 3).coords, e(cfg, -3).coords])),
        WitnessBlock([-cfg.t(-1), 1], Subspace(cfg, 8, [e(cfg, 1).coords])),
        WitnessBlock([cfg.t(-1), 1], Subspace(cfg, 8, [e(cfg, -1).coords])),
    ]
    std_seq = lattice_seq_from_norm(standard_norm(cfg))
    out.append(("derivation", Stratum(std_seq, 1, 0, x, wit)))
    return out
