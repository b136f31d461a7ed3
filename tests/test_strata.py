"""Tests for semisimple strata: validation, classification, type-D lifts."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from g2kit import strata as strata_mod
from g2kit.endo import (EndV, dim4_kernel_derivation, lift_sl3, lift_su21,
                        special_hermitian_basis)
from g2kit.errors import LiftError, VolumeError, WitnessError
from g2kit.linalg import Subspace
from g2kit.norms import (HermitianNorm, NormFn, filtration_lattice,
                         lattice_seq_from_norm, seq_valuation, standard_norm)
from g2kit.octonions import (Octonion, anisotropic_plane, basis_octonion,
                             hyperbolic_plane, ramified_plane,
                             standard_split_dim4)
from g2kit.scalars import FieldConfig, Scalar
from g2kit.strata import (Stratum, StratumData, WitnessBlock,
                          _analyze_semisimple, classify, lift_type_d_sl3,
                          lift_type_d_su21, validate)
from g2kit.fixtures import (case_i_strata, case_ii_strata, case_iii_strata,
                            case_iv_strata, corrupted_strata,
                            sl3_regular_data as fixture_sl3, stratum_corpus)

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
D = hyperbolic_plane(CFG)
D4 = standard_split_dim4(CFG)
STD_SEQ = lattice_seq_from_norm(standard_norm(CFG))
Z = CFG.zero()
WPLUS = [E[1], E[2], E[3]]


def wplus_norm(values):
    return NormFn(CFG, WPLUS, values)


def diag_phi(a, b):
    return [[a, Z, Z], [Z, b, Z], [Z, Z, -(a + b)]]


def sl3_regular_data(scale=1, norm_values=(0, 0, 0), n=1, r=0):
    a = CFG.t(-scale)
    b = CFG.t(-scale) * (CFG.one() + CFG.t())
    phi = diag_phi(a, b)
    blocks = [([-a, 1], [E[1]]), ([-b, 1], [E[2]]), ([a + b, 1], [E[3]])]
    return StratumData(wplus_norm(list(norm_values)), n, r, phi, blocks)


def case_i_fixtures():
    return case_i_strata(CFG)


def su21_data(plane, scale=1, a_val=0, n=1, r=0):
    d = plane
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    lam = c.scale(CFG.t(-scale))
    phi = [[lam, zero_oct(), zero_oct()],
           [zero_oct(), lam.conj() - lam, zero_oct()],
           [zero_oct(), zero_oct(), -lam.conj()]]
    eps = -(c.norm())
    u1 = CFG.t(-2 * scale) * eps
    u2 = u1 * 4
    blocks = [([-u1, Z, 1], [wm, c * wm, wp, c * wp]),
              ([-u2, Z, 1], [w0, c * w0])]
    ah = HermitianNorm(d, [wm, w0, wp], [-a_val, 0, a_val])
    return d, StratumData(ah, n, r, phi, blocks)


def zero_oct():
    return Octonion(CFG, [Z] * 8)


def case_ii_fixtures():
    return case_ii_strata(CFG)


def dim4_stratum(c, factors, n, r=0, a=None):
    a = a or (E[2] + E[-2])
    beta = dim4_kernel_derivation(D4, a, c)
    blocks = [WitnessBlock([0, 1], Subspace(CFG, 8,
                                            [b.coords for b in D4.basis]))]
    for coeffs, vecs in factors:
        blocks.append(WitnessBlock(coeffs, Subspace(CFG, 8,
                                                    [v.coords for v in vecs])))
    return Stratum(STD_SEQ, n, r, beta, blocks)


def case_iii_fixtures():
    return case_iii_strata(CFG)


def case_iv_fixtures():
    return case_iv_strata(CFG)


def test_case_i_classification():
    for s in case_i_fixtures():
        rep = validate(s)
        assert rep["violations"] == []
        cl = classify(s)
        assert cl.case_tag == "(i) hyperbolic-plane"
        assert cl.restricted["n"] == s.n


def test_case_ii_classification():
    for s in case_ii_fixtures():
        rep = validate(s)
        assert rep["violations"] == []
        cl = classify(s)
        assert cl.case_tag == "(ii) quadratic-extension"


def test_case_iii_classification():
    for s in case_iii_fixtures():
        rep = validate(s)
        assert rep["violations"] == []
        cl = classify(s)
        assert cl.case_tag == "(iii) dim4-split-eigen"


def test_case_iv_classification():
    for s in case_iv_fixtures():
        rep = validate(s)
        assert rep["violations"] == []
        cl = classify(s)
        assert cl.case_tag == "(iv) dim4-hermitian"
        assert not cl.restricted["u"].is_square()


def test_null_stratum():
    s = Stratum(STD_SEQ, 1, 1, EndV.zero(CFG),
                [WitnessBlock([0, 1],
                              Subspace(CFG, 8,
                                       [[CFG.one() if i == j else Z
                                         for j in range(8)]
                                        for i in range(8)]))])
    assert validate(s)["violations"] == []
    assert classify(s).case_tag == "null"


def test_lift_preserves_depth():
    for s in case_i_fixtures():
        assert seq_valuation(s.seq, s.beta) == -s.n


def test_lift_roundtrip_recovers_matrix():
    data = sl3_regular_data()

    s = lift_type_d_sl3(data, D)
    cl = classify(s)
    bw = cl.restricted["beta_matrix"]
    for i in range(3):
        for j in range(3):
            assert bw[i][j] == data.phi[i][j]
    # su(2,1) flavor: the lift acts on W exactly as the input matrix
    d, data2 = su21_data(anisotropic_plane(CFG))
    s2 = lift_type_d_su21(data2, d)
    beta_direct = lift_su21(data2.phi, d, data2.norm.basis)
    assert s2.beta == beta_direct


def test_zero_stratum_lift():
    zphi = [[Z, Z, Z], [Z, Z, Z], [Z, Z, Z]]
    data = StratumData(wplus_norm([0, 0, 0]), 1, 1, zphi,
                       [([0, 1], [E[1], E[2], E[3]])])
    s = lift_type_d_sl3(data, D)
    assert s.is_null
    assert classify(s).case_tag == "null"


def test_lift_rejects_bad_inputs():
    a = CFG.t(-1)
    bad_trace = [[a, Z, Z], [Z, a, Z], [Z, Z, a]]
    data = StratumData(wplus_norm([0, 0, 0]), 1, 0, bad_trace,
                       [([-a, 1], [E[1], E[2], E[3]])])
    with pytest.raises(LiftError):
        lift_type_d_sl3(data, D)
    data2 = sl3_regular_data(norm_values=(1, 0, 0))
    with pytest.raises(VolumeError):
        lift_type_d_sl3(data2, D)


def test_lift_congruence_compatibility():
    # beta' = gamma' mod A_{-(r+1)} implies the lifts are congruent
    r = 0
    data_beta = sl3_regular_data(r=r)
    pert = CFG.one()  # valuation 0 >= -(r+1) + 1
    phi_gamma = [row[:] for row in data_beta.phi]
    phi_gamma[0][0] = phi_gamma[0][0] + pert
    phi_gamma[2][2] = phi_gamma[2][2] - pert
    data_gamma = StratumData(data_beta.norm, 1, r, phi_gamma,
                             [([-phi_gamma[0][0], 1], [E[1]]),
                              ([-phi_gamma[1][1], 1], [E[2]]),
                              ([-phi_gamma[2][2], 1], [E[3]])])
    s_beta = lift_type_d_sl3(data_beta, D)
    s_gamma = lift_type_d_sl3(data_gamma, D)
    diff = s_beta.beta - s_gamma.beta
    assert filtration_lattice(s_beta.seq, -(r + 1)).contains(diff)


def test_reflected_polynomial_coprimality():
    # gcd facts on witness polynomials P+(X) and its reflection
    s = case_i_fixtures()[3]  # irreducible cubic
    rep = validate(s)
    assert rep["violations"] == []
    names = [c["name"] for c in rep["checks"]]
    assert "coprimality" in names


def corrupted_fixtures():
    return corrupted_strata(CFG)


def test_corrupted_fixtures_are_caught():
    for name, s in corrupted_fixtures():
        rep = validate(s)
        assert rep["violations"], f"corruption {name} not caught"
        assert any(name in v for v in rep["violations"]), \
            f"corruption {name} reported as {rep['violations']}"


def test_validate_decides_coprimality_once(monkeypatch):
    # one gcd per pair of witness factors, for the witness and the
    # coprimality records together (each used to compute its own)
    calls = []
    gcd = strata_mod._poly_coprime

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(strata_mod, "_poly_coprime", counting)
    strata = [("case-i", s) for s in case_i_strata(CFG)] + corrupted_fixtures()
    for name, s in strata:
        del calls[:]
        rep = validate(s)
        k = len(s.witness)
        assert 0 < len(calls) <= k * (k - 1) // 2, name
        status = {c["name"]: c["status"] for c in rep["checks"]}
        if name == "coprimality":
            assert status["coprimality"] == status["witness"] == "fail"
        elif name == "case-i":
            assert status["coprimality"] == status["witness"] == "pass"


def test_validate_still_checks_coprimality():
    # block 0 is ker(beta); x (x + a) still annihilates it, but shares the
    # root -a with the factor x + a of block 1
    s = case_i_strata(CFG)[0]
    assert validate(s)["violations"] == []
    b0, b1 = s.witness[:2]
    assert b0.factor == [0, 1] and len(b1.factor) == 2
    bad = Stratum(s.seq, s.n, s.r, s.beta,
                  [WitnessBlock([0, b1.factor[0], 1], b0.space)]
                  + s.witness[1:])
    rep = validate(bad)
    assert {c["name"]: c["status"] for c in rep["checks"]}["witness"] == "fail"
    assert "witness: witness factors are not coprime" in rep["violations"]
    with pytest.raises(WitnessError, match="not coprime"):
        classify(bad)


def test_stratum_json():
    s = lift_type_d_sl3(sl3_regular_data(), D)
    data = s.to_json()
    assert set(data) == {"lattice", "n", "r", "beta", "witness"}
    assert data["n"] == 1


def test_stratum_corpus_coverage():
    corpus = stratum_corpus(CFG)
    assert len(corpus) >= 12
    by_case = {}
    for tag, s in corpus:
        by_case.setdefault(tag, []).append(s)
    assert all(len(v) >= 3 for v in by_case.values())
    for tag, s in corpus:
        assert classify(s).case_tag == tag


def test_zero_eigenvalue_enlarges_kernel():
    # a lift with a zero eigenvalue on W+ is rejected from case (i): the
    # honest kernel is the 4-dimensional composition subalgebra D + W0,
    # and the analysis lands in the split dim-4 case
    a = CFG.t(-1)
    phi = diag_phi(a, -a)  # eigenvalues (a, -a, 0)
    data = StratumData(
        wplus_norm([0, 0, 0]), 1, 0, phi,
        [([-a, 1], [E[1]]), ([a, 1], [E[2]]), ([0, 1], [E[3]])])
    s = lift_type_d_sl3(data, D)
    assert validate(s)["violations"] == []
    cl = classify(s)
    assert cl.case_tag == "(iii) dim4-split-eigen"
    assert cl.v0.dim == 4
    assert cl.v0.is_composition()
    assert cl.restricted["lambda"] == a


def analyzed(beta, witness):
    """The strata analysis of beta with its witness on the standard
    sequence at depth n = -v(beta) (at least 1), r = 0, after validate
    has passed the derivation and witness clauses; the case (iv) element
    below has depth 0, which the range clause rejects."""
    n = max(1, -seq_valuation(STD_SEQ, beta))
    s = Stratum(STD_SEQ, n, 0, beta, witness)
    status = {c["name"]: c["status"] for c in validate(s)["checks"]}
    assert status["derivation"] == status["witness"] == "pass"
    return _analyze_semisimple(s)


def test_analyze_case_i():
    # eigenvalues and their negatives must stay pairwise distinct, which
    # forces t-dependence at p = 5
    a, b = CFG.t(-1), CFG.t(-1) + CFG.one()
    beta = lift_sl3(diag_phi(a, b), D)
    wit = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [E[-4].coords, E[4].coords])),
        WitnessBlock([-a, 1], Subspace(CFG, 8, [E[1].coords])),
        WitnessBlock([-b, 1], Subspace(CFG, 8, [E[2].coords])),
        WitnessBlock([a + b, 1], Subspace(CFG, 8, [E[3].coords])),
        WitnessBlock([a, 1], Subspace(CFG, 8, [E[-1].coords])),
        WitnessBlock([b, 1], Subspace(CFG, 8, [E[-2].coords])),
        WitnessBlock([-(a + b), 1], Subspace(CFG, 8, [E[-3].coords])),
    ]
    cl = analyzed(beta, wit)
    assert cl.case_tag == "(i) hyperbolic-plane"
    assert cl.v0.space == D.space
    bw = cl.restricted["beta_matrix"]
    assert bw[0][0] == a and bw[1][1] == b


def test_analyze_case_iv_and_iii():
    a = E[2] + E[-2]
    # case (iv): c^2 = t, a non-square
    c = E[1].scale(CFG.t()) + E[-1]  # traceless, Q = t, c^2 = -t
    beta = dim4_kernel_derivation(D4, a, c)
    u = -CFG.t()
    wit = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [b.coords for b in D4.basis])),
        WitnessBlock([-u, 0, 1],
                     Subspace(CFG, 8, [E[2].coords, E[-2].coords,
                                       E[3].coords, E[-3].coords])),
    ]
    cl = analyzed(beta, wit)
    assert cl.case_tag == "(iv) dim4-hermitian"
    assert cl.restricted["u"] == u
    # case (iii): c = lam (e_-4 - e_4), c^2 = lam^2
    lam = CFG.t(-1)
    c2 = (E[-4] - E[4]).scale(lam)
    beta2 = dim4_kernel_derivation(D4, a, c2)
    wit2 = [
        WitnessBlock([0, 1], Subspace(CFG, 8, [b.coords for b in D4.basis])),
        WitnessBlock([-lam, 1],
                     Subspace(CFG, 8, [(E[2]).coords, (E[-3]).coords])),
        WitnessBlock([lam, 1],
                     Subspace(CFG, 8, [(E[-2]).coords, (E[3]).coords])),
    ]
    cl2 = analyzed(beta2, wit2)
    assert cl2.case_tag == "(iii) dim4-split-eigen"
    assert cl2.restricted["lambda"] == lam
    # W_lambda = (e+ V0) a for the idempotent pair of F[c2/lam]
    wl = cl2.restricted["w_lambda"]
    eplus = E[-4]  # (1 + c2/lam)/2 for c2 = lam (e_-4 - e_4)
    for b in D4.basis:
        img = (eplus * b) * a
        if not img.is_zero:
            assert wl.contains(img.coords)


def test_analyze_case_ii():
    d = anisotropic_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    zero = zero_oct()
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
    assert analyzed(beta, wit).case_tag == "(ii) quadratic-extension"


def test_classify_rejects_bad_factor():
    beta = lift_sl3(diag_phi(CFG.from_int(1), CFG.from_int(2)), D)
    bad = [WitnessBlock([0, 1],
                        Subspace(CFG, 8, [E[-4].coords, E[4].coords,
                                          E[1].coords, E[-1].coords,
                                          E[2].coords, E[-2].coords,
                                          E[3].coords, E[-3].coords]))]
    with pytest.raises(WitnessError,
                       match="factor does not annihilate its block"):
        classify(Stratum(STD_SEQ, 1, 0, beta, bad))


def test_hermitian_rescaling_bijection():
    # the 1/e rescaling carries Phi-self-dual F'-norms to f-self-dual
    # norms on W, and non-self-dual data fails on both sides
    from g2kit.norms import HermitianNorm, NormFn, dual_norm
    from g2kit.octonions import ramified_plane
    from g2kit.endo import special_hermitian_basis
    from fractions import Fraction
    d = ramified_plane(CFG)
    wm, w0, wp = special_hermitian_basis(d)
    good = HermitianNorm(d, [wm, w0, wp], [-1, 0, 1])
    assert good.e == 2
    assert good.is_self_dual()
    scaled = NormFn(CFG, [wm, CFG_c(d) * wm, w0, CFG_c(d) * w0,
                          wp, CFG_c(d) * wp],
                    [Fraction(-1, 2), Fraction(0), Fraction(0),
                     Fraction(1, 2), Fraction(1, 2), Fraction(1)])
    assert dual_norm(scaled) == scaled
    bad = HermitianNorm(d, [wm, w0, wp], [1, 0, 1])
    assert not bad.is_self_dual()


def CFG_c(d):
    return d.traceless_generator()


def test_lattice_restriction_index_by_index():
    # the lifted sequence intersected with W+ recovers the input sequence
    # at every index of the period
    from g2kit.norms import lattice_seq_from_norm
    data = fixture_sl3(CFG, norm_values=(Fraction(1, 3), Fraction(1, 3),
                                         Fraction(-2, 3)), n=3)
    s = lift_type_d_sl3(data, D)
    inner = lattice_seq_from_norm(data.norm)
    cl = classify(s)
    restricted = cl.restricted["norm"]
    rseq = lattice_seq_from_norm(restricted)
    assert rseq.m == inner.m == s.seq.m == 3
    for i in range(-3, 7):
        assert rseq.exponents(i) == inner.exponents(i)
        # and membership agrees vector by vector on the W+ basis scaled
        for b, ein, eout in zip(inner.norm.basis, inner.exponents(i),
                                rseq.exponents(i)):
            # Lambda(i) is the lattice of vectors of norm >= i/m
            level = Fraction(i, s.seq.m)
            assert s.seq.norm.eval(b.scale(CFG.t(ein))) >= level
            assert s.seq.norm.eval(b.scale(CFG.t(ein - 1))) < level


def test_witness_factors_are_scalars_from_construction():
    """WitnessBlock and the blocks of StratumData (for both lifts)
    coerce their factors' ints to scalars of their own config once, when
    built.  The corpus's only int factors are 0 and 1, so the witness
    factor strings of Stratum.to_json are those committed before the
    coercion moved there."""
    golden = json.loads((Path(__file__).parent / "golden"
                         / "witness_factors_n8.json").read_text())
    for p in (5, 7, 11):
        cfg = FieldConfig(p, 8)
        strata = ([s for _, s in stratum_corpus(cfg)]
                  + [s for _, s in corrupted_strata(cfg)])
        assert [s.to_json()["witness"]["factors"] for s in strata] \
            == golden[str(p)]
        for s in strata:
            for blk in s.witness:
                assert all(isinstance(c, Scalar) and c.cfg is cfg
                           for c in blk.factor)
    block = WitnessBlock([0, 1], D.space)
    assert block.factor == [Z, CFG.one()]
    assert all(isinstance(c, Scalar) for c in block.factor)
    data = StratumData(wplus_norm([0, 0, 0]), 1, 0, diag_phi(Z, Z),
                       [([0, 1], WPLUS)])
    assert all(isinstance(c, Scalar) for c in data.blocks[0][0])
    _, su21 = su21_data(anisotropic_plane(CFG))
    assert all(isinstance(c, Scalar) for coeffs, _ in su21.blocks
               for c in coeffs)
