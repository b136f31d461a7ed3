"""The type-D lifts against oracles: ref_* below are the lift path as it
stood before its rules moved into one place each (a local trace and
volume check in the sl3 lift, a depth check and a kernel block in each
lift, extend_su21's own copy of the extension checks, and a block
valuation with its own copy of seq_valuation's formula).  The routed
path must give the same strata, reports and errors at p = 5 and 7 over
every extension.  The one intended difference: a nonzero volume is
reported by extend_sl3, in its own words."""

import math

import pytest

from g2kit import fixtures, norms
from g2kit.endo import (WitnessBlock, lift_sl3, lift_su21,
                        special_hermitian_basis, _is_x_factor)
from g2kit.errors import (DomainError, DualityError, G2KitError, LiftError,
                          VolumeError)
from g2kit.linalg import Subspace, mat_vec
from g2kit.norms import (HermitianNorm, NormFn, extend_sl3, extend_su21,
                         is_algebra_norm, is_self_dual,
                         lattice_seq_from_norm, seq_valuation, volume)
from g2kit.octonions import (Octonion, anisotropic_plane, basis_octonion,
                             hyperbolic_plane, ordered_polarization,
                             ramified_plane)
from g2kit.scalars import EXTENSIONS, FieldConfig
from g2kit.strata import (Stratum, StratumData,
                          _block_valuation, _mirror_kernel, _reflect_poly,
                          classify, lift_type_d_sl3, lift_type_d_su21,
                          validate)
from g2kit.suites import _corpus, run_suite

CONFIGS = [FieldConfig(p, 8, ext) for p in (5, 7) for ext in EXTENSIONS]
IDS = [f"p{c.p}-{c.extension}" for c in CONFIGS]


# -- oracles ----------------------------------------------------------------------

def ref_lift_type_d_sl3(data, d):
    cfg = d.cfg
    tr = data.phi[0][0] + data.phi[1][1] + data.phi[2][2]
    if not tr.is_zero:
        raise LiftError("matrix must be traceless")
    if volume(data.norm, d) != 0:
        raise VolumeError("norm on W+ must have volume zero")
    ext = extend_sl3(data.norm, d)
    seq = lattice_seq_from_norm(ext)
    beta = lift_sl3(data.phi, d)
    witness = ref_lift_witness_sl3(cfg, d, beta, data.blocks)
    stratum = Stratum(seq, data.n, data.r, beta, witness)
    if beta.is_zero:
        return stratum
    v = seq_valuation(seq, beta)
    if v != -data.n:
        raise LiftError(f"lift changed the depth: v = {v}, expected {-data.n}")
    return stratum


def ref_lift_witness_sl3(cfg, d, beta, blocks):
    _, wm = ordered_polarization(d)
    kernel_rows = [b.coords for b in d.basis]
    staged = []
    for coeffs, vectors in blocks:
        if _is_x_factor(coeffs):
            kernel_rows.extend([v.coords for v in vectors])
            kernel_rows.extend(_mirror_kernel(cfg, beta, coeffs, wm))
            continue
        staged.append((coeffs, [list(v.coords) for v in vectors]))
        mirror_factor = _reflect_poly(coeffs)
        staged.append((mirror_factor,
                       _mirror_kernel(cfg, beta, mirror_factor, wm)))
    merged = []
    for coeffs, rows in staged:
        hit = next((m for m in merged if m[0] == coeffs), None)
        if hit is None:
            merged.append([coeffs, rows])
        else:
            hit[1].extend(rows)
    out_blocks = [WitnessBlock(coeffs, Subspace(cfg, 8, rows))
                  for coeffs, rows in merged]
    return ([WitnessBlock([0, 1], Subspace(cfg, 8, kernel_rows))]
            + out_blocks)


def ref_extend_su21(alpha_h, d):
    from fractions import Fraction
    if d is not alpha_h.d:
        raise DomainError("norm and plane do not match")
    if not alpha_h.is_self_dual():
        raise DualityError("the F'-norm must be self-dual")
    space = alpha_h.space
    e = Fraction(alpha_h.e)
    basis = [space.unit, space.c] + space.fbasis
    values = [Fraction(0), Fraction(space.gamma.valuation, 2)]
    for a in alpha_h.values:
        values += [a / e, (a + alpha_h.vc) / e]
    out = NormFn(d.cfg, basis, values)
    if not is_algebra_norm(out):
        raise DomainError("extension is not an algebra norm")
    if not is_self_dual(out):
        raise DualityError("extension is not self-dual")
    for b, a in zip(alpha_h.basis, alpha_h.values):
        if out.eval(b) != a / e:
            raise DomainError("extension does not restrict correctly")
    return out


def ref_lift_type_d_su21(data, d):
    cfg = d.cfg
    ext = ref_extend_su21(data.norm, d)
    seq = lattice_seq_from_norm(ext)
    beta = lift_su21(data.phi, d, data.norm.basis)
    kernel_rows = [b.coords for b in d.basis]
    out_blocks = []
    for coeffs, vectors in data.blocks:
        if _is_x_factor(coeffs):
            kernel_rows.extend([v.coords for v in vectors])
            continue
        out_blocks.append(WitnessBlock(
            coeffs, Subspace(cfg, 8, [v.coords for v in vectors])))
    witness = [WitnessBlock([0, 1], Subspace(cfg, 8, kernel_rows))] + out_blocks
    stratum = Stratum(seq, data.n, data.r, beta, witness)
    if beta.is_zero:
        return stratum
    v = seq_valuation(seq, beta)
    if v != -data.n:
        raise LiftError(f"lift changed the depth: v = {v}, expected {-data.n}")
    return stratum


def ref_block_valuation(s, blk):
    rows = [list(r) for r in blk.space.rows]
    imgs = [mat_vec(s.beta.rows, r) for r in rows]
    if all(all(x.is_zero for x in img) for img in imgs):
        return None
    idx = [i for i, b in enumerate(s.seq.norm.basis)
           if blk.space.contains(b.coords)]
    if len(idx) != blk.space.dim:
        return -seq_valuation(s.seq, s.beta)
    m = s.seq.m
    a = s.seq.norm.values
    best = None
    for j in idx:
        co = s.seq.norm.coordinates(
            Octonion(s.cfg, mat_vec(s.beta.rows,
                                    list(s.seq.norm.basis[j].coords))))
        for l in idx:
            c = co[l]
            if c.is_zero:
                continue
            cand = math.floor((c.valuation + a[l] - a[j]) * m)
            best = cand if best is None else min(best, cand)
    return None if best is None else -best


# -- helpers ----------------------------------------------------------------------

def outcome(thunk):
    """The value of thunk(), or its error as (type name, message)."""
    try:
        return thunk()
    except G2KitError as exc:
        return (type(exc).__name__, str(exc))


def report(s):
    """to_json, validate and, for a valid stratum, the classify tag."""
    rep = validate(s)
    tag = outcome(lambda: classify(s).case_tag) if not rep["violations"] \
        else None
    return s.to_json(), rep, tag


def lifted_fixtures(cfg):
    """The fixture builders that lift, each as its reports or its error."""
    def run(build):
        return outcome(lambda: [report(s) for s in build(cfg)])
    return {"case-i": run(fixtures.case_i_strata),
            "case-ii": run(fixtures.case_ii_strata),
            "corrupted": run(lambda c: [s for _, s in
                                        fixtures.corrupted_strata(c)])}


def use_oracles(monkeypatch):
    monkeypatch.setattr(fixtures, "lift_type_d_sl3", ref_lift_type_d_sl3)
    monkeypatch.setattr(fixtures, "lift_type_d_su21", ref_lift_type_d_su21)


def wplus_norm(cfg, values):
    return NormFn(cfg, [basis_octonion(cfg, k) for k in (1, 2, 3)], values)


def bad_sl3_inputs(cfg):
    """Bad trace, bad volume, both at once, and a changed depth."""
    a = cfg.t(-1)
    z = cfg.zero()
    e = [basis_octonion(cfg, k) for k in (1, 2, 3)]
    scalar = [[a, z, z], [z, a, z], [z, z, a]]
    blocks = [([-a, 1], e)]
    return {
        "trace": StratumData(wplus_norm(cfg, [0, 0, 0]), 1, 0, scalar,
                             blocks),
        "volume": fixtures.sl3_regular_data(cfg, norm_values=(1, 0, 0)),
        "trace+volume": StratumData(wplus_norm(cfg, [1, 0, 0]), 1, 0,
                                    scalar, blocks),
        "depth": fixtures.sl3_regular_data(cfg, n=2),
    }


# -- the routed lifts against the oracles -------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_lifted_fixtures_match_oracle(cfg, monkeypatch):
    got = lifted_fixtures(cfg)
    with monkeypatch.context() as m:
        use_oracles(m)
        want = lifted_fixtures(cfg)
    assert got == want


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_bad_sl3_inputs_match_oracle(cfg):
    d = hyperbolic_plane(cfg)
    for name, data in bad_sl3_inputs(cfg).items():
        got = outcome(lambda: lift_type_d_sl3(data, d))
        want = outcome(lambda: ref_lift_type_d_sl3(data, d))
        assert isinstance(got, tuple) and isinstance(want, tuple), name
        if name == "volume":
            # the one intended difference: extend_sl3 reports the volume
            assert want == ("VolumeError", "norm on W+ must have volume zero")
            assert got == ("VolumeError",
                           "extension needs a volume-zero norm on W+")
        else:
            assert got == want, name


def su21_data(cfg, d, n=1, values=(0, 0, 0)):
    """The corpus's su(2,1) data at depth n on an F'-norm with the given
    values, written out by hand."""
    wm, w0, wp = special_hermitian_basis(d)
    c = d.traceless_generator()
    z = Octonion(cfg, [cfg.zero()] * 8)
    lam = c.scale(cfg.t(-1))
    phi = [[lam, z, z], [z, lam.conj() - lam, z], [z, z, -lam.conj()]]
    u1 = cfg.t(-2) * -(c.norm())
    blocks = [([-u1, cfg.zero(), 1], [wm, c * wm, wp, c * wp]),
              ([-(u1 * 4), cfg.zero(), 1], [w0, c * w0])]
    return StratumData(HermitianNorm(d, [wm, w0, wp], list(values)),
                       n, 0, phi, blocks)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_su21_inputs_match_oracle(cfg):
    """Good data, a changed depth, a second self-dual F'-norm, one that is
    not self-dual, and a plane other than the norm's."""
    for plane in (anisotropic_plane, ramified_plane):
        d = plane(cfg)
        inputs = [su21_data(cfg, d), su21_data(cfg, d, n=2),
                  su21_data(cfg, d, values=(-1, 0, 1)),
                  su21_data(cfg, d, values=(1, 0, 1))]
        cases = [(data, d) for data in inputs] + [(inputs[0], plane(cfg))]
        for data, target in cases:
            got = outcome(lambda: lift_type_d_su21(data, target))
            want = outcome(lambda: ref_lift_type_d_su21(data, target))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert report(got) == report(want)
            alpha = data.norm
            assert outcome(lambda: extend_su21(alpha, target).to_json()) \
                == outcome(lambda: ref_extend_su21(alpha, target).to_json())


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_block_valuations_match_oracle(cfg):
    strata = []
    for build in (fixtures.case_i_strata, fixtures.case_ii_strata,
                  fixtures.case_iii_strata, fixtures.case_iv_strata,
                  lambda c: [s for _, s in fixtures.corrupted_strata(c)]):
        built = outcome(lambda: build(cfg))
        if not isinstance(built, tuple):
            strata += built
    # su(2,1) lifts on non-standard splitting bases at the depth they
    # have, also where it is not the corpus's (the ramified extension)
    for plane in (anisotropic_plane, ramified_plane):
        d = plane(cfg)
        for values in ((0, 0, 0), (-1, 0, 1)):
            data = su21_data(cfg, d, values=values)
            seq = lattice_seq_from_norm(extend_su21(data.norm, d))
            beta = lift_su21(data.phi, d, data.norm.basis)
            data.n = -seq_valuation(seq, beta)
            strata.append(lift_type_d_su21(data, d))
    assert len(strata) >= 17
    for s in strata:
        for blk in s.witness:
            assert _block_valuation(s, blk) == ref_block_valuation(s, blk)


# -- int entries ------------------------------------------------------------------

@pytest.mark.parametrize("p", (5, 7))
def test_sl3_lift_takes_int_entries(p):
    """The sl3 lift used to sum the raw phi entries for its own trace
    check, which raised AttributeError on ints; lift_sl3 coerces them."""
    cfg = FieldConfig(p, 8)
    d = hyperbolic_plane(cfg)
    e = [basis_octonion(cfg, k) for k in (1, 2, 3)]
    for phi, n, r in (([[0, 0, 0]] * 3, 1, 1),
                      ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], 1, 0),
                      ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, 0)):
        forms = [phi, [[cfg.coerce(x) for x in row] for row in phi]]
        got = [outcome(lambda: lift_type_d_sl3(StratumData(
                   wplus_norm(cfg, [0, 0, 0]), n, r, m, [([0, 1], e)]),
                   d).to_json()) for m in forms]
        assert got[0] == got[1]
    zero = lift_type_d_sl3(StratumData(
        wplus_norm(cfg, [0, 0, 0]), 1, 1, [[0, 0, 0]] * 3,
        [([0, 1], e)]), d)
    assert zero.is_null and classify(zero).case_tag == "null"


# -- counts -----------------------------------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_strata_suite_builds_the_corpus_once(cfg, monkeypatch):
    calls = []
    build = fixtures.stratum_corpus

    def counting(c):
        calls.append(c)
        return build(c)

    monkeypatch.setattr(fixtures, "stratum_corpus", counting)
    run_suite("strata", cfg, 1)
    assert len(calls) == 1


def test_corpus_check_validates_each_stratum_once(monkeypatch):
    """corpus-classification reads the violations from classify, which
    validates: one validate call per stratum, and a stratum that fails is
    still reported by its first violation."""
    import g2kit.strata as strata_mod
    cfg = FieldConfig(11, 8)
    corpus = fixtures.stratum_corpus(cfg)
    calls = []
    original = strata_mod.validate

    def counting(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(strata_mod, "validate", counting)
    assert _corpus(corpus) is None
    assert len(calls) == len(corpus) == 14
    tag = corpus[0][0]
    for _, bad in fixtures.corrupted_strata(cfg):
        want = original(bad)["violations"][0]
        assert _corpus([(tag, bad)] + corpus[1:]) == f"{tag}: {want}"


def test_one_volume_call_per_sl3_lift(monkeypatch):
    import g2kit.strata as strata_mod
    calls = []
    vol = norms.volume

    def counting(*args):
        calls.append(args)
        return vol(*args)

    monkeypatch.setattr(norms, "volume", counting)
    if hasattr(strata_mod, "volume"):
        monkeypatch.setattr(strata_mod, "volume", counting)
    for p in (5, 7):
        cfg = FieldConfig(p, 8)
        d = hyperbolic_plane(cfg)
        for data in (fixtures.sl3_regular_data(cfg),
                     fixtures.sl3_regular_data(cfg, norm_values=(1, 0, 0))):
            del calls[:]
            outcome(lambda: lift_type_d_sl3(data, d))
            assert len(calls) == 1
