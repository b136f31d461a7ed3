"""Named verification suites over the whole library, declared in one
table.  CHECKS holds one Check(suite, name, run) row per report check, in
report order; SUITE_NAMES is the order in which the suites first appear
there.  run(cfg, rng, table) returns None or a counterexample string, and
run_suite runs the rows of one suite in table order through run_check,
with one random.Random(seed) and one _RunTable for the run.  Adding a
check means adding its function and one row.  The CLI and the acceptance
tests both run these.

The identity checks are decisions on a basis, not samples.  Each identity
has integer structure constants (octonions.BASIS_PRODUCT, the triality
tables) and is multilinear after polarization, and p >= 5 makes the
polarization exact, so basis tuples decide it over F and over every
extension: unit-law and conjugation on the 8 basis vectors and 64 pairs,
f-transfer on the 512 triples, alternative-laws as an alternating
associator on the 512 triples, norm-multiplicative as the polarized
composition law on the 4,096 quadruples with Q tied to f on the basis,
maximinorante on the 64 pairs of a splitting basis, product-decomposition
on the 64 pairs of an F-basis of D + W, fixed-point-consistency as two
equal subspaces of the 28 so(V) coordinates, and trace-invariance as
T^T G T = G for each word's table.  Products, tables and verdicts live
for one check call.  Sampled checks remain where the input is random by
nature: idempotent-identities (random isotropic pairs), psi-homomorphism
(random generator pairs) and gamma-perp-random (random stable subspaces)
draw from the suite's rng; no other check reads it.

Each fact has one check.  Some constructors verify the object they return
and raise on failure: extend_sl3, extend_su21 and extend_dim4 through
norms._check_extension (DomainError, DualityError: a self-dual algebra
norm with the given values on the given basis), TrialityTriple through
check_related (TripleError), and idempotents_from_isotropic_pair
(PairError).  The extend-*, root-triples, diagonal-triples and
idempotent-identities checks catch that error and report their own
counterexample string; they do not verify the object again.  What several
checks of one run read is built once in a per-run _RunTable, which keeps a
build error so that every reader re-raises it: the sl3 extensions of
fixtures.sl3_norm_values() in the norm suite (the fixtures.THIRDS
extension of maximinorante, uniqueness-perturbation and
filtration-multiplicativity among them), the standard lattice sequence in
the filtration suite, and the stratum corpus and the sl3 type-D lift of
lift-roundtrip and refinement-congruence in the strata suite."""

from __future__ import annotations

import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import fixtures
from .endo import (SO_LABELS, EndV, d_torus_lie, leibniz_defects, so_coords,
                   so_matrix, u_root_lie)
from .errors import (DomainError, DualityError, G2KitError, PairError,
                     PrecisionError, TripleError, WitnessError)
from .filtration import (cayley, character_counts, enumerate_subspaces,
                         gamma_perp, lie_generators, moy_counterexample,
                         psi_b, quotient_iso_check, random_stable_subspace,
                         standard_symplectic_cycle, standard_symplectic_swap)
from .linalg import Subspace, kernel, mat_eq, mat_mul, trace_product, transpose
from .norms import (HermitianNorm, NormFn, dual_norm, extend_dim4,
                    extend_sl3, extend_su21, is_algebra_norm, is_self_dual,
                    lattice_seq_from_norm, seq_valuation, standard_norm)
from .octonions import (LABELS, Octonion, anisotropic_plane, basis_octonion,
                        bilinear_f, center_subalgebra, division_quaternion,
                        double, gram_schmidt, hyperbolic_plane,
                        idempotents_from_isotropic_pair, octonion_unit,
                        ramified_plane, random_isotropic_pair,
                        split_polarization, standard_split_dim4)
from .scalars import FieldConfig
from .strata import StratumData, classify, lift_type_d_sl3, validate
from .triality import (GroupTriality, HermitianModel, LieTrialityGroup,
                       diag_lie_triple, orbit_triples, root_triple, solve_dim2,
                       solve_dim4, solve_glw, solve_lie_triple)

class _RunTable:
    """What one suite run builds once for several checks: each entry is
    built on its first read, and a build error is kept so that every
    reader re-raises it."""

    def __init__(self):
        self._entries = {}

    def get(self, key, build):
        if key not in self._entries:
            try:
                self._entries[key] = build()
            except G2KitError as exc:
                self._entries[key] = exc
        entry = self._entries[key]
        if isinstance(entry, G2KitError):
            raise entry
        return entry


def _all_root_pairs():
    for i in LABELS:
        for j in LABELS:
            if i != j and i != -j:
                yield i, j


# -- octonion suite ---------------------------------------------------------------

def _basis(cfg):
    return [basis_octonion(cfg, label) for label in LABELS]


def _products(xs, ys):
    """[[x * y for y in ys] for x in xs]: the table of one check call."""
    return [[x * y for y in ys] for x in xs]


def _unit_law(cfg, rng, table):
    unit = octonion_unit(cfg)
    for x in _basis(cfg):
        if unit * x != x or x * unit != x:
            return f"unit law at {x!r}"
    return None


def _conjugation(cfg, rng, table):
    e = _basis(cfg)
    conj = [x.conj() for x in e]
    xy = _products(e, e)
    for i, x in enumerate(e):
        if conj[i].conj() != x:
            return f"conj(conj(x)) != x at {x!r}"
        for j, y in enumerate(e):
            if xy[i][j].conj() != conj[j] * conj[i]:
                return f"conj(xy) != conj(y) conj(x) at {x!r}, {y!r}"
    return None


def _f_transfer(cfg, rng, table):
    """f(xy, z) = f(y, conj(x) z) = f(x, z conj(y)) on the 512 basis
    triples (the identity is trilinear)."""
    e = _basis(cfg)
    conj = [x.conj() for x in e]
    xy = _products(e, e)
    left = _products(conj, e)    # left[i][k] = conj(e_i) e_k
    right = _products(e, conj)   # right[k][j] = e_k conj(e_j)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                lhs = bilinear_f(xy[i][j], e[k])
                if (lhs != bilinear_f(e[j], left[i][k])
                        or lhs != bilinear_f(e[i], right[k][j])):
                    return f"f-transfer at {e[i]!r}, {e[j]!r}, {e[k]!r}"
    return None


def _alternative_laws(cfg, rng, table):
    """x(xy) = (xx)y and (yx)x = y(xx): the associator a(x, y, z) =
    (xy)z - x(yz) on the 512 basis triples vanishes when the first two or
    the last two arguments agree, and changes sign when they swap."""
    e = _basis(cfg)
    xy = _products(e, e)
    a = [[[xy[i][j] * e[k] - e[i] * xy[j][k] for k in range(8)]
          for j in range(8)] for i in range(8)]
    for i in range(8):
        for j in range(8):
            for k in range(8):
                t = a[i][j][k]
                if ((i == j or j == k) and not t.is_zero
                        or not (t + a[j][i][k]).is_zero
                        or not (t + a[i][k][j]).is_zero):
                    return (f"associator not alternating at {e[i]!r}, "
                            f"{e[j]!r}, {e[k]!r}")
    return None


def _norm_multiplicative(cfg, rng, table):
    """Q(xy) = Q(x) Q(y), decided through f: Q has polar form f on the
    basis (2 Q(e_i) = f(e_i, e_i), Q(e_i + e_j) - Q(e_i) - Q(e_j) =
    f(e_i, e_j)), and the polarized law f(xy, zw) + f(xw, zy) =
    f(x, z) f(y, w), which is 4-linear, holds on the 4,096 basis
    quadruples."""
    e = _basis(cfg)
    f = [[bilinear_f(x, y) for y in e] for x in e]
    for i, x in enumerate(e):
        if x.norm() * 2 != f[i][i]:
            return f"2 Q(x) != f(x, x) at {x!r}"
        for j in range(i + 1, 8):
            if (x + e[j]).norm() - x.norm() - e[j].norm() != f[i][j]:
                return f"Q does not polarize to f at {x!r}, {e[j]!r}"
    xy = [x * y for x in e for y in e]
    fxy = [[bilinear_f(u, v) for v in xy] for u in xy]  # f(e_i e_j, e_k e_l)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                for l in range(8):
                    if (fxy[8 * i + j][8 * k + l] + fxy[8 * i + l][8 * k + j]
                            != f[i][k] * f[j][l]):
                        return (f"f(xy, zw) + f(xw, zy) != f(x, z) f(y, w) at "
                                f"{e[i]!r}, {e[j]!r}, {e[k]!r}, {e[l]!r}")
    return None


def _doubling_chains(cfg, rng, table):
    e = lambda l: basis_octonion(cfg, l)
    chains = [
        (e(1) + e(-1), e(2) + e(-2), e(3) - e(-3)),
        (e(2) + e(-2), e(3) + e(-3), e(1) - e(-1)),
        (e(1) + e(-1).scale(cfg.t(2)), e(2) + e(-2), e(-3) - e(3).scale(cfg.t(2))),
    ]
    for chain in chains:
        d = center_subalgebra(cfg)
        for a in chain:
            d = double(d, a)  # verifies the product rule entrywise
        if d.dim != 8 or not d.is_composition():
            return f"chain {chain} did not rebuild the full algebra"
    return None


def _idempotent_sweep(cfg, rng, table):
    """idempotents_from_isotropic_pair raises PairError unless e+ = -h h'
    and e- = -h' h are orthogonal idempotents summing to 1; the sweep reads
    that verdict on 100 random pairs and checks the rest against the
    returned c = h' h - h h'."""
    one = cfg.one()
    for _ in range(100):
        h, hp = random_isotropic_pair(cfg, rng)
        lam = cfg.random(rng, width=1, vmin=-1, vmax=1, nonzero=True)
        try:
            ep, em, c = idempotents_from_isotropic_pair(h, hp)
            scaled = idempotents_from_isotropic_pair(
                h.scale(lam), hp.scale(lam.inv()))
        except PairError:
            return f"identity failed at pair ({h!r}, {hp!r})"
        ok = ((h + hp).norm() == one
              and (h - hp).norm() == -one
              and (h + hp) * (h - hp) == c
              and c * h == h and c * hp == -hp
              and scaled == (ep, em, c))
        if not ok:
            return f"identity failed at pair ({h!r}, {hp!r})"
    return None


def _polarization_check(cfg, rng, table):
    d = hyperbolic_plane(cfg)
    wplus, wminus = split_polarization(d)
    wp = [Octonion(cfg, r) for r in wplus.rows]
    for x in wp:
        for y in wp:
            if not bilinear_f(x, y).is_zero:
                return "W+ is not totally isotropic"
            if not wminus.contains((x * y).coords):
                return "W+ . W+ does not drop into W-"
    return None


# -- triality suite ---------------------------------------------------------------

def _root_triples(cfg, rng, table):
    """TrialityTriple runs check_related on the triple it is given and
    raises TripleError when the identity fails; the check reads that."""
    lam = cfg.t()
    for (i, j) in _all_root_pairs():
        for lie in (False, True):
            try:
                root_triple(cfg, i, j, lam, lie=lie)
            except TripleError:
                return f"root triple ({i},{j}) lie={lie}"
    return None


def _diag_triples(cfg, rng, table):
    for i in (1, 2, 3, 4):
        try:
            diag_lie_triple(cfg, i, cfg.t())
        except TripleError:
            return f"diagonal triple {i}"
    return None


def _glw_family(cfg, rng, table):
    from .octonions import sqrt_scalar
    u = cfg.one() + cfg.t()
    g = [[cfg.from_int(4), cfg.zero(), cfg.zero()],
         [cfg.zero(), cfg.one(), cfg.zero()],
         [cfg.zero(), cfg.zero(), cfg.one()]]
    lam = sqrt_scalar(u * cfg.from_int(4))
    for w in (lam, -lam):
        solve_glw(cfg, u, g, w)
    return None


def _dim4_family(cfg, rng, table):
    d4 = standard_split_dim4(cfg)
    e = lambda l: basis_octonion(cfg, l)
    a = e(2) + e(-2)
    one = octonion_unit(cfg)
    two = cfg.from_int(2)
    u1 = e(-4).scale(two) + e(4).scale(two.inv())      # Q(u1) = 1
    u2 = e(-4).scale(cfg.from_int(4)) + e(4).scale(cfg.from_int(4))
    solve_dim4(d4, a, one, u1, one, u1, cfg.one())
    solve_dim4(d4, a, one, u2, one, one, cfg.from_int(4))
    solve_dim4(d4, a, one, u2, one, one, -cfg.from_int(4))
    return None


def _dim2_family(cfg, rng, table):
    d = anisotropic_plane(cfg)
    from .endo import special_hermitian_basis
    wm, w0, wp = special_hermitian_basis(d)
    one = octonion_unit(cfg)
    z = Octonion(cfg, [cfg.zero()] * 8)
    ident3 = [[one if i == j else z for j in range(3)] for i in range(3)]
    c = d.traceless_generator()
    # a norm-1 mu = x + y c, y != 0, with x and y in the residue field, as
    # Q(x + y c) = x^2 + y^2 Q(c) for c traceless; over the unramified
    # extension every element of F_p is a square, so x, y must leave F_p
    p = cfg.p
    if cfg.extension == "unramified":
        residue = [cfg.monomial((a, b), 0) for a in range(p) for b in range(p)]
    else:
        residue = [cfg.from_int(a) for a in range(p)]
    qc = c.norm()
    xy = next(((x, y) for x in residue for y in residue[1:]
               if x * x + y * y * qc == cfg.one()), None)
    if xy is None:
        raise DomainError("no norm-1 element x + y c with y != 0")
    mu = one.scale(xy[0]) + c.scale(xy[1])
    solve_dim2(d, [wm, w0, wp], one, ident3, one)
    solve_dim2(d, [wm, w0, wp], mu * mu, ident3, mu)
    return None


def _orbits(cfg, rng, table):
    tri = root_triple(cfg, -1, -3, cfg.t())
    if len(orbit_triples(tri)) != 6:
        return "orbit size"
    tri_l = root_triple(cfg, -1, -3, cfg.t(), lie=True)
    orbit_triples(tri_l)
    return None


def _so_basis(cfg):
    """The 28 so(V) basis elements, in the order of endo.SO_LABELS."""
    return [so_matrix(cfg, {k: cfg.one()}) for k in range(len(SO_LABELS))]


def _fixed_points(cfg, rng, table):
    """The triality-fixed space equals the derivations, as subspaces of the
    28 so(V) coordinates.  Column k of T2 and T3 is what solve_lie_triple
    gives on basis element k; the fixed space is the kernel of the stacked
    [T2 - 1; T3 - 1], and the derivations are the kernel of the Leibniz
    map x -> x(e_i e_j) - x(e_i) e_j - e_i x(e_j) on the 64 basis pairs,
    read from endo.leibniz_defects."""
    basis = _so_basis(cfg)
    n = len(basis)
    zero, one = cfg.zero(), cfg.one()
    t2, t3 = [], []
    for x in basis:
        tri = solve_lie_triple(x)
        t2.append(so_coords(tri.t2))
        t3.append(so_coords(tri.t3))
    stacked = [[t[k][m] - one if k == m else t[k][m] for k in range(n)]
               for t in (t2, t3) for m in range(n)]
    fixed = Subspace(cfg, n, kernel(stacked))
    # defects[k]: the 64 Leibniz defects of basis element k
    defects = [leibniz_defects(x) for x in basis]
    leibniz = [[d[pair].get(m, zero) for d in defects]
               for pair in range(64) for m in range(8)]
    derivations = Subspace(cfg, n, kernel(leibniz))
    if fixed.dim != 14 or derivations.dim != 14 or fixed != derivations:
        return (f"fixed space of dimension {fixed.dim} against "
                f"{derivations.dim} derivations")
    return None


def _barwedge(cfg, rng, table):
    """The product formula on the 64 pairs of the F-basis {1, c} of
    V0 = D and {b, c b} of W (b in the D-basis of W): both sides are
    F-bilinear in (v1 + w1, v2 + w2)."""
    d = anisotropic_plane(cfg)
    model = HermitianModel(d)
    c = d.traceless_generator()
    zero = Octonion(cfg, [cfg.zero()] * 8)
    basis = ([(v, zero) for v in (octonion_unit(cfg), c)]
             + [(zero, w) for b in model.space.basis for w in (b, c * b)])
    for v1, w1 in basis:
        for v2, w2 in basis:
            if model.product_via_decomposition(v1, w1, v2, w2) \
                    != (v1 + w1) * (v2 + w2):
                return (f"product decomposition failed at {v1 + w1!r}, "
                        f"{v2 + w2!r}")
    return None


# -- norm suite -------------------------------------------------------------------

def _sl3_extension(cfg, vals, table):
    """The sl3 extension of the norm vals on W+ across the hyperbolic
    plane, built once per table."""
    return table.get(("sl3", *vals), lambda: extend_sl3(
        fixtures.wplus_norm(cfg, vals), hyperbolic_plane(cfg)))


def _thirds_norm(cfg, table):
    """The sl3 extension of the (1/3, 1/3, -2/3) norm on W+."""
    return _sl3_extension(cfg, fixtures.THIRDS, table)


def _extend_sl3_fixtures(cfg, rng, table):
    for vals in fixtures.sl3_norm_values():
        try:
            _sl3_extension(cfg, vals, table)
        except (DomainError, DualityError):
            return f"sl3 extension of {vals}"
    return None


def _extend_su21_fixtures(cfg, rng, table):
    from .endo import special_hermitian_basis
    for plane, e_expected in ((anisotropic_plane(cfg), 1),
                              (ramified_plane(cfg), 2)):
        wm, w0, wp = special_hermitian_basis(plane)
        for a in fixtures.su21_values():
            ah = HermitianNorm(plane, [wm, w0, wp], [-a, 0, a])
            if ah.e != e_expected:
                return "ramification index"
            try:
                extend_su21(ah, plane)
            except (DomainError, DualityError):
                return f"su21 extension a={a}, e={e_expected}"
    return None


def _extend_dim4_fixtures(cfg, rng, table):
    d4 = standard_split_dim4(cfg)
    e = lambda l: basis_octonion(cfg, l)
    for (ah, ak) in fixtures.dim4_witt_values():
        alpha_w = NormFn(cfg, [e(2), e(-2), e(3), e(-3)], [ah, -ah, ak, -ak])
        try:
            extend_dim4(alpha_w, d4)
        except (DomainError, DualityError):
            return f"dim4 extension {ah},{ak}"
    div = division_quaternion(cfg)
    # W is anisotropic and orthogonal to the unit, so Gram-Schmidt after
    # the unit gives an orthogonal basis of W
    ortho = gram_schmidt(cfg, div.orthogonal_basis_octonions())[0][1:]
    alpha_w = NormFn(cfg, ortho,
                     [Fraction(x.norm().valuation, 2) for x in ortho])
    try:
        extend_dim4(alpha_w, div)
    except (DomainError, DualityError):
        return "anisotropic dim4 extension"
    return None


def _duality_involution(cfg, rng, table):
    for vals in fixtures.sl3_norm_values():
        ext = _sl3_extension(cfg, vals, table)
        if dual_norm(dual_norm(ext)) != ext or dual_norm(ext) != ext:
            return f"duality at {vals}"
    return None


def _maximinorante(cfg, rng, table):
    """alpha(x) + alpha(y) <= v(f(x, y)) for all x, y iff it holds on the
    64 pairs of the splitting basis: f is bilinear and alpha is the min
    over coordinates of v(xi_i) + alpha_i."""
    alpha = _thirds_norm(cfg, table)
    for b1, a1 in zip(alpha.basis, alpha.values):
        for b2, a2 in zip(alpha.basis, alpha.values):
            if a1 + a2 > bilinear_f(b1, b2).valuation:
                return f"maximinorante at {b1!r}, {b2!r}"
    return None


def _uniqueness(cfg, rng, table):
    """No perturbation of the extension is a self-dual algebra norm: not
    one value raised by 1, which breaks the algebra-norm property, nor
    every value off the unit lines e_4, e_-4 lowered by 1, which keeps it
    and breaks self-duality."""
    ext = _thirds_norm(cfg, table)
    vals = ext.values
    units = (basis_octonion(cfg, 4), basis_octonion(cfg, -4))
    perturbations = {f"at position {k}": vals[:k] + [vals[k] + 1] + vals[k + 1:]
                     for k in range(len(vals))}
    perturbations["off the unit lines"] = [
        v if b in units else v - 1 for b, v in zip(ext.basis, vals)]
    for where, bad_vals in perturbations.items():
        bad = NormFn(cfg, ext.basis, bad_vals)
        if is_algebra_norm(bad) and is_self_dual(bad):
            return f"perturbation {where} accepted"
    return None


def _exponent_identities(cfg, rng, table):
    e = lambda l: basis_octonion(cfg, l)
    for vals in fixtures.sl3_norm_values():
        ext = _sl3_extension(cfg, vals, table)
        if ext.eval(e(4)) != 0 or ext.eval(e(-4)) != 0:
            return f"unit values at {vals}"
        total = Fraction(0)
        for i in (1, 2, 3):
            if ext.eval(e(i)) + ext.eval(e(-i)) != 0:
                return f"pairing values at {vals}"
            total += ext.eval(e(i))
        if total != 0:
            return f"volume values at {vals}"
    return None


def _filtration_mult(cfg, rng, table):
    seq = lattice_seq_from_norm(_thirds_norm(cfg, table))
    gens = {k: lie_generators(seq, k) for k in (1, 2)}
    for k1 in (1, 2):
        for k2 in (1, 2):
            target = seq.lattice(k1 + k2)
            for ga in gens[k1][:10]:
                for gb in gens[k2][:10]:
                    if not target.contains(ga.lie * gb.lie):
                        return f"A_{k1} A_{k2} leaves A_{k1+k2}"
    return None


# -- filtration suite -------------------------------------------------------------

def _moy(cfg, rng, table):
    for u in (cfg.t(), cfg.t(2), cfg.t() * 3):
        if not moy_counterexample(u):
            return f"u = {u}"
    return None


def _standard_seq(cfg, table):
    """The lattice sequence of the standard norm, built once per table; it
    keeps the filtration lattices A_k that its readers build."""
    return table.get(
        "standard sequence", lambda: lattice_seq_from_norm(standard_norm(cfg)))


def _quotient_seqs(cfg, table):
    return (_standard_seq(cfg, table),
            lattice_seq_from_norm(_thirds_norm(cfg, table)))


def _quotients(cfg, rng, table):
    for seq in _quotient_seqs(cfg, table):
        for (r, s) in ((1, 1), (1, 2), (2, 3), (2, 4)):
            rep = quotient_iso_check(seq, r, s)
            if rep["violations"]:
                return f"m={seq.m} (r,s)=({r},{s}): {rep['violations'][0]}"
    return None


def _psi_hom(cfg, rng, table):
    seq = _standard_seq(cfg, table)
    r, s = 1, 2
    b = d_torus_lie(cfg, 1, cfg.t(-1)) + u_root_lie(cfg, 1, 2, cfg.t(-1))
    xs = [cayley(g.lie) for g in lie_generators(seq, r)]
    if any(psi_b(seq, s, EndV.zero(cfg), x, r) != 0 for x in xs):
        return "zero element is not the trivial character"
    for _ in range(100):
        x = xs[rng.randrange(len(xs))]
        y = xs[rng.randrange(len(xs))]
        if psi_b(seq, s, b, x * y, r) != (
                psi_b(seq, s, b, x, r) + psi_b(seq, s, b, y, r)) % cfg.p:
            return f"homomorphism at {x!r}, {y!r}"
    return None


def _psi_equi(cfg, rng, table):
    seq = _standard_seq(cfg, table)
    r, s = 1, 2
    lie_gamma = LieTrialityGroup()
    grp_gamma = GroupTriality(cfg)
    bs = [d_torus_lie(cfg, 1, cfg.t(-1)),
          u_root_lie(cfg, -1, -3, cfg.t(-1)),
          u_root_lie(cfg, 1, -2, cfg.t(-1))]
    gens = lie_generators(seq, r)
    for b in bs:
        for word in LieTrialityGroup.WORDS:
            dnu_b = lie_gamma.apply(word, b)
            winv = grp_gamma.inverse_word(word)
            for g in gens:
                lhs = psi_b(seq, s, dnu_b, g.group.matrix(cfg), r)
                rhs = psi_b(seq, s, b, grp_gamma.apply(winv, g.group), r)
                if lhs != rhs:
                    return f"equivariance at {g.name}, {word}"
    return None


def _psi_inj(cfg, rng, table):
    seq = _standard_seq(cfg, table)
    r, s = 1, 2
    d1, d2 = character_counts(seq, r, s)
    if d1 != d2:
        return f"dimension count {d1} != {d2}"
    xs = [g.group.matrix(cfg) for g in lie_generators(seq, r)]
    a0 = seq.lattice(0)
    for c in range(1, cfg.p):
        for b in (d_torus_lie(cfg, 1, cfg.monomial(c, -1)),
                  u_root_lie(cfg, 1, 2, cfg.monomial(c, -1)),
                  u_root_lie(cfg, 2, -4, cfg.monomial(c, -1))):
            if a0.contains(b):
                return "spanning element fell into A_0"
            if not any(psi_b(seq, s, b, x, r) != 0 for x in xs):
                return f"character of {b!r} is trivial"
    return None


def _trace_inv(cfg, rng, table):
    """T^T G T = G for the table T of each word, with G the Gram matrix of
    tr(xy) on the so(V) basis and column k of T the coordinates of the
    word's image of basis element k: tr(w(x) w(y)) = tr(xy) on every pair."""
    basis = _so_basis(cfg)
    gram = [[trace_product(x.rows, y.rows) for y in basis] for x in basis]
    gamma = LieTrialityGroup()
    for word in gamma.WORDS:
        t = transpose([so_coords(gamma.apply(word, x)) for x in basis])
        if not mat_eq(mat_mul(transpose(t), mat_mul(gram, t)), gram):
            return f"trace form moved under {word}"
    return None


def _gamma_exhaustive(cfg, rng, table):
    sp = standard_symplectic_swap(5)
    for x in enumerate_subspaces(5, 4):
        if sp.stable(x) and not gamma_perp(sp, x):
            return f"failed at a stable subspace of dim {x.dim}"
    return None


def _gamma_random(cfg, rng, table):
    sp = standard_symplectic_cycle(7)
    for k in range(50):
        x = random_stable_subspace(sp, rng)
        if not gamma_perp(sp, x):
            return f"failed at random stable subspace {k}"
    return None


# -- strata suite -----------------------------------------------------------------

def _sl3_lift(cfg, table):
    """The type-D lift of fixtures.sl3_regular_data(cfg) across the
    hyperbolic plane, built once per table."""
    return table.get("sl3 lift", lambda: lift_type_d_sl3(
        fixtures.sl3_regular_data(cfg), hyperbolic_plane(cfg)))


def _stratum_corpus(cfg, table):
    """fixtures.stratum_corpus(cfg), built once per table."""
    return table.get("corpus", lambda: fixtures.stratum_corpus(cfg))


def _corpus(cfg, rng, table):
    corpus = _stratum_corpus(cfg, table)
    if len(corpus) < 12:
        return f"corpus too small: {len(corpus)}"
    for tag, s in corpus:
        # classify validates the stratum and raises with the violations
        try:
            got = classify(s).case_tag
        except WitnessError as exc:
            if not exc.violations:
                raise
            return f"{tag}: {exc.violations[0]}"
        if got != tag:
            return f"expected {tag}, got {got}"
    return None


def _lift_depth(cfg, rng, table):
    for tag, s in _stratum_corpus(cfg, table):
        if not s.is_null and seq_valuation(s.seq, s.beta) != -s.n:
            return f"{tag}: depth not -n"
    return None


def _lift_roundtrip(cfg, rng, table):
    data = fixtures.sl3_regular_data(cfg)
    cl = classify(_sl3_lift(cfg, table))
    bw = cl.restricted["beta_matrix"]
    for i in range(3):
        for j in range(3):
            if bw[i][j] != data.phi[i][j]:
                return "restricted matrix differs from the input"
    return None


def _corrupted(cfg, rng, table):
    for name, s in fixtures.corrupted_strata(cfg):
        rep = validate(s)
        if not rep["violations"]:
            return f"corruption {name} was not caught"
        if not any(name in v for v in rep["violations"]):
            return f"corruption {name} misreported: {rep['violations']}"
    return None


def _refinement(cfg, rng, table):
    data = fixtures.sl3_regular_data(cfg)
    r = data.r
    pert = cfg.one()
    phi2 = [row[:] for row in data.phi]
    phi2[0][0] = phi2[0][0] + pert
    phi2[2][2] = phi2[2][2] - pert
    e = lambda l: basis_octonion(cfg, l)
    data2 = StratumData(data.norm, 1, r, phi2,
                        [([-phi2[0][0], 1], [e(1)]),
                         ([-phi2[1][1], 1], [e(2)]),
                         ([-phi2[2][2], 1], [e(3)])])
    s1 = _sl3_lift(cfg, table)
    s2 = lift_type_d_sl3(data2, hyperbolic_plane(cfg))
    if not s1.seq.lattice(-(r + 1)).contains(s1.beta - s2.beta):
        return "lift broke the congruence"
    return None


# -- runner -----------------------------------------------------------------------

Check = namedtuple("Check", "suite name run")

CHECKS = (
    Check("octonion", "unit-law", _unit_law),
    Check("octonion", "norm-multiplicative", _norm_multiplicative),
    Check("octonion", "conjugation", _conjugation),
    Check("octonion", "f-transfer", _f_transfer),
    Check("octonion", "alternative-laws", _alternative_laws),
    Check("octonion", "doubling-chains", _doubling_chains),
    Check("octonion", "idempotent-identities", _idempotent_sweep),
    Check("octonion", "split-polarization", _polarization_check),
    Check("triality", "root-triples", _root_triples),
    Check("triality", "diagonal-triples", _diag_triples),
    Check("triality", "glw-family", _glw_family),
    Check("triality", "dim4-family", _dim4_family),
    Check("triality", "dim2-family", _dim2_family),
    Check("triality", "orbit-triples", _orbits),
    Check("triality", "fixed-point-consistency", _fixed_points),
    Check("triality", "product-decomposition", _barwedge),
    Check("norms", "extend-sl3", _extend_sl3_fixtures),
    Check("norms", "extend-su21", _extend_su21_fixtures),
    Check("norms", "extend-dim4", _extend_dim4_fixtures),
    Check("norms", "duality-involution", _duality_involution),
    Check("norms", "maximinorante", _maximinorante),
    Check("norms", "uniqueness-perturbation", _uniqueness),
    Check("norms", "exponent-identities", _exponent_identities),
    Check("norms", "filtration-multiplicativity", _filtration_mult),
    Check("filtration", "moy-counterexample", _moy),
    Check("filtration", "quotient-congruences", _quotients),
    Check("filtration", "psi-homomorphism", _psi_hom),
    Check("filtration", "psi-equivariance", _psi_equi),
    Check("filtration", "psi-injectivity", _psi_inj),
    Check("filtration", "trace-invariance", _trace_inv),
    Check("filtration", "gamma-perp-exhaustive", _gamma_exhaustive),
    Check("filtration", "gamma-perp-random", _gamma_random),
    Check("strata", "corpus-classification", _corpus),
    Check("strata", "lift-depth", _lift_depth),
    Check("strata", "lift-roundtrip", _lift_roundtrip),
    Check("strata", "corrupted-rejection", _corrupted),
    Check("strata", "refinement-congruence", _refinement),
)
SUITE_NAMES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_check(name: str, thunk) -> dict:
    """The report entry of one check: pass, fail with the counterexample
    string the check returns or the error it raises, or
    precision-exhausted."""
    try:
        counterexample = thunk()
    except PrecisionError as exc:
        return {"name": name, "status": "precision-exhausted",
                "counterexample": str(exc)}
    except (G2KitError, ZeroDivisionError) as exc:
        counterexample = f"{type(exc).__name__}: {exc}"
    if counterexample is None:
        return {"name": name, "status": "pass"}
    return {"name": name, "status": "fail", "counterexample": counterexample}


def run_suite(name: str, cfg: FieldConfig, seed: int) -> dict:
    """Run one suite; the report is deterministic for a given (cfg, seed)
    up to the wall-time field."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    rng, table = random.Random(seed), _RunTable()
    start = time.monotonic()
    checks = [run_check(check.name, partial(check.run, cfg, rng, table))
              for check in CHECKS if check.suite == name]
    return {
        "schema": "g2kit-report/1",
        "suite": name,
        "config": {"p": cfg.p, "precision": cfg.precision, "seed": seed},
        "checks": checks,
        "wall_time": round(time.monotonic() - start, 3),
    }


def run_all(cfg: FieldConfig, seed: int):
    """All suites, merged in the fixed suite order."""
    return [run_suite(name, cfg, seed) for name in SUITE_NAMES]
