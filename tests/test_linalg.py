"""The sparse linear-algebra kernels against the dense elimination they
replace: rows, pivots, truncated digits and SingularError behaviour must be
identical, over the base field and both quadratic extensions, at p = 5 and
at p = 7 (p = 3 mod 4)."""

import math
import random
from fractions import Fraction

import pytest

from g2kit import endo, linalg, octonions, strata
from g2kit.endo import (EndV, WitnessBlock, lift_sl3, random_so,
                        restrict_to_basis)
from g2kit.errors import ConfigMismatchError, PrecisionError, SingularError
from g2kit.filtration import cayley, lie_generators
from g2kit.fixtures import wplus_norm
from g2kit.norms import extend_sl3, lattice_seq_from_norm, standard_norm
from g2kit.octonions import (CompositionSubalgebra, Octonion,
                             anisotropic_plane, basis_octonion, bilinear_f,
                             division_quaternion, hyperbolic_plane,
                             octonion_unit, ordered_polarization,
                             ramified_plane, standard_split_dim4)
from g2kit.residue import PrimeField
from g2kit.scalars import FieldConfig, parse_scalar
from g2kit.triality import HermitianModel, random_g2_lie
from oracles import RefModpSubspace

CONFIGS = [FieldConfig(p, 8, ext) for p in (5, 7)
           for ext in ("none", "unramified", "ramified")]


# -- the dense kernels, as they were before zero entries were skipped ---------

def dense_pivot_row(rows, col, start):
    best, best_val = None, math.inf
    for i in range(start, len(rows)):
        x = rows[i][col]
        if not x.is_zero and x.valuation < best_val:
            best, best_val = i, x.valuation
    return best


def dense_rref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        i = dense_pivot_row(rows, c, r)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for j in range(len(rows)):
            if j != r and not rows[j][c].is_zero:
                f = rows[j][c]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_solve(a, rhs):
    n = len(a)
    aug = [list(a[i]) + [rhs[i]] for i in range(n)]
    red, pivots = dense_rref(aug)
    m = len(a[0])
    if m in pivots:
        raise SingularError("inconsistent linear system")
    x = [rhs[0].cfg.zero() for _ in range(m)]
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    return x


def dense_inv(a):
    n = len(a)
    cfg = a[0][0].cfg
    aug = [list(a[i]) + linalg.identity(cfg, n)[i] for i in range(n)]
    red, pivots = dense_rref(aug)
    if pivots != list(range(n)):
        raise SingularError("matrix is not invertible")
    return [row[n:] for row in red[:n]]


def dense_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for l in range(k):
                x = a[i][l]
                if x.is_zero or b[l][j].is_zero:
                    continue
                term = x * b[l][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else a[i][0].cfg.zero())
        out.append(row)
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_cayley(x):
    cfg = x.cfg
    half = cfg.from_int(2).inv()
    ident = linalg.identity(cfg, 8)
    scaled = [[half * e for e in row] for row in x.rows]
    return dense_mul(dense_add(ident, scaled),
                     dense_inv(dense_sub(ident, scaled)))


# -- inputs ---------------------------------------------------------------------

def random_matrix(cfg, rng, n, m, density, width=None):
    z = cfg.zero()
    return [[cfg.random(rng, width, vmin=-1, vmax=2)
             if rng.random() < density else z
             for _ in range(m)] for _ in range(n)]


def singular_matrix(cfg, rng, n, density):
    """Last row a combination of two others; a zero column when density
    is low."""
    a = random_matrix(cfg, rng, n - 1, n, density)
    c1, c2 = cfg.random(rng, vmin=0, vmax=1), cfg.random(rng, vmin=0, vmax=1)
    a.append(linalg.lin_comb(cfg, [c1, c2], [a[0], a[1]]))
    return a


def matrices(cfg, seed):
    rng = random.Random(seed)
    out = []
    for density in (0.15, 0.4, 1.0):
        out += [random_matrix(cfg, rng, n, n, density) for n in (3, 5, 8)]
        out += [random_matrix(cfg, rng, 4, 7, density),
                random_matrix(cfg, rng, 7, 4, density)]
        out += [singular_matrix(cfg, rng, n, density) for n in (3, 6)]
    # full-window entries: eliminations truncate, so the pivot choice and
    # the order of operations show in the digits
    out += [random_matrix(cfg, rng, n, n, 1.0, width)
            for n in (4, 6) for width in (4, cfg.precision)]
    out.append(linalg.zeros(cfg, 3, 4))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularError, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_rref_solve_inv_match_dense(cfg):
    rng = random.Random(cfg.p)
    for a in matrices(cfg, 11 * cfg.p + len(cfg.extension)):
        assert outcome(linalg.rref, a) == outcome(dense_rref, a)
        rhs = [cfg.random(rng, vmin=0, vmax=1) for _ in a]
        assert outcome(linalg.solve, a, rhs) == outcome(dense_solve, a, rhs)
        image = linalg.mat_vec(a, [cfg.one()] * len(a[0]))
        reduction = linalg.RowReduction(a)
        for v in (rhs, image):
            assert outcome(reduction.solve, v) == outcome(dense_solve, a, v)
        if len(a) == len(a[0]):
            assert outcome(linalg.inv, a) == outcome(dense_inv, a)


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_mul_add_sub_match_dense(cfg):
    mats = matrices(cfg, 3 * cfg.p)
    square = [a for a in mats if len(a) == len(a[0])]
    for a, b in zip(square, square[1:]):
        if len(a) != len(b):
            continue
        assert linalg.mat_mul(a, b) == dense_mul(a, b)
        assert linalg.mat_add(a, b) == dense_add(a, b)
        assert linalg.mat_sub(a, b) == dense_sub(a, b)
    for a in mats:
        t = linalg.transpose(a)
        assert linalg.mat_mul(a, t) == dense_mul(a, t)


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_trace_product_matches_trace_of_product(cfg):
    """tr(a b) without the product, digit for digit and error for error,
    on sparse, dense and full-window 8 x 8 matrices."""
    rng = random.Random(13 * cfg.p + len(cfg.extension))

    def digits(fn):
        try:
            s = fn()
        except PrecisionError as exc:
            return str(exc)
        return s.val, s.coeffs

    mats = [random_matrix(cfg, rng, 8, 8, density)
            for density in (0.15, 0.4, 1.0) for _ in range(3)]
    mats += [random_matrix(cfg, rng, 8, 8, 1.0, width)
             for width in (4, cfg.precision)]
    mats.append(linalg.zeros(cfg, 8, 8))
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    # a_i1 b_1i cancels the low-valuation a_i0 b_0i down to a deep tail,
    # so which digits of the later terms a diagonal sum keeps depends on
    # the order of its terms
    for _ in range(4):
        a, b = (random_matrix(cfg, rng, 8, 8, 1.0, cfg.precision)
                for _ in range(2))
        for i in range(8):
            a[i][0] = cfg.t(-3) * a[i][0]
            a[i][1] = -a[i][0]
            b[1][i] = b[0][i] + cfg.t(2)
        pairs.append((a, b))
    for a, b in pairs:
        want = digits(lambda: (EndV(cfg, a) * EndV(cfg, b)).trace())
        assert digits(lambda: linalg.trace_product(a, b)) == want


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_random_g2_lie_inverse_and_rref_match_dense(cfg):
    rng = random.Random(5 * cfg.p)
    for _ in range(3):
        x = random_g2_lie(cfg, rng, width=2, vmin=0, vmax=1)
        assert linalg.rref(x.rows) == dense_rref(x.rows)
        assert outcome(linalg.inv, x.rows) == outcome(dense_inv, x.rows)


def dense_contains(rows, pivots, v):
    v = list(v)
    for row, c in zip(rows, pivots):
        if not v[c].is_zero:
            f = v[c]
            v = [x - f * y for x, y in zip(v, row)]
    return all(x.is_zero for x in v)


def test_subspace_matches_dense_reduction():
    cfg = FieldConfig(7, 8)
    rng = random.Random(2)
    for density in (0.2, 0.6):
        vecs = random_matrix(cfg, rng, 3, 8, density)
        sub = linalg.Subspace(cfg, 8, vecs)
        red, pivots = dense_rref(vecs)
        assert sub.rows == [tuple(r) for r in red[:len(pivots)]]
        assert sub.pivots == pivots
        probes = [vecs[0], linalg.lin_comb(cfg, [cfg.from_int(2), cfg.t()],
                                           vecs[:2])]
        probes += random_matrix(cfg, rng, 3, 8, density)
        for v in probes:
            assert sub.contains(v) == dense_contains(sub.rows, pivots, v)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4", raises=AssertionError)
def test_subspace_contains_its_spanning_vectors():
    """The second density-0.6 draw above: the reduced rows carry digits
    invented past the window, and contains rejected the first two of its
    own spanning vectors.  Each must be contained, or PrecisionError."""
    cfg = FieldConfig(7, 8)
    rows = [['3*t^2 + 5*t^3', '6*t^1 + 5*t^2', 0, 0, 0, 0, '6*t^1 + 5*t^2', 0],
            ['2*t^2 + 5*t^3', '5*t^1 + 4*t^2', 0, 0, '6*t^-1 + 1', 0,
             '2*t^-1 + 4', '6*t^-1 + 4'],
            ['t^1 + 6*t^2', '3*t^-1 + 5', 0, 't^1 + t^2', 0, 0, 0, 't^1 + 6*t^2']]
    vecs = [[parse_scalar(cfg, str(x)) for x in row] for row in rows]
    sub = linalg.Subspace(cfg, 8, vecs)
    assert sub.dim == 3
    for v in vecs:
        try:
            assert sub.contains(v)
        except PrecisionError:
            pass



# -- Subspace.intersection -----------------------------------------------------

def random_rows(rng, p, n, k):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_intersection_over_a_prime_field_matches_the_reference(p):
    """A meet B over F_p, against RefModpSubspace (tests/oracles.py): it
    lies in A and in B, it holds the rows A and B were given in common,
    and dim A + dim B = dim(A meet B) + dim(A + B), so it is all of
    A meet B."""
    field, n = PrimeField(p), 6
    rng = random.Random(p)
    for _ in range(40):
        common = random_rows(rng, p, n, rng.randrange(3))
        a = common + random_rows(rng, p, n, rng.randrange(5))
        b = common + random_rows(rng, p, n, rng.randrange(5))
        sa, sb = linalg.Subspace(field, n, a), linalg.Subspace(field, n, b)
        meet = sa.intersection(sb)
        ref_a, ref_b = RefModpSubspace(p, n, a), RefModpSubspace(p, n, b)
        assert all(ref_a.contains(r) and ref_b.contains(r) for r in meet.rows)
        assert all(meet.contains(v) for v in common)
        assert ref_a.dim + ref_b.dim \
            == meet.dim + RefModpSubspace(p, n, a + b).dim
        assert meet == sb.intersection(sa)
        assert meet.rows == RefModpSubspace(p, n, meet.rows).rows


def intersection_edge_cases(field, n, subspaces):
    zero = linalg.Subspace(field, n, [])
    whole = linalg.Subspace(field, n, linalg.identity(field, n))
    for a in subspaces:
        assert a.intersection(zero) == zero == zero.intersection(a)
        assert a.intersection(whole) == a == whole.intersection(a)
        assert a.intersection(a) == a
    for a, b in zip(subspaces, subspaces[1:]):
        bigger = linalg.Subspace(field, n, list(a.rows) + list(b.rows))
        assert a.intersection(bigger) == a == bigger.intersection(a)


def test_intersection_edge_cases_over_a_prime_field():
    """The zero subspace, the whole space, A inside B and A meet A."""
    field, rng = PrimeField(7), random.Random(71)
    subspaces = [linalg.Subspace(field, 5, random_rows(rng, 7, 5, k))
                 for k in (0, 1, 2, 3, 4, 5, 2, 3)]
    assert [a.dim for a in subspaces] == [0, 1, 2, 3, 4, 5, 2, 3]
    intersection_edge_cases(field, 5, subspaces)


def test_intersection_over_laurent_series_on_exact_rows():
    """Over F_5((t)) with entries 0, 1 and t only, so every pivot stays a
    monomial and no digit is truncated (ROADMAP item 4)."""
    cfg = FieldConfig(5, 8)
    o, i, t = cfg.zero(), cfg.one(), cfg.t()

    def span(*rows):
        return linalg.Subspace(cfg, 4, [list(r) for r in rows])
    # (a, b, a t, 0) = (c, c, c t + d, d) forces d = 0 and a = b = c
    a, b = span((i, o, t, o), (o, i, o, o)), span((i, i, t, o), (o, o, i, i))
    assert a.intersection(b) == span((i, i, t, o)) == b.intersection(a)
    # (a, a t, b, b t) = (c, c t + d, c, c t) forces d = 0 and a = b = c
    a, b = span((i, t, o, o), (o, o, i, t)), span((i, t, i, t), (o, i, o, o))
    assert a.intersection(b) == span((i, t, i, t))
    assert span((i, o, o, o)).intersection(span((o, i, o, o))).dim == 0
    intersection_edge_cases(cfg, 4, [span(), span((i, t, o, o)),
                                     span((i, t, o, o), (o, o, i, t)),
                                     span((o, i, t, o), (t, o, o, i),
                                          (o, o, i, o))])

def benchmark_sequences(cfg):
    d = hyperbolic_plane(cfg)
    std = lattice_seq_from_norm(standard_norm(cfg))
    thirds = lattice_seq_from_norm(extend_sl3(wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), d))
    return std, thirds


@pytest.mark.parametrize("r", (1, 2))
def test_generator_pair_cayley_matches_dense(r):
    """Every C(g_a + g_b) of the quotient check at (5, 8)."""
    cfg = FieldConfig(5, 8)
    for seq in benchmark_sequences(cfg):
        gens = lie_generators(seq, r)
        for i, ga in enumerate(gens):
            for gb in gens[i:]:
                x = ga.lie + gb.lie
                assert cayley(x).rows == dense_cayley(x)


@pytest.mark.parametrize("p", (5, 7))
def test_norm_coordinates_match_dense_solve(p):
    """NormFn.coordinates replays one recorded reduction of its basis."""
    cfg = FieldConfig(p, 8)
    rng = random.Random(p)
    for seq in benchmark_sequences(cfg):
        norm = seq.norm
        for _ in range(10):
            coeffs = [cfg.random(rng, vmin=-1, vmax=1) for _ in norm.basis]
            x = linalg.lin_comb(cfg, coeffs, [b.coords for b in norm.basis])
            assert norm.coordinates(Octonion(cfg, x)) == dense_solve(
                norm._cols, x)


class OracleReduction(linalg.RowReduction):
    """A RowReduction that compares every solve with dense_solve on the
    matrix it reduced, and counts the solves of its call site."""

    def __init__(self, a, site, counts):
        super().__init__(a)
        self.a, self.site, self.counts = [list(r) for r in a], site, counts

    def solve(self, rhs):
        got = outcome(super().solve, rhs)
        assert got == outcome(dense_solve, self.a, rhs)
        self.counts[self.site] = self.counts.get(self.site, 0) + 1
        if isinstance(got, tuple):
            raise SingularError(got[1])
        return got


def split_planes(cfg):
    """The canonical split plane, and F[c] for c = e_1 + a e_-1 + e_2 + e_3
    with Q(c) = -1, oriented by e+- = (1 +- c)/2."""
    e = {lbl: basis_octonion(cfg, lbl) for lbl in (-1, 1, 2, 3)}
    a = -bilinear_f(e[1], e[-1]).inv()
    c = e[1] + e[-1].scale(a) + e[2] + e[3]
    half = cfg.from_int(2).inv()
    unit = octonion_unit(cfg)
    ep, em = (unit + c).scale(half), (unit - c).scale(half)
    return [hyperbolic_plane(cfg),
            CompositionSubalgebra(cfg, [unit, c], idempotents=(ep, em))]


@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_adapted_basis_coordinates_match_dense_solve(cfg, monkeypatch):
    """CompositionSubalgebra.coordinates, ordered_polarization,
    restrict_to_basis, strata._lattice_split_by and the HermitianSpace of
    HermitianModel read coordinates by replaying one RowReduction per
    basis; every replay equals dense_solve on the same matrix."""
    counts = {}
    for module in (octonions, endo, strata):
        monkeypatch.setattr(
            module, "RowReduction",
            lambda a, site=module.__name__: OracleReduction(a, site, counts))
    rng = random.Random(cfg.p)
    one, zero = cfg.one(), cfg.zero()
    for d in (hyperbolic_plane(cfg), anisotropic_plane(cfg),
              ramified_plane(cfg), standard_split_dim4(cfg),
              division_quaternion(cfg)):
        for _ in range(3):
            coeffs = [cfg.random(rng, width=2, vmin=-1, vmax=1)
                      for _ in d.basis]
            d.coordinates(Octonion(cfg, linalg.lin_comb(
                cfg, coeffs, [b.coords for b in d.basis])))
    seq = lattice_seq_from_norm(extend_sl3(wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]),
        hyperbolic_plane(cfg)))
    split = []
    for d in split_planes(cfg):
        wp, wm = ordered_polarization(d)
        assert all(bilinear_f(m, w) == (one if i == j else zero)
                   for i, m in enumerate(wm) for j, w in enumerate(wp))
        phi = [[cfg.random(rng, width=1, vmin=0, vmax=1) for _ in range(3)]
               for _ in range(3)]
        phi[2][2] = -(phi[0][0] + phi[1][1])
        assert restrict_to_basis(lift_sl3(phi, d), wp) == phi
        restrict_to_basis(random_so(cfg, rng, width=1),
                          list(d.basis) + wp + wm)
        witness = [WitnessBlock([0, 1], space) for space in (
            d.space, linalg.Subspace(cfg, 8, [w.coords for w in wp]),
            linalg.Subspace(cfg, 8, [w.coords for w in wm]))]
        split.append(strata._lattice_split_by(seq, witness))
    # the sequence was extended across the canonical plane, so its own
    # polarization splits it
    assert split[0]
    endo_solves = counts["g2kit.endo"]
    model = HermitianModel(anisotropic_plane(cfg))
    space = model.space
    model.bar_wedge(space.basis[0], space.basis[1] + space.fbasis[3])
    # two coordinate replays and one pairing solve
    assert counts["g2kit.endo"] == endo_solves + 3
    assert set(counts) == {"g2kit.octonions", "g2kit.endo", "g2kit.strata"}


def test_mixed_configs_raise():
    c5, c7 = FieldConfig(5, 8), FieldConfig(7, 8)
    a5 = linalg.identity(c5, 3)
    z7 = linalg.zeros(c7, 3, 3)
    for op in (linalg.mat_add, linalg.mat_sub, linalg.mat_mul,
               linalg.trace_product):
        with pytest.raises(ConfigMismatchError):
            op(a5, z7)
    with pytest.raises(ConfigMismatchError):
        linalg.mat_scale(c7.one(), linalg.zeros(c5, 2, 2))
    with pytest.raises(ConfigMismatchError):
        EndV.zero(c5) * c7.from_int(3)
    with pytest.raises(ConfigMismatchError):
        c5.t() - c7.zero()
    mixed = [[c5.one(), c5.t()], [c7.one(), c7.zero()]]
    with pytest.raises(ConfigMismatchError):
        linalg.rref(mixed)


def test_zero_shortcuts_keep_values():
    cfg = FieldConfig(7, 8, "unramified")
    x = cfg.from_coeffs(-1, [(1, 2), 0, (3, 4)])
    z = cfg.zero()
    assert x - z is x
    assert -z is z
    assert z - x == -x
    assert x - z == x + (-z)
