"""Linear algebra on the octonion space: the form-adjoint, the so(V)
test, derivations (the Lie algebra of the automorphism group), the
sl3/su(2,1) lifts across a 2-dimensional subalgebra, and the analysis of
semisimple derivations by their kernel subalgebra.

The triality identities on the 64 basis pairs, t1(e_i e_j) = t2(e_i) e_j +
e_i t3(e_j) (leibniz_holds, and its defects, leibniz_defects) and
t1(e_i e_j) = t2(e_i) t3(e_j) (multiplicative_holds), walk the column
supports of the maps: t(e_j) is column j of t, and e_i e_j = s e_k is the
cell (k, s) of BASIS_PRODUCT, so t1(e_i e_j) is column k of t1 with sign
s.  No octonion is built, and only the group identity multiplies entries,
one scalars.dot per coordinate.

analyze_semisimple checks that beta is a derivation and verifies its
witness before the analysis, _analyze_semisimple; strata.classify runs
the analysis alone, since strata.validate has decided both.

HermitianSpace, W = D-perp of an anisotropic plane D with its hermitian
form Phi and a D-basis, is where the F-basis, the F-coordinates, the
Phi-pairing system and the Gram matrix are built, for lift_su21,
norms.HermitianNorm and the dim-2 family and HermitianModel of triality.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import DomainError, KindError, LiftError, WitnessError
from .linalg import (RowReduction, Subspace, identity, inv, kernel, lin_comb,
                     mat_add, mat_eq, mat_mul, mat_scale, mat_sub,
                     mat_vec, transpose, zeros)
from .octonions import (BASIS_PRODUCT, GRAM_COLS, GRAM_ROWS, IDX, LABELS,
                        CompositionSubalgebra, Octonion, bilinear_f,
                        gram_scalar, octonion_unit, ordered_polarization,
                        plane_subalgebra, split_polarization, sqrt_scalar)
from .scalars import FieldConfig, Scalar, dot


class EndV:
    """Endomorphism of V as an 8x8 scalar matrix in the fixed Witt basis."""

    __slots__ = ("cfg", "rows")

    def __init__(self, cfg: FieldConfig, rows):
        self.cfg = cfg
        self.rows = [list(r) for r in rows]
        if len(self.rows) != 8 or any(len(r) != 8 for r in self.rows):
            raise DomainError("EndV is an 8x8 matrix")

    @classmethod
    def adopt(cls, cfg: FieldConfig, rows) -> "EndV":
        """Wrap 8x8 row lists that nothing else holds (a linalg result),
        without the constructor's copy and shape check."""
        out = cls.__new__(cls)
        out.cfg = cfg
        out.rows = rows
        return out

    @classmethod
    def zero(cls, cfg) -> "EndV":
        return cls.adopt(cfg, zeros(cfg, 8, 8))

    @classmethod
    def identity(cls, cfg) -> "EndV":
        return cls.adopt(cfg, identity(cfg, 8))

    @classmethod
    def from_entries(cls, cfg, entries) -> "EndV":
        """The matrix with the given entries {(i, j): Scalar}, zero
        elsewhere: the dense form of a sparse matrix."""
        rows = zeros(cfg, 8, 8)
        for (i, j), c in entries.items():
            rows[i][j] = c
        return cls.adopt(cfg, rows)

    @classmethod
    def from_offset(cls, cfg, entries) -> "EndV":
        """1 + the sparse matrix with the given entries {(i, j): Scalar}:
        the group element g whose offset g - 1 they are.  A diagonal entry
        c gives 1 + c and an off-diagonal one is placed as it is, the
        digits of the dense sum identity + from_entries."""
        rows = identity(cfg, 8)
        for (i, j), c in entries.items():
            rows[i][j] = rows[i][j] + c if i == j else c
        return cls.adopt(cfg, rows)

    def entries(self) -> dict:
        """The nonzero entries {(i, j): Scalar}, in row-major order: the
        sparse form in which the offset g - 1 of a group element g near 1
        is carried."""
        return {(i, j): c for i, row in enumerate(self.rows)
                for j, c in enumerate(row) if c.coeffs}

    @classmethod
    def from_action(cls, cfg, images) -> "EndV":
        """Build from the images {label: Octonion} of basis vectors;
        unspecified labels are fixed."""
        m = identity(cfg, 8)
        for lbl, img in images.items():
            j = IDX[lbl]
            for i in range(8):
                m[i][j] = img.coords[i]
        return cls(cfg, m)

    def entry(self, row_label: int, col_label: int) -> Scalar:
        return self.rows[IDX[row_label]][IDX[col_label]]

    def apply(self, x: Octonion) -> Octonion:
        return Octonion(self.cfg, mat_vec(self.rows, list(x.coords)))

    def __mul__(self, other):
        if isinstance(other, EndV):
            return EndV.adopt(self.cfg, mat_mul(self.rows, other.rows))
        if isinstance(other, Octonion):
            return self.apply(other)
        if isinstance(other, (Scalar, int)):
            c = self.cfg.coerce(other)
            return EndV.adopt(self.cfg, mat_scale(c, self.rows))
        return NotImplemented

    def __add__(self, other):
        return EndV.adopt(self.cfg, mat_add(self.rows, other.rows))

    def __sub__(self, other):
        return EndV.adopt(self.cfg, mat_sub(self.rows, other.rows))

    def inverse(self) -> "EndV":
        return EndV.adopt(self.cfg, inv(self.rows))

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, EndV):
            return NotImplemented
        return mat_eq(self.rows, other.rows)

    def __repr__(self):
        nz = sum(1 for r in self.rows for x in r if not x.is_zero)
        return f"EndV({nz} nonzero entries)"

    def to_json(self):
        return [str(x) for r in self.rows for x in r]

    @classmethod
    def from_json(cls, cfg, data) -> "EndV":
        from .scalars import parse_scalar
        if len(data) != 64:
            raise DomainError("EndV serialization needs 64 entries")
        vals = [parse_scalar(cfg, s) for s in data]
        return cls(cfg, [vals[8 * i:8 * i + 8] for i in range(8)])


# -- adjoint, so(V), derivations ----------------------------------------------

def sandwich(left, a, right):
    """L a R for signed permutation matrices L, R given by the row map of L
    and of R^T (octonions.CONJ_ROWS and the like): index moves and signs."""
    return [[a[i][j] if s * t > 0 else -a[i][j] for j, t in right]
            for i, s in left]


def adjoint(x: EndV) -> EndV:
    """sigma(X) with f(X u, v) = f(u, sigma(X) v); G X^T G for the Gram G."""
    return EndV.adopt(x.cfg, sandwich(GRAM_ROWS, transpose(x.rows), GRAM_COLS))


def is_derivation(x: EndV) -> bool:
    """Leibniz rule on all 64 basis pairs."""
    return leibniz_holds(x.rows, x.rows, x.rows, x.cfg.zero())


def _column_supports(t, is_zero=lambda c: c.is_zero):
    """The (row, entry) pairs of the nonzero entries of each column of an
    8x8 row list."""
    return [[(m, row[j]) for m, row in enumerate(t) if not is_zero(row[j])]
            for j in range(8)]


def _add(acc, cell, v):
    """acc[m] += s v for the cell (m, s) of BASIS_PRODUCT (None: nothing)."""
    if cell is not None:
        m, s = cell
        term = v if s > 0 else -v
        acc[m] = acc[m] + term if m in acc else term


def leibniz_holds(t1, t2, t3, zero, is_zero=lambda c: c.is_zero) -> bool:
    """t1(e_i e_j) = t2(e_i) e_j + e_i t3(e_j) on all 64 basis pairs, for
    8x8 row lists over any ring with the given zero and zero test: signed
    sums over the column supports and exact comparisons, with no
    multiplication."""
    c1, c2, c3 = (_column_supports(t, is_zero) for t in (t1, t2, t3))
    add, table = _add, BASIS_PRODUCT
    for i in range(8):
        for j in range(8):
            want, got = {}, {}
            cell = table[i][j]
            if cell is not None:
                k, s = cell
                for m, v in c1[k]:
                    add(want, (m, s), v)
            for a, v in c2[i]:
                add(got, table[a][j], v)
            for b, v in c3[j]:
                add(got, table[i][b], v)
            for m in want.keys() | got.keys():
                if want.get(m, zero) != got.get(m, zero):
                    return False
    return True


def leibniz_defects(x: EndV) -> list:
    """The 64 defects x(e_i e_j) - x(e_i) e_j - e_i x(e_j), pair (i, j) at
    position 8 i + j, each a dict {coordinate: Scalar} that leaves out the
    coordinates no term reaches (those are zero).  For a fixed j the cells
    of the e_a e_j have distinct k, and so do those of the e_j e_b, so each
    coordinate of x(e_i) e_j and of e_i x(e_j) is one signed entry of x.
    A coordinate is the first term minus the second minus the third,
    through the Scalar operations, so it equals the difference of the
    dense octonions digit for digit."""
    cols = _column_supports(x.rows)
    out = []
    for i in range(8):
        for j in range(8):
            d = {}
            cell = BASIS_PRODUCT[i][j]
            if cell is not None:
                k, s = cell
                for m, v in cols[k]:
                    d[m] = v if s > 0 else -v
            left, right = {}, {}
            for a, v in cols[i]:
                _add(left, BASIS_PRODUCT[a][j], v)
            for b, v in cols[j]:
                _add(right, BASIS_PRODUCT[i][b], v)
            for part in (left, right):
                for m, v in part.items():
                    d[m] = d[m] - v if m in d else -v
            out.append(d)
    return out


def multiplicative_holds(t1: EndV, t2: EndV, t3: EndV) -> bool:
    """t1(e_i e_j) = t2(e_i) t3(e_j) on all 64 basis pairs: the group
    counterpart of leibniz_holds."""
    return _first_unrelated_pair(t1, t2, t3) is None


def _first_unrelated_pair(t1: EndV, t2: EndV, t3: EndV):
    """The first pair (i, j), in row-major order, with t1(e_i e_j) !=
    t2(e_i) t3(e_j), or None.  Coordinate m of the product is one
    scalars.dot over the terms s v w with e_a e_b = s e_m, v in column i of
    t2 and w in column j of t3, in the order of Octonion.__mul__ (a, then
    b, increasing), so it equals that product's coordinate digit for
    digit; the eight coordinates of a pair are formed before any is
    compared, as the product forms them."""
    cfg = t1.cfg
    zero = cfg.zero()
    c1 = _column_supports(t1.rows)
    c2 = c1 if t2 is t1 else _column_supports(t2.rows)
    c3 = c2 if t3 is t2 else _column_supports(t3.rows)
    for i, row in enumerate(BASIS_PRODUCT):
        for j, cell in enumerate(row):
            terms = [[], [], [], [], [], [], [], []]
            for a, v in c2[i]:
                cells = BASIS_PRODUCT[a]
                for b, w in c3[j]:
                    c = cells[b]
                    if c is not None:
                        terms[c[0]].append((c[1], v, w))
            want = [zero] * 8
            if cell is not None:
                k, s = cell
                for m, v in c1[k]:
                    want[m] = v if s > 0 else -v
            if [dot(cfg, t) if t else zero for t in terms] != want:
                return i, j
    return None


# -- standard generators -------------------------------------------------------

def root_entries(cfg: FieldConfig, i: int, j: int, lam: Scalar) -> dict:
    """The nonzero entries of U_{i,j}(lam) = u_{i,j}(lam) - 1 in row-major
    order: lam at (e_{-j}, e_i) and -lam at (e_{-i}, e_j)."""
    if i == j or i == -j:
        raise DomainError("root indices must satisfy i != +-j")
    if i not in IDX or j not in IDX:
        raise DomainError("root labels must lie in +-1..+-4")
    lam = cfg.coerce(lam)
    cfg.zero()._check(lam)
    if not lam.coeffs:
        return {}
    return dict(sorted((((IDX[-j], IDX[i]), lam), ((IDX[-i], IDX[j]), -lam))))


def u_root(cfg: FieldConfig, i: int, j: int, lam: Scalar) -> EndV:
    """u_{i,j}(lam): e_i -> e_i + lam e_{-j}, e_j -> e_j - lam e_{-i}."""
    return EndV.from_offset(cfg, root_entries(cfg, i, j, lam))


def u_root_lie(cfg: FieldConfig, i: int, j: int, lam: Scalar) -> EndV:
    """U_{i,j}(lam) = u_{i,j}(lam) - 1, built from its two entries."""
    return EndV.from_entries(cfg, root_entries(cfg, i, j, lam))


def d_torus_lie(cfg: FieldConfig, i: int, s: Scalar) -> EndV:
    """D_i(s): e_i -> s e_i, e_{-i} -> -s e_{-i}, zero elsewhere."""
    if i not in (1, 2, 3, 4):
        raise DomainError("torus index must be 1..4")
    return EndV.from_entries(cfg, {(IDX[i], IDX[i]): s,
                                   (IDX[-i], IDX[-i]): -s})


def so_basis_labels():
    """Index data for the 28 so(V) basis elements: 4 diagonal + 24 roots."""
    return [1, 2, 3, 4], [(i, j) for n, i in enumerate(LABELS)
                          for j in LABELS[n + 1:] if j != -i]


# The 28 coordinates of so(V): the D_i coefficient (entry (i, i)) and the
# U_{i,j} coefficient (entry (-j, i)), in the order of so_basis_labels.
# SO_PLACES[k] holds the two (row, col) positions where coordinate k sits
# with sign +1 and -1.
SO_LABELS = tuple(so_basis_labels()[0] + so_basis_labels()[1])
SO_INDEX = {label: k for k, label in enumerate(SO_LABELS)}
SO_PLACES = tuple(((IDX[i], IDX[i]), (IDX[-i], IDX[-i])) for i in SO_LABELS[:4])
SO_PLACES += tuple(((IDX[-j], IDX[i]), (IDX[-i], IDX[j]))
                   for i, j in SO_LABELS[4:])


# the entries (-i, i), which no coordinate holds: they are 0 on so(V)
_ANTI_DIAGONAL = tuple((IDX[-i], IDX[i]) for i in LABELS)


def is_so(x: EndV) -> bool:
    """sigma(x) = -x, decided on the entries: the two places of each
    SO_PLACES coordinate hold c and -c, and the 8 anti-diagonal entries
    are 0.  No adjoint is formed, and a coordinate whose two places are
    both zero is passed with no negation or comparison."""
    rows = x.rows
    for (r1, c1), (r2, c2) in SO_PLACES:
        a, b = rows[r1][c1], rows[r2][c2]
        if (a.coeffs or b.coeffs) and b != -a:
            return False
    return not any(rows[r][c].coeffs for r, c in _ANTI_DIAGONAL)


def so_coords(x: EndV) -> list:
    """The 28 coordinates of x; raises if x is not in so(V)."""
    if not is_so(x):
        raise DomainError("matrix is not in so(V)")
    return [x.rows[r][c] for (r, c), _ in SO_PLACES]


def so_rows(coords: dict, zero) -> list:
    """The 8x8 rows, filled with zero, of the so(V) element with the
    coordinates {k: c} (a coordinate not given is zero): c and -c at the
    two SO_PLACES of each given c, and no other place visited."""
    rows = [[zero] * 8 for _ in range(8)]
    for k, c in coords.items():
        (r1, c1), (r2, c2) = SO_PLACES[k]
        rows[r1][c1], rows[r2][c2] = c, -c
    return rows


def so_entries(coords: dict) -> dict:
    """The nonzero entries {(i, j): Scalar}, in row-major order, of the
    so(V) element with the coordinates {k: Scalar} (a coordinate not
    given is zero): c and -c at the two SO_PLACES of each nonzero c, the
    entries of so_rows, with no zero entry formed or negated and no
    other place visited."""
    placed = []
    for k, c in coords.items():
        if c.coeffs:
            plus, minus = SO_PLACES[k]
            placed += ((plus, c), (minus, -c))
    placed.sort(key=itemgetter(0))
    return dict(placed)


def so_matrix(cfg: FieldConfig, coords) -> EndV:
    """The so(V) element with the given 28 coordinates, of which only the
    nonzero ones are placed."""
    return EndV.adopt(cfg, so_rows({k: c for k, c in enumerate(coords)
                                    if c.coeffs}, cfg.zero()))


def random_so(cfg: FieldConfig, rng, **kw) -> EndV:
    """Random element of so(V) as S - sigma(S)."""
    s = EndV(cfg, [[cfg.random(rng, **kw) for _ in range(8)] for _ in range(8)])
    return s - adjoint(s)


# -- lifts across a 2-dimensional subalgebra ----------------------------------

def lift_sl3(phi, d: CompositionSubalgebra) -> EndV:
    """Derivation acting by the traceless 3x3 matrix phi on the ordered
    W+ basis, by the negated transpose on the dual W- basis, and by zero
    on D."""
    cfg = d.cfg
    phi = [[cfg.coerce(x) for x in row] for row in phi]
    tr = phi[0][0] + phi[1][1] + phi[2][2]
    if not tr.is_zero:
        raise LiftError("matrix must be traceless")
    wp, wm = ordered_polarization(d)
    cols = [[cfg.zero()] * 8 for _ in d.basis]  # derivation kills D
    cols += [lin_comb(cfg, [phi[i][j] for i in range(3)],
                      [w.coords for w in wp]) for j in range(3)]
    cols += [lin_comb(cfg, [-phi[j][i] for i in range(3)],
                      [w.coords for w in wm]) for j in range(3)]
    return assemble(cfg, list(d.basis) + wp + wm, cols)


def assemble(cfg, basis_oct, image_cols) -> EndV:
    """Matrix in standard coordinates from images on an adapted basis."""
    b = transpose([list(o.coords) for o in basis_oct])
    c = transpose(image_cols)
    return EndV.adopt(cfg, mat_mul(c, inv(b)))


class HermitianSpace:
    """W = D-perp for an anisotropic plane D = F[c], with the hermitian
    form Phi and a D-basis (w_1, w_2, w_3) of W (none if only Phi is
    wanted).  c, gamma = c^2 and the constants of Phi are derived once;
    on first use, fbasis (w_1, c w_1, ..., c w_3), coords (the
    RowReduction of F-coordinates on it), pairing (the RowReduction of the
    12 x 6 system whose rows 2a, 2a + 1 are the d.basis coordinates of
    Phi(fbasis[a], fbasis[j])) and gram (Phi(w_i, w_j)).  A vector outside
    W, or a right-hand side outside the span of pairing, raises
    SingularError."""

    def __init__(self, d: CompositionSubalgebra, wbasis=()):
        self.d = d
        self.cfg = d.cfg
        self.basis = list(wbasis)
        self.c = d.traceless_generator()
        self.gamma = -(self.c.norm())  # c^2 = gamma
        self.unit = octonion_unit(self.cfg)
        self._gamma_inv = self.gamma.inv()

    def form(self, x: Octonion, y: Octonion) -> Octonion:
        """Phi(x, y) in D for the left D-structure:
        (f(x,y) + c^{-1} f(cx,y) c)/2; f = tr_{D/F} o Phi."""
        half = self.cfg.half
        fxy = bilinear_f(x, y)
        fcxy = bilinear_f(self.c * x, y)
        return (self.unit.scale(half * fxy)
                + self.c.scale(half * fcxy * self._gamma_inv))

    @cached_property
    def fbasis(self):
        return [v for w in self.basis for v in (w, self.c * w)]

    @cached_property
    def coords(self) -> RowReduction:
        return RowReduction(transpose([list(f.coords) for f in self.fbasis]))

    @cached_property
    def pairing(self) -> RowReduction:
        amat = []
        for f in self.fbasis:
            co = [self.d.coordinates(self.form(f, z)) for z in self.fbasis]
            amat += [[x[0] for x in co], [x[1] for x in co]]
        return RowReduction(amat)

    @cached_property
    def gram(self):
        return [[self.form(x, y) for y in self.basis] for x in self.basis]

    def solve_pairing(self, rhs) -> Octonion:
        """The z in W whose pairings Phi(f, z), f in fbasis, have the
        d.basis coordinates rhs (two entries per f)."""
        co = self.pairing.solve(rhs)
        return Octonion(self.cfg, lin_comb(self.cfg, co,
                                           [f.coords for f in self.fbasis]))

    def dual_basis(self):
        """The z_k with Phi(w_i, z_k) = delta_ik, so Phi(c w_i, z_k) =
        c delta_ik."""
        zero = [self.cfg.zero()] * 4
        one_c = self.d.coordinates(self.unit) + self.d.coordinates(self.c)
        n = len(self.basis)
        return [self.solve_pairing([x for i in range(n)
                                    for x in (one_c if i == k else zero)])
                for k in range(n)]

    def linear_map(self, v0_images, g) -> EndV:
        """The map sending the basis of D to v0_images and acting
        D-linearly on W by the D-matrix g (octonion entries) on the
        basis."""
        cfg = self.cfg
        cols = [list(v.coords) for v in v0_images]
        for j in range(len(self.basis)):
            img = Octonion(cfg, [cfg.zero()] * 8)
            for i, w in enumerate(self.basis):
                if not g[i][j].is_zero:
                    img = img + g[i][j] * w
            cols += [list(img.coords), list((self.c * img).coords)]
        return assemble(cfg, list(self.d.basis) + self.fbasis, cols)


def lift_su21(phi, d: CompositionSubalgebra, wbasis) -> EndV:
    """Derivation acting D-linearly on W = D-perp by the anti-hermitian
    traceless matrix phi (entries in D, as octonions) in the D-basis
    wbasis, and by zero on D."""
    cfg = d.cfg
    if d.kind != "field-dim2":
        raise KindError("su(2,1) lift needs an anisotropic plane")
    tr = phi[0][0] + phi[1][1] + phi[2][2]
    if not tr.is_zero:
        raise LiftError("matrix must be traceless over D")
    space = HermitianSpace(d, wbasis)
    h = space.gram
    for i in range(3):
        for j in range(3):
            acc = Octonion(cfg, [cfg.zero()] * 8)
            for k in range(3):
                acc = acc + phi[k][i] * h[k][j] + h[i][k] * phi[k][j].conj()
            if not acc.is_zero:
                raise LiftError("matrix is not Phi-anti-hermitian")
    zero = Octonion(cfg, [cfg.zero()] * 8)
    return space.linear_map([zero for _ in d.basis], phi)


def first_candidate(vs, accept, missing: str) -> Octonion:
    """The first of vs, then of the sums x + y of distinct x, y in vs,
    that accept holds for; DomainError(missing) if there is none."""
    for cand in chain(vs, (x + y for x in vs for y in vs if x != y)):
        if accept(cand):
            return cand
    raise DomainError(missing)


def special_hermitian_basis(d: CompositionSubalgebra):
    """A Witt-style D-basis (w-, w0, w+) of W = D-perp with Q(w-+) = 0,
    Phi(w-, w+) = 1 and w0 = (w- + w+)(w- - w+)."""
    space = HermitianSpace(d)
    form = space.form
    w_oct = d.orthogonal_basis_octonions()
    iso = first_candidate(w_oct, lambda v: not v.is_zero and v.norm().is_zero,
                          "no isotropic vector found in D-perp")
    partner = first_candidate(
        w_oct, lambda v: not (mu := form(v, iso)).is_zero
        and not mu.norm().is_zero, "no dual partner found")
    # make partner isotropic: replace by partner - Phi(partner,partner)/(2 Phi(partner,iso)) iso
    ppp = form(partner, partner)
    ppi = form(partner, iso)
    corr = (ppp * ppi.inv()).scale(space.cfg.half)
    partner = partner - corr * iso
    mu = form(iso, partner)
    # scale partner on the left so that Phi(iso, partner) = 1
    partner = mu.conj().inv() * partner
    w0 = (iso + partner) * (iso - partner)
    assert form(iso, partner) == space.unit
    assert iso.norm().is_zero and partner.norm().is_zero
    return iso, w0, partner


# -- semisimple analysis -------------------------------------------------------

class SemisimpleAnalysis:
    """Kernel subalgebra, orthogonal complement and case tag of a
    semisimple derivation."""

    def __init__(self, case_tag, v0, w_space, extras):
        self.case_tag = case_tag
        self.v0 = v0            # CompositionSubalgebra
        self.w_space = w_space  # Subspace
        self.extras = extras    # dict, case dependent

    def __repr__(self):
        return f"SemisimpleAnalysis(case={self.case_tag}, dim_v0={self.v0.dim})"


def _poly_eval(coeffs, x, zero, one):
    """sum coeffs[k] x^k (coeffs[0] constant term, scalars of the field of
    x), for x a scalar or an EndV with the given zero and one."""
    out, power = zero, one
    for c in coeffs:
        if not c.is_zero:
            out = out + power * c
        power = power * x
    return out


def verify_witness(beta: EndV, witness) -> None:
    """Check a decomposition witness: kernels span V, blocks are
    annihilated by their factors, factors are pairwise coprime."""
    verify_witness_blocks(beta, witness)
    if not witness_coprime(witness):
        raise WitnessError("witness factors are not coprime")


def verify_witness_blocks(beta: EndV, witness) -> None:
    """The clauses of verify_witness other than coprimality."""
    cfg = beta.cfg
    total = 0
    all_rows = []
    for blk in witness:
        coeffs, space = blk.factor, blk.space
        total += space.dim
        all_rows.extend([list(r) for r in space.rows])
        pb = _poly_eval(coeffs, beta, EndV.zero(cfg), EndV.identity(cfg))
        for row in space.rows:
            img = mat_vec(pb.rows, list(row))
            if any(not x.is_zero for x in img):
                raise WitnessError("factor does not annihilate its block")
        for row in space.rows:
            img = mat_vec(beta.rows, list(row))
            if not space.contains(img):
                raise WitnessError("block is not beta-stable")
    if total != 8 or Subspace(cfg, 8, all_rows).dim != 8:
        raise WitnessError("witness blocks do not decompose V")


def witness_coprime(witness) -> bool:
    """True iff the factors of the witness blocks are pairwise coprime."""
    return all(_poly_coprime(a.factor, b.factor)
               for n, a in enumerate(witness) for b in witness[n + 1:])


def _poly_coprime(p, q) -> bool:
    """Exact gcd over the scalar field; True iff gcd is a unit."""
    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d].is_zero:
            d -= 1
        return d

    a, b = list(p), list(q)
    while True:
        da, db = deg(a), deg(b)
        if db < 0:
            return da == 0
        if da < 0:
            return db == 0
        if da < db:
            a, b = b, a
            continue
        lead = b[db].inv()
        shift = da - db
        factor = a[da] * lead
        new = list(a)
        for k in range(db + 1):
            new[k + shift] = new[k + shift] - factor * b[k]
        a = new


class WitnessBlock:
    """One block of a decomposition witness: a monic-ish factor (constant
    term first), its int coefficients coerced to scalars of the space's
    field, and the subspace it annihilates."""

    def __init__(self, factor, space: Subspace):
        self.factor = [space.field.coerce(c) for c in factor]
        self.space = space


def analyze_semisimple(beta: EndV, witness) -> SemisimpleAnalysis:
    """Classify a semisimple derivation by its kernel subalgebra.

    Cases: (i) hyperbolic-plane, (ii) quadratic-extension,
    (iii) dim4-split-eigen, (iv) dim4-hermitian.  Squareness decisions on
    the dim-4 scalar are made exactly and checked against the witness.
    """
    if not is_derivation(beta):
        raise DomainError("element is not a derivation")
    verify_witness(beta, witness)
    return _analyze_semisimple(beta, witness)


def _analyze_semisimple(beta: EndV, witness) -> SemisimpleAnalysis:
    """The analysis of analyze_semisimple, for a derivation beta whose
    witness is verified."""
    cfg = beta.cfg
    kernel_rows = []
    for blk in witness:
        if _is_x_factor(blk.factor):
            kernel_rows.extend([list(r) for r in blk.space.rows])
    v0_space = Subspace(cfg, 8, kernel_rows)
    dim0 = v0_space.dim
    if dim0 == 8:
        raise DomainError("zero derivation has no semisimple analysis")
    if dim0 not in (2, 4):
        raise WitnessError(f"kernel dimension {dim0} is not 2 or 4")
    v0 = _kernel_subalgebra(cfg, v0_space)
    gram = gram_scalar(cfg)
    w_space = v0_space.perp(gram)
    if dim0 == 2:
        if v0.kind == "split-dim2":
            wplus, wminus = split_polarization(v0)
            wp, wm = ordered_polarization(v0)
            bw = restrict_to_basis(beta, wp)
            tr = bw[0][0] + bw[1][1] + bw[2][2]
            if not tr.is_zero:
                raise WitnessError("restriction to W+ must be traceless")
            return SemisimpleAnalysis("(i) hyperbolic-plane", v0, w_space,
                                      {"wplus": wplus, "wminus": wminus,
                                       "wplus_basis": wp, "wminus_basis": wm,
                                       "beta_wplus": bw})
        bw6 = restrict_to_basis(beta, [Octonion(cfg, r) for r in w_space.rows])
        if not _is_d_linear(beta, v0, w_space):
            raise WitnessError("restriction is not D-linear")
        tr6 = bw6[0][0]
        for k in range(1, 6):
            tr6 = tr6 + bw6[k][k]
        if not tr6.is_zero:
            raise WitnessError("restriction to W must be traceless")
        return SemisimpleAnalysis("(ii) quadratic-extension", v0, w_space,
                                  {"beta_w": bw6})
    # dim 4: beta_W^2 must be a scalar u
    u = _square_scalar_on(beta, w_space)
    if u.is_zero:
        raise WitnessError("restriction squares to zero: not semisimple")
    if u.is_square():
        lam = sqrt_scalar(u)
        _expect_factor(cfg, witness, lam)
        wl = _eigenspace(beta, w_space, lam)
        wml = _eigenspace(beta, w_space, -lam)
        if wl.dim != 2 or wml.dim != 2:
            raise WitnessError("eigenspaces of the dim-4 case must be 2+2")
        if v0.kind != "split-dim4":
            raise WitnessError("split eigenvalues force a split kernel algebra")
        return SemisimpleAnalysis("(iii) dim4-split-eigen", v0, w_space,
                                  {"lambda": lam, "w_lambda": wl,
                                   "w_minus_lambda": wml, "u": u})
    return SemisimpleAnalysis("(iv) dim4-hermitian", v0, w_space,
                              {"u": u, "min_poly": (-u, cfg.zero(), cfg.one())})


def _is_x_factor(c) -> bool:
    return (len(c) >= 2 and c[0].is_zero and not c[1].is_zero
            and all(x.is_zero for x in c[2:]))


def _kernel_subalgebra(cfg, space: Subspace) -> CompositionSubalgebra:
    octs = [Octonion(cfg, r) for r in space.rows]
    unit = octonion_unit(cfg)
    if not space.contains(unit.coords):
        raise WitnessError("kernel must contain the unit")
    if space.dim == 2:
        half = cfg.half
        for o in octs:
            c0 = o - unit.scale(o.trace() * half)
            if not c0.is_zero:
                return plane_subalgebra(cfg, c0)
        raise WitnessError("kernel has no traceless generator")
    d = CompositionSubalgebra(cfg, octs)
    if not d.is_composition():
        raise WitnessError("kernel is not a composition subalgebra")
    return d


def restrict_to_basis(beta: EndV, basis_oct):
    """Matrix of beta on the span of basis_oct in that ordered basis;
    entry [i][j] is the b_i coefficient of beta(b_j)."""
    rows = [list(o.coords) for o in basis_oct]
    reduction = RowReduction(transpose(rows))
    return transpose([reduction.solve(mat_vec(beta.rows, r)) for r in rows])


def _is_d_linear(g, v0, w_space) -> bool:
    c = v0.traceless_generator()
    return all(g.apply(c * w) == c * g.apply(w)
               for w in (Octonion(g.cfg, r) for r in w_space.rows))


def _square_scalar_on(beta, w_space):
    sq = beta * beta
    u = None
    for row in w_space.rows:
        img = mat_vec(sq.rows, list(row))
        # img must equal u * row
        pivot = next(i for i, x in enumerate(row) if not x.is_zero)
        cand = img[pivot] * row[pivot].inv()
        for a, b in zip(img, row):
            if (a - cand * b).is_zero:
                continue
            raise WitnessError("square of restriction is not scalar")
        if u is None:
            u = cand
        elif u != cand:
            raise WitnessError("square of restriction is not a single scalar")
    return u


def restricted_kernel(m, rows):
    """The kernel of the matrix m on span(rows): the combinations of rows
    whose coefficients lie in the kernel of the images' column matrix."""
    cfg = rows[0][0].cfg
    imgs = [mat_vec(m, r) for r in rows]
    return [lin_comb(cfg, co, rows) for co in kernel(transpose(imgs))]


def _eigenspace(beta, w_space, lam):
    shifted = beta - EndV.identity(beta.cfg) * lam
    return Subspace(beta.cfg, 8, restricted_kernel(
        shifted.rows, [list(r) for r in w_space.rows]))


def _expect_factor(cfg, witness, lam):
    """The witness must contain X - lam and X + lam factors (degree-1 blocks)
    or a matching quadratic; we accept any witness whose factors vanish at
    +-lam on some block."""
    found_plus = found_minus = False
    for blk in witness:
        val_p = _poly_eval(blk.factor, lam, cfg.zero(), cfg.one())
        val_m = _poly_eval(blk.factor, -lam, cfg.zero(), cfg.one())
        if val_p.is_zero:
            found_plus = True
        if val_m.is_zero:
            found_minus = True
    if not (found_plus and found_minus):
        raise WitnessError("witness does not certify the split eigenvalues")


def dim4_kernel_derivation(d4: CompositionSubalgebra, a: Octonion,
                           c: Octonion) -> EndV:
    """The derivation vanishing on a dim-4 subalgebra D and acting by
    v'a -> (c v')a on W = Da, for c traceless in D."""
    cfg = d4.cfg
    if d4.dim != 4:
        raise KindError("kernel subalgebra must have dimension 4")
    if not c.trace().is_zero or not d4.contains(c):
        raise DomainError("c must be a traceless element of D")
    qa = a.norm()
    if qa.is_zero:
        raise DomainError("a must be non-isotropic")
    for b in d4.basis:
        if not bilinear_f(b, a).is_zero:
            raise DomainError("a must be orthogonal to D")
    basis_oct = list(d4.basis) + [b * a for b in d4.basis]
    cols = [[cfg.zero()] * 8 for _ in range(4)]
    for b in d4.basis:
        cols.append(list(((c * b) * a).coords))
    return assemble(cfg, basis_oct, cols)
