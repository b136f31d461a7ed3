"""The split octonion algebra on the Witt basis e_{+-1..4}.

The eight basis vectors are kept in the fixed order
(-4, -1, -2, -3, 3, 2, 1, 4); the multiplication table is the Zorn
vector-matrix product written out on this basis, and it is the single
source of truth: conjugation, the quadratic form Q and its
bilinearization f are all computed from the table at import time and
checked against the composition-algebra axioms (DomainError if one
fails), never hard-coded.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (DomainError, DoublingError, DualityError, KindError,
                     PairError, SingularError)
from .linalg import RowReduction, Subspace, det, lin_comb, transpose
from .scalars import FieldConfig, Scalar, dot, hilbert_symbol

LABELS = (-4, -1, -2, -3, 3, 2, 1, 4)
IDX = {lbl: i for i, lbl in enumerate(LABELS)}
CYCLES = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def _require(ok: bool, message: str) -> None:
    """The import-time checks of the table: DomainError(message) unless
    ok."""
    if not ok:
        raise DomainError(message)


def _int_table():
    """Structure constants: table[(k,l)] = (sign, label) or None."""
    t = {}
    for i, ip, ipp in CYCLES:
        t[(i, ip)] = (-1, -ipp)
        t[(ip, i)] = (1, -ipp)
        t[(-i, -ip)] = (-1, ipp)
        t[(-ip, -i)] = (1, ipp)
    for i in (1, 2, 3):
        t[(i, i)] = None
        t[(-i, -i)] = None
        for j in (1, 2, 3):
            if i == j:
                t[(-i, i)] = (-1, 4)
                t[(i, -i)] = (-1, -4)
            else:
                t.setdefault((-i, j), None)
                t.setdefault((i, -j), None)
    t[(-4, -4)] = (1, -4)
    t[(4, 4)] = (1, 4)
    t[(-4, 4)] = None
    t[(4, -4)] = None
    for i in (1, 2, 3):
        t[(-4, i)] = (1, i)
        t[(i, 4)] = (1, i)
        t[(-4, -i)] = None
        t[(-i, 4)] = None
        t[(-i, -4)] = (1, -i)
        t[(4, -i)] = (1, -i)
        t[(i, -4)] = None
        t[(4, i)] = None
    _require(len(t) == 64, "the table does not cover the 64 basis pairs")
    return t


TABLE = _int_table()
UNIT_VEC = tuple(1 if lbl in (-4, 4) else 0 for lbl in LABELS)


def _int_mul(x, y):
    out = [0] * 8
    for k, a in zip(LABELS, x):
        if not a:
            continue
        for l, b in zip(LABELS, y):
            if not b:
                continue
            cell = TABLE[(k, l)]
            if cell is None:
                continue
            sign, lbl = cell
            out[IDX[lbl]] += sign * a * b
    return out


def _int_apply(m, v):
    return [sum(m[i][j] * v[j] for j in range(8)) for i in range(8)]


def _derive_constants():
    """Trace, conjugation, Q and f on the basis, all from the table."""
    unit = list(UNIT_VEC)
    for i in range(8):
        e = [0] * 8
        e[i] = 1
        _require(_int_mul(unit, e) == e and _int_mul(e, unit) == e,
                 "unit law")
    # e^2 = tr(e) e - Q(e) unit, solved per basis vector
    tr, qd = [], []
    for i in range(8):
        e = [0] * 8
        e[i] = 1
        sq = _int_mul(e, e)
        spare = IDX[4] if i != IDX[4] else IDX[-4]
        q = -sq[spare]
        a = sq[i] + q * unit[i]
        _require(sq == [a * e[j] - q * unit[j] for j in range(8)],
                 "basis square not in span(e, unit)")
        tr.append(a)
        qd.append(q)
    conj = [[tr[j] * unit[i] - (1 if i == j else 0) for j in range(8)]
            for i in range(8)]
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            s = [(1 if k == i else 0) + (1 if k == j else 0) for k in range(8)]
            prod = _int_mul(s, _int_apply(conj, s))
            qs = prod[IDX[-4]]
            _require(prod == [qs * u for u in unit],
                     "x conj(x) is not scalar")
            gram[i][j] = qs - qd[i] - qd[j] if i != j else qs - 2 * qd[i]
    for i in range(8):
        gram[i][i] = 2 * qd[i]
    return tr, conj, qd, gram


TRACE_VEC, CONJ_MAT, Q_DIAG, GRAM = _derive_constants()


def _int_q(v):
    acc = 0
    for i in range(8):
        acc += Q_DIAG[i] * v[i] * v[i]
        for j in range(i + 1, 8):
            acc += GRAM[i][j] * v[i] * v[j]
    return acc


def _check_table_axioms():
    for i in range(8):
        ei = [1 if k == i else 0 for k in range(8)]
        for j in range(8):
            ej = [1 if k == j else 0 for k in range(8)]
            prod = _int_mul(ei, ej)
            lhs = _int_apply(CONJ_MAT, prod)
            rhs = _int_mul(_int_apply(CONJ_MAT, ej), _int_apply(CONJ_MAT, ei))
            _require(lhs == rhs, f"conj not anti-multiplicative at {i},{j}")
            _require(_int_q(prod) == Q_DIAG[i] * Q_DIAG[j],
                     f"Q not multiplicative at {i},{j}")
    _require(all(any(GRAM[i][j] != 0 for j in range(8)) for i in range(8)),
             "f is degenerate on the basis")


_check_table_axioms()

# BASIS_PRODUCT[i][j] = (k, sign) with e_i e_j = sign e_k, or None when the
# product is zero; indices are positions in LABELS.
BASIS_PRODUCT = tuple(
    tuple(None if TABLE[(k, l)] is None
          else (IDX[TABLE[(k, l)][1]], TABLE[(k, l)][0]) for l in LABELS)
    for k in LABELS)


def _signed_permutation(m):
    """Row i of m as (j, s): m[i][j] = s = +-1 is its only nonzero entry."""
    rows = []
    for row in m:
        nonzero = [(j, s) for j, s in enumerate(row) if s]
        _require(len(nonzero) == 1 and nonzero[0][1] in (1, -1),
                 "not a signed permutation matrix")
        rows.append(nonzero[0])
    _require(sorted(j for j, _ in rows) == list(range(len(m))),
             "not a signed permutation matrix")
    return tuple(rows)


# Conjugation and the Gram matrix are signed permutations: row maps of the
# matrices and of their transposes, so products with them are index moves.
CONJ_ROWS = _signed_permutation(CONJ_MAT)
CONJ_COLS = _signed_permutation(transpose(CONJ_MAT))
GRAM_ROWS = _signed_permutation(GRAM)
GRAM_COLS = _signed_permutation(transpose(GRAM))

# Q as a signed sum of coordinate products: one (i, j, s) per term
# s x_i x_j, from the diagonal and the upper triangle of the Gram matrix.
NORM_TERMS = tuple((i, j, Q_DIAG[i] if i == j else GRAM[i][j])
                   for i in range(8) for j in range(i, 8)
                   if (Q_DIAG[i] if i == j else GRAM[i][j]))
_require(all(s in (1, -1) for _, _, s in NORM_TERMS),
         "Q has a coefficient not +-1")


class Octonion:
    """Element of the split octonion algebra over a field config."""

    __slots__ = ("cfg", "coords")

    def __init__(self, cfg: FieldConfig, coords):
        self.cfg = cfg
        self.coords = tuple(coords)
        if len(self.coords) != 8:
            raise DomainError("octonions have 8 coordinates")

    def __getitem__(self, label: int) -> Scalar:
        return self.coords[IDX[label]]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __add__(self, other):
        return Octonion(self.cfg, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return Octonion(self.cfg, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Octonion(self.cfg, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        # the terms of each output coordinate, in the order of a loop over
        # the nonzero x_i and then the nonzero y_j
        terms = [[], [], [], [], [], [], [], []]
        y = other.coords
        for a, row in zip(self.coords, BASIS_PRODUCT):
            if a.coeffs:
                for b, cell in zip(y, row):
                    if cell is not None and b.coeffs:
                        terms[cell[0]].append((cell[1], a, b))
        cfg = self.cfg
        zero = cfg._zero
        return Octonion(cfg, [dot(cfg, t) if t else zero for t in terms])

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Octonion":
        """c x; the configs are compared once, so a zero coordinate (for
        which c * 0 is 0) is kept without a multiplication."""
        c = self.cfg.coerce(c)
        c._check(self.coords[0])
        return Octonion(self.cfg, [a if a.is_zero else c * a
                                   for a in self.coords])

    def conj(self) -> "Octonion":
        x = self.coords
        return Octonion(self.cfg, [x[j] if s > 0 else -x[j]
                                   for j, s in CONJ_ROWS])

    def trace(self) -> Scalar:
        """f(x, 1): the linear trace of x."""
        acc = self.cfg.zero()
        for i, a in enumerate(self.coords):
            if TRACE_VEC[i] and not a.is_zero:
                acc = acc + a * TRACE_VEC[i]
        return acc

    def norm(self) -> Scalar:
        """The multiplicative quadratic form Q(x)."""
        x = self.coords
        return dot(self.cfg, [(s, x[i], x[j]) for i, j, s in NORM_TERMS])

    def inv(self) -> "Octonion":
        q = self.norm()
        if q.is_zero:
            raise ZeroDivisionError("inversion of an isotropic octonion")
        return self.conj().scale(q.inv())

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        terms = []
        for lbl in LABELS:
            c = self[lbl]
            if not c.is_zero:
                terms.append(f"({c})e[{lbl}]")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return [str(c) for c in self.coords]


def basis_octonion(cfg: FieldConfig, label: int) -> Octonion:
    coords = [cfg.zero()] * 8
    coords[IDX[label]] = cfg.one()
    return Octonion(cfg, coords)


def octonion_unit(cfg: FieldConfig) -> Octonion:
    return basis_octonion(cfg, -4) + basis_octonion(cfg, 4)


def from_coords(cfg: FieldConfig, mapping) -> Octonion:
    """Build an octonion from {label: Scalar-or-int}."""
    coords = [cfg.zero()] * 8
    for lbl, c in mapping.items():
        coords[IDX[lbl]] = cfg.coerce(c)
    return Octonion(cfg, coords)


def octonion_from_json(cfg: FieldConfig, data) -> Octonion:
    from .scalars import parse_scalar
    return Octonion(cfg, [parse_scalar(cfg, s) for s in data])


def bilinear_f(x: Octonion, y: Octonion) -> Scalar:
    """f(x,y) = Q(x+y) - Q(x) - Q(y)."""
    a, b = x.coords, y.coords
    return dot(x.cfg, [(s, a[i], b[j]) for i, (j, s) in enumerate(GRAM_ROWS)])


def dual_basis_in(cfg: FieldConfig, basis, space_rows):
    """The vectors of the row space pairing to delta_ij with the given
    basis under f.  The pairing matrix f(row, b) is reduced once and
    replayed on each unit right-hand side."""
    rows = [list(r) for r in space_rows]
    amat = [[dot(cfg, [(s, row[i], b.coords[j])
                       for i, (j, s) in enumerate(GRAM_ROWS)])
             for row in rows] for b in basis]
    reduction = RowReduction(amat)
    out = []
    for k in range(len(basis)):
        rhs = [cfg.one() if i == k else cfg.zero() for i in range(len(basis))]
        try:
            co = reduction.solve(rhs)
        except SingularError as exc:
            raise DualityError("form degenerate on this subspace") from exc
        out.append(Octonion(cfg, lin_comb(cfg, co, rows)))
    return out


def gram_scalar(cfg: FieldConfig):
    """The Gram matrix of f lifted to scalar entries."""
    return [[cfg.from_int(GRAM[i][j]) for j in range(8)] for i in range(8)]


def random_octonion(cfg: FieldConfig, rng, width: int = 2, vmin: int = 0,
                    vmax: int = 0) -> Octonion:
    """Random octonion with coordinate supports small enough that the
    degree-4 identity sweeps stay inside the truncation window."""
    return Octonion(cfg, [cfg.random(rng, width=width, vmin=vmin, vmax=vmax)
                          for _ in range(8)])


def _monomial(cfg, rng, vmin=0, vmax=1):
    return cfg.monomial(cfg.residue.random(rng, nonzero=True),
                        rng.randrange(vmin, vmax + 1))


def random_isotropic_pair(cfg: FieldConfig, rng):
    """Random (h, h') with Q = 0, orthogonal to 1 and f(h, h') = 1.

    Built from monomial data so every division is an exact shift and the
    quadratic identity checks downstream never leave the window.
    """
    a1 = _monomial(cfg, rng, 0, 0)
    a2, a3, b2, b3 = (_monomial(cfg, rng) for _ in range(4))
    h = from_coords(cfg, {1: a1, 2: a2, 3: a3,
                          -1: -(a2 * b2 + a3 * b3) / a1, -2: b2, -3: b3})
    c2, c3, d2 = (_monomial(cfg, rng, 0, 0) for _ in range(3))
    d3 = -(c2 * d2) / c3
    d1 = (cfg.one() - a2 * d2 - a3 * d3 - b2 * c2 - b3 * c3) / a1
    hp = from_coords(cfg, {2: c2, 3: c3, -1: d1, -2: d2, -3: d3})
    if not (h.norm().is_zero and hp.norm().is_zero):
        raise PairError("the pair is not isotropic")
    if bilinear_f(h, hp) != cfg.one():
        raise PairError("the pair is not normalized, f(h, h') != 1")
    return h, hp


# -- composition subalgebras -------------------------------------------------

def gram_schmidt(cfg: FieldConfig, vectors):
    """Gram-Schmidt (p odd) on the unit followed by vectors, in order.

    Returns (basis, None) with basis an orthogonal basis of the span, unit
    first, or (partial, x) for the first nonzero isotropic vector x met.
    """
    out = []
    for x in [octonion_unit(cfg)] + list(vectors):
        for y in out:
            x = x - y.scale(bilinear_f(x, y) * (2 * y.norm()).inv())
        if x.is_zero:
            continue
        if x.norm().is_zero:
            return out, x
        out.append(x)
    return out, None


class CompositionSubalgebra:
    """Unital subalgebra with non-degenerate Q; its kind is derived from
    the span.

    Split planes may carry an ordered idempotent pair fixing the
    orientation of the associated polarization.
    """

    def __init__(self, cfg: FieldConfig, basis, idempotents=None):
        self.cfg = cfg
        self.basis = list(basis)
        self._idempotents = idempotents
        self.space = Subspace(cfg, 8, [b.coords for b in basis])
        if self.space.dim != len(self.basis):
            raise DomainError("subalgebra basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def kind(self) -> str:
        """center, split-dim2 or field-dim2, split-dim4 or division-dim4,
        full.  A nonzero isotropic vector met by gram_schmidt makes the
        algebra split; otherwise the diagonal <1, Q(i), Q(j), ...> decides:
        a plane is split iff -Q(i) is a square, a quaternion algebra iff
        the Hilbert symbol (-Q(i), -Q(j)) is 1."""
        n = self.dim
        if n in (1, 8):
            return "center" if n == 1 else "full"
        ortho, witness = gram_schmidt(self.cfg, self.basis)
        if n not in (2, 4) or (witness is None and len(ortho) != n):
            raise KindError("span is not a composition subalgebra")
        if witness is not None:
            split = True
        elif n == 2:
            split = (-ortho[1].norm()).is_square()
        else:
            split = hilbert_symbol(-ortho[1].norm(), -ortho[2].norm()) == 1
        if n == 2:
            return "split-dim2" if split else "field-dim2"
        return "split-dim4" if split else "division-dim4"

    def contains(self, x: Octonion) -> bool:
        return self.space.contains(x.coords)

    def is_composition(self) -> bool:
        """Closure under product and conjugation, unit, non-degenerate Q."""
        unit = octonion_unit(self.cfg)
        if not self.contains(unit):
            return False
        for a in self.basis:
            if not self.contains(a.conj()):
                return False
            for b in self.basis:
                if not self.contains(a * b):
                    return False
        gram = [[bilinear_f(a, b) for b in self.basis] for a in self.basis]
        return not det(gram).is_zero

    @cached_property
    def _reduction(self) -> RowReduction:
        return RowReduction(transpose([list(b.coords) for b in self.basis]))

    def coordinates(self, x: Octonion):
        """Coordinates of x in this subalgebra's basis: the basis columns
        are row-reduced once, and their row operations replayed on x."""
        return self._reduction.solve(list(x.coords))

    def orthogonal_basis_octonions(self):
        perp = self.space.perp(gram_scalar(self.cfg))
        return [Octonion(self.cfg, row) for row in perp.rows]

    def traceless_generator(self) -> Octonion:
        """A traceless generator of a 2-dimensional subalgebra, found on
        the first call and kept."""
        return self._traceless_generator

    @cached_property
    def _traceless_generator(self) -> Octonion:
        unit = octonion_unit(self.cfg)
        half = self.cfg.half
        for b in self.basis:
            c0 = b - unit.scale(b.trace() * half)
            if not c0.is_zero:
                return c0
        raise DomainError("degenerate 2-dimensional subalgebra")


def center_subalgebra(cfg: FieldConfig) -> CompositionSubalgebra:
    return CompositionSubalgebra(cfg, [octonion_unit(cfg)])


def plane_subalgebra(cfg: FieldConfig, c0: Octonion) -> CompositionSubalgebra:
    """The 2-dimensional subalgebra F1 + F c0, c0 traceless non-isotropic."""
    if not c0.trace().is_zero:
        raise DomainError("generator must be orthogonal to the unit")
    if c0.norm().is_zero:
        raise DomainError("generator must be non-isotropic")
    return CompositionSubalgebra(cfg, [octonion_unit(cfg), c0])


def hyperbolic_plane(cfg: FieldConfig) -> CompositionSubalgebra:
    """The canonical split plane span(e_-4, e_4), oriented so e+ = e_-4."""
    em4, e4 = basis_octonion(cfg, -4), basis_octonion(cfg, 4)
    return CompositionSubalgebra(cfg, [em4, e4], idempotents=(em4, e4))


def anisotropic_plane(cfg: FieldConfig) -> CompositionSubalgebra:
    """An unramified quadratic-field subalgebra F[c], c traceless,
    -Q(c) = 1 - mu^2 a non-square unit.  mu runs over the residue field:
    the integers 2..p-1, or over the unramified extension, where every
    element of F_p is a square, the elements a + b w with b != 0."""
    one, p = cfg.one(), cfg.p
    if cfg.extension == "unramified":
        mus = [(a, b) for b in range(1, p) for a in range(p)]
    else:
        mus = range(2, p)
    for mu in mus:
        m = cfg.monomial(mu, 0)
        if not (one - m * m).is_square():
            c = (basis_octonion(cfg, -4) - basis_octonion(cfg, 4)
                 + basis_octonion(cfg, 1).scale(m)
                 + basis_octonion(cfg, -1).scale(m))
            return plane_subalgebra(cfg, c)
    raise DomainError("no anisotropic plane found")


def ramified_plane(cfg: FieldConfig) -> CompositionSubalgebra:
    """A ramified quadratic-field subalgebra: F[c] with Q(c) = pi, the
    uniformizer (t over the base field, s over the ramified extension)."""
    c = (basis_octonion(cfg, 1).scale(cfg.uniformizer())
         + basis_octonion(cfg, -1))
    return plane_subalgebra(cfg, c)


def standard_split_dim4(cfg: FieldConfig) -> CompositionSubalgebra:
    """span(e_-4, e_4, e_1, e_-1), a split quaternion subalgebra."""
    return CompositionSubalgebra(
        cfg, [basis_octonion(cfg, -4), basis_octonion(cfg, 4),
              basis_octonion(cfg, 1), basis_octonion(cfg, -1)])


def double(d: CompositionSubalgebra, a: Octonion) -> CompositionSubalgebra:
    """Cayley-Dickson step D -> D + Da for a orthogonal to D, Q(a) != 0.

    The product rule (x+ya)(u+va) = (xu - Q(a) conj(v) y) + (vx + y conj(u)) a
    is verified entrywise on all basis pairs of the doubled algebra: both
    sides are bilinear in ((x, y), (u, v)), so the 2n basis vectors (b, 0)
    and (0, b) of D + Da decide it on 4n^2 pairs.
    """
    cfg = d.cfg
    qa = a.norm()
    if qa.is_zero:
        raise DoublingError("doubling element must be non-isotropic")
    for b in d.basis:
        if not bilinear_f(b, a).is_zero:
            raise DoublingError("doubling element must be orthogonal to D")
    new_basis = list(d.basis) + [b * a for b in d.basis]
    zero = Octonion(cfg, [cfg.zero()] * 8)
    pairs = [(b, zero) for b in d.basis] + [(zero, b) for b in d.basis]
    # new_basis lists x + ya for the pairs (x, y), in their order
    for (x, y), xya in zip(pairs, new_basis):
        for (u, v), uva in zip(pairs, new_basis):
            rhs = (x * u - (v.conj() * y).scale(qa)
                   + (v * x + y * u.conj()) * a)
            if xya * uva != rhs:
                raise DoublingError("doubling product formula fails")
    out = CompositionSubalgebra(cfg, new_basis)
    if not out.is_composition():
        raise DoublingError("doubled span is not a composition subalgebra")
    return out


def division_quaternion(cfg: FieldConfig) -> CompositionSubalgebra:
    """A division quaternion subalgebra: unramified plane doubled by b,
    Q(b) = -pi (odd valuation forces anisotropy)."""
    d2 = anisotropic_plane(cfg)
    b = basis_octonion(cfg, 2) - basis_octonion(cfg, -2).scale(cfg.uniformizer())
    return double(d2, b)


def idempotents_from_isotropic_pair(h: Octonion, hp: Octonion):
    """e+ = -h h', e- = -h' h, c = e+ - e- for an isotropic dual pair.

    Preconditions checked exactly: Q(h) = Q(h') = 0, both orthogonal
    to the unit, f(h, h') = 1.
    """
    cfg = h.cfg
    unit = octonion_unit(cfg)
    if not (h.norm().is_zero and hp.norm().is_zero):
        raise PairError("pair must be isotropic")
    if not (h.trace().is_zero and hp.trace().is_zero):
        raise PairError("pair must be orthogonal to the unit")
    if bilinear_f(h, hp) != cfg.one():
        raise PairError("pair must satisfy f(h, h') = 1")
    eplus = -(h * hp)
    eminus = -(hp * h)
    if eplus + eminus != unit:
        raise PairError("idempotent pair does not sum to the unit")
    if eplus * eplus != eplus or eminus * eminus != eminus \
            or not (eplus * eminus).is_zero:
        raise PairError("products of the pair are not orthogonal idempotents")
    return eplus, eminus, eplus - eminus


def standard_idempotents(d: CompositionSubalgebra):
    """Ordered idempotent pair (e+, e-) of a split plane.

    Uses the pair stored at construction when present; otherwise fixes the
    orientation by the leading square root of -Q(c0) for the traceless
    generator c0.
    """
    if d.kind != "split-dim2":
        raise KindError("idempotents need a split 2-dimensional subalgebra")
    if d._idempotents is not None:
        return d._idempotents
    cfg = d.cfg
    c0 = d.traceless_generator()
    lam = sqrt_scalar(-c0.norm())
    half = cfg.half
    unit = octonion_unit(cfg)
    a = c0.scale(lam.inv())
    eplus = (unit + a).scale(half)
    eminus = (unit - a).scale(half)
    if eplus * eplus != eplus or not (eplus * eminus).is_zero:
        raise KindError("plane is not split: idempotent construction failed")

    def lead(o):
        return next(i for i, c in enumerate(o.coords) if not c.is_zero)
    if lead(eminus) < lead(eplus):
        eplus, eminus = eminus, eplus
    return eplus, eminus


def split_polarization(d: CompositionSubalgebra):
    """(W+, W-) = (e+ W, e- W) for a split plane D, W = D-perp.

    Returns two 3-dimensional totally isotropic Subspaces with
    W+ . W+ contained in W- and symmetrically.
    """
    if d.kind != "split-dim2":
        raise KindError("polarization needs a split 2-dimensional subalgebra")
    eplus, eminus = standard_idempotents(d)
    cfg = d.cfg
    wbasis = d.orthogonal_basis_octonions()
    wplus = Subspace(cfg, 8, [(eplus * w).coords for w in wbasis])
    wminus = Subspace(cfg, 8, [(eminus * w).coords for w in wbasis])
    if wplus.dim != 3 or wminus.dim != 3:
        raise KindError("polarization does not split into 3+3")
    return wplus, wminus


def ordered_polarization(d: CompositionSubalgebra):
    """Ordered octonion bases (w+_1..3, w-_1..3) of the polarization of a
    split plane, with f(w-_i, w+_j) = delta_ij; the canonical plane yields
    ((e_1, e_2, e_3), (e_-1, e_-2, e_-3))."""
    wplus, wminus = split_polarization(d)
    wp = [Octonion(d.cfg, r) for r in reversed(wplus.rows)]
    return wp, dual_basis_in(d.cfg, wp, wminus.rows)


def sqrt_scalar(x: Scalar) -> Scalar:
    """Square root of a scalar verified to be a square; the leading residue
    root is the smallest one, so the choice is deterministic."""
    if x.is_zero:
        return x
    if not x.is_square():
        raise DomainError("scalar is not a square")
    cfg = x.cfg
    r = cfg.residue
    lead = r.sqrt(x.leading())
    unit_part = x * cfg.monomial(r.inv(x.leading()), -x.val)
    return cfg.monomial(lead, x.val // 2) * unit_part.sqrt_one_unit()
