"""Related triples t1(xy) = t2(x)t3(y) (and the Lie version
t1(xy) = t2(x)y + x t3(y)) for every family where the solution has a
closed form: root subgroups, the diagonal torus, the stabilizer of a
polarization (GLW), and the stabilizers of dim-4 and anisotropic dim-2
composition subalgebras.  Fixed points are the automorphism group and
its Lie algebra of derivations.  The anisotropic dim-2 family and the
bar-wedge model (HermitianModel) take the Gram matrix, the F-basis, the
coordinates and the Phi-pairing system from endo.HermitianSpace.

On so(V), triality is a table on the 28 coordinates that _lie_tables
derives from the octonion multiplication table and verifies on first use;
the Lie solver, the six words sigma^a rho^b and the root and diagonal
triples read it.  An image is summed from the nonzero coordinates of x
only (_image), in increasing coordinate order.

On the pro-p generators, GroupTriality moves descriptors (a root u_{i,j}
by the t2 and hat tables, a torus by its weights), each instance forming
the image of a descriptor under a letter once, and a generator near 1 is
read as its sparse offset g - 1 (GroupGenerator.offset) with no 8 x 8
matrix formed.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .endo import (SO_INDEX, SO_LABELS, SO_PLACES, EndV, HermitianSpace,
                   assemble, d_torus_lie, first_candidate, is_derivation,
                   leibniz_holds, multiplicative_holds, root_entries,
                   sandwich, so_coords, so_entries, so_matrix, so_rows,
                   u_root, u_root_lie)
from .errors import DomainError, KindError, TripleError, WitnessError
from .linalg import Subspace, det, inv
from .octonions import (BASIS_PRODUCT, CONJ_COLS, CONJ_ROWS, LABELS,
                        TRACE_VEC, UNIT_VEC, CompositionSubalgebra, Octonion,
                        basis_octonion, from_coords, gram_scalar)
from .scalars import FieldConfig, Scalar, dot


class TrialityTriple:
    """A triple of isometries (or so(V) elements when lie=True) satisfying
    the triality identity on all basis pairs."""

    __slots__ = ("t1", "t2", "t3", "lie")

    def __init__(self, t1: EndV, t2: EndV, t3: EndV, lie: bool = False):
        self.t1, self.t2, self.t3, self.lie = t1, t2, t3, lie
        if not check_related(t1, t2, t3, lie):
            raise TripleError("triple does not satisfy the triality identity")

    def __iter__(self):
        return iter((self.t1, self.t2, self.t3))

    def __eq__(self, other):
        if not isinstance(other, TrialityTriple):
            return NotImplemented
        return (self.lie == other.lie and self.t1 == other.t1
                and self.t2 == other.t2 and self.t3 == other.t3)

    def __repr__(self):
        return f"TrialityTriple(lie={self.lie})"

    def to_json(self):
        return {"t1": self.t1.to_json(), "t2": self.t2.to_json(),
                "t3": self.t3.to_json(), "lie": self.lie}


def hat(t: EndV) -> EndV:
    """x -> conj(t(conj(x))); involutive, preserves so(V) and SO(V)."""
    return EndV.adopt(t.cfg, sandwich(CONJ_ROWS, t.rows, CONJ_COLS))


def check_related(t1: EndV, t2: EndV, t3: EndV, lie: bool = False) -> bool:
    """Exact verification of the triality identity on all 64 basis pairs."""
    if lie:
        return leibniz_holds(t1.rows, t2.rows, t3.rows, t1.cfg.zero())
    return multiplicative_holds(t1, t2, t3)


def orbit_triples(triple: TrialityTriple):
    """The six related triples generated by the order-2 and order-3 moves."""
    t1, t2, t3 = triple
    lie = triple.lie
    h = hat
    combos = [
        (t1, t2, t3),
        (t2, t1, h(t3)),
        (t3, h(t2), t1),
        (h(t1), h(t3), h(t2)),
        (h(t2), t3, h(t1)),
        (h(t3), h(t1), t2),
    ]
    return [TrialityTriple(a, b, c, lie) for a, b, c in combos]


# -- root-group and diagonal families -----------------------------------------

def root_triple(cfg: FieldConfig, i: int, j: int, lam: Scalar,
                lie: bool = False) -> TrialityTriple:
    """The related triple headed by u_{i,j}(lam) (or U_{i,j}(lam)), read off
    the Lie tables: u_{i,j}(lam) = 1 + U_{i,j}(lam), and U^2 = 0."""
    mk = u_root_lie if lie else u_root
    t1 = mk(cfg, i, j, lam)
    tables = _lie_tables()
    t2, t3 = (mk(cfg, *_root_image(t, i, j, lam))
              for t in (tables.t2, tables.t3))
    return TrialityTriple(t1, t2, t3, lie)


def diag_lie_triple(cfg: FieldConfig, i: int, s: Scalar) -> TrialityTriple:
    """The Lie-related triple headed by D_i(s), i in 1..4."""
    return solve_lie_triple(d_torus_lie(cfg, i, s))


# -- the polarization-stabilizer family (GLW) ----------------------------------

def iota(cfg: FieldConfig, u: Scalar, g) -> EndV:
    """The isometry scaling e_-4 by u^{-1}, e_4 by u, acting by g on
    (e_1, e_2, e_3) and by the inverse transpose on (e_-1, e_-2, e_-3).
    A diagonal g is a torus GroupGenerator, which builds its diagonal
    from the weights instead."""
    gi = inv([list(r) for r in g])
    images = {
        -4: basis_octonion(cfg, -4).scale(u.inv()),
        4: basis_octonion(cfg, 4).scale(u),
    }
    for col, j in enumerate((1, 2, 3)):
        images[j] = from_coords(cfg, {i: g[row][col]
                                      for row, i in enumerate((1, 2, 3))})
        # (g^T)^{-1}[row][col] = g^{-1}[col][row]
        images[-j] = from_coords(cfg, {-i: gi[col][row]
                                       for row, i in enumerate((1, 2, 3))})
    return EndV.from_action(cfg, images)


def solve_glw(cfg: FieldConfig, u: Scalar, g, lam: Scalar) -> TrialityTriple:
    """Related triple headed by iota(u, g), from a verified square-root
    witness lam^2 = u det(g); the two witnesses +-lam give the
    two solutions."""
    g = [[cfg.coerce(x) for x in row] for row in g]
    if lam * lam != u * det(g):
        raise WitnessError("witness does not satisfy lam^2 = u det g")
    li = lam.inv()
    t1 = iota(cfg, u, g)
    t2 = iota(cfg, li * u, [[li * x for x in row] for row in g])
    t3 = iota(cfg, lam, [[u * li * x for x in row] for row in g])
    return TrialityTriple(t1, t2, t3, lie=False)


# -- dim-4 stabilizer family ----------------------------------------------------

def dim4_stabilizer_map(d4: CompositionSubalgebra, a: Octonion,
                        fx, fy) -> EndV:
    """The map v + v'a -> fx(v) + fy(v') a, assembled on the basis."""
    basis_oct = list(d4.basis) + [b * a for b in d4.basis]
    cols = [list(fx(b).coords) for b in d4.basis]
    cols += [list((fy(b) * a).coords) for b in d4.basis]
    return assemble(d4.cfg, basis_oct, cols)


def solve_dim4(d4: CompositionSubalgebra, a: Octonion, alpha1: Octonion,
               u1: Octonion, delta1: Octonion, v1: Octonion,
               xi: Scalar) -> TrialityTriple:
    """Related triple headed by x + ya -> alpha1 u1 x u1^{-1} + (delta1 v1 y v1^{-1}) a
    with the verified witness xi^2 = Q(u1 / v1)."""
    cfg = d4.cfg
    one = cfg.one()
    for nm, el in (("alpha1", alpha1), ("delta1", delta1)):
        if el.norm() != one or not d4.contains(el):
            raise WitnessError(f"{nm} must be a norm-1 element of D")
    for nm, el in (("u1", u1), ("v1", v1)):
        if el.norm().is_zero or not d4.contains(el):
            raise WitnessError(f"{nm} must be invertible in D")
    ratio = u1 * v1.inv()
    if xi * xi != ratio.norm():
        raise WitnessError("witness does not satisfy xi^2 = Q(u1/v1)")
    u1i, v1i, a1i = u1.inv(), v1.inv(), alpha1.inv()
    xii = xi.inv()

    t1 = dim4_stabilizer_map(
        d4, a,
        lambda x: alpha1 * ((u1 * x) * u1i),
        lambda y: delta1 * ((v1 * y) * v1i))
    t2 = dim4_stabilizer_map(
        d4, a,
        lambda x: (alpha1 * ((u1 * x) * v1i)).scale(xii),
        lambda y: (delta1 * ((v1 * y) * u1i)).scale(xi))
    t3 = dim4_stabilizer_map(
        d4, a,
        lambda x: ((v1 * x) * u1i).scale(xi),
        lambda y: (((delta1 * ((v1 * y) * u1i)) * a1i)).scale(xi))
    return TrialityTriple(t1, t2, t3, lie=False)


# -- anisotropic dim-2 stabilizer family ----------------------------------------

def det_d(d: CompositionSubalgebra, g) -> Octonion:
    """3x3 determinant with entries in the commutative algebra D."""
    t1 = g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
    t2 = g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
    t3 = g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    return t1 - t2 + t3


def solve_dim2(d: CompositionSubalgebra, wbasis, lam1: Octonion, g1,
               xi: Octonion) -> TrialityTriple:
    """Related triple headed by v0 + w -> lam1 v0 + g1 w over an
    anisotropic plane D, with the verified witness Q(xi) = 1,
    xi^2 = lam1 conj(det_D(g1))."""
    cfg = d.cfg
    if d.kind != "field-dim2":
        raise KindError("this family needs an anisotropic plane")
    one = cfg.one()
    if lam1.norm() != one or not d.contains(lam1):
        raise WitnessError("lam1 must be a norm-1 element of D")
    if xi.norm() != one or not d.contains(xi):
        raise WitnessError("xi must be a norm-1 element of D")
    space = HermitianSpace(d, wbasis)
    h = space.gram
    for i in range(3):
        for j in range(3):
            acc = Octonion(cfg, [cfg.zero()] * 8)
            for k in range(3):
                for l in range(3):
                    acc = acc + g1[k][i] * (h[k][l] * g1[l][j].conj())
            if acc != h[i][j]:
                raise WitnessError("g1 does not preserve the hermitian form")
    if xi * xi != lam1 * det_d(d, g1).conj():
        raise WitnessError("witness does not satisfy xi^2 = lam1 conj(det g1)")
    xii = xi.inv()

    def stabilizer_map(lam, g):  # v0 + w -> lam v0 + g w
        return space.linear_map([lam * b for b in d.basis], g)
    t1 = stabilizer_map(lam1, g1)
    g_xi = [[xi * g1[i][j] for j in range(3)] for i in range(3)]
    g_xil = [[(xi * lam1.conj()) * g1[i][j] for j in range(3)] for i in range(3)]
    t2 = stabilizer_map(xii * lam1, g_xi)
    t3 = stabilizer_map(xi, g_xil)
    return TrialityTriple(t1, t2, t3, lie=False)


# -- the hermitian product decomposition (bar-wedge) ------------------------------

class HermitianModel:
    """The product decomposition of V over an anisotropic plane D:
    (v0 + w)(v0' + w') = [v0 v0' - Phi(w, w')] + [v0 w' + w v0' + w /\\ w']
    with the wedge normalized on an orthogonal D-basis {a, b, ab} of W
    by a ^ b ^ ab = Q(ab).

    With x, y the D-coordinates of w1, w2, the wedge is D-linear in its
    third argument: w1 ^ w2 ^ zeta = Q(ab) sum_k zeta_k C_k with the
    cofactors C_k = x_{k+1} y_{k+2} - x_{k+2} y_{k+1} (indices mod 3), so
    bar_wedge reads the pairing right-hand sides on zeta = e_k and c e_k
    off Q(ab) C_k and c Q(ab) C_k.  Elements of D are pairs x0 + x1 c,
    multiplied by (x0 + x1 c)(y0 + y1 c) = (x0 y0 + gamma x1 y1)
    + (x0 y1 + x1 y0) c, where c^2 = gamma = -Q(c).  The F-coordinates,
    the Phi-pairing system and Phi are those of the HermitianSpace on
    {a, b, ab}."""

    def __init__(self, d: CompositionSubalgebra):
        if d.kind != "field-dim2":
            raise KindError("hermitian model needs an anisotropic plane")
        self.d = d
        self.cfg = d.cfg
        c = d.traceless_generator()

        def anisotropic(v):
            return not v.is_zero and not v.norm().is_zero
        a = first_candidate(d.orthogonal_basis_octonions(), anisotropic,
                            "no anisotropic vector found")
        da = Subspace(self.cfg, 8, [v.coords for v in d.basis + [a, c * a]])
        rest = [Octonion(self.cfg, r)
                for r in da.perp(gram_scalar(self.cfg)).rows]
        b = first_candidate(rest, anisotropic, "no anisotropic vector found")
        ab = a * b
        self.space = space = HermitianSpace(d, [a, b, ab])
        self.qab = ab.norm()
        # x0 + x1 c has d.basis coordinates x0 u + x1 v, and
        # c (c0 + c1 c) = gamma c1 + c0 c: a cofactor C = c0 + c1 c gives
        # the d.basis coordinates of Q(ab) C and then of c Q(ab) C as the
        # four sums c0 r0 + c1 r1 over the rows (r0, r1) of _rhs_rows
        u = d.coordinates(space.unit)
        v = d.coordinates(space.c)
        self._rhs_rows = ([(self.qab * u[i], self.qab * v[i]) for i in (0, 1)]
                          + [(self.qab * v[i], space.gamma * self.qab * u[i])
                             for i in (0, 1)])

    def bar_wedge(self, w1: Octonion, w2: Octonion) -> Octonion:
        """The unique z with Phi(zeta, z) = w1 ^ w2 ^ zeta for zeta in W,
        from the cofactors of the D-coordinates of w1 and w2."""
        cfg, space = self.cfg, self.space
        x = space.coords.solve(list(w1.coords))
        y = space.coords.solve(list(w2.coords))
        # D-coordinate k is x[2k] + x[2k+1] c; gx[k] = gamma x[2k+1]
        gx = [space.gamma * x[2 * k + 1] for k in range(3)]
        rhs_all = []
        for i, j in ((2, 4), (4, 0), (0, 2)):
            # C_k = x_i y_j - x_j y_i for the pairs at flat offsets i, j
            c0 = dot(cfg, [(1, x[i], y[j]), (1, gx[i // 2], y[j + 1]),
                           (-1, x[j], y[i]), (-1, gx[j // 2], y[i + 1])])
            c1 = dot(cfg, [(1, x[i], y[j + 1]), (1, x[i + 1], y[j]),
                           (-1, x[j], y[i + 1]), (-1, x[j + 1], y[i])])
            rhs_all += [dot(cfg, [(1, c0, r0), (1, c1, r1)])
                        for r0, r1 in self._rhs_rows]
        return space.solve_pairing(rhs_all)

    def product_via_decomposition(self, v1, w1, v2, w2) -> Octonion:
        """The displayed product formula, for testing against the table."""
        scalar_part = v1 * v2 - self.space.form(w1, w2)
        vector_part = v1 * w2 + w1 * v2 + self.bar_wedge(w1, w2)
        return scalar_part + vector_part


# -- fixed points ----------------------------------------------------------------

def is_g2_element(g: EndV) -> bool:
    """Algebra automorphisms = triality-fixed rotations."""
    return multiplicative_holds(g, g, g)


def is_g2_lie(x: EndV) -> bool:
    return is_derivation(x)


# -- triality on so(V) coordinates ------------------------------------------------
#
# t2, t3 and hat are linear maps of the 28 so(V) coordinates of
# endo.SO_LABELS, kept as tables: lists of 28 columns {row: rational}.

# each word as its letters, applied right to left: s = sigma: x -> t2(x)
# and r = rho: x -> hat(t2(x))
_LETTERS = {"id": "", "rho": "r", "rho2": "rr", "sigma": "s",
            "sigma_rho": "sr", "sigma_rho2": "srr"}
_IDENTITY = [{k: 1} for k in range(len(SO_LABELS))]
_ROOTS = range(4, len(SO_LABELS))  # the root coordinates, after the 4 D_i
LieTables = namedtuple("LieTables", "t2 t3 hat words average inverse")


@lru_cache(maxsize=None)
def _scalar(cfg: FieldConfig, q) -> Scalar:
    """The rational q as a scalar of cfg (p never divides its denominator)."""
    return cfg.from_int(q.numerator) * cfg.from_int(q.denominator).inv()


def _compose(a, b):
    """The table of a o b."""
    out = []
    for col in b:
        acc = {}
        for k, c in col.items():
            for m, d in a[k].items():
                acc[m] = acc.get(m, 0) + c * d
        out.append({m: v for m, v in acc.items() if v})
    return out


def _mul(x: dict, y: dict, out=None) -> dict:
    """out (default 0) plus the product of the octonions x and y, sparse
    vectors {position in LABELS: rational}, read off BASIS_PRODUCT."""
    out = {} if out is None else out
    for i, a in x.items():
        for j, b in y.items():
            cell = BASIS_PRODUCT[i][j]
            if cell is not None:
                out[cell[0]] = out.get(cell[0], 0) + cell[1] * a * b
    return out


def _associator(w: dict, u: int, v: int) -> dict:
    """e_u(w e_v) - (e_u w)e_v."""
    out = _mul({u: 1}, _mul(w, {v: 1}))
    return _mul(_mul({u: 1}, w), {v: -1}, out)


def _associator_equations():
    """One (w, (u, v, m, c)) per traceless basis vector w (the e_k of trace
    0 and the difference of the two of trace 1): coordinate m of
    e_u(w e_v) - (e_u w)e_v is c != 0, and 0 for every other traceless
    basis vector, so that of u(av) - (ua)v is c times a's w-coefficient."""
    ws = [{i: 1} for i, t in enumerate(TRACE_VEC) if not t]
    p, q = (i for i, t in enumerate(TRACE_VEC) if t)
    ws.append({p: 1, q: -1})
    found = {}
    for u in range(8):
        for v in range(8):
            terms = [_associator(w, u, v) for w in ws]
            for n, term in enumerate(terms):
                for m, c in term.items():
                    alone = not any(t.get(m) for t in terms if t is not term)
                    if n not in found and c and alone:
                        found[n] = (u, v, m, c)
            if len(found) == len(ws):
                return [(w, found[n]) for n, w in enumerate(ws)]
    raise TripleError("an associator coordinate is not read alone")


def _local_triality(x, equations):
    """The 8x8 rows of t2 and t3 for x in so(V) given by its 8x8 rational
    rows.  By local triality (Springer and Veldkamp, Octonions, Jordan
    Algebras and Exceptional Groups, 3.5), u = 1 and then v = 1 in
    x(uv) = t2(u)v + u t3(v) give t2 = x - R_a and t3 = x - L_b, where
    b = t2(1) = x(1) - a and the traceless a = t3(1) solves
        u(av) - (ua)v = x(uv) - x(u)v - u x(v) + u(x(1)v)  for all u, v;
    each coordinate of a is read off one of the equations."""
    cols = [{r: row[j] for r, row in enumerate(x) if row[j]} for j in range(8)]
    unit = {j: 1 for j, t in enumerate(UNIT_VEC) if t}
    x1 = _compose(cols, [unit])[0]
    a = {}
    for w, (u, v, m, c) in equations:
        eu, ev = {u: 1}, {v: 1}
        rhs = _compose(cols, [_mul(eu, ev)])[0].get(m, 0)
        rhs -= _mul(cols[u], ev).get(m, 0)
        rhs -= _mul(eu, cols[v]).get(m, 0)
        rhs += _mul(eu, _mul(x1, ev)).get(m, 0)
        if rhs % c:
            coeff = Fraction(rhs, c)
        else:
            coeff = rhs // c
        for n, s in w.items():
            a[n] = a.get(n, 0) + s * coeff
    b = {n: x1.get(n, 0) - a.get(n, 0) for n in x1.keys() | a.keys()}
    t2 = [_mul({j: -1}, a, dict(cols[j])) for j in range(8)]  # x(e_j) - e_j a
    t3 = [_mul(b, {j: -1}, dict(cols[j])) for j in range(8)]  # x(e_j) - b e_j
    return [[[t[j].get(r, 0) for j in range(8)] for r in range(8)]
            for t in (t2, t3)]


@lru_cache(maxsize=None)
def _lie_tables() -> LieTables:
    """Derive the tables (hat from CONJ_ROWS) and verify them, exactly:
    the triality identity on all 64 basis pairs for every column of t2 and
    t3, every column in so(V), every root column a single +-1 root (what
    _root_image reads), and sigma^2 = rho^3 = (sigma rho)^2 = 1."""
    equations = _associator_equations()
    t2, t3, hat_cols = [], [], []
    for k, label in enumerate(SO_LABELS):
        x = so_rows({k: 1}, 0)
        d2, d3 = _local_triality(x, equations)
        if not leibniz_holds(x, d2, d3, 0, operator.not_):
            raise TripleError(f"derived Lie triple fails at {label}")
        hat_rows = sandwich(CONJ_ROWS, x, CONJ_COLS)
        for table, rows in ((t2, d2), (t3, d3), (hat_cols, hat_rows)):
            table.append({n: rows[r][c] for n, ((r, c), _) in
                          enumerate(SO_PLACES) if rows[r][c]})
            if so_rows(table[k], 0) != rows:
                raise TripleError(f"the image of {label} leaves so(V)")
    for k in _ROOTS:
        for table in (t2, t3, hat_cols):
            col = table[k]
            n = min(col, default=None)
            if len(col) != 1 or n not in _ROOTS or col[n] not in (1, -1):
                raise TripleError(f"the image of {SO_LABELS[k]} is not a "
                                  "single +-1 root")
    rho = _compose(hat_cols, t2)
    for name, m, order in (("sigma", t2, 2), ("rho", rho, 3),
                           ("sigma rho", _compose(t2, rho), 2)):
        power = m
        for _ in range(order - 1):
            power = _compose(power, m)
        if power != _IDENTITY:
            raise TripleError(f"{name} does not have order {order}")
    words = dict.fromkeys(_LETTERS, _IDENTITY)
    for word, letters in _LETTERS.items():
        for letter in letters:
            words[word] = _compose(words[word], t2 if letter == "s" else rho)
    average = [{k: v for k in range(len(SO_LABELS)) if (v := Fraction(
        sum(w[n].get(k, 0) for w in words.values()), 6))}
        for n in range(len(SO_LABELS))]
    inverse = {w: next(v for v in words
                       if _compose(words[w], words[v]) == _IDENTITY)
               for w in words}
    return LieTables(t2, t3, hat_cols, words, average, inverse)


def _root_image(table, i: int, j: int, lam: Scalar):
    """(a, b, mu) with U_{a,b}(mu) the image of U_{i,j}(lam) under a table
    of _lie_tables, whose root columns are single +-1 roots."""
    k = SO_INDEX.get((i, j), SO_INDEX.get((j, i)))
    if k is None:
        raise DomainError(f"({i}, {j}) is not a root: i != +-j in +-1..+-4")
    [(n, s)] = table[k].items()
    if (i, j) not in SO_INDEX:
        s = -s  # U_{i,j}(lam) = U_{j,i}(-lam)
    return (*SO_LABELS[n], lam if s > 0 else -lam)


def _support(x: EndV) -> list:
    """The nonzero so(V) coordinates (k, v) of x in increasing k; raises
    DomainError if x is not in so(V)."""
    return [(k, v) for k, v in enumerate(so_coords(x)) if v.coeffs]


def _image(table, support, cfg: FieldConfig) -> dict:
    """The so(V) coordinates {m: Scalar} that table gives from the
    nonzero coordinates support: coordinate m sums its terms v q_mk in
    increasing k, and a coordinate that no term reaches is left out."""
    out = {}
    for k, v in support:
        for m, c in table[k].items():
            term = v if c == 1 else -v if c == -1 else v * _scalar(cfg, c)
            out[m] = out[m] + term if m in out else term
    return out


def solve_lie_triple(x: EndV) -> TrialityTriple:
    """The unique Lie-related triple headed by x, for any x in so(V), read
    off the coordinate tables."""
    support, cfg = _support(x), x.cfg
    tables = _lie_tables()
    t2, t3 = (so_matrix(cfg, _image(t, support, cfg))
              for t in (tables.t2, tables.t3))
    return TrialityTriple(x, t2, t3, lie=True)


class LieTrialityGroup:
    """The six triality automorphisms of so(V): generated by
    sigma: x -> t2(x) (order 2) and rho: x -> hat(t2(x)) (order 3);
    fixed points are exactly the derivations.  An image is formed from
    the nonzero coordinates of x only (_image)."""

    WORDS = tuple(_LETTERS)

    def apply(self, word: str, x: EndV) -> EndV:
        if word not in _LETTERS:
            raise DomainError(f"unknown triality word {word!r}")
        if word == "id":
            return x
        return so_matrix(x.cfg, _image(_lie_tables().words[word],
                                       _support(x), x.cfg))

    def orbit_entries(self, x: EndV):
        """The six (word, image) pairs of x in WORDS order, each image the
        nonzero entries {(i, j): Scalar}, in row-major order, of the one
        apply(word, x) gives.  The so(V) coordinates of x are read once,
        and so_entries places each image's nonzero coordinates: no 8 x 8
        image is formed.  Raises DomainError if x is not in so(V)."""
        support, words = _support(x), _lie_tables().words
        return [(w, so_entries(_image(words[w], support, x.cfg)))
                for w in self.WORDS]

    def average(self, x: EndV) -> EndV:
        """(1/6) sum of the orbit: the projection of so(V) onto the
        derivations."""
        return so_matrix(x.cfg, _image(_lie_tables().average, _support(x),
                                       x.cfg))


def random_g2_lie(cfg: FieldConfig, rng, **kw) -> EndV:
    """Random derivation: the triality average of a random so(V) element."""
    from .endo import random_so
    return LieTrialityGroup().average(random_so(cfg, rng, **kw))


# -- group-level triality on generators ------------------------------------------

class GroupGenerator:
    """Descriptor of a pro-p generator: a root element u_{i,j}(lam) or a
    torus element iota(u, diag(m1, m2, m3)).  Near 1 it is carried as its
    sparse offset g - 1 (offset), read straight from the descriptor: the
    two entries +-lam of a root, the weights minus one on the diagonal of
    a torus.  A torus matrix is its diagonal of weights, with no
    inverse of diag(m1, m2, m3) formed."""

    def __init__(self, kind, data):
        self.kind = kind  # "root" | "torus"
        self.data = data

    @classmethod
    def root(cls, i, j, lam):
        return cls("root", (i, j, lam))

    @classmethod
    def torus(cls, u, m1, m2, m3):
        return cls("torus", (u, m1, m2, m3))

    def matrix(self, cfg) -> EndV:
        """g itself: a root as 1 + its offset; a torus as its diagonal of
        weights, since 1 + (w - 1) is w digit for digit only for a 1-unit
        w, and a torus takes any unit."""
        if self.kind == "root":
            i, j, lam = self.data
            return u_root(cfg, i, j, lam)
        return EndV.from_entries(cfg, {(k, k): w for k, w
                                       in enumerate(self._weights())})

    def offset(self, cfg) -> dict:
        """The nonzero entries {(i, j): Scalar} of matrix(cfg) - 1, in
        row-major order."""
        if self.kind == "root":
            return root_entries(cfg, *self.data)
        one = cfg.one()
        return {(k, k): d for k, w in enumerate(self._weights())
                if (d := w - one).coeffs}

    def _weights(self):
        """A torus generator's diagonal in row order: u and u^{-1} on e_4
        and e_-4, m_k and m_k^{-1} on e_k and e_-k."""
        u, *ms = self.data
        w = {4: u, -4: u.inv()}
        for k, m in enumerate(ms, 1):
            w[k], w[-k] = m, m.inv()
        return [w[label] for label in LABELS]


class GroupTriality:
    """The triality action on the generator families of the pro-p
    filtration subgroups; the square-root witnesses are the canonical
    1-unit roots, matching the unique homomorphic section.  It acts on
    descriptors: a root moves by the t2 and hat tables, a torus by its
    weights (hat swaps u and u^{-1}).  apply gives the image's matrix,
    which psi_b reads for the equivariance of the character;
    quotient_iso_check takes the image descriptor and reads
    its offset g - 1 (GroupGenerator.offset), with no matrix formed.

    A word is applied letter by letter (_apply_desc), and each instance
    keeps the image of a descriptor under each letter, s = _t2 and
    r = _hat after _t2, the first time it forms it: a torus image's
    square root and inverses are formed once per instance, however many
    words reach that descriptor.  The images live as long as the
    instance; a new one forms them again."""

    def __init__(self, cfg: FieldConfig):
        self.cfg = cfg
        self._images = {}  # (letter, kind, data) -> image descriptor

    def _t2(self, gen: GroupGenerator) -> GroupGenerator:
        if gen.kind == "root":
            return GroupGenerator.root(*_root_image(_lie_tables().t2,
                                                    *gen.data))
        u, m1, m2, m3 = gen.data
        prod = u * m1 * m2 * m3
        lam = prod.sqrt_one_unit()
        li = lam.inv()
        return GroupGenerator.torus(li * u, li * m1, li * m2, li * m3)

    def _hat(self, gen: GroupGenerator) -> GroupGenerator:
        if gen.kind == "torus":
            # CONJ_ROWS swaps e_4 and e_-4 and fixes the other lines up to
            # sign, so hat swaps the weights u and u^{-1}
            u, m1, m2, m3 = gen.data
            return GroupGenerator.torus(u.inv(), m1, m2, m3)
        # hat(u_{i,j}(lam)) = 1 + hat(U_{i,j}(lam)), read off the hat table
        return GroupGenerator.root(*_root_image(_lie_tables().hat, *gen.data))

    def apply(self, word: str, gen: GroupGenerator) -> EndV:
        return self._apply_desc(word, gen).matrix(self.cfg)

    def _apply_desc(self, word: str, gen: GroupGenerator) -> GroupGenerator:
        if word not in _LETTERS:
            raise DomainError(f"unknown triality word {word!r}")
        for letter in reversed(_LETTERS[word]):
            key = (letter, gen.kind, gen.data)
            image = self._images.get(key)
            if image is None:
                image = self._t2(gen)
                if letter == "r":
                    image = self._hat(image)
                self._images[key] = image
            gen = image
        return gen

    def inverse_word(self, word: str) -> str:
        """The triality word whose table inverts word's."""
        return _lie_tables().inverse[word]
