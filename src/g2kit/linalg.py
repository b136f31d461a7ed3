"""Exact linear algebra over a field, on lists of rows.

rref, kernel and Subspace take a field object: a FieldConfig, whose
entries are Scalars, or a residue.PrimeField, whose entries are reduced
ints.  The field object holds all that differs between the two: zero,
one, is_zero, neg and the row operations.  coerce_row reduces ints where
they enter a Subspace or its contains; support and column_support list
the nonzero entries of a row or a column; pivot_row takes the first row
of least valuation (which keeps eliminations inside the truncation
window; over F_p every nonzero residue has valuation 0, so it is the
first nonzero row); normalize scales the pivot row to a one, and
subtract_multiple eliminates at row level over the pivot row's nonzero
support; row_times is the row-by-matrix product that Subspace.perp
pairs its rows with, and Subspace.intersection is a perp of perps for the
dot product, so it works over both fields.  The other functions take
Scalars.

Zero entries are skipped structurally: products run over the nonzero
entries only, a pivot row is normalised and subtracted only where it is
nonzero, and entrywise sums keep an entry whose partner is zero.  Since
x - f * 0 and x + 0 are x in scalar arithmetic, every result, truncated
digit and raised error is the one dense elimination gives.  The entrywise
kernels, mat_mul and trace_product (tr(a b) from mat_mul's diagonal sums
alone, by trace_columns over the nonzero columns of b) compare the field
configs of their operands once (a skipped zero would otherwise hide a
ConfigMismatchError).  mat_vec sums each row's nonzero products with one
scalars.dot.

Exact ones cost nothing either: Scalar multiplication by an exact one
returns the other operand and its inverse is itself, and rref neither
inverts a pivot that is exactly one nor rescales its row, since x * 1 is x
for the window-wide entries that every Scalar operation leaves.  Every
digit and error stays the one the residue kernels give.  The Cayley path
no longer multiplies identity-plus-small matrices (it carries offsets
g - 1), but most of the pivots of its row reductions of [1 - X/2 | X]
are still exact ones, as are many products in rref's row updates and in
the desk suites.

RowReduction is the one way to take coordinates on a basis: the basis
columns are row-reduced once, and the recorded row operations are
replayed on each vector, raising SingularError for a vector outside the
span.  solve(a, rhs) is RowReduction(a).solve(rhs) for a one-off system.
"""

from __future__ import annotations

from .errors import SingularError
from .scalars import FieldConfig, dot


def zeros(field, n: int, m: int):
    z = field.zero()
    return [[z for _ in range(m)] for _ in range(n)]


def identity(field, n: int):
    out = zeros(field, n, n)
    one = field.one()
    for i in range(n):
        out[i][i] = one
    return out


def mat_add(a, b):
    a[0][0]._check(b[0][0])
    return [[x if y.is_zero else x + y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    a[0][0]._check(b[0][0])
    return [[x if y.is_zero else x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    c._check(a[0][0])
    return [[x if x.is_zero else c * x for x in row] for row in a]


def mat_mul(a, b):
    """a b, summing a_il * b_lj over the nonzero terms in increasing l."""
    a[0][0]._check(b[0][0])
    m = len(b[0])
    cfg = a[0][0].cfg
    zero = cfg.zero()
    b_rows = [cfg.support(row) for row in b]
    out = []
    for ai in a:
        acc = [None] * m
        for x, bl in zip(ai, b_rows):
            if x.is_zero:
                continue
            for j, y in bl:
                term = x * y
                s = acc[j]
                acc[j] = term if s is None else s + term
        out.append([zero if s is None else s for s in acc])
    return out


def trace_product(a, b):
    """tr(a b) from the diagonal of mat_mul's sums alone, added from zero
    as EndV.trace adds them: the digits and errors of (a b).trace()."""
    a[0][0]._check(b[0][0])
    return trace_columns(a, [[(l, bl[i]) for l, bl in enumerate(b)
                              if bl[i].coeffs] for i in range(len(a))])


def trace_columns(a, columns):
    """tr(a y) for y given by its columns, columns[i] the nonzero entries
    (l, y_li) in increasing l: entry i of the diagonal of a y sums the
    products a_il y_li with a_il nonzero over increasing l, and the
    diagonal is added from zero in increasing i."""
    acc = a[0][0].cfg.zero()
    for ai, col in zip(a, columns):
        entry = None
        for l, y in col:
            x = ai[l]
            if x.is_zero:
                continue
            term = x * y
            entry = term if entry is None else entry + term
        if entry is not None:
            acc = acc + entry
    return acc


def mat_vec(a, v):
    """a v, each entry one scalars.dot over the nonzero products of a row."""
    support = a[0][0].cfg.support(v)
    out = []
    for row in a:
        cfg = row[0].cfg
        terms = [(1, row[j], y) for j, y in support if row[j].coeffs]
        out.append(dot(cfg, terms) if terms else cfg.zero())
    return out


def lin_comb(cfg: FieldConfig, coeffs, vectors):
    """The entrywise sum of c * v over the pairs (c, v)."""
    out = [cfg.zero()] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero:
            out = [a if b.is_zero else a + c * b for a, b in zip(out, v)]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(rows, ops=None, field=None):
    """Reduced row echelon form; returns (rows, pivot_columns).  The field
    is that of the entries (the FieldConfig of Scalar entries by default).

    With a list ops, record per pivot the swapped row, the pivot inverse
    and the (row, factor) eliminations, so that the same row operations can
    be replayed on a right-hand side (RowReduction)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    if field is None:
        field = rows[0][0].cfg
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        i = field.pivot_row(rows, c, r)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = field.normalize(rows[r], c)
        support = field.support(rows[r])
        elims = []
        for j, f in field.column_support(rows, c):
            if j != r:
                field.subtract_multiple(rows[j], f, support)
                elims.append((j, f))
        if ops is not None:
            ops.append((i, inv, elims))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


class RowReduction:
    """The row operations that reduce a matrix, recorded once and replayed
    on each right-hand side: solve(rhs) equals linalg.solve(a, rhs), digit
    for digit, without row-reducing a again."""

    def __init__(self, a):
        self.ncols = len(a[0])
        self.ops = []
        _, self.pivots = rref(a, self.ops)

    def solve(self, rhs):
        """Solve a x = rhs; raises SingularError if unsolvable."""
        v = list(rhs)
        for r, (i, inv, elims) in enumerate(self.ops):
            v[r], v[i] = v[i], v[r]
            y = v[r]
            if y.is_zero:
                continue
            y = v[r] = y * inv
            for j, f in elims:
                v[j] = v[j] - f * y
        if any(not x.is_zero for x in v[len(self.ops):]):
            raise SingularError("inconsistent linear system")
        # free variables stay zero
        x = [rhs[0].cfg.zero() if rhs else None for _ in range(self.ncols)]
        for r, c in enumerate(self.pivots):
            x[c] = v[r]
        return x


def solve(a, rhs):
    """Solve a x = rhs (rhs a vector); raises SingularError if unsolvable."""
    return RowReduction(a).solve(rhs)


def inv(a):
    n = len(a)
    if any(len(r) != n for r in a):
        raise SingularError("inverse needs a square matrix")
    ident = identity(a[0][0].cfg, n)
    aug = [list(a[i]) + ident[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularError("matrix is not invertible")
    return [row[n:] for row in red[:n]]


def det(a):
    """Determinant by fraction-free-ish elimination with valuation pivoting."""
    n = len(a)
    cfg = a[0][0].cfg
    rows = [list(r) for r in a]
    out = cfg.one()
    for c in range(n):
        i = cfg.pivot_row(rows, c, c)
        if i is None:
            return cfg.zero()
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            out = -out
        out = out * rows[c][c]
        pinv = rows[c][c].inv()
        support = cfg.support(rows[c])
        for j in range(c + 1, n):
            if not rows[j][c].is_zero:
                cfg.subtract_multiple(rows[j], rows[j][c] * pinv, support)
    return out


def kernel(a, field=None):
    """Basis of the right kernel of a, over the field of rref."""
    if field is None:
        field = a[0][0].cfg
    red, pivots = rref(a, field=field)
    m = len(a[0])
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * m
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


class Subspace:
    """Subspace of field^n with a canonical reduced-echelon basis."""

    def __init__(self, field, ambient: int, vectors):
        self.field = field
        self.ambient = ambient
        rows = [field.coerce_row(v) for v in vectors]
        red, self.pivots = rref(rows, field=field)
        self.rows = [tuple(r) for r in red[:len(self.pivots)]]
        self._supports = [field.support(r) for r in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        field = self.field
        v = field.coerce_row(v)
        is_zero, subtract = field.is_zero, field.subtract_multiple
        for support, c in zip(self._supports, self.pivots):
            f = v[c]
            if not is_zero(f):
                subtract(v, f, support)
        return field.is_zero_row(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def perp(self, gram) -> "Subspace":
        """The orthogonal complement {v : r gram v = 0 for every row r},
        for a Gram matrix over the field of the subspace."""
        field = self.field
        if not self.rows:
            return Subspace(field, self.ambient, identity(field, self.ambient))
        a = [field.row_times(r, gram) for r in self.rows]
        return Subspace(field, self.ambient, kernel(a, field))

    def intersection(self, other: "Subspace") -> "Subspace":
        """The meet with a subspace of the same field^n, as the standard-dot
        orthogonal of the sum of the two standard-dot orthogonals: the dot
        product is non-degenerate over any field, so W^perp^perp = W and
        (A^perp + B^perp)^perp = A meet B."""
        dot = identity(self.field, self.ambient)
        both = self.perp(dot).rows + other.perp(dot).rows
        return Subspace(self.field, self.ambient, both).perp(dot)
