"""Exact linear algebra over the scalar field (lists of lists of Scalars).

Pivots are chosen by minimal valuation so that eliminations stay inside
the truncation window on the desk-scale inputs this package works with.
"""

from __future__ import annotations

import math

from .errors import SingularError
from .scalars import FieldConfig


def zeros(cfg: FieldConfig, n: int, m: int):
    z = cfg.zero()
    return [[z for _ in range(m)] for _ in range(n)]


def identity(cfg: FieldConfig, n: int):
    out = zeros(cfg, n, n)
    one = cfg.one()
    for i in range(n):
        out[i][i] = one
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = None
            for l in range(k):
                x = ai[l]
                if x.is_zero or b[l][j].is_zero:
                    continue
                term = x * b[l][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else ai[0].cfg.zero())
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            if x.is_zero or y.is_zero:
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else row[0].cfg.zero())
    return out


def lin_comb(cfg: FieldConfig, coeffs, vectors):
    """The entrywise sum of c * v over the pairs (c, v)."""
    out = [cfg.zero()] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero:
            out = [a + c * b for a, b in zip(out, v)]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _pivot_row(rows, col, start):
    best, best_val = None, math.inf
    for i in range(start, len(rows)):
        x = rows[i][col]
        if not x.is_zero and x.valuation < best_val:
            best, best_val = i, x.valuation
    return best


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        i = _pivot_row(rows, c, r)
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


def solve(a, rhs):
    """Solve a x = rhs (rhs a vector); raises SingularError if unsolvable."""
    n = len(a)
    aug = [list(a[i]) + [rhs[i]] for i in range(n)]
    red, pivots = rref(aug)
    m = len(a[0])
    if m in pivots:
        raise SingularError("inconsistent linear system")
    x = [rhs[0].cfg.zero() if rhs else None for _ in range(m)]
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    # free variables stay zero; verify when the system might be deficient
    return x


def inv(a):
    n = len(a)
    if any(len(r) != n for r in a):
        raise SingularError("inverse needs a square matrix")
    cfg = a[0][0].cfg
    aug = [list(a[i]) + identity(cfg, n)[i] for i in range(n)]
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
        i = _pivot_row(rows, c, c)
        if i is None:
            return cfg.zero()
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            out = -out
        out = out * rows[c][c]
        pinv = rows[c][c].inv()
        for j in range(c + 1, n):
            if rows[j][c].is_zero:
                continue
            f = rows[j][c] * pinv
            rows[j] = [x - f * y for x, y in zip(rows[j], rows[c])]
    return out


def kernel(a):
    """Basis of the right kernel of a."""
    red, pivots = rref(a)
    m = len(a[0])
    cfg = a[0][0].cfg
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [cfg.zero()] * m
        v[fc] = cfg.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


class Subspace:
    """Subspace of cfg^n with a canonical reduced-echelon basis."""

    def __init__(self, cfg: FieldConfig, ambient: int, vectors):
        self.cfg = cfg
        self.ambient = ambient
        rows = [list(v) for v in vectors if any(not x.is_zero for x in v)]
        if rows:
            red, pivots = rref(rows)
            self.rows = [tuple(r) for r in red[:len(pivots)]]
            self.pivots = pivots
        else:
            self.rows = []
            self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    def contains(self, v) -> bool:
        v = list(v)
        for row, c in zip(self.rows, self.pivots):
            if not v[c].is_zero:
                f = v[c]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x.is_zero for x in v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def perp(self, gram) -> "Subspace":
        """Orthogonal complement with respect to a Gram matrix."""
        if not self.rows:
            return Subspace(self.cfg, self.ambient,
                            identity(self.cfg, self.ambient))
        a = [mat_vec(gram, list(r)) for r in self.rows]
        return Subspace(self.cfg, self.ambient, kernel(a))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.cfg, self.ambient,
                        [list(r) for r in self.rows]
                        + [list(r) for r in other.rows])
