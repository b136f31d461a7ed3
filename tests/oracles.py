"""Oracles shared by the tests.

ref_modp_rref, ref_modp_kernel and RefModpSubspace are the row reduction,
kernel and subspace that filtration kept for F_p before linalg's rref,
kernel and Subspace took a residue.PrimeField.  They share no code with
g2kit.

truncate, trace and is_isometry, in g2kit's own arithmetic, are the
window surgery of a Scalar, the trace of an EndV (its diagonal added from
zero, the sum that linalg.trace_product matches digit for digit) and the
test of g in O(V, f).

root_triple_descriptors is the case analysis of the related triple headed
by a root u_{i,j}(lam), kept by hand from the root system, against which
the triality tables derived from the multiplication table are tested."""

from fractions import Fraction

from g2kit.linalg import mat_eq, mat_mul, transpose
from g2kit.octonions import gram_scalar


def truncate(x, cutoff):
    """x with every coefficient of v_F-index >= cutoff dropped (cutoff in
    v_F units, rationals allowed)."""
    if x.is_zero:
        return x
    bound = Fraction(cutoff) * x.cfg.e  # fine units
    zero = x.cfg.residue.zero()
    return x.cfg.from_coeffs(x.val, [c if x.val + i < bound else zero
                                     for i, c in enumerate(x.coeffs)])


def trace(m):
    """tr m of an EndV, its diagonal added from zero in increasing i."""
    acc = m.cfg.zero()
    for i in range(8):
        acc = acc + m.rows[i][i]
    return acc


def is_isometry(g):
    """g^T G g = G for the Gram matrix G of f: g is in O(V, f)."""
    gram = gram_scalar(g.cfg)
    return mat_eq(mat_mul(transpose(g.rows), mat_mul(gram, g.rows)), gram)


NEXT = {1: 2, 2: 3, 3: 1}
PREV = {1: 3, 2: 1, 3: 2}


def root_triple_descriptors(i, j):
    """Component descriptors [(a, b, sign), ...] of the related triple
    headed by u_{i,j}(lam): component n is u_{a,b}(sign lam).  Mixed-sign
    pairs inside +-{1,2,3} are triality-fixed."""
    if i == j or i == -j or {abs(i), abs(j)} - {1, 2, 3, 4}:
        raise ValueError("bad root indices")
    small = {1, 2, 3}
    if abs(i) in small and abs(j) in small:
        if (i > 0) != (j > 0):
            return [(i, j, 1), (i, j, 1), (i, j, 1)]
        if i < 0:
            k = -i
            if -j == PREV[k]:
                return [(i, j, 1), (4, NEXT[k], 1), (NEXT[k], -4, 1)]
            return [(a, b, -s) for (a, b, s) in root_triple_descriptors(j, i)]
        k = i
        if j == PREV[k]:
            return [(i, j, 1), (-4, -NEXT[k], 1), (-NEXT[k], 4, 1)]
        return [(a, b, -s) for (a, b, s) in root_triple_descriptors(j, i)]
    if i == 4 and j > 0:
        return [(4, j, 1), (-PREV[j], -NEXT[j], 1), (4, j, 1)]
    if j == -4 and i > 0:
        return [(i, -4, 1), (i, -4, 1), (-PREV[i], -NEXT[i], 1)]
    if i == -4 and j < 0:
        k = -j
        return [(-4, j, 1), (PREV[k], NEXT[k], 1), (-4, j, 1)]
    if j == 4 and i < 0:
        k = -i
        return [(i, 4, 1), (i, 4, 1), (PREV[k], NEXT[k], 1)]
    # swapped orientation: u_{i,j}(lam) = u_{j,i}(-lam)
    return [(a, b, -s) for (a, b, s) in root_triple_descriptors(j, i)]


def ref_modp_rref(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def ref_modp_kernel(rows, p, m):
    red, pivots = ref_modp_rref(rows, p)
    free = [c for c in range(m) if c not in pivots]
    out = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        out.append(v)
    return out


class RefModpSubspace:
    def __init__(self, p, n, vectors):
        self.p = p
        self.n = n
        rows, pivots = ref_modp_rref(
            [v for v in vectors if any(x % p for x in v)], p)
        self.rows = [tuple(r) for r in rows]
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        v = [x % self.p for x in v]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [(a - f * b) % self.p for a, b in zip(v, row)]
        return not any(v)
