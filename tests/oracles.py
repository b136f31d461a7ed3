"""Independent F_p oracles shared by the tests.

ref_modp_rref, ref_modp_kernel and RefModpSubspace are the row reduction,
kernel and subspace that filtration kept for F_p before linalg's rref,
kernel and Subspace took a residue.PrimeField.  They share no code with
g2kit."""


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
