"""Residue-field arithmetic: F_p and its quadratic extension F_{p^2}.

Elements of F_p are ints in [0, p); elements of F_{p^2} are pairs
(a, b) meaning a + b*w with w^2 = delta, delta a fixed non-square.

Besides the element operations, each field has kernels on whole
coefficient tuples, the residues of a truncated Laurent series from its
leading term on: aligned sum and difference, negation, truncated
convolution, truncated series inverse and the signed sum of products
dot_series.  They take canonical tuples (reduced residues, no leading or
trailing zero) and return canonical ones, so a series operation costs one
call, not one per coefficient.

dot_series is exact: it keeps int accumulators over a span the caller
has checked to hold every full product, reduces each output coefficient
once and strips once.  Deciding that the span fits the precision window
(and folding through the truncating operations when it does not) is the
caller's part, scalars.dot.

PrimeField also has the row operations through which linalg does its
linear algebra over F_p (FieldConfig has the same ones for Scalars).
"""

import operator

from .errors import DomainError, PrecisionError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class _SeriesKernels:
    """Coefficient-tuple kernels shared by both residue fields.

    A field supplies ZERO, the one-coefficient series ONE and three list
    operations on equal-length residue sequences: _plus, _minus
    (entrywise) and _negs.
    """

    ZERO = 0
    ONE = (1,)

    def strip(self, coeffs):
        """(lo, coeffs[lo:hi]) with the leading and trailing zeros cut;
        (0, ()) when every coefficient is zero."""
        z = self.ZERO
        hi = len(coeffs)
        while hi and coeffs[hi - 1] == z:
            hi -= 1
        if not hi:
            return 0, ()
        lo = 0
        while coeffs[lo] == z:
            lo += 1
        return lo, tuple(coeffs[lo:hi])

    def add_series(self, va, a, vb, b, n):
        """u^va * a + u^vb * b on the n-coefficient window from the lower
        valuation, as a canonical (val, coeffs)."""
        if va == vb and len(a) == len(b) <= n:
            # equal supports inside the window (about three quarters of the
            # sums and nine tenths of the differences in the benchmark
            # workloads) need no shifting, truncation or tail check
            lo, coeffs = self.strip(self._plus(a, b))
            return (va + lo, coeffs) if coeffs else (0, ())
        return self._aligned(va, a, vb, b, n, False)

    def sub_series(self, va, a, vb, b, n):
        """u^va * a - u^vb * b, windowed as in add_series."""
        if va == vb and len(a) == len(b) <= n:
            lo, coeffs = self.strip(self._minus(a, b))
            return (va + lo, coeffs) if coeffs else (0, ())
        return self._aligned(va, a, vb, b, n, True)

    def neg_series(self, a):
        return tuple(self._negs(a))

    def _aligned(self, va, a, vb, b, n, sub):
        # f starts first, s starts d places later; whichever of them is b
        # enters negated when subtracting
        if va <= vb:
            m, d, f, s = va, vb - va, a, b
            neg_f, neg_s = False, sub
        else:
            m, d, f, s = vb, va - vb, b, a
            neg_f, neg_s = sub, False
        lf, ls = len(f), len(s)
        if d >= lf:
            out = self._negs(f) if neg_f else list(f)
            out += [self.ZERO] * (d - lf)
            out += self._negs(s) if neg_s else s
        else:
            k = min(lf - d, ls)
            out = self._negs(f[:d]) if neg_f else list(f[:d])
            if not sub:
                out += self._plus(f[d:d + k], s[:k])
            elif neg_s:
                out += self._minus(f[d:d + k], s[:k])
            else:
                out += self._minus(s[:k], f[d:d + k])
            if lf > d + k:
                out += self._negs(f[d + k:]) if neg_f else f[d + k:]
            elif ls > k:
                out += self._negs(s[k:]) if neg_s else s[k:]
        lo, coeffs = self.strip(out[:n])
        if coeffs:
            return m + lo, coeffs
        if any(c != self.ZERO for c in out[n:]):
            raise PrecisionError(
                "sum cancels through the whole representable window")
        return 0, ()


class PrimeField(_SeriesKernels):
    """Arithmetic in Z/p for a prime p."""

    def __init__(self, p: int):
        self.p = p

    def coerce(self, a):
        return int(a) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def is_square(self, a) -> bool:
        a %= self.p
        if a == 0:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        """Square root by direct search; p stays desk-sized here."""
        a %= self.p
        for r in range(self.p):
            if (r * r) % self.p == a:
                return r
        raise DomainError(f"{a} is not a square mod {self.p}")

    def non_square(self) -> int:
        for r in range(2, self.p):
            if not self.is_square(r):
                return r
        raise DomainError("no non-square found")  # unreachable for p >= 3

    def random(self, rng, nonzero=False):
        lo = 1 if nonzero else 0
        return rng.randrange(lo, self.p)

    def fmt(self, a) -> str:
        return str(a % self.p)

    # -- rows of reduced residues, for linalg (FieldConfig has the same) ----

    def coerce_row(self, v):
        """The int entries of v reduced mod p, as a new list."""
        p = self.p
        return [a % p for a in v]

    def is_zero_row(self, row) -> bool:
        return not any(row)

    def support(self, row):
        """The (column, entry) pairs of the nonzero entries of a row."""
        return [(j, a) for j, a in enumerate(row) if a]

    def column_support(self, rows, col):
        """The (row, entry) pairs of the nonzero entries of a column."""
        return [(i, row[col]) for i, row in enumerate(rows) if row[col]]

    def pivot_row(self, rows, col, start):
        """The first row from start on with a nonzero entry in col: every
        nonzero residue has valuation 0, so this is FieldConfig's rule of
        the first row of least valuation."""
        for i in range(start, len(rows)):
            if rows[i][col]:
                return i
        return None

    def normalize(self, row, col):
        """Scale row in place to a one in col; return the factor used."""
        p = self.p
        f = self.inv(row[col])
        for k, a in self.support(row):
            row[k] = (a * f) % p
        return f

    def subtract_multiple(self, row, f, support):
        """row -= f * pivot_row in place, on the pivot row's support."""
        p = self.p
        for k, y in support:
            row[k] = (row[k] - f * y) % p

    # -- coefficient-tuple kernels ------------------------------------------

    def _plus(self, xs, ys):
        p = self.p
        return [(x + y) % p for x, y in zip(xs, ys)]

    def _minus(self, xs, ys):
        p = self.p
        return [(x - y) % p for x, y in zip(xs, ys)]

    def _negs(self, xs):
        p = self.p
        return [p - x if x else 0 for x in xs]

    def mul_series(self, a, b, n):
        """Product of two nonzero series truncated to n coefficients.  The
        leading product is nonzero (a field), and so is the last one unless
        the window cut the product short: only then is there a zero tail
        to strip.  A monomial factor leaves no zero tail."""
        p = self.p
        la, lb = len(a), len(b)
        if la == 1 == lb:
            return ((a[0] * b[0]) % p,)
        width = la + lb - 1
        full = width <= n
        if full:
            # a monomial factor and a 2 x 2 product are each about a fifth
            # of the products in desk-suites
            if la == 1:
                x = a[0]
                return tuple([(x * y) % p for y in b])
            if lb == 1:
                y = b[0]
                return tuple([(x * y) % p for x in a])
            if width == 3:
                (x0, x1), (y0, y1) = a, b
                return ((x0 * y0) % p, (x0 * y1 + x1 * y0) % p, (x1 * y1) % p)
        else:
            width = n
        acc = [0] * width
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:width - i], i):
                    acc[j] += x * y
        out = [c % p for c in acc]
        return tuple(out) if full else self.strip(out)[1]

    def dot_series(self, terms, lo, width):
        """Sum of s * u^v * a * b over the (s, v, a, b) terms, s = +-1 and
        b = ONE for a plain term, on the width coefficients from u^lo,
        which hold every product whole; (lead, coeffs) as from strip."""
        acc = [0] * width
        for s, v, a, b in terms:
            if len(b) == 1:
                # a plain term or a monomial factor (1 x 1 terms are about
                # two fifths of the terms in desk-suites): one pass over a
                y = b[0] if s > 0 else -b[0]
                if len(a) == 1:
                    acc[v - lo] += a[0] * y
                else:
                    for j, x in enumerate(a, v - lo):
                        acc[j] += x * y
                continue
            for i, x in enumerate(a, v - lo):
                if s < 0:
                    x = -x
                for j, y in enumerate(b, i):
                    acc[j] += x * y
        p = self.p
        return self.strip([c % p for c in acc])

    def inv_series(self, a, n):
        """Inverse of a nonzero series, through n coefficients."""
        p = self.p
        c = self.inv(a[0])
        if len(a) == 1:
            return (c,)
        mc, rest = p - c, a[1:]
        out = [c]
        for _ in range(1, n):
            out.append(mc * sum(map(operator.mul, rest, reversed(out))) % p)
        return self.strip(out)[1]


class QuadField(_SeriesKernels):
    """Arithmetic in F_{p^2} = F_p(w), w^2 = delta (delta a non-square)."""

    ZERO = (0, 0)
    ONE = ((1, 0),)

    def __init__(self, p: int):
        self.p = p
        self.base = PrimeField(p)
        self.delta = self.base.non_square()

    def coerce(self, a):
        if isinstance(a, tuple):
            return (a[0] % self.p, a[1] % self.p)
        return (int(a) % self.p, 0)

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def is_zero(self, a) -> bool:
        return a[0] % self.p == 0 and a[1] % self.p == 0

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def sub(self, a, b):
        return ((a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p)

    def neg(self, a):
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def mul(self, a, b):
        return ((a[0] * b[0] + self.delta * a[1] * b[1]) % self.p,
                (a[0] * b[1] + a[1] * b[0]) % self.p)

    def inv(self, a):
        n = (a[0] * a[0] - self.delta * a[1] * a[1]) % self.p
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in F_{p^2}")
        ninv = self.base.inv(n)
        return ((a[0] * ninv) % self.p, (-a[1] * ninv) % self.p)

    def pow(self, a, k: int):
        out, acc = self.one(), a
        while k:
            if k & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            k >>= 1
        return out

    def is_square(self, a) -> bool:
        if self.is_zero(a):
            return True
        return self.pow(a, (self.p * self.p - 1) // 2) == self.one()

    def sqrt(self, a):
        """Square root by direct search over F_{p^2}, the smallest root in
        (a, b) order; p stays desk-sized here."""
        a = self.coerce(a)
        for x in range(self.p):
            for y in range(self.p):
                if self.mul((x, y), (x, y)) == a:
                    return (x, y)
        raise DomainError(f"{self.fmt(a)} is not a square in F_{self.p}^2")

    def random(self, rng, nonzero=False):
        while True:
            a = (rng.randrange(self.p), rng.randrange(self.p))
            if not nonzero or not self.is_zero(a):
                return a

    def fmt(self, a) -> str:
        x, y = a[0] % self.p, a[1] % self.p
        if y == 0:
            return str(x)
        if x == 0:
            return f"{y}w"
        return f"({x}+{y}w)"

    # -- coefficient-tuple kernels ------------------------------------------

    def _plus(self, xs, ys):
        p = self.p
        return [((x0 + y0) % p, (x1 + y1) % p)
                for (x0, x1), (y0, y1) in zip(xs, ys)]

    def _minus(self, xs, ys):
        p = self.p
        return [((x0 - y0) % p, (x1 - y1) % p)
                for (x0, x1), (y0, y1) in zip(xs, ys)]

    def _negs(self, xs):
        p = self.p
        return [((-x0) % p, (-x1) % p) for x0, x1 in xs]

    def mul_series(self, a, b, n):
        """Product of two nonzero series truncated to n coefficients (see
        PrimeField.mul_series)."""
        if len(a) == 1 and len(b) == 1:
            return (self.mul(a[0], b[0]),)
        p, dl = self.p, self.delta
        width = len(a) + len(b) - 1
        full = width <= n
        if not full:
            width = n
        re, im = [0] * width, [0] * width
        for i, (x0, x1) in enumerate(a):
            if x0 or x1:
                for j, (y0, y1) in enumerate(b[:width - i], i):
                    re[j] += x0 * y0 + dl * x1 * y1
                    im[j] += x0 * y1 + x1 * y0
        out = [(r % p, s % p) for r, s in zip(re, im)]
        return tuple(out) if full else self.strip(out)[1]

    def dot_series(self, terms, lo, width):
        """Signed sum of products over a span holding all of them (see
        PrimeField.dot_series)."""
        dl = self.delta
        re, im = [0] * width, [0] * width
        for s, v, a, b in terms:
            if len(b) == 1:
                y0, y1 = b[0]
                if s < 0:
                    y0, y1 = -y0, -y1
                for j, (x0, x1) in enumerate(a, v - lo):
                    re[j] += x0 * y0 + dl * x1 * y1
                    im[j] += x0 * y1 + x1 * y0
                continue
            for i, (x0, x1) in enumerate(a, v - lo):
                if s < 0:
                    x0, x1 = -x0, -x1
                for j, (y0, y1) in enumerate(b, i):
                    re[j] += x0 * y0 + dl * x1 * y1
                    im[j] += x0 * y1 + x1 * y0
        p = self.p
        return self.strip([(r % p, s % p) for r, s in zip(re, im)])

    def inv_series(self, a, n):
        """Inverse of a nonzero series, through n coefficients."""
        c = self.inv(a[0])
        if len(a) == 1:
            return (c,)
        p, dl = self.p, self.delta
        m0, m1 = (-c[0]) % p, (-c[1]) % p
        rest = a[1:]
        out = [c]
        for _ in range(1, n):
            s0 = s1 = 0
            for (x0, x1), (y0, y1) in zip(rest, reversed(out)):
                s0 += x0 * y0 + dl * x1 * y1
                s1 += x0 * y1 + x1 * y0
            out.append(((m0 * s0 + dl * m1 * s1) % p,
                        (m0 * s1 + m1 * s0) % p))
        return self.strip(out)[1]
