"""Exact arithmetic in the local field model F = F_p((t)) and its
quadratic extensions, with a hard truncation window of N coefficients.

A nonzero scalar stores its leading valuation (an integer count of
uniformizer powers, so 1/e-units over an extension) and its residue
coefficients; it denotes the series sum c_j * pi^(val+j) known modulo
pi^(val+N).  Every Scalar holds at most N coefficients: the constructor
raises PrecisionError on a wider tuple, and no operation makes one.
Sums are truncated to the common representable window, as are products,
so no ring operation raises PrecisionError.  Precision is not tracked:
the digits a cancellation brings into the window past what the operands
knew read as zeros.
A product with an exact one (valuation 0, the single coefficient 1) is
the other operand and the inverse of one is one: the kernels would return
the same digits, so these cases skip them, after the same config and zero
checks.
dot evaluates a signed sum of products as the left fold of these
operations does, in one residue-kernel call when the fold truncates
nothing, and a single term as the one product it is.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigMismatchError, DomainError, PrecisionError
from .residue import PrimeField, QuadField, is_prime

EXTENSIONS = ("none", "unramified", "ramified")


@dataclass(frozen=True)
class FieldConfig:
    """Prime, truncation precision and extension descriptor."""

    p: int
    precision: int
    extension: str = "none"

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 5:
            raise DomainError(f"p must be a prime >= 5, got {self.p}")
        if self.precision < 4:
            raise DomainError("precision must be at least 4")
        if self.extension not in EXTENSIONS:
            raise DomainError(f"unknown extension {self.extension!r}")
        object.__setattr__(self, "_residue", QuadField(self.p)
                           if self.extension == "unramified" else PrimeField(self.p))
        object.__setattr__(self, "_zero", Scalar(self, 0, ()))
        object.__setattr__(self, "_one", self.from_int(1))
        # 1/2, inverted once per config (2 is a unit, as p >= 5)
        object.__setattr__(self, "half", self.from_int(2).inv())

    @property
    def e(self) -> int:
        """Ramification index over the base field."""
        return 2 if self.extension == "ramified" else 1

    @property
    def residue(self):
        return self._residue

    @property
    def uniformizer_name(self) -> str:
        return "s" if self.extension == "ramified" else "t"

    # -- scalar constructors ------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_int(self, a: int) -> "Scalar":
        c = self.residue.coerce(a)
        if self.residue.is_zero(c):
            return self.zero()
        return Scalar(self, 0, (c,))

    def coerce(self, x):
        """x as a scalar of this field when it is an int; x otherwise."""
        return self.from_int(x) if isinstance(x, int) else x

    def monomial(self, coeff, k: int) -> "Scalar":
        """coeff * u^k with u the uniformizer (k in 1/e units)."""
        c = self.residue.coerce(coeff)
        if self.residue.is_zero(c):
            return self.zero()
        return Scalar(self, k, (c,))

    def uniformizer(self, k: int = 1) -> "Scalar":
        return self.monomial(1, k)

    def t(self, k: int = 1) -> "Scalar":
        """t^k as a scalar of this field (t = s^2 when ramified)."""
        return self.monomial(1, k * self.e)

    def from_coeffs(self, val: int, coeffs) -> "Scalar":
        return _build(self, val, [self.residue.coerce(c) for c in coeffs])

    def random(self, rng, width: int | None = None, vmin: int = -2,
               vmax: int = 2, nonzero: bool = False) -> "Scalar":
        """Small-support random scalar; widths stay well inside the window
        so that identity sweeps never truncate."""
        if width is None:
            width = max(1, self.precision // 4)
        while True:
            val = rng.randrange(vmin, vmax + 1)
            coeffs = [self.residue.random(rng) for _ in range(width)]
            s = self.from_coeffs(val, coeffs)
            if not (nonzero and s.is_zero):
                return s

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "precision": self.precision, "extension": self.extension}

    @classmethod
    def from_json(cls, data) -> "FieldConfig":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(int(data["p"]), int(data["precision"]), data["extension"])

    # -- rows of scalars, for linalg (residue.PrimeField has the same) -------

    def is_zero(self, x) -> bool:
        return x.is_zero

    def neg(self, x):
        return -x

    def coerce_row(self, v):
        """A new list of the entries of v, which are scalars already."""
        return list(v)

    def is_zero_row(self, row) -> bool:
        return all(x.is_zero for x in row)

    def support(self, row):
        """The (column, entry) pairs of the nonzero entries of a row."""
        return [(j, x) for j, x in enumerate(row) if not x.is_zero]

    def column_support(self, rows, col):
        """The (row, entry) pairs of the nonzero entries of a column."""
        return [(i, row[col]) for i, row in enumerate(rows)
                if not row[col].is_zero]

    def pivot_row(self, rows, col, start):
        """The first row from start on whose entry in col has the least
        valuation.  The entries share this config, so their integer val
        (in 1/e units) orders them as their valuations do."""
        best, best_val = None, math.inf
        for i in range(start, len(rows)):
            x = rows[i][col]
            if not x.is_zero and x.val < best_val:
                best, best_val = i, x.val
        return best

    def normalize(self, row, col):
        """Scale row in place to a one in col; return the factor used.  A
        pivot that is exactly one is its own inverse and leaves the row as
        it is."""
        f = row[col]
        if not f.is_one:
            f = f.inv()
            for k, x in self.support(row):
                row[k] = x * f
        return f

    def subtract_multiple(self, row, f, support):
        """row -= f * pivot_row in place, on the pivot row's support (given
        by support); elsewhere x - f * 0 is x."""
        for k, y in support:
            row[k] = row[k] - f * y

    def row_times(self, row, mat):
        """The row vector row * mat: entry j is one dot over the nonzero
        products mat[i][j] row[i], in increasing i."""
        support = self.support(row)
        return [dot(self, [(1, mat[i][j], x) for i, x in support
                           if mat[i][j].coeffs]) for j in range(len(mat[0]))]


def _build(cfg: FieldConfig, val: int, coeffs: list) -> "Scalar":
    """Canonicalize: strip leading and trailing zero coefficients."""
    lo, coeffs = cfg.residue.strip(coeffs)
    if not coeffs:
        return cfg.zero()
    return Scalar(cfg, val + lo, coeffs)


class Scalar:
    """Immutable truncated Laurent series over the residue field, of at
    most cfg.precision coefficients.  coeffs is canonical (reduced
    residues, no leading or trailing zero) as _build and the residue
    kernels give it; only its width is checked here."""

    # is_zero is stored: linear algebra asks it of every entry it visits
    __slots__ = ("cfg", "val", "coeffs", "is_zero")

    def __init__(self, cfg: FieldConfig, val: int, coeffs: tuple):
        if len(coeffs) > cfg.precision:
            raise PrecisionError(f"support width {len(coeffs)} exceeds the "
                                 f"{cfg.precision}-coefficient window")
        self.cfg = cfg
        self.val = val
        self.coeffs = coeffs
        self.is_zero = not coeffs

    # -- basics -------------------------------------------------------------

    @property
    def valuation(self):
        """v_F(x) as a Fraction (inf for 0); half-integers when ramified."""
        if self.is_zero:
            return math.inf
        return Fraction(self.val, self.cfg.e)

    @property
    def is_one(self) -> bool:
        """Exactly one: valuation 0 and the single residue coefficient 1."""
        return self.val == 0 and self.coeffs == self.cfg._residue.ONE

    def coeff_at(self, k: int):
        """Residue coefficient of u^k (k in 1/e units)."""
        if self.is_zero or k < self.val or k >= self.val + len(self.coeffs):
            return self.cfg.residue.zero()
        return self.coeffs[k - self.val]

    def leading(self):
        if self.is_zero:
            raise DomainError("zero scalar has no leading coefficient")
        return self.coeffs[0]

    def _check(self, other: "Scalar"):
        if self.cfg is not other.cfg and self.cfg != other.cfg:
            raise ConfigMismatchError("operands from different field configs")

    # -- ring operations ----------------------------------------------------
    # Each operation is at most one call into the residue field's tuple
    # kernels; a product with an exact one, or the inverse of one, makes
    # none, since the kernel would return the other operand's digits (38 %
    # of the products and 82 % of the rref pivots in a cayley-quotients
    # benchmark pass are of this kind).

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        cfg = self.cfg
        if cfg is not other.cfg:
            self._check(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        val, coeffs = cfg._residue.add_series(
            self.val, self.coeffs, other.val, other.coeffs, cfg.precision)
        return Scalar(cfg, val, coeffs)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        cfg = self.cfg
        if cfg is not other.cfg:
            self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        val, coeffs = cfg._residue.sub_series(
            self.val, self.coeffs, other.val, other.coeffs, cfg.precision)
        return Scalar(cfg, val, coeffs)

    def __neg__(self):
        if not self.coeffs:
            return self
        return Scalar(self.cfg, self.val,
                      self.cfg._residue.neg_series(self.coeffs))

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        cfg = self.cfg
        if cfg is not other.cfg:
            self._check(other)
        if not self.coeffs or not other.coeffs:
            return cfg._zero
        # an exact one: the kernel would return the other operand's digits
        one = cfg._residue.ONE
        if other.val == 0 and other.coeffs == one:
            return self
        if self.val == 0 and self.coeffs == one:
            return other if other.cfg is cfg else Scalar(cfg, other.val, other.coeffs)
        return Scalar(cfg, self.val + other.val, cfg._residue.mul_series(
            self.coeffs, other.coeffs, cfg.precision))

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def _coerce(self, other):
        other = self.cfg.coerce(other)
        return other if isinstance(other, Scalar) else NotImplemented

    def inv(self) -> "Scalar":
        """Inverse, exact through the N-coefficient window."""
        if not self.coeffs:
            raise ZeroDivisionError("inversion of zero scalar")
        if self.is_one:
            return self
        cfg = self.cfg
        return Scalar(cfg, -self.val,
                      cfg._residue.inv_series(self.coeffs, cfg.precision))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    # -- squares and characters ----------------------------------------------

    def _items(self):
        return [(self.val + i, c) for i, c in enumerate(self.coeffs)]

    def is_square(self) -> bool:
        """Exact squareness test: even valuation and square leading residue
        (Hensel lifts the rest since p is odd)."""
        if self.is_zero:
            return True
        return self.val % 2 == 0 and self.cfg.residue.is_square(self.coeffs[0])

    def sqrt_one_unit(self) -> "Scalar":
        """Square root of a 1-unit (x = 1 mod p_F), normalized to = 1 mod p_F."""
        r = self.cfg.residue
        if self.is_zero or self.val != 0 or self.coeffs[0] != r.one():
            raise DomainError("sqrt_one_unit needs a scalar congruent to 1")
        n = self.cfg.precision
        half = r.inv(r.coerce(2))
        out = [r.one()] + [r.zero()] * (n - 1)
        for j in range(1, n):
            acc = self.coeff_at(j)
            for a in range(1, j):
                acc = r.sub(acc, r.mul(out[a], out[j - a]))
            out[j] = r.mul(half, acc)
        return _build(self.cfg, 0, out)

    def conductor_character(self) -> int:
        """The additive character of conductor p_F: trivial on p_F and
        faithful on o_F / p_F, read off the constant coefficient."""
        if self.cfg.extension != "none":
            raise DomainError("the character is defined over the base field")
        if self.is_zero:
            return 0
        return self.coeff_at(0) % self.cfg.p

    # -- comparison / hashing / display --------------------------------------

    def __eq__(self, other):
        other = self.cfg.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.cfg is other.cfg or self.cfg == other.cfg)
                and self.val == other.val and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.val, self.coeffs))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        r = self.cfg.residue
        u = self.cfg.uniformizer_name
        terms = []
        for k, c in self._items():
            if r.is_zero(c):
                continue
            cs = r.fmt(c)
            if k == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(f"{u}^{k}")
            else:
                terms.append(f"{cs}*{u}^{k}")
        return " + ".join(terms)


# a residue digit as the residue fields' fmt writes it: a, bw or (a+bw),
# whose "+" does not separate terms
_COEFF = r"\d+w?|\(\d+\+\d+w\)"
_TERM = re.compile(rf"^(?:({_COEFF})|(?:({_COEFF})\*)?([ts])\^(-?\d+))$")
_TERM_SEP = re.compile(r"\+(?![^(]*\))")


def _parse_coeff(cfg: FieldConfig, text: str):
    a, _, b = text.strip("()").rpartition("+")
    if not b.endswith("w"):
        return int(b)
    if cfg.extension != "unramified":
        raise DomainError(f"no w in the residue field of {cfg!r}: {text!r}")
    return (int(a or 0), int(b[:-1]))


def parse_scalar(cfg: FieldConfig, text: str) -> Scalar:
    """Parse the sparse-monomial format produced by str(scalar).  A series
    wider than the window raises PrecisionError, as from_coeffs does."""
    text = text.strip()
    if text == "0":
        return cfg.zero()
    r = cfg.residue
    terms = {}
    for term in _TERM_SEP.split(text):
        m = _TERM.match(term.strip())
        if not m:
            raise DomainError(f"cannot parse scalar term {term!r}")
        const, coeff, u, k = m.groups()
        if const is None and u != cfg.uniformizer_name:
            raise DomainError(f"wrong uniformizer in {term!r}")
        k = 0 if const else int(k)
        c = r.coerce(_parse_coeff(cfg, const or coeff or "1"))
        terms[k] = r.add(terms.get(k, r.zero()), c)
    lo = min(terms)
    return _build(cfg, lo, [terms.get(k, r.zero())
                            for k in range(lo, max(terms) + 1)])


def dot(cfg: FieldConfig, terms) -> Scalar:
    """The signed sum of products s*x*y over the (s, x, y) terms, s = +-1,
    equal digit for digit to fold_dot.  terms is a list: the fold reads it
    a second time.

    When the support of every full product fits one N-coefficient span,
    from the least valuation to the largest end, the left fold truncates
    no product and no partial sum, so the exact sum is the fold's result:
    that sum is one residue-kernel call.
    The span is decided from (val, len) alone, and its width is tested only
    where lo or hi moves; once it exceeds the window, the spans are no
    longer collected and the terms fold.  The operands' configs are
    compared once, zero operands included, before any arithmetic.

    One term folds: its fold is the one product +-(x*y), which is what
    the kernel forms where the product fits, and x*y skips the kernel when
    a factor is an exact one."""
    if len(terms) == 1:
        return _check_then_fold(cfg, terms)
    n = cfg.precision
    spans = []
    lo = hi = None
    for s, x, y in terms:
        if x.cfg is not cfg:
            cfg._zero._check(x)
        if y.cfg is not cfg:
            cfg._zero._check(y)
        xc, yc = x.coeffs, y.coeffs
        if not xc or not yc:
            continue
        v = x.val + y.val
        end = v + len(xc) + len(yc) - 1
        if lo is None:
            lo, hi = v, end
            if end - v > n:
                return _check_then_fold(cfg, terms)
        else:
            if v < lo:
                lo = v
                if hi - lo > n:
                    return _check_then_fold(cfg, terms)
            if end > hi:
                hi = end
                if hi - lo > n:
                    return _check_then_fold(cfg, terms)
        spans.append((s, v, xc, yc))
    if lo is None:
        return cfg._zero
    lead, coeffs = cfg._residue.dot_series(spans, lo, hi - lo)
    return Scalar(cfg, lo + lead, coeffs) if coeffs else cfg._zero


def _check_then_fold(cfg: FieldConfig, terms) -> Scalar:
    """dot's fold path: compare the configs of all operands, the ones dot
    has not reached included, then fold the terms."""
    for _, x, y in terms:
        if x.cfg is not cfg:
            cfg._zero._check(x)
        if y.cfg is not cfg:
            cfg._zero._check(y)
    return fold_dot(cfg, terms)


def fold_dot(cfg: FieldConfig, terms) -> Scalar:
    """The left fold of the (s, x, y) terms of dot through the truncating
    Scalar operations: acc +- x*y, starting from the first term."""
    acc = None
    for s, x, y in terms:
        term = x * y
        if acc is None:
            acc = term if s > 0 else -term
        else:
            acc = acc + term if s > 0 else acc - term
    return cfg._zero if acc is None else acc


def hilbert_symbol(a: Scalar, b: Scalar) -> int:
    """(a, b) = +-1 for nonzero a = pi^alpha u, b = pi^beta v, p odd:
    (-1)^(alpha beta (q-1)/2) (u|q)^beta (v|q)^alpha with q the size of
    the residue field (Serre, A Course in Arithmetic, Ch. III)."""
    if a.is_zero or b.is_zero:
        raise DomainError("the Hilbert symbol needs nonzero arguments")
    cfg = a.cfg
    q = cfg.p ** 2 if cfg.extension == "unramified" else cfg.p
    r = cfg.residue
    odd = a.val * b.val * (q - 1) // 2 % 2
    odd += b.val % 2 and not r.is_square(a.coeffs[0])
    odd += a.val % 2 and not r.is_square(b.coeffs[0])
    return -1 if odd % 2 else 1
