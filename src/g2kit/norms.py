"""Rational-valued norms on the octonion space and its subspaces: duality,
volume in the special-basis normalization, self-dual algebra norms, the
three canonical extension procedures across a composition subalgebra, and
the conversion to lattice sequences and filtration lattices.

Norms are always given by a splitting basis and the value at each basis
vector (exact Fractions); evaluation is min(v(coefficient) + value),
formed in ints: over a common denominator of the values and 1/e the
values are integer keys, and Scalar.val is v in 1/e units.
An F'-norm (HermitianNorm) reads its coordinates, its dual basis and the
F-basis of its extension from the endo.HermitianSpace on its D-basis.

Every dual is a sharp_dual, norm equality and F'-self-duality are one
two-way evaluation, and the three extend_* (the norm half of the type-D
lifts in strata) share one _check_extension, which each runs on the norm
it returns: extend_sl3 and the split extend_dim4 first put the splitting
basis into the standard label order (reorder_to_standard), then verify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .endo import EndV, HermitianSpace
from .errors import (ConfigMismatchError, DomainError, DualityError,
                     KindError, VolumeError)
from .linalg import RowReduction, Subspace, det, inv, mat_mul, transpose
from .octonions import (LABELS, CompositionSubalgebra, Octonion,
                        basis_octonion, bilinear_f, dual_basis_in, gram_schmidt,
                        idempotents_from_isotropic_pair, octonion_unit,
                        ordered_polarization, split_polarization,
                        standard_idempotents)
from .scalars import FieldConfig, Scalar


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class NormFn:
    """A norm on the span of a splitting basis of octonions."""

    def __init__(self, cfg: FieldConfig, basis, values):
        self.cfg = cfg
        self.basis = list(basis)
        self.values = [_frac(v) for v in values]
        if len(self.basis) != len(self.values):
            raise DomainError("one value per basis vector")
        # the values as integer keys over a common denominator _den, a
        # multiple of e, so v(c) + a_i is (c.val * _den / e + key_i) / _den
        self._den = math.lcm(cfg.e, *(v.denominator for v in self.values))
        self._keys = [int(v * self._den) for v in self.values]
        self._cols = transpose([list(b.coords) for b in self.basis])
        self._reduction = None
        self.space = Subspace(cfg, 8, [b.coords for b in self.basis])
        if self.space.dim != len(self.basis):
            raise DomainError("norm basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, x: Octonion):
        """Coordinates over the splitting basis: the basis columns are
        row-reduced once, and their row operations replayed on x."""
        if self._reduction is None:
            self._reduction = RowReduction(self._cols)
        return self._reduction.solve(list(x.coords))

    def eval(self, x: Octonion):
        """min over nonzero coordinates of v(xi_i) + a_i, a Fraction; inf
        at 0."""
        key = self._key(x)
        return key if key == math.inf else Fraction(key, self._den)

    def _key(self, x: Octonion):
        """_den times eval(x), an int (inf at 0): the minimum of
        c.val * (_den / e) + key_i over the nonzero coordinates c.  A norm
        on all of V (dim 8) has every vector in its span, so only a
        smaller one tests membership."""
        if x.is_zero:
            return math.inf
        if self.space.dim < 8 and not self.space.contains(x.coords):
            raise DomainError("vector outside the span of the norm basis")
        scale = self._den // self.cfg.e
        best = math.inf
        for c, k in zip(self.coordinates(x), self._keys):
            if not c.is_zero:
                v = c.val * scale + k
                if v < best:
                    best = v
        return best

    def __eq__(self, other):
        """Norm equality via two-way evaluation on the splitting bases."""
        if not isinstance(other, NormFn):
            return NotImplemented
        return self.space == other.space and _agree(self, other)

    def __repr__(self):
        return f"NormFn(dim={self.dim}, values={self.values})"

    def to_json(self):
        return {"basis": [b.to_json() for b in self.basis],
                "values": [str(v) for v in self.values]}

    def restrict(self, indices) -> "NormFn":
        """Restriction to the span of a subset of the splitting basis."""
        return NormFn(self.cfg, [self.basis[i] for i in indices],
                      [self.values[i] for i in indices])


def _agree(x, y) -> bool:
    """Two-way evaluation: each norm takes the other's values on the
    other's splitting basis."""
    return (all(x.eval(b) == v for b, v in zip(y.basis, y.values))
            and all(y.eval(b) == v for b, v in zip(x.basis, x.values)))


def dual_norm(alpha: NormFn) -> NormFn:
    """alpha*(v) = inf_x (v(f(v,x)) - alpha(x)): the dual inside alpha's
    own span."""
    return sharp_dual(alpha, alpha.space)


def sharp_dual(alpha: NormFn, target: Subspace) -> NormFn:
    """The dual of alpha taken inside target, on the basis of target dual
    to alpha's splitting basis: split by it with values -alpha(b_i).  On
    W+ with target W- this is the sharp dual of the sl3 extension."""
    dual = dual_basis_in(alpha.cfg, alpha.basis, target.rows)
    return NormFn(alpha.cfg, dual, [-v for v in alpha.values])


def is_self_dual(alpha: NormFn) -> bool:
    return dual_norm(alpha) == alpha


def is_algebra_norm(alpha: NormFn) -> bool:
    """alpha(xy) >= alpha(x) + alpha(y), checked on the splitting basis
    (sufficient by bilinearity), plus alpha(1) = 0 and conj-invariance."""
    if alpha.dim != 8:
        raise DomainError("algebra norms live on all of V")
    unit = octonion_unit(alpha.cfg)
    if alpha._key(unit) != 0:
        return False
    keys = alpha._keys
    for b, k in zip(alpha.basis, keys):
        if alpha._key(b.conj()) != k:
            return False
    for b1, k1 in zip(alpha.basis, keys):
        for b2, k2 in zip(alpha.basis, keys):
            if alpha._key(b1 * b2) < k1 + k2:
                return False
    return True


def reorder_to_standard(alpha: NormFn) -> NormFn:
    """Permute the splitting basis into the fixed label order when it
    consists exactly of the standard basis vectors."""
    cfg = alpha.cfg
    order = []
    for lbl in LABELS:
        target = basis_octonion(cfg, lbl)
        hit = next((i for i, b in enumerate(alpha.basis) if b == target), None)
        if hit is None:
            return alpha
        order.append(hit)
    return NormFn(cfg, [alpha.basis[i] for i in order],
                  [alpha.values[i] for i in order])


def standard_norm(cfg: FieldConfig) -> NormFn:
    """The algebra norm vanishing on the standard Witt basis."""
    return NormFn(cfg, [basis_octonion(cfg, lbl) for lbl in LABELS], [0] * 8)


# -- volume ---------------------------------------------------------------------

def special_basis(d: CompositionSubalgebra):
    """The canonical special basis (f1+, f2+, f1- f2-) of W+ for a split
    plane D; its lattice is the volume normalization."""
    wp, wm = ordered_polarization(d)
    return [wp[0], wp[1], wm[0] * wm[1]]


def volume(alpha_plus: NormFn, d: CompositionSubalgebra) -> Fraction:
    """vol(alpha) = v(det g) - sum alpha(b_i), with g mapping the canonical
    special-basis lattice of W+ onto the lattice of alpha's basis."""
    ref = special_basis(d)
    reduction = RowReduction(transpose([list(b.coords) for b in ref]))
    g = [reduction.solve(list(b.coords)) for b in alpha_plus.basis]
    dt = det(transpose(g))
    if dt.is_zero:
        raise DomainError("norm basis does not span W+")
    return dt.valuation - sum(alpha_plus.values)


# -- extensions -----------------------------------------------------------------

def extend_sl3(alpha_plus: NormFn, d: CompositionSubalgebra) -> NormFn:
    """The unique self-dual algebra norm splitting V = D + (W+ + W-) and
    restricting to a volume-zero alpha on W+."""
    if volume(alpha_plus, d) != 0:
        raise VolumeError("extension needs a volume-zero norm on W+")
    eplus, eminus = standard_idempotents(d)
    _, wminus = split_polarization(d)
    sharp = sharp_dual(alpha_plus, wminus)
    basis = [eplus, eminus] + list(alpha_plus.basis) + list(sharp.basis)
    values = [Fraction(0), Fraction(0)] + list(alpha_plus.values) \
        + list(sharp.values)
    out = reorder_to_standard(NormFn(alpha_plus.cfg, basis, values))
    _check_extension(out, alpha_plus.basis, alpha_plus.values)
    return out


def _check_extension(out: NormFn, basis, values):
    """The checks every extension passes: out is a self-dual algebra norm
    taking the given values on the given basis of the restriction."""
    if not is_algebra_norm(out):
        raise DomainError("extension is not an algebra norm")
    if not is_self_dual(out):
        raise DualityError("extension is not self-dual")
    for b, v in zip(basis, values):
        if out.eval(b) != v:
            raise DomainError("extension does not restrict correctly")


class HermitianNorm:
    """An F'-norm on W = D-perp for an anisotropic plane D = F[c]:
    a D-basis of W with values in units of the normalized valuation of F'
    (so v_{F'} has image Z), read on the HermitianSpace of that basis."""

    def __init__(self, d: CompositionSubalgebra, basis, values):
        if d.kind != "field-dim2":
            raise KindError("hermitian norms need an anisotropic plane")
        self.d = d
        self.cfg = d.cfg
        self.space = HermitianSpace(d, basis)
        self.basis = self.space.basis
        self.values = [_frac(v) for v in values]
        vg = self.space.gamma.valuation
        self.e = 2 if vg % 2 == 1 else 1
        self.vc = Fraction(self.e * vg, 2)  # v_{F'}(c), normalized

    def v_fprime(self, x: Scalar, y: Scalar) -> Fraction:
        """v_{F'}(x + y c) via the valuation-orthogonal basis (1, c)."""
        cands = []
        if not x.is_zero:
            cands.append(Fraction(self.e) * x.valuation)
        if not y.is_zero:
            cands.append(Fraction(self.e) * y.valuation + self.vc)
        return min(cands) if cands else math.inf

    def eval(self, w: Octonion) -> Fraction:
        if w.is_zero:
            return math.inf
        co = self.space.coords.solve(list(w.coords))
        best = math.inf
        for k, a in enumerate(self.values):
            v = self.v_fprime(co[2 * k], co[2 * k + 1]) + a
            if v < best:
                best = v
        return best

    def dual(self) -> "HermitianNorm":
        """Dual with respect to the hermitian form, on the dual basis."""
        return HermitianNorm(self.d, self.space.dual_basis(),
                             [-v for v in self.values])

    def is_self_dual(self) -> bool:
        return _agree(self, self.dual())


def extend_su21(alpha_h: HermitianNorm, d: CompositionSubalgebra) -> NormFn:
    """The unique self-dual algebra norm splitting V = D + W and restricting
    to (1/e) alpha' on W for a self-dual F'-norm alpha'."""
    if d is not alpha_h.d:
        raise DomainError("norm and plane do not match")
    if not alpha_h.is_self_dual():
        raise DualityError("the F'-norm must be self-dual")
    space = alpha_h.space
    e = Fraction(alpha_h.e)
    basis = [space.unit, space.c] + space.fbasis
    values = [Fraction(0), Fraction(space.gamma.valuation, 2)]
    for a in alpha_h.values:
        values += [a / e, (a + alpha_h.vc) / e]
    out = NormFn(d.cfg, basis, values)
    _check_extension(out, alpha_h.basis, [a / e for a in alpha_h.values])
    return out


def extend_dim4(alpha_w: NormFn, d4: CompositionSubalgebra) -> NormFn:
    """The unique self-dual algebra norm on V extending a self-dual norm
    on W = D4-perp.

    Split case: alpha_w must be split by a Witt basis (h, h', k, k');
    the norm on D4 is forced by alpha0(e+ b) = -alpha(h) - alpha(k).
    Anisotropic case: both sides carry (1/2) v(Q)."""
    cfg = d4.cfg
    if d4.dim != 4:
        raise KindError("extension needs a 4-dimensional subalgebra")
    for b in alpha_w.basis:
        for x in d4.basis:
            if not bilinear_f(b, x).is_zero:
                raise DomainError("norm basis must span the orthogonal of D")
    if d4.kind == "division-dim4":
        return _extend_dim4_anisotropic(alpha_w, d4)
    h, hp, k, kp = alpha_w.basis
    ah, ahp, ak, akp = alpha_w.values
    one = cfg.one()
    if (bilinear_f(h, hp) != one or bilinear_f(k, kp) != one
            or not h.norm().is_zero or not hp.norm().is_zero
            or not k.norm().is_zero or not kp.norm().is_zero
            or not bilinear_f(h, k).is_zero or not bilinear_f(h, kp).is_zero
            or not bilinear_f(hp, k).is_zero or not bilinear_f(hp, kp).is_zero):
        raise DomainError("split extension needs a Witt basis (h, h', k, k')")
    if ahp != -ah or akp != -ak:
        raise DualityError("norm on W is not self-dual")
    eplus, eminus, _ = idempotents_from_isotropic_pair(h, hp)
    b = (k + kp) * (h - hp)
    for x, nm in ((eplus, "e+"), (eminus, "e-"), (b, "b")):
        if not d4.contains(x):
            raise DomainError(f"{nm} does not lie in D")
    basis = [eplus, eminus, eplus * b, eminus * b, h, hp, k, kp]
    values = [Fraction(0), Fraction(0), -ah - ak, ah + ak, ah, ahp, ak, akp]
    out = reorder_to_standard(NormFn(cfg, basis, values))
    _check_extension(out, alpha_w.basis, alpha_w.values)
    return out


def _extend_dim4_anisotropic(alpha_w: NormFn, d4) -> NormFn:
    cfg = d4.cfg
    half = Fraction(1, 2)
    for b, v in zip(alpha_w.basis, alpha_w.values):
        if v != half * b.norm().valuation:
            raise DualityError(
                "anisotropic W carries only the norm (1/2) v(Q)")
    # d4 is a division algebra, so gram_schmidt meets no isotropic vector
    dbasis, _ = gram_schmidt(cfg, d4.basis)
    basis = dbasis + list(alpha_w.basis)
    values = [half * x.norm().valuation for x in dbasis] + list(alpha_w.values)
    out = NormFn(cfg, basis, values)
    _check_extension(out, alpha_w.basis, alpha_w.values)
    return out


# -- lattice sequences and filtration lattices ------------------------------------

class LatticeSeq:
    """Period-m lattice sequence of a rational norm: Lambda(i) is the
    lattice of vectors with norm >= i/m, described by exponent tuples
    over the splitting basis."""

    def __init__(self, norm: NormFn):
        self.norm = norm
        self.cfg = norm.cfg
        self._lattices = {}
        denoms = [v.denominator for v in norm.values]
        self.m = 1
        for q in denoms:
            self.m = self.m * q // math.gcd(self.m, q)

    def exponents(self, i: int):
        """Valuation exponents of Lambda(i) over the splitting basis."""
        return tuple(math.ceil(Fraction(i, self.m) - a)
                     for a in self.norm.values)

    def lattice(self, k: int) -> "FiltrationLattice":
        """A_k(Lambda), built on first use and kept on the sequence."""
        fl = self._lattices.get(k)
        if fl is None:
            fl = self._lattices[k] = FiltrationLattice(self, k)
        return fl

    def jump_table(self) -> str:
        lines = []
        for i in range(self.m):
            exps = ", ".join(str(e) for e in self.exponents(i))
            lines.append(f"{i} -> ({exps})")
        return "\n".join(lines)

    def __repr__(self):
        return f"LatticeSeq(m={self.m})"


def lattice_seq_from_norm(alpha: NormFn) -> LatticeSeq:
    return LatticeSeq(alpha)


class FiltrationLattice:
    """The endomorphism lattice A_k(Lambda): entrywise valuation bounds
    ceil(k/m + a_j - a_l) over the splitting basis.

    Membership is decided for an EndV (contains), for a difference of two
    matrices given by their entries {(l, j): Scalar} (contains_difference),
    and for the offset g - 1 of a group element g (offset_columns).  Over
    the standard basis the coordinates are the matrix entries, so
    contains_difference decides entry by entry, visiting only the entries
    where x or y is nonzero: a difference of two sparse offsets g - 1
    (filtration.cayley_offset) costs a few entries.  It decides by
    valuation before it subtracts: an entry whose two sides both lie at
    or above its bound is accepted with no subtraction, since a nonzero
    difference has valuation at least the lesser of theirs, and an entry
    equal to its partner is skipped, its difference being an exact zero.
    No subtraction can raise PrecisionError (every Scalar fits its
    window), so the one error to keep is ConfigMismatchError: every entry
    is checked as the walk visits it, also after a failing entry.  Over
    any other basis the difference is formed dense and contains decides.
    An input over another field config raises ConfigMismatchError; its
    configs are compared as Scalar._check compares them (is, then ==), so
    an equal config built separately is accepted."""

    def __init__(self, seq: LatticeSeq, k: int):
        self.seq = seq
        self.k = k
        self.cfg = seq.cfg
        n = seq.norm.dim
        if n != 8:
            raise DomainError("filtration lattices live on all of V")
        a = seq.norm.values
        m = seq.m
        self.bounds = [[Fraction(k, m) + a[j] - a[l] for j in range(n)]
                       for l in range(n)]
        self._std = all(b == basis_octonion(self.cfg, lbl)
                        for b, lbl in zip(seq.norm.basis, LABELS))
        # the entry bounds in the 1/e units of Scalar.val
        self._val_bounds = [[self.entry_bound(l, j) * self.cfg.e
                             for j in range(n)] for l in range(n)]
        if self._std:
            self._b = self._binv = None
        else:
            self._b = transpose([list(b.coords) for b in seq.norm.basis])
            self._binv = inv(self._b)

    def entry_bound(self, l: int, j: int) -> int:
        return math.ceil(self.bounds[l][j])

    def in_basis(self, x: EndV):
        if self._std:
            return x.rows
        return mat_mul(self._binv, mat_mul(x.rows, self._b))

    def _check_config(self, cfg: FieldConfig):
        if cfg is not self.cfg and cfg != self.cfg:
            raise ConfigMismatchError("operands from different field configs")

    def contains(self, x: EndV) -> bool:
        self._check_config(x.cfg)
        for row, br in zip(self.in_basis(x), self._val_bounds):
            for c, bound in zip(row, br):
                if c.coeffs and c.val < bound:
                    return False
        return True

    def contains_difference(self, xs: dict, ys: dict) -> bool:
        """Membership of x - y, for x and y given by their entries
        {(l, j): Scalar}, such as the offsets g - 1 that
        filtration.cayley_offset gives.  Over the standard basis this is
        one pass over the entries of x, then over those of y, each entry's
        config checked where it is visited; a pair at or above its bound is
        accepted unformed (see the class docstring)."""
        cfg = self.cfg
        if not self._std:
            for c in chain(xs.values(), ys.values()):
                if c.cfg is not cfg:
                    self._check_config(c.cfg)
            return self.contains(EndV.from_entries(cfg, xs)
                                 - EndV.from_entries(cfg, ys))
        bounds = self._val_bounds
        ok = True
        for (l, j), a in xs.items():
            if a.cfg is not cfg:
                self._check_config(a.cfg)
            bound = bounds[l][j]
            b = ys.get((l, j))
            if b is None:
                d = a
            elif a.val >= bound and b.val >= bound:
                continue  # x_lj - y_lj lies at or above the bound
            elif a.val == b.val and a.coeffs == b.coeffs:
                continue
            else:
                d = a - b
            if d.coeffs and d.val < bound:
                ok = False
        for (l, j), b in ys.items():
            if b.cfg is not cfg:
                self._check_config(b.cfg)
            # -b has b's valuation
            if b.coeffs and b.val < bounds[l][j] and (l, j) not in xs:
                ok = False
        return ok

    def offset_columns(self, g: EndV):
        """(inside, columns) for y = g - 1: columns[j] lists the nonzero
        entries (l, y_lj) in increasing l, and inside says whether y lies
        in this lattice.  Over the standard basis this is one pass over
        g.rows: c - 1 is formed on the diagonal (an exact one gives an
        exact zero with no arithmetic), and every nonzero entry of y is
        tested against its bound.  Over any other basis y is formed dense
        and contains decides."""
        one = self.cfg.one()
        g.rows[0][0]._check(one)  # as forming c - 1 checks every entry
        if not self._std:
            y = [[c - one if l == j else c for j, c in enumerate(row)]
                 for l, row in enumerate(g.rows)]
            return (self.contains(EndV.adopt(self.cfg, y)),
                    [[(l, row[j]) for l, row in enumerate(y) if row[j].coeffs]
                     for j in range(8)])
        columns = [[] for _ in range(8)]
        inside = True
        for l, (row, br) in enumerate(zip(g.rows, self._val_bounds)):
            for j, c in enumerate(row):
                if j == l:
                    if c.is_one:  # c - 1 is an exact zero
                        continue
                    c = c - one
                if c.coeffs:
                    if c.val < br[j]:
                        inside = False
                    columns[j].append((l, c))
        return inside, columns


def seq_valuation(seq: LatticeSeq, x: EndV, indices=range(8)):
    """v_Lambda(x): the largest k with x in A_k, or +inf for zero.  Given
    the indices of the splitting-basis vectors that span an x-stable
    block, the same minimum over those rows and columns of x's matrix in
    the splitting basis: the valuation of x on that block."""
    y = seq.lattice(0).in_basis(x)
    a = seq.norm.values
    best = math.inf
    for l in indices:
        for j in indices:
            c = y[l][j]
            if c.is_zero:
                continue
            cand = math.floor((c.valuation + a[l] - a[j]) * seq.m)
            if cand < best:
                best = cand
    return best


def filtration_lattice(seq: LatticeSeq, k: int) -> FiltrationLattice:
    """A_k(Lambda) of a lattice sequence, the one object per (seq, k) that
    seq.lattice(k) keeps."""
    return seq.lattice(k)
