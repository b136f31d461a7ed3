"""Finite filtration quotients: the Cayley transform between lattice and
congruence-subgroup filtrations, its compatibility with triality on
generators, the character pairing psi_b of the quotients, the
counterexample showing the Cayley transform misses the automorphism
group, and the symplectic fixed-point identity over F_p.

quotient_iso_check computes each distinct Cayley transform, and each
distinct group generator matrix, once per check, in tables that live for
the call.  Congruences over a lattice with the standard basis are
decided entry by entry (FiltrationLattice.contains_difference and
contains_group), and psi_b forms only the diagonal of b (x - 1).

The symplectic identity works in F_p^n with linalg's Subspace, rref and
kernel over residue.PrimeField, the same core as the F((t)) linear
algebra; ints are reduced where they enter a SymplecticSpace or a
Subspace.  gamma_perp still decides its identity by listing the p^dim
vectors of three subspaces (ModpSubspace.vectors).
"""

from __future__ import annotations

import itertools

from .endo import (EndV, d_torus_lie, is_derivation, lift_sl3,
                   so_basis_labels, u_root_lie)
from .errors import DomainError, MembershipError, SingularError
from .linalg import Subspace, identity, kernel, transpose
from .norms import LatticeSeq
from .octonions import IDX, hyperbolic_plane
from .residue import PrimeField
from .scalars import Scalar
from .triality import (GroupGenerator, GroupTriality, LieTrialityGroup,
                       is_g2_element, is_g2_lie)


def cayley(x: EndV) -> EndV:
    """C(X) = (1 + X/2)(1 - X/2)^{-1}."""
    cfg = x.cfg
    half = cfg.from_int(2).inv()
    ident = EndV.identity(cfg)
    xh = x * half
    plus = ident + xh
    minus = ident - xh
    try:
        return plus * minus.inverse()
    except SingularError as exc:
        raise SingularError("1 - X/2 is not invertible") from exc


def cayley_inv(g: EndV) -> EndV:
    """C^{-1}(g) = 2 (g - 1)(g + 1)^{-1}."""
    cfg = g.cfg
    ident = EndV.identity(cfg)
    try:
        return (g - ident) * (g + ident).inverse() * cfg.from_int(2)
    except SingularError as exc:
        raise SingularError("g + 1 is not invertible") from exc


def cayley_scalar(lam: Scalar) -> Scalar:
    cfg = lam.cfg
    half = cfg.from_int(2).inv()
    return (cfg.one() + lam * half) * (cfg.one() - lam * half).inv()


def moy_counterexample(u: Scalar) -> bool:
    """X with eigenvalues (u, u, -2u) on W+ lies in the Lie algebra of the
    automorphism group, but its Cayley transform is not an automorphism:
    C(u)^2 C(-2u) != 1."""
    cfg = u.cfg
    if u.is_zero or u.valuation < 1:
        raise DomainError("need a nonzero u with v(u) >= 1")
    d = hyperbolic_plane(cfg)
    z = cfg.zero()
    phi = [[u, z, z], [z, u, z], [z, z, -(u + u)]]
    x = lift_sl3(phi, d)
    if not is_g2_lie(x):
        raise DomainError("diagonal lift is not a derivation")
    g = cayley(x)
    det_wplus = cayley_scalar(u) * cayley_scalar(u) * cayley_scalar(-(u + u))
    broken = det_wplus != cfg.one()
    if broken and is_g2_element(g):
        raise DomainError("determinant detects a failure the basis test missed")
    if not broken and not is_g2_element(g):
        raise DomainError("basis test detects a failure the determinant missed")
    return broken


# -- generators of the filtration pieces -----------------------------------------

class GeneratorRecord:
    """A threshold generator of A_r with its exact Cayley image in P^r."""

    def __init__(self, name, lie, group):
        self.name = name
        self.lie = lie      # EndV in A_r
        self.group = group  # GroupGenerator with matrix() == cayley(lie)


def lie_generators(seq: LatticeSeq, r: int):
    """Threshold generators of A_r(Lambda) paired with their Cayley
    images d_i(C(lam)) and u_{i,j}(lam)."""
    cfg = seq.cfg
    fl = seq.lattice(r)
    out = []
    for i in (1, 2, 3, 4):
        b = fl.entry_bound(IDX[i], IDX[i])
        lam = cfg.t(b)
        mu = cayley_scalar(lam)
        ms = [mu if i == k else cfg.one() for k in (1, 2, 3)]
        u = mu if i == 4 else cfg.one()
        out.append(GeneratorRecord(
            f"D_{i}(t^{b})", d_torus_lie(cfg, i, lam),
            GroupGenerator.torus(u, *ms)))
    for (i, j) in so_basis_labels()[1]:
        b = fl.entry_bound(IDX[-j], IDX[i])
        lam = cfg.t(b)
        out.append(GeneratorRecord(
            f"U_{i},{j}(t^{b})", u_root_lie(cfg, i, j, lam),
            GroupGenerator.root(i, j, lam)))
    return out


class FiltrationQuotient:
    """The abelian quotient A_r / A_s (1 <= r <= s <= 2r) with canonical
    entrywise-truncated coset representatives, and the matching group
    quotient P^r / P^s under the Cayley bijection."""

    def __init__(self, seq: LatticeSeq, r: int, s: int):
        if not 1 <= r <= s <= 2 * r:
            raise DomainError("need 1 <= r <= s <= 2r")
        self.seq = seq
        self.r = r
        self.s = s
        self.cfg = seq.cfg
        self.lat_r = seq.lattice(r)
        self.lat_s = seq.lattice(s)

    def reduce(self, x: EndV) -> EndV:
        """Canonical representative of x + A_s: entrywise truncation at the
        A_s bounds (in the splitting basis)."""
        lat = self.lat_s
        y = lat.in_basis(x)
        out = [[y[l][j].truncate(lat.entry_bound(l, j)) for j in range(8)]
               for l in range(8)]
        return EndV.adopt(self.cfg, lat.from_basis(out))

    def congruent_lie(self, x: EndV, y: EndV) -> bool:
        return self.lat_s.contains_difference(x, y)

    def congruent_group(self, g: EndV, h: EndV) -> bool:
        # for h in P(Lambda), A_s h = A_s, so g h^{-1} in P^s iff g - h in A_s
        return self.lat_s.contains_difference(g, h)

    def generators(self):
        return lie_generators(self.seq, self.r)


def quotient_iso_check(seq: LatticeSeq, r: int, s: int) -> dict:
    """Generator-level verification that the Cayley bijection induces a
    triality-equivariant isomorphism A_r/A_s -> P^r/P^s, and that fixed
    points of the quotient lift to fixed points of A_r.

    Returns a report dict with a (expected empty) list of violations.
    """
    q = FiltrationQuotient(seq, r, s)
    cfg = seq.cfg
    gens = q.generators()
    violations = []
    images = [cayley(g.lie) for g in gens]
    # (a) Cayley is a homomorphism modulo P^s.  C(a + b) = C(b + a), so it
    # is computed once per unordered pair and compared with both products;
    # failures are reported in (a, b) order.
    failed = []
    for i, ga in enumerate(gens):
        for j in range(i, len(gens)):
            both = cayley(ga.lie + gens[j].lie)
            for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
                if not q.congruent_group(images[a] * images[b], both):
                    failed.append((a, b))
    violations += [f"homomorphism failure at {gens[a].name}, {gens[b].name}"
                   for a, b in sorted(failed)]
    # (b) Cayley commutes with triality modulo P^s; the group images are
    # exactly d_i(C(lam)) and u_{i,j}(lam).  Most triality images of a
    # generator are generators again, so each distinct Lie image is
    # transformed once, the table starting from the generators' own
    # images, and each distinct group descriptor is evaluated once.
    lie_gamma = LieTrialityGroup()
    grp_gamma = GroupTriality(cfg)
    transforms = {_entries(g.lie): cx for g, cx in zip(gens, images)}
    matrices = {}

    def transform(x):
        key = _entries(x)
        if key not in transforms:
            transforms[key] = cayley(x)
        return transforms[key]

    def matrix(gen):
        key = (gen.kind, gen.data)
        if key not in matrices:
            matrices[key] = gen.matrix(cfg)
        return matrices[key]

    for g, cx in zip(gens, images):
        if cx != matrix(g.group):
            violations.append(f"Cayley image mismatch at {g.name}")
            continue
        for word, y in lie_gamma.orbit(g.lie):
            rhs = matrix(grp_gamma._apply_desc(word, g.group))
            if not q.congruent_group(transform(y), rhs):
                violations.append(
                    f"triality congruence failure at {g.name}, {word}")
    # (c) quotient fixed points lift to honest fixed points
    for x in _quotient_fixed_samples(seq, r, s):
        for _, y in lie_gamma.orbit(x):
            if not q.congruent_lie(y, x):
                violations.append("sample is not quotient-fixed")
        lifted = lie_gamma.average(x)
        if not q.lat_r.contains(lifted):
            violations.append("lift leaves A_r")
        if not is_derivation(lifted):
            violations.append("lift is not a derivation")
        if not q.congruent_lie(lifted, x):
            violations.append("lift changes the coset")
    return {
        "check": "quotient_iso",
        "parameters": {"r": r, "s": s, "m": seq.m, "p": cfg.p},
        "generators_tested": len(gens),
        "violations": violations,
    }


def _entries(x: EndV) -> tuple:
    """A dict key for the value of x: its entries as (val, coeffs)."""
    return tuple((c.val, c.coeffs) for row in x.rows for c in row)


def _quotient_fixed_samples(seq: LatticeSeq, r: int, s: int):
    """Elements of A_r fixed by triality modulo A_s: exact orbit sums of
    root generators, traceless diagonal derivations, and s-level
    perturbations of both."""
    cfg = seq.cfg
    fl_r = seq.lattice(r)
    fl_s = seq.lattice(s)
    out = []
    # short-root orbit sum and its perturbation
    for (i, j) in ((-1, -3), (2, 1)):
        parts = _orbit_partners(i, j)
        b = max(fl_r.entry_bound(IDX[-bb], IDX[aa]) for (aa, bb) in parts)
        x = EndV.zero(cfg)
        for (aa, bb) in parts:
            x = x + u_root_lie(cfg, aa, bb, cfg.t(b))
        out.append(x)
        (aa, bb) = parts[0]
        bump = fl_s.entry_bound(IDX[-bb], IDX[aa])
        out.append(x + u_root_lie(cfg, aa, bb, cfg.t(bump)))
    # diagonal derivation D_1(la) + D_2(la) + D_3(-2 la) and perturbation
    b = fl_r.entry_bound(IDX[1], IDX[1])
    la = cfg.t(b)
    diag = (d_torus_lie(cfg, 1, la) + d_torus_lie(cfg, 2, la)
            + d_torus_lie(cfg, 3, -(la + la)))
    out.append(diag)
    bs = fl_s.entry_bound(IDX[1], IDX[1])
    out.append(diag + d_torus_lie(cfg, 1, cfg.t(bs)))
    return out


def _orbit_partners(i, j):
    from .triality import _root_triple_descriptors
    d = _root_triple_descriptors(i, j)
    seen = []
    for (a, b, _) in d:
        if (a, b) not in seen:
            seen.append((a, b))
    if len(seen) in (1, 3):
        return seen
    # complete the triality orbit of size three
    extra = _root_triple_descriptors(*seen[1][:2])
    for (a, b, _) in extra:
        if (a, b) not in seen:
            seen.append((a, b))
    return seen[:3]


# -- the character pairing --------------------------------------------------------

def psi_b(seq: LatticeSeq, s: int, b: EndV, x: EndV, r: int) -> int:
    """psi_b(x) = psi(tr(b (x - 1))) for b in A_{1-s} and x in P^r,
    with psi the additive character of conductor p_F; a character of
    the quotient P^r / P^s."""
    if not seq.lattice(1 - s).contains(b):
        raise MembershipError("b must lie in A_{1-s}")
    if not seq.lattice(r).contains_group(x):
        raise MembershipError("x must lie in P^r")
    # the trace of b (x - 1) from its diagonal alone: the configs are
    # compared once and entry i sums the nonzero b_il (x - 1)_li in
    # increasing l, as mat_mul does; the entries are added in order from
    # zero, as EndV.trace does
    cfg = seq.cfg
    one = cfg.one()
    rows = x.rows
    b.rows[0][0]._check(rows[0][0])
    x_diag = [row[l] - one for l, row in enumerate(rows)]
    acc = cfg.zero()
    for i, brow in enumerate(b.rows):
        entry = None
        for l, c in enumerate(brow):
            y = x_diag[l] if l == i else rows[l][i]
            if c.is_zero or y.is_zero:
                continue
            term = c * y
            entry = term if entry is None else entry + term
        if entry is not None:
            acc = acc + entry
    return acc.conductor_character()


def character_counts(seq: LatticeSeq, r: int, s: int):
    """F_p-dimensions of A_{1-s}/A_{1-r} and of A_r/A_s from the entry
    bounds; equal dimensions are the counting half of the duality."""
    def dim(k1, k2):
        f1 = seq.lattice(k1)
        f2 = seq.lattice(k2)
        total = 0
        for i in (1, 2, 3, 4):
            total += f2.entry_bound(IDX[i], IDX[i]) \
                - f1.entry_bound(IDX[i], IDX[i])
        for (i, j) in so_basis_labels()[1]:
            total += f2.entry_bound(IDX[-j], IDX[i]) \
                - f1.entry_bound(IDX[-j], IDX[i])
        return total
    return dim(1 - s, 1 - r), dim(r, s)


def trace_triality_invariance(x: EndV, y: EndV) -> bool:
    """tr(XY) = tr(dnu(X) dnu(Y)) for every triality automorphism."""
    gamma = LieTrialityGroup()
    target = (x * y).trace()
    for (_, gx), (_, gy) in zip(gamma.orbit(x), gamma.orbit(y)):
        if (gx * gy).trace() != target:
            return False
    return True


# -- symplectic fixed points over F_p ----------------------------------------------

class ModpSubspace:
    """The p^dim vectors of a subspace of F_p^n, which gamma_perp alone
    lists (desk scale only).  perfbench times this enumeration as
    ModpSubspace.vectors; it goes once gamma_perp works by kernels."""

    @staticmethod
    def vectors(x: Subspace):
        p, n = x.field.p, x.ambient
        out = []
        for coeffs in itertools.product(range(p), repeat=x.dim):
            v = [0] * n
            for c, row in zip(coeffs, x.rows):
                for t in range(n):
                    v[t] = (v[t] + c * row[t]) % p
            out.append(tuple(v))
        return out


class SymplecticSpace:
    """A symplectic F_p-space with a form-preserving action of a group of
    order 1, 2 or 3."""

    def __init__(self, p: int, form, gamma):
        self.p = p
        self.field = field = PrimeField(p)
        self.n = len(form)
        self.form = [field.coerce_row(row) for row in form]
        self.gamma = [field.coerce_row(row) for row in gamma]
        for i in range(self.n):
            if self.form[i][i]:
                raise DomainError("form must be alternating")
            for j in range(self.n):
                if (self.form[i][j] + self.form[j][i]) % p:
                    raise DomainError("form must be alternating")
        if Subspace(field, self.n, self.form).dim != self.n:
            raise DomainError("form must be non-degenerate")
        order = self._order()
        if order not in (1, 2, 3):
            raise DomainError("gamma must have order 1, 2 or 3")
        self.order = order
        # (gamma^T form gamma)_ij is the pairing of columns i and j of gamma
        cols = transpose(self.gamma)
        if any(self.pair(u, v) != self.form[i][j]
               for i, u in enumerate(cols) for j, v in enumerate(cols)):
            raise DomainError("gamma must preserve the form")

    def _order(self):
        basis = [tuple(e) for e in identity(self.field, self.n)]
        images = basis
        for k in (1, 2, 3):
            images = [self.apply_gamma(v) for v in images]
            if images == basis:
                return k
        return 0  # rejected by the constructor

    def pair(self, u, v):
        return sum(u[i] * self.form[i][j] * v[j]
                   for i in range(self.n) for j in range(self.n)) % self.p

    def apply_gamma(self, v):
        return tuple(sum(self.gamma[i][j] * v[j] for j in range(self.n))
                     % self.p for i in range(self.n))

    def orbit(self, v):
        """v, gamma v, ..., gamma^(order - 1) v."""
        out = [tuple(v)]
        for _ in range(self.order - 1):
            out.append(self.apply_gamma(out[-1]))
        return out

    def fixed_subspace(self) -> Subspace:
        rows = [[(self.gamma[i][j] - (1 if i == j else 0)) % self.p
                 for j in range(self.n)] for i in range(self.n)]
        return Subspace(self.field, self.n, kernel(rows, self.field))

    def stable(self, x: Subspace) -> bool:
        return all(x.contains(self.apply_gamma(r)) for r in x.rows)

    def perp(self, x: Subspace) -> Subspace:
        if not x.rows:
            return Subspace(self.field, self.n, identity(self.field, self.n))
        rows = [[sum(r[i] * self.form[i][j] for i in range(self.n)) % self.p
                 for j in range(self.n)] for r in x.rows]
        return Subspace(self.field, self.n, kernel(rows, self.field))


def gamma_perp(space: SymplecticSpace, x: Subspace) -> bool:
    """The orthogonal of X^Gamma inside V^Gamma equals (X^perp)^Gamma,
    and V decomposes as V_1 perp V_s."""
    if not space.stable(x):
        raise DomainError("subspace must be gamma-stable")
    field, n = space.field, space.n
    vectors = ModpSubspace.vectors
    fixed = space.fixed_subspace()
    x_fixed = Subspace(field, n, [r for r in vectors(x) if fixed.contains(r)])
    # orthogonal of X^Gamma inside V^Gamma, by direct scan of V^Gamma
    lhs = Subspace(field, n, [v for v in vectors(fixed)
                              if all(space.pair(v, r) == 0
                                     for r in x_fixed.rows)])
    rhs = Subspace(field, n, [r for r in vectors(space.perp(x))
                              if fixed.contains(r)])
    if lhs != rhs:
        return False
    # V = V_1 perp V_s, V_s the kernel of the orbit sum
    # 1 + gamma + ... + gamma^(order - 1); for order 1 it is zero
    sums = [[sum(c) % space.p for c in zip(*space.orbit(e))]
            for e in identity(field, n)]
    vs = Subspace(field, n, kernel(transpose(sums), field))
    if fixed.dim + vs.dim != n:
        return False
    for u in fixed.rows:
        for w in vs.rows:
            if space.pair(u, w):
                return False
    return True


def enumerate_subspaces(p: int, n: int):
    """All subspaces of F_p^n (desk scale only)."""
    field = PrimeField(p)
    out = [Subspace(field, n, [])]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_pos = []
            for r, pc in enumerate(pivots):
                for c in range(pc + 1, n):
                    if c not in pivots:
                        free_pos.append((r, c))
            for assign in itertools.product(range(p), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (rr, cc), val in zip(free_pos, assign):
                    rows[rr][cc] = val
                sub = Subspace(field, n, rows)
                if sub.dim == k and sub.pivots == list(pivots):
                    out.append(sub)
    return out


def _cycled_planes(p: int, k: int) -> SymplecticSpace:
    """k hyperbolic planes over F_p, gamma moving plane b to plane b + 1
    (mod k)."""
    n = 2 * k
    form = [[0] * n for _ in range(n)]
    gamma = [[0] * n for _ in range(n)]
    for b in range(k):
        form[2 * b][2 * b + 1], form[2 * b + 1][2 * b] = 1, -1
        for a in range(2):
            gamma[2 * ((b + 1) % k) + a][2 * b + a] = 1
    return SymplecticSpace(p, form, gamma)


def standard_symplectic_swap(p: int) -> SymplecticSpace:
    """Two hyperbolic planes over F_p with the order-2 swap action."""
    return _cycled_planes(p, 2)


def standard_symplectic_cycle(p: int) -> SymplecticSpace:
    """Three hyperbolic planes over F_p with the order-3 cyclic action."""
    return _cycled_planes(p, 3)


def random_stable_subspace(space: SymplecticSpace, rng) -> Subspace:
    """Span of complete gamma-orbits of random vectors: always stable."""
    n, p = space.n, space.p
    vecs = []
    for _ in range(rng.randrange(1, 3)):
        vecs += space.orbit(tuple(rng.randrange(p) for _ in range(n)))
    return Subspace(space.field, n, vecs)
