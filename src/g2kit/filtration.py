"""Finite filtration quotients: the Cayley transform between lattice and
congruence-subgroup filtrations, its compatibility with triality on
generators, the character pairing psi_b of the quotients, the
counterexample showing the Cayley transform misses the automorphism
group, and the symplectic fixed-point identity over F_p.

A group element g near 1 is carried as its sparse offset g - 1 and a Lie
element X on the Cayley path as its entries, both {(i, j): Scalar}.
cayley_offset computes C(X) - 1 = X (1 - X/2)^{-1} as the solution Y of
(1 - X/2) Y = X.  The keys of the nonzero entries of X are the edges of
its support graph; a row Y_i follows by back substitution once the rows
of its successors are known, times the inverse of the pivot 1 - x_ii/2
where i has a self-loop.  One post-order walk of the graph solves each
vertex after all of its successors, and only the vertices on or above a
cycle of two or more vertices are left, to be row-reduced as one block.
The pivots are inverted once per distinct x_ii, in a table that lives
for the call, or for the quotient_iso_check call that passes one: there
the diagonal entries are the torus generators' +-lam, a handful of
values over the 229 Cayley offsets of a check.  cayley is the one Cayley path:
1 + cayley_offset, its entries placed on the identity
(EndV.from_offset).  quotient_iso_check works on entries and offsets: a
pair of generators X, Y with XY = YX = 0, read from the keys of their
entries, satisfies C(X + Y) = C(X) C(Y) exactly and is decided with no
Cayley transform; for every other pair the sum is merged entries, the
homomorphism test is A + B + AB = C modulo A_s with the sparse product
AB, and each distinct Cayley offset, pivot inverse and group
generator's offset is computed once per check, in tables that live for
the call.  The group side forms no 8 x 8 matrix: a generator's offset
is read from its descriptor (GroupGenerator.offset: +-lam for a root, the
torus weights minus one on the diagonal), the triality images of the Lie
side come as entries (LieTrialityGroup.orbit_entries), and the exact
image test compares 1 + offset on the diagonal and the entries off it.
Congruences are decided on entries (FiltrationLattice.contains_difference):
over a lattice with the standard basis entry by entry, on the entries
where either side is nonzero, and by valuation first: a pair of entries
that both lie at or above the bound of A_s is accepted with no
subtraction.  psi_b reads the offset y = x - 1 once
(FiltrationLattice.offset_columns): x lies in P^r when y lies in A_r,
and tr(b y) is linalg.trace_columns on the nonzero columns of y, which
forms only the diagonal of b y.  Over the standard basis that is one
pass over x that tests the bounds; over any other basis y is formed
dense and tested by FiltrationLattice.contains.

A quotient A_r/A_s (any r <= s) is one FiltrationQuotient, which reads
the bounds of A_r and A_s once: its basis, lift (on the standard
splitting basis only), action (a triality table as an F_p-matrix on the
basis) and congruent.  lie_generators, character_counts and part (c) of
quotient_iso_check read a quotient only through it.

The symplectic identity works in F_p^n with linalg's Subspace, rref and
kernel over residue.PrimeField, the same core as the F((t)) linear
algebra; ints are reduced where they enter a SymplecticSpace or a
Subspace.  gamma_perp decides its identity by subspace intersections
(Subspace.intersection), without listing the vectors of any subspace.
"""

from __future__ import annotations

import itertools

from .endo import (SO_LABELS, SO_PLACES, EndV, is_derivation, lift_sl3,
                   so_matrix)
from .errors import DomainError, MembershipError, SingularError
from .linalg import (Subspace, identity, kernel, rref, trace_columns,
                     trace_product, transpose)
from .norms import LatticeSeq
from .octonions import hyperbolic_plane
from .residue import PrimeField
from .scalars import Scalar
from .triality import (GroupGenerator, GroupTriality, LieTrialityGroup,
                       _lie_tables, is_g2_element, is_g2_lie)


def cayley_offset(x, inverses=None) -> dict:
    """C(X) - 1 as its nonzero entries {(i, j): Scalar}, for X an EndV or
    its entries {(i, j): Scalar}.  inverses, when given, is a table
    {(val, coeffs) of x_ii: (1 - x_ii/2)^{-1}} for one config that the
    caller keeps across calls, so that each distinct pivot is inverted
    once; without it the table lives for this call.

    C(X) - 1 = (1 + X/2)(1 - X/2)^{-1} - 1 = X (1 - X/2)^{-1}, and X
    commutes with 1 - X/2, so it is the solution Y of (1 - X/2) Y = X.
    The keys of the nonzero entries are the edges i -> j of the support
    graph of X; row i of that equation reads
    (1 - x_ii/2) Y_i = X_i + 1/2 sum_{j != i} x_ij Y_j,
    so Y_i is known once the Y_j of its successors j != i are:
    - a vertex with no row (no entry) has Y_j = 0;
    - without a self-loop Y_i is the right side;
    - with one it is that times (1 - x_ii/2)^{-1}, and where
      1 - x_ii/2 = 0, 1 - X/2 is singular: in an order that puts every
      solved vertex after its successors, 1 - X/2 is block triangular
      with that entry on its diagonal.
    Every vertex with no cycle of two or more vertices on or below it is
    solved so, by back substitution in one post-order walk (a vertex is
    finished after its successors); on an acyclic graph (X nilpotent)
    that is all of them, with no inverse.  The vertices left over, L,
    satisfy (1 - X_LL/2) Y_L = R, R_i the right side above with the
    solved Y_j: one row reduction of [1 - X_LL/2 | R] leaves Y_L in the
    right half, and 1 - X/2 is invertible iff 1 - X_LL/2 is, iff the
    pivots are the columns of the left half.  Each entry of a right side
    is x_ik, then 1/2 (x_ij y_jk) added in the row order of j."""
    entries = x.entries() if isinstance(x, EndV) else x
    nonzero = [(ij, entries[ij]) for ij in sorted(entries)
               if entries[ij].coeffs]
    if not nonzero:
        return {}
    rows = {}
    for (i, j), c in nonzero:
        rows.setdefault(i, {})[j] = c
    cfg = nonzero[0][1].cfg
    half, zero, one = cfg.half, cfg.zero(), cfg.one()
    inverses = {} if inverses is None else inverses
    solved = {}

    def right_side(i):
        out = dict(rows[i])
        for j, c in rows[i].items():
            for k, y in solved.get(j, {}).items():
                term = half * (c * y)
                out[k] = out[k] + term if k in out else term
        return out

    seen = set()

    def walk(i):
        # post order: i is finished after its successors j != i, and solved
        # when all of them are; a successor still on the walk's path closes
        # a cycle of two or more vertices, and an unsolved finished one lies
        # on or above one
        seen.add(i)
        row = rows[i]
        ready = True
        for j in row:
            if j != i and j in rows:
                if j not in seen:
                    walk(j)
                if j not in solved:
                    ready = False
        if not ready:
            return
        y = right_side(i)
        if i in row:
            xii = row[i]
            f = inverses.get((xii.val, xii.coeffs))
            if f is None:
                pivot = one - half * xii
                if pivot.is_zero:
                    raise SingularError("1 - X/2 is not invertible")
                f = inverses[xii.val, xii.coeffs] = pivot.inv()
            y = {k: c * f for k, c in y.items()}
        solved[i] = y

    for i in rows:
        if i not in seen:
            walk(i)
    core = [i for i in rows if i not in solved]
    if core:
        rights = [right_side(i) for i in core]
        cols = sorted({k for r in rights for k in r})
        n, pos = len(core), {i: a for a, i in enumerate(core)}
        aug = [[zero] * n + [r.get(k, zero) for k in cols] for r in rights]
        for a, i in enumerate(core):
            aug[a][a] = one
            for j, c in rows[i].items():
                if j in pos:
                    aug[a][pos[j]] = aug[a][pos[j]] - half * c
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            raise SingularError("1 - X/2 is not invertible")
        for a, i in enumerate(core):
            solved[i] = dict(zip(cols, red[a][n:]))
    return {(i, k): solved[i][k] for i in sorted(solved)
            for k in sorted(solved[i]) if solved[i][k].coeffs}


def cayley(x: EndV) -> EndV:
    """C(X) = (1 + X/2)(1 - X/2)^{-1}, formed as 1 + cayley_offset(x)."""
    return EndV.from_offset(x.cfg, cayley_offset(x))


def cayley_scalar(lam: Scalar) -> Scalar:
    cfg = lam.cfg
    half = cfg.half
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


# -- the quotient A_r / A_s ---------------------------------------------------

class FiltrationQuotient:
    """A_r / A_s (r <= s) on the splitting basis; for 1 <= r <= s <= 2r,
    also the group quotient P^r / P^s under the Cayley bijection.  basis
    holds the pairs (k, v) for u^v e_k, e_k the so(V) coordinate k of
    endo.SO_LABELS and bound_k(r) <= v < bound_k(s), bound_k the bound at
    SO_PLACES[k][0] (in the 1/e units of Scalar.val)."""

    def __init__(self, seq: LatticeSeq, r: int, s: int):
        if r > s:
            raise DomainError("need r <= s")
        self.r, self.s = r, s
        self.lat_r, self.lat_s = seq.lattice(r), seq.lattice(s)
        self._lo, self._hi = ([lat._val_bounds[l][j]
                               for (l, j), _ in SO_PLACES]
                              for lat in (self.lat_r, self.lat_s))
        self.basis = [(k, v) for k in range(len(SO_LABELS))
                      for v in range(self._lo[k], self._hi[k])]

    def lift(self, terms) -> EndV:
        """sum c u^v e_k over the terms ((k, v), c); e_k is a matrix
        coordinate only in the standard splitting basis (another raises
        DomainError)."""
        cfg = self.lat_r.cfg
        if not self.lat_r._std:
            raise DomainError("quotient bases lift on the standard basis only")
        coords = {}
        for (k, v), c in terms:
            m = cfg.monomial(c, v)
            coords[k] = coords[k] + m if k in coords else m
        return so_matrix(cfg, {k: c for k, c in coords.items() if c.coeffs})

    def action(self, table):
        """The F_p-matrix on basis, in ints, of a rational so(V) table of
        triality._lie_tables (column k holds q_mk for e_k -> sum q_mk e_m,
        the exponent kept), or None where the table does not keep A_r and
        A_s: an entry q_mk nonzero mod p needs bound_m <= bound_k at r and
        at s.  Otherwise u^v e_k maps to the q_mk u^v e_m with
        v < bound_m(s)."""
        p, lo, hi = self.lat_r.cfg.p, self._lo, self._hi
        cols = [{m: q.numerator * pow(q.denominator, -1, p) % p
                 for m, q in col.items()} for col in table]
        if any(c and (lo[m] > lo[k] or hi[m] > hi[k])
               for k, col in enumerate(cols) for m, c in col.items()):
            return None
        index = {kv: n for n, kv in enumerate(self.basis)}
        rows = [[0] * len(self.basis) for _ in self.basis]
        for n, (k, v) in enumerate(self.basis):
            for m, c in cols[k].items():
                if v < hi[m]:
                    rows[index[m, v]][n] = c
        return rows

    def congruent(self, x: dict, y: dict) -> bool:
        """x = y modulo A_s, for Lie elements x, y or for the offsets
        g - 1, h - 1 of group elements, each given by its entries
        {(i, j): Scalar}: for h in P(Lambda), A_s h = A_s, so g h^{-1} is
        in P^s iff g - h is in A_s (1 <= r <= s <= 2r only)."""
        if not 1 <= self.r <= self.s <= 2 * self.r:
            raise DomainError("need 1 <= r <= s <= 2r")
        return self.lat_s.contains_difference(x, y)


class GeneratorRecord:
    """A threshold generator of A_r with its exact Cayley image in P^r."""

    def __init__(self, name, lie, group):
        self.name = name
        self.lie = lie      # EndV in A_r
        self.group = group  # GroupGenerator with matrix() == cayley(lie)


def lie_generators(seq: LatticeSeq, r: int):
    """Threshold generators lam e_k of A_r(Lambda), lam = u^v with v the
    lowest exponent of k in the basis of A_r/A_{r+m}, paired with their
    Cayley images d_i(C(lam)) and u_{i,j}(lam)."""
    cfg, one, out = seq.cfg, seq.cfg.one(), []
    q = FiltrationQuotient(seq, r, r + seq.m)
    lows = dict(reversed(q.basis))  # lowest v
    for k, label in enumerate(SO_LABELS):
        v = lows[k]
        lam, lie = cfg.monomial(1, v), q.lift([((k, v), 1)])
        if k < 4:
            mu = cayley_scalar(lam)
            name, group = f"D_{label}", GroupGenerator.torus(
                *(mu if label == i else one for i in (4, 1, 2, 3)))
        else:
            name = "U_{},{}".format(*label)
            group = GroupGenerator.root(*label, lam)
        out.append(GeneratorRecord(f"{name}(t^{v // cfg.e})", lie, group))
    return out


def quotient_iso_check(seq: LatticeSeq, r: int, s: int) -> dict:
    """Generator-level verification that the Cayley bijection induces a
    triality-equivariant isomorphism A_r/A_s -> P^r/P^s, and that fixed
    points of the quotient lift to fixed points of A_r.

    The homomorphism test (a) decides a pair (a, b) of generators with no
    Cayley transform when X = X_a and Y = X_b annihilate each other,
    XY = YX = 0 (for a = b, X^2 = 0):
    - XY = YX = 0 gives 1 - (X + Y)/2 = (1 - X/2)(1 - Y/2) and
      1 + (X + Y)/2 = (1 + X/2)(1 + Y/2);
    - X and Y commute, so all four factors do, and C(X + Y) = C(X) C(Y)
      exactly.  The group law holds on the nose, and so does the
      congruence modulo P^s;
    - 1 - X/2 and 1 - Y/2 are invertible, since the images C(X_a) are
      computed first (a SingularError there propagates).
    The test reads the keys of the nonzero entries: no column index of
    X_a is a row index of X_b, nor one of X_b a row index of X_a.  Then
    no term of either product exists, so no arithmetic decides it.  Every
    other pair forms the sum, its Cayley offset and both products.

    Part (c), every triality-fixed coset of A_r/A_s contains a
    derivation, is decided on q.basis: sigma and rho must keep A_r and
    A_s; their tables keep the exponent, so they act on it as F_p-matrices
    S and R (q.action), and the fixed space is the kernel of
    [S - 1; R - 1] (over F_{p^2} too, as S and R are over F_p).
    Its dimension must be the rank of the average table, the projection
    onto it (a wrong S or R can shrink it, which no lift shows).  For each
    kernel vector, average(x) of x = sum c u^v e_k lies in A_r, is a
    derivation and is congruent to x mod A_s.  That decides every fixed
    coset and lift: the tests are linear (average is, A_r and A_s are
    modules, derivations a subspace), so sum c_i x_i passes when each x_i
    does; |Gamma| = 6 is prime to p >= 5, so 1/6 is a unit, average(A_s)
    lies in A_s, and another lift x + a (a in A_s) of the coset has an
    average congruent to average(x) mod A_s.

    Returns a report dict with a (expected empty) list of violations.
    """
    q = FiltrationQuotient(seq, r, s)
    q.congruent({}, {})  # 1 <= r <= s <= 2r, before any Cayley transform
    cfg = seq.cfg
    gens = lie_generators(seq, r)
    violations = []
    # Lie elements as their entries, group elements near 1 as offsets g - 1
    lies = [g.lie.entries() for g in gens]
    # the inverses of the pivots 1 - x_ii/2, one per distinct diagonal
    # entry x_ii (the torus generators' +-lam), for every Cayley offset of
    # this call
    inverses = {}
    images = [cayley_offset(x, inverses) for x in lies]
    # (a) Cayley is a homomorphism modulo P^s: (1 + A)(1 + B) = 1 + C
    # modulo P^s, that is A + B + AB = C modulo A_s.  A mutually
    # annihilating pair satisfies it exactly (see the docstring) and is
    # skipped.  C(a + b) = C(b + a), so it is computed once per other
    # unordered pair and compared with both products; failures are
    # reported in (a, b) order.
    decided = _annihilating_pairs(lies)
    failed = []
    for i, xa in enumerate(lies):
        for j in range(i, len(gens)):
            if (i, j) in decided:
                continue
            both = cayley_offset(_sparse_sum(xa, lies[j]), inverses)
            for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
                if not q.congruent(_product_offset(images[a], images[b]),
                                   both):
                    failed.append((a, b))
    violations += [f"homomorphism failure at {gens[a].name}, {gens[b].name}"
                   for a, b in sorted(failed)]
    # (b) Cayley commutes with triality modulo P^s; the group images are
    # exactly d_i(C(lam)) and u_{i,j}(lam).  Most triality images of a
    # generator are generators again, so each distinct Lie image is
    # transformed once, the table keyed on the entries and starting from
    # the generators' own images, and each distinct group descriptor's
    # offset is read once; both tables hold offsets, and the triality
    # images come as entries.
    lie_gamma = LieTrialityGroup()
    grp_gamma = GroupTriality(cfg)
    transforms = {tuple(x.items()): cx for x, cx in zip(lies, images)}
    offsets = {}

    def transform(x):
        key = tuple(x.items())
        if key not in transforms:
            transforms[key] = cayley_offset(x, inverses)
        return transforms[key]

    def offset(gen):
        key = (gen.kind, gen.data)
        if key not in offsets:
            offsets[key] = gen.offset(cfg)
        return offsets[key]

    for g, cx in zip(gens, images):
        # exact: the image 1 + cx against the generator's 1 + offset (a
        # torus generator's offset holds digits past the window of
        # d_i(C(lam)))
        if not _same_image(cx, offset(g.group), cfg):
            violations.append(f"Cayley image mismatch at {g.name}")
            continue
        for word, y in lie_gamma.orbit_entries(g.lie):
            rhs = offset(grp_gamma._apply_desc(word, g.group))
            if not q.congruent(transform(y), rhs):
                violations.append(
                    f"triality congruence failure at {g.name}, {word}")
    # (c) quotient fixed points lift, decided on a basis (see the docstring)
    lie, p, fixed = _lie_tables(), cfg.p, []
    mats = [q.action(lie.words[word]) for word in ("sigma", "rho")]
    violations += [f"{word} moves A_{r} or A_{s}"
                   for word, mat in zip(("sigma", "rho"), mats) if mat is None]
    if None not in mats and q.basis:
        field = PrimeField(p)
        fixed = kernel([[(c - (a == n)) % p for n, c in enumerate(row)]
                        for mat in mats for a, row in enumerate(mat)], field)
        rank = Subspace(field, len(q.basis), q.action(lie.average)).dim
        if len(fixed) != rank:
            violations.append(f"fixed space of dimension {len(fixed)} where "
                              f"the averages span {rank}")
    for vector in fixed:
        x = q.lift(zip(q.basis, vector))
        lifted = lie_gamma.average(x)
        if not q.lat_r.contains(lifted):
            violations.append("lift leaves A_r")
        if not is_derivation(lifted):
            violations.append("lift is not a derivation")
        if not q.congruent(lifted.entries(), x.entries()):
            violations.append("lift changes the coset")
    return {
        "check": "quotient_iso",
        "parameters": {"r": r, "s": s, "m": seq.m, "p": cfg.p},
        "generators_tested": len(gens),
        "violations": violations,
    }


def _annihilating_pairs(lies) -> set:
    """The pairs (a, b), a <= b, of entry dicts with X_a X_b = X_b X_a = 0
    read from the keys of the nonzero entries: no column index of one is
    a row index of the other, so neither product has a term."""
    rows = [{i for (i, _), c in x.items() if c.coeffs} for x in lies]
    cols = [{j for (_, j), c in x.items() if c.coeffs} for x in lies]
    return {(a, b) for a in range(len(lies)) for b in range(a, len(lies))
            if cols[a].isdisjoint(rows[b]) and cols[b].isdisjoint(rows[a])}


def _same_image(a: dict, b: dict, cfg) -> bool:
    """1 + a = 1 + b digit for digit, for offsets a and b: 1 + the entry
    on the diagonal, the entries themselves off it, on the entries where
    either is nonzero.  An entry past the window of 1 + a is lost on the
    diagonal as it is in the dense sum."""
    one, zero = cfg.one(), cfg.zero()
    for ij in a.keys() | b.keys():
        x, y = a.get(ij, zero), b.get(ij, zero)
        if ij[0] == ij[1]:
            x, y = one + x, one + y
        if x != y:
            return False
    return True


def _sparse_sum(a: dict, b: dict) -> dict:
    """The entries of a + b from those of a and b, each shared entry
    summed a + b as the dense sum does."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return out


def _product_offset(a: dict, b: dict) -> dict:
    """The offset of (1 + a)(1 + b) from the offsets a and b: the sparse
    sum a + b + ab."""
    return _add_product(_sparse_sum(a, b), a, b)


def _add_product(out: dict, a: dict, b: dict) -> dict:
    """out with the terms of the sparse product ab added in, entry by
    entry; each entry of ab is summed over l in the order of a's keys,
    increasing l for a in row-major order."""
    b_rows = {}
    for (l, j), c in b.items():
        b_rows.setdefault(l, []).append((j, c))
    for (i, l), x in a.items():
        for j, y in b_rows.get(l, ()):
            term = x * y
            k = (i, j)
            out[k] = out[k] + term if k in out else term
    return out


# -- the character pairing --------------------------------------------------------

def psi_b(seq: LatticeSeq, s: int, b: EndV, x: EndV, r: int) -> int:
    """psi_b(x) = psi(tr(b (x - 1))) for b in A_{1-s} and x in P^r,
    with psi the additive character of conductor p_F; a character of
    the quotient P^r / P^s.

    y = x - 1 is read once (FiltrationLattice.offset_columns): it is
    tested against the bounds of A_r and kept as its nonzero columns,
    and tr(b y) is linalg.trace_columns on them, the sums
    linalg.trace_product forms, with the same digits and errors."""
    if not seq.lattice(1 - s).contains(b):
        raise MembershipError("b must lie in A_{1-s}")
    inside, columns = seq.lattice(r).offset_columns(x)
    if not inside:
        raise MembershipError("x must lie in P^r")
    b.rows[0][0]._check(x.rows[0][0])
    return trace_columns(b.rows, columns).conductor_character()


def character_counts(seq: LatticeSeq, r: int, s: int):
    """The lengths of the bases of A_{1-s}/A_{1-r} and of A_r/A_s; equal
    lengths are the counting half of the duality.  A length counts digits
    in Scalar.val units, the dimension over the residue field: over the
    ramified extension e times the count in t units, on both sides, and
    over F_{p^2} half the F_p-dimension."""
    return (len(FiltrationQuotient(seq, 1 - s, 1 - r).basis),
            len(FiltrationQuotient(seq, r, s).basis))


def trace_triality_invariance(x: EndV, y: EndV) -> bool:
    """tr(XY) = tr(dnu(X) dnu(Y)) for every triality automorphism."""
    gamma = LieTrialityGroup()
    target = trace_product(x.rows, y.rows)
    for word in gamma.WORDS:
        gx, gy = gamma.apply(word, x), gamma.apply(word, y)
        if trace_product(gx.rows, gy.rows) != target:
            return False
    return True


# -- symplectic fixed points over F_p ----------------------------------------------

class ModpSubspace:
    """The p^dim vectors of a subspace of F_p^n (desk scale only).
    gamma_perp no longer lists them; the enumeration stays as the
    reference that the tests check gamma_perp against, and perfbench's
    tracer still names ModpSubspace.vectors as a target."""

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
        return x.perp(self.form)


def _fixed_sides(space: SymplecticSpace, x: Subspace, fixed: Subspace):
    """X^Gamma and the two sides of gamma_perp's identity, for
    fixed = V^Gamma."""
    x_fixed = x.intersection(fixed)
    return (x_fixed, space.perp(x_fixed).intersection(fixed),
            space.perp(x).intersection(fixed))


def gamma_perp(space: SymplecticSpace, x: Subspace) -> bool:
    """The orthogonal of X^Gamma inside V^Gamma equals (X^perp)^Gamma,
    and V decomposes as V_1 perp V_s.  The first half takes three
    intersections with V^Gamma (_fixed_sides): X^Gamma = X meet V^Gamma,
    then (X^Gamma)^perp meet V^Gamma and X^perp meet V^Gamma, which are
    compared as canonical Subspaces."""
    if not space.stable(x):
        raise DomainError("subspace must be gamma-stable")
    field, n = space.field, space.n
    fixed = space.fixed_subspace()
    _, lhs, rhs = _fixed_sides(space, x, fixed)
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
