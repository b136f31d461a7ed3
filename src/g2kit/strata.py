"""Semisimple strata [Lambda, n, r, beta] of the derivation Lie algebra
and the decisions about them: the decomposition witness, validate's
clauses, the four-case classification of beta by its kernel subalgebra,
and the type-D lifting from sl3 / su(2,1) data across a 2-dimensional
composition subalgebra.

A witness is a list of WitnessBlocks (factor, subspace).
verify_witness_blocks checks that the subspaces decompose V into
beta-stable blocks, each annihilated by its factor, and witness_coprime
that the factors are pairwise coprime.

validate decides each clause of a stratum once: that beta is a
derivation, the witness blocks and their coprimality, the lattice
splitting and the block valuations.  classify raises validate's
violations and runs the analysis on a valid stratum, so the analysis
checks neither again.  The analysis fills a ClassifiedStratum: the kernel
subalgebra V0 of beta (spanned by the blocks with factor X), W =
V0-perp, the case tag and the restricted stratum data.

Both lifts take one path from one StratumData: norms.extend_* checks and
extends the norm, endo.lift_* checks and lifts the matrix, _kernel_block
gathers the kernel block of the witness and _lifted checks the depth.
Block valuations are norms.seq_valuation on the block's basis indices.
"""

from __future__ import annotations

import math
from .endo import EndV, is_derivation, lift_sl3, lift_su21
from .errors import LiftError, WitnessError
from .linalg import (RowReduction, Subspace, det, kernel, lin_comb, mat_vec,
                     transpose)
from .norms import (LatticeSeq, NormFn, extend_sl3, extend_su21,
                    lattice_seq_from_norm, seq_valuation)
from .octonions import (CompositionSubalgebra, Octonion, gram_scalar,
                        octonion_unit, ordered_polarization, plane_subalgebra,
                        sqrt_scalar)


# -- decomposition witness -----------------------------------------------------

class WitnessBlock:
    """One block of a decomposition witness: a monic-ish factor (constant
    term first), its int coefficients coerced to scalars of the space's
    field, and the subspace it annihilates."""

    def __init__(self, factor, space: Subspace):
        self.factor = [space.field.coerce(c) for c in factor]
        self.space = space


def _poly_eval(coeffs, x, zero, one):
    """sum coeffs[k] x^k (coeffs[0] constant term, scalars of the field of
    x), for x a scalar or an EndV with the given zero and one."""
    out, power = zero, one
    for c in coeffs:
        if not c.is_zero:
            out = out + power * c
        power = power * x
    return out


def _is_x_factor(c) -> bool:
    """The factor is X times a unit: its block lies in the kernel."""
    return (len(c) >= 2 and c[0].is_zero and not c[1].is_zero
            and all(x.is_zero for x in c[2:]))


def verify_witness_blocks(beta: EndV, witness) -> None:
    """The blocks are beta-stable, each is annihilated by its factor, and
    together they decompose V; WitnessError says which clause fails."""
    cfg = beta.cfg
    total = 0
    all_rows = []
    for blk in witness:
        coeffs, space = blk.factor, blk.space
        total += space.dim
        all_rows.extend([list(r) for r in space.rows])
        pb = _poly_eval(coeffs, beta, EndV.zero(cfg), EndV.identity(cfg))
        for row in space.rows:
            img = mat_vec(pb.rows, list(row))
            if any(not x.is_zero for x in img):
                raise WitnessError("factor does not annihilate its block")
        for row in space.rows:
            img = mat_vec(beta.rows, list(row))
            if not space.contains(img):
                raise WitnessError("block is not beta-stable")
    if total != 8 or Subspace(cfg, 8, all_rows).dim != 8:
        raise WitnessError("witness blocks do not decompose V")


def witness_coprime(witness) -> bool:
    """True iff the factors of the witness blocks are pairwise coprime."""
    return all(_poly_coprime(a.factor, b.factor)
               for n, a in enumerate(witness) for b in witness[n + 1:])


def _poly_coprime(p, q) -> bool:
    """Exact gcd over the scalar field; True iff gcd is a unit."""
    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d].is_zero:
            d -= 1
        return d

    a, b = list(p), list(q)
    while True:
        da, db = deg(a), deg(b)
        if db < 0:
            return da == 0
        if da < 0:
            return db == 0
        if da < db:
            a, b = b, a
            continue
        lead = b[db].inv()
        shift = da - db
        factor = a[da] * lead
        new = list(a)
        for k in range(db + 1):
            new[k + shift] = new[k + shift] - factor * b[k]
        a = new


# -- strata and their clauses --------------------------------------------------

class Stratum:
    """[Lambda, n, r, beta] with a block-decomposition witness."""

    def __init__(self, seq: LatticeSeq, n: int, r: int, beta: EndV, witness):
        self.seq = seq
        self.n = n
        self.r = r
        self.beta = beta
        self.witness = list(witness)
        self.cfg = beta.cfg

    @property
    def is_null(self) -> bool:
        return self.beta.is_zero

    def __repr__(self):
        return f"Stratum(n={self.n}, r={self.r}, null={self.is_null})"

    def to_json(self):
        return {
            "lattice": self.seq.norm.to_json(),
            "n": self.n,
            "r": self.r,
            "beta": self.beta.to_json(),
            "witness": {
                "factors": [[str(c) for c in blk.factor]
                            for blk in self.witness],
                "kernels": [[list(map(str, row)) for row in blk.space.rows]
                            for blk in self.witness],
            },
        }


def validate(stratum: Stratum) -> dict:
    """Report on the testable clauses of semisimplicity.

    Checks: beta is a derivation; beta lies in A_{-n}; each block's factor
    annihilates it; blocks decompose V and are beta-stable; the factors are
    pairwise coprime (exact gcd); the lattice sequence is split by the
    decomposition; per-block valuations match (n_i = -v of the block, or
    r for a null block, with n the maximum).  The negative clause (no
    coalescing into a simple stratum) is recorded as assumed-by-witness.
    """
    checks = []
    violations = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "status": "pass" if ok else "fail"})
        if not ok:
            violations.append(f"{name}: {detail}" if detail else name)

    s = stratum
    record("range", 0 <= s.r <= s.n and s.n >= 1,
           f"need 0 <= r <= n with n >= 1, got r={s.r} n={s.n}")
    record("derivation", is_derivation(s.beta))
    if s.is_null:
        record("null-valuation", s.r == s.n, "null stratum needs r = n")
    else:
        v = seq_valuation(s.seq, s.beta)
        record("lattice-valuation", v >= -s.n,
               f"v_Lambda(beta) = {v} < -n = {-s.n}")
    # pairwise coprimality, computed once: the witness record and the
    # coprimality record both read it
    coprime = witness_coprime(s.witness)
    try:
        verify_witness_blocks(s.beta, s.witness)
        record("witness", coprime, "witness factors are not coprime")
    except WitnessError as exc:
        record("witness", False, str(exc))
    record("coprimality", coprime, "witness factors share a root")
    record("lattice-splitting", _lattice_split_by(s.seq, s.witness),
           "sequence is not split by the decomposition")
    ok_vals = True
    depths = []
    for blk in s.witness:
        nb = _block_valuation(s, blk)
        if nb is None:
            depths.append(s.r)  # null block convention n_i = r
            continue
        depths.append(nb)
        if nb > s.n:
            ok_vals = False
    if not s.is_null and depths and max(depths) != s.n:
        ok_vals = False
    record("block-valuations", ok_vals,
           f"block depths {depths} inconsistent with n = {s.n}")
    checks.append({"name": "not-equivalent-to-simple",
                   "status": "assumed-by-witness"})
    return {"check": "validate", "violations": violations, "checks": checks}


def _block_valuation(s: Stratum, blk):
    """n_i = -v of beta on the block w.r.t. the restricted sequence, or
    None for a null block; needs the block to be spanned by norm-basis
    vectors (all fixtures are), else falls back to the global valuation."""
    if all(all(x.is_zero for x in mat_vec(s.beta.rows, list(r)))
           for r in blk.space.rows):
        return None
    idx = [i for i, b in enumerate(s.seq.norm.basis)
           if blk.space.contains(b.coords)]
    if len(idx) != blk.space.dim:
        idx = range(8)
    v = seq_valuation(s.seq, s.beta, idx)
    return None if v == math.inf else -v


def _lattice_split_by(seq: LatticeSeq, witness) -> bool:
    """Norm is split by the block decomposition: every splitting-basis
    vector's block projections do not drop below its value."""
    cfg = seq.cfg
    spaces = [blk.space for blk in witness]
    cols = []
    for sp in spaces:
        cols.extend([list(r) for r in sp.rows])
    reduction = RowReduction(transpose(cols))
    for b, val in zip(seq.norm.basis, seq.norm.values):
        co = reduction.solve(list(b.coords))
        idx = 0
        for sp in spaces:
            part = co[idx:idx + sp.dim]
            idx += sp.dim
            if not part:
                continue
            proj = Octonion(cfg, lin_comb(cfg, part, sp.rows))
            if not proj.is_zero and seq.norm.eval(proj) < val:
                return False
    return True


# -- semisimple analysis -------------------------------------------------------

class ClassifiedStratum:
    """A stratum with its case tag and, for a nonzero beta, the kernel
    subalgebra v0 of beta (a CompositionSubalgebra), its orthogonal
    complement w_space (a Subspace) and the restricted stratum data:
    "n" and "r", and by case (i) the matrix of beta on the ordered W+
    basis ("beta_matrix") and the norm restricted there ("norm"),
    (iii) the eigenvalue "lambda" of beta on W and its eigenspace
    "w_lambda", (iv) the scalar "u" = beta_W^2, a non-square."""

    def __init__(self, stratum: Stratum, case_tag: str, v0=None,
                 w_space=None, restricted=None):
        self.stratum = stratum
        self.case_tag = case_tag
        self.v0 = v0
        self.w_space = w_space
        self.restricted = {} if restricted is None else restricted

    def __repr__(self):
        return f"ClassifiedStratum({self.case_tag})"


def classify(stratum: Stratum) -> ClassifiedStratum:
    """The four-case classification of a nonzero semisimple stratum by the
    kernel subalgebra of beta: (i) hyperbolic-plane, (ii)
    quadratic-extension, (iii) dim4-split-eigen, (iv) dim4-hermitian; a
    zero beta gets the null tag.  validate decides that beta is a
    derivation and verifies the witness, so the analysis runs on them
    unchecked."""
    rep = validate(stratum)
    if rep["violations"]:
        raise WitnessError("; ".join(rep["violations"]), rep["violations"])
    if stratum.is_null:
        return ClassifiedStratum(stratum, "null")
    return _analyze_semisimple(stratum)


def _analyze_semisimple(s: Stratum) -> ClassifiedStratum:
    """The analysis of a valid nonzero stratum.  The squareness of the
    dim-4 scalar is decided exactly and checked against the witness."""
    beta, cfg = s.beta, s.cfg
    v0_space = Subspace(cfg, 8, [list(r) for blk in s.witness
                                 if _is_x_factor(blk.factor)
                                 for r in blk.space.rows])
    dim0 = v0_space.dim
    if dim0 not in (2, 4):
        raise WitnessError(f"kernel dimension {dim0} is not 2 or 4")
    v0 = _kernel_subalgebra(cfg, v0_space)
    w_space = v0_space.perp(gram_scalar(cfg))
    restricted = {"n": s.n, "r": s.r}
    if dim0 == 2:
        if v0.kind == "split-dim2":
            wp, _ = ordered_polarization(v0)
            bw = restrict_to_basis(beta, wp)
            if not _trace(bw).is_zero:
                raise WitnessError("restriction to W+ must be traceless")
            if det(bw).is_zero:
                raise WitnessError(
                    "case (i) needs beta injective on W+; enlarge the kernel")
            restricted.update(beta_matrix=bw,
                              norm=_restrict_norm(s.seq.norm, wp))
            return ClassifiedStratum(s, "(i) hyperbolic-plane", v0, w_space,
                                     restricted)
        bw6 = restrict_to_basis(beta, [Octonion(cfg, r) for r in w_space.rows])
        if not _is_d_linear(beta, v0, w_space):
            raise WitnessError("restriction is not D-linear")
        if not _trace(bw6).is_zero:
            raise WitnessError("restriction to W must be traceless")
        return ClassifiedStratum(s, "(ii) quadratic-extension", v0, w_space,
                                 restricted)
    # dim 4: beta_W^2 must be a scalar u
    u = _square_scalar_on(beta, w_space)
    if u.is_zero:
        raise WitnessError("restriction squares to zero: not semisimple")
    if not u.is_square():
        restricted["u"] = u
        return ClassifiedStratum(s, "(iv) dim4-hermitian", v0, w_space,
                                 restricted)
    lam = sqrt_scalar(u)
    _expect_factor(cfg, s.witness, lam)
    wl, wml = (_eigenspace(beta, w_space, x) for x in (lam, -lam))
    if wl.dim != 2 or wml.dim != 2:
        raise WitnessError("eigenspaces of the dim-4 case must be 2+2")
    if v0.kind != "split-dim4":
        raise WitnessError("split eigenvalues force a split kernel algebra")
    restricted.update({"lambda": lam, "w_lambda": wl})
    return ClassifiedStratum(s, "(iii) dim4-split-eigen", v0, w_space,
                             restricted)


def _trace(m):
    out = m[0][0]
    for k in range(1, len(m)):
        out = out + m[k][k]
    return out


def _kernel_subalgebra(cfg, space: Subspace) -> CompositionSubalgebra:
    octs = [Octonion(cfg, r) for r in space.rows]
    unit = octonion_unit(cfg)
    if not space.contains(unit.coords):
        raise WitnessError("kernel must contain the unit")
    if space.dim == 2:
        half = cfg.half
        for o in octs:
            c0 = o - unit.scale(o.trace() * half)
            if not c0.is_zero:
                return plane_subalgebra(cfg, c0)
        raise WitnessError("kernel has no traceless generator")
    d = CompositionSubalgebra(cfg, octs)
    if not d.is_composition():
        raise WitnessError("kernel is not a composition subalgebra")
    return d


def restrict_to_basis(beta: EndV, basis_oct):
    """Matrix of beta on the span of basis_oct in that ordered basis;
    entry [i][j] is the b_i coefficient of beta(b_j)."""
    rows = [list(o.coords) for o in basis_oct]
    reduction = RowReduction(transpose(rows))
    return transpose([reduction.solve(mat_vec(beta.rows, r)) for r in rows])


def _is_d_linear(g, v0, w_space) -> bool:
    c = v0.traceless_generator()
    return all(g.apply(c * w) == c * g.apply(w)
               for w in (Octonion(g.cfg, r) for r in w_space.rows))


def _square_scalar_on(beta, w_space):
    sq = beta * beta
    u = None
    for row in w_space.rows:
        img = mat_vec(sq.rows, list(row))
        # img must equal u * row
        pivot = next(i for i, x in enumerate(row) if not x.is_zero)
        cand = img[pivot] * row[pivot].inv()
        for a, b in zip(img, row):
            if (a - cand * b).is_zero:
                continue
            raise WitnessError("square of restriction is not scalar")
        if u is None:
            u = cand
        elif u != cand:
            raise WitnessError("square of restriction is not a single scalar")
    return u


def restricted_kernel(m, rows):
    """The kernel of the matrix m on span(rows): the combinations of rows
    whose coefficients lie in the kernel of the images' column matrix."""
    cfg = rows[0][0].cfg
    imgs = [mat_vec(m, r) for r in rows]
    return [lin_comb(cfg, co, rows) for co in kernel(transpose(imgs))]


def _eigenspace(beta, w_space, lam):
    shifted = beta - EndV.identity(beta.cfg) * lam
    return Subspace(beta.cfg, 8, restricted_kernel(
        shifted.rows, [list(r) for r in w_space.rows]))


def _expect_factor(cfg, witness, lam):
    """The witness must contain X - lam and X + lam factors (degree-1 blocks)
    or a matching quadratic; we accept any witness whose factors vanish at
    +-lam on some block."""
    found_plus = found_minus = False
    for blk in witness:
        val_p = _poly_eval(blk.factor, lam, cfg.zero(), cfg.one())
        val_m = _poly_eval(blk.factor, -lam, cfg.zero(), cfg.one())
        if val_p.is_zero:
            found_plus = True
        if val_m.is_zero:
            found_minus = True
    if not (found_plus and found_minus):
        raise WitnessError("witness does not certify the split eigenvalues")


def _restrict_norm(norm: NormFn, basis_subset):
    idx = [next((i for i, x in enumerate(norm.basis) if x == b), None)
           for b in basis_subset]
    # a basis not adapted to the norm: restriction via eval only
    return None if None in idx else norm.restrict(idx)


# -- type-D lifting ----------------------------------------------------------------

class StratumData:
    """The data of a type-D lift: a norm, depths n >= r, the matrix phi
    and witness blocks (factor, kernel octonions).  For lift_type_d_sl3
    the norm is a volume-zero NormFn on the ordered W+ basis and phi a
    traceless 3x3 matrix on it; for lift_type_d_su21 it is a self-dual
    HermitianNorm on W = D-perp and phi the D-matrix on its basis."""

    def __init__(self, norm, n: int, r: int, phi, blocks):
        self.norm = norm
        self.n = n
        self.r = r
        self.phi = phi
        # (factor, vectors), the factor's ints made scalars
        self.blocks = [([norm.cfg.coerce(c) for c in f], vs)
                       for f, vs in blocks]


def lift_type_d_sl3(data: StratumData, d: CompositionSubalgebra) -> Stratum:
    """[check-Lambda, n, r, check-beta]: extend the volume-zero norm and
    the traceless matrix across the split plane D.  lift_sl3 checks the
    trace before extend_sl3 checks the volume."""
    beta = lift_sl3(data.phi, d)
    ext = extend_sl3(data.norm, d)
    return _lifted(ext, data, beta, _lift_witness_sl3(d, beta, data.blocks))


def _lifted(ext: NormFn, data, beta: EndV, witness) -> Stratum:
    """The lifted stratum on the sequence of the extended norm: a nonzero
    beta must keep the depth, v_Lambda(beta) = -n."""
    stratum = Stratum(lattice_seq_from_norm(ext), data.n, data.r, beta,
                      witness)
    if beta.is_zero:
        return stratum
    v = seq_valuation(stratum.seq, beta)
    if v != -data.n:
        raise LiftError(f"lift changed the depth: v = {v}, expected {-data.n}")
    return stratum


def _kernel_block(d: CompositionSubalgebra, blocks, mirror=None):
    """Split the input blocks of a lift: the kernel block of the lifted
    element is D's basis plus the vectors of every block with factor X
    (each followed by mirror(X) when a mirror is given); the other blocks
    are returned as (factor, coordinate rows)."""
    kernel_rows = [b.coords for b in d.basis]
    rest = []
    for coeffs, vectors in blocks:
        rows = [list(v.coords) for v in vectors]
        if _is_x_factor(coeffs):
            kernel_rows.extend(rows)
            if mirror is not None:
                kernel_rows.extend(mirror(coeffs))
        else:
            rest.append((coeffs, rows))
    return WitnessBlock([0, 1], Subspace(d.cfg, 8, kernel_rows)), rest


def _lift_witness_sl3(d, beta, blocks):
    """Witness of the lifted element: the kernel block on D (merged with
    any zero block of the input and its mirror) plus each input block and
    its mirror in W-, whose factor is the sign-normalized reflection.  A
    zero eigenvalue makes a mirror factor collide with a direct one, and
    blocks with equal factors merge."""
    _, wm = ordered_polarization(d)
    mirror = lambda factor: _mirror_kernel(d.cfg, beta, factor, wm)
    kernel, rest = _kernel_block(d, blocks, mirror)
    merged = {}
    for coeffs, rows in rest:
        reflected = _reflect_poly(coeffs)
        merged.setdefault(tuple(coeffs), []).extend(rows)
        merged.setdefault(tuple(reflected), []).extend(mirror(reflected))
    return [kernel] + [WitnessBlock(factor, Subspace(d.cfg, 8, rows))
                       for factor, rows in merged.items()]


def _mirror_kernel(cfg, beta, factor, wm):
    """Coordinate rows of a basis of the kernel of factor(beta) inside W-."""
    pb = _poly_eval(factor, beta, EndV.zero(cfg), EndV.identity(cfg))
    return restricted_kernel(pb.rows, [list(w.coords) for w in wm])


def _reflect_poly(coeffs):
    """+-P(-X), normalized monic."""
    out = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    lead = out[-1]
    return [c * lead.inv() for c in out]


def lift_type_d_su21(data: StratumData,
                     d: CompositionSubalgebra) -> Stratum:
    """[vec-Lambda, n, r, vec-beta]: extend a self-dual F'-norm and an
    anti-hermitian traceless matrix across an anisotropic plane D."""
    ext = extend_su21(data.norm, d)
    beta = lift_su21(data.phi, d, data.norm.basis)
    kernel, rest = _kernel_block(d, data.blocks)
    return _lifted(ext, data, beta, [kernel] + [
        WitnessBlock(coeffs, Subspace(d.cfg, 8, rows))
        for coeffs, rows in rest])
