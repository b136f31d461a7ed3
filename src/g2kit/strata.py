"""Semisimple strata [Lambda, n, r, beta] of the derivation Lie algebra:
validity checks, the four-case classification by the kernel subalgebra,
and the type-D lifting from sl3 / su(2,1) data across a 2-dimensional
composition subalgebra.

validate is where a stratum's witness is verified: it decides that beta
is a derivation, the witness blocks (endo.verify_witness_blocks) and
their coprimality once each.  classify raises validate's violations and
runs the analysis of endo.analyze_semisimple on a valid stratum without
those checks.

Both lifts take one path from one StratumData: norms.extend_* checks and
extends the norm, endo.lift_* checks and lifts the matrix, _kernel_block
gathers the kernel block of the witness and _lifted checks the depth.
Block valuations are norms.seq_valuation on the block's basis indices.
"""

from __future__ import annotations

import math
from .endo import (EndV, WitnessBlock, is_derivation, lift_sl3, lift_su21,
                   restricted_kernel, verify_witness_blocks, witness_coprime,
                   _analyze_semisimple, _is_x_factor, _poly_eval)
from .errors import LiftError, WitnessError
from .linalg import RowReduction, Subspace, det, lin_comb, mat_vec, transpose
from .norms import (LatticeSeq, NormFn, extend_sl3, extend_su21,
                    lattice_seq_from_norm, seq_valuation)
from .octonions import (CompositionSubalgebra, Octonion,
                        ordered_polarization)


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
    # pairwise coprimality, computed once: the witness record (the clauses
    # of verify_witness) and the coprimality record both read it
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


class ClassifiedStratum:
    """A stratum with its classification tag and restricted stratum data."""

    def __init__(self, stratum: Stratum, case_tag: str, analysis,
                 restricted: dict):
        self.stratum = stratum
        self.case_tag = case_tag
        self.analysis = analysis
        self.restricted = restricted

    def __repr__(self):
        return f"ClassifiedStratum({self.case_tag})"


def classify(stratum: Stratum) -> ClassifiedStratum:
    """The four-case classification of a nonzero semisimple stratum by the
    kernel subalgebra of beta; a zero beta gets the null tag.  validate
    decides that beta is a derivation and verifies the witness, so the
    analysis runs on them unchecked."""
    rep = validate(stratum)
    if rep["violations"]:
        raise WitnessError("; ".join(rep["violations"]), rep["violations"])
    if stratum.is_null:
        return ClassifiedStratum(stratum, "null", None, {})
    analysis = _analyze_semisimple(stratum.beta, stratum.witness)
    s = stratum
    if analysis.case_tag == "(i) hyperbolic-plane":
        wp = analysis.extras["wplus_basis"]
        bw = analysis.extras["beta_wplus"]
        if det(bw).is_zero:
            raise WitnessError(
                "case (i) needs beta injective on W+; enlarge the kernel")
        restricted = {
            "basis": wp,
            "beta_matrix": bw,
            "norm": _restrict_norm(s.seq.norm, wp),
            "n": s.n, "r": s.r,
        }
    elif analysis.case_tag == "(ii) quadratic-extension":
        restricted = {
            "fprime": analysis.v0,
            "beta_w": analysis.extras["beta_w"],
            "n": s.n, "r": s.r,
        }
    elif analysis.case_tag == "(iii) dim4-split-eigen":
        restricted = {
            "lambda": analysis.extras["lambda"],
            "w_lambda": analysis.extras["w_lambda"],
            "n": s.n, "r": s.r,
        }
    else:
        restricted = {
            "u": analysis.extras["u"],
            "min_poly": analysis.extras["min_poly"],
            "n": s.n, "r": s.r,
        }
    return ClassifiedStratum(stratum, analysis.case_tag, analysis, restricted)


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
