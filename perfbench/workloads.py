"""The three benchmark workloads, built from a seed.

A workload is a list of items, one pass over them being the workload's
whole verification.  An item is one call into g2kit that returns its
verdicts as (label, ok) pairs.  Items of one kind are the same operation
on different inputs of about the same cost; the runner times every item
and estimates a pass from the median time of each kind.

Only public (non-underscore) names of g2kit are used, and every library
function is looked up on its module at call time, so the tracer's
rebinding of module functions is seen here as well.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple
from fractions import Fraction

from g2kit import endo, filtration, fixtures, norms, octonions, suites, triality
from g2kit.scalars import FieldConfig

# (r, s) pairs of the quotient-congruences check of the filtration suite.
QUOTIENT_LEVELS = ((1, 1), (1, 2), (2, 3), (2, 4))
# Suites run by desk-suites; the filtration suite is split between the
# other two workloads.
DESK_SUITES = ("octonion", "triality", "norms", "strata")
# gamma_perp on a subspace X enumerates p^dim(X) vectors, so the random
# subspaces are drawn in a fixed number per dimension: the seed then
# chooses the subspaces but not how much enumeration a pass does.  The
# counts are the gamma-perp-random check's 50 draws split in the
# proportions random_stable_subspace gives them (measured over 1000
# draws: dim 3 47%, 6 28%, 5 18%, 4 4%, 2 3%).
CYCLE_DIMS = {2: 1, 3: 24, 4: 2, 5: 9, 6: 14}
CYCLE_DIMS_TINY = {3: 2}


Item = namedtuple("Item", "kind name run")


class Workload:
    """Generated inputs and the items that verify them."""

    def __init__(self, params, items, description, warmup):
        self.params = params
        self.items = items
        self.description = description
        self.warmup = warmup

    def input_hash(self) -> str:
        """sha256 of a canonical description of every generated input."""
        text = json.dumps(self.description, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _endv_desc(x):
    return x.to_json()


def _seq_desc(seq):
    return {"values": [str(v) for v in seq.norm.values],
            "basis": [b.to_json() for b in seq.norm.basis]}


# -- cayley-quotients -------------------------------------------------------------

def _quotient_seqs(cfg):
    d = octonions.hyperbolic_plane(cfg)
    std = norms.lattice_seq_from_norm(norms.standard_norm(cfg))
    thirds = norms.lattice_seq_from_norm(norms.extend_sl3(fixtures.wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]), d))
    return std, thirds


def _quotient_item(seq, r, s):
    def run():
        rep = filtration.quotient_iso_check(seq, r, s)
        return [(f"violations={len(rep['violations'])}",
                 not rep["violations"])]
    return Item("quotient-iso", f"quotient-iso m={seq.m} r={r} s={s}", run)


def _moy_item(u):
    def run():
        return [("broken", filtration.moy_counterexample(u) is True)]
    return Item("moy", f"moy u={u}", run)


def _psi_hom_item(cfg, seq, b, pairs):
    r, s = 1, 2

    def run():
        xs = [filtration.cayley(g.lie)
              for g in filtration.lie_generators(seq, r)]
        zero = endo.EndV.zero(cfg)
        ok = all(filtration.psi_b(seq, s, zero, x, r) == 0 for x in xs)
        for i, j in pairs:
            x, y = xs[i], xs[j]
            lhs = filtration.psi_b(seq, s, b, x * y, r)
            rhs = (filtration.psi_b(seq, s, b, x, r)
                   + filtration.psi_b(seq, s, b, y, r)) % cfg.p
            ok = ok and lhs == rhs
        return [("homomorphism", ok)]
    return Item("psi-homomorphism", "psi-homomorphism", run)


def _psi_equi_item(cfg, seq, bs):
    r, s = 1, 2

    def run():
        lie_gamma = triality.LieTrialityGroup()
        grp_gamma = triality.GroupTriality(cfg)
        gens = filtration.lie_generators(seq, r)
        ok = True
        for b in bs:
            for word in triality.LieTrialityGroup.WORDS:
                dnu_b = lie_gamma.apply(word, b)
                winv = grp_gamma.inverse_word(word)
                for g in gens:
                    lhs = filtration.psi_b(seq, s, dnu_b, g.group.matrix(cfg), r)
                    rhs = filtration.psi_b(seq, s, b,
                                           grp_gamma.apply(winv, g.group), r)
                    ok = ok and lhs == rhs
        return [("equivariance", ok)]
    return Item("psi-equivariance", "psi-equivariance", run)


def _psi_inj_item(cfg, seq):
    r, s = 1, 2

    def run():
        d1, d2 = filtration.character_counts(seq, r, s)
        ok = d1 == d2
        xs = [g.group.matrix(cfg) for g in filtration.lie_generators(seq, r)]
        a0 = norms.filtration_lattice(seq, 0)
        for c in range(1, cfg.p):
            lam = cfg.monomial(c, -1)
            for b in (endo.d_torus_lie(cfg, 1, lam),
                      endo.u_root_lie(cfg, 1, 2, lam),
                      endo.u_root_lie(cfg, 2, -4, lam)):
                ok = (ok and not a0.contains(b)
                      and any(filtration.psi_b(seq, s, b, x, r) != 0
                              for x in xs))
        return [("injectivity", ok)]
    return Item("psi-injectivity", "psi-injectivity", run)


def _trace_item(k, x, y):
    def run():
        return [("invariant", filtration.trace_triality_invariance(x, y))]
    return Item(f"trace-invariance {k}", f"trace-invariance {k}", run)


def build_cayley_quotients(seed: int, tiny: bool = False) -> Workload:
    cfg = FieldConfig(5, 8)
    rng = random.Random(seed)
    std, thirds = _quotient_seqs(cfg)
    n_gens = len(filtration.lie_generators(std, 1))
    pairs = [(rng.randrange(n_gens), rng.randrange(n_gens))
             for _ in range(10 if tiny else 100)]
    hom_b = (endo.d_torus_lie(cfg, 1, cfg.t(-1))
             + endo.u_root_lie(cfg, 1, 2, cfg.t(-1)))
    equi_bs = [endo.d_torus_lie(cfg, 1, cfg.t(-1)),
               endo.u_root_lie(cfg, -1, -3, cfg.t(-1)),
               endo.u_root_lie(cfg, 1, -2, cfg.t(-1))]
    trace_pairs = [
        (endo.d_torus_lie(cfg, 1, cfg.t()), endo.d_torus_lie(cfg, 1, cfg.one())),
        (endo.u_root_lie(cfg, 1, 2, cfg.t()), endo.u_root_lie(cfg, 2, 1, cfg.one())),
        (triality.random_g2_lie(cfg, rng, width=1, vmin=0, vmax=1),
         triality.random_g2_lie(cfg, rng, width=1, vmin=0, vmax=1)),
    ]
    items = []
    if not tiny:
        items += [_quotient_item(seq, r, s)
                  for seq in (std, thirds) for r, s in QUOTIENT_LEVELS]
    items += [_moy_item(u) for u in (cfg.t(), cfg.t(2), cfg.t() * 3)]
    items.append(_psi_hom_item(cfg, std, hom_b, pairs))
    if not tiny:
        items.append(_psi_equi_item(cfg, std, equi_bs))
    items.append(_psi_inj_item(cfg, std))
    items += [_trace_item(k, x, y) for k, (x, y) in enumerate(trace_pairs)]
    description = {
        "seqs": [_seq_desc(std), _seq_desc(thirds)],
        "levels": QUOTIENT_LEVELS, "psi_pairs": pairs,
        "psi_b": [_endv_desc(hom_b)] + [_endv_desc(b) for b in equi_bs],
        "trace_pairs": [[_endv_desc(x), _endv_desc(y)]
                        for x, y in trace_pairs],
        "items": [item.name for item in items],
    }

    def warmup():
        # fills the per-config triality tables used by every solver call
        triality.LieTrialityGroup().apply("sigma", trace_pairs[0][0])
    return Workload({"p": cfg.p, "N": cfg.precision},
                    items, description, warmup)


# -- desk-suites ------------------------------------------------------------------

def _suite_item(name, cfg, seed):
    def run():
        rep = suites.run_suite(name, cfg, seed)
        return [(c["name"], c["status"] == "pass") for c in rep["checks"]]
    return Item(f"suite {name}", f"suite {name}", run)


def build_desk_suites(seed: int, tiny: bool = False) -> Workload:
    cfg = FieldConfig(11, 8)
    names = ("strata",) if tiny else DESK_SUITES
    items = [_suite_item(name, cfg, seed) for name in names]
    description = {"p": cfg.p, "N": cfg.precision, "seed": seed,
                   "suites": list(names)}

    def warmup():
        triality.solve_lie_triple(endo.EndV.zero(cfg))
    return Workload({"p": cfg.p, "N": cfg.precision},
                    items, description, warmup)


# -- modp-symplectic --------------------------------------------------------------

def _gamma_item(label, index, space, x):
    def run():
        return [("gamma-perp", filtration.gamma_perp(space, x) is True)]
    kind = f"gamma-perp {label} dim={x.dim}"
    return Item(kind, f"{kind} #{index}", run)


def _stratified_subspaces(space, rng, quota):
    """Seeded random_stable_subspace draws, kept until each dimension in
    quota has its count; draws of other dimensions are dropped."""
    left = dict(quota)
    out = []
    while any(left.values()):
        x = filtration.random_stable_subspace(space, rng)
        if left.get(x.dim, 0):
            left[x.dim] -= 1
            out.append(x)
    return out


def build_modp_symplectic(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    swap = filtration.standard_symplectic_swap(5)
    stable = [x for x in filtration.enumerate_subspaces(5, 4) if swap.stable(x)]
    cycle = filtration.standard_symplectic_cycle(7)
    randoms = _stratified_subspaces(
        cycle, rng, CYCLE_DIMS_TINY if tiny else CYCLE_DIMS)
    items = ([_gamma_item("swap5", k, swap, x) for k, x in enumerate(stable)]
             + [_gamma_item("cycle7", k, cycle, x)
                for k, x in enumerate(randoms)])
    description = {
        "swap5": [x.rows for x in stable],
        "cycle7": [x.rows for x in randoms],
        "items": [item.name for item in items],
    }

    def warmup():
        filtration.gamma_perp(swap, stable[0])
    return Workload({"p": [swap.p, cycle.p]},
                    items, description, warmup)


BY_NAME = {
    "cayley-quotients": build_cayley_quotients,
    "desk-suites": build_desk_suites,
    "modp-symplectic": build_modp_symplectic,
}
