"""Walkthrough: the Cayley transform between lattice and congruence-group
filtrations, its triality compatibility on generators, the character
pairing of the finite quotients, and the counterexample showing the
transform does not map derivations into automorphisms."""

from g2kit.endo import d_torus_lie
from g2kit.filtration import (cayley, lie_generators, moy_counterexample,
                              psi_b, quotient_iso_check)
from g2kit.norms import lattice_seq_from_norm, standard_norm
from g2kit.scalars import FieldConfig

cfg = FieldConfig(p=5, precision=8)
seq = lattice_seq_from_norm(standard_norm(cfg))

print("Cayley image of D_1(t):")
g = cayley(d_torus_lie(cfg, 1, cfg.t()))
print("  entry at (e_1, e_1):", g.entry(1, 1))

rep = quotient_iso_check(seq, 1, 2)
print("\ncongruence report (r, s) = (1, 2):")
print("  generators tested:", rep["generators_tested"])
print("  violations:", rep["violations"])

b = d_torus_lie(cfg, 1, cfg.t(-1))
gens = lie_generators(seq, 1)
values = [psi_b(seq, 2, b, g.group.matrix(cfg), 1) for g in gens[:6]]
print("\ncharacter values of psi_b on the first generators:", values)

print("\nthe Moy counterexample (u, u, -2u):")
for u in (cfg.t(), cfg.t(2)):
    print(f"  u = {u}: derivation in, non-automorphism out ->",
          moy_counterexample(u))
