"""Exact-arithmetic verification toolkit for the constructive algebra of
split octonions, triality, building norms and semisimple strata of the
exceptional Lie algebra of derivations, over the local field model
F_p((t)).

Everything is immutable value data over exact truncated Laurent series;
all checks are exact identities or congruences at explicit levels.
"""

from .endo import (EndV, adjoint, analyze_semisimple, dim4_kernel_derivation,
                   is_derivation, is_so, lift_sl3, lift_su21)
from .filtration import (FiltrationQuotient, SymplecticSpace, cayley,
                         cayley_offset, gamma_perp, moy_counterexample,
                         psi_b, quotient_iso_check, trace_triality_invariance)
from .norms import (FiltrationLattice, HermitianNorm, LatticeSeq, NormFn,
                    dual_norm, extend_dim4, extend_sl3, extend_su21,
                    filtration_lattice, is_algebra_norm, is_self_dual,
                    lattice_seq_from_norm, seq_valuation, sharp_dual,
                    standard_norm, volume)
from .octonions import (CompositionSubalgebra, Octonion, anisotropic_plane,
                        basis_octonion, bilinear_f, center_subalgebra,
                        division_quaternion, double, hyperbolic_plane,
                        idempotents_from_isotropic_pair, octonion_unit,
                        ramified_plane, split_polarization,
                        standard_split_dim4)
from .scalars import FieldConfig, Scalar, parse_scalar
from .strata import (ClassifiedStratum, Stratum, StratumData, classify,
                     lift_type_d_sl3, lift_type_d_su21, validate)
from .suites import run_all, run_suite
from .triality import (TrialityTriple, check_related, diag_lie_triple, hat,
                       is_g2_element, is_g2_lie, orbit_triples, root_triple,
                       solve_dim2, solve_dim4, solve_glw, solve_lie_triple)

__version__ = "0.1.0"
