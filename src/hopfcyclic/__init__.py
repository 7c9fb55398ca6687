"""Exact-arithmetic engine for cyclic and Hopf-cyclic (co)homology.

Constructs the cyclic, Hopf-cyclic, and equivariant cyclic complexes of
finite-dimensional (co)module (co)algebras over a Hopf algebra, builds
the characteristic morphisms and cochain-level pairings, and verifies
the structural identities by finite linear algebra over Q or F_p.
"""

from .fields import QQ, GF, field_by_name
from .linalg import Matrix, Subspace, quotient_space, CertificateFailure
from .hopf import (AlgebraData, CoalgebraData, HopfAlgebraData,
                   ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra,
                   ComoduleCoalgebra, ModComodule, ModularPair,
                   EquivariantPairing, check_structure, check_sayd,
                   check_hypotheses, modular_pair_module,
                   trivial_modcomodule, crossed_product_algebra,
                   crossed_product_coalgebra, cotensor,
                   HopfMismatch, CompatibilityFailure)
from .cyclic import (ParaCyclicModule, ModuleMorphism, check_axioms,
                     CHAIN, COCHAIN, constant_modules, cyc_algebra,
                     cyc_coalgebra, cover_algebra, cover_coalgebra,
                     compute_J, quotient_module, coinvariants, truncate,
                     hopf_cyclic_complex, hopf_cocyclic_comodule_algebra,
                     hopf_cyclic_comodule_coalgebra, cyclic_dual,
                     diag_hom, diag_tensor, NotSAYD, DescentFailure)
from .homology import (Total, mixed_of_cyclic, cyclic_bicomplex, cohomology,
                       cohomology_table, hochschild_table, compare_models,
                       NotCyclic, IdentityFailure)
from .pairings import (CochainClass, InvariantTrace, invariant_traces,
                       cyclic_cocycles, from_cyclic_cocycle,
                       classes_from_cohomology, alpha, beta, xi, star,
                       pullback, cup_with_trace, crossed_cocup_with_invariant,
                       cm_char_map, evaluation_covector,
                       diag_tensor_epi_check,
                       NotEquivariant, NotCocycle, AgreementFailure,
                       HypothesisFailure)
from . import fixtures

__version__ = "0.1.0"
