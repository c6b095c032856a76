"""torsionlab: torsion filters and RCM classification over finite rings.

The package decides, for a finite ring and a set of one-variable
quasiidentities, whether the module class they define is relatively
congruence modular, by checking the five torsion-filter axioms on the
induced family of left ideals.  Everything is exact: rings and modules
are explicit finite tables and every verdict is reproducible by
bounded-exhaustive search.
"""

__version__ = "0.1.0"

from .classify import (ClassificationVerdict, CollapseTrace, Quasiidentity,
                       QuasivarietyDescriptor, annihilator_of_quasivariety,
                       classify, commutative_collapse, compose_quasiidentities,
                       identities_to_ideal, membership)
from .delta import (DeltaAxiom, DeltaRow, ReducedDelta, delta_equiv_quasiidentity,
                    delta_from_doc, delta_membership_witness, delta_satisfied,
                    random_reducible_delta, reduce_delta)
from .errors import (InputError, InvariantError, ReductionError, RingSpecError,
                     TableError, TorsionLabError)
from .kernels import backend
from .modules import (FiniteLattice, FiniteModule, Submodule, all_submodules,
                      annihilator, direct_sum, is_modular, lattice_from_family,
                      modularity_witness, module_corpus, module_from_table,
                      power_module, quotient_module, regular_module,
                      satisfies_quasiidentity, submodule_closure,
                      submodule_sum)
from .rings import (FiniteRing, LeftIdeal, TwoSidedIdeal, all_left_ideals,
                    as_two_sided, cyclic_ring, format_quasiidentity,
                    full_matrix_ring, greedy_generators, ideal_intersect,
                    ideal_sum, idempotent_generator, is_two_sided,
                    left_ideal_closure, prime_field, product_ideal,
                    product_ring, quotient_ring, ring_from_table,
                    two_sided_closure, upper_triangular_ring)
from .ringspec import BUILTIN_SPECS, builtin_rings, parse_ring_spec
from .torsion import (AxiomViolation, RcmReport, TorsionNotion,
                      check_torsion_axioms, closure_witness,
                      enumerate_torsion_notions, is_torsion_free,
                      principal_generator, rcm_verify, regularity_witness,
                      relative_closure, relative_lattice,
                      right_translation_witness, torsion_elements,
                      weak_extension_witness)
