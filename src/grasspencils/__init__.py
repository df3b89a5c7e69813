"""Exact arithmetic for highly symmetric Calabi-Yau pencils in Grassmannians.

The package constructs the one-parameter hypersurface pencils on G(r,n)
attached to arrow partitions, counts their points over prime fields by
Schubert-cell enumeration, computes Hasse-Witt invariants from the local
period expansion, and measures Hodge/deformation dimensions through exact
graded linear algebra in Jacobian and generalized Griffiths rings.

Everything is exact: rationals are arbitrary precision, prime fields are
integer residues, and no floating point enters any computation.
"""

__version__ = "0.1.0"

from .fields import PrimeField, RATIONALS, is_prime, next_prime
from .poly import SparsePolynomial, monomials_of_degree
from .linalg import ResourceLimitError
from .grassmann import (PencilSpec, plucker_indices, partition_to_index,
                        index_to_partition, enumerate_arrow_partitions,
                        frozen_variables, plucker_relations, build_pencil,
                        evaluate_pencil, monomial_name, plucker_names)
from .symmetry import (SymmetryGroup, build_group, character, is_invariant,
                       invariant_monomials)
from .pointcount import (SchubertCell, PointCountRecord, enumerate_cells,
                         grassmannian_count, count_points, count_table,
                         count_zeros, records_to_csv)
from .periods import (PeriodKernel, build_period_kernel, period_coefficients,
                      hasse_witt, hypergeometric_truncation,
                      truncation_search)
from .griffiths import (GradedPieceReport, SpecializationMismatch,
                        apply_derivation, grassmann_jacobian_generators,
                        graded_quotient, CIJacobianContext, ci_context,
                        ci_context_for_pencil, ci_bigraded_quotient,
                        invariant_subspace)
