"""Exact arithmetic for highly symmetric Calabi-Yau pencils in Grassmannians.

The package constructs the one-parameter hypersurface pencils on G(r,n)
attached to arrow partitions, counts their points over prime fields by
Schubert-cell enumeration, computes Hasse-Witt invariants from the local
period expansion, and measures Hodge/deformation dimensions through exact
graded linear algebra in Jacobian and generalized Griffiths rings.

Everything is exact: rationals are arbitrary precision, prime fields are
integer residues, and no floating point enters any computation.

The names in __all__ load on first use (PEP 562): `import grasspencils` imports
no layer, and `grasspencils.count_table` imports `pointcount` and what it
imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fields": ("PrimeField", "RATIONALS", "is_prime", "next_prime"),
    "poly": ("SparsePolynomial", "monomials_of_degree"),
    "linalg": ("ResourceLimitError",),
    "grassmann": ("PencilSpec", "plucker_indices", "partition_to_index",
                  "index_to_partition", "enumerate_arrow_partitions",
                  "frozen_variables", "plucker_relations", "build_pencil",
                  "evaluate_pencil", "monomial_name", "plucker_names"),
    "symmetry": ("SymmetryGroup", "build_group", "character", "is_invariant",
                 "invariant_monomials"),
    "pointcount": ("SchubertCell", "PointCountRecord", "enumerate_cells",
                   "grassmannian_count", "count_points", "count_table",
                   "count_zeros", "records_to_csv"),
    "periods": ("PeriodKernel", "build_period_kernel", "period_coefficients",
                "hasse_witt", "hypergeometric_truncation",
                "truncation_search"),
    "griffiths": ("GradedPieceReport", "SpecializationMismatch",
                  "apply_derivation", "grassmann_jacobian_generators",
                  "graded_quotient", "CIJacobianContext", "ci_context",
                  "ci_context_for_pencil", "ci_bigraded_quotient",
                  "invariant_subspace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
