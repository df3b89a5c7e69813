"""The full-candidate invariant greedy, the slow route for the tests.

invariant_subspace feeds the greedy rank extension only the standard
invariant monomials, listed as chains, each as its own unit row.  The route
it replaces fed it every invariant monomial of the slice in canonical
order, each reduced to its normal form; both must pick the same survivors.
Its rows are keyed by the columns of invariant_subspace's basis.
"""

from grasspencils.grassmann import normal_form
from grasspencils.griffiths import _at, _column_key, _ideal_slice
from grasspencils.poly import monomials_of_degree
from grasspencils.symmetry import invariant_monomials


def invariant_candidates(r, n, degree):
    """symmetry.invariant_monomials, without keeping the whole slice it
    scans in the monomials_of_degree cache (888,030 monomials on G(2,7))."""
    try:
        return invariant_monomials(r, n, degree)
    finally:
        monomials_of_degree.cache_clear()


def full_candidate_greedy(spec, degree, rows, fld, t):
    """(ideal_rank, survivors) of one specialization: the rows a + t*b of
    the generator multiples eliminated over fld, then the normal form of
    every invariant monomial offered in canonical order."""
    r, n = spec.r, spec.n
    key = _column_key(degree)
    basis, dims = _ideal_slice(r, n, degree, _at(rows, t), fld)
    survivors = tuple(
        e for e in invariant_candidates(r, n, degree)
        if basis.add_row({key(s): c for s, c in normal_form(r, n, e)}))
    return dims["ideal_rank"], survivors
