"""The full-candidate invariant greedy, the slow route for the tests.

invariant_subspace feeds the greedy rank extension only the standard
invariant monomials, listed as chains, each as its own unit row.  The route
it replaces fed it every invariant monomial of the slice in canonical
order, each reduced to its normal form; both must pick the same survivors.
Its rows are keyed by the columns of invariant_subspace's basis, and all
of them are eliminated in one basis, not one basis per character block.
"""

from grasspencils.grassmann import normal_form
from grasspencils.griffiths import _at, _column_key, _dims
from grasspencils.linalg import row_basis
from grasspencils.poly import monomials_of_degree
from grasspencils.symmetry import invariant_monomials


def invariant_candidates(r, n, degree):
    """symmetry.invariant_monomials, without keeping the whole slice it
    scans in the monomials_of_degree cache (888,030 monomials on G(2,7))."""
    try:
        return invariant_monomials(r, n, degree)
    finally:
        monomials_of_degree.cache_clear()


def one_basis(spec, degree, rows, fld, t):
    """(basis, dims): every row of the slice's _pencil_rows at t, free of t
    or a + t*b, eliminated over fld in one basis, whatever its character
    block, and the dims of the slice."""
    basis = row_basis(None, fld)
    return basis, _dims(spec.r, spec.n, degree, sum(
        basis.add_rows(free) + basis.add_rows(_at(pairs, t))
        for free, pairs in rows.values()))


def full_candidate_greedy(spec, degree, rows, fld, t):
    """(ideal_rank, survivors) of one specialization: the rows a + t*b of
    the generator multiples eliminated over fld, then the normal form of
    every invariant monomial offered in canonical order."""
    r, n = spec.r, spec.n
    key = _column_key(degree)
    basis, dims = one_basis(spec, degree, rows, fld, t)
    survivors = tuple(
        e for e in invariant_candidates(r, n, degree)
        if basis.add_row({key(s): c for s, c in normal_form(r, n, e)}))
    return dims["ideal_rank"], survivors
