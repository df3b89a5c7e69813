"""Histogram oracles for the tests.

per_point_histogram evaluates every monomial of the pencil at each point
yielded by iter_plucker_points, through a table of powers mod p.  It never
expands a cell's polynomials or packs a grid into lanes, so it checks the
per-cell kernel that _pencil_histogram uses.

per_cell_histogram runs that per-cell kernel with d = 1: every entry, row
0 included, runs over all of F_p and each point counts once.  It takes no
orbit of the diagonal group, so it checks the mu_d weighting of
_count_cell at primes where the per-point route is too slow.
"""

from collections import Counter

from grasspencils.grassmann import PencilSpec
from grasspencils.pointcount import (_count_cell, enumerate_cells,
                                     iter_plucker_points)


def sparse_monomials(spec: PencilSpec) -> tuple:
    """(deforming, frozen) as ((variable, exponent), ...) over the nonzero
    exponents."""
    deforming = [tuple((i, e) for i, e in enumerate(mono) if e)
                 for mono in spec.deforming]
    frozen = tuple((i, e) for i, e in enumerate(spec.frozen) if e)
    return deforming, frozen


def per_point_histogram(spec: PencilSpec, p: int) -> dict:
    """Histogram of (deforming sum, frozen product) pairs over all points."""
    deforming, frozen = sparse_monomials(spec)
    maxexp = max(max(e for _, e in mono) for mono in deforming)
    maxexp = max(maxexp, max(e for _, e in frozen))
    pow_table = [[pow(v, k, p) for k in range(maxexp + 1)] for v in range(p)]
    hist = {}
    for coords in iter_plucker_points(spec.r, spec.n, p):
        s = 0
        for mono in deforming:
            term = 1
            for i, e in mono:
                term = term * pow_table[coords[i]][e] % p
            s = (s + term) % p
        f = 1
        for i, e in frozen:
            f = f * pow_table[coords[i]][e] % p
        key = (s, f)
        hist[key] = hist.get(key, 0) + 1
    return hist


def per_cell_histogram(spec: PencilSpec, p: int, cells=None) -> dict:
    """The same histogram over the given cells (default: all of them),
    every point visited once and unweighted."""
    hist = Counter()
    for cell in cells or enumerate_cells(spec.r, spec.n):
        _count_cell(cell, spec, p, 1, hist)
    return hist
