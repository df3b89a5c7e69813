"""Per-point histogram oracle for the tests.

Evaluates every monomial of the pencil at each point yielded by
iter_plucker_points, through a table of powers mod p.  It never splits a
Schubert cell or expands a minor along a row, so it checks the per-cell
kernel that _pencil_histogram uses.
"""

from grasspencils.grassmann import PencilSpec
from grasspencils.pointcount import iter_plucker_points


def per_point_histogram(spec: PencilSpec, p: int) -> dict:
    """Histogram of (deforming sum, frozen product) pairs over all points."""
    deforming = [tuple((i, e) for i, e in enumerate(mono) if e)
                 for mono in spec.deforming]
    frozen = tuple((i, e) for i, e in enumerate(spec.frozen) if e)
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
