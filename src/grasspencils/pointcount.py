"""Brute-force point counts of pencil members over prime fields.

The Grassmannian G(r,n) over F_p is enumerated once per (pencil, p) through
its Schubert cells: each cell is a reduced-row-echelon template with a fixed
pivot column set, and every point arises from exactly one assignment of the
free entries.  For each point we evaluate the r x r minors (the Pluecker
coordinates, in the package-wide sign convention) and record the pair
(deforming sum, frozen product); the histogram of those pairs answers the
count for every parameter value t without re-enumerating.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from .fields import is_prime
from .grassmann import PencilSpec, plucker_indices
from .linalg import ResourceLimitError

ENUMERATION_GUARD = 10 ** 9  # refuse larger Grassmannians without force


@dataclass(frozen=True)
class SchubertCell:
    """Echelon template: pivot columns, free entry slots, cell dimension."""

    pivots: tuple          # increasing 0-based pivot columns
    dimension: int
    free_positions: tuple  # (row, col) pairs, row-major order


@dataclass(frozen=True)
class PointCountRecord:
    p: int
    t: int
    count: int
    residue: int

    def __post_init__(self):
        if self.residue != self.count % self.p:
            raise ValueError("residue does not match count mod p")


@lru_cache(maxsize=None)
def enumerate_cells(r: int, n: int) -> tuple:
    """One cell per pivot set; free entries sit right of their pivot and
    outside the other pivot columns."""
    if not (1 <= r <= n - 1):
        raise ValueError(f"need 1 <= r <= n-1, got ({r}, {n})")
    cells = []
    for pivots in combinations(range(n), r):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(r)
                for j in range(pivots[i] + 1, n) if j not in pivot_set]
        cells.append(SchubertCell(pivots, len(free), tuple(free)))
    return tuple(cells)


def grassmannian_count(r: int, n: int, p: int) -> int:
    """|G(r,n)(F_p)| = sum over cells of p^dim."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(p ** cell.dimension for cell in enumerate_cells(r, n))


@lru_cache(maxsize=None)
def _signed_permutations(r):
    """(perm, sign) for every permutation of range(r), signs by inversions."""
    out = []
    for perm in permutations(range(r)):
        inv = sum(1 for a in range(r) for b in range(a + 1, r)
                  if perm[a] > perm[b])
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def _det_mod(matrix, cols, p):
    """Determinant of the chosen column minor, permutation expansion."""
    total = 0
    for perm, sign in _signed_permutations(len(matrix)):
        prod_val = 1
        for row_i, col_i in enumerate(perm):
            prod_val = prod_val * matrix[row_i][cols[col_i]] % p
        total = (total + sign * prod_val) % p
    return total


def iter_plucker_points(r: int, n: int, p: int, force: bool = False):
    """Yield the Pluecker coordinate tuple of every F_p-point, once each."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = grassmannian_count(r, n, p)
    if total > ENUMERATION_GUARD and not force:
        raise ResourceLimitError(
            f"G({r},{n})(F_{p}) has {total} points; "
            "pass force=True to enumerate anyway")
    col_sets = [tuple(i - 1 for i in idx) for idx in plucker_indices(r, n)]
    for cell in enumerate_cells(r, n):
        base = [[0] * n for _ in range(r)]
        for i, c in enumerate(cell.pivots):
            base[i][c] = 1
        if r == 2:
            # unrolled 2x2 minors; the dominant use case
            for assignment in product(range(p), repeat=cell.dimension):
                for (i, j), v in zip(cell.free_positions, assignment):
                    base[i][j] = v
                row0, row1 = base
                yield tuple(
                    (row0[a] * row1[b] - row0[b] * row1[a]) % p
                    for a, b in col_sets)
        else:
            for assignment in product(range(p), repeat=cell.dimension):
                for (i, j), v in zip(cell.free_positions, assignment):
                    base[i][j] = v
                yield tuple(_det_mod(base, cols, p) for cols in col_sets)


def count_zeros(poly, r: int, n: int, p: int, force: bool = False) -> int:
    """Points of G(r,n)(F_p) where the polynomial vanishes.

    Direct substitution into the polynomial; slow but fully general, and
    the reference route for cross-checking count_points.
    """
    if poly.nvars != len(plucker_indices(r, n)):
        raise ValueError("polynomial does not live on G(r,n)")
    count = 0
    for coords in iter_plucker_points(r, n, p, force=force):
        if poly.evaluate(coords) == 0:
            count += 1
    return count


@lru_cache(maxsize=32)
def _pencil_histogram(spec: PencilSpec, p: int, force: bool = False) -> dict:
    """Histogram of (deforming sum, frozen product) pairs over all points."""
    deforming = [tuple((i, e) for i, e in enumerate(mono) if e)
                 for mono in spec.deforming]
    frozen = tuple((i, e) for i, e in enumerate(spec.frozen) if e)
    maxexp = max(max(e for _, e in mono) for mono in deforming)
    maxexp = max(maxexp, max(e for _, e in frozen))
    pow_table = [[pow(v, k, p) for k in range(maxexp + 1)] for v in range(p)]
    hist = {}
    for coords in iter_plucker_points(spec.r, spec.n, p, force=force):
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


def count_points(spec: PencilSpec, p: int, t: int,
                 force: bool = False) -> PointCountRecord:
    """Points of the pencil member at parameter t over F_p.

    t = 0 is rejected: it does not give a smooth pencil member.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = t % p
    if t == 0:
        raise ValueError("t = 0 is excluded")
    hist = _pencil_histogram(spec, p, force)
    count = sum(m for (s, f), m in hist.items() if (t * s + f) % p == 0)
    return PointCountRecord(p=p, t=t, count=count, residue=count % p)


def count_table(spec: PencilSpec, p: int, force: bool = False) -> list:
    """Records for every t = 1..p-1 (one shared enumeration pass)."""
    return [count_points(spec, p, t, force) for t in range(1, p)]


def records_to_csv(records) -> str:
    lines = ["t,count,residue"]
    lines += [f"{rec.t},{rec.count},{rec.residue}" for rec in records]
    return "\n".join(lines) + "\n"
