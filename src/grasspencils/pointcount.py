"""Brute-force point counts of pencil members over prime fields.

The Grassmannian G(r,n) over F_p is enumerated once per (pencil, p) through
its Schubert cells: each cell is a reduced-row-echelon template with a fixed
pivot column set, and every point arises from exactly one assignment of the
free entries.  At each point the r x r minors are the Pluecker coordinates,
in the package-wide sign convention, and the pair (deforming sum, frozen
product) is recorded; the histogram of those pairs answers the count for
every parameter value t without re-enumerating.

The histogram is built one cell at a time, in one loop over the outer
entries.  Every minor is linear in the last echelon row, so the trailing
two (at most) free entries of that row form an inner block and every other
free entry is an outer entry: with the outer entries fixed, each Pluecker
coordinate is an affine form in the inner entries whose coefficients are
cofactors along the last row: (r-1)-minors of the rows above, recomputed
only when an entry above the last row changes.  The powers of each form
over the inner grid (at most p^2 points) come from memoized line tables,
coordinates constant on the grid stay scalars, and the products, sums and
(sum, product) counts over the grid run in map, zip and Counter.update.

The free entries are visited one orbit of a diagonal group at a time.
Let d = gcd(n, p - 1); over F_p the lattice L of symmetry.py is
L(F_p) = {z in mu_d^n : prod(z)^r = 1}.  Each z in it maps each cell to
itself, scaling the free entry (i, j) by z_j / z_{P_i} for the pivot P_i
of row i.  The echelon renormalization multiplies a degree-n monomial of
content w by z^w * det(z_pivots)^(-n) = (prod z)^c for an L-invariant one
(w = c(1,...,1) mod n with gcd(r, n) | c), and that is 1, so the pairs do
not change along an orbit.  Two kinds of z are used:

- prod(z) = 1, with z_{P_0} = 1 and z_{P_1} absorbing the product: the
  row-0 free columns carry independent copies of mu_d.  Each row-0 entry
  runs over 0 and the coset representatives of F_p^*/mu_d, and an
  assignment with k nonzero row-0 entries is weighted by d^k.
- zeta in mu_g', g' = gcd(r, d), at the last pivot P_{r-1} and 1
  elsewhere: prod(z)^r = zeta^r = 1.  It fixes every row above the last
  (their entries in column P_{r-1} are 0), so it acts inside each fibre of
  the row-0 reduction, and it scales the whole last row by 1/zeta.  The
  leading free entry of the last row therefore runs over 0 and the coset
  representatives of F_p^*/mu_g', and a nonzero one counts g' times.

Modulo scalars L(F_p) is gcd(r, d) times larger than its product-one
part, which is what the second kind adds: a factor 2 for every (2, n) with
n even at odd p.  _orbit_order falls back to d = 1, the full range(p)
loop, when r = 1 or some deforming or frozen monomial is not invariant (a
--pencil-json pencil may hold one).

iter_plucker_points and count_zeros keep the per-point route, the
reference for checking the histogram against direct substitution.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import (chain, combinations, islice, permutations, product,
                       repeat)
from math import gcd
from operator import add, mod, mul

from .fields import is_prime
from .grassmann import PencilSpec, _check_rn, plucker_indices, sort_with_sign
from .linalg import ResourceLimitError
from .symmetry import build_group, is_invariant

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
    _check_rn(r, n)
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
    """(perm, sign) for every permutation of range(r)."""
    return tuple((perm, sort_with_sign(perm)[1])
                 for perm in permutations(range(r)))


def _det_mod(matrix, cols, p):
    """Determinant of the chosen column minor, permutation expansion."""
    total = 0
    for perm, sign in _signed_permutations(len(matrix)):
        prod_val = 1
        for row_i, col_i in enumerate(perm):
            prod_val = prod_val * matrix[row_i][cols[col_i]] % p
        total = (total + sign * prod_val) % p
    return total


def _check_enumeration_size(r, n, p, force):
    """Refuse past ENUMERATION_GUARD points unless forced."""
    total = grassmannian_count(r, n, p)
    if total > ENUMERATION_GUARD and not force:
        raise ResourceLimitError(
            f"G({r},{n})(F_{p}) has {total} points, more than the 10^9 "
            "guard; pass force=True (tables --force) to enumerate anyway")


def iter_plucker_points(r: int, n: int, p: int, force: bool = False):
    """Yield the Pluecker coordinate tuple of every F_p-point, once each."""
    _check_enumeration_size(r, n, p, force)
    col_sets = [tuple(i - 1 for i in idx) for idx in plucker_indices(r, n)]
    for cell in enumerate_cells(r, n):
        base = [[0] * n for _ in range(r)]
        for i, c in enumerate(cell.pivots):
            base[i][c] = 1
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


def _split_cell(cell: SchubertCell, r: int) -> tuple:
    """(outer entries, inner columns): the inner block is the last row's
    trailing two free columns at most, and the outer entries are the other
    free entries, row-major as in free_positions."""
    inner = tuple(j for i, j in cell.free_positions if i == r - 1)[-2:]
    return cell.free_positions[:cell.dimension - len(inner)], inner


class _LineTables:
    """Value vectors of powers of affine forms over F_p.

    rows(s, e, xs)[b] lists (b + s*x)^e mod p for x in xs (default F_p),
    memoized per (s, e, xs); plane(b, s1, s2, e, xs) lists
    (b + s1*x1 + s2*x2)^e mod p over x1 in xs and x2 in F_p, x1 major, by
    chaining the rows of x2 at b + s1*x1.
    """

    def __init__(self, p: int):
        self.p = p
        self._rows = {}

    def rows(self, s: int, e: int, xs=None) -> list:
        key = (s, e, xs)
        if key not in self._rows:
            p = self.p
            self._rows[key] = [tuple(pow((b + s * x) % p, e, p)
                                     for x in xs or range(p))
                               for b in range(p)]
        return self._rows[key]

    def plane(self, b: int, s1: int, s2: int, e: int, xs=None) -> tuple:
        if s1 == 0:
            return self.rows(s2, e)[b] * len(xs or range(self.p))
        return tuple(chain.from_iterable(
            map(self.rows(s2, e).__getitem__, self.rows(s1, 1, xs)[b])))


def _monomial(mono, values, p):
    """(constant factor, lazy product of the vector factors or None)."""
    const, vectors = 1, []
    for qe in mono:
        v = values[qe]
        if isinstance(v, int):
            const = const * v % p
        else:
            vectors.append(v)
    if not vectors or const == 0:
        return const, None
    terms = reduce(partial(map, mul), vectors)
    if const != 1:
        terms = map(mul, terms, repeat(const))
    return const, terms


def _orbit_order(spec: PencilSpec, p: int) -> int:
    """The d whose cosets of mu_d weight the row-0 entries in _count_cell.

    d = gcd(n, p - 1) when r >= 2 and every deforming and frozen monomial
    is invariant under the diagonal group; otherwise 1, the full route.
    """
    group = build_group(spec.n, spec.r)
    if spec.r < 2 or not all(is_invariant(e, group)
                             for e in spec.deforming + (spec.frozen,)):
        return 1
    return gcd(spec.n, p - 1)


@lru_cache(maxsize=None)
def _row0_values(p: int, d: int) -> tuple:
    """0 and the coset representatives g^0 .. g^((p-1)/d - 1) of
    F_p^*/mu_d for a primitive root g; all of F_p when d = 1."""
    if d == 1:
        return tuple(range(p))
    m = p - 1
    primes = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    g = next(g for g in range(2, p)
             if all(pow(g, m // q, p) != 1 for q in primes))
    return (0,) + tuple(pow(g, i, p) for i in range(m // d))


def _count_cell(cell, r, n, p, deforming, frozen, tables, hist, d):
    """Add the (sum, product) pairs of every point of one cell to hist.

    Each r x r minor is linear in the last echelon row, so once the outer
    entries are fixed, a Pluecker coordinate is an affine form
    k0 + k1*x1 + k2*x2 in the inner entries, and the points are counted
    one grid of at most p^2 inner values at a time.

    Each row-0 free entry runs over 0 and the coset representatives of
    F_p^*/mu_d (d = _orbit_order), and the leading free entry of the last
    row over 0 and those of F_p^*/mu_g', g' = gcd(r, d); every other entry
    runs over all of F_p.  An assignment with k nonzero row-0 entries and a
    nonzero leading last-row entry stands for its orbit of d^k * g' points,
    which share its pairs (d^k with a zero one).  When that entry is the
    first inner entry x1, the x1 = 0 block of each grid comes first and
    counts d^k times, the rest d^k * g' times.  The counts are kept per
    weight and folded into hist once the cell is done.
    """
    outer, inner = _split_cell(cell, r)
    piv = cell.pivots[-1]
    col_sets = [tuple(i - 1 for i in idx) for idx in plucker_indices(r, n)]
    # cofactor expansion along the last row, which vanishes left of its
    # pivot: (sign, column, complementary columns) per coordinate
    expansion = [[(-1 if (r - 1 + k) % 2 else 1, c, cols[:k] + cols[k + 1:])
                  for k, c in enumerate(cols) if c >= piv]
                 for cols in col_sets]
    complements = {comp for terms in expansion for _, _, comp in terms}
    powers = {qe for mono in deforming + [frozen] for qe in mono}
    grid = p ** len(inner)
    upper = [[0] * n for _ in range(r - 1)]
    for i, c in enumerate(cell.pivots[:-1]):
        upper[i][c] = 1
    above = sum(1 for i, _ in outer if i < r - 1)  # outer is row-major
    row0 = sum(1 for i, _ in outer[:above] if i == 0)
    # no pivot lies right of piv, so the last row from piv on is its pivot
    # entry 1, then its outer entries, then the inner block
    width = n - piv - len(inner)
    ranges = [_row0_values(p, d)] * row0 + [range(p)] * (len(outer) - row0)
    g = gcd(r, d)  # the order of the scalings of the last row
    lead_outer = above < len(outer)
    xs = None  # the range of x1 when it leads the last row
    if lead_outer:
        ranges[above] = _row0_values(p, g)
    elif inner and g > 1:
        xs = _row0_values(p, g)
    block = grid // p if xs else grid  # the x1 = 0 pairs of a grid
    by_weight = defaultdict(Counter)
    upper_values = None
    for outer_values in product(*ranges):
        # the entries above the last row vary slowest: their minors are
        # recomputed only when they change
        if outer_values[:above] != upper_values:
            upper_values = outer_values[:above]
            for (i, j), v in zip(outer, upper_values):
                upper[i][j] = v
            minor = {comp: _det_mod(upper, comp, p) for comp in complements}
            forms = []  # (cofactors left of the inner block, slopes or ())
            for terms in expansion:
                coeffs = [0] * (n - piv)
                for sign, c, comp in terms:
                    coeffs[c - piv] = sign * minor[comp] % p
                slopes = coeffs[width:]
                forms.append((coeffs[:width], slopes if any(slopes) else ()))
            weight = d ** (row0 - upper_values[:row0].count(0))
        last = (1,) + outer_values[above:]
        w = weight * g if lead_outer and last[1] else weight
        values = {}  # p_q^e: an int if constant on the grid, else a vector
        for q, e in powers:
            cofactors, slopes = forms[q]
            k0 = sum(map(mul, cofactors, last)) % p
            if not slopes:
                values[q, e] = pow(k0, e, p)
            elif len(slopes) == 1:
                values[q, e] = tables.rows(slopes[0], e, xs)[k0]
            else:
                values[q, e] = tables.plane(k0, *slopes, e, xs)
        s, s_terms = 0, []
        for mono in deforming:
            const, terms = _monomial(mono, values, p)
            if terms is None:
                s += const
            else:
                s_terms.append(terms)
        s %= p
        f, f_terms = _monomial(frozen, values, p)
        if s_terms:
            s = map(mod, reduce(partial(map, add), s_terms, repeat(s)),
                    repeat(p))
        if f_terms is not None:
            f = map(mod, f_terms, repeat(p))
        if isinstance(s, int) and isinstance(f, int):
            by_weight[w][s, f] += grid
        else:
            pairs = zip(repeat(s) if isinstance(s, int) else s,
                        repeat(f) if isinstance(f, int) else f)
            by_weight[w].update(islice(pairs, block))
            if xs:
                by_weight[w * g].update(pairs)
    for w, counts in by_weight.items():
        for key, m in counts.items():
            hist[key] += w * m


def _sparse_monomials(spec: PencilSpec) -> tuple:
    """(deforming, frozen) as ((variable, exponent), ...) over the nonzero
    exponents."""
    deforming = [tuple((i, e) for i, e in enumerate(mono) if e)
                 for mono in spec.deforming]
    frozen = tuple((i, e) for i, e in enumerate(spec.frozen) if e)
    return deforming, frozen


@lru_cache(maxsize=32)
def _pencil_histogram(spec: PencilSpec, p: int) -> dict:
    """Histogram of (deforming sum, frozen product) pairs over all points,
    counted one Schubert cell at a time by _count_cell.  Cached on
    (pencil, p) alone; callers check the enumeration size first."""
    deforming, frozen = _sparse_monomials(spec)
    d = _orbit_order(spec, p)
    tables = _LineTables(p)
    hist = Counter()
    for cell in enumerate_cells(spec.r, spec.n):
        _count_cell(cell, spec.r, spec.n, p, deforming, frozen, tables,
                    hist, d)
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
    _check_enumeration_size(spec.r, spec.n, p, force)
    hist = _pencil_histogram(spec, p)
    count = sum(m for (s, f), m in hist.items() if (t * s + f) % p == 0)
    return PointCountRecord(p=p, t=t, count=count, residue=count % p)


def count_table(spec: PencilSpec, p: int, force: bool = False) -> list:
    """Records for every t = 1..p-1, from one pass over the histogram: a
    pair (s, f) with s != 0 counts only at t = -f/s, and (0, 0) at every
    t."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_enumeration_size(spec.r, spec.n, p, force)
    by_t, everywhere = [0] * p, 0
    for (s, f), m in _pencil_histogram(spec, p).items():
        if s:
            by_t[-f * pow(s, -1, p) % p] += m
        elif f == 0:
            everywhere += m
    return [PointCountRecord(p=p, t=t, count=c + everywhere,
                             residue=(c + everywhere) % p)
            for t, c in enumerate(by_t) if t]


def records_to_csv(records) -> str:
    lines = ["t,count,residue"]
    lines += [f"{rec.t},{rec.count},{rec.residue}" for rec in records]
    return "\n".join(lines) + "\n"
