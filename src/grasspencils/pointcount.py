"""Brute-force point counts of pencil members over prime fields.

The Grassmannian G(r,n) over F_p is enumerated once per (pencil, p) through
its Schubert cells: each cell is a reduced-row-echelon template with a fixed
pivot column set, and every point arises from exactly one assignment of the
free entries.  At each point the r x r minors are the Pluecker coordinates,
in the package-wide sign convention, and the pair (deforming sum, frozen
product) is recorded; the histogram of those pairs answers the count for
every parameter value t without re-enumerating.

The histogram is built one cell at a time.  Every minor is linear in each
echelon row, so the cell's widest row lends up to three trailing free
entries to an inner block (a third only while the grid stays within
GRID_CAP points), and one loop runs over the other, outer, entries: with
them fixed, each Pluecker coordinate is an affine form in the inner
entries, whose powers over the grid come from memoized line tables of
(b + s*x)^e, each table row a rotation of row 0.  The products, sums and
(sum, product) counts over the grid run in map, zip and Counter.update.
histogram_work gives the passes and grid points of that loop by arithmetic
alone; count_points and count_table refuse past ENUMERATION_GUARD grid
points unless forced.

The free entries are visited one orbit of a diagonal group at a time.
Let d = gcd(n, p - 1); over F_p the lattice L of symmetry.py is
L(F_p) = {z in mu_d^n : prod(z)^r = 1}.  Each z in it maps each cell to
itself, scaling the free entry (i, j) by z_j / z_{P_i} for the pivot P_i
of row i.  The echelon renormalization multiplies a degree-n monomial of
content w by z^w * det(z_pivots)^(-n) = (prod z)^c for an L-invariant one
(w = c(1,...,1) mod n with gcd(r, n) | c), and that is 1, so the pairs do
not change along an orbit.  Two kinds of z are used:

- prod(z) = 1, with z_{P_0} = 1 and z_{P_1} absorbing the product: the
  row-0 free columns carry independent copies of mu_d, so each row-0
  entry may run over 0 and the coset representatives of F_p^*/mu_d, a
  nonzero one counting d times.  Leaving a column unreduced is exact too.
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

iter_plucker_points and count_zeros keep the per-point route, and its
guard on points, the reference for checking the histogram against direct
substitution.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import (chain, combinations, compress, islice, permutations,
                       product, repeat)
from math import gcd, prod
from operator import mod, mul

from .fields import is_prime
from .grassmann import PencilSpec, _check_rn, plucker_indices, sort_with_sign
from .linalg import ResourceLimitError
from .symmetry import build_group, is_invariant

ENUMERATION_GUARD = 10 ** 9  # points, or grid points, to refuse unforced


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


def _check_size(total, what, force):
    """Refuse past ENUMERATION_GUARD unless forced."""
    if total > ENUMERATION_GUARD and not force:
        raise ResourceLimitError(
            f"{what} {total}, more than the 10^9 guard; pass force=True "
            "(tables --force) to go on anyway")


def iter_plucker_points(r: int, n: int, p: int, force: bool = False):
    """Yield the Pluecker coordinate tuple of every F_p-point, once each."""
    _check_size(grassmannian_count(r, n, p), f"points of G({r},{n})(F_{p}):",
                force)
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


GRID_CAP = 4096  # grid points a third inner entry may lead to


def _split_cell(cell: SchubertCell, r: int, p: int, d: int) -> tuple:
    """How _count_cell walks one cell: (inner row, outer entries, their
    orbit orders, inner columns, orbit order of the first inner entry,
    points of the inner grid).

    An entry of orbit order k runs over 0 and the coset representatives of
    F_p^*/mu_k, 1 + (p - 1)/k values, and a nonzero value counts k times:
    k = d in row 0, gcd(r, d) for the leading free entry of the last row,
    1 elsewhere.  Inside the inner block only the first entry keeps its
    order.  The block is the trailing two free entries of one row, or three
    while the grid stays within GRID_CAP points, in the row that leaves the
    fewest outer assignments, ties going to the last row.  The outer
    entries are the other rows' free entries, row-major, then the inner
    row's own, so that the other rows vary slowest.
    """
    free = cell.free_positions
    order = {e: d if e[0] == 0 else 1 for e in free}
    lead = next((e for e in free if e[0] == r - 1 > 0), None)
    if lead:
        order[lead] = gcd(r, d)
    row, inner, widest = r - 1, (), 1
    for i in reversed(range(r)):
        entries = tuple(e for e in free if e[0] == i)
        m = min(2, len(entries))
        if m == 2 < len(entries) and (
                1 + (p - 1) // order[entries[-3]]) * p * p <= GRID_CAP:
            m = 3
        block = entries[len(entries) - m:]
        reduced = prod(1 + (p - 1) // order[e] for e in block)
        if reduced > widest:
            row, inner, widest = i, block, reduced
    outer = tuple(e for e in free if e[0] != row) + tuple(
        e for e in free if e[0] == row and e not in inner)
    k1 = order[inner[0]] if inner else 1
    return (row, outer, tuple(map(order.get, outer)),
            tuple(j for _, j in inner), k1,
            (1 + (p - 1) // k1) * p ** (len(inner) - 1) if inner else 1)


@lru_cache(maxsize=32)
def histogram_work(spec: PencilSpec, p: int) -> tuple:
    """(passes, grid points) of _pencil_histogram(spec, p): the outer
    assignments _count_cell visits over every cell, and the inner grid
    points they cover.  Arithmetic over the orbit-reduced ranges alone."""
    d = _orbit_order(spec, p)
    passes = points = 0
    for cell in enumerate_cells(spec.r, spec.n):
        *_, orders, _, _, grid = _split_cell(cell, spec.r, p, d)
        outer = prod(1 + (p - 1) // o for o in orders)
        passes += outer
        points += outer * grid
    return passes, points


def _check_work(spec: PencilSpec, p: int, force: bool):
    """Refuse a histogram past ENUMERATION_GUARD grid points unforced."""
    _check_size(histogram_work(spec, p)[1], "grid points of the histogram "
                f"on G({spec.r},{spec.n})(F_{p}):", force)


class _LineTables:
    """Value vectors of powers of affine forms over F_p.

    rows(s, e, xs)[b] lists (b + s*x)^e mod p for x in xs (default F_p),
    memoized per (s, e, xs).  Over F_p, row b is row 0 rotated by b/s, so
    a table takes p pow calls and p slices.  powers(k0, slopes, es, xs)
    gives (e, values of (k0 + s1*x1 + s2*x2 + ...)^e) for each e: an int
    if every slope is 0, else a vector over x1 in xs and the later entries
    in F_p, x1 major, chained from the rows of the last entry.
    """

    def __init__(self, p: int):
        self.p = p
        self._rows = {}

    def rows(self, s: int, e: int, xs=None) -> list:
        key = (s, e, xs)
        if key not in self._rows:
            p = self.p
            if s:
                twice = tuple(pow(s * x % p, e, p) for x in range(p)) * 2
                step = pow(s, -1, p)
                table = [twice[c:c + p]
                         for c in (b * step % p for b in range(p))]
            else:
                table = [(pow(b, e, p),) * p for b in range(p)]
            if xs:
                table = [tuple(map(row.__getitem__, xs)) for row in table]
            self._rows[key] = table
        return self._rows[key]

    def powers(self, k0: int, slopes: tuple, es, xs=None) -> list:
        if not any(slopes):
            return [(e, pow(k0, e, self.p)) for e in es]
        bases, last = (k0,), len(slopes) - 1  # the form without its last term
        for i, s in enumerate(slopes[:last]):
            bases = tuple(chain.from_iterable(
                map(self.rows(s, 1, None if i else xs).__getitem__, bases)))
        return [(e, tuple(chain.from_iterable(map(self.rows(
            slopes[last], e, None if last else xs).__getitem__, bases))))
                for e in es]


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

    Each r x r minor is linear in every echelon row, so once the entries
    outside the inner block of _split_cell are fixed, a Pluecker
    coordinate is an affine form k0 + s1*x1 + ... in the inner entries,
    and the points are counted one grid at a time.  The form comes from
    the cofactor expansion along the inner row, which vanishes outside its
    pivot and free columns: (r-1)-minors of the other rows.  Those rows
    vary slowest, so their minors are taken once per assignment of their
    entries, and only the minors those entries enter.  Each coordinate in
    use takes its form once per pass and all its powers from it, and keeps
    its last power vectors while the form is unchanged.

    An assignment whose nonzero outer entries have orbit orders k_1 .. k_m
    stands for its orbit of k_1 * ... * k_m points, which share its pairs.
    When the first inner entry x1 has order k > 1, the x1 = 0 block of
    each grid comes first and counts once, the rest k times.  The counts
    are kept per weight and folded into hist once the cell is done.
    """
    row, outer, orders, inner, k1, grid = _split_cell(cell, r, p, d)
    slow = sum(1 for i, _ in outer if i != row)
    cols = (cell.pivots[row],) + tuple(j for _, j in outer[slow:]) + inner
    width = len(cols) - len(inner)
    at = {c: k for k, c in enumerate(cols)}
    exponents = defaultdict(set)  # the powers each coordinate in use takes
    for q, e in chain(frozen, *deforming):
        exponents[q].add(e)
    others = [[0] * n for _ in range(r - 1)]
    for i, c in enumerate(cell.pivots[:row] + cell.pivots[row + 1:]):
        others[i][c] = 1
    slots = [(i - (i > row), j) for i, j in outer[:slow]]
    # a minor of the other rows is 0 on a column they leave zero, and 1 on
    # their pivot columns alone: only those with a varying column are taken
    varying = {j for _, j in outer[:slow]}
    live = varying.union(cell.pivots[:row], cell.pivots[row + 1:])
    # (position in cols, sign, complementary columns) per coordinate
    expansion = {}
    for q in exponents:
        qcols = tuple(i - 1 for i in plucker_indices(r, n)[q])
        expansion[q] = [(at[c], -1 if (row + k) % 2 else 1, comp)
                        for k, c in enumerate(qcols) if c in at
                        for comp in [qcols[:k] + qcols[k + 1:]]
                        if live.issuperset(comp)]
    minor = {comp: 1 for terms in expansion.values() for _, _, comp in terms}
    varying_comps = [comp for comp in minor if varying.intersection(comp)]
    ranges = [_row0_values(p, k) for k in orders]
    xs = _row0_values(p, k1) if k1 > 1 else None
    block = grid // len(xs) if xs else grid  # the x1 = 0 pairs of a grid
    by_weight = defaultdict(Counter)
    values, last_form = {}, {}  # p_q^e: an int if constant, else a vector
    for slow_values in product(*ranges[:slow]):
        for (i, j), v in zip(slots, slow_values):
            others[i][j] = v
        for comp in varying_comps:
            minor[comp] = _det_mod(others, comp, p)
        forms = []  # (coordinate, cofactors left of the block, slopes)
        for q, terms in expansion.items():
            coeffs = [0] * len(cols)
            for k, sign, comp in terms:
                coeffs[k] = sign * minor[comp] % p
            forms.append((q, coeffs[:width], tuple(coeffs[width:])))
        for fast_values in product(*ranges[slow:]):
            w = prod(compress(orders, slow_values + fast_values))
            head = (1,) + fast_values
            for q, cofactors, slopes in forms:
                form = (sum(map(mul, cofactors, head)) % p, slopes)
                if last_form.get(q) != form:
                    last_form[q] = form
                    for e, v in tables.powers(*form, exponents[q], xs):
                        values[q, e] = v
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
                s = map(mod, map(sum, zip(repeat(s), *s_terms)), repeat(p))
            if f_terms is not None:
                f = map(mod, f_terms, repeat(p))
            if isinstance(s, int) and isinstance(f, int):
                by_weight[w][s, f] += block
                if xs:
                    by_weight[w * k1][s, f] += grid - block
            else:
                pairs = zip(repeat(s) if isinstance(s, int) else s,
                            repeat(f) if isinstance(f, int) else f)
                by_weight[w].update(islice(pairs, block))
                if xs:
                    by_weight[w * k1].update(pairs)
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
    _check_work(spec, p, force)
    hist = _pencil_histogram(spec, p)
    count = sum(m for (s, f), m in hist.items() if (t * s + f) % p == 0)
    return PointCountRecord(p=p, t=t, count=count, residue=count % p)


def count_table(spec: PencilSpec, p: int, force: bool = False) -> list:
    """Records for every t = 1..p-1, from one pass over the histogram: a
    pair (s, f) with s != 0 counts only at t = -f/s, and (0, 0) at every
    t."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_work(spec, p, force)
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
