"""Brute-force point counts of pencil members over prime fields.

The Grassmannian G(r,n) over F_p is enumerated once per (pencil, p) through
its Schubert cells: each cell is a reduced-row-echelon template with a fixed
pivot column set, and every point arises from exactly one assignment of the
free entries.  At each point the r x r minors are the Pluecker coordinates,
in the package-wide sign convention, and the pair (deforming sum, frozen
product) is recorded; the histogram of those pairs answers the count for
every parameter value t without re-enumerating.

The histogram is built one cell at a time, from the cell's polynomials: a
minor is at most r! signed products of free entries, so the deforming sum
S and the frozen product F are integer polynomials in the entries,
expanded once per (pencil, cell) whatever p is.  In row-major order the
trailing entries whose orbit-reduced grid holds at most LANE_CAP points
are inner, the rest outer, and each pass is one assignment of the outer
entries.  S and F are evaluated over the whole inner grid at once, as
Python ints of 64-bit lanes: a power of an inner entry is a scalar
multiple, vectors of monomials are joined with to_bytes/from_bytes, and a
packed Barrett step, its constants taken from an exact bound on the lanes
so that no lane carries into the next, reduces every lane mod p.  The
keys (s*p + f)*C + class, the class marking which orbit-reduced inner
entries are nonzero, are counted by one Counter over the lanes'
memoryview.  histogram_work gives the passes and grid points (lanes) by
arithmetic alone; count_points and count_table refuse past
ENUMERATION_GUARD grid points unless forced, and refuse a prime whose
sums or keys overflow the lanes before any cell is counted.

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

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, permutations, product
from math import gcd, prod
from operator import mul

from .fields import PrimeField, is_prime
from .grassmann import PencilSpec, _check_rn, plucker_indices, sort_with_sign
from .linalg import ResourceLimitError
from .symmetry import is_invariant_pencil

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
    if poly.field != PrimeField(p):
        raise ValueError(f"polynomial over {poly.field.name}, not GF({p})")
    count = 0
    for coords in iter_plucker_points(r, n, p, force=force):
        if poly.evaluate(coords) == 0:
            count += 1
    return count


LANE_CAP = 4096  # points of one packed inner grid
ORDER = sys.byteorder  # of the lanes, as memoryview.cast("Q") reads them


def _split_cell(cell: SchubertCell, r: int, p: int, d: int) -> tuple:
    """(orbit order of each free entry, number of inner entries, lanes).

    An entry of orbit order k runs over 0 and the coset representatives of
    F_p^*/mu_k, 1 + (p - 1)/k values, and a nonzero value counts k times:
    k = d in row 0, gcd(r, d) for the leading free entry of the last row,
    1 elsewhere.  The inner entries are the trailing ones, row-major, whose
    grid of reduced values holds at most LANE_CAP points."""
    free = cell.free_positions
    orders = [d if i == 0 else 1 for i, _ in free]
    lead = next((k for k, (i, _) in enumerate(free) if i == r - 1 > 0), None)
    if lead is not None:
        orders[lead] = gcd(r, d)
    inner, lanes = 0, 1
    for k in reversed(orders):
        size = 1 + (p - 1) // k
        if lanes * size > LANE_CAP:
            break
        inner, lanes = inner + 1, lanes * size
    return tuple(orders), inner, lanes


@lru_cache(maxsize=32)
def histogram_work(spec: PencilSpec, p: int) -> tuple:
    """(passes, grid points) of _pencil_histogram(spec, p): the outer
    assignments _count_cell visits over every cell, and the lanes they
    cover.  Arithmetic over the orbit-reduced ranges alone."""
    d = _orbit_order(spec, p)
    passes = points = 0
    for cell in enumerate_cells(spec.r, spec.n):
        orders, inner, lanes = _split_cell(cell, spec.r, p, d)
        outer = prod(1 + (p - 1) // k for k in orders[:len(orders) - inner])
        passes += outer
        points += outer * lanes
    return passes, points


def _check_work(spec: PencilSpec, p: int, force: bool):
    """Refuse a histogram past ENUMERATION_GUARD grid points unforced, and
    a prime whose sums or keys do not fit the 64-bit lanes."""
    _check_size(histogram_work(spec, p)[1], "grid points of the histogram "
                f"on G({spec.r},{spec.n})(F_{p}):", force)
    terms = max(len(poly) for cell in enumerate_cells(spec.r, spec.n)
                for poly in _cell_polynomials(spec, cell)[1:])
    _reducer(terms * (p - 1) ** 2 + 1, p, 1)  # raises if no constants fit
    if p * p << (spec.n - spec.r + 1) > 1 << 64:
        raise ResourceLimitError(f"keys of F_{p} do not fit 64-bit lanes")


@lru_cache(maxsize=1024)
def _cell_polynomials(spec: PencilSpec, cell: SchubertCell) -> tuple:
    """(width, S, F): the deforming sum and frozen product as integer
    polynomials {exponent: coefficient} in the cell's free entries.  An
    exponent packs one width-bit field per entry, the first entry highest,
    so that the inner entries are its low bits and a product of monomials
    is a sum of ints."""
    r, n, dim = spec.r, spec.n, cell.dimension
    width = n.bit_length()  # an entry's degree is at most n
    entry = {(i, c): 0 for i, c in enumerate(cell.pivots)}
    for k, pos in enumerate(cell.free_positions):
        entry[pos] = 1 << width * (dim - 1 - k)
    coords = []
    for idx in plucker_indices(r, n):
        minor = Counter()
        for perm, sign in _signed_permutations(r):
            factors = [entry.get((i, idx[j] - 1)) for i, j in enumerate(perm)]
            if None not in factors:
                minor[sum(factors)] += sign
        coords.append({e: c for e, c in minor.items() if c})
    powers = {}

    def monomial(mono):
        poly = {0: 1}
        for q, e in enumerate(mono):
            if e:
                chain = powers.setdefault(q, [coords[q]])
                while len(chain) < e:
                    chain.append(_times(chain[-1], coords[q]))
                poly = _times(poly, chain[e - 1])
        return poly

    total = Counter()
    for mono in spec.deforming:
        total.update(monomial(mono))
    return (width, {e: c for e, c in total.items() if c},
            {e: c for e, c in monomial(spec.frozen).items() if c})


def _times(f: dict, g: dict) -> dict:
    out = defaultdict(int)
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] += x * y
    return out


def _reducer(bound: int, p: int, lanes: int):
    """x -> x mod p on each of `lanes` 64-bit lanes of a packed int whose
    lanes lie below bound: with m = ceil(2^k / p) and e = m*p - 2^k,
    floor(x*m / 2^k) = floor(x/p) while (bound - 1)*e < 2^k, which for odd
    p needs 2^k >= bound, and x*m stays in its lane while
    (bound - 1)*m < 2^64."""
    if bound <= p:
        return lambda x: x
    for k in range((bound - 1).bit_length(), 64):
        m = -(-(1 << k) // p)
        if (bound - 1) * (m * p - (1 << k)) < 1 << k and (
                bound - 1) * m < 1 << 64:
            mask = int.from_bytes(((1 << 64 - k) - 1).to_bytes(8, ORDER)
                                  * lanes, ORDER)
            return lambda x: x - p * (x * m >> k & mask)
    raise ResourceLimitError(f"sums of F_{p} do not fit 64-bit lanes")


def _grid_vectors(monos, values: list, width: int, p: int) -> dict:
    """{b: packed y^b mod p} over the grid of values[0] x values[1] x ...,
    the first entry slowest: a vector over entries j.. joins the scalar
    multiples v^e of the vector over entries j+1.. for v in values[j].  A
    lane is a product of residues, reduced only once the next factor could
    take it past 2^31, and at the end."""
    level, lanes, bound = {0: 1}, 1, 1
    for j in reversed(range(len(values))):
        below, size = width * (len(values) - 1 - j), len(values[j])
        bound *= p - 1
        keep = j > 0 and bound * (p - 1) < 1 << 31
        reduce_ = (lambda x: x) if keep else _reducer(bound + 1, p,
                                                      lanes * size)
        upper = {b & ((1 << below + width) - 1) for b in monos}
        nbytes, nxt = 8 * lanes, {}
        for b in upper:
            e, sub = b >> below, level[b & ((1 << below) - 1)]
            nxt[b] = reduce_(int.from_bytes(b"".join(
                (pow(v, e, p) * sub).to_bytes(nbytes, ORDER)
                for v in values[j]) if e else sub.to_bytes(nbytes, ORDER)
                * size, ORDER))
        level, lanes, bound = nxt, lanes * size, bound if keep else p - 1
    return level


def _orbit_order(spec: PencilSpec, p: int) -> int:
    """The d whose cosets of mu_d weight the row-0 entries in _count_cell.

    d = gcd(n, p - 1) when r >= 2 and every deforming and frozen monomial
    is invariant under the diagonal group; otherwise 1, the full route.
    """
    if spec.r < 2 or not is_invariant_pencil(spec):
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


def _count_cell(cell, spec, p, d, hist):
    """Add the (sum, product) pairs of every point of one cell to hist.

    The last outer entry x runs fastest: for each assignment of the slower
    ones, S and F become sums of x^e * W_e over the inner grid, where each
    W_e sums c * y^b over the inner monomials y^b, c a polynomial in the
    slower entries.  One pass is one value of x: it adds up those W_e
    times the powers of x, and _reducer brings every lane below p, since a
    sum of N products of two residues stays below N*(p-1)^2.  The last
    outer entry is a single 1 when every entry is inner.

    A pass whose nonzero outer entries have orbit orders k_1 .. k_m stands
    for its orbit of k_1 * ... * k_m points, which share its pairs, and a
    lane whose class marks nonzero inner entries of orders l_1 .. l_j
    stands for l_1 * ... * l_j of them.  The keys are counted per outer
    weight and folded into hist once the cell is done.
    """
    width, s_poly, f_poly = _cell_polynomials(spec, cell)
    orders, inner, lanes = _split_cell(cell, spec.r, p, d)
    values = [_row0_values(p, k) for k in orders]
    nout, shift, field = len(values) - inner, width * inner, (1 << width) - 1
    nslow = max(nout - 1, 0)
    fast, k_fast = (values[nslow], orders[nslow]) if nout else ((1,), 1)
    slow_monos, plans = {}, []
    for poly in (s_poly, f_poly):
        groups = defaultdict(list)  # (e, y^b) -> [(slow monomial, c)]
        for e, c in poly.items():
            if c % p:
                a = slow_monos.setdefault(e >> shift + width, len(slow_monos))
                groups[e >> shift & field, e & (1 << shift) - 1].append(
                    (a, c % p))
        plans.append(groups)
    vectors = _grid_vectors({b for g in plans for _, b in g}, values[nout:],
                            width, p)
    plans = [[(e, vectors[b], terms) for (e, b), terms in g.items()]
             for g in plans]
    exps = [sorted({e for e, _, _ in plan}) for plan in plans]
    w_reds = [_reducer(len(plan) * (p - 1) ** 2 + 1, p, lanes)
              for plan in plans]
    s_red, f_red = (_reducer(len(ex) * (p - 1) ** 2 + 1, p, lanes)
                    for ex in exps)
    s_pows, f_pows = ([[pow(v, e, p) for e in ex] for v in fast]
                      for ex in exps)
    # the class of a lane: bit j set where the j-th inner entry of order
    # > 1 is nonzero, a point standing for the product of those orders
    classes, weights, post = 0, [1], lanes
    for k, vals in zip(orders[nout:], values[nout:]):
        post //= len(vals)
        if k > 1:
            ones = (1).to_bytes(8, ORDER) * (post * (len(vals) - 1))
            classes += len(weights) * int.from_bytes(
                (bytes(8 * post) + ones) * (lanes // post // len(vals)),
                ORDER)
            weights += [w * k for w in weights]
    nclass, nbytes = len(weights), 8 * lanes
    monos = [[(i, a >> width * (nslow - 1 - i) & field) for i in range(nslow)
              if a >> width * (nslow - 1 - i) & field] for a in slow_monos]
    by_weight = defaultdict(Counter)
    for point in product(*values[:nslow]):
        at = [prod(pow(point[i], e, p) for i, e in mono) % p
              for mono in monos]
        ws = []
        for plan, ex, red in zip(plans, exps, w_reds):
            w = dict.fromkeys(ex, 0)
            for e, vec, terms in plan:
                c = sum(at[a] * k for a, k in terms) % p
                if c:
                    w[e] += c * vec
            ws.append([red(w[e]) for e in ex])
        weight = prod(compress(orders, point))
        for v, ps, pf in zip(fast, s_pows, f_pows):
            key = (s_red(sum(map(mul, ps, ws[0]))) * p
                   + f_red(sum(map(mul, pf, ws[1])))) * nclass + classes
            by_weight[weight * k_fast if v else weight].update(
                memoryview(key.to_bytes(nbytes, ORDER)).cast("Q"))
    for w, counts in by_weight.items():
        for key, m in counts.items():
            sf, c = divmod(key, nclass)
            hist[divmod(sf, p)] += w * weights[c] * m


@lru_cache(maxsize=32)
def _pencil_histogram(spec: PencilSpec, p: int) -> dict:
    """Histogram of (deforming sum, frozen product) pairs over all points,
    counted one Schubert cell at a time by _count_cell.  Cached on
    (pencil, p) alone; callers check the enumeration size first."""
    d = _orbit_order(spec, p)
    hist = Counter()
    for cell in enumerate_cells(spec.r, spec.n):
        _count_cell(cell, spec, p, d, hist)
    return hist


def count_points(spec: PencilSpec, p: int, t: int,
                 force: bool = False) -> PointCountRecord:
    """Points of the pencil member at parameter t over F_p: the record of
    count_table for t mod p.

    t = 0 is rejected: it does not give a smooth pencil member.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = t % p
    if t == 0:
        raise ValueError("t = 0 is excluded")
    return count_table(spec, p, force)[t - 1]


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
