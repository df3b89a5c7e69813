"""Exact linear algebra: echelon row bases over Q and F_p, Smith form.

Every rank the package reports comes from row_basis(ncols, field), one
sparse echelon kernel for both fields.  Rows are {column: value} dicts and
the stored rows are kept in a dict keyed by pivot column, where the pivot
of a row is its smallest column and carries the entry 1.  Reducing a vector
repeatedly eliminates the smallest of its columns that is a stored pivot;
that only creates larger columns, so each pivot is met at most once.
Ranks, quotient dimensions and greedy rank extensions are counts of the
rows a basis accepts.  Scalars are Fractions over Q and int residues in
[0, p) over F_p (Python ints, so any prime works).

smith_invariant_factors gives the invariant factors of small integer
matrices (abelian group structure).
"""

from heapq import heapify, heappop, heappush
from math import gcd

# Cap on the entries stored by one basis.  tracemalloc put the stored rows
# of the arrow slices of (2,4), (2,5) and (2,6) in degree n at <= 130 bytes
# per entry over Q and <= 93 over F_p (Python 3.11), so 5e6 entries stay
# near 650 MB, under 1 GiB with room for larger Fractions.
_ENTRY_LIMIT = 5_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard size guard."""


class _RowBasis:
    """Incremental echelon row set on sparse {column: value} rows."""

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = {}    # pivot column -> row, pivot entry 1
        self.entries = 0  # stored nonzeros, bounded by _ENTRY_LIMIT

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row_dict):
        """Residue of a row against the stored rows, as {column: value}."""
        coerce, p = self.field.coerce, self.field.modulus
        res = {}
        for c, v in row_dict.items():
            v = coerce(v)
            if v:
                res[c] = v
        rows = self.rows
        heap = [c for c in res if c in rows]
        heapify(heap)
        while heap:
            pc = heappop(heap)
            f = res.get(pc)
            if not f:
                continue  # cancelled, or a repeated push
            for c, v in rows[pc].items():
                new = res.get(c, 0) - f * v
                if p:
                    new %= p
                if new:
                    if c not in res and c in rows:
                        heappush(heap, c)
                    res[c] = new
                else:
                    del res[c]
        return res

    def add_row(self, row_dict) -> bool:
        res = self.reduce(row_dict)
        if not res:
            return False
        if self.entries + len(res) > _ENTRY_LIMIT:
            raise ResourceLimitError(
                f"echelon basis over {self.field.name}: {self.entries} "
                f"stored + {len(res)} new entries exceed the "
                f"{_ENTRY_LIMIT} entry limit")
        pc = min(res)
        inv, coerce = self.field.inv(res[pc]), self.field.coerce
        self.rows[pc] = {c: coerce(v * inv) for c, v in res.items()}
        self.entries += len(res)
        return True

    def add_rows(self, row_dicts) -> int:
        return sum(1 for r in row_dicts if self.add_row(r))

    def contains(self, row_dict) -> bool:
        return not self.reduce(row_dict)


def row_basis(ncols, field):
    """Empty echelon row set on ncols columns over field (Q or F_p)."""
    return _RowBasis(ncols, field)


# -- Smith normal form -------------------------------------------------


def smith_invariant_factors(rows) -> list:
    """Nontrivial invariant factors d1 | d2 | ... of an integer matrix.

    Small-matrix workhorse for abelian group structure; entries are Python
    ints, so there is no overflow to worry about.
    """
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return []
    m, n = len(a), len(a[0])
    diag = []
    k = 0
    while k < min(m, n):
        # locate the smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        while True:
            # clear column k then row k by floor-division steps
            done = True
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    for j in range(k, n):
                        a[i][j] -= q * a[k][j]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        done = False
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    for i in range(k, m):
                        a[i][j] -= q * a[i][k]
                    if a[k][j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        done = False
            if done:
                break
        piv = abs(a[k][k])
        # force divisibility: fold in any entry the pivot does not divide
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(k, n):
                a[k][j] += a[offender][j]
            continue
        diag.append(piv)
        k += 1
    # normalize the chain d1 | d2 | ... via gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return [d for d in diag if d != 1]
