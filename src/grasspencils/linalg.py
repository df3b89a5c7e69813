"""Exact linear algebra: echelon row bases over Q and F_p, Smith form.

Every rank the package reports comes from row_basis(ncols, field), which
keeps an echelon set of rows: RationalRowBasis stores sparse Fraction rows
over Q, ModRowBasis stores dense int64 numpy rows over a prime field
((p-1)^2 must fit in int64, so p < 2^31).  Each stored row vanishes on the
pivot columns of all rows stored before it, so reducing a vector is a
single in-order pass; ranks, quotient dimensions and greedy rank
extensions are counts of the rows a basis accepts.

smith_invariant_factors gives the invariant factors of small integer
matrices (abelian group structure).
"""

from fractions import Fraction
from math import gcd

import numpy as np

_MOD_LIMIT = 1 << 31  # int64 safety: factors and entries below 2^31
_DENSE_BYTES_LIMIT = 1 << 30  # largest dense F_p row set: rows x cols x 8


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard size guard."""


class ModRowBasis:
    """Incremental echelon row set over F_p on dense int64 vectors."""

    def __init__(self, ncols, p):
        if p >= _MOD_LIMIT:
            raise ResourceLimitError(
                f"modulus {p} too large for the int64 elimination kernel")
        self.ncols = ncols
        self.p = p
        self.rows = []    # pivot-normalized np vectors
        self.pivots = []  # pivot column of each stored row

    @property
    def rank(self):
        return len(self.rows)

    def _dense(self, row_dicts):
        """{column: value} rows as a dense int64 array of residues mod p.

        Stored rows are dense too, so the memory guard counts them with the
        incoming ones and refuses before anything is allocated.
        """
        nbytes = (self.rank + len(row_dicts)) * self.ncols * 8
        if nbytes > _DENSE_BYTES_LIMIT:
            raise ResourceLimitError(
                f"dense elimination over GF({self.p}): {self.rank} stored "
                f"+ {len(row_dicts)} new rows x {self.ncols} columns need "
                f"{nbytes / 2 ** 30:.1f} GiB, above the "
                f"{_DENSE_BYTES_LIMIT / 2 ** 30:.0f} GiB limit")
        a = np.zeros((len(row_dicts), self.ncols), dtype=np.int64)
        for i, row in enumerate(row_dicts):
            for j, v in row.items():
                a[i, j] = int(v) % self.p
        return a

    def reduce(self, vec):
        """Reduce a vector against the stored rows; returns the residue."""
        p = self.p
        vec = np.asarray(vec, dtype=np.int64) % p
        for pc, row in zip(self.pivots, self.rows):
            f = int(vec[pc])
            if f:
                vec = (vec - f * row) % p
        return vec

    def add_row(self, row_dict) -> bool:
        res = self.reduce(self._dense([row_dict])[0])
        cols = np.nonzero(res)[0]
        if cols.size == 0:
            return False
        pc = int(cols[0])
        inv = pow(int(res[pc]), -1, self.p)
        self.rows.append(res * inv % self.p)
        self.pivots.append(pc)
        return True

    def add_rows(self, row_dicts) -> int:
        """Block insertion: one vectorized elimination pass over the rows."""
        p = self.p
        a = self._dense(list(row_dicts))
        for pc, row in zip(self.pivots, self.rows):
            col = a[:, pc]
            nz = np.nonzero(col)[0]
            if nz.size:
                a[nz] = (a[nz] - col[nz, None] * row[None, :]) % p
        gained = 0
        r = 0
        nrows = a.shape[0]
        for c in range(self.ncols):
            if r == nrows:
                break
            col = a[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            k = r + int(nz[0])
            if k != r:
                a[[r, k]] = a[[k, r]]
            inv = pow(int(a[r, c]), -1, p)
            a[r] = a[r] * inv % p
            below = a[r + 1:, c]
            bnz = np.nonzero(below)[0]
            if bnz.size:
                a[r + 1 + bnz] = (a[r + 1 + bnz]
                                  - below[bnz, None] * a[r][None, :]) % p
            self.rows.append(a[r].copy())
            self.pivots.append(c)
            gained += 1
            r += 1
        return gained

    def contains(self, row_dict) -> bool:
        return not np.any(self.reduce(self._dense([row_dict])[0]))


class RationalRowBasis:
    """Incremental echelon row set over Q on sparse Fraction rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row_dict):
        res = {c: Fraction(v) for c, v in row_dict.items() if v}
        for pc, row in zip(self.pivots, self.rows):
            f = res.get(pc)
            if f:
                for c, v in row.items():
                    newv = res.get(c, 0) - f * v
                    if newv:
                        res[c] = newv
                    else:
                        res.pop(c, None)
        return res

    def add_row(self, row_dict) -> bool:
        res = self.reduce(row_dict)
        if not res:
            return False
        pc = min(res)
        inv = 1 / res[pc]
        self.rows.append({c: v * inv for c, v in res.items()})
        self.pivots.append(pc)
        return True

    def add_rows(self, row_dicts) -> int:
        return sum(1 for r in row_dicts if self.add_row(r))

    def contains(self, row_dict) -> bool:
        return not self.reduce(row_dict)


def row_basis(ncols, field):
    if field.modulus is None:
        return RationalRowBasis(ncols)
    return ModRowBasis(ncols, field.modulus)


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
