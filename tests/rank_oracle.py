"""Independent rank oracles over Q for the tests.

_rank_rational is fraction-free (Bareiss) elimination on integer-scaled
rows, choosing pivots of smallest magnitude in the current column to limit
coefficient growth.  It shares no code with row_basis (pivot-keyed sparse
echelon rows), so the two routes check each other.  FractionRowBasis is
the pivot-keyed echelon route itself, reduced in Fractions with monic
rows, the slow route that row_basis's primitive integer rows replace.
Rows are {column: value} dicts.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from grasspencils.fields import RATIONALS


def _integer_rows(rows):
    """Clear denominators and content, preserving the row span."""
    out = []
    for row in rows:
        if not row:
            continue
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ints = {c: int(v * den) for c, v in row.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
        out.append(ints)
    return out


def _rank_rational(rows, ncols):
    """Bareiss fraction-free elimination; smallest-magnitude pivots."""
    work = _integer_rows(rows)
    if not work:
        return 0
    rk = 0
    prev = 1
    active = work
    for col in range(ncols):
        pivot_idx = None
        pivot_val = None
        for idx, row in enumerate(active):
            v = row.get(col)
            if v and (pivot_val is None or abs(v) < abs(pivot_val)):
                pivot_idx, pivot_val = idx, v
        if pivot_idx is None:
            continue
        pivot = active.pop(pivot_idx)
        rk += 1
        nxt = []
        for row in active:
            rv = row.get(col, 0)
            new = {}
            for c in row.keys() | pivot.keys():
                if c <= col:
                    continue
                val = pivot_val * row.get(c, 0) - rv * pivot.get(c, 0)
                val //= prev  # exact by the Bareiss identity
                if val:
                    new[c] = val
            if new:
                nxt.append(new)
        active = nxt
        prev = pivot_val
        if not active:
            break
    return rk


class FractionRowBasis:
    """Incremental echelon row set over Q with monic Fraction rows.

    The route row_basis over Q took before its rows were kept as primitive
    integers: the same pivot-keyed sparse rows, reduced in Fractions, each
    stored row scaled so its pivot entry is 1.  The integer rows of
    row_basis must be multiples of these, row by row."""

    def __init__(self):
        self.rows = {}    # pivot column -> row, pivot entry 1
        self.entries = 0

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row_dict):
        """Residue of a row against the stored rows, as {column: value}."""
        coerce = RATIONALS.coerce
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
        pc = min(res)
        inv, coerce = 1 / Fraction(res[pc]), RATIONALS.coerce
        self.rows[pc] = {c: coerce(v * inv) for c, v in res.items()}
        self.entries += len(res)
        return True

    def add_rows(self, row_dicts) -> int:
        return sum(1 for r in row_dicts if self.add_row(r))

    def contains(self, row_dict) -> bool:
        return not self.reduce(row_dict)
