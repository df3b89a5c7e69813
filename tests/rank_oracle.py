"""Independent rank oracle over Q for the tests.

Fraction-free (Bareiss) elimination on integer-scaled rows, choosing pivots
of smallest magnitude in the current column to limit coefficient growth.
It shares no code with row_basis (pivot-keyed sparse echelon rows), so
the two routes check each other.  Rows are {column: value} dicts.
"""

from math import gcd


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
