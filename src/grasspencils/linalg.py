"""Exact linear algebra: echelon row bases over Q and F_p.

Every rank the package reports comes from row_basis, one sparse echelon
kernel for both fields.  Rows are {column: value} dicts, of any width,
where a column is any hashable, comparable key (griffiths uses ints ordered
as its monomials are), and the stored rows are kept in a dict keyed by
pivot column, where the pivot of a row is its smallest column.  Reducing a
vector repeatedly eliminates the smallest of its columns that is a stored
pivot; that only creates larger columns, so each pivot is met at most
once.  Ranks, quotient dimensions and greedy rank extensions are counts of
the rows a basis accepts.  A copy shares the stored rows and takes new
ones on its own.  Each basis stores at most _ENTRY_LIMIT entries, and a
copy counts the rows it shares among them, so a basis and a copy of it
hold at most the cap between them.

Every row enters through _integer_row.  A row of ints enters in one pass,
its zero entries dropped and, over F_p, its entries reduced mod p; a row
holding a Fraction is first multiplied by the lcm of its denominators,
which over F_p must be a unit.  Over F_p the scalars are int residues in
[0, p) (Python ints, so any prime works) and a stored row carries the pivot
entry 1.  Over Q elimination is fraction-free: a step scales the residue by
lead/g and subtracts f/g times the stored row, where lead is the stored
pivot entry, f the residue's and g = gcd(lead, f), and a row is stored
primitive (content 1, positive pivot entry).  Each step is the step with
Fractions times a nonzero integer, so the pivots, supports and ranks are
those of the monic echelon form; only the scale of each row differs.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

# Cap on the entries stored by one basis, the rows a copy shares included,
# and on the row entries built for one slice (griffiths' _multiple_rows),
# the count that reaches it first.  tracemalloc (Python 3.11) on the slice
# of hodge --rn 2,5 --degree 10: its 263,729 row-pair entries take
# 25.2 MiB, about 100 bytes each, and a stored basis entry takes 58 bytes
# over Q and 68 over F_p.  So 5e6 pair entries hold about 500 MB, and a
# basis at the cap, with the copy it shares its rows with, about 350 MB
# more.
_ENTRY_LIMIT = 5_000_000
_INT = frozenset((int,))


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard size guard."""


class _RowBasis:
    """Incremental echelon row set on sparse {column: value} rows."""

    def __init__(self, field):
        self.field = field
        self.rows = {}    # pivot column -> row (monic mod p, primitive over Q)
        self.entries = 0  # stored nonzeros, bounded by _ENTRY_LIMIT

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row_dict):
        """Residue of a row against the stored rows, as {column: value}.

        The residue is in ints and is the residue with Fractions times a
        nonzero integer over Q, times a unit over F_p."""
        p = self.field.modulus
        res = _integer_row(row_dict, p)
        rows = self.rows
        heap = [c for c in res if c in rows]
        heapify(heap)
        while heap:
            pc = heappop(heap)
            f = res.get(pc)
            if not f:
                continue  # cancelled, or a repeated push
            row = rows[pc]
            if not p:
                lead = row[pc]
                g = gcd(lead, f)
                if lead != g:
                    scale = lead // g
                    for c in res:
                        res[c] *= scale
                f //= g
            for c, v in row.items():
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
        p = self.field.modulus
        if p:
            inv = pow(res[pc], -1, p)
            self.rows[pc] = {c: v * inv % p for c, v in res.items()}
        else:
            g = gcd(*res.values())
            if res[pc] < 0:
                g = -g
            self.rows[pc] = {c: v // g for c, v in res.items()}
        self.entries += len(res)
        return True

    def add_rows(self, row_dicts) -> int:
        return sum(1 for r in row_dicts if self.add_row(r))

    def copy(self):
        """A basis holding the same rows, to be extended on its own; a
        stored row is never changed, so the two share them.  The copy
        counts the shared rows among its entries, as a basis of its own
        would store them."""
        basis = _RowBasis(self.field)
        basis.rows, basis.entries = dict(self.rows), self.entries
        return basis

    def contains(self, row_dict) -> bool:
        return not self.reduce(row_dict)


def _integer_row(row_dict, p=None):
    """The row times the lcm of its denominators, as nonzero ints, reduced
    mod p if p is given.  A row of ints has lcm 1: it is taken as it is."""
    if not set(map(type, row_dict.values())) <= _INT:
        den = lcm(*[v.denominator for v in row_dict.values()])
        if p is not None and den % p == 0:
            raise ZeroDivisionError(
                f"a denominator of the row vanishes mod {p}")
        row_dict = {c: v.numerator * (den // v.denominator)
                    for c, v in row_dict.items()}
    if p is None:
        return {c: v for c, v in row_dict.items() if v}
    return {c: r for c, v in row_dict.items() if (r := v % p)}


def row_basis(ncols, field):
    """Empty echelon row set over field (Q or F_p).  ncols is unused: a
    row may hold any column."""
    return _RowBasis(field)

