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
ones on its own.  Bases that live side by side share one entry budget.

_RowPairs holds rows linear in a parameter t, as pairs (a, b) of rows
a + t*b, each filed under the block its caller names, so a rank is the sum
of the block ranks.  Per field it eliminates the rows that do not depend on
t once in each block; every t then starts from copies of those bases, and a
block of one row is counted by whether that row vanishes.  All the bases of
one t, and the t-free ones, store at most _ENTRY_LIMIT entries together, as
one basis of the whole slice would.

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

# Cap on the entries stored by one basis, or by the bases that share its
# budget, and on the row entries built for one slice (griffiths'
# _multiple_rows), the count that reaches it first.  tracemalloc (Python
# 3.11) on the slice of hodge --rn 2,5 --degree 10: its 263,729 row-pair
# entries take 25.2 MiB, about 100 bytes each, and a stored basis entry
# takes 58 bytes over Q and 68 over F_p.  So 5e6 pair entries hold about
# 500 MB, and bases at the cap about 350 MB more.
_ENTRY_LIMIT = 5_000_000
_INT = frozenset((int,))


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard size guard."""


class _RowBasis:
    """Incremental echelon row set on sparse {column: value} rows."""

    def __init__(self, field, spent=None):
        self.field = field
        self.rows = {}    # pivot column -> row (monic mod p, primitive over Q)
        self.entries = 0  # stored nonzeros
        # [the entries stored by this basis and the bases that share this
        # list with it], bounded by _ENTRY_LIMIT
        self.spent = [0] if spent is None else spent

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
        stored = self.spent[0]
        if stored + len(res) > _ENTRY_LIMIT:
            raise ResourceLimitError(
                f"echelon basis over {self.field.name}: {stored} "
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
        self.spent[0] += len(res)
        return True

    def add_rows(self, row_dicts) -> int:
        return sum(1 for r in row_dicts if self.add_row(r))

    def copy(self, spent=None):
        """A basis holding the same rows, to be extended on its own; a
        stored row is never changed, so the two share them.  The copy
        spends from spent, a budget that already counts the shared rows,
        or else from a new one that counts them."""
        basis = _RowBasis(self.field, spent or [self.entries])
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


def row_basis(ncols, field, spent=None):
    """Empty echelon row set over field (Q or F_p), its entries counted in
    spent, a budget shared with other bases, if given.  ncols is unused:
    a row may hold any column."""
    return _RowBasis(field, spent)


def _at(pairs, t):
    """Each pair (a, b) of rows as the one row a + t*b."""
    for a, b in pairs:
        row = dict(a)
        for c, v in b.items():
            row[c] = row.get(c, 0) + t * v
        yield row


class _RowPairs:
    """Rows linear in a parameter: pairs (a, b), the row at t being a + t*b.
    They come as (key, pair) and are kept in the order given and grouped by
    key, a block whose columns no other block uses, each block as (its rows
    free of t, its pairs that carry t): a pair with a = {} or b = {} stands
    for the row b or a, as t != 0 in the field.  Over the last field asked
    for, the rows free of t are eliminated once per block; a specialization
    adds the others to a copy of that basis."""

    def __init__(self, keyed_pairs):
        self._fixed = None, {}
        self.pairs, self.blocks = [], {}
        for key, pair in keyed_pairs:
            self.pairs.append(pair)
            if key not in self.blocks:
                self.blocks[key] = [], []
            free, carried = self.blocks[key]
            if all(pair):
                carried.append(pair)
            else:
                free.append(pair[0] or pair[1])
        self.entries = sum(len(a) + len(b) for a, b in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def fixed(self, fld):
        """{block: the basis over fld of its rows free of t}, for the blocks
        that have such rows, all spending from one budget.  They are
        eliminated on the first call for fld, and replace the bases of the
        field asked for before."""
        if self._fixed[0] != fld:
            self._fixed, spent, bases = (None, {}), [0], {}
            for key, (free, _) in self.blocks.items():
                if free:
                    bases[key] = row_basis(None, fld, spent)
                    bases[key].add_rows(free)
            self._fixed = fld, bases
        return self._fixed[1]

    def at(self, fld, t, keep=()):
        """(rank, bases): the rank over fld of the rows a + t*b, summed over
        the blocks, and the basis at t of each block in keep.  Every other
        block's basis is dropped once its rank is counted, and a block of
        one row that carries t needs none: it adds 1 exactly when the row
        is nonzero in fld after _integer_row, as it would enter a basis.
        The bases made here, and the later rows of those in keep, spend
        from one budget that starts at the entries of the t-free bases."""
        fixed = self.fixed(fld)
        spent = [sum(basis.entries for basis in fixed.values())]
        rank, bases = 0, {}
        for key, (free, pairs) in self.blocks.items():
            if key not in keep and len(pairs) == 1 and not free:
                rank += bool(_integer_row(next(_at(pairs, t)), fld.modulus))
                continue
            basis = fixed.get(key)
            if basis is None:
                basis = row_basis(None, fld, spent)
            elif pairs or key in keep:
                basis = basis.copy(spent)
            rank += basis.rank + basis.add_rows(_at(pairs, t))
            if key in keep:
                bases[key] = basis
        for key in set(keep) - bases.keys():
            bases[key] = row_basis(None, fld, spent)
        return rank, bases
