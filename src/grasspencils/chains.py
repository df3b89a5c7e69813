"""The standard monomials of G(r,n), listed as chains of Pluecker indices.

A monomial p_I1*...*p_Id is a chain when I_1 <= ... <= I_d entry by entry.
Once straightening_rules has certified that its leading pairs are exactly
the incomparable pairs, the chains are the standard monomials: the basis
of the Pluecker ring that every normal form is written in.  A chain is the
semistandard r x d tableau with columns I_1..I_d, so the chains are listed
as tableaux, one index at a time, without listing the whole slice.
"""

from itertools import product

from .grassmann import _exponent_of
from .poly import check_listing_size


def standard_monomials(r: int, n: int, d: int, multiplicities=None) -> tuple:
    """The chains of degree d, as exponent vectors in canonical order.

    A tableau is built one index at a time: the cells holding 1..i form a
    partition in the r x d rectangle, the cells holding i a horizontal
    strip.  With multiplicities, a collection of sets, only the tableaux in
    which every index occurs a number of times lying in one common set are
    listed.  The completions of each (index, partition) state are counted
    first, so the search enters no dead end, and a listing of more than
    LISTING_GUARD chains raises ResourceLimitError before any is built."""
    if d < 0:
        return ()
    searches = [_strip_search(r, n, d, frozenset(sizes)) for sizes in
                ([range(d + 1)] if multiplicities is None else multiplicities)]
    check_listing_size(sum(count for count, _ in searches),
                       f"standard monomials of G({r},{n}) in degree {d}")
    return tuple(sorted((_exponent_of(zip(*rows), r, n) for _, strips
                         in searches for rows in _tableaux(r, n, strips)),
                        reverse=True))


def _strip_search(r, n, d, sizes):
    """(count, strips) for the tableaux whose index multiplicities all lie
    in sizes: strips maps each state (i, shape), i < n, from which the full
    rectangle is reachable to its successors, the shapes after adding
    index i + 1 as a horizontal strip, and count is the number of paths."""
    strips = {}
    return _completions(0, (0,) * r, r, n, d, sizes, strips, {}), strips


def _completions(i, shape, r, n, d, sizes, strips, counts):
    """The paths from state (i, shape) to the full rectangle, memoized in
    counts; the successors on such paths go to strips."""
    if (i, shape) in counts:
        return counts[i, shape]
    if i == n:
        return int(shape == (d,) * r)
    # row j holds no index above n - r + j + 1, so the rows
    # j < must_fill are full once index i + 1 is placed
    must_fill = i + 1 - (n - r)
    ranges = [range(d if j < must_fill else shape[j],
                    (shape[j - 1] if j else d) + 1) for j in range(r)]
    size = sum(shape)
    counts[i, shape] = 0
    strips[i, shape] = []
    for nxt in product(*ranges):
        if sum(nxt) - size in sizes and (k := _completions(
                i + 1, nxt, r, n, d, sizes, strips, counts)):
            counts[i, shape] += k
            strips[i, shape].append(nxt)
    return counts[i, shape]


def _tableaux(r, n, strips):
    """The rows of every tableau along the paths of strips, depth first, as
    one list of row lists that the next tableau overwrites."""
    return _walk([[] for _ in range(r)], n, strips, 0, (0,) * r)


def _walk(rows, n, strips, i, shape):
    if i == n:
        yield rows
        return
    for nxt in strips[i, shape]:
        for row, old, new in zip(rows, shape, nxt):
            row.extend([i + 1] * (new - old))
        yield from _walk(rows, n, strips, i + 1, nxt)
        for row, old in zip(rows, shape):
            del row[old:]
