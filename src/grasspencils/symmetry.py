"""Diagonal symmetry groups of the pencils and their invariant monomials.

The group of diagonal matrices diag(z_1,...,z_n) with z_i^n = 1 and
(prod z_i)^r = 1 acts on Pluecker coordinates by p_I -> z_{i1}...z_{ir} p_I.
Additively this is the lattice L = {a in (Z/n)^n : r * sum(a) = 0 mod n};
roots of unity never appear, everything is exponent arithmetic mod n.  A
monomial is invariant iff its character (its index content,
grassmann.index_content, reduced mod n) pairs to zero with every element
of L.  With g = gcd(r, n), L holds every e_i - e_j and (n/g) * e_1, so
the characters it fixes are exactly c * (1,...,1) with g | c;
is_invariant reads that off the character, and no basis of L is stored.

The effective group, L modulo the line (1,...,1), has order |L|/n and is
Z/g x (Z/n)^(n-2); build_group derives this closed form.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd

from .grassmann import _check_rn, index_content, plucker_indices
from .poly import monomials_of_degree


@dataclass(frozen=True)
class SymmetryGroup:
    """Order and structure of the diagonal symmetry group for (n, r)."""

    n: int
    r: int
    order: int                   # |L|, the full diagonal group
    effective_order: int         # |L| / n, modulo the line (1,...,1)
    invariant_factors: tuple     # d1 | d2 | ... of the effective group
    structure: str               # e.g. "(Z/4)^2 x (Z/2)"


def _structure_string(invariant_factors) -> str:
    if not invariant_factors:
        return "trivial"
    counts = {}
    for d in invariant_factors:
        # split into prime-power elementary divisors
        m = d
        q = 2
        while m > 1:
            if m % q == 0:
                pk = 1
                while m % q == 0:
                    pk *= q
                    m //= q
                counts[pk] = counts.get(pk, 0) + 1
            q += 1
    parts = []
    for pk in sorted(counts, reverse=True):
        e = counts[pk]
        parts.append(f"(Z/{pk})^{e}" if e > 1 else f"(Z/{pk})")
    return " x ".join(parts)


@lru_cache(maxsize=None)
def build_group(n: int, r: int) -> SymmetryGroup:
    """Order and structure of the diagonal symmetry group for (n, r).

    With g = gcd(r, n), L = {a : sum(a) = 0 mod n/g}, generated by
    e_i - e_1 for i = 2..n together with (n/g) * e_1.  In the basis e_1,
    e_i - e_1 (i >= 2) of (Z/n)^n, a has coordinates (sum(a); a_2..a_n),
    so L = Z/g x (Z/n)^(n-1).  The vector (1,...,1) has coordinates
    (0; 1,...,1), primitive in the second factor, hence
    L / <(1,...,1)> = Z/g x (Z/n)^(n-2).  As g | n, that list with its
    trivial factors dropped is already the chain d1 | d2 | ...
    """
    _check_rn(r, n)
    g = gcd(r, n)
    order = n ** (n - 1) * g
    factors = tuple(d for d in (g,) + (n,) * (n - 2) if d != 1)
    return SymmetryGroup(
        n=n, r=r, order=order, effective_order=order // n,
        invariant_factors=factors, structure=_structure_string(factors))


def character(exponents, group: SymmetryGroup) -> tuple:
    """The index content of a monomial (grassmann.index_content), reduced
    mod n."""
    r, n = group.r, group.n
    if len(exponents) != len(plucker_indices(r, n)):
        raise ValueError("exponent vector does not match the variable set")
    return tuple(c % n for c in index_content(exponents, r, n))


def character_block(exponents, group: SymmetryGroup) -> tuple:
    """The character w of a monomial as a key, (w_1 mod g, (w_i - w_1) mod
    n for i >= 2) with g = gcd(r, n): L pairs two monomials to the same
    root of unity exactly when their keys agree, as L fixes exactly the
    c * (1,...,1) with g | c.  The invariant monomials have key 0."""
    first, *rest = character(exponents, group)
    return (first % gcd(group.r, group.n), *((c - first) % group.n
                                             for c in rest))


def is_invariant(exponents, group: SymmetryGroup) -> bool:
    """True iff the character is c * (1,...,1) with gcd(r, n) | c."""
    return not any(character_block(exponents, group))


def is_invariant_pencil(spec) -> bool:
    """True iff every deforming monomial of the pencil and its frozen
    product are invariant under the diagonal group of its G(r,n)."""
    group = build_group(spec.n, spec.r)
    return all(is_invariant(e, group) for e in spec.deforming + (spec.frozen,))


def pencil_blocks(spec):
    """exponent vector -> its character_block on the pencil's G(r,n).  The
    diagonal group grades the Jacobian ideal of an invariant pencil: the
    row of m*D^i_j f lies in the block of content(m) + e_i - e_j, as
    straightening keeps the content (grassmann.straightening_rules checks
    every rule).  A pencil with a non-invariant monomial is one block, the
    trivial (0, ..., 0)."""
    if is_invariant_pencil(spec):
        return partial(character_block, group=build_group(spec.n, spec.r))
    return lambda e: (0,) * spec.n


def invariant_multiplicities(r: int, n: int, degree: int) -> tuple:
    """The sets of index multiplicities of the invariant monomials of the
    degree, one per c with gcd(r, n) | c: a monomial is invariant iff every
    index occurs in it a number of times in {c, c + n, c + 2n, ...}, the
    multiplicities of a degree-`degree` monomial lying in 0..degree."""
    _check_rn(r, n)
    return tuple(frozenset(range(c, degree + 1, n))
                 for c in range(0, min(n, degree + 1), gcd(r, n)))


@lru_cache(maxsize=None)
def invariant_monomials(r: int, n: int, degree: int,
                        group: SymmetryGroup | None = None) -> tuple:
    """All invariant degree-`degree` monomials, in canonical order, as a
    tuple.

    Canonical order is graded-lex: descending lexicographic on exponent
    vectors within the fixed degree.  Cached: every caller shares one
    listing.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if group is None:
        group = build_group(n, r)
    nv = len(plucker_indices(r, n))
    return tuple(e for e in monomials_of_degree(nv, degree)
                 if is_invariant(e, group))
