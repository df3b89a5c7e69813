"""Combinatorics of G(r,n) in Pluecker coordinates.

A Pluecker coordinate carries two equivalent labels: a strictly increasing
r-tuple of indices in {1,...,n}, and a partition whose Young diagram fits in
the r x (n-r) grid.  The dictionary between them walks the lattice path
along the boundary of the diagram from the lower-left to the upper-right
corner of the grid and records which of the n unit steps are vertical.

The sign convention is fixed once for the whole package: p_I stands for the
wedge x_{i1} ^ ... ^ x_{ir} with I increasing, and reordering a wedge picks
up the parity of the permutation.  Pluecker relations, the derivation action
and the point-counting minors all share this convention.
"""

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from operator import add, gt, sub
from types import MappingProxyType

from .fields import RATIONALS
from .poly import SparsePolynomial, check_listing_size, grlex_key

VARIANTS = ("arrow", "squares", "quads", "squares+quads")


@lru_cache(maxsize=None)
def plucker_indices(r: int, n: int) -> tuple:
    """All increasing r-tuples in {1..n}, in lexicographic order.

    This is the variable order of every polynomial ring on G(r,n).
    """
    _check_rn(r, n)
    return tuple(combinations(range(1, n + 1), r))


@lru_cache(maxsize=None)
def index_position(r: int, n: int) -> dict:
    return {idx: k for k, idx in enumerate(plucker_indices(r, n))}


def _check_rn(r, n):
    if not (1 <= r <= n - 1):
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")


def _check_partition(part, r, n):
    k = n - r
    if len(part) > r:
        raise ValueError(f"partition {part} has more than r={r} parts")
    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
        raise ValueError(f"partition {part} is not weakly decreasing")
    if part and (part[0] > k or part[-1] < 0):
        raise ValueError(f"partition {part} does not fit in {r}x{k}")


def normalize_partition(part) -> tuple:
    """Trim trailing zeros."""
    part = tuple(part)
    while part and part[-1] == 0:
        part = part[:-1]
    return part


def partition_to_index(part, r: int, n: int) -> tuple:
    """Lattice-path conversion partition -> increasing index tuple.

    The m-th vertical step (counting from the bottom row of the diagram)
    sits at path position lambda_{r+1-m} + m.
    """
    _check_rn(r, n)
    part = normalize_partition(part)
    _check_partition(part, r, n)
    lam = list(part) + [0] * (r - len(part))
    return tuple(lam[r - m] + m for m in range(1, r + 1))


def index_to_partition(idx, r: int, n: int) -> tuple:
    """Inverse lattice-path conversion."""
    _check_rn(r, n)
    idx = tuple(idx)
    if len(idx) != r or any(idx[i] >= idx[i + 1] for i in range(r - 1)):
        raise ValueError(f"{idx} is not a strictly increasing {r}-tuple")
    if idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"{idx} out of range 1..{n}")
    lam = [idx[m - 1] - m for m in range(r, 0, -1)]
    return normalize_partition(lam)


def enumerate_arrow_partitions(r: int, n: int) -> list:
    """The arrow partitions: empty, full grid, full rows plus one partial
    row, or full columns plus one partial column.

    There are exactly 2(r-1)(n-r-1) + n of them.
    """
    _check_rn(r, n)
    k = n - r
    found = {()}
    found.add(normalize_partition((k,) * r))
    # up to r-2 full rows plus one shorter row
    for full in range(0, r - 1):
        for a in range(1, k + 1):
            found.add(normalize_partition((k,) * full + (a,)))
    # 1..k-1 full columns plus one column of height 0..r-1
    for c in range(1, k):
        for b in range(0, r):
            found.add(normalize_partition((c + 1,) * b + (c,) * (r - b)))
    return sorted(found, key=lambda p: partition_to_index(p, r, n))


def frozen_variables(r: int, n: int) -> list:
    """The n cyclic index windows (1..r), (2..r+1), ..., each sorted."""
    _check_rn(r, n)
    out = []
    for start in range(n):
        window = tuple(sorted((start + j) % n + 1 for j in range(r)))
        out.append(window)
    return out


def sort_with_sign(seq):
    """Sort an index tuple, tracking the permutation sign.

    Returns (sorted tuple, +1/-1), the sign being the parity of the
    inversions, or (None, 0) when an index repeats (the wedge vanishes).
    """
    seq = tuple(seq)
    if len(set(seq)) < len(seq):
        return None, 0
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return tuple(sorted(seq)), (-1) ** inversions


@lru_cache(maxsize=None)
def plucker_relations(r: int, n: int) -> tuple:
    """A generating set of the Pluecker ideal (quadratic shuffle relations).

    For every (r-1)-tuple alpha and (r+1)-tuple beta the alternating sum
    over j of p_{alpha+beta_j} p_{beta-beta_j} vanishes on the Grassmannian.
    Duplicates are removed and each relation is sign-normalized so that its
    leading (graded-lex greatest) term has positive coefficient; no further
    minimalization is attempted.
    """
    _check_rn(r, n)
    if r < 2 or r > n - 2:
        return ()
    nv = len(plucker_indices(r, n))
    seen = set()
    out = []
    for alpha in combinations(range(1, n + 1), r - 1):
        for beta in combinations(range(1, n + 1), r + 1):
            terms = {}
            for j, bj in enumerate(beta):
                first, s1 = sort_with_sign(alpha + (bj,))
                if first is None:
                    continue
                e = _exponent_of((first, beta[:j] + beta[j + 1:]), r, n)
                terms[e] = terms.get(e, 0) + (-1) ** j * s1
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                continue
            if terms[max(terms, key=grlex_key)] < 0:
                terms = {e: -c for e, c in terms.items()}
            key = tuple(sorted(terms.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append(SparsePolynomial(nv, RATIONALS, terms))
    return tuple(out)


def hilbert_function(r: int, n: int, d: int) -> int:
    """dim of the degree-d part of the Pluecker ring of G(r,n): the hook
    content count of semistandard r x d tableaux with entries in 1..n."""
    if d < 0:
        return 0
    cells = [(i, j) for i in range(1, r + 1) for j in range(1, d + 1)]
    return (prod(n + j - i for i, j in cells)  # contents
            // prod(d - j + r - i + 1 for i, j in cells))  # hook lengths


def index_content(e, r: int, n: int) -> tuple:
    """How often each index 1..n occurs among the Pluecker factors of the
    monomial with exponent vector e, with multiplicity: entry i - 1 counts
    index i.  A negative exponent, as in a straightening shift, counts its
    factor's indices negatively."""
    counts = [0] * n
    for k, idx in zip(e, plucker_indices(r, n)):
        if k:
            for i in idx:
                counts[i - 1] += k
    return tuple(counts)


def _leading_pair(e, rules):
    """The first leading pair (i, j) of rules dividing e, or None."""
    support = [v for v, k in enumerate(e) if k]
    return next(((i, j) for a, i in enumerate(support)
                 for j in support[a + 1:] if (i, j) in rules), None)


@lru_cache(maxsize=None)
def straightening_rules(r: int, n: int) -> MappingProxyType:
    """Leading pair (i, j) of each Pluecker relation -> its tail over Z.

    A rule reads p_i*p_j = sum of c*x^(lead + shift) over its tail (shift, c),
    where lead is the exponent vector of p_i*p_j: a monomial e divisible by
    p_i*p_j is rewritten as the sum of c*x^(e + shift).  The leading term,
    grevlex greatest on the variable order, must be +-p_I*p_J with I != J;
    the first relation with each leading term is kept, and each of its tail
    monomials must be lex-greater than the lead (the first nonzero entry of
    every shift is positive), so a normal form only holds monomials listed
    before the monomial it rewrites.  The certificate: the leading pairs
    are exactly the incomparable pairs of indices.  Then the monomials
    divisible by no leading pair are the chains, which hilbert_function
    counts in every degree, so the leading terms generate the initial ideal
    in every degree and the rules are a Groebner basis.  Last, every tail
    monomial must have the lead's index content (the count of each index
    1..n), so a normal form keeps the content, and so the character block,
    of the monomial it rewrites."""
    names = _plucker_names(r, n)

    def named(pairs):
        return ", ".join(f"{names[i]}*{names[j]}" for i, j in sorted(pairs))

    rules = {}
    for rel in plucker_relations(r, n):
        lead = max(rel.terms,
                   key=lambda e: (sum(e), [-x for x in reversed(e)]))
        pair, lc = tuple(v for v, k in enumerate(lead) if k), rel.terms[lead]
        if len(pair) != 2 or abs(lc) != 1:
            raise ValueError(f"a G({r},{n}) relation leads with "
                             f"{lc}*{monomial_name(lead, r, n)}")
        if pair in rules:
            continue
        rules[pair] = tuple((tuple(map(sub, e, lead)), -c * lc)
                            for e, c in rel.terms.items() if e != lead)
        for shift, _ in rules[pair]:
            if next(filter(None, shift)) < 0:
                raise ValueError(
                    f"a G({r},{n}) relation leads with {named([pair])} but "
                    "holds the lex-smaller term "
                    f"{monomial_name(tuple(map(add, lead, shift)), r, n)}")
    indices = plucker_indices(r, n)
    incomparable = {(i, j) for i, j in combinations(range(len(indices)), 2)
                    if any(map(gt, indices[i], indices[j]))}
    if missing := incomparable - rules.keys():
        raise ValueError(f"no G({r},{n}) relation leads with the "
                         f"incomparable pair(s) {named(missing)}")
    if extra := rules.keys() - incomparable:
        raise ValueError(f"G({r},{n}) relations lead with the comparable "
                         f"pair(s) {named(extra)}")
    for (i, j), tail in rules.items():
        for shift, _ in tail:
            if any(index_content(shift, r, n)):
                term = [k + (v in (i, j)) for v, k in enumerate(shift)]
                raise ValueError(
                    f"a G({r},{n}) relation leads with {named([(i, j)])} "
                    f"but holds the term {monomial_name(term, r, n)} of "
                    "another index content")
    return MappingProxyType(rules)  # cached: shared by every caller


@lru_cache(maxsize=None)
def normal_form(r: int, n: int, e: tuple) -> tuple:
    """e in standard monomials over Z, as a tuple ((monomial, coeff), ...):
    the cache hands one object to every caller, so it must be immutable."""
    pair = _leading_pair(e, straightening_rules(r, n))
    if pair is None:
        return ((e, 1),)
    out = {}
    for shift, c in straightening_rules(r, n)[pair]:
        for s, k in normal_form(r, n, tuple(map(add, e, shift))):
            out[s] = out.get(s, 0) + c * k
    return tuple((s, k) for s, k in out.items() if k)


@dataclass(frozen=True)
class PencilSpec:
    """One-parameter family t*(deforming sum) + (frozen product).

    Monomials are stored as exponent vectors over the Pluecker variables of
    G(r,n) in their canonical (lexicographic index) order.  Every monomial
    has nonnegative exponents and total degree n, and the deforming
    monomials carry coefficient 1.
    """

    r: int
    n: int
    variant: str
    deforming: tuple
    frozen: tuple

    def __post_init__(self):
        if len(set(self.deforming)) != len(self.deforming):
            raise ValueError("deforming monomials must be pairwise distinct")
        _check_rn(self.r, self.n)
        nv = comb(self.n, self.r)  # not plucker_indices: that lists them
        for e in self.deforming + (self.frozen,):
            if len(e) != nv:
                raise ValueError(
                    f"pencil monomial {e} does not live on G({self.r},"
                    f"{self.n})")
            if min(e) < 0:
                raise ValueError(
                    f"pencil monomial {e} has a negative exponent")
            if sum(e) != self.n:
                raise ValueError(
                    f"pencil monomial {e} does not have degree {self.n}")
        if self.frozen != _exponent_of(frozen_variables(self.r, self.n),
                                       self.r, self.n):
            raise ValueError(
                "frozen monomial must be the product of the frozen "
                "variables, each to the first power")

    @property
    def nvars(self):
        return len(plucker_indices(self.r, self.n))

    def to_json(self) -> str:
        doc = {
            "r": self.r,
            "n": self.n,
            "variant": self.variant,
            "monomials": [list(e) for e in self.deforming],
            "frozen": list(self.frozen),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PencilSpec":
        """Inverse of to_json; a missing or malformed key is a ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("pencil JSON must be an object")

        def get(key, ok):
            if key not in doc:
                raise ValueError(f"pencil JSON has no {key!r} key")
            if not ok(doc[key]):
                raise ValueError(
                    f"pencil JSON key {key!r} is malformed: {doc[key]!r}")
            return doc[key]

        def is_vectors(v):
            return isinstance(v, list) and all(map(_is_vector, v))

        return cls(get("r", _is_int), get("n", _is_int),
                   # a plain name: output files are named after it
                   get("variant", lambda v: isinstance(v, str) and bool(
                       re.fullmatch(r"[\w+-]+", v, re.ASCII))),
                   tuple(map(tuple, get("monomials", is_vectors))),
                   tuple(get("frozen", _is_vector)))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_vector(v):
    return isinstance(v, list) and all(map(_is_int, v))


def _exponent_of(factors, r, n):
    """Exponent vector of a product of Pluecker indices (with repeats)."""
    pos = index_position(r, n)
    e = [0] * len(pos)
    for idx in factors:
        e[pos[idx]] += 1
    return tuple(e)


# Extra deforming monomials of the three (2,4) pencil variants, as products
# of Pluecker indices, in the order their defining equations list them.
_SQUARES_24 = (((1, 4), (1, 4), (2, 3), (2, 3)),
               ((1, 3), (1, 3), (2, 4), (2, 4)),
               ((1, 2), (1, 2), (3, 4), (3, 4)))
_QUADS_24 = (((1, 3), (1, 4), (2, 3), (2, 4)),
             ((1, 2), (1, 3), (2, 4), (3, 4)))
_SQUARES_QUADS_24 = (_SQUARES_24[0], _QUADS_24[0], _SQUARES_24[1],
                     _QUADS_24[1], _SQUARES_24[2])


@lru_cache(maxsize=None)
def build_pencil(r: int, n: int, variant: str = "arrow") -> PencilSpec:
    """The pencil t*(sum of n-th powers of arrow variables) + frozen
    product, or one of its three (2,4) extensions, built once."""
    _check_rn(r, n)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choose from {VARIANTS}")
    if variant != "arrow" and (r, n) != (2, 4):
        raise ValueError(f"variant {variant!r} is only defined for (2,4)")
    extras = {
        "arrow": (),
        "squares": _SQUARES_24,
        "quads": _QUADS_24,
        "squares+quads": _SQUARES_QUADS_24,
    }[variant]
    # a dense C(n, r)-vector per monomial: the 2(r-1)(n-r-1) + n arrow
    # partitions, the extras and the frozen product
    check_listing_size((2 * (r - 1) * (n - r - 1) + n + len(extras) + 1)
                       * comb(n, r), f"pencil on G({r},{n})", "exponents")
    deforming = [
        _exponent_of((partition_to_index(lam, r, n),) * n, r, n)
        for lam in enumerate_arrow_partitions(r, n)
    ]
    deforming += [_exponent_of(factors, r, n) for factors in extras]
    frozen = _exponent_of(frozen_variables(r, n), r, n)
    return PencilSpec(r, n, variant, tuple(deforming), frozen)


def evaluate_pencil(spec: PencilSpec, t, field=RATIONALS) -> SparsePolynomial:
    """The defining polynomial t*(deforming sum) + frozen product."""
    t = field.coerce(t)
    terms = {e: t for e in spec.deforming}
    terms[spec.frozen] = terms.get(spec.frozen, 0) + 1
    return SparsePolynomial(spec.nvars, field, terms)


@lru_cache(maxsize=None)
def _plucker_names(r: int, n: int) -> tuple:
    sep = "" if n <= 9 else ","
    return tuple("p" + sep.join(str(i) for i in idx)
                 for idx in plucker_indices(r, n))


def plucker_names(r: int, n: int) -> list:
    """The names of the Pluecker variables, e.g. 'p12', or 'p1,10' when
    n > 9; a fresh list of the names built once per (r, n)."""
    return list(_plucker_names(r, n))


def monomial_name(exponents, r: int, n: int) -> str:
    """Readable form of an exponent vector, e.g. 'p14^2*p23^2'."""
    names = _plucker_names(r, n)
    parts = [f"{names[i]}^{k}" if k > 1 else names[i]
             for i, k in enumerate(exponents) if k]
    return "*".join(parts) if parts else "1"
