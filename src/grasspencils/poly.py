"""Sparse multivariate Laurent polynomials over an exact coefficient field.

A polynomial is a map from exponent vectors (tuples of ints, one per
variable, negative entries allowed) to nonzero scalars of its field.  Two
polynomials are equal iff their term maps are equal; no zero coefficient is
ever stored.

Canonical term order throughout the package is graded lexicographic:
monomials of lower total degree come first, and within a degree monomials
are listed in descending lexicographic order of their exponent vectors
(so for degree 4 in six variables the listing starts at x0^4 and ends at
x5^4).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add

from .fields import RATIONALS
from .linalg import ResourceLimitError

LISTING_GUARD = 10 ** 6  # the most monomials one listing may hold


def grlex_key(exponents):
    """Sort key realizing the graded-lexicographic order."""
    return (sum(exponents), exponents)


def check_listing_size(size, what="graded slice", unit="monomials"):
    """Raise before a listing of `size` items above LISTING_GUARD is
    built."""
    if size > LISTING_GUARD:
        raise ResourceLimitError(
            f"{what} with {size} {unit} exceeds the guard")


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple:
    """All degree-`degree` exponent vectors in canonical order, as a tuple.

    Canonical order within a fixed degree is descending lexicographic:
    (degree, 0, ..., 0) first, (0, ..., 0, degree) last.  Negative degrees
    give the empty tuple.  Cached: every caller shares one listing.  A
    listing of more than LISTING_GUARD monomials raises ResourceLimitError
    before anything is built.
    """
    if degree < 0:
        return ()
    check_listing_size(comb(nvars + degree - 1, degree))
    return tuple(_monomials(nvars, degree))


def _monomials(nvars, degree):
    # sorted multisets in lex order give exponents in descending lex order
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        yield tuple(e)


class SparsePolynomial:
    """Immutable-by-convention sparse polynomial with Laurent exponents."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field, terms=None, _clean=False):
        self.nvars = nvars
        self.field = field
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError(
                        f"exponent vector {e} has length {len(e)}, "
                        f"expected {nvars}")
                c = field.coerce(c)
                if c != 0:
                    clean[e] = c
            self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars, field=RATIONALS):
        return cls(nvars, field, {}, _clean=True)

    @classmethod
    def constant(cls, nvars, value, field=RATIONALS):
        return cls(nvars, field, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, index, field=RATIONALS, power=1):
        e = [0] * nvars
        e[index] = power
        return cls(nvars, field, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponents, coefficient=1, field=RATIONALS):
        return cls(len(exponents), field, {tuple(exponents): coefficient})

    # -- ring operations ---------------------------------------------

    def _check_context(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise ValueError(
                f"coefficient fields differ: {self.field} vs {other.field}")

    def _reduced(self, raw):
        """This ring's polynomial from a map of plain sums and products.

        The one place where ring operations bring coefficients into the
        field: over F_p each is taken mod p, and zero terms are dropped.
        """
        p = self.field.modulus
        if p is None:
            out = {e: c for e, c in raw.items() if c}
        else:
            out = {e: r for e, c in raw.items() if (r := c % p)}
        return SparsePolynomial(self.nvars, self.field, out, _clean=True)

    def __add__(self, other):
        self._check_context(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._reduced(out)

    def __neg__(self):
        return self._reduced({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_context(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._reduced(out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = SparsePolynomial.constant(self.nvars, 1, self.field)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c):
        c = self.field.coerce(c)
        return self._reduced({e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.nvars == other.nvars
                and self.field == other.field
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    # -- inspection ---------------------------------------------------

    def constant_term(self):
        """Coefficient of the all-zero exponent vector (zero if absent)."""
        return self.terms.get((0,) * self.nvars, 0)

    def num_terms(self):
        return len(self.terms)

    def total_degree(self):
        """Max over terms of the sum of exponents; None for the zero poly."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def partial(self, index):
        """Formal partial derivative with respect to variable `index`."""
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k:
                e2 = list(e)
                e2[index] = k - 1
                out[tuple(e2)] = c * k
        return self._reduced(out)

    def evaluate(self, values):
        """Evaluate at a point; negative exponents need invertible values."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        p = self.field.modulus
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k == 0:
                    continue
                if p is None:
                    term *= Fraction(v) ** k
                else:
                    term = term * pow(v, k, p) % p
            total = total + term
            if p is not None:
                total %= p
        return total

    def extend_variables(self, extra: int):
        """Reinterpret in a ring with `extra` new trailing variables."""
        pad = (0,) * extra
        out = {e + pad: c for e, c in self.terms.items()}
        return SparsePolynomial(self.nvars + extra, self.field, out,
                                _clean=True)

    def convert(self, field):
        """Recoerce every coefficient into `field` (e.g. reduce mod p)."""
        return SparsePolynomial(self.nvars, field, dict(self.terms))

    def sorted_terms(self):
        """Terms in canonical (graded-lex, descending within degree) order."""
        return sorted(self.terms.items(),
                      key=lambda item: grlex_key(item[0]), reverse=True)

    def to_string(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{names[i]}^{k}" if k != 1 else names[i]
                       for i, k in enumerate(e) if k != 0]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        s = self.to_string()
        if len(s) > 120:
            s = s[:117] + "..."
        return f"SparsePolynomial({self.field}, {s})"
