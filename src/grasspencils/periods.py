"""Period series, Hasse-Witt invariants, and the truncation search.

On the dense torus chart of G(2,4) with coordinates t1..t4, the defining
polynomial of the (2,4) pencil, divided by the frozen product, takes the
form B = 1 + t*L for a Laurent polynomial L (the period kernel).  The
construction below assembles B from its chart expression and machine-checks
the simplifying identity w = -1/(t1 t2 t3 t4), the factorization B = 1 + t*L
and the six-piece split of L below before anything else runs.

The holomorphic period is the constant-term series of 1/B: the coefficient
of t^k has constant term c_k = (-1)^k * ct(L^k), an integer.  Truncating
the series at p terms and reducing mod p gives the Hasse-Witt invariant,
which controls the point count: 1 - HW_p(t) = #X_t(F_p) mod p.

L is M = t1^3 t2^2 t3^2 t4 times six pieces: w^4, t1^-4, (t1 t2)^-4,
(t1 t3)^-4, 1 and (t1 + t4)^4 (t1 t2 t3 t4)^-4.  A product of k kernel terms
is constant exactly when w^4 and 1 occur a times each, t1^-4 and the
binomial piece b times each, (t1 t2)^-4 and (t1 t3)^-4 c times each, and
the binomial factors supply t1-degree 2(b + c - a).  So c_odd = 0 and

    c_2m = sum_{a+b+c=m} (2m)! / (a! b! c!)^2 * C(4b, 2(b + c - a)),

a sum of Python integers; 2(b + c - a) = 2(m - 2a) must lie in 0..4b.

The truncation search asks whether those counts also match a truncated
classical hypergeometric series 4F3(1/4,1/2,3/4,1/2; 1,1,1 | a*t^b) for
some fixed scaling (a, b); the scan over the full (a, b) grid comes back
empty for every prime 5 <= p <= 61.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .fields import RATIONALS, PrimeField, is_prime
from .poly import SparsePolynomial

# parameters of the classical hypergeometric equation governing the
# one-parameter mirror family of quartics in G(2,4)
LT_UPPER = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))
LT_LOWER = (Fraction(1), Fraction(1), Fraction(1))

# the pieces of L as term maps, in the pairs the c_k sum counts a, b, c times
_PIECES = (
    {(-1, -2, -2, -3): 1}, {(3, 2, 2, 1): 1},            # w^4 M, M
    {(-1, 2, 2, 1): 1},                                  # t1^-4 M
    {(j - 1, -2, -2, 1 - j): comb(4, j) for j in range(5)},  # binomial
    {(-1, -2, 2, 1): 1}, {(-1, 2, -2, 1): 1},   # (t1 t2)^-4 M, (t1 t3)^-4 M
)


class KernelVerificationError(RuntimeError):
    """The symbolic checks on the period kernel failed (transcription bug)."""


def _mono(e, c=1):
    return SparsePolynomial.monomial(e, c, RATIONALS)


class PeriodKernel:
    """Laurent kernel L with B = 1 + t*L on the G(2,4) torus chart."""

    def __init__(self, kernel: SparsePolynomial, checks: dict):
        # coefficients() reads the six pieces, so they must make up kernel
        if sum((_mono(e, c) for piece in _PIECES for e, c in piece.items()),
               SparsePolynomial.zero(4, RATIONALS)) != kernel:
            raise KernelVerificationError("L != the six pieces of the c_k sum")
        self.kernel = kernel
        self.checks = dict(checks)
        self._coeffs = [1]           # c_0

    def coefficients(self, k_max: int) -> list:
        """Integers c_0..c_k_max; computed once, extended on demand."""
        while len(self._coeffs) <= k_max:
            k = len(self._coeffs)
            self._coeffs.append(0 if k % 2 else _even_coefficient(k // 2))
        return self._coeffs[:k_max + 1]


def _even_coefficient(m: int) -> int:
    """c_2m by the closed-form sum of the module docstring."""
    top = factorial(2 * m)
    return sum(top // (factorial(a) * factorial(b) * factorial(m - a - b)) ** 2
               * comb(4 * b, 2 * (m - 2 * a))   # 0 when 2(m - 2a) > 4b
               for a in range(m // 2 + 1) for b in range(m - a + 1))


def build_period_kernel() -> PeriodKernel:
    """Assemble and verify the period kernel for the (2,4) pencil.

    Raises KernelVerificationError if any of the built-in identities fail;
    a failure can only mean the chart expression was transcribed wrong.
    """
    # w = 1/(t1^2 t2 t3) - (t1 + t4)/(t1^2 t2 t3 t4)
    w = (_mono((-2, -1, -1, 0))
         - (_mono((1, 0, 0, 0)) + _mono((0, 0, 0, 1)))
         * _mono((-2, -1, -1, -1)))
    w_expected = _mono((-1, -1, -1, -1), -1)
    if w != w_expected:
        raise KernelVerificationError("w != -1/(t1 t2 t3 t4)")

    # six-term bracket: w^4 + 1/t1^4 + 1/(t1 t2)^4 + 1/(t1 t3)^4
    #                   + (t1+t4)^4/(t1 t2 t3 t4)^4 + 1
    bracket = (w ** 4
               + _mono((-4, 0, 0, 0))
               + _mono((-4, -4, 0, 0))
               + _mono((-4, 0, -4, 0))
               + (_mono((1, 0, 0, 0)) + _mono((0, 0, 0, 1))) ** 4
               * _mono((-4, -4, -4, -4))
               + SparsePolynomial.constant(4, 1, RATIONALS))
    kernel = bracket * _mono((3, 2, 2, 1))

    # B = -((bracket*t - w/(t1^2 t2 t3)) * t1^2 t2 t3)/w must equal 1 + t*L;
    # with denominators cleared that is L*w = -bracket*t1^2 t2 t3.
    lhs = kernel * w
    rhs = -(bracket * _mono((2, 1, 1, 0)))
    if lhs != rhs:
        raise KernelVerificationError("B != 1 + t*L after clearing w")
    if kernel.constant_term() != 0:
        raise KernelVerificationError("kernel has a constant term")

    checks = {
        "w_identity": "w == -1/(t1*t2*t3*t4)",
        "factorization": "L*w == -(bracket)*t1^2*t2*t3",
        "constant_term": "ct(L) == 0",
        "decomposition": "L == the six pieces of the c_k sum",
        "kernel_terms": kernel.num_terms(),
    }
    return PeriodKernel(kernel, checks)


@lru_cache(maxsize=None)
def default_kernel() -> PeriodKernel:
    return build_period_kernel()


def period_coefficients(kernel: PeriodKernel, k_max: int) -> list:
    """c_0..c_k_max as exact integers; only even k contribute."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return kernel.coefficients(k_max)


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


def hasse_witt(p: int, t: int, kernel: PeriodKernel | None = None) -> int:
    """Truncated period series sum(c_k t^k, k=0..p-1) mod p.

    Satisfies 1 - hasse_witt(p, t) = #X_t(F_p) mod p for the (2,4) pencil.
    """
    _require_odd_prime(p)
    kernel = kernel or default_kernel()
    return _horner(kernel.coefficients(p - 1), t, p)


def _horner(coeffs, z, p):
    """sum(coeffs[k] * z^k) mod p by Horner's rule."""
    total = 0
    for c in reversed(coeffs):
        total = (total * z + c) % p
    return total


def hypergeometric_truncation(upper, lower, p: int, z: int) -> int:
    """Truncation at p terms of a generalized hypergeometric series mod p.

    sum_{k=0}^{p-1} prod_i (a_i)_k / (prod_j (b_j)_k * k!) * z^k, with the
    Pochhammer symbols evaluated through modular inverses.  Parameters are
    rationals whose denominators must be invertible mod p.
    """
    return _horner(_truncation_coefficients(upper, lower, p), z, p)


def _truncation_coefficients(upper, lower, p):
    """The p coefficients of the truncated series as residues mod p."""
    _require_odd_prime(p)
    fp = PrimeField(p)
    fp_upper = [fp.coerce(a) for a in upper]
    fp_lower = [fp.coerce(b) for b in lower]
    coeffs = [1]
    for k in range(p - 1):
        num = 1
        for a in fp_upper:
            num = num * ((a + k) % p) % p
        den = (k + 1) % p
        for b in fp_lower:
            den = den * ((b + k) % p) % p
        if den == 0:
            raise ZeroDivisionError(
                f"lower Pochhammer factor vanishes mod {p} at k={k}")
        coeffs.append(coeffs[-1] * num % p * pow(den, -1, p) % p)
    return coeffs


def truncation_search(p: int, counts) -> list:
    """All (a, b) with residue(t) = 1 - 4F3(...| a t^b) mod p for every t.

    `counts` must cover t = 1..p-1 exactly once (any order).  The grid is
    a in F_p^*, b in 1..p-1; since t^b only depends on b mod p-1 on F_p^*,
    this exhausts all nonzero integer scalings.
    """
    residues = {}
    for rec in counts:
        if rec.p != p:
            raise ValueError(f"record for p={rec.p} in a p={p} search")
        if rec.t % p in residues:
            raise ValueError(f"t = {rec.t % p} appears twice in the counts")
        residues[rec.t % p] = rec.residue
    if sorted(residues) != list(range(1, p)):
        raise ValueError("counts must cover t = 1..p-1 exactly")
    coeffs = _truncation_coefficients(LT_UPPER, LT_LOWER, p)
    trunc = [_horner(coeffs, z, p) for z in range(p)]
    hits = []
    for a in range(1, p):
        for b in range(1, p):
            if all(residues[t] == (1 - trunc[a * pow(t, b, p) % p]) % p
                   for t in range(1, p)):
                hits.append((a, b))
    return hits
