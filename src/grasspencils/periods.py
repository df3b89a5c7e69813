"""Period series, Hasse-Witt invariants, and the truncation search.

On the dense torus chart of G(2,4) with coordinates t1..t4, the defining
polynomial of the (2,4) pencil, divided by the frozen product, takes the
form B = 1 + t*L for a Laurent polynomial L (the period kernel).  The
construction below assembles B from its chart expression and machine-checks
both the simplifying identity w = -1/(t1 t2 t3 t4) and the factorization
B = 1 + t*L before anything else runs.

The holomorphic period is the constant-term series of 1/B: the coefficient
of t^k has constant term c_k = (-1)^k * ct(L^k), an integer.  Truncating
the series at p terms and reducing mod p gives the Hasse-Witt invariant,
which controls the point count: 1 - HW_p(t) = #X_t(F_p) mod p.

The constant term is read off by meeting in the middle rather than by
forming L^k: with a = ceil(k/2),

    c_k = (-1)^k * sum_m [L^a]_m * [L^(k-a)]_(-m),

one lookup per term of the smaller power.  Since k - a is a or a - 1, the
kernel keeps only the two latest powers L^(a-1) and L^a, so c_0..c_K costs
the powers up to L^ceil(K/2) and nothing older is held.

The truncation search asks whether those counts also match a truncated
classical hypergeometric series 4F3(1/4,1/2,3/4,1/2; 1,1,1 | a*t^b) for
some fixed scaling (a, b); the scan over the full (a, b) grid comes back
empty for p = 5, 7, 11.
"""

from fractions import Fraction

from .fields import RATIONALS, is_prime
from .poly import SparsePolynomial

# parameters of the classical hypergeometric equation governing the
# one-parameter mirror family of quartics in G(2,4)
LT_UPPER = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))
LT_LOWER = (Fraction(1), Fraction(1), Fraction(1))


class KernelVerificationError(RuntimeError):
    """The symbolic checks on the period kernel failed (transcription bug)."""


def _mono(e, c=1):
    return SparsePolynomial.monomial(e, c, RATIONALS)


class PeriodKernel:
    """Laurent kernel L with B = 1 + t*L on the G(2,4) torus chart."""

    def __init__(self, kernel: SparsePolynomial, checks: dict):
        self.kernel = kernel
        self.checks = dict(checks)
        self._coeffs = [1]           # c_0
        # L^(a-1) and L^a, a = ceil(k/2) for the latest c_k
        self._lower = SparsePolynomial.constant(4, 1, RATIONALS)
        self._upper = kernel

    def coefficients(self, k_max: int) -> list:
        """Integers c_0..c_k_max; computed once, extended on demand."""
        while len(self._coeffs) <= k_max:
            k = len(self._coeffs)
            if k % 2 and k > 1:      # a = ceil(k/2) grows at odd k
                self._lower, self._upper = (self._upper,
                                            self._upper * self.kernel)
            # L^(k-a) is L^a for even k and L^(a-1) for odd k
            half = self._lower if k % 2 else self._upper
            c = _constant_term_of_product(self._upper, half) * (-1) ** k
            if c.denominator != 1:
                raise KernelVerificationError(
                    f"coefficient c_{k} is not an integer: {c}")
            self._coeffs.append(int(c))
        return self._coeffs[:k_max + 1]


def _constant_term_of_product(f: SparsePolynomial, g: SparsePolynomial):
    """ct(f*g) = sum_m f_m * g_(-m), looping over the smaller term map."""
    small, large = sorted((f.terms, g.terms), key=len)
    total = f.field.zero
    for e, c in small.items():
        other = large.get(tuple(-x for x in e))
        if other is not None:
            total += c * other
    return total


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
        "kernel_terms": kernel.num_terms(),
    }
    return PeriodKernel(kernel, checks)


_default_kernel = None


def default_kernel() -> PeriodKernel:
    global _default_kernel
    if _default_kernel is None:
        _default_kernel = build_period_kernel()
    return _default_kernel


def period_coefficients(kernel: PeriodKernel, k_max: int) -> list:
    """c_0..c_k_max as exact integers; only even k contribute."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return kernel.coefficients(k_max)


def hasse_witt(p: int, t: int, kernel: PeriodKernel | None = None) -> int:
    """Truncated period series sum(c_k t^k, k=0..p-1) mod p.

    Satisfies 1 - hasse_witt(p, t) = #X_t(F_p) mod p for the (2,4) pencil.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    kernel = kernel or default_kernel()
    coeffs = kernel.coefficients(p - 1)
    t = t % p
    total = 0
    tk = 1
    for c in coeffs:
        total = (total + c * tk) % p
        tk = tk * t % p
    return total


def hypergeometric_truncation(upper, lower, p: int, z: int) -> int:
    """Truncation at p terms of a generalized hypergeometric series mod p.

    sum_{k=0}^{p-1} prod_i (a_i)_k / (prod_j (b_j)_k * k!) * z^k, with the
    Pochhammer symbols evaluated through modular inverses.  Parameters are
    rationals whose denominators must be invertible mod p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    fp_upper = [_param_mod(a, p) for a in upper]
    fp_lower = [_param_mod(b, p) for b in lower]
    z = z % p
    total = 1
    term = 1
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
        term = term * num % p * pow(den, -1, p) % p * z % p
        total = (total + term) % p
    return total


def _param_mod(a, p):
    a = Fraction(a)
    if a.denominator % p == 0:
        raise ZeroDivisionError(
            f"parameter {a} has denominator divisible by {p}")
    return a.numerator % p * pow(a.denominator % p, -1, p) % p


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
        residues[rec.t % p] = rec.residue
    if sorted(residues) != list(range(1, p)):
        raise ValueError("counts must cover t = 1..p-1 exactly")
    trunc = [hypergeometric_truncation(LT_UPPER, LT_LOWER, p, z)
             for z in range(p)]
    hits = []
    for a in range(1, p):
        for b in range(1, p):
            if all(residues[t] == (1 - trunc[a * pow(t, b, p) % p]) % p
                   for t in range(1, p)):
                hits.append((a, b))
    return hits
