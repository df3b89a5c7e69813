"""Laurent-power period oracles for the tests.

Both read c_k = (-1)^k * ct(L^k) off exact powers of the kernel L, with
`Fraction` coefficients, and so check the closed-form binomial sum that
PeriodKernel uses:

- full_power_coefficients forms L^k by k successive multiplications.
- meet_in_the_middle_coefficients pairs the halves: with a = ceil(k/2),
  c_k = (-1)^k * sum_m [L^a]_m * [L^(k-a)]_(-m), one lookup per term of
  the smaller power.  Since k - a is a or a - 1, it keeps only the two
  latest powers L^(a-1) and L^a, so c_0..c_K costs the powers up to
  L^ceil(K/2).
"""

from grasspencils.fields import RATIONALS
from grasspencils.periods import KernelVerificationError
from grasspencils.poly import SparsePolynomial


def full_power_coefficients(kernel: SparsePolynomial, k_max: int) -> list:
    """Integers c_0..c_k_max from the constant terms of L^0..L^k_max."""
    coeffs = [1]           # c_0
    power = SparsePolynomial.constant(4, 1, RATIONALS)  # L^0
    while len(coeffs) <= k_max:
        power = power * kernel
        k = len(coeffs)
        c = power.constant_term() * (-1) ** k
        if c.denominator != 1:
            raise KernelVerificationError(
                f"coefficient c_{k} is not an integer: {c}")
        coeffs.append(int(c))
    return coeffs


def meet_in_the_middle_coefficients(kernel: SparsePolynomial,
                                    k_max: int) -> list:
    """Integers c_0..c_k_max from ct(L^a * L^(k-a)), a = ceil(k/2)."""
    coeffs = [1]           # c_0
    # L^(a-1) and L^a, a = ceil(k/2) for the latest c_k
    lower = SparsePolynomial.constant(4, 1, RATIONALS)
    upper = kernel
    while len(coeffs) <= k_max:
        k = len(coeffs)
        if k % 2 and k > 1:      # a = ceil(k/2) grows at odd k
            lower, upper = upper, upper * kernel
        # L^(k-a) is L^a for even k and L^(a-1) for odd k
        half = lower if k % 2 else upper
        c = _constant_term_of_product(upper, half) * (-1) ** k
        if c.denominator != 1:
            raise KernelVerificationError(
                f"coefficient c_{k} is not an integer: {c}")
        coeffs.append(int(c))
    return coeffs


def _constant_term_of_product(f: SparsePolynomial, g: SparsePolynomial):
    """ct(f*g) = sum_m f_m * g_(-m), looping over the smaller term map."""
    small, large = sorted((f.terms, g.terms), key=len)
    total = 0
    for e, c in small.items():
        other = large.get(tuple(-x for x in e))
        if other is not None:
            total += c * other
    return total
