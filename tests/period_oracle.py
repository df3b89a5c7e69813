"""Full-power period oracle for the tests.

c_k = (-1)^k * ct(L^k) read off the exact power L^k, formed by k
successive multiplications.  It never splits the power, so it checks the
meet-in-the-middle pairing that PeriodKernel uses.
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
