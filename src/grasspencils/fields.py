"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python objects: an ``int`` or a ``fractions.Fraction``
over the rationals (integers stay ints, so integer input makes no
Fraction), ``int`` residues in ``[0, p)`` over a prime field.  A scalar
enters its field through ``field.coerce``, and both fields coerce exactly:
anything but an int or a Fraction (a float, a string) becomes the rational
it denotes, and F_p takes that rational mod p.  ``field.modulus`` is
``None`` for the rationals.  Polynomial ring operations bring their
coefficients into the field in one place, ``SparsePolynomial._reduced``.
Two places reduce mod p themselves: ``SparsePolynomial.evaluate``, whose
Laurent exponents need ``pow(v, k, p)``, and the elimination kernel, where
every row enters through ``linalg._integer_row``.
"""

from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


class Rationals:
    """The field of arbitrary-precision rationals (singleton RATIONALS)."""

    modulus = None
    name = "QQ"

    def coerce(self, x):
        """x as an int or a Fraction; anything else (a float, a string)
        becomes the Fraction it denotes exactly."""
        return x if isinstance(x, (int, Fraction)) else Fraction(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The prime field F_p; residues are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def modulus(self):
        return self.p

    @property
    def name(self):
        return f"GF({self.p})"

    def coerce(self, x):
        """x mod p; anything but an int first becomes an exact rational."""
        if isinstance(x, int):
            return x % self.p
        x = RATIONALS.coerce(x)
        num = x.numerator % self.p
        den = x.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator of {x} vanishes mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


RATIONALS = Rationals()
