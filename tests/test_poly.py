import random
from itertools import product

import pytest
from fractions import Fraction

from grasspencils.fields import PrimeField, RATIONALS, is_prime, next_prime
from grasspencils.grassmann import build_pencil, evaluate_pencil
from grasspencils.poly import SparsePolynomial, grlex_key, monomials_of_degree

F5 = PrimeField(5)


def test_difference_of_squares():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}


def test_multiplication_by_zero_annihilates():
    a = SparsePolynomial(3, RATIONALS, {(1, 0, 2): 7, (0, 1, 0): -3})
    zero = SparsePolynomial.zero(3)
    assert (a * zero).terms == {}
    assert not a * zero


def test_laurent_square():
    # (t1^-1 + t2)^2 = t1^-2 + 2 t1^-1 t2 + t2^2
    f = SparsePolynomial(2, RATIONALS, {(-1, 0): 1, (0, 1): 1})
    assert (f ** 2).terms == {(-2, 0): 1, (-1, 1): 2, (0, 2): 1}


def test_constant_term_read_off():
    f = SparsePolynomial(2, RATIONALS, {(0, 0): 3, (1, -1): 5})
    assert f.constant_term() == 3
    g = SparsePolynomial(2, RATIONALS, {(1, 0): 1, (0, 1): 1})
    assert g.constant_term() == 0


def test_context_errors():
    a = SparsePolynomial.variable(2, 0)
    b = SparsePolynomial.variable(3, 0)
    c = SparsePolynomial.variable(2, 0, field=F5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * c


def test_no_zero_terms_stored():
    a = SparsePolynomial(1, RATIONALS, {(1,): 1})
    b = SparsePolynomial(1, RATIONALS, {(1,): -1, (0,): 2})
    assert (a + b).terms == {(0,): 2}
    # mod-p wraparound also cleans up
    c = SparsePolynomial(1, F5, {(2,): 3})
    d = SparsePolynomial(1, F5, {(2,): 2})
    assert (c + d).terms == {}


def _random_poly(rng, nvars, field, laurent=False):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        lo = -2 if laurent else 0
        e = tuple(rng.randint(lo, 3) for _ in range(nvars))
        terms[e] = rng.randint(-6, 6)
    return SparsePolynomial(nvars, field, terms)


@pytest.mark.parametrize("field", [RATIONALS, F5, PrimeField(101)])
def test_ring_axioms_randomized(field):
    rng = random.Random(20240 + (field.modulus or 0))
    for _ in range(300):
        a = _random_poly(rng, 3, field, laurent=True)
        b = _random_poly(rng, 3, field, laurent=True)
        c = _random_poly(rng, 3, field, laurent=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [F5, PrimeField(101)])
def test_reduction_mod_p_commutes_with_ring_operations(field):
    rng = random.Random(4049 + field.modulus)
    for _ in range(300):
        a = _random_poly(rng, 3, RATIONALS, laurent=True)
        b = _random_poly(rng, 3, RATIONALS, laurent=True)
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))
        fa, fb = a.convert(field), b.convert(field)
        assert (a + b).convert(field) == fa + fb
        assert (a - b).convert(field) == fa - fb
        assert (-a).convert(field) == -fa
        assert (a * b).convert(field) == fa * fb
        assert a.scale(c).convert(field) == fa.scale(c)
        for i in range(3):
            assert a.partial(i).convert(field) == fa.partial(i)


def test_coefficients_cancelling_only_mod_p_are_dropped():
    x = SparsePolynomial.variable(1, 0)
    one = SparsePolynomial.constant(1, 1)
    three, two = x.scale(3), x.scale(2)
    assert (three + two).terms == {(1,): 5}
    assert not three.convert(F5) + two.convert(F5)
    assert not three.convert(F5) - two.scale(-1).convert(F5)
    assert (-x.convert(F5)).terms == {(1,): 4}
    # (x + 1)(x + 4) = x^2 + 5x + 4
    assert ((x + one) * (x + one.scale(4))).convert(F5).terms == {
        (2,): 1, (0,): 4}
    assert ((x + one).convert(F5) * (x + one.scale(4)).convert(F5)).terms \
        == {(2,): 1, (0,): 4}
    assert not x.convert(F5).scale(5)
    assert not (x ** 5).convert(F5).partial(0)
    assert (x ** 5).partial(0).terms == {(4,): 5}


def test_partial_derivative():
    f = SparsePolynomial(2, RATIONALS, {(3, 1): 2, (0, 2): 1, (0, 0): 5})
    assert f.partial(0).terms == {(2, 1): 6}
    assert f.partial(1).terms == {(3, 0): 2, (0, 1): 2}
    # Laurent exponents differentiate like any other power
    g = SparsePolynomial(1, RATIONALS, {(-2,): 1})
    assert g.partial(0).terms == {(-3,): -2}


def _int_coefficients(f):
    return all(type(c) is int for c in f.terms.values())


def test_integer_coefficients_stay_ints_over_q():
    # a Q scalar is an int or a Fraction: ring operations on polynomials
    # built from ints make no Fraction
    rng = random.Random(1801)
    for _ in range(100):
        a = _random_poly(rng, 3, RATIONALS, laurent=True)
        b = _random_poly(rng, 3, RATIONALS, laurent=True)
        for f in (a, a + b, a - b, -a, a * b, a ** 2, a.scale(-3),
                  a.partial(1)):
            assert _int_coefficients(f), f
    assert _int_coefficients(SparsePolynomial.variable(2, 1))
    assert _int_coefficients(SparsePolynomial.constant(2, 7))
    half = SparsePolynomial.variable(2, 0).scale(Fraction(1, 2))
    assert half.terms == {(1, 0): Fraction(1, 2)}


def test_rational_scalars_are_exact():
    assert type(RATIONALS.coerce(7)) is int
    assert RATIONALS.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert RATIONALS.coerce(0.5) == Fraction(1, 2)
    assert RATIONALS.coerce("3/4") == Fraction(3, 4)
    # negative exponents of int values still evaluate exactly
    f = SparsePolynomial(2, RATIONALS, {(-1, 2): 1, (0, 0): 3})
    value = f.evaluate([2, 3])
    assert value == Fraction(15, 2) and type(value) is Fraction
    assert f.evaluate([Fraction(1, 2), -1]) == 5
    assert SparsePolynomial.zero(2).evaluate([2, 3]) == 0


def test_prime_field_scalars_are_exact():
    # anything but an int enters F_p as the rational it denotes
    F7 = PrimeField(7)
    assert F7.coerce(0.5) == 4 and F7.coerce("3/4") == 6
    assert F7.coerce(Fraction(3, 4)) == 6 and F7.coerce(-1) == 6
    with pytest.raises(ZeroDivisionError, match="1/14 vanishes mod 7"):
        F7.coerce(Fraction(1, 14))
    f = SparsePolynomial(1, F7, {(1,): 0.5, (0,): 2.0})
    assert f.terms == {(1,): 4, (0,): 2}
    assert all(type(c) is int for c in f.terms.values())
    pencil = evaluate_pencil(build_pencil(2, 4), 0.5, F7)
    assert set(pencil.terms.values()) == {4, 1}
    assert all(type(c) is int for c in pencil.terms.values())


def test_evaluate_rational_and_modular():
    f = SparsePolynomial(2, RATIONALS, {(1, 1): 1, (0, 0): 1})
    assert f.evaluate([Fraction(1, 2), Fraction(4)]) == 3
    g = f.convert(F5)
    assert g.evaluate([2, 4]) == (2 * 4 + 1) % 5


def test_monomials_of_degree_order_and_count():
    mons = list(monomials_of_degree(3, 2))
    # descending lexicographic within the degree
    assert mons == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                    (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(list(monomials_of_degree(6, 4))) == 126
    assert len(list(monomials_of_degree(10, 5))) == 2002


@pytest.mark.parametrize("nv", range(1, 6))
def test_monomials_of_degree_match_a_sorted_listing(nv):
    # every vector of the box with the right sum, sorted by grlex_key in
    # descending order; a negative degree lists nothing
    for d in range(5):
        box = product(range(d + 1), repeat=nv)
        expected = sorted((e for e in box if sum(e) == d), key=grlex_key,
                          reverse=True)
        assert monomials_of_degree(nv, d) == tuple(expected)
    assert monomials_of_degree(nv, -1) == ()


def test_convert_reduces_mod_p():
    f = SparsePolynomial(1, RATIONALS, {(1,): Fraction(1, 2), (0,): 5})
    g = f.convert(F5)
    assert g.terms == {(1,): 3}  # 1/2 = 3 mod 5; constant 5 = 0 drops


def test_primality_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)
    p = next_prime(2 ** 30)
    assert p > 2 ** 30 and is_prime(p)
