from fractions import Fraction
from math import factorial

import pytest

from grasspencils import periods
from grasspencils.grassmann import build_pencil
from grasspencils.periods import (LT_LOWER, LT_UPPER, KernelVerificationError,
                                  PeriodKernel, build_period_kernel,
                                  default_kernel, hasse_witt,
                                  hypergeometric_truncation,
                                  period_coefficients, truncation_search)
from grasspencils.pointcount import PointCountRecord, count_table
from period_oracle import (full_power_coefficients,
                           meet_in_the_middle_coefficients)

# c_0..c_20 of the (2,4) arrow pencil, as the full-power route gives them
C_0_TO_20 = [1, 0, 12, 0, 492, 0, 32880, 0, 2743020, 0, 257986512, 0,
             26170078704, 0, 2797796574144, 0, 310918611526380, 0,
             35596887110962320, 0, 4172909329695526992]

# primes whose congruence and truncation search run in tier-1; p = 61 needs
# c_0..c_60
PRIMES_TO_61 = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

def test_kernel_construction_checks():
    kernel = build_period_kernel()
    assert kernel.kernel.constant_term() == 0
    assert kernel.checks["kernel_terms"] == 10
    assert "decomposition" in kernel.checks
    assert kernel.kernel.num_terms() == 10


def _drop_constant_piece(pieces):
    return tuple(p for p in pieces if p != {(3, 2, 2, 1): 1})


def _flatten_binomial(pieces):
    return tuple({e: 1 for e in p} for p in pieces)


def _shift_first_piece(pieces):
    return ({(-1, -2, -2, -2): 1},) + pieces[1:]


@pytest.mark.parametrize("mutate", [_drop_constant_piece, _flatten_binomial,
                                    _shift_first_piece])
def test_mutated_decomposition_is_rejected(monkeypatch, mutate):
    monkeypatch.setattr(periods, "_PIECES", mutate(periods._PIECES))
    with pytest.raises(KernelVerificationError, match="six pieces"):
        build_period_kernel()


def test_period_kernel_rejects_other_laurent_polynomial():
    # the coefficients come from the six pieces, so a kernel that is not
    # their sum gets no PeriodKernel
    L = build_period_kernel().kernel
    with pytest.raises(KernelVerificationError, match="six pieces"):
        PeriodKernel(L + L, {})


def test_kernel_at_all_ones():
    # B(1,1,1,1) = 1 + t*L(1,1,1,1) and the bracket sums to 21 there
    kernel = build_period_kernel()
    assert kernel.kernel.evaluate([1, 1, 1, 1]) == 21


def test_constant_term_of_kernel_square():
    # the first nontrivial series coefficient, read off directly
    L = default_kernel().kernel
    assert (L * L).constant_term() == 12


def test_series_coefficients_match_expected():
    coeffs = period_coefficients(default_kernel(), 10)
    assert coeffs == [1, 0, 12, 0, 492, 0, 32880, 0, 2743020, 0, 257986512]


def test_coefficients_match_full_power_oracle():
    kernel = build_period_kernel()
    assert (period_coefficients(kernel, 12)
            == full_power_coefficients(kernel.kernel, 12))


def test_coefficients_match_meet_in_the_middle_oracle():
    # the closed-form sum against the Laurent-power engine it replaced,
    # bit for bit through c_24 (the oracle holds L^12)
    kernel = build_period_kernel()
    assert (period_coefficients(kernel, 24)
            == meet_in_the_middle_coefficients(kernel.kernel, 24))


def test_coefficients_extend_on_demand():
    # piecewise extension, stopping at odd and even k, agrees with the
    # cached coefficients
    kernel = build_period_kernel()
    for k in (0, 1, 3, 4, 7, 8, 9, 12):
        assert period_coefficients(kernel, k) == C_0_TO_20[:k + 1]


def test_coefficients_through_c20():
    assert period_coefficients(default_kernel(), 20) == C_0_TO_20


def test_odd_coefficients_vanish():
    coeffs = period_coefficients(default_kernel(), 20)
    assert all(coeffs[k] == 0 for k in range(1, 21, 2))


def _constant_term_by_composition(kernel_poly, k):
    """Independent oracle: multinomial bookkeeping over term selections.

    ct(L^k) = sum over multisets of k kernel terms whose exponent vectors
    cancel, of the multinomial coefficient times the coefficient product.
    """
    items = list(kernel_poly.terms.items())

    def rec(pos, remaining, vec_sum, coeff_prod, used):
        if pos == len(items):
            if remaining == 0 and all(v == 0 for v in vec_sum):
                weight = factorial(k)
                for u in used:
                    weight //= factorial(u)
                return weight * coeff_prod
            return 0
        total = 0
        exp, coef = items[pos]
        for take in range(remaining + 1):
            new_vec = tuple(v + take * e for v, e in zip(vec_sum, exp))
            total += rec(pos + 1, remaining - take, new_vec,
                         coeff_prod * coef ** take, used + [take])
        return total

    return rec(0, k, (0, 0, 0, 0), Fraction(1), [])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_coefficients_against_composition_oracle(k):
    kernel = default_kernel()
    expected = (-1) ** k * _constant_term_by_composition(kernel.kernel, k)
    assert period_coefficients(kernel, k)[k] == expected


def test_hasse_witt_values():
    assert hasse_witt(5, 1) == 0   # 1 + 12 + 492 = 505 = 0 mod 5
    assert hasse_witt(7, 1) == 2   # 33385 = 2 mod 7
    assert hasse_witt(11, 1) == 8


def test_hasse_witt_congruence_with_counts():
    spec = build_pencil(2, 4)
    for p in (5, 7, 11):
        for rec in count_table(spec, p):
            assert (1 - hasse_witt(p, rec.t)) % p == rec.residue


def test_hasse_witt_congruence_beyond_tabulated_primes():
    # the congruence is a theorem about the family, not about three primes;
    # p = 13..61 need coefficients through c_12..c_60, past the tabulated
    # range
    spec = build_pencil(2, 4)
    for p in PRIMES_TO_61:
        for rec in count_table(spec, p):
            assert (1 - hasse_witt(p, rec.t)) % p == rec.residue


def test_hasse_witt_rejects_bad_prime():
    with pytest.raises(ValueError):
        hasse_witt(9, 1)
    with pytest.raises(ValueError):
        hasse_witt(2, 1)


def test_hypergeometric_at_zero():
    for p in (5, 7, 11):
        assert hypergeometric_truncation(LT_UPPER, LT_LOWER, p, 0) == 1


def test_hypergeometric_against_exact_rational_series():
    # independent route: exact Pochhammer ratios over Q, reduced at the end
    for p in (5, 7, 11, 13):
        coeffs = []
        for k in range(p):
            num = Fraction(1)
            for a in LT_UPPER:
                for i in range(k):
                    num *= a + i
            den = Fraction(factorial(k))
            for b in LT_LOWER:
                for i in range(k):
                    den *= b + i
            coeffs.append(num / den)
        # degree-1 coefficient is (1/4)(1/2)(3/4)(1/2) = 3/64
        assert coeffs[1] == Fraction(3, 64)
        for z in range(p):
            exact = sum(c * z ** k for k, c in enumerate(coeffs))
            reduced = (exact.numerator
                       * pow(exact.denominator % p, -1, p)) % p
            assert hypergeometric_truncation(LT_UPPER, LT_LOWER, p, z) \
                == reduced
    # 3/64 is 2 mod 5
    assert Fraction(3, 64).numerator * pow(64, -1, 5) % 5 == 2


def test_hypergeometric_geometric_sanity():
    # 1F0(1;;z) truncates to the plain geometric sum
    for p in (5, 11):
        for z in range(p):
            expected = sum(pow(z, k, p) for k in range(p)) % p
            assert hypergeometric_truncation([Fraction(1)], [], p, z) \
                == expected


def test_hypergeometric_rejects_bad_denominator():
    with pytest.raises(ZeroDivisionError):
        hypergeometric_truncation([Fraction(1, 5)], [], 5, 1)
    with pytest.raises(ZeroDivisionError, match="1/7"):
        hypergeometric_truncation([1], [Fraction(1, 7)], 7, 2)
    # 1/2 + k vanishes mod 5 at k = 2: the lower Pochhammer factor has no
    # inverse there
    with pytest.raises(ZeroDivisionError, match="mod 5 at k=2"):
        hypergeometric_truncation([1], [Fraction(1, 2)], 5, 1)
    # int and Fraction parameters name the same residues
    assert (hypergeometric_truncation([2, 3], [1], 7, 3)
            == hypergeometric_truncation([Fraction(2), Fraction(3)],
                                         [Fraction(1)], 7, 3))


def test_truncation_search_empty_for_arrow_pencil():
    spec = build_pencil(2, 4)
    for p in (5, 7, 11) + PRIMES_TO_61:
        assert truncation_search(p, count_table(spec, p)) == []


def test_truncation_search_requires_complete_counts():
    spec = build_pencil(2, 4)
    with pytest.raises(ValueError):
        truncation_search(5, count_table(spec, 5)[:-1])
    with pytest.raises(ValueError):
        truncation_search(7, count_table(spec, 5))


def test_truncation_search_rejects_a_repeated_t():
    # a second t = 1 record with another residue would otherwise replace
    # the first, and the search would answer for counts it was not given
    records = count_table(build_pencil(2, 4), 7)
    first = next(rec for rec in records if rec.t == 1)
    other = first.count + 1
    with pytest.raises(ValueError, match="t = 1 appears twice"):
        truncation_search(7, records + [PointCountRecord(
            p=7, t=1, count=other, residue=other % 7)])


def test_truncation_search_finds_planted_relation():
    # positive control: residues manufactured from the truncation itself
    # must be recovered, so the empty result above is not vacuous
    p, a, b = 7, 3, 2
    records = []
    for t in range(1, p):
        z = a * pow(t, b, p) % p
        residue = (1 - hypergeometric_truncation(LT_UPPER, LT_LOWER, p, z)) % p
        records.append(PointCountRecord(p=p, t=t, count=residue,
                                        residue=residue))
    hits = truncation_search(p, records)
    assert (a, b) in hits


def test_period_coefficients_validation():
    with pytest.raises(ValueError):
        period_coefficients(default_kernel(), -1)
