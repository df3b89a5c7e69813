"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All expectations are exact; the stated runtime budgets are asserted too.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from grasspencils.fields import PrimeField, RATIONALS
from grasspencils.grassmann import (build_pencil, enumerate_arrow_partitions,
                                    evaluate_pencil, index_to_partition,
                                    monomial_name, partition_to_index,
                                    plucker_indices, plucker_relations)
from grasspencils.griffiths import (apply_derivation, ci_bigraded_quotient,
                                    ci_context_for_pencil, graded_quotient,
                                    grassmann_jacobian_generators,
                                    invariant_subspace)
from grasspencils.linalg import row_basis
from grasspencils.periods import (default_kernel, hasse_witt,
                                  period_coefficients, truncation_search)
from grasspencils.pointcount import count_table, grassmannian_count
from grasspencils.poly import SparsePolynomial, monomials_of_degree
from grasspencils.symmetry import build_group, invariant_monomials

EXPECTED_TABLES = {
    5: [(1, 296, 1), (2, 320, 0), (3, 320, 0), (4, 296, 1)],
    7: [(1, 384, 6), (2, 388, 3), (3, 352, 2), (4, 520, 2), (5, 416, 3),
        (6, 384, 6)],
    11: [(1, 1280, 4), (2, 1392, 6), (3, 1380, 5), (4, 1712, 7),
         (5, 1536, 7), (6, 1536, 7), (7, 1536, 7), (8, 1424, 5),
         (9, 1216, 6), (10, 1544, 4)],
}

# the paper's bases of the invariant degree-4 quotient: one for the arrow
# pencil, one for the three modified pencils
REFERENCE_BASIS_24 = (
    (0, 0, 0, 0, 0, 4),   # p34^4
    (0, 0, 2, 2, 0, 0),   # p14^2 p23^2
    (0, 2, 0, 0, 2, 0),   # p13^2 p24^2
    (0, 0, 0, 0, 4, 0),   # p24^4
    (0, 0, 0, 4, 0, 0),   # p23^4
)

MODIFIED_BASIS_24 = (
    (0, 0, 0, 4, 0, 0),   # p23^4
    (0, 1, 1, 1, 1, 0),   # p13 p14 p23 p24
    (0, 0, 0, 0, 0, 4),   # p34^4
    (0, 0, 2, 2, 0, 0),   # p14^2 p23^2
    (0, 0, 0, 0, 4, 0),   # p24^4
)

REFERENCE_MONOMIALS_25 = (
    "p24^5", "p35^5", "p14*p15*p23*p24*p35", "p15^2*p23*p24*p34",
    "p13*p14*p25^2*p34", "p23^5", "p25^5", "p34^5",
    "p13*p15*p24*p25*p34", "p45^5", "p14^2*p23*p25*p35",
)


def reference_basis_25():
    """REFERENCE_MONOMIALS_25 as exponent vectors."""
    name_to_exp = {monomial_name(e, 2, 5): e
                   for e in invariant_monomials(2, 5, 5)}
    return tuple(name_to_exp[name] for name in REFERENCE_MONOMIALS_25)


def quotient_with_monomials(spec, monomials):
    """Degree-n quotient dimension at t = 2 over Q, before and after the
    given monomials join the Jacobian generators.  It drops by
    len(monomials) exactly when they are independent modulo the ideal."""
    r, n = spec.r, spec.n
    gens = grassmann_jacobian_generators(
        evaluate_pencil(spec, Fraction(2)), r, n)
    extra = [SparsePolynomial.monomial(e) for e in monomials]
    return (graded_quotient(r, n, n, gens).quotient_dim,
            graded_quotient(r, n, n, gens + extra).quotient_dim)


def _criterion(num, ok, description):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_point_count_tables():
    start = time.perf_counter()
    spec = build_pencil(2, 4)
    got = {p: [(r.t, r.count, r.residue) for r in count_table(spec, p)]
           for p in (5, 7, 11)}
    elapsed = time.perf_counter() - start
    ok = got == EXPECTED_TABLES and elapsed < 10
    _criterion(1, ok, f"tables for p=5,7,11 exact ({elapsed:.2f}s < 10s)")


def test_criterion_02_grassmannian_cardinality():
    ok = all(grassmannian_count(2, 4, p) == (p * p + 1) * (p * p + p + 1)
             for p in (5, 7, 11, 13))
    _criterion(2, ok, "|G(2,4)(F_p)| = (p^2+1)(p^2+p+1) for p=5,7,11,13")


def test_criterion_03_period_series():
    start = time.perf_counter()
    coeffs = period_coefficients(default_kernel(), 10)
    elapsed = time.perf_counter() - start
    expected = [1, 0, 12, 0, 492, 0, 32880, 0, 2743020, 0, 257986512]
    ok = coeffs == expected and elapsed < 5
    _criterion(3, ok, f"period coefficients c_0..c_10 ({elapsed:.2f}s < 5s)")


def test_criterion_04_hasse_witt_congruence():
    spec = build_pencil(2, 4)
    ok = True
    for p in (5, 7, 11):
        for rec in count_table(spec, p):
            ok = ok and (1 - hasse_witt(p, rec.t)) % p == rec.residue
    _criterion(4, ok, "1 - HW_p(t) = #X_t(F_p) mod p on every table row")


def test_criterion_05_truncation_search_empty():
    start = time.perf_counter()
    spec = build_pencil(2, 4)
    ok = True
    for p in (5, 7, 11):
        hits = truncation_search(p, count_table(spec, p))
        ok = ok and hits == []
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5
    _criterion(5, ok, f"no (a,b) truncation relation for p=5,7,11 "
                      f"({elapsed:.2f}s < 5s)")


def test_criterion_06_ci_jacobian_dimensions():
    spec = build_pencil(2, 4)
    ok = True
    worst = 0.0
    for t in (2, 3, 5):
        start = time.perf_counter()
        ctx = ci_context_for_pencil(spec, Fraction(t))
        d00 = ci_bigraded_quotient(ctx, (0, 0)).quotient_dim
        d01 = ci_bigraded_quotient(ctx, (0, 1)).quotient_dim
        worst = max(worst, time.perf_counter() - start)
        ok = ok and d00 == 1 and d01 == 89
    ok = ok and worst < 60
    _criterion(6, ok, f"CI model: dim 1 at (0,0), 89 at (0,1), three t "
                      f"values (worst {worst:.2f}s < 60s)")


def test_criterion_07_generalized_griffiths_ring():
    spec = build_pencil(2, 4)
    ok = True
    for t in (2, 3, 5):
        f = evaluate_pencil(spec, Fraction(t))
        gens = grassmann_jacobian_generators(f, 2, 4)
        gr = graded_quotient(2, 4, 4, gens).quotient_dim
        ctx = ci_context_for_pencil(spec, Fraction(t))
        ci = ci_bigraded_quotient(ctx, (0, 1)).quotient_dim
        ok = ok and gr == 89 and gr == ci
    _criterion(7, ok, "degree-4 Griffiths quotient = 89 = CI dimension "
                      "(two formalisms)")


def test_criterion_08_invariant_monomial_list():
    mons = invariant_monomials(2, 4, 4)
    names = [monomial_name(e, 2, 4) for e in mons]
    expected = ["p12^4", "p12^2*p34^2", "p12*p13*p24*p34",
                "p12*p14*p23*p34", "p13^4", "p13^2*p24^2",
                "p13*p14*p23*p24", "p14^4", "p14^2*p23^2", "p23^4",
                "p24^4", "p34^4"]
    ok = names == expected
    _criterion(8, ok, "the 12 invariant quartic monomials in graded-lex "
                      "order")


def test_criterion_09_main_theorem_all_four_pencils():
    start = time.perf_counter()
    ok = True
    for variant in ("arrow", "squares", "quads", "squares+quads"):
        spec = build_pencil(2, 4, variant)
        basis = (REFERENCE_BASIS_24 if variant == "arrow"
                 else MODIFIED_BASIS_24)
        rep = invariant_subspace(
            spec, t_values=(2, 3, 5), primes=(1048583, 2097169),
            include_rationals=True)
        # five invariant monomials independent modulo the ideal, in an
        # invariant part of dimension 5, are a basis of it
        ok = (ok and rep.invariant_dim == 5
              and len(rep.specializations) == 9
              and quotient_with_monomials(spec, basis) == (89, 89 - 5))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _criterion(9, ok, f"invariant dimension 5 for all four pencils, "
                      f"unanimous over Q and two primes, reference bases "
                      f"independent modulo the ideal ({elapsed:.1f}s "
                      f"< 120s)")


def test_criterion_10_g25_invariant_dimension():
    start = time.perf_counter()
    spec = build_pencil(2, 5)
    rep = invariant_subspace(spec, t_values=(2, 3, 7, 13),
                             primes=(1048583, 2097169))
    independent = (quotient_with_monomials(spec, reference_basis_25())
                   == (1151, 1151 - 11))
    elapsed = time.perf_counter() - start
    ok = (rep.invariant_dim == 11
          and independent
          and len(rep.specializations) == 8
          and elapsed < 900)
    _criterion(10, ok, f"G(2,5) invariant dimension 11 at t=2,3,7,13 with "
                       f"the 11 reference monomials independent modulo "
                       f"the ideal ({elapsed:.1f}s < 900s)")


def test_criterion_11_group_structures():
    g42 = build_group(4, 2)
    g52 = build_group(5, 2)
    ok = (g42.effective_order == 32
          and g42.structure == "(Z/4)^2 x (Z/2)"
          and g42.invariant_factors == (2, 4, 4)
          and g52.effective_order == 125
          and g52.structure == "(Z/5)^3"
          and g52.invariant_factors == (5, 5, 5))
    _criterion(11, ok, "|H| = 32 of type (Z/4)^2 x (Z/2) and 125 of type "
                       "(Z/5)^3")


def test_criterion_12_property_suites():
    rng = random.Random(99)
    ok = True

    # Leibniz rule, 1000 randomized cases across both fields
    fields = [RATIONALS, PrimeField(101)]
    for trial in range(1000):
        field = fields[trial % 2]
        terms_g = {tuple(rng.randint(0, 2) for _ in range(6)):
                   rng.randint(-3, 3) for _ in range(2)}
        terms_h = {tuple(rng.randint(0, 2) for _ in range(6)):
                   rng.randint(-3, 3) for _ in range(2)}
        g = SparsePolynomial(6, field, terms_g)
        h = SparsePolynomial(6, field, terms_h)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        left = apply_derivation(i, j, g * h, 2, 4)
        right = (apply_derivation(i, j, g, 2, 4) * h
                 + g * apply_derivation(i, j, h, 2, 4))
        ok = ok and left == right

    # Euler relation on every pencil polynomial
    for r, n, variant in [(2, 4, "arrow"), (2, 4, "squares"),
                          (2, 4, "quads"), (2, 4, "squares+quads"),
                          (2, 5, "arrow")]:
        f = evaluate_pencil(build_pencil(r, n, variant), Fraction(2))
        total = SparsePolynomial.zero(f.nvars)
        for i in range(1, n + 1):
            total = total + apply_derivation(i, i, f, r, n)
        ok = ok and total == f.scale(r * n)

    # Pluecker-ideal stability under every derivation
    for r, n in [(2, 4), (2, 5)]:
        rels = plucker_relations(r, n)
        nv = len(plucker_indices(r, n))
        deg2 = list(monomials_of_degree(nv, 2))
        pos = {e: k for k, e in enumerate(deg2)}
        basis = row_basis(len(deg2), RATIONALS)
        for rel in rels:
            basis.add_row({pos[e]: c for e, c in rel.terms.items()})
        for rel in rels:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    image = apply_derivation(i, j, rel, r, n)
                    if image:
                        ok = ok and basis.contains(
                            {pos[e]: c for e, c in image.terms.items()})

    # partition/index round trip, exhaustive through n = 8
    for n in range(2, 9):
        for r in range(1, n):
            for idx in combinations(range(1, n + 1), r):
                ok = ok and partition_to_index(
                    index_to_partition(idx, r, n), r, n) == idx

    # arrow-count formula through n = 10
    for n in range(4, 11):
        for r in range(2, n - 1):
            ok = ok and len(enumerate_arrow_partitions(r, n)) \
                == 2 * (r - 1) * (n - r - 1) + n

    # odd period coefficients vanish
    coeffs = period_coefficients(default_kernel(), 20)
    ok = ok and all(coeffs[k] == 0 for k in range(1, 21, 2))

    _criterion(12, ok, "Leibniz (1000 cases), Euler, ideal stability, "
                       "round trip, arrow census, odd-coefficient "
                       "vanishing")
