import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from grasspencils.fields import PrimeField, RATIONALS
from grasspencils import grassmann, poly
from grasspencils.grassmann import (PencilSpec, build_pencil,
                                    enumerate_arrow_partitions,
                                    evaluate_pencil, frozen_variables,
                                    hilbert_function, index_content,
                                    index_to_partition,
                                    monomial_name, normal_form,
                                    normalize_partition, partition_to_index,
                                    plucker_indices, plucker_names,
                                    plucker_relations,
                                    sort_with_sign, straightening_rules)
from grasspencils.linalg import ResourceLimitError, row_basis
from grasspencils.poly import SparsePolynomial, monomials_of_degree
from grasspencils.symmetry import build_group, character
from rank_oracle import _rank_rational


def test_partition_index_examples():
    assert partition_to_index((2, 1), 2, 5) == (2, 4)
    assert partition_to_index((), 2, 5) == (1, 2)
    assert partition_to_index((), 3, 7) == (1, 2, 3)
    assert partition_to_index((2, 2), 2, 4) == (3, 4)
    assert index_to_partition((2, 5), 2, 5) == (3, 1)


def test_partition_index_round_trip_exhaustive():
    for n in range(2, 9):
        for r in range(1, n):
            for idx in combinations(range(1, n + 1), r):
                part = index_to_partition(idx, r, n)
                assert partition_to_index(part, r, n) == idx


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_to_index((3,), 2, 4)  # wider than the grid
    with pytest.raises(ValueError):
        partition_to_index((1, 2), 2, 5)  # not weakly decreasing
    with pytest.raises(ValueError):
        partition_to_index((1, 1, 1), 2, 5)  # too many parts


def test_arrow_partition_census():
    a24 = enumerate_arrow_partitions(2, 4)
    assert len(a24) == 6  # every coordinate of G(2,4) is an arrow variable
    assert set(a24) == {normalize_partition(p)
                        for p in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]}
    a25 = enumerate_arrow_partitions(2, 5)
    assert len(a25) == 9
    assert (3, 1) not in a25  # the only excess partition
    assert len(enumerate_arrow_partitions(3, 6)) == 14


def test_arrow_count_formula():
    for n in range(4, 11):
        for r in range(2, n - 1):
            assert len(enumerate_arrow_partitions(r, n)) \
                == 2 * (r - 1) * (n - r - 1) + n


def test_frozen_variables():
    assert set(frozen_variables(2, 4)) == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert set(frozen_variables(2, 5)) == {(1, 2), (2, 3), (3, 4), (4, 5),
                                           (1, 5)}
    assert set(frozen_variables(1, 3)) == {(1,), (2,), (3,)}


def test_frozen_are_full_width_full_height_or_empty():
    for r, n in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7), (4, 6)]:
        k = n - r
        expected = {()}
        expected |= {normalize_partition((c,) * r) for c in range(1, k)}
        expected |= {normalize_partition((k,) * h) for h in range(1, r + 1)}
        frozen_parts = {index_to_partition(idx, r, n)
                        for idx in frozen_variables(r, n)}
        assert frozen_parts == expected
        assert frozen_parts <= set(enumerate_arrow_partitions(r, n))


# -- Pluecker relations against the generic-minor oracle ----------------


def _minor_polynomial(rows, cols, n):
    """det of the submatrix of a generic r x n matrix of variables x_{a,i};
    exponent vectors live in the r*n entry variables."""
    r = len(rows)
    nv = r * n
    terms = {}
    for perm in permutations(range(r)):
        inversions = sum(1 for a in range(r) for b in range(a + 1, r)
                         if perm[a] > perm[b])
        sign = -1 if inversions % 2 else 1
        e = [0] * nv
        for row_i, col_i in enumerate(perm):
            e[rows[row_i] * n + (cols[col_i] - 1)] += 1
        key = tuple(e)
        terms[key] = terms.get(key, 0) + sign
    return SparsePolynomial(nv, RATIONALS, terms)


def _evaluate_in_minors(poly, r, n):
    """Substitute the generic minors for the Pluecker variables."""
    minors = [_minor_polynomial(tuple(range(r)), idx, n)
              for idx in plucker_indices(r, n)]
    nv = r * n
    total = SparsePolynomial.zero(nv)
    for e, c in poly.terms.items():
        term = SparsePolynomial.constant(nv, c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * minors[i]
        total = total + term
    return total


@pytest.mark.parametrize("r,n", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6),
                                 (4, 6)])
def test_relations_vanish_on_generic_minors(r, n):
    rels = plucker_relations(r, n)
    assert rels, f"no relations generated for ({r},{n})"
    for rel in rels:
        assert not _evaluate_in_minors(rel, r, n), \
            f"relation does not vanish for ({r},{n})"


def test_relations_trivial_cases():
    assert plucker_relations(1, 4) == ()
    assert plucker_relations(3, 4) == ()


def test_relation_count_24():
    rels = plucker_relations(2, 4)
    assert len(rels) == 1
    names = ["p12", "p13", "p14", "p23", "p24", "p34"]
    assert rels[0].to_string(names) == "p12*p34 - p13*p24 + p14*p23"


@pytest.mark.parametrize("r,n,expected_independent", [(2, 4, 1), (2, 5, 5)])
def test_relations_span_degree_two_kernel(r, n, expected_independent):
    """Oracle: the relations must span the kernel of the evaluation map
    from degree-2 monomials in p_I to polynomials in matrix entries."""
    indices = plucker_indices(r, n)
    nv = len(indices)
    deg2 = list(monomials_of_degree(nv, 2))
    pos = {e: i for i, e in enumerate(deg2)}
    # evaluation matrix: row per degree-2 monomial, columns indexed by the
    # monomials in the r*n matrix entries
    col_index = {}
    rows = []
    for e in deg2:
        poly = _evaluate_in_minors(
            SparsePolynomial(nv, RATIONALS, {e: 1}), r, n)
        row = {}
        for ee, c in poly.terms.items():
            col = col_index.setdefault(ee, len(col_index))
            row[col] = c
        rows.append(row)
    kernel_dim = len(deg2) - _rank_rational(rows, len(col_index))
    assert kernel_dim == expected_independent
    rel_rows = [{pos[e]: c for e, c in rel.terms.items()}
                for rel in plucker_relations(r, n)]
    assert row_basis(len(deg2), RATIONALS).add_rows(rel_rows) == kernel_dim


# -- pencils -------------------------------------------------------------


@pytest.mark.parametrize("r,n", [(r, n) for n in range(4, 8)
                                 for r in range(2, n - 1)])
def test_straightening_rules_are_certified(r, n):
    # building the rules runs the degree 2..4 certificate; one rule per
    # independent quadric, led by exactly the incomparable pairs p_I*p_J
    # of standard monomial theory, with coefficients +-1
    rules = straightening_rules(r, n)
    indices = plucker_indices(r, n)
    assert len(rules) == (comb(len(indices) + 1, 2)
                          - hilbert_function(r, n, 2))

    def comparable(i, j):
        pairs = list(zip(indices[i], indices[j]))
        return all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)

    assert set(rules) == {(i, j)
                          for i, j in combinations(range(len(indices)), 2)
                          if not comparable(i, j)}
    assert {c for tail in rules.values() for _, c in tail} == {1, -1}
    assert all(type(c) is int for tail in rules.values() for _, c in tail)
    # p_i*p_j minus the tail read off each rule's shifts is, up to sign,
    # a Pluecker relation whose grevlex leading term is p_i*p_j
    relations = plucker_relations(r, n)
    for (i, j), tail in rules.items():
        lead = tuple(int(v in (i, j)) for v in range(len(indices)))
        terms = {lead: 1}
        for shift, c in tail:
            terms[tuple(x + s for x, s in zip(lead, shift))] = -c
        assert any(rel.terms in (terms, {e: -c for e, c in terms.items()})
                   and max(rel.terms, key=lambda e: (
                       sum(e), [-x for x in reversed(e)])) == lead
                   for rel in relations)


def test_straightening_certificate_rejects_bad_relations(monkeypatch):
    real = plucker_relations
    monkeypatch.setattr(grassmann, "plucker_relations",
                        lambda r, n: real(r, n)[1:])
    # the first relation is the only one leading with p14*p23
    with pytest.raises(ValueError, match=r"no G\(2,5\) relation leads with "
                       r"the incomparable pair\(s\) p14\*p23$"):
        straightening_rules.__wrapped__(2, 5)
    # p12^2 - p13*p14 leads with a square, which no rule may rewrite
    square = SparsePolynomial(6, RATIONALS, {(2, 0, 0, 0, 0, 0): 1,
                                             (0, 1, 1, 0, 0, 0): -1})
    monkeypatch.setattr(grassmann, "plucker_relations", lambda r, n: (square,))
    with pytest.raises(ValueError, match=r"leads with 1\*p12\^2"):
        straightening_rules.__wrapped__(2, 4)


def test_straightening_certificate_rejects_a_lex_smaller_tail(monkeypatch):
    # p14*p23 - p23*p24 leads with p14*p23 (grevlex), but p23*p24 comes
    # after it in the candidate order, so its normal form could too
    fake = SparsePolynomial(6, RATIONALS, {(0, 0, 1, 1, 0, 0): 1,
                                           (0, 0, 0, 1, 1, 0): -1})
    monkeypatch.setattr(grassmann, "plucker_relations", lambda r, n: (fake,))
    with pytest.raises(ValueError, match=r"leads with p14\*p23 but holds "
                       r"the lex-smaller term p23\*p24"):
        straightening_rules.__wrapped__(2, 4)


def test_straightening_certificate_rejects_a_comparable_lead(monkeypatch):
    # p13*p14 - p12*p34 leads with the chain p13*p14, which must stay
    # standard
    fake = SparsePolynomial(6, RATIONALS, {(0, 1, 1, 0, 0, 0): 1,
                                           (1, 0, 0, 0, 0, 1): -1})
    monkeypatch.setattr(grassmann, "plucker_relations",
                        lambda r, n: plucker_relations(r, n) + (fake,))
    with pytest.raises(ValueError, match=r"G\(2,4\) relations lead with "
                       r"the comparable pair\(s\) p13\*p14$"):
        straightening_rules.__wrapped__(2, 4)
    # alone, it also leaves p14*p23 leading no relation
    monkeypatch.setattr(grassmann, "plucker_relations", lambda r, n: (fake,))
    with pytest.raises(ValueError, match=r"no G\(2,4\) relation leads with "
                       r"the incomparable pair\(s\) p14\*p23$"):
        straightening_rules.__wrapped__(2, 4)


def _content_of_factors(e, r, n):
    """Index content by writing the monomial out as its list of factors,
    a factor of negative exponent counting -1 per index."""
    factors = [(idx, 1 if k > 0 else -1)
               for k, idx in zip(e, plucker_indices(r, n))
               for _ in range(abs(k))]
    counts = Counter()
    for idx, sign in factors:
        for i in idx:
            counts[i] += sign
    return tuple(counts[i] for i in range(1, n + 1))


@pytest.mark.parametrize("r,n", [(2, 4), (3, 6), (2, 11)])
def test_index_content_counts_the_indices_of_the_factors(r, n):
    # random monomials, and every straightening shift, whose negative
    # entries cancel: (2,11) has two-digit indices, as n > 9
    rng = random.Random(r * 100 + n)
    nv = len(plucker_indices(r, n))
    shifts = [shift for tail in straightening_rules(r, n).values()
              for shift, _ in tail]
    monomials = [tuple(rng.randint(0, 3) for _ in range(nv))
                 for _ in range(50)]
    signed = [tuple(rng.randint(-3, 3) for _ in range(nv))
              for _ in range(50)]
    group = build_group(n, r)
    for e in shifts + monomials + signed:
        content = index_content(e, r, n)
        assert content == _content_of_factors(e, r, n), e
        assert character(e, group) == tuple(c % n for c in content)
    assert not any(any(index_content(e, r, n)) for e in shifts)
    assert any(min(e) < 0 for e in shifts)


def test_rule_keys_are_the_incomparable_pairs():
    for r, n in [(2, 4), (2, 5), (3, 6), (2, 7), (3, 7), (2, 8)]:
        indices = plucker_indices(r, n)
        assert set(straightening_rules(r, n)) == {
            (i, j) for i, j in combinations(range(len(indices)), 2)
            if not all(a <= b for a, b in zip(indices[i], indices[j]))}


def test_normal_form_example():
    # p14*p23 = p13*p24 - p12*p34, then p13*p24 stays: it is a chain
    assert dict(normal_form(2, 4, (0, 0, 1, 1, 0, 0))) == {
        (0, 1, 0, 0, 1, 0): 1, (1, 0, 0, 0, 0, 1): -1}
    assert normal_form(2, 4, (0, 1, 0, 0, 1, 0)) == (((0, 1, 0, 0, 1, 0), 1),)


@pytest.mark.parametrize("r,n,d", [(2, 5, 3), (3, 6, 2), (2, 6, 3)])
def test_normal_form_is_standard_and_congruent(r, n, d):
    # every monomial equals its normal form modulo the relation rows, and
    # the normal form has integer coefficients on standard monomials only
    rules = straightening_rules(r, n)
    nv = len(plucker_indices(r, n))
    ambient = monomials_of_degree(nv, d)
    pos = {e: k for k, e in enumerate(ambient)}
    basis = row_basis(len(ambient), RATIONALS)
    basis.add_rows({pos[tuple(m + x for m, x in zip(mult, e))]: c
                    for e, c in rel.terms.items()}
                   for rel in plucker_relations(r, n)
                   for mult in monomials_of_degree(nv, d - 2))
    standard = 0
    for e in ambient:
        nf = normal_form(r, n, e)
        assert isinstance(nf, tuple) and nf
        for s, c in nf:
            assert type(c) is int and c
            support = [v for v, k in enumerate(s) if k]
            assert not any((i, j) in rules for i in support for j in support)
        row = {pos[e]: 1}
        for s, c in nf:
            row[pos[s]] = row.get(pos[s], 0) - c
        assert basis.contains(row), e
        standard += nf == ((e, 1),)
    assert standard == hilbert_function(r, n, d) == len(ambient) - basis.rank


def test_build_pencil_shapes():
    arrow24 = build_pencil(2, 4)
    assert len(arrow24.deforming) == 6
    arrow25 = build_pencil(2, 5)
    assert len(arrow25.deforming) == 9
    assert len(build_pencil(2, 4, "squares").deforming) == 9
    assert len(build_pencil(2, 4, "quads").deforming) == 8
    assert len(build_pencil(2, 4, "squares+quads").deforming) == 11


def test_build_pencil_contents():
    spec = build_pencil(2, 4)
    fourth_powers = {tuple(4 if i == k else 0 for i in range(6))
                     for k in range(6)}
    assert set(spec.deforming) == fourth_powers
    # frozen product p12 p23 p34 p14 has exponent 1 on those four variables
    assert monomial_name(spec.frozen, 2, 4) == "p12*p14*p23*p34"
    spec25 = build_pencil(2, 5)
    assert monomial_name(spec25.frozen, 2, 5) == "p12*p15*p23*p34*p45"
    # every fifth power except the excess coordinate p25
    assert all(max(e) == 5 for e in spec25.deforming)
    names = {monomial_name(e, 2, 5) for e in spec25.deforming}
    assert "p25^5" not in names and len(names) == 9


@pytest.mark.parametrize("r, n", [(2, 4), (3, 6), (2, 10), (3, 11)])
def test_plucker_names_are_built_once_and_handed_out_fresh(r, n):
    sep = "" if n <= 9 else ","
    expected = ["p" + sep.join(map(str, idx))
                for idx in combinations(range(1, n + 1), r)]
    names = plucker_names(r, n)
    assert names == expected
    names[0] = "mutated"
    names.append("extra")
    assert plucker_names(r, n) == expected
    assert monomial_name((2,) + (0,) * (len(expected) - 1), r, n) == (
        expected[0] + "^2")
    with pytest.raises(ValueError):
        plucker_names(n, n)


def test_build_pencil_errors():
    with pytest.raises(ValueError):
        build_pencil(2, 5, "squares")
    with pytest.raises(ValueError):
        build_pencil(2, 4, "cubes")


@pytest.mark.parametrize("args,message", [
    ((2, 4, "cubes"), "unknown variant 'cubes'"),
    ((2, 5, "squares"), r"variant 'squares' is only defined for \(2,4\)"),
    ((4, 4, "arrow"), "need 1 <= r <= n-1, got r=4, n=4"),
    ((0, 3, "arrow"), "need 1 <= r <= n-1, got r=0, n=3")])
def test_cached_build_pencil_raises_on_every_call(args, message):
    # a pencil is built once per process, but a bad request is refused
    # every time, with the same message
    assert build_pencil(2, 4, "quads") is build_pencil(2, 4, "quads")
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            build_pencil(*args)


def test_build_pencil_counts_its_entries_before_building(monkeypatch):
    # (2,8): 18 arrow partitions and the frozen product, 28 entries each
    def refuse(*args):
        raise AssertionError("exponent vector built before the size guard")

    build_pencil.cache_clear()  # an earlier test may have built it
    monkeypatch.setattr(poly, "LISTING_GUARD", 500)
    monkeypatch.setattr(grassmann, "_exponent_of", refuse)
    with pytest.raises(ResourceLimitError,
                       match=r"pencil on G\(2,8\) with 532 exponents "):
        build_pencil(2, 8)
    monkeypatch.setattr(poly, "LISTING_GUARD", 532)
    with pytest.raises(AssertionError, match="before the size guard"):
        build_pencil(2, 8)


def test_evaluate_pencil():
    spec = build_pencil(2, 4)
    at_zero = evaluate_pencil(spec, 0)
    assert at_zero.terms == {spec.frozen: 1}
    # an integer t keeps the coefficients over Q ints
    at_two = evaluate_pencil(spec, 2)
    assert at_two == evaluate_pencil(spec, Fraction(2))
    assert all(type(c) is int for c in at_two.terms.values())
    assert evaluate_pencil(spec, Fraction(1, 2)).terms[spec.frozen] == 1
    over_f5 = evaluate_pencil(spec, 1, PrimeField(5))
    assert over_f5.num_terms() == 7
    assert all(c == 1 for c in over_f5.terms.values())
    squares = evaluate_pencil(build_pencil(2, 4, "squares"), 1)
    assert squares.num_terms() == 10


def test_pencil_json_round_trip():
    spec = build_pencil(2, 4, "squares+quads")
    again = PencilSpec.from_json(spec.to_json())
    assert again == spec


def test_pencil_lengths_are_checked_before_listing(monkeypatch):
    # a 60-byte document must not make the C(1500, 2) coordinates exist
    def refuse(*args):
        raise AssertionError("Pluecker coordinates listed")

    monkeypatch.setattr(grassmann, "plucker_indices", refuse)
    text = json.dumps({"r": 2, "n": 1500, "variant": "arrow",
                       "monomials": [[1500]], "frozen": [1500]})
    with pytest.raises(ValueError, match=r"does not live on G\(2,1500\)"):
        PencilSpec.from_json(text)


def test_pencil_rejects_negative_exponents():
    arrow = build_pencil(2, 4)
    laurent = (5, -1, 0, 0, 0, 0)  # p12^5/p13, total degree 4
    with pytest.raises(ValueError, match=r"pencil monomial \(5, -1, 0, 0, "
                                         r"0, 0\) has a negative exponent"):
        PencilSpec(2, 4, "arrow", arrow.deforming + (laurent,), arrow.frozen)


def test_pencil_invariant_validation():
    with pytest.raises(ValueError):
        PencilSpec(2, 4, "arrow", ((4, 0, 0, 0, 0, 0),) * 2,
                   (1, 0, 1, 1, 0, 1))
    with pytest.raises(ValueError):
        PencilSpec(2, 4, "arrow", ((3, 0, 0, 0, 0, 0),),
                   (1, 0, 1, 1, 0, 1))


def _cycle_sign(seq):
    """Sign of the permutation sorting distinct entries, from its cycles:
    a cycle of length L is a product of L - 1 transpositions."""
    target = sorted(range(len(seq)), key=seq.__getitem__)
    seen, sign = set(), 1
    for start in range(len(seq)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = target[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_sort_with_sign_is_the_parity_of_the_sorting_permutation():
    for length in range(6):
        for seq in product(range(1, 6), repeat=length):
            if len(set(seq)) < length:
                assert sort_with_sign(seq) == (None, 0), seq
            else:
                assert sort_with_sign(list(seq)) == (
                    tuple(sorted(seq)), _cycle_sign(seq)), seq
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
