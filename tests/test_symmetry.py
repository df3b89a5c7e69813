import json
import random
from itertools import product
from math import gcd, prod

import pytest

from grasspencils.grassmann import (PencilSpec, build_pencil, monomial_name,
                                    plucker_indices)
from grasspencils.griffiths import _pencil_rows
from grasspencils.pointcount import _orbit_order
from grasspencils.poly import monomials_of_degree
from grasspencils.symmetry import (build_group, character, invariant_monomials,
                                   invariant_multiplicities, is_invariant,
                                   is_invariant_pencil, pencil_blocks)


def test_group_orders_and_structure():
    g42 = build_group(4, 2)
    assert g42.order == 128
    assert g42.effective_order == 32
    assert g42.invariant_factors == (2, 4, 4)
    assert g42.structure == "(Z/4)^2 x (Z/2)"

    g52 = build_group(5, 2)
    assert g52.order == 625
    assert g52.effective_order == 125
    assert g52.invariant_factors == (5, 5, 5)
    assert g52.structure == "(Z/5)^3"

    g31 = build_group(3, 1)
    assert g31.order == 9
    assert g31.effective_order == 3


def test_invariant_factors_match_brute_force_torsion():
    """Independent oracle for the structure.  Subtracting a_1 * (1,...,1)
    maps L / scalars isomorphically onto H = {a in (Z/n)^(n-1) :
    r * sum(a) = 0 mod n}, the elements of L with a_1 = 0.  For a finite
    abelian group of exponent dividing n, the numbers of elements killed by
    k = 1..n determine it, and for Z/d1 x ... they are prod gcd(k, d_i)."""
    for n in range(2, 7):
        for r in range(1, n):
            group = build_group(n, r)
            factors = group.invariant_factors
            assert all(d > 1 for d in factors)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
            h = [a for a in product(range(n), repeat=n - 1)
                 if r * sum(a) % n == 0]
            assert len(h) == group.effective_order
            for k in range(1, n + 1):
                killed = sum(1 for a in h if all(k * x % n == 0 for x in a))
                assert killed == prod(gcd(k, d) for d in factors), (n, r, k)


def _lattice_brute_force(n, r):
    return {a for a in product(range(n), repeat=n)
            if (r * sum(a)) % n == 0}


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                 (5, 2)])
def test_lattice_matches_brute_force(n, r):
    group = build_group(n, r)
    lattice = _lattice_brute_force(n, r)
    assert len(lattice) == group.order
    assert (1,) * n in lattice
    assert group.effective_order == group.order // n


def _multiplicities(exps, indices, n):
    counts = [0] * n
    for e, idx in zip(exps, indices):
        for i in idx:
            counts[i - 1] += e
    return tuple(counts)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_invariance_matches_whole_lattice(n):
    """is_invariant (c * (1,...,1) with gcd(r, n) | c) against pairing the
    index multiplicities with every element of the brute-force lattice,
    for every r and every degree 1..4.  The lattice is shuffled so that a
    non-invariant character meets a violating element early; a character
    is declared invariant only after the whole lattice is paired."""
    rng = random.Random(n)
    equal_entries = []  # (g, invariant?) of characters c * (1,...,1)
    for r in range(1, n):
        group = build_group(n, r)
        lattice = sorted(_lattice_brute_force(n, r))
        rng.shuffle(lattice)
        indices = plucker_indices(r, n)
        fixed = {}
        for degree in range(1, 5):
            invariant = 0
            for exps in monomials_of_degree(len(indices), degree):
                counts = _multiplicities(exps, indices, n)
                if counts not in fixed:
                    fixed[counts] = all(
                        sum(c * a for c, a in zip(counts, vec)) % n == 0
                        for vec in lattice)
                    if len({c % n for c in counts}) == 1:
                        equal_entries.append((gcd(r, n), fixed[counts]))
                assert is_invariant(exps, group) == fixed[counts], \
                    (n, r, exps)
                invariant += fixed[counts]
            if (r * degree) % n:
                assert invariant == 0, (n, r, degree)
    if n in (4, 6):
        # with g = gcd(r, n) > 1 both sides of g | c occur: (2,4) in
        # degree 2 (p12*p34, c = 1) and degree 4, (4,6) in degree 3, and
        # (3,6) in degree 4 (c = 2)
        assert {(2, True), (2, False)} <= set(equal_entries)
    if n == 6:
        assert (3, False) in equal_entries


def test_character_examples():
    g = build_group(4, 2)
    frozen = (1, 0, 1, 1, 0, 1)        # p12 p23 p34 p14
    assert character(frozen, g) == (2, 2, 2, 2)
    p13_4 = (0, 4, 0, 0, 0, 0)
    assert character(p13_4, g) == (0, 0, 0, 0)
    p12_3_p34 = (3, 0, 0, 0, 0, 1)
    assert character(p12_3_p34, g) == (3, 3, 1, 1)


def test_character_additivity_random():
    g = build_group(5, 2)
    nv = len(plucker_indices(2, 5))
    rng = random.Random(23)
    for _ in range(200):
        m1 = tuple(rng.randint(0, 3) for _ in range(nv))
        m2 = tuple(rng.randint(0, 3) for _ in range(nv))
        prod_mono = tuple(a + b for a, b in zip(m1, m2))
        joint = character(prod_mono, g)
        split = tuple((a + b) % 5 for a, b in
                      zip(character(m1, g), character(m2, g)))
        assert joint == split


def test_is_invariant_examples():
    g = build_group(4, 2)
    assert is_invariant((1, 0, 1, 1, 0, 1), g)      # frozen product
    assert not is_invariant((3, 0, 0, 0, 0, 1), g)  # p12^3 p34
    assert is_invariant((0, 2, 0, 0, 2, 0), g)      # p13^2 p24^2


def test_pencil_monomials_are_invariant():
    for r, n, variants in [(2, 4, ("arrow", "squares", "quads",
                                   "squares+quads")), (2, 5, ("arrow",)),
                           (3, 5, ("arrow",)), (3, 6, ("arrow",)),
                           (2, 7, ("arrow",)), (1, 4, ("arrow",))]:
        group = build_group(n, r)
        for variant in variants:
            spec = build_pencil(r, n, variant)
            for mono in spec.deforming + (spec.frozen,):
                assert is_invariant(mono, group), \
                    f"{monomial_name(mono, r, n)} not fixed ({variant})"
            assert is_invariant_pencil(spec)


def test_a_non_invariant_pencil_is_one_block_and_counted_point_by_point():
    # the (2,4) arrow pencil read from JSON with p12^3*p13 added, of
    # character (0,3,1,0) mod 4: both layers take their fallback
    doc = json.loads(build_pencil(2, 4).to_json())
    doc["variant"] = "skew"
    doc["monomials"].append([3, 1, 0, 0, 0, 0])
    spec = PencilSpec.from_json(json.dumps(doc))
    assert not is_invariant_pencil(spec)
    assert [_orbit_order(spec, p) for p in (5, 7, 13)] == [1, 1, 1]
    blocks = pencil_blocks(spec)
    assert {blocks(e) for e in monomials_of_degree(6, 4)} == {(0,) * 4}
    assert len(_pencil_rows(spec, 4)) == 1


def test_invariant_monomials_24_exact_list():
    mons = invariant_monomials(2, 4, 4)
    names = [monomial_name(e, 2, 4) for e in mons]
    assert names == [
        "p12^4", "p12^2*p34^2", "p12*p13*p24*p34", "p12*p14*p23*p34",
        "p13^4", "p13^2*p24^2", "p13*p14*p23*p24", "p14^4", "p14^2*p23^2",
        "p23^4", "p24^4", "p34^4",
    ]


@pytest.mark.parametrize("r,n,degree", [(2, 4, 4), (2, 4, 6), (3, 6, 3),
                                        (2, 6, 4), (3, 5, 5), (2, 5, 1)])
def test_invariant_multiplicities_decide_invariance(r, n, degree):
    # a monomial is invariant iff every index occurs in it a number of
    # times lying in one common class
    group = build_group(n, r)
    classes = invariant_multiplicities(r, n, degree)
    indices = plucker_indices(r, n)
    for e in monomials_of_degree(len(indices), degree):
        content = [sum(k for k, idx in zip(e, indices) if i in idx)
                   for i in range(1, n + 1)]
        assert is_invariant(e, group) == any(
            set(content) <= sizes for sizes in classes)


def test_invariant_monomials_degree_one_empty():
    assert invariant_monomials(2, 4, 1) == ()


def test_invariant_monomials_25():
    """Independent oracle: test every degree-5 monomial against the full
    lattice enumerated by brute force."""
    mons = invariant_monomials(2, 5, 5)
    assert len(mons) == 32
    names = {monomial_name(e, 2, 5) for e in mons}
    for want in ["p24^5", "p35^5", "p14*p15*p23*p24*p35",
                 "p15^2*p23*p24*p34", "p13*p14*p25^2*p34", "p23^5", "p25^5",
                 "p34^5", "p13*p15*p24*p25*p34", "p45^5",
                 "p14^2*p23*p25*p35"]:
        assert want in names

    group = build_group(5, 2)
    lattice = _lattice_brute_force(5, 2)
    indices = plucker_indices(2, 5)

    def brute_invariant(exps):
        counts = [0] * 5
        for e, idx in zip(exps, indices):
            for i in idx:
                counts[i - 1] += e
        return all(sum(c * a for c, a in zip(counts, vec)) % 5 == 0
                   for vec in lattice)

    brute = [e for e in monomials_of_degree(len(indices), 5)
             if brute_invariant(e)]
    assert brute == list(mons)


def test_invariance_agrees_with_random_lattice_elements():
    rng = random.Random(31)
    for n, r in [(4, 2), (5, 2)]:
        group = build_group(n, r)
        lattice = sorted(_lattice_brute_force(n, r))
        nv = len(plucker_indices(r, n))
        indices = plucker_indices(r, n)
        for _ in range(50):
            exps = tuple(rng.randint(0, 2) for _ in range(nv))
            closed_form = is_invariant(exps, group)
            sample = [lattice[rng.randrange(len(lattice))]
                      for _ in range(200)]
            counts = [0] * n
            for e, idx in zip(exps, indices):
                for i in idx:
                    counts[i - 1] += e
            by_sample = all(
                sum(c * a for c, a in zip(counts, vec)) % n == 0
                for vec in sample)
            # the closed form is exact; sampling can only miss violations
            if closed_form:
                assert by_sample
            else:
                # verify against the full lattice to avoid sampling flake
                by_full = all(
                    sum(c * a for c, a in zip(counts, vec)) % n == 0
                    for vec in lattice)
                assert not by_full


def test_build_group_validation():
    with pytest.raises(ValueError):
        build_group(4, 4)
    with pytest.raises(ValueError):
        build_group(1, 1)
    with pytest.raises(ValueError):
        invariant_monomials(2, 4, 0)
