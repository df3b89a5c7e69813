import gc
import json
import random
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from math import gcd

import pytest

from grasspencils.fields import PrimeField, RATIONALS
from grasspencils.grassmann import (PencilSpec, _leading_pair, build_pencil,
                                    evaluate_pencil, hilbert_function,
                                    plucker_indices, plucker_relations,
                                    straightening_rules)
from grasspencils import grassmann, griffiths, linalg, poly
from grasspencils.chains import standard_monomials
from grasspencils.griffiths import (CIJacobianContext, SpecializationMismatch,
                                    apply_derivation,
                                    ci_bigraded_quotient, ci_context,
                                    ci_context_for_pencil, bigraded_monomials,
                                    consensus, graded_quotient,
                                    grassmann_jacobian_generators,
                                    invariant_subspace)
from grasspencils.linalg import ResourceLimitError, row_basis
from grasspencils.poly import SparsePolynomial, monomials_of_degree
from grasspencils.symmetry import (invariant_monomials,
                                   invariant_multiplicities, pencil_blocks)
from candidate_oracle import (full_candidate_greedy, invariant_candidates,
                              one_basis)
from rank_oracle import FractionRowBasis, _rank_rational
from test_acceptance import (MODIFIED_BASIS_24, REFERENCE_BASIS_24,
                             quotient_with_monomials, reference_basis_25)

def _coord(idx, r=2, n=4, field=RATIONALS):
    pos = {i: k for k, i in enumerate(plucker_indices(r, n))}
    return SparsePolynomial.variable(len(pos), pos[idx], field)


def test_derivation_single_coordinate_cases():
    p23 = _coord((2, 3))
    out = apply_derivation(1, 3, p23, 2, 4)
    assert out == -_coord((1, 2))     # one swap to sort (2,1)
    p13 = _coord((1, 3))
    assert not apply_derivation(1, 3, p13, 2, 4)  # {i,j} inside the index
    assert apply_derivation(2, 1, p13, 2, 4) == _coord((2, 3))
    # j absent
    assert not apply_derivation(1, 2, _coord((3, 4)), 2, 4)


@pytest.mark.parametrize("p", [5, 101])
@pytest.mark.parametrize("rn,variant", [
    ((2, 4), "arrow"), ((2, 4), "squares"), ((2, 4), "quads"),
    ((2, 4), "squares+quads"), ((2, 5), "arrow")])
def test_reduction_mod_p_commutes_with_derivations(rn, variant, p):
    # at t = p - 1 the coefficient t + 1 of shared monomials vanishes mod p
    r, n = rn
    field = PrimeField(p)
    f = evaluate_pencil(build_pencil(r, n, variant), p - 1)
    dropped = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            over_q = apply_derivation(i, j, f, r, n)
            over_p = apply_derivation(i, j, f.convert(field), r, n)
            assert over_p == over_q.convert(field)
            dropped += over_q.num_terms() - over_p.num_terms()
    if "quads" in variant or (rn, p) == ((2, 5), 5):
        assert dropped  # some coefficients cancel only mod p


def test_derivation_preserves_degree_and_frozen_example():
    frozen = (_coord((1, 2)) * _coord((2, 3)) * _coord((3, 4))
              * _coord((1, 4)))
    out = apply_derivation(1, 2, frozen, 2, 4)
    assert out.total_degree() == 4
    # the factor p23 maps to p13, contributing p12*p13*p14*p34
    assert (1, 1, 1, 0, 0, 1) in out.terms


def _random_poly(rng, nv, field, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nv
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(nv)] += 1
        terms[tuple(e)] = rng.randint(-4, 4)
    return SparsePolynomial(nv, field, terms)


def test_leibniz_rule_randomized():
    rng = random.Random(41)
    fields = [RATIONALS, PrimeField(101)]
    for trial in range(1000):
        field = fields[trial % 2]
        g = _random_poly(rng, 6, field)
        h = _random_poly(rng, 6, field)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        left = apply_derivation(i, j, g * h, 2, 4)
        right = (apply_derivation(i, j, g, 2, 4) * h
                 + g * apply_derivation(i, j, h, 2, 4))
        assert left == right


def test_euler_relation_on_pencils():
    # sum_i D^i_i f = r * deg(f) * f
    cases = [(2, 4, v) for v in ("arrow", "squares", "quads",
                                 "squares+quads")] + [(2, 5, "arrow")]
    for r, n, variant in cases:
        spec = build_pencil(r, n, variant)
        f = evaluate_pencil(spec, Fraction(3))
        total = SparsePolynomial.zero(f.nvars)
        for i in range(1, n + 1):
            total = total + apply_derivation(i, i, f, r, n)
        assert total == f.scale(r * n)


def test_derivations_preserve_plucker_ideal():
    # D(rho) stays inside the degree-2 span of the relations
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
                    if not image:
                        continue
                    row = {pos[e]: c for e, c in image.terms.items()}
                    assert basis.contains(row), (r, n, i, j)


def test_generator_list_shape():
    spec = build_pencil(2, 4)
    f = evaluate_pencil(spec, Fraction(1))
    gens = grassmann_jacobian_generators(f, 2, 4)
    assert len(gens) == 1 + 12 + 3
    assert gens[0] == f
    with pytest.raises(ValueError):
        grassmann_jacobian_generators(
            f + SparsePolynomial.variable(6, 0), 2, 4)
    # the derivations of an integer member keep int coefficients over Q
    assert all(type(c) is int
               for g in grassmann_jacobian_generators(
                   evaluate_pencil(spec, 2), 2, 4)
               for c in g.terms.values())


def test_graded_quotient_empty_ideal():
    rep = graded_quotient(2, 4, 4, [])
    assert rep.ambient == 126
    assert rep.relation_rank == 21   # quadric multiples are independent
    assert rep.quotient_dim == 105
    rep25 = graded_quotient(2, 5, 5, [])
    assert rep25.ambient == 2002
    assert rep25.quotient_dim == 1176


def test_coordinate_ring_dimensions_match_hook_content():
    assert hilbert_function(2, 4, 4) == 105
    assert hilbert_function(2, 5, 5) == 1176
    assert graded_quotient(2, 4, 4, []).quotient_dim == 105
    assert graded_quotient(2, 5, 5, []).quotient_dim == 1176


BENCH_FIELDS = [RATIONALS, PrimeField(1048583), PrimeField(2097169)]


@pytest.mark.parametrize("fld", BENCH_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("r,n,rank", [(2, 4, 21), (2, 5, 826), (3, 5, 826)])
def test_relation_rank_is_ambient_minus_hilbert_function(r, n, rank, fld):
    # standard monomial theory: the relation rows cut the slice down to the
    # Pluecker ring over every field, so eliminating them gives rank
    # ambient - HF(G(r,n), n), the relation_rank the slice reports
    nv = len(plucker_indices(r, n))
    ambient = monomials_of_degree(nv, n)
    pos = {e: k for k, e in enumerate(ambient)}
    basis = row_basis(len(ambient), fld)
    relation_rank = basis.add_rows(
        {pos[tuple(m + x for m, x in zip(mult, e))]: c
         for e, c in rel.convert(fld).terms.items()}
        for rel in plucker_relations(r, n)
        for mult in monomials_of_degree(nv, n - 2))
    assert relation_rank == rank == len(ambient) - hilbert_function(r, n, n)
    assert graded_quotient(r, n, n, []).relation_rank == rank


@pytest.mark.parametrize("t", [2, 3, 5])
def test_grassmann_quotient_dimension_89(t):
    spec = build_pencil(2, 4)
    f = evaluate_pencil(spec, Fraction(t))
    gens = grassmann_jacobian_generators(f, 2, 4)
    rep = graded_quotient(2, 4, 4, gens)
    assert rep.quotient_dim == 89
    assert rep.ambient - rep.relation_rank - rep.ideal_rank \
        == rep.quotient_dim


def test_graded_quotient_mod_p_agrees():
    spec = build_pencil(2, 4)
    for p in (1048583, 2097169):
        f = evaluate_pencil(spec, 2, PrimeField(p))
        gens = grassmann_jacobian_generators(f, 2, 4)
        assert graded_quotient(2, 4, 4, gens).quotient_dim == 89


def test_graded_quotient_rejects_oversized_generator():
    f = evaluate_pencil(build_pencil(2, 4), Fraction(2))
    with pytest.raises(ValueError):
        graded_quotient(2, 4, 3, [f])


def test_ci_bigraded_dimensions():
    for t in (2, 3, 5):
        ctx = ci_context_for_pencil(build_pencil(2, 4), Fraction(t))
        assert ci_bigraded_quotient(ctx, (0, 0)).quotient_dim == 1
        rep = ci_bigraded_quotient(ctx, (0, 1))
        assert rep.ambient == 147   # 126 quartic*y1 + 21 quadric*y2
        assert rep.ideal_rank == 58
        assert rep.quotient_dim == 89


def test_ci_cross_check_matches_grassmann_route():
    spec = build_pencil(2, 4)
    for t in (2, 7):
        ctx = ci_context_for_pencil(spec, Fraction(t))
        ci_dim = ci_bigraded_quotient(ctx, (0, 1)).quotient_dim
        f = evaluate_pencil(spec, Fraction(t))
        gr_dim = graded_quotient(
            2, 4, 4, grassmann_jacobian_generators(f, 2, 4)).quotient_dim
        assert ci_dim == gr_dim == 89


def test_ci_context_validation():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    with pytest.raises(ValueError):
        ci_context([x + x * y])  # inhomogeneous
    ctx = ci_context([x * x + y * y, x])
    assert ctx.degrees == (2, 1)
    assert bigraded_monomials(ctx, (0, 0)) == [(0, 0, 0, 0)]
    assert bigraded_monomials(ctx, (0, -1)) == []


def test_bigraded_guard_counts_before_building(monkeypatch):
    # (0, 1) on the (2,4) model: y1 x^4 and y2 x^2, C(9,4) + C(7,2) = 147
    ctx = ci_context_for_pencil(build_pencil(2, 4), Fraction(2))
    assert len(bigraded_monomials(ctx, (0, 1))) == 147
    real = griffiths.monomials_of_degree

    def y_only(nvars, degree):
        assert nvars == 2, "x-monomials built before the size guard"
        return real(nvars, degree)

    monkeypatch.setattr(poly, "LISTING_GUARD", 146)
    monkeypatch.setattr(griffiths, "monomials_of_degree", y_only)
    with pytest.raises(ResourceLimitError,
                       match="bigraded slice with 147 monomials"):
        bigraded_monomials(ctx, (0, 1))


def test_ci_generators_are_all_checked_before_any_elimination(monkeypatch):
    # f_1 = x0^2 has one row (times y1), but the non-bihomogeneous
    # f_2 = x0 + x0*x1 is rejected before any row is eliminated; with a
    # bihomogeneous f_2 = x0 the row of f_1 comes first, keyed by the
    # column of its monomial
    added = []

    class Recording:
        def __init__(self, ncols, field):
            self.inner = row_basis(ncols, field)

        @property
        def rank(self):
            return self.inner.rank

        @property
        def entries(self):
            return self.inner.entries

        def add_rows(self, rows):
            return self.inner.add_rows(added.append(r) or r for r in rows)

    monkeypatch.setattr(griffiths, "row_basis", Recording)
    x0 = SparsePolynomial.variable(4, 0)
    x1 = SparsePolynomial.variable(4, 1)
    ctx = CIJacobianContext(2, (2, 1), (x0 * x0, x0 + x0 * x1))
    with pytest.raises(ValueError, match=r"bidegree \(0, 1\): a generator "
                       "is not homogeneous"):
        ci_bigraded_quotient(ctx, (0, 1))
    assert added == []
    ci_bigraded_quotient(CIJacobianContext(2, (2, 1), (x0 * x0, x0)), (0, 1))
    assert added[0] == {griffiths._column((2, 0, 1, 0)): 1}  # x0^2 * y1


def test_listing_guard_bounds_only_what_is_listed(monkeypatch):
    # degree 5 on G(2,5) has C(14, 5) = 2002 monomials, 1176 of them
    # standard; the invariant greedy lists only the 16 standard invariant
    # ones, the Jacobian rows only the degree-0 multiplier, and the
    # straightening certificate lists nothing, so the slice fits a guard
    # of 1000, while a listing of every standard monomial is refused
    monkeypatch.setattr(poly, "LISTING_GUARD", 1000)
    poly.monomials_of_degree.cache_clear()
    straightening_rules.cache_clear()
    spec = build_pencil(2, 5)
    fld = PrimeField(1048583)
    gens = grassmann_jacobian_generators(evaluate_pencil(spec, 2, fld), 2, 5)
    assert graded_quotient(2, 5, 5, gens).quotient_dim == 1151
    report = invariant_subspace(spec, t_values=(2,), primes=(1048583,))
    assert (report.quotient_dim, report.invariant_dim) == (1151, 11)
    with pytest.raises(ResourceLimitError, match=r"standard monomials of "
                       r"G\(2,5\) in degree 5 with 1176 monomials"):
        standard_monomials(2, 5, 5)


def test_ci_model_only_for_24():
    with pytest.raises(ValueError):
        ci_context_for_pencil(build_pencil(2, 5), Fraction(2))


@pytest.mark.parametrize("variant,basis,after", [
    ("arrow", REFERENCE_BASIS_24, 84),
    ("arrow", MODIFIED_BASIS_24, 85),   # rank 4 modulo the arrow ideal
    ("squares", MODIFIED_BASIS_24, 84),
    ("quads", MODIFIED_BASIS_24, 84),
    ("squares+quads", MODIFIED_BASIS_24, 84),
])
def test_reference_bases_are_independent_mod_ideal(variant, basis, after):
    assert quotient_with_monomials(
        build_pencil(2, 4, variant), basis) == (89, after)


def test_reference_basis_25_is_independent_mod_ideal():
    assert quotient_with_monomials(
        build_pencil(2, 5), reference_basis_25()) == (1151, 1140)


@pytest.mark.parametrize("variant", ["arrow", "squares", "quads",
                                     "squares+quads"])
def test_invariant_subspace_dimension_five(variant):
    spec = build_pencil(2, 4, variant)
    report = invariant_subspace(
        spec, t_values=(2, 3, 5), primes=(1048583, 2097169),
        include_rationals=True)
    assert report.invariant_dim == 5
    assert report.quotient_dim == 89
    assert len(report.specializations) == 9  # 3 over Q + 3 per prime


def test_invariant_subspace_25():
    spec = build_pencil(2, 5)
    report = invariant_subspace(spec, t_values=(2, 3, 7, 13),
                                primes=(1048583, 2097169))
    assert report.invariant_dim == 11
    assert report.quotient_dim == 1151
    assert len(report.specializations) == 8


@pytest.mark.parametrize("dual,rn,dims", [
    ((3, 5), (2, 5), (1151, 11)), ((4, 6), (2, 6), (13824, 24)),
    ((5, 7), (2, 7), (169835, 50))], ids=["3-5", "4-6", "5-7"])
def test_dual_grassmannians_give_the_same_hodge_dimensions(dual, rn, dims):
    # G(r,n) and G(n-r,n) are one variety: every count of the invariant
    # slice, and its character blocks, agree.  The duals file their row
    # pairs under block keys at r >= 3, and G(4,6) at gcd(r, n) = 2
    reports = [invariant_subspace(build_pencil(*x), t_values=(2,),
                                  primes=(1048583,)) for x in (dual, rn)]
    keys = ("ambient", "relation_rank", "ideal_rank", "quotient_dim",
            "invariant_dim", "blocks")
    first, second = ({k: getattr(rep, k) for k in keys} for rep in reports)
    assert first == second
    assert (first["quotient_dim"], first["invariant_dim"]) == dims


ORACLE_FIELDS = (RATIONALS, PrimeField(1048583), PrimeField(2097169))


def _against_the_full_candidate_greedy(spec, degree, fields, t_values):
    """Assert that the standard candidates pick the survivors and ideal rank
    of the full-candidate greedy in every specialization."""
    r, n = spec.r, spec.n
    rows = griffiths._pencil_rows(spec, degree)
    candidates = standard_monomials(r, n, degree,
                                    invariant_multiplicities(r, n, degree))
    results = iter(griffiths._specializations(spec, degree, rows, fields,
                                              t_values, candidates))
    for fld in fields:
        for t in t_values:
            res = next(results)
            assert ((res["ideal_rank"], res["survivors"])
                    == full_candidate_greedy(spec, degree, rows, fld, t)), (
                fld.name, t)


@pytest.mark.parametrize("r,n,variant,degree,fields,t_values", [
    (2, 4, "arrow", 4, ORACLE_FIELDS, (2, 3, -1)),
    (2, 4, "squares", 4, ORACLE_FIELDS, (2, 3, -1)),
    (2, 4, "quads", 4, ORACLE_FIELDS, (2, 3, -1)),
    (2, 4, "squares+quads", 4, ORACLE_FIELDS, (2, 3, -1)),
    (2, 4, "arrow", 8, ORACLE_FIELDS, (2, 3, -1)),
    (2, 5, "arrow", 5, ORACLE_FIELDS, (2, 3, -1)),
    (3, 5, "arrow", 5, ORACLE_FIELDS, (2, 3, -1)),
    (2, 6, "arrow", 6, ORACLE_FIELDS, (2, 3, -1)),
    (3, 6, "arrow", 6, ORACLE_FIELDS, (2, 3, -1)),
    (2, 7, "arrow", 7, ORACLE_FIELDS[1:], (2, 3, -1)),
    # about 1.3 s per elimination: one specialization in the suite
    (2, 4, "arrow", 12, ORACLE_FIELDS[1:2], (-1,)),
], ids=["2-4-arrow", "2-4-squares", "2-4-quads", "2-4-squares+quads",
        "2-4-arrow-degree-8", "2-5-arrow", "3-5-arrow", "2-6-arrow",
        "3-6-arrow", "2-7-arrow-modp", "2-4-arrow-degree-12-one"])
def test_standard_candidates_match_the_full_candidate_greedy(
        r, n, variant, degree, fields, t_values):
    # t = -1 cancels the shared monomials of the quads pencils
    _against_the_full_candidate_greedy(build_pencil(r, n, variant), degree,
                                       fields, t_values)


@pytest.mark.parametrize("seed", range(12))
def test_standard_candidates_match_the_oracle_on_random_pencils(seed):
    # a pencil JSON whose deforming monomials are random invariant
    # monomials of degree n, standard or not
    rng = random.Random(seed)
    r, n = ((2, 4), (2, 5), (3, 5))[seed % 3]
    arrow = build_pencil(r, n)
    pool = [e for e in invariant_candidates(r, n, n) if e != arrow.frozen]
    doc = json.loads(arrow.to_json())
    doc["variant"] = f"random{seed}"
    doc["monomials"] = [list(e) for e in rng.sample(pool, rng.randint(1, 8))]
    spec = PencilSpec.from_json(json.dumps(doc))
    _against_the_full_candidate_greedy(spec, n, ORACLE_FIELDS, (2, 3, -1))


def _fresh_specialization(spec, degree, fld, t):
    """One specialization on the full slice: relation rows, generator rows,
    then the invariant monomials in canonical order, all in the ambient
    monomial basis."""
    r, n = spec.r, spec.n
    nv = len(plucker_indices(r, n))
    ambient = list(monomials_of_degree(nv, degree))
    pos = {e: k for k, e in enumerate(ambient)}

    def rows(polys):
        return [{pos[tuple(m + x for m, x in zip(mult, e))]: c
                 for e, c in g.terms.items()}
                for g in polys if g
                for mult in monomials_of_degree(nv, degree - g.total_degree())]

    basis = row_basis(len(ambient), fld)
    relation_rank = basis.add_rows(rows(
        rel.convert(fld) for rel in plucker_relations(r, n)))
    f = evaluate_pencil(spec, fld.coerce(t), fld)
    ideal_rank = basis.add_rows(rows(grassmann_jacobian_generators(f, r, n)))
    survivors = tuple(e for e in invariant_monomials(r, n, degree)
                      if basis.add_row({pos[e]: 1}))
    return {"ambient": len(ambient), "relation_rank": relation_rank,
            "ideal_rank": ideal_rank,
            "quotient_dim": len(ambient) - relation_rank - ideal_rank,
            "invariant_dim": len(survivors), "survivors": survivors}


@pytest.mark.parametrize("r,n,variant,degree,t_values,fields", [
    (2, 4, "arrow", 4, (2, 3, 7), ("QQ", "GF(1048583)")),
    (2, 4, "squares", 4, (2, 3, 7), ("QQ", "GF(1048583)")),
    (2, 4, "quads", 4, (2, 3, 7), ("QQ", "GF(1048583)")),
    (2, 4, "squares+quads", 4, (2, 3, 7), ("QQ", "GF(1048583)")),
    (2, 5, "arrow", 5, (2, 3, 7), ("QQ", "GF(1048583)")),
    (2, 6, "arrow", 6, (2,), ("GF(1048583)",)),
    (2, 4, "arrow", 8, (2,), ("QQ", "GF(1048583)")),
    (2, 4, "arrow", 4, (Fraction(1, 2), 3), ("QQ", "GF(1048583)")),
], ids=["2-4-arrow", "2-4-squares", "2-4-quads", "2-4-squares+quads",
        "2-5-arrow", "2-6-arrow-modp", "2-4-arrow-degree-8",
        "2-4-arrow-t-half"])
def test_shared_relation_basis_matches_fresh_slices(r, n, variant, degree,
                                                    t_values, fields,
                                                    monkeypatch):
    # the standard-monomial route reports what the full slice, relation
    # rows included, gives for every specialization
    real = griffiths._specializations
    recorded = []

    def recording(spec, degree, rows, fields, t_values, *args):
        results = real(spec, degree, rows, fields, t_values, *args)
        recorded.extend((fld, t, res) for (fld, t), res in zip(
            ((fld, t) for fld in fields for t in t_values), results))
        return results

    monkeypatch.setattr(griffiths, "_specializations", recording)
    spec = build_pencil(r, n, variant)
    invariant_subspace(spec, degree=degree, t_values=t_values,
                       primes=(1048583,), include_rationals="QQ" in fields)
    assert [(fld.name, str(t)) for fld, t, _ in recorded] == [
        (name, str(t)) for name in fields for t in t_values]
    for fld, t, res in recorded:
        fresh = _fresh_specialization(spec, degree, fld, t)
        assert {k: res[k] for k in fresh} == fresh, (fld.name, t)


def _one_basis_specialization(spec, degree, rows, fld, t, candidates):
    """The route the character blocks replace: every row a + t*b of the
    slice in one basis, offered the candidates."""
    key = griffiths._column_key(degree)
    basis, dims = one_basis(spec, degree, rows, fld, t)
    survivors = tuple(e for e in candidates if basis.add_row({key(e): 1}))
    return {**dims, "survivors": survivors}


def _pencil_json(spec, variant, monomials):
    doc = json.loads(spec.to_json())
    doc.update(variant=variant, monomials=[list(e) for e in monomials])
    return PencilSpec.from_json(json.dumps(doc))


_ARROW_24 = build_pencil(2, 4)
# the frozen monomial is also deforming: at t = -1 its derivative rows,
# single-row blocks, vanish
_CANCEL_24 = _pencil_json(_ARROW_24, "cancel",
                          _ARROW_24.deforming[:1] + _ARROW_24.deforming[-1:]
                          + (_ARROW_24.frozen,))
# p12^3*p13 is not invariant, so the slice is one block
_SKEW_24 = _pencil_json(_ARROW_24, "skew", ((3, 1, 0, 0, 0, 0),)
                        + _ARROW_24.deforming[1:])


def _random_invariant_pencil(seed):
    rng = random.Random(seed)
    r, n = ((2, 4), (2, 5), (3, 5))[seed % 3]
    arrow = build_pencil(r, n)
    pool = [e for e in invariant_candidates(r, n, n) if e != arrow.frozen]
    return _pencil_json(arrow, f"random{seed}",
                        rng.sample(pool, rng.randint(1, 8)))


@pytest.mark.parametrize("spec,degree,fields,t_values", [
    *[(build_pencil(2, 4, v), 4, ORACLE_FIELDS[:2], (2, 3, -1)) for v in
      ("arrow", "squares", "quads", "squares+quads")],
    (build_pencil(2, 5), 5, ORACLE_FIELDS[:2], (2, 3, -1)),
    (_ARROW_24, 8, ORACLE_FIELDS[:2], (2, -1)),
    # about 1 s and 1.5 s per specialization on the two routes
    (_ARROW_24, 12, ORACLE_FIELDS[:1], (-1,)),
    (_ARROW_24, 12, ORACLE_FIELDS[1:2], (2,)),
    (_CANCEL_24, 4, ORACLE_FIELDS[:2], (2, -1)),
    (_SKEW_24, 4, ORACLE_FIELDS[:2], (2, 3)),
    *[(_random_invariant_pencil(seed), None, ORACLE_FIELDS[:2], (2, 3, -1))
      for seed in range(6)]],
    ids=["2-4-arrow", "2-4-squares", "2-4-quads", "2-4-squares+quads",
         "2-5-arrow", "2-4-arrow-degree-8", "2-4-arrow-degree-12-QQ",
         "2-4-arrow-degree-12-modp", "2-4-cancel", "2-4-skew",
         *[f"random{seed}" for seed in range(6)]])
def test_block_route_matches_the_one_basis_route(spec, degree, fields,
                                                 t_values):
    # ideal_rank, quotient_dim and the survivors are those of one basis for
    # the slice
    r, n = spec.r, spec.n
    degree = degree or n
    rows = griffiths._pencil_rows(spec, degree)
    candidates = standard_monomials(r, n, degree,
                                    invariant_multiplicities(r, n, degree))
    # in degree n every off-diagonal D^i_j f is alone in its block
    single_rows = sum(len(free) + len(pairs) == 1
                      for free, pairs in rows.values())
    if spec is _SKEW_24 or degree > n:
        assert single_rows == 0
    else:
        assert single_rows >= n * (n - 1)
    results = iter(griffiths._specializations(spec, degree, rows, fields,
                                              t_values, candidates))
    for fld in fields:
        for t in t_values:
            fast = next(results)
            slow = _one_basis_specialization(spec, degree, rows, fld, t,
                                             candidates)
            assert {k: fast[k] for k in slow} == slow, (fld.name, t)


@pytest.mark.parametrize("degree,fields,t_values,made", [
    # the trivial block, with a basis per field and its copy at each t;
    # every other block in degree n is one row
    (4, ORACLE_FIELDS[:2], (2, 3), 2 * (1 + 2)),
    (8, ORACLE_FIELDS[1:2], (2, 3), 32 * (1 + 2))],
    ids=["2-4", "2-4-degree-8-modp"])
def test_no_basis_outlives_its_block(degree, fields, t_values, made,
                                     monkeypatch):
    # a block starts with the basis of its rows free of t over the first
    # field; by then every basis of the blocks before it, copies included,
    # is gone, and when the call returns none is left
    refs, real_copy = [], linalg._RowBasis.copy

    def dead():
        gc.collect()
        return all(ref() is None for ref in refs)

    def made_here(ncols, field):
        if field == fields[0]:
            assert dead(), f"a basis outlived its block ({len(refs)} made)"
        basis = row_basis(ncols, field)
        refs.append(weakref.ref(basis))
        return basis

    def copied(basis):
        copy = real_copy(basis)
        refs.append(weakref.ref(copy))
        return copy

    monkeypatch.setattr(griffiths, "row_basis", made_here)
    monkeypatch.setattr(linalg._RowBasis, "copy", copied)
    report = invariant_subspace(
        _ARROW_24, degree=degree, t_values=t_values,
        primes=[fld.modulus for fld in fields if fld.modulus],
        include_rationals=RATIONALS in fields)
    assert report.invariant_dim == {4: 5, 8: 6}[degree]
    assert len(refs) == made and dead()


def test_live_bases_hold_at_most_the_entry_limit(monkeypatch):
    # (2,4) in degree 8 at t = 2, 3 over Q and mod p stores at most 187
    # entries in one basis; with the cap there, the bases alive after any
    # add_row, each row they share counted once, hold at most the cap
    live, held = weakref.WeakSet(), []
    real_copy, real_add = linalg._RowBasis.copy, linalg._RowBasis.add_row

    def made(basis):
        live.add(basis)
        return basis

    def add_row(basis, row):
        kept = real_add(basis, row)
        stored = {id(r): len(r) for b in live for r in b.rows.values()}
        held.append(sum(stored.values()))
        return kept

    monkeypatch.setattr(griffiths, "row_basis",
                        lambda ncols, field: made(row_basis(ncols, field)))
    monkeypatch.setattr(linalg._RowBasis, "copy",
                        lambda basis: made(real_copy(basis)))
    monkeypatch.setattr(linalg._RowBasis, "add_row", add_row)
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 187)
    report = invariant_subspace(_ARROW_24, degree=8, t_values=(2, 3),
                                primes=(1048583,), include_rationals=True)
    assert report.invariant_dim == 6
    assert max(held) == linalg._ENTRY_LIMIT


def test_a_trivial_block_without_rows_keeps_every_candidate():
    # no rows in the trivial block: it is still visited, so every candidate
    # survives, as one basis for the whole slice gives (the hand-made
    # block's columns are negative, so no candidate meets them)
    rows = griffiths._split([("other", ({-1: 1, -3: 1}, {})),
                             ("other", ({-3: 1}, {-5: 1}))])
    candidates = standard_monomials(2, 4, 4, invariant_multiplicities(2, 4, 4))
    fields, t_values = ORACLE_FIELDS[:2], (2, 3)
    results = griffiths._specializations(_ARROW_24, 4, rows, fields, t_values,
                                         candidates)
    for res, (fld, t) in zip(results, [(fld, t) for fld in fields
                                       for t in t_values]):
        assert (res["t"], res["field"]) == (str(t), fld.name)
        assert (res["ideal_rank"], res["survivors"]) == (2, candidates)
        slow = _one_basis_specialization(_ARROW_24, 4, rows, fld, t,
                                         candidates)
        assert {k: res[k] for k in slow} == slow


@contextmanager
def _cold_row_caches():
    """Drop the cached complete-intersection pairs (and the bases kept with
    them) before and after the block, so it builds and eliminates its own;
    the rows of a Griffiths slice are never kept between calls."""
    griffiths._pencil_ci_rows.cache_clear()
    try:
        yield
    finally:
        griffiths._pencil_ci_rows.cache_clear()


class _OracleTwin:
    """row_basis over Q run beside the Fraction echelon oracle; every
    add_row answer of the two must agree.  Each twin, copies
    included, is appended to made."""

    def __init__(self, ncols, field, made):
        assert field == RATIONALS
        self.fast = row_basis(ncols, field)
        self.slow = FractionRowBasis()
        self.made = made
        made.append(self)

    @property
    def entries(self):
        return self.fast.entries

    def copy(self):
        twin = _OracleTwin(None, RATIONALS, self.made)
        twin.fast = self.fast.copy()
        twin.slow.rows = dict(self.slow.rows)
        twin.slow.entries = self.slow.entries
        return twin

    @property
    def rank(self):
        return self.fast.rank

    def add_row(self, row):
        kept = self.fast.add_row(row)
        assert kept == self.slow.add_row(row)
        return kept

    def add_rows(self, rows):
        return sum(1 for row in rows if self.add_row(row))


@pytest.mark.parametrize("r,n,variant,degree,t_values", [
    (2, 4, "arrow", 4, (2, 3)), (2, 4, "squares", 4, (2, 3)),
    (2, 4, "quads", 4, (2, 3)), (2, 4, "squares+quads", 4, (2, 3)),
    (2, 5, "arrow", 5, (2,)), (2, 4, "arrow", 8, (2,))],
    ids=["2-4-arrow", "2-4-squares", "2-4-quads", "2-4-squares+quads",
         "2-5-arrow", "2-4-arrow-degree-8"])
def test_integer_rows_match_the_fraction_oracle(r, n, variant, degree,
                                                t_values, monkeypatch):
    # every basis over Q of a shipped slice, and of the complete-
    # intersection model of each (2,4) pencil, stores at each pivot a
    # primitive int multiple of the oracle's monic row, so the ranks,
    # entries and survivors are the oracle's
    fresh, twins = [], []

    def twin(ncols, field):
        fresh.append(_OracleTwin(ncols, field, twins))
        return fresh[-1]

    monkeypatch.setattr(griffiths, "row_basis", twin)
    spec = build_pencil(r, n, variant)
    with _cold_row_caches():
        invariant_subspace(spec, degree=degree, t_values=t_values)
        if degree == n == 4:
            for t in t_values:
                ctx = ci_context_for_pencil(spec, Fraction(t))
                for b in (0, 1):
                    ci_bigraded_quotient(ctx, (0, b))
    # the rows free of t are eliminated once per block over Q, in a basis
    # that each t copies: the trivial block in degree n, each of the 32
    # blocks in degree 8 (one of them with no such rows), and each of the
    # two bidegrees of the complete-intersection model (bidegree (0, 0)
    # with no rows at all); a block of one row needs no basis
    assert (len(fresh), len(twins)) == {
        4: (1 + 2, 3 + 3 * 2), 5: (1, 1 + 1), 8: (32, 32 + 32)}[degree]
    for tw in twins:
        fast, slow = tw.fast, tw.slow
        assert fast.rows.keys() == slow.rows.keys()
        assert fast.entries == slow.entries
        for pc, row in fast.rows.items():
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1
            assert row == {c: row[pc] * v for c, v in slow.rows[pc].items()}


def _field_rows(rows, fld):
    """The rows coerced into fld, without zero entries or zero rows."""
    out = []
    for row in rows:
        row = {c: v for c, v in ((c, fld.coerce(v)) for c, v in row.items())
               if v}
        if row:
            out.append(row)
    return out


def _rows_at_match(blocks, t, rows, fld):
    """Whether a {key: (rows free of t, pairs)} split gives at t the rows,
    up to their order: each pair (a, b) exactly as a + t*b, and each row
    free of t as it is or times t (a pair (0, b) is held as b).  Rows that
    vanish in fld are left out on both sides, as _field_rows does."""
    rest = Counter(tuple(sorted(row.items()))
                   for row in _field_rows(rows, fld))

    def take(*options):
        options = _field_rows(options, fld)
        for row in options:
            if rest[key := tuple(sorted(row.items()))]:
                rest[key] -= 1
                return True
        return not options

    for free, pairs in blocks.values():
        if not (all(take(row) for row in griffiths._at(pairs, t))
                and all(take(row, {c: t * v for c, v in row.items()})
                        for row in free)):
            return False
    return not any(rest.values())


@pytest.mark.parametrize("fld", [RATIONALS, PrimeField(1048583)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("r,n,variant,degree", [
    (2, 4, "arrow", 4), (2, 4, "squares", 4), (2, 4, "quads", 4),
    (2, 4, "squares+quads", 4), (2, 5, "arrow", 5), (2, 4, "arrow", 8)])
def test_pencil_rows_match_the_rows_of_each_specialization(r, n, variant,
                                                           degree, fld):
    # the rows a + t*b built once over Z are, row by row up to order, the
    # standard rows of the generator multiples of f_t by the standard
    # monomials, built in the field (a row free of t possibly times t);
    # t = -1 cancels the shared monomials of the quads pencils
    spec = build_pencil(r, n, variant)
    nv = len(plucker_indices(r, n))
    rows = griffiths._pencil_rows(spec, degree)
    standard = [m for m in monomials_of_degree(nv, degree - n)
                if _leading_pair(m, straightening_rules(r, n)) is None]
    for t in (2, 3, -1):
        gens = grassmann_jacobian_generators(
            evaluate_pencil(spec, t, fld), r, n)
        key = griffiths._column_key(degree)
        slow = [griffiths._standard_row(r, n, mult, g, key) for g in gens
                if g for mult in standard]
        assert _rows_at_match(rows, t, slow, fld), t


@pytest.mark.parametrize("r,n,variant,degree,pairs,entries", [
    (2, 4, "arrow", 4, 16, 64), (2, 4, "squares", 4, 16, 91),
    (2, 4, "quads", 4, 16, 73), (2, 4, "squares+quads", 4, 16, 91),
    (2, 5, "arrow", 5, 25, 149), (2, 6, "arrow", 6, 36, 311),
    (2, 4, "arrow", 8, 1680, 8056)])
def test_shipped_slices_hold_their_rows_below_the_entry_limit(
        r, n, variant, degree, pairs, entries):
    # every row pair is held for the whole call, so the guard counts them;
    # no shipped slice comes near it
    rows = griffiths._pencil_rows(build_pencil(r, n, variant), degree)
    held = [(row,) for free, _ in rows.values() for row in free] + [
        pair for _, carried in rows.values() for pair in carried]
    assert len(held) == pairs
    assert all(type(v) is int for pair in held for row in pair
               for v in row.values())
    assert sum(len(row) for pair in held for row in pair) == entries
    assert entries < griffiths._ENTRY_LIMIT


_SPECIALIZATIONS = griffiths._specializations
_COPY = linalg._RowBasis.copy


def _keyed_runs(spec, degree, fld, monkeypatch, key):
    """The specialization results and echelon bases, copies included, of
    one invariant_subspace run (and, over Q on G(2,4) in degree 4, of the
    complete-intersection slices) with the columns keyed by key."""
    monkeypatch.setattr(griffiths, "_column", key)
    bases, results = [], []

    def recording(*args):
        found = _SPECIALIZATIONS(*args)
        results.extend(found)
        return found

    def kept(basis):
        bases.append(basis)
        return basis

    monkeypatch.setattr(griffiths, "row_basis",
                        lambda ncols, field: kept(row_basis(ncols, field)))
    monkeypatch.setattr(linalg._RowBasis, "copy",
                        lambda basis: kept(_COPY(basis)))
    monkeypatch.setattr(griffiths, "_specializations", recording)
    with _cold_row_caches():
        invariant_subspace(spec, degree=degree, t_values=(2, 3, -1),
                           primes=() if fld == RATIONALS else (fld.modulus,))
        if fld == RATIONALS and degree == spec.n == 4:
            for t in (2, -1):
                ctx = ci_context_for_pencil(spec, t)
                for b in (0, 1):
                    ci_bigraded_quotient(ctx, (0, b))
    return results, bases


@pytest.mark.parametrize("fld", [RATIONALS, PrimeField(1048583)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("r,n,variant,degree", [
    (2, 4, "arrow", 4), (2, 4, "squares", 4), (2, 4, "quads", 4),
    (2, 4, "squares+quads", 4), (2, 5, "arrow", 5), (2, 4, "arrow", 8)])
def test_int_columns_match_exponent_tuple_columns(r, n, variant, degree, fld,
                                                   monkeypatch):
    # keying every column by its exponent tuple instead of its int changes
    # no result, no pivot (under the key map), no stored row and no count
    spec = build_pencil(r, n, variant)
    column = griffiths._column
    fast = _keyed_runs(spec, degree, fld, monkeypatch, column)
    slow = _keyed_runs(spec, degree, fld, monkeypatch, lambda e: e)
    assert fast[0] == slow[0]
    # per block the basis of the rows free of t and its copy at each of
    # three t (blocks as in test_integer_rows_match_the_fraction_oracle);
    # over Q on G(2,4) each bidegree adds its basis and a copy at each of
    # two t
    assert len(fast[1]) == len(slow[1]) == {
        4: 1 + 3 + 2 * (1 + 2) * (fld == RATIONALS), 5: 1 + 3,
        8: 32 + 3 * 32}[degree]
    for by_int, by_tuple in zip(fast[1], slow[1]):
        assert all(type(pc) is int for pc in by_int.rows)
        assert by_int.rows == {
            column(pc): {column(c): v for c, v in row.items()}
            for pc, row in by_tuple.rows.items()}
        assert by_int.entries == by_tuple.entries


def test_int_columns_keep_the_order_of_the_exponent_vectors():
    rng = random.Random(31)
    vectors = [tuple(rng.choice((0, 1, 2, 254, 255)) for _ in range(6))
               for _ in range(300)]
    assert sorted(vectors, key=griffiths._column) == sorted(vectors)
    assert len(set(map(griffiths._column, vectors))) == len(set(vectors))
    # exponents past a byte keep their vectors as columns
    assert griffiths._column_key(255) is griffiths._column
    assert griffiths._column_key(256) is tuple
    for degree in (255, 256):
        rep = invariant_subspace(build_pencil(1, 2), degree=degree,
                                 t_values=(2,))
        assert (rep.quotient_dim, rep.invariant_dim) == (0, 0)


def _direct_ci_rows(ctx, bidegree):
    """The rows of the complete-intersection slice of ctx, built from its
    own generators: each nonzero generator times every monomial of the
    complementary bidegree."""
    a, b = bidegree
    rows = []
    for g in griffiths._ci_generators(ctx):
        if not g:
            continue
        ga, gb = griffiths._bidegree(min(g.terms), ctx.nx, ctx.degrees)
        rows += [{griffiths._column(tuple(map(sum, zip(mult, e)))): c
                  for e, c in g.terms.items()}
                 for mult in bigraded_monomials(ctx, (a - ga, b - gb))]
    return rows


@pytest.mark.parametrize("variant", ["arrow", "squares", "quads",
                                     "squares+quads"])
def test_ci_pairs_match_the_rows_of_each_member(variant, monkeypatch):
    # the pairs (a, b) built once per pencil give at t the rows of the
    # member's own context, up to order (a row free of t possibly times t);
    # the cached basis is that of the rows free of t.  t = -1 cancels the
    # shared monomials of quads
    spec = build_pencil(2, 4, variant)
    quadric = plucker_relations(2, 4)[0]
    real, split = griffiths._split, []
    monkeypatch.setattr(griffiths, "_split", lambda rows: (
        split.append(real(rows)) or split[-1]))
    with _cold_row_caches():
        held = [griffiths._pencil_ci_rows(spec, bd) for bd in ((0, 0), (0, 1))]
    blocks = split[:2]
    for (fixed, pairs), block in zip(held, blocks):
        free, carried = block.get(None, ((), ()))
        assert pairs is carried
        basis = row_basis(None, RATIONALS)
        assert basis.add_rows(free) == fixed.rank
        assert basis.rows == fixed.rows
    for t in (2, 3, -1, Fraction(1, 2)):
        member = ci_context([evaluate_pencil(spec, t), quadric])
        ctx = ci_context_for_pencil(spec, t)
        assert (ctx.pencil, ctx.t, ctx.polys) == (spec, t, member.polys)
        for bidegree, block in zip(((0, 0), (0, 1)), blocks):
            assert _rows_at_match(block, t, _direct_ci_rows(member, bidegree),
                                  RATIONALS), (t, bidegree)
        assert tuple(ci_bigraded_quotient(ctx, (0, b)).quotient_dim
                     for b in (0, 1)) == (1, 89)


@pytest.mark.parametrize("fld", [RATIONALS, PrimeField(1048583)],
                         ids=lambda f: f.name)
def test_plain_ci_context_eliminates_its_rows_in_one_basis(fld,
                                                           monkeypatch):
    # a context that names no pencil builds the rows of its own generators
    # and eliminates them in one basis per bidegree, copying none
    spec = build_pencil(2, 4, "squares+quads")
    ctx = ci_context([evaluate_pencil(spec, 3, fld),
                      plucker_relations(2, 4)[0].convert(fld)])
    assert (ctx.pencil, ctx.t) == (None, 0)
    held, bases = [], []
    real = griffiths._ci_rows

    def recording(*args):
        held.append(real(*args))
        return held[-1]

    monkeypatch.setattr(griffiths, "_ci_rows", recording)
    monkeypatch.setattr(griffiths, "row_basis", lambda ncols, field: (
        bases.append(row_basis(ncols, field)) or bases[-1]))
    monkeypatch.setattr(linalg._RowBasis, "copy", None)  # never reached
    assert tuple(ci_bigraded_quotient(ctx, (0, b)).quotient_dim
                 for b in (0, 1)) == (1, 89)
    assert [basis.field for basis in bases] == [fld, fld]
    for rows, bidegree in zip(held, ((0, 0), (0, 1))):
        assert all(key is None and len(row) == 1 for key, row in rows)
        assert [row for _, (row,) in rows] == _direct_ci_rows(ctx, bidegree)


def test_held_ci_pairs_count_against_the_entry_limit(monkeypatch):
    spec = build_pencil(2, 4, "squares")
    held, real = [], griffiths._ci_rows
    monkeypatch.setattr(griffiths, "_ci_rows", lambda *args: (
        held.append(real(*args)) or held[-1]))
    with _cold_row_caches():
        griffiths._pencil_ci_rows(spec, (0, 1))
    entries = sum(len(row) for _, pair in held[0] for row in pair)
    ctx = ci_context_for_pencil(spec, 2)
    monkeypatch.setattr(griffiths, "_ENTRY_LIMIT", entries)
    assert ci_bigraded_quotient(ctx, (0, 1)).quotient_dim == 89
    griffiths._pencil_ci_rows.cache_clear()
    monkeypatch.setattr(griffiths, "_ENTRY_LIMIT", entries - 1)
    monkeypatch.setattr(griffiths, "row_basis", None)  # never reached
    with pytest.raises(ResourceLimitError,
                       match=rf"complete-intersection rows in bidegree "
                             rf"\(0, 1\): {entries} entries exceed the "
                             rf"{entries - 1} entry limit"):
        ci_bigraded_quotient(ctx, (0, 1))
    griffiths._pencil_ci_rows.cache_clear()


def test_independent_extension_on_ideal_slice():
    """Greedy rank extension of the degree-4 ideal span of the arrow pencil
    by the 12 invariant monomials keeps 5 of them."""
    f = evaluate_pencil(build_pencil(2, 4), Fraction(2))
    gens = grassmann_jacobian_generators(f, 2, 4)
    deg4 = list(monomials_of_degree(6, 4))
    pos = {e: k for k, e in enumerate(deg4)}
    rows = []
    rel = plucker_relations(2, 4)[0]
    for mult in monomials_of_degree(6, 2):
        rows.append({pos[tuple(m + x for m, x in zip(mult, e))]: c
                     for e, c in rel.terms.items()})
    for g in gens:
        rows.append({pos[e]: c for e, c in g.terms.items()})
    basis = row_basis(len(deg4), RATIONALS)
    assert basis.add_rows(rows) == 37  # 21 relation multiples + 16 generators
    assert _rank_rational(rows, len(deg4)) == 37
    kept = [e for e in invariant_monomials(2, 4, 4)
            if basis.add_row({pos[e]: 1})]
    assert len(kept) == 5


def test_quotient_dimension_of_quadric_multiples():
    """Direct rank oracle for the 21 quadric multiples inside degree 4."""
    deg4 = list(monomials_of_degree(6, 4))
    pos = {e: k for k, e in enumerate(deg4)}
    rel = plucker_relations(2, 4)[0]
    rows = []
    for mult in monomials_of_degree(6, 2):
        rows.append({pos[tuple(m + x for m, x in zip(mult, e))]: c
                     for e, c in rel.terms.items()})
    assert _rank_rational(rows, 126) == 21
    assert 126 - row_basis(126, RATIONALS).add_rows(rows) == 105


def test_invariant_dim_monotone_under_larger_ideal():
    spec = build_pencil(2, 4)
    base = invariant_subspace(spec, t_values=(2,), primes=(),
                              include_rationals=True)
    f = evaluate_pencil(spec, Fraction(2))
    gens = grassmann_jacobian_generators(f, 2, 4)
    # enlarge the ideal by one invariant monomial
    extra = SparsePolynomial(6, RATIONALS, {(0, 0, 0, 4, 0, 0): 1})
    nv = 6
    deg4 = list(monomials_of_degree(nv, 4))
    pos = {e: k for k, e in enumerate(deg4)}
    basis = row_basis(len(deg4), RATIONALS)
    rel = plucker_relations(2, 4)[0]
    for mult in monomials_of_degree(nv, 2):
        basis.add_row({pos[tuple(m + x for m, x in zip(mult, e))]: c
                       for e, c in rel.terms.items()})
    for g in gens + [extra]:
        basis.add_row({pos[e]: c for e, c in g.terms.items()})
    survivors = [e for e in invariant_monomials(2, 4, 4)
                 if basis.add_row({pos[e]: 1})]
    assert len(survivors) <= base.invariant_dim


def test_rows_enter_a_prime_field_without_per_entry_coercion(monkeypatch):
    # the rows a + t*b enter the kernel through its one integer rule; the
    # only coercions left are the checks that each t is nonzero in F_p
    real, calls = PrimeField.coerce, []

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(PrimeField, "coerce", counting)
    rep = invariant_subspace(build_pencil(2, 4), t_values=(2, 3),
                             primes=(1048583,))
    assert rep.invariant_dim == 5
    assert calls == [2, 3]


def test_invariant_subspace_rejects_bad_inputs(monkeypatch):
    spec = build_pencil(2, 4)
    with pytest.raises(ValueError):
        invariant_subspace(spec, t_values=(2,), primes=(2,))  # 2 divides n
    with pytest.raises(ValueError):
        invariant_subspace(spec, t_values=(), primes=())
    with pytest.raises(ValueError, match="modulus 0 is not prime"):
        invariant_subspace(spec, t_values=(2,), primes=(0,))
    with pytest.raises(ValueError):
        # t = 0 in the prime field
        invariant_subspace(spec, t_values=(1048583,), primes=(1048583,),
                           include_rationals=False)

    # a t vanishing in the last field is caught before any slice is built,
    # not after the earlier specializations ran
    calls = []
    real = griffiths._pencil_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(griffiths, "_pencil_rows", counting)
    with pytest.raises(ValueError,
                       match=r"t = 1048583 vanishes in GF\(1048583\)"):
        invariant_subspace(build_pencil(2, 5), t_values=(2, 3, 1048583),
                           primes=(1048583,), include_rationals=True)
    assert calls == []


def test_specialization_mismatch_raised_on_disagreement(monkeypatch):
    from grasspencils import griffiths as g

    real = g._specializations
    calls = []

    def wobbly(*args):
        results = real(*args)
        calls.append(results)
        results[1] = dict(results[1], invariant_dim=results[1][
            "invariant_dim"] + 1)
        return results

    monkeypatch.setattr(g, "_specializations", wobbly)
    with pytest.raises(SpecializationMismatch) as excinfo:
        g.invariant_subspace(build_pencil(2, 4), t_values=(2, 3),
                             include_rationals=True)
    assert len(calls) == 1 and len(excinfo.value.results) == 2
    message = str(excinfo.value)
    assert "t=3 over QQ: invariant_dim" in message
    assert "ideal_rank" not in message


def test_consensus_returns_the_first_result_or_names_what_differed():
    results = [{"t": "2", "field": "QQ", "a": 1, "b": 2, "c": 3},
               {"t": "3", "field": "QQ", "a": 1, "b": 2, "c": 4},
               {"t": "2", "field": "GF(7)", "a": 0, "b": 5, "c": 3}]
    assert consensus(results[:2], ("a", "b"), "x") is results[0]
    with pytest.raises(SpecializationMismatch) as excinfo:
        consensus(results, ("a", "b", "c"), "the toy model")
    assert str(excinfo.value) == (
        "2 of 3 specializations disagree for the toy model with t=2 over QQ "
        "(t=3 over QQ: c; t=2 over GF(7): a, b)")
    assert excinfo.value.results == results


def test_report_json_round_trip():
    spec = build_pencil(2, 4)
    report = invariant_subspace(spec, t_values=(2,), include_rationals=True)
    doc = json.loads(report.to_json())
    assert doc["quotient_dim"] == 89
    assert doc["invariant_dim"] == 5
    assert doc["ambient"] == 126
    assert doc["elapsed_ms"] is None  # timings live in the manifest
    assert doc["span_checks"] is None


@pytest.mark.parametrize("rn,variant", [
    ((2, 4), "arrow"), ((2, 4), "squares"), ((2, 4), "quads"),
    ((2, 4), "squares+quads"), ((2, 5), "arrow")])
def test_report_json_is_the_asdict_rendering(rn, variant):
    # to_json reads the fields without deep-copying the survivors
    report = invariant_subspace(build_pencil(*rn, variant), t_values=(2, 3),
                                primes=(1048583,), include_rationals=True)
    doc = asdict(report)
    assert doc.pop("blocks") == report.blocks
    assert report.to_json() == json.dumps(doc, sort_keys=True, default=str)


@pytest.mark.parametrize("r,n,variant,degree,blocks", [
    (2, 4, "arrow", 4, (13, 4, 4, 3)), (2, 4, "squares", 4, (13, 4, 4, 3)),
    (2, 4, "quads", 4, (13, 4, 4, 3)),
    (2, 4, "squares+quads", 4, (13, 4, 4, 3)),
    (2, 5, "arrow", 5, (21, 5, 5, 4)), (2, 6, "arrow", 6, (31, 6, 6, 5)),
    (2, 4, "arrow", 8, (32, 84, 84, 315)),
    # the variant slot holds the pencil itself
    *[pytest.param(spec.r, spec.n, spec, spec.n, blocks, id=spec.variant)
      for spec, blocks in zip(map(_random_invariant_pencil, range(6)), (
          (13, 4, 4, 3), (21, 5, 5, 8), (21, 1, 1, 2), (13, 4, 4, 5),
          (21, 3, 3, 2), (21, 5, 5, 4)))]])
def test_slices_split_into_character_blocks(r, n, variant, degree, blocks):
    # each pair is filed under the block of one of its monomials; every
    # column of every pair lies in that block.  In degree n each
    # off-diagonal generator is alone, f and the n - 1 differences share
    # the trivial block, and the differences of the frozen term vanish
    spec = (variant if isinstance(variant, PencilSpec)
            else build_pencil(r, n, variant))
    rows = griffiths._pencil_rows(spec, degree)
    assert griffiths._block_counts(rows, n) == dict(zip(
        ("blocks", "largest_block_rows", "trivial_block_rows",
         "t_free_pairs"), blocks))
    block_of = pencil_blocks(spec)
    for key, (free, pairs) in rows.items():
        for row in [*free, *(row for pair in pairs for row in pair)]:
            assert all(block_of(c.to_bytes(spec.nvars, "big")) == key
                       for c in row)
    assert block_of(spec.frozen) == (0,) * n


def test_a_rule_that_changes_the_index_content_is_refused(monkeypatch):
    # a pair is filed under the block of one monomial, which holds only
    # while straightening keeps the index content.  The tail p12*p24 of
    # p14*p23 (content 1,2,2,4 against 1,2,3,4) is lex-greater, and
    # p14*p23 is the one incomparable pair of G(2,4), so only the content
    # check refuses the relation, before any row is built
    broken = SparsePolynomial(6, RATIONALS, {(1, 0, 0, 0, 0, 1): 1,
                                             (1, 0, 0, 0, 1, 0): -1,
                                             (0, 0, 1, 1, 0, 0): 1})
    monkeypatch.setattr(grassmann, "plucker_relations",
                        lambda r, n: (broken,))
    monkeypatch.setattr(griffiths, "_pencil_rows", None)  # never reached
    straightening_rules.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"a G\(2,4\) relation leads "
                           r"with p14\*p23 but holds the term p12\*p24 of "
                           r"another index content"):
            straightening_rules(2, 4)
        with pytest.raises(ValueError, match="another index content"):
            invariant_subspace(build_pencil(2, 4), t_values=(2,))
    finally:
        straightening_rules.cache_clear()


def test_rows_are_built_on_every_call_and_dropped_when_it_returns(
        monkeypatch):
    # two calls on one slice build its rows twice; the first call's rows
    # are gone once it returns, as nothing outside the call refers to them.
    # The weak references are to the dicts the splitter builds, which
    # _pencil_rows must hand back itself, so rows kept inside _pencil_rows
    # (a cache, say) stay alive and fail the test
    built, calls = [], []
    split, real = griffiths._split, griffiths._pencil_rows

    class Rows(dict):  # a dict that takes a weak reference
        pass

    def splitting(keyed_pairs):
        rows = Rows(split(keyed_pairs))
        built.append(weakref.ref(rows))
        return rows

    def recording(*key):
        rows = real(*key)
        calls.append(key)
        assert built and rows is built[-1]()
        return rows

    monkeypatch.setattr(griffiths, "_split", splitting)
    monkeypatch.setattr(griffiths, "_pencil_rows", recording)
    spec = build_pencil(2, 5)
    invariant_subspace(spec, t_values=(2,), primes=(1048583,))
    assert len(built) == 1 and built[0]() is None
    invariant_subspace(spec, t_values=(3,), include_rationals=True)
    assert calls == [(spec, 5)] * 2
    assert len(built) == 2 and built[1]() is None
