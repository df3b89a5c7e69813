"""Hodge-theoretic dimension counts via graded linear algebra.

Two formalisms, one kind of computation:

* the generalized Jacobian (Griffiths) ring of a hypersurface in G(r,n):
  the coordinate ring of the Pluecker cone modulo the ideal generated by
  the defining polynomial f, the derivations D^i_j f (i != j) and the
  diagonal differences D^i_i f - D^j_j f, where D^i_j = x_i d/dx_j acts on
  wedges by the Leibniz rule;

* the bigraded Jacobian ring of a complete intersection in projective
  space, generated by f_1..f_c and the partials of F = y_1 f_1 +...+ y_c f_c
  with deg(x_i) = (1,0) and deg(y_j) = (-d_j, 1).

Every dimension we need lives in a single graded slice: the ideal cuts out
a row span, and the quotient dimension is an exact corank.  On G(r,n) the
rows are written in standard monomials (grassmann.normal_form), a basis of
the Pluecker ring over Z, so no relation row is ever eliminated.

Generic-parameter answers (coefficients in Q(t)) are obtained by
specializing t to several rational values and/or several large prime
fields and demanding unanimity; disagreement raises, it is never averaged
away.  Every generator is linear in f_t = frozen + t*deforming and the
normal form is Z-linear, so the row of each generator multiple is a + t*b
with integer rows a and b, built once per call and slice and dropped when
the call returns.  The diagonal group grades the slice, so the rows fall
into character blocks: the rank is the sum of the block ranks, and only
the trivial block meets the invariant monomials.  The specializations run
one block at a time: over each field the block's rows free of t are
eliminated once, each t extends a copy of that basis, and every basis is
dropped when its block is done.  The complete-intersection model of a
(2,4) pencil keeps the basis over Q of its rows free of t, one slice per
bidegree, and each member extends a copy.  A column is the int _column(e)
of a monomial, ordered as the exponents e.
"""

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb
from operator import add, mul

from .fields import PrimeField, RATIONALS
from .grassmann import (PencilSpec, evaluate_pencil, hilbert_function,
                        index_content, index_position, monomial_name,
                        normal_form, plucker_indices, plucker_relations,
                        sort_with_sign, straightening_rules)
from .linalg import _ENTRY_LIMIT, ResourceLimitError, _integer_row, row_basis
from .poly import SparsePolynomial, check_listing_size, monomials_of_degree
from .symmetry import invariant_multiplicities, pencil_blocks


class SpecializationMismatch(RuntimeError):
    """Specializations disagreed; no consensus dimension exists."""

    def __init__(self, message, results=None):
        super().__init__(message)
        self.results = results or []


@dataclass
class GradedPieceReport:
    """One graded slice: ambient size, span ranks, quotient dimension.

    relation_rank = ambient - hilbert_function is the rank of the Pluecker
    relation rows; ideal_rank is the additional rank contributed by the
    ideal generators, so quotient_dim = ambient - relation_rank - ideal_rank.
    invariant_dim and survivors are filled by invariant-subspace runs.
    """

    label: str
    rn: tuple | None
    degree: object
    t: object
    field: str
    ambient: int
    relation_rank: int
    ideal_rank: int
    quotient_dim: int
    invariant_dim: int | None = None
    survivors: tuple | None = None
    survivor_names: tuple | None = None
    specializations: tuple | None = None
    span_checks: None = None  # always null: kept for the output format
    elapsed_ms: None = None  # always null: timings go to the manifest
    # the character blocks of an invariant slice, for the manifest only
    blocks: dict | None = field(default=None, compare=False)

    def to_json(self) -> str:
        doc = dict(vars(self))
        del doc["blocks"]
        return json.dumps(doc, sort_keys=True, default=str)


# -- derivations -------------------------------------------------------


def apply_derivation(i: int, j: int, g: SparsePolynomial, r: int,
                     n: int) -> SparsePolynomial:
    """Apply D^i_j = x_i d/dx_j to a polynomial in Pluecker coordinates.

    On a single coordinate: zero when j is absent or both i, j are present;
    otherwise the coordinate with j replaced by i, signed by the parity of
    the reordering.  Extended to monomials by the Leibniz rule; the result
    is degree-preserving.
    """
    indices = plucker_indices(r, n)
    pos = index_position(r, n)
    if g.nvars != len(indices):
        raise ValueError("polynomial does not live on G(r,n)")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"derivation indices ({i},{j}) out of range 1..{n}")
    out = {}
    for exps, coeff in g.terms.items():
        if i == j:
            out[exps] = coeff * index_content(exps, r, n)[i - 1]
            continue
        for v, e in enumerate(exps):
            if not e:
                continue
            idx = indices[v]
            if j not in idx or i in idx:
                continue
            replaced = tuple(i if x == j else x for x in idx)
            target, sign = sort_with_sign(replaced)
            new = list(exps)
            new[v] -= 1
            new[pos[target]] += 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * e * sign
    return g._reduced(out)


def grassmann_jacobian_generators(f: SparsePolynomial, r: int,
                                  n: int) -> list:
    """f, all off-diagonal D^i_j f, and consecutive diagonal differences.

    Consecutive differences D^i_i f - D^{i+1}_{i+1} f span all pairwise
    ones, so the list has 1 + n(n-1) + (n-1) entries.
    """
    if not f.is_homogeneous():
        raise ValueError("generator construction needs homogeneous input")
    gens = [f]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.append(apply_derivation(i, j, f, r, n))
    diagonals = [apply_derivation(i, i, f, r, n) for i in range(1, n + 1)]
    for i in range(n - 1):
        gens.append(diagonals[i] - diagonals[i + 1])
    return gens


# -- graded slices of the generalized Jacobian ring --------------------


def _multiple_rows(generators, grade, multipliers, row, what, block=None):
    """The rows of every generator multiple landing in one slice.

    A generator is a tuple of polynomials, the coefficients of a polynomial
    in t (the pair (g, h) stands for g + t*h), whose terms all have one
    grade(exponent); multipliers(grade) lists the monomials that take it
    into the slice.  Each multiple yields (key, the tuple of rows
    row(mult, g)), unless all rows are zero, where key is block(mult * m)
    for one term m of the generator, or None if block is None: the caller
    must know that every column of the rows lies in that block.  The
    entries yielded are counted against linalg's entry limit, since a
    caller may hold them all; `what` names the rows.
    """
    lists, entries = {}, 0
    for parts in generators:
        terms = [e for g in parts for e in g.terms]
        grades = set(map(grade, terms))
        if len(grades) > 1:
            raise ValueError(f"{what}: a generator is not homogeneous")
        for gr in grades:
            if gr not in lists:
                lists[gr] = multipliers(gr)
            for mult in lists[gr]:
                rows = tuple(row(mult, g) for g in parts)
                if any(rows):
                    entries += sum(map(len, rows))
                    if entries > _ENTRY_LIMIT:
                        raise ResourceLimitError(
                            f"{what}: {entries} entries exceed the "
                            f"{_ENTRY_LIMIT} entry limit")
                    yield (None if block is None else
                           block(tuple(map(add, mult, terms[0]))), rows)


def _split(keyed_pairs):
    """The pairs (a, b) of _multiple_rows, the row at t being a + t*b, as
    {key: (its rows free of t, its pairs that carry t)} in the order given:
    a pair with a = {} or b = {} stands for the row b or a, as t != 0."""
    blocks = {}
    for key, (a, b) in keyed_pairs:
        free, pairs = blocks.setdefault(key, ([], []))
        if a and b:
            pairs.append((a, b))
        else:
            free.append(a or b)
    return blocks


def _at(pairs, t):
    """Each pair (a, b) of rows as the one row a + t*b."""
    for a, b in pairs:
        row = dict(a)
        for c, v in b.items():
            row[c] = row.get(c, 0) + t * v
        yield row


def _slice_rows(r, n, degree, generators, block=None):
    """_multiple_rows of G(r,n) in one degree, in standard monomials, keyed
    by block.  The multipliers are the standard monomials, listed as chains
    once the straightening rules are certified: modulo the Pluecker ideal
    m*g = NF(m)*g, so they span what every monomial multiple spans."""
    # imported on first use: the point-count subcommands list no chains
    from .chains import standard_monomials

    straightening_rules(r, n)
    key = _column_key(degree)

    def multipliers(d):
        if d > degree:
            raise ValueError(f"generator of degree {d} "
                             f"cannot land in degree {degree}")
        return standard_monomials(r, n, degree - d)

    return _multiple_rows(
        generators, sum, multipliers,
        lambda mult, g: _standard_row(r, n, mult, g, key),
        f"generator rows of G({r},{n}) in degree {degree}", block)


def _standard_row(r, n, mult_exp, poly, key):
    """Row of mult * poly in the standard monomials, as {key(monomial):
    coeff} with no zero entry."""
    row = {}
    for e, c in poly.terms.items():
        for s, k in normal_form(r, n, tuple(map(add, mult_exp, e))):
            s = key(s)
            row[s] = row.get(s, 0) + c * k
    return {s: c for s, c in row.items() if c}


def _column(e):
    """The column of exponent vector e: an int, ordered as the vectors are
    while every exponent fits in a byte."""
    return int.from_bytes(bytes(e), "big")


def _column_key(bound):
    """The column key of a slice whose exponents are at most bound."""
    return _column if bound < 256 else tuple


def _dims(r, n, degree, ideal_rank):
    """The ambient, relation_rank, ideal_rank and quotient_dim of a slice
    whose generator rows have rank ideal_rank."""
    nv = len(plucker_indices(r, n))
    hf = hilbert_function(r, n, degree)
    ambient = comb(nv + degree - 1, degree) if degree >= 0 else 0
    return {"ambient": ambient, "relation_rank": ambient - hf,
            "ideal_rank": ideal_rank, "quotient_dim": hf - ideal_rank}


def graded_quotient(r: int, n: int, degree: int,
                    ideal_generators) -> GradedPieceReport:
    """Dimension of one graded piece of S^{r,n} / (ideal generators).

    The quotient dimension is hilbert_function(r, n, degree) minus the rank
    of every multiple of an ideal generator landing in the slice, all
    eliminated in one basis.
    """
    generators = list(ideal_generators)
    fld = generators[0].field if generators else RATIONALS
    nv = len(plucker_indices(r, n))
    if any(g.nvars != nv or g.field != fld for g in generators):
        raise ValueError(f"ideal generators must share one field and have "
                         f"the {nv} Pluecker variables of G({r},{n})")
    rows = _slice_rows(r, n, degree, ((g,) for g in generators))
    basis = row_basis(None, fld)
    return GradedPieceReport(
        label=f"G({r},{n}) degree {degree}",
        rn=(r, n), degree=degree, t=None, field=fld.name,
        **_dims(r, n, degree, basis.add_rows(row for _, (row,) in rows)))


# -- complete-intersection Jacobian ring -------------------------------


@dataclass(frozen=True)
class CIJacobianContext:
    """Variables x_1..x_m, y_1..y_c with F = sum y_j f_j.

    Bigrading: deg(x_i) = (1,0), deg(y_j) = (-d_j, 1), so F and its
    x-partials are bihomogeneous.  A pencil member's context names both.
    """

    nx: int
    degrees: tuple
    polys: tuple      # f_1..f_c, embedded in the m+c variable ring
    pencil: PencilSpec | None = None
    t: object = 0

    @property
    def nvars(self):
        return self.nx + len(self.degrees)

    @property
    def field(self):
        return self.polys[0].field


def ci_context(fs) -> CIJacobianContext:
    """Build the bigraded context from polynomials in the x-variables."""
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one polynomial")
    nx = fs[0].nvars
    c = len(fs)
    degrees = []
    embedded = []
    for f in fs:
        if f.nvars != nx:
            raise ValueError("all polynomials must share the x-variables")
        if not f.is_homogeneous() or not f:
            raise ValueError("polynomials must be homogeneous and nonzero")
        degrees.append(f.total_degree())
        embedded.append(f.extend_variables(c))
    return CIJacobianContext(nx, tuple(degrees), tuple(embedded))


def _ci_generators(ctx: CIJacobianContext) -> list:
    """f_1..f_c and the x-partials of F = sum y_j f_j."""
    fld = ctx.field
    nv = ctx.nvars
    F = SparsePolynomial.zero(nv, fld)
    for j, f in enumerate(ctx.polys):
        F = F + f * SparsePolynomial.variable(nv, ctx.nx + j, fld)
    gens = list(ctx.polys)
    gens += [F.partial(i) for i in range(ctx.nx)]
    return gens


def _bidegree(exps, nx, degrees):
    ydeg = exps[nx:]
    return (sum(exps[:nx]) - sum(map(mul, degrees, ydeg)), sum(ydeg))


def bigraded_monomials(ctx: CIJacobianContext, bidegree) -> list:
    """All monomials x^a y^b of the given bidegree, grouped by y^b."""
    a, b = bidegree
    if b < 0:
        return []
    ys = [(ybeta, a + sum(d * e for d, e in zip(ctx.degrees, ybeta)))
          for ybeta in monomials_of_degree(len(ctx.degrees), b)]
    ys = [(ybeta, xdeg) for ybeta, xdeg in ys if xdeg >= 0]
    check_listing_size(
        sum(comb(ctx.nx + xdeg - 1, xdeg) for _, xdeg in ys), "bigraded slice")
    return [xalpha + ybeta for ybeta, xdeg in ys
            for xalpha in monomials_of_degree(ctx.nx, xdeg)]


def _ci_rows(ctx, bidegree, generators):
    """_multiple_rows of ctx in one bidegree, all built before any is
    eliminated.  Multiplying by a fixed monomial maps distinct exponents to
    distinct monomials, so no coefficient merging can occur."""
    a, b = bidegree
    key = _column_key(max(a + max(ctx.degrees) * b, b))
    return tuple(_multiple_rows(
        generators, lambda e: _bidegree(e, ctx.nx, ctx.degrees),
        lambda gr: bigraded_monomials(ctx, (a - gr[0], b - gr[1])),
        lambda mult, g: {key(tuple(map(add, mult, e))): c
                         for e, c in g.terms.items()},
        f"complete-intersection rows in bidegree {bidegree}"))


def ci_bigraded_quotient(ctx: CIJacobianContext,
                         bidegree) -> GradedPieceReport:
    """Dimension of one bigraded piece of the Jacobian ring.

    The span is every product (monomial) * (generator) landing in the
    requested bidegree, its rows all eliminated in one basis.  A pencil
    member's rows are the pairs (a, b) of _pencil_ci_rows taken at its t,
    a + t*b: it extends a copy of the basis of their t-free rows.
    """
    a, b = bidegree
    ambient = len(bigraded_monomials(ctx, bidegree))
    fld = ctx.field
    if ctx.pencil is not None:
        fixed, pairs = _pencil_ci_rows(ctx.pencil, (a, b))
        basis, rows = fixed.copy(), _at(pairs, ctx.t)
    else:
        basis = row_basis(None, fld)
        rows = (row for _, (row,) in _ci_rows(
            ctx, (a, b), ((g,) for g in _ci_generators(ctx))))
    ideal_rank = basis.rank + basis.add_rows(rows)
    return GradedPieceReport(
        label=f"CI in P^{ctx.nx - 1} bidegree {bidegree}",
        rn=None, degree=(a, b), t=None, field=fld.name,
        ambient=ambient, relation_rank=0, ideal_rank=ideal_rank,
        quotient_dim=ambient - ideal_rank)


def ci_context_for_pencil(spec: PencilSpec, t):
    """The P^5 complete-intersection model of a (2,4) pencil member over Q.

    The six Pluecker coordinates become projective coordinates; the member
    is cut out by the quartic pencil polynomial and the Pluecker quadric.
    The context names the pencil and t, so its rows come from the pairs
    shared by every member, and its field is Q.
    """
    if (spec.r, spec.n) != (2, 4):
        raise ValueError("the projective-space model is specific to (2,4)")
    ctx = ci_context([evaluate_pencil(spec, t), plucker_relations(2, 4)[0]])
    return replace(ctx, pencil=spec, t=RATIONALS.coerce(t))


@lru_cache(maxsize=2)  # the two bidegrees the cross-check takes at each t
def _pencil_ci_rows(spec, bidegree):
    """_ci_rows of a (2,4) pencil, as (the basis over Q of the rows free of
    t, the pairs that carry t): each generator is linear in t, so it is
    g + t*h with g its value at t = 0 and h = (its value at 1) - g.  Every
    caller extends a copy of the basis."""
    at0, at1 = (ci_context_for_pencil(spec, t) for t in (0, 1))
    rows = _ci_rows(at0, bidegree, ((g, g1 - g) for g, g1 in zip(
        _ci_generators(at0), _ci_generators(at1))))
    free, pairs = _split(rows).get(None, ((), ()))
    fixed = row_basis(None, RATIONALS)
    fixed.add_rows(free)
    return fixed, pairs


# -- invariant subspaces across specializations ------------------------


def consensus(results, keys, what):
    """The first of the specialization results, if every other one agrees
    with it on keys.  Otherwise raise SpecializationMismatch, naming for
    each (t, field) that differs the keys it differs on; `what` names the
    computation.  Each result is a dict with "t" and "field" entries."""
    first = results[0]
    differences = [f"t={res['t']} over {res['field']}: " + ", ".join(diff)
                   for res in results[1:]
                   if (diff := [k for k in keys if res[k] != first[k]])]
    if differences:
        raise SpecializationMismatch(
            f"{len(differences)} of {len(results)} specializations disagree "
            f"for {what} with t={first['t']} over {first['field']} "
            f"({'; '.join(differences)})", results)
    return first


def _pencil_rows(spec, degree):
    """The rows of the generator multiples of f_t = frozen + t*deforming in
    one slice, as integer pairs (a, b) whose row at t is a + t*b, split by
    character block: {block: (rows free of t, pairs that carry t)}.  frozen
    and deforming have int coefficients over Q, and ints stay ints.  Each
    pair is filed under the character block of one of its monomials before
    straightening: the terms of a generator share a block (D^i_j shifts the
    content of every term by e_i - e_j), and straightening keeps the
    content (straightening_rules checks every rule), so the pair's columns
    all lie in that block."""
    r, n, nv = spec.r, spec.n, spec.nvars
    frozen, deforming = (
        grassmann_jacobian_generators(
            SparsePolynomial(nv, RATIONALS, terms), r, n)
        for terms in ({spec.frozen: 1}, dict.fromkeys(spec.deforming, 1)))
    return _split(_slice_rows(r, n, degree, zip(frozen, deforming),
                              pencil_blocks(spec)))


def _block_counts(rows, n) -> dict:
    """The character blocks of a slice's _pencil_rows on G(r,n): how many,
    the rows of the largest and of the trivial one, and the pairs that
    carry no t."""
    sizes = {key: len(free) + len(pairs)
             for key, (free, pairs) in rows.items()}
    return {"blocks": len(sizes),
            "largest_block_rows": max(sizes.values(), default=0),
            "trivial_block_rows": sizes.get((0,) * n, 0),
            "t_free_pairs": sum(len(free) for free, _ in rows.values())}


def _specializations(spec, degree, rows, fields, t_values, candidates):
    """The result of every specialization of a slice's _pencil_rows, in
    fields x t_values order, walking block -> field -> t.  Over each field
    a block's rows free of t are eliminated once, and each t extends a
    copy of that basis with the rows a + t*b.  The trivial block then
    offers the candidates, each the unit row {e: 1}, to the greedy rank
    extension; it is visited even when it holds no rows.  Any other block
    of one pair needs no basis: it adds 1 exactly when the row is nonzero
    in the field after _integer_row, as it would enter a basis.  The last
    copy of each field is dropped before the next field's basis is built,
    so the live bases are one basis free of t and at most one copy of it,
    and the copy's entry cap bounds them both."""
    key = _column_key(degree)
    trivial = (0,) * spec.n
    blocks = dict(rows)
    blocks.setdefault(trivial, ((), ()))
    runs = [(fld, t) for fld in fields for t in t_values]
    ranks, survivors = [0] * len(runs), [()] * len(runs)
    for block, (free, pairs) in blocks.items():
        offered = candidates if block == trivial else ()
        if len(pairs) == 1 and not (free or offered):
            for i, (fld, t) in enumerate(runs):
                ranks[i] += bool(_integer_row(next(_at(pairs, t)),
                                              fld.modulus))
            continue
        for k, fld in enumerate(fields):
            fixed = row_basis(None, fld)
            fixed.add_rows(free)
            for i, t in enumerate(t_values, k * len(t_values)):
                basis = fixed.copy()
                ranks[i] += basis.rank + basis.add_rows(_at(pairs, t))
                if offered:
                    survivors[i] = tuple(
                        e for e in offered if basis.add_row({key(e): 1}))
            fixed = basis = None  # no basis outlives its field
    return [{"t": str(t), "field": fld.name,
             **_dims(spec.r, spec.n, degree, rank),
             "invariant_dim": len(kept), "survivors": kept}
            for (fld, t), rank, kept in zip(runs, ranks, survivors)]


def invariant_subspace(spec: PencilSpec, degree=None,
                       t_values=(2, 3, 5), primes=(),
                       include_rationals=None) -> GradedPieceReport:
    """Consensus dimension of the invariant part of a graded slice.

    The generator rows of the slice are built once over Z, as pairs a, b
    with row a + t*b, and dropped when the call returns.  For every
    specialization (t over Q, and t mod every given prime) the rows a + t*b
    are eliminated in the field, one character block at a time, and the
    standard invariant monomials, each the unit row {e: 1}, are fed to the
    greedy rank extension of the trivial block in canonical order; the
    survivors span the image of the invariant subspace in the quotient.
    No other invariant monomial can survive: every straightening tail is
    lex-greater than its lead and keeps the index content, so the normal
    form of a non-standard invariant monomial holds only standard invariant
    ones listed before it.
    Specializations that disagree on any reported number raise
    SpecializationMismatch with their results.
    """
    r, n = spec.r, spec.n
    if degree is None:
        degree = n
    if include_rationals is None:
        include_rationals = not primes
    fields = (([RATIONALS] if include_rationals else [])
              + [PrimeField(p) for p in primes])
    if not fields or not t_values:
        raise ValueError("no specializations requested")
    for fld in fields:
        if fld.modulus and n % fld.modulus == 0:
            raise ValueError(
                f"prime {fld.modulus} divides n = {n}; invariant counts need "
                "the group order invertible")
        for t in t_values:
            if fld.coerce(t) == 0:
                raise ValueError(
                    f"t = {t} vanishes in {fld.name}; bad specialization")

    from .chains import standard_monomials

    # the chains are the standard monomials only once the rules are
    # certified, so an uncertified G(r,n) stops before any listing
    straightening_rules(r, n)
    candidates = standard_monomials(r, n, degree,
                                    invariant_multiplicities(r, n, degree))
    rows = _pencil_rows(spec, degree)
    results = _specializations(spec, degree, rows, fields, t_values,
                               candidates)

    keys = ("ambient", "relation_rank", "ideal_rank", "quotient_dim",
            "invariant_dim", "survivors")
    agreed = consensus(results, keys, f"{spec.variant} on G({r},{n})")
    return GradedPieceReport(
        label=f"G({r},{n}) {spec.variant} invariant slice, degree {degree}",
        rn=(r, n), degree=degree, t=None, field="consensus",
        **{k: agreed[k] for k in keys},
        survivor_names=tuple(monomial_name(e, r, n)
                             for e in agreed["survivors"]),
        specializations=tuple(
            {"t": res["t"], "field": res["field"]} for res in results),
        blocks=_block_counts(rows, n))
