import random
from collections import Counter
from itertools import combinations, product
from math import gcd, prod
from operator import mul

import pytest

from grasspencils import pointcount
from grasspencils.fields import PrimeField
from grasspencils.grassmann import (VARIANTS, PencilSpec, build_pencil,
                                    evaluate_pencil, plucker_indices)
from grasspencils.linalg import ResourceLimitError
from grasspencils.pointcount import (ENUMERATION_GUARD, GRID_CAP,
                                     PointCountRecord, _count_cell, _det_mod,
                                     _LineTables, _orbit_order,
                                     _pencil_histogram, _row0_values,
                                     _sparse_monomials, _split_cell,
                                     count_points, count_table, count_zeros,
                                     enumerate_cells, grassmannian_count,
                                     histogram_work, iter_plucker_points,
                                     records_to_csv)
from grasspencils.poly import SparsePolynomial
from grasspencils.symmetry import build_group, invariant_monomials
from histogram_oracle import per_cell_histogram, per_point_histogram

TABLE_P5 = [(1, 296, 1), (2, 320, 0), (3, 320, 0), (4, 296, 1)]
TABLE_P7 = [(1, 384, 6), (2, 388, 3), (3, 352, 2), (4, 520, 2), (5, 416, 3),
            (6, 384, 6)]
TABLE_P11 = [(1, 1280, 4), (2, 1392, 6), (3, 1380, 5), (4, 1712, 7),
             (5, 1536, 7), (6, 1536, 7), (7, 1536, 7), (8, 1424, 5),
             (9, 1216, 6), (10, 1544, 4)]


def test_cell_dimensions():
    dims24 = sorted(c.dimension for c in enumerate_cells(2, 4))
    assert dims24 == [0, 1, 2, 2, 3, 4]
    dims12 = sorted(c.dimension for c in enumerate_cells(1, 2))
    assert dims12 == [0, 1]  # P^1 = A^1 + point
    dims25 = sorted(c.dimension for c in enumerate_cells(2, 5))
    # coefficients of the Gaussian binomial 1+q+2q^2+2q^3+2q^4+q^5+q^6
    assert dims25 == [0, 1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_cells_partition_grassmannian():
    # summing p^dim over cells hits the closed-form point counts
    for p in (5, 7, 11, 13):
        assert grassmannian_count(2, 4, p) == (p * p + 1) * (p * p + p + 1)
    assert grassmannian_count(2, 5, 2) == 155


def test_enumeration_covers_each_point_once():
    # counting zeros of the zero polynomial returns the full point count
    for p in (3, 5):
        zero = SparsePolynomial.zero(6, PrimeField(p))
        assert count_zeros(zero, 2, 4, p) == grassmannian_count(2, 4, p)


def test_points_satisfy_plucker_relation():
    for coords in iter_plucker_points(2, 4, 3):
        p12, p13, p14, p23, p24, p34 = coords
        assert (p12 * p34 - p13 * p24 + p14 * p23) % 3 == 0
        assert any(coords)  # never the zero tuple


def test_tables_match_expected():
    spec = build_pencil(2, 4)
    for p, expected in [(5, TABLE_P5), (7, TABLE_P7), (11, TABLE_P11)]:
        got = [(rec.t, rec.count, rec.residue)
               for rec in count_table(spec, p)]
        assert got == expected


def test_count_points_agrees_with_direct_substitution():
    spec = build_pencil(2, 4)
    for p, t in [(5, 2), (7, 3)]:
        poly = evaluate_pencil(spec, t, PrimeField(p))
        assert count_points(spec, p, t).count == count_zeros(poly, 2, 4, p)


def test_counts_symmetric_under_negation_for_p_1_mod_4():
    # diag(z1..z4) with all z_i^4 equal rescales the deforming sum and the
    # frozen product by factors whose ratio is the square of a fourth root
    # of unity, so t can be relabeled to -t exactly when F_p contains a
    # primitive fourth root, i.e. p = 1 mod 4; Tables at p = 7, 11 show the
    # pairing genuinely fails otherwise.
    spec = build_pencil(2, 4)
    for p in (5, 13):
        counts = {rec.t: rec.count for rec in count_table(spec, p)}
        for t in range(1, p):
            assert counts[t] == counts[p - t]
    for p in (7, 11):
        counts = {rec.t: rec.count for rec in count_table(spec, p)}
        assert any(counts[t] != counts[p - t] for t in range(1, p))


def test_count_points_rejects_bad_input():
    spec = build_pencil(2, 4)
    with pytest.raises(ValueError):
        count_points(spec, 5, 0)
    with pytest.raises(ValueError):
        count_points(spec, 5, 5)  # t = 0 mod p
    with pytest.raises(ValueError):
        count_points(spec, 6, 1)
    with pytest.raises(ValueError):
        grassmannian_count(2, 4, 9)
    for p in (0, 1, -7):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            count_table(spec, p)


def test_enumeration_guard(monkeypatch):
    def no_work(*args):
        raise AssertionError("a cell was counted past the guard")
    monkeypatch.setattr(pointcount, "_count_cell", no_work)
    spec = build_pencil(2, 7)
    with pytest.raises(ResourceLimitError):
        count_points(spec, 31, 1)


def test_work_guard_counts_grid_points_not_points(monkeypatch):
    # (2,5) at p = 41 (d = 5) has 4,871,753,210 points, but its histogram
    # takes 31,130 passes over 51,760,378 grid points: admitted unforced,
    # while the per-point route keeps its guard on points
    spec = build_pencil(2, 5)
    assert grassmannian_count(2, 5, 41) > ENUMERATION_GUARD
    assert histogram_work(spec, 41) == (31130, 51760378)
    monkeypatch.setattr(pointcount, "_pencil_histogram",
                        lambda spec, p: Counter())
    assert len(count_table(spec, 41)) == 40
    with pytest.raises(ResourceLimitError, match="points"):
        next(iter_plucker_points(2, 5, 41))
    # G(2,7) at p = 31 has d = 1: past the guard either way, unless forced
    with pytest.raises(ResourceLimitError,
                       match=r"grid points.*pass force=True \(tables"):
        count_table(build_pencil(2, 7), 31)
    assert len(count_table(build_pencil(2, 7), 31, force=True)) == 30


def test_one_histogram_per_pencil_and_prime():
    spec = build_pencil(2, 4)
    _pencil_histogram.cache_clear()
    _pencil_histogram(spec, 13)
    count_points(spec, 13, 1)
    count_points(spec, 13, 2, False)
    count_table(spec, 13)
    count_table(spec, 13, force=True)
    assert _pencil_histogram.cache_info().misses == 1


def test_one_rn_check_for_cells_group_and_coordinates():
    messages = set()
    for call in (lambda: enumerate_cells(4, 4), lambda: build_group(4, 4),
                 lambda: plucker_indices(4, 4)):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"need 1 <= r <= n-1, got r=4, n=4"}


def test_record_residue_invariant():
    with pytest.raises(ValueError):
        PointCountRecord(p=5, t=1, count=296, residue=2)


def test_records_to_csv():
    recs = [PointCountRecord(p=5, t=1, count=296, residue=1),
            PointCountRecord(p=5, t=2, count=320, residue=0)]
    assert records_to_csv(recs) == "t,count,residue\n1,296,1\n2,320,0\n"


def test_csv_rendering_matches_shipped_tables_byte_for_byte():
    from importlib import resources
    spec = build_pencil(2, 4)
    for p in (5, 7, 11):
        expected = resources.files("grasspencils").joinpath(
            f"fixtures/table_p{p}_arrow.csv").read_text()
        assert records_to_csv(count_table(spec, p)) == expected


@pytest.mark.parametrize("variant", ["squares", "quads", "squares+quads"])
def test_extension_tables_agree_with_direct_substitution(variant):
    spec = build_pencil(2, 4, variant)
    p = 5
    for rec in count_table(spec, p):
        poly = evaluate_pencil(spec, rec.t, PrimeField(p))
        assert rec.count == count_zeros(poly, 2, 4, p)


def test_counts_for_25_pencil_small_prime():
    # cross-check the generic path (r=2, n=5) against direct substitution
    spec = build_pencil(2, 5)
    p, t = 3, 2
    poly = evaluate_pencil(spec, t, PrimeField(p))
    assert count_points(spec, p, t).count == count_zeros(poly, 2, 5, p)


def _det_by_cofactors(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * _det_by_cofactors([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_det_mod_against_cofactor_expansion(r):
    rng = random.Random(r)
    p = 101
    for _ in range(50):
        matrix = [[rng.randrange(p) for _ in range(r + 2)] for _ in range(r)]
        cols = tuple(sorted(rng.sample(range(r + 2), r)))
        minor = [[row[c] for c in cols] for row in matrix]
        assert _det_mod(matrix, cols, p) == _det_by_cofactors(minor) % p


def test_minor_path_r3_matches_dual_r2_table():
    # G(3,5) and G(2,5) are dual, so the 2 x 2 cofactors of r = 3 must
    # reproduce the r = 2 table; at p = 5 and 7 both split their cells
    # differently (three-entry rows, a middle inner row for r = 3)
    for p in (2, 3, 5, 7):
        assert (count_table(build_pencil(3, 5), p)
                == count_table(build_pencil(2, 5), p))


def test_minor_path_r4_matches_dual_r2_table():
    # G(4,6) and G(2,6) are dual; r = 4 expands along the last row with
    # 3 x 3 cofactors
    for p in (2, 3):
        assert (count_table(build_pencil(4, 6), p)
                == count_table(build_pencil(2, 6), p))


def _brute_force_points(r, n, p):
    """Every Pluecker point of G(r,n)(F_p) from r distinct vectors of
    F_p^n: cofactor-expanded r x r minors, scaled so that the first nonzero
    coordinate is 1.  Ordered r-tuples add only row permutations (a sign,
    which the scaling removes) and repeated rows (all minors zero)."""
    col_sets = list(combinations(range(n), r))
    points = set()
    for rows in combinations(product(range(p), repeat=n), r):
        coords = [_det_by_cofactors([[row[c] for c in cols] for row in rows])
                  % p for cols in col_sets]
        lead = next((c for c in coords if c), 0)
        if lead:
            inv = pow(lead, -1, p)
            points.add(tuple(c * inv % p for c in coords))
    return points


@pytest.mark.parametrize("r, n, p", [(2, 4, 3), (2, 5, 2), (3, 5, 2)])
def test_reference_points_match_brute_force(r, n, p):
    points = list(iter_plucker_points(r, n, p))
    assert len(points) == len(set(points)) == grassmannian_count(r, n, p)
    assert set(points) == _brute_force_points(r, n, p)


HISTOGRAM_CASES = ([((2, 4, v), p) for v in VARIANTS for p in (2, 3, 5, 7)]
                   + [((2, 5, "arrow"), 3), ((3, 5, "arrow"), 3)]
                   + [((r, 6, "arrow"), 2) for r in (2, 3, 4)])


@pytest.mark.parametrize(
    "rnv, p", HISTOGRAM_CASES,
    ids=[f"{r}-{n}-{v}-p{p}" for (r, n, v), p in HISTOGRAM_CASES])
def test_histogram_matches_per_point_oracle(rnv, p):
    # (2,6), (3,6), (4,6) have cells with more than two free last-row
    # entries, and r = 4 takes 3 x 3 cofactors
    spec = build_pencil(*rnv)
    assert _pencil_histogram(spec, p) == per_point_histogram(spec, p)


def _non_invariant_pencil():
    """The (2,4) arrow pencil with p12^4 replaced by p12^3*p13, whose
    character (0,3,1,0) mod 4 is not a multiple of (1,1,1,1)."""
    arrow = build_pencil(2, 4)
    return PencilSpec(2, 4, "skew", ((3, 1, 0, 0, 0, 0),)
                      + arrow.deforming[1:], arrow.frozen)


def _random_invariant_pencil(r, n, seed):
    """Random invariant deforming monomials over the arrow frozen product."""
    rng = random.Random(seed)
    arrow = build_pencil(r, n)
    pool = [e for e in invariant_monomials(r, n, n, build_group(n, r))
            if e != arrow.frozen]
    return PencilSpec(r, n, f"random{seed}",
                      tuple(rng.sample(pool, rng.randint(1, 8))), arrow.frozen)


# (pencil, p, largest cell dimension, the splits its cells must include):
# the inner row is row 0, a middle row (r = 3 and 4) or the last row, and
# holds up to three entries; d runs over 2, 4, 5, 6 and g' over 2 and 3
SPLIT_CASES = [
    (build_pencil(2, 4, "quads"), 5, 4,
     {"d 4", "row 0", "last row", "x1 mu_4"}),
    (build_pencil(2, 4), 3, 4, {"d 2", "row 0", "last row", "x1 mu_2"}),
    (build_pencil(2, 5), 11, 3, {"d 5", "row 0", "three", "x1 mu_5"}),
    (build_pencil(2, 5), 3, 6, {"row 0", "last row", "three"}),
    (build_pencil(2, 6), 3, 6, {"three", "x1 mu_2", "lead mu_2"}),
    (build_pencil(3, 6), 7, 4, {"d 6", "row 0", "middle", "three", "x1 mu_6",
                                "lead mu_3"}),
    (build_pencil(3, 5), 7, 4, {"row 0", "middle", "last row"}),
    (build_pencil(4, 6), 3, 5, {"row 0", "middle", "lead mu_2"}),
    *[(_random_invariant_pencil(r, n, seed), p, dim, {"row 0"})
      for seed, (r, n, p, dim) in enumerate(
          [(2, 4, 5, 4), (2, 5, 11, 3), (2, 6, 3, 6), (3, 4, 13, 3)])],
    (PencilSpec.from_json(_non_invariant_pencil().to_json()), 5, 4,
     {"d 1", "row 0", "last row"}),
]


def _split_features(r, n, p, d, cells):
    features = {f"d {d}"}
    for cell in cells:
        row, outer, orders, inner, k1, _ = _split_cell(cell, r, p, d)
        if inner:
            features.add("row 0" if row == 0 else "last row"
                         if row == r - 1 else "middle")
        if len(inner) == 3:
            features.add("three")
        if k1 > 1:
            features.add(f"x1 mu_{k1}")
        lead = min((e for e in cell.free_positions if e[0] == r - 1),
                   default=None)
        if gcd(r, d) > 1 and lead in outer:
            features.add(f"lead mu_{gcd(r, d)}")
    return features


@pytest.mark.parametrize(
    "spec, p, dim, features", SPLIT_CASES,
    ids=[f"{s.r}-{s.n}-{s.variant}-p{p}" for s, p, _, _ in SPLIT_CASES])
def test_histogram_matches_per_point_oracle_on_every_split(
        monkeypatch, spec, p, dim, features):
    # both routes restricted to the cells up to dimension dim
    cells = tuple(c for c in enumerate_cells(spec.r, spec.n)
                  if c.dimension <= dim)
    d = _orbit_order(spec, p)
    assert features <= _split_features(spec.r, spec.n, p, d, cells)
    monkeypatch.setattr(pointcount, "enumerate_cells", lambda r, n: cells)
    _pencil_histogram.cache_clear()
    try:
        assert _pencil_histogram(spec, p) == per_point_histogram(spec, p)
    finally:
        _pencil_histogram.cache_clear()


ORBIT_CASES = ([((2, 4, v), p, d) for v in VARIANTS
                for p, d in ((2, 1), (5, 4), (7, 2), (11, 2), (13, 4))]
               + [((2, 5, "arrow"), 3, 1), ((2, 5, "arrow"), 11, 5)]
               + [((3, 4, "arrow"), 13, 4), ((3, 6, "arrow"), 3, 2)])


@pytest.mark.parametrize(
    "rnv, p, d", ORBIT_CASES,
    ids=[f"{r}-{n}-{v}-p{p}-d{d}" for (r, n, v), p, d in ORBIT_CASES])
def test_weighted_histogram_matches_per_cell_oracle(rnv, p, d):
    # the row-0 entries run over cosets of mu_d, weighted by d^k; the
    # oracle visits every row-0 value once.  r = 3 has outer entries in row 1
    # as well, which keep the full range
    spec = build_pencil(*rnv)
    assert _orbit_order(spec, p) == d
    assert _pencil_histogram(spec, p) == per_cell_histogram(spec, p)


def test_count_cell_matches_per_cell_oracle_at_d6():
    # d = gcd(6, 6) = 6; the whole of G(2,6)(F_7) is too slow for the
    # oracle, so compare cell by cell up to dimension 6
    spec, p = build_pencil(2, 6), 7
    d = _orbit_order(spec, p)
    assert d == 6
    deforming, frozen = _sparse_monomials(spec)
    tables = _LineTables(p)
    cells = [c for c in enumerate_cells(2, 6) if c.dimension <= 6]
    assert max(c.dimension for c in cells) == 6
    for cell in cells:
        hist = Counter()
        _count_cell(cell, 2, 6, p, deforming, frozen, tables, hist, d)
        assert hist == per_cell_histogram(spec, p, [cell]), cell


def test_count_cell_matches_per_cell_oracle_with_mu3_last_row():
    # d = gcd(6, 6) = 6 and g' = gcd(3, 6) = 3: the leading last-row entry
    # runs over 0 and the two cosets of mu_3.  The cells up to dimension 5
    # and (1, 2, 3) keep it among the outer entries, with inner blocks of
    # one to three entries in row 0 or the middle row
    spec, p = build_pencil(3, 6), 7
    d = _orbit_order(spec, p)
    assert d == 6
    deforming, frozen = _sparse_monomials(spec)
    tables = _LineTables(p)
    cells = [c for c in enumerate_cells(3, 6)
             if c.dimension <= 5 or c.pivots == (1, 2, 3)]
    splits = [_split_cell(c, 3, p, d) for c in cells]
    assert {len(inner) for _, _, _, inner, _, _ in splits} == {0, 1, 2, 3}
    assert {row for row, _, _, inner, _, _ in splits if inner} == {0, 1}
    assert any(3 in orders for _, _, orders, _, _, _ in splits)
    for cell in cells:
        hist = Counter()
        _count_cell(cell, 3, 6, p, deforming, frozen, tables, hist, d)
        assert hist == per_cell_histogram(spec, p, [cell]), cell


def test_last_row_runs_over_cosets_of_mu2(monkeypatch):
    # (2,4) at p = 23: d = 2 and g' = 2, so x1 takes 0 and 11 coset
    # representatives; every two-entry grid covers 12 * 23 pairs, not 23^2
    lengths = []

    class Recording(_LineTables):
        def powers(self, k0, slopes, es, xs=None):
            out = super().powers(k0, slopes, es, xs)
            if len(slopes) == 2:
                lengths.extend(len(v) for _, v in out
                               if not isinstance(v, int))
            return out

    monkeypatch.setattr(pointcount, "_LineTables", Recording)
    _pencil_histogram.cache_clear()
    spec, p = build_pencil(2, 4, "squares+quads"), 23
    assert _pencil_histogram(spec, p) == per_cell_histogram(spec, p)
    _pencil_histogram.cache_clear()
    assert lengths and set(lengths) == {12 * 23}


def test_non_invariant_pencil_keeps_the_full_route():
    spec, p = _non_invariant_pencil(), 5
    assert _orbit_order(build_pencil(2, 4), p) == 4
    assert _orbit_order(spec, p) == 1
    oracle = per_point_histogram(spec, p)
    assert _pencil_histogram(spec, p) == oracle
    # the guard is not vacuous: weighting this pencil by mu_4 is wrong
    deforming, frozen = _sparse_monomials(spec)
    tables, forced = _LineTables(p), Counter()
    for cell in enumerate_cells(2, 4):
        _count_cell(cell, 2, 4, p, deforming, frozen, tables, forced, 4)
    assert forced != oracle


def test_orbit_order_is_one_without_a_second_row():
    # r = 1 leaves no pivot to absorb the product of the row-0 scalings
    spec = build_pencil(1, 4)
    assert all(_orbit_order(spec, p) == 1 for p in (5, 13))


@pytest.mark.parametrize("p, d", [(2, 1), (5, 1), (5, 4), (7, 6), (13, 4),
                                  (31, 5), (61, 4)])
def test_row0_values_are_zero_and_coset_representatives(p, d):
    values = _row0_values(p, d)
    assert values[0] == 0 and len(values) == 1 + (p - 1) // d
    mu = {x for x in range(1, p) if pow(x, d, p) == 1}
    assert len(mu) == d
    orbits = [v * z % p for v in values[1:] for z in mu]
    assert sorted(orbits) == list(range(1, p))
    if d == 1:
        assert values == tuple(range(p))


@pytest.mark.parametrize("r, n", [(2, 6), (3, 6), (2, 7)])
def test_inner_block_holds_at_most_three_entries_of_one_row(r, n):
    wide = middle = 0
    for p in (3, 7, 13, 17, 61, 101):
        for d in {1, gcd(n, p - 1)}:
            for cell in enumerate_cells(r, n):
                row, outer, orders, inner, k1, grid = _split_cell(
                    cell, r, p, d)
                own = [j for i, j in cell.free_positions if i == row]
                assert len(inner) <= 3 and own[len(own) - len(inner):] == list(
                    inner)
                first = 1 + (p - 1) // k1  # the values of the first entry
                assert grid == (first * p ** (len(inner) - 1) if inner else 1)
                assert len(inner) < 3 or grid <= GRID_CAP
                # the other rows' entries first, row-major, then the row's own
                assert outer == tuple(e for e in cell.free_positions
                                      if e[0] != row) + tuple(
                    (row, j) for j in own[:len(own) - len(inner)])
                # a cell with a free entry never counts one point a pass
                assert bool(inner) == bool(cell.dimension)
                wide += len(inner) == 3
                middle += 0 < row < r - 1
    assert wide  # some rows lend a third entry
    assert middle or r == 2


@pytest.mark.parametrize("r, n, p, last_row_calls", [
    (2, 5, 11, 670), (2, 6, 7, 743), (3, 6, 3, 17034)])
def test_upper_minors_follow_only_the_rows_above(monkeypatch, r, n, p,
                                                 last_row_calls):
    # the (r-1)-minors of the rows other than the inner one are taken for
    # each assignment of those rows, never twice: fewer calls than the
    # last-row split made (last_row_calls), which took every complement
    # whenever an entry above the last row changed
    calls, cells = [], []
    real_det, real_cell = pointcount._det_mod, pointcount._count_cell

    def counting(matrix, cols, q):
        calls.append((cells[-1], tuple(map(tuple, matrix)), cols))
        return real_det(matrix, cols, q)

    def marking(cell, *args):
        cells.append(cell.pivots)
        return real_cell(cell, *args)

    monkeypatch.setattr(pointcount, "_det_mod", counting)
    monkeypatch.setattr(pointcount, "_count_cell", marking)
    spec = build_pencil(r, n)
    d = _orbit_order(spec, p)
    _pencil_histogram.cache_clear()
    _pencil_histogram(spec, p)
    _pencil_histogram.cache_clear()
    assert len(calls) == len(set(calls)) < last_row_calls
    # the assignments of the other rows: 1 + (p - 1)/d values in row 0,
    # 1 + (p - 1)/gcd(r, d) for the leading last-row entry, else p
    assignments = 0
    for cell in enumerate_cells(r, n):
        row = _split_cell(cell, r, p, d)[0]
        lead = min((e for e in cell.free_positions if e[0] == r - 1),
                   default=None)
        sizes = [1 + (p - 1) // (d if i == 0 else gcd(r, d)
                                 if (i, j) == lead else 1)
                 for i, j in cell.free_positions if i != row]
        assignments += prod(sizes) if sizes else 0
    assert len({call[:2] for call in calls}) == assignments


def test_line_tables_hold_at_most_p_squared_values():
    p = 5
    tables = _LineTables(p)
    # x1 over all of F_p, or over 0 and coset representatives; the later
    # entries over F_p, x1 major
    for xs, k0, s1, s2, s3 in product((None, (0, 1), (0, 2, 3)), range(p),
                                      range(p), (0, 1, 3), (0, 2)):
        xrange = xs or range(p)
        assert {len(row) for row in tables.rows(s1, 3, xs)} == {len(xrange)}
        assert len(tables.rows(s1, 3, xs)) == p
        for slopes, points in (
                ((s1,), [(x,) for x in xrange]),
                ((s1, s2), list(product(xrange, range(p)))),
                ((s1, s2, s3), list(product(xrange, range(p), range(p))))):
            for e, got in tables.powers(k0, slopes, (1, 2, 4), xs):
                want = tuple(pow(k0 + sum(map(mul, slopes, x)), e, p)
                             for x in points)
                assert (got == want[0] if isinstance(got, int)
                        else got == want), (xs, k0, slopes, e)
                assert isinstance(got, int) == (not any(slopes))


@pytest.mark.parametrize("p", [5, 7])
def test_rotated_line_tables_equal_pow_tables(p):
    tables = _LineTables(p)
    cosets = [_row0_values(p, k) for k in range(2, p) if (p - 1) % k == 0]
    for s, e, xs in product(range(p), range(1, 2 * p), [None, *cosets]):
        assert tables.rows(s, e, xs) == [
            tuple(pow(b + s * x, e, p) for x in xs or range(p))
            for b in range(p)], (s, e, xs)


@pytest.mark.parametrize("spec, p", [
    *[(build_pencil(2, 4, v), p) for v in VARIANTS for p in (5, 7, 23)],
    (_non_invariant_pencil(), 5)])
def test_count_table_answers_every_t_from_one_pass(spec, p):
    assert count_table(spec, p) == [count_points(spec, p, t)
                                    for t in range(1, p)]
