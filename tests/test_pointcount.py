import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import gcd, prod

import pytest

from grasspencils import pointcount
from grasspencils.fields import RATIONALS, PrimeField
from grasspencils.grassmann import (VARIANTS, PencilSpec, build_pencil,
                                    evaluate_pencil, plucker_indices)
from grasspencils.linalg import ResourceLimitError
from grasspencils.pointcount import (ENUMERATION_GUARD, LANE_CAP, ORDER,
                                     PointCountRecord, _cell_polynomials,
                                     _count_cell, _det_mod, _grid_vectors,
                                     _orbit_order, _pencil_histogram,
                                     _reducer, _row0_values, _split_cell,
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


def test_count_zeros_refuses_a_polynomial_over_another_field():
    # over Q or GF(7) the counts at p = 5 read 0 and 130, not 320
    spec = build_pencil(2, 4)
    for field in (RATIONALS, PrimeField(7)):
        message = re.escape(f"over {field.name}, not GF(5)")
        with pytest.raises(ValueError, match=message):
            count_zeros(evaluate_pencil(spec, 2, field), 2, 4, 5)
    poly = evaluate_pencil(spec, 2, PrimeField(5))
    assert count_zeros(poly, 2, 4, 5) == count_points(spec, 5, 2).count == 320


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


@pytest.mark.parametrize("variant", ["arrow", "squares+quads"])
def test_count_points_reads_the_record_of_count_table(variant):
    spec = build_pencil(2, 4, variant)
    for p in (5, 7):
        table = count_table(spec, p)
        assert [count_points(spec, p, t) for t in range(1, p)] == table
        assert count_points(spec, p, 1 - p) == table[0]


def test_count_points_refuses_bad_input_before_counting(monkeypatch):
    def no_count(*args):
        raise AssertionError("counted before the input was checked")
    monkeypatch.setattr(pointcount, "count_table", no_count)
    spec = build_pencil(2, 4)
    with pytest.raises(ValueError, match="t = 0 is excluded"):
        count_points(spec, 5, 10)
    with pytest.raises(ValueError, match="6 is not prime"):
        count_points(spec, 6, 1)


def test_enumeration_guard(monkeypatch):
    def no_work(*args):
        raise AssertionError("a cell was counted past the guard")
    monkeypatch.setattr(pointcount, "_count_cell", no_work)
    spec = build_pencil(2, 7)
    with pytest.raises(ResourceLimitError):
        count_points(spec, 31, 1)


def test_work_guard_counts_grid_points_not_points(monkeypatch):
    # (2,5) at p = 41 (d = 5) has 4,871,753,210 points, but its histogram
    # takes 30,714 passes over 51,639,418 grid points: admitted unforced,
    # while the per-point route keeps its guard on points
    spec = build_pencil(2, 5)
    assert grassmannian_count(2, 5, 41) > ENUMERATION_GUARD
    assert histogram_work(spec, 41) == (30714, 51639418)
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


def test_primes_past_the_lanes_are_refused_before_any_work(monkeypatch):
    # a key (s*p + f)*C + class needs p^2 * C <= 2^64, and the sums of
    # N lanes of (p-1)^2 need Barrett constants that keep each in its
    # lane; P^1 at p = 2^32 - 5 is past both, p = 65,521 past the second
    def no_work(*args):
        raise AssertionError("a cell was counted past the lanes")
    monkeypatch.setattr(pointcount, "_count_cell", no_work)
    spec = build_pencil(1, 2)
    for p in (65521, 4294967291):
        with pytest.raises(ResourceLimitError, match="64-bit lanes"):
            count_table(spec, p, force=True)
    with pytest.raises(ResourceLimitError, match="64-bit lanes"):
        count_points(spec, 4294967291, 1, force=True)


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
    # G(3,5) and G(2,5) are dual, so the cell polynomials of r = 3, built
    # from 3 x 3 minors, must reproduce the r = 2 table; the two split
    # their cells differently at every p
    for p in (2, 3, 5, 7):
        assert (count_table(build_pencil(3, 5), p)
                == count_table(build_pencil(2, 5), p))


def test_minor_path_r4_matches_dual_r2_table():
    # G(4,6) and G(2,6) are dual; r = 4 expands 4 x 4 minors
    for p in (2, 3):
        assert (count_table(build_pencil(4, 6), p)
                == count_table(build_pencil(2, 6), p))


@pytest.mark.parametrize("r, dual, n, p", [(3, 2, 5, 7), (4, 2, 6, 5)])
def test_dual_grassmannians_count_alike(r, dual, n, p):
    # the r = 3 and r = 4 cells against r = 2 at a prime where each has
    # outer entries, a fast one and reduced inner entries (d = 5 and 2)
    assert count_table(build_pencil(r, n), p) == count_table(
        build_pencil(dual, n), p)


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


# (pencil, p, largest cell dimension, lane cap, the splits its cells must
# include): caps below LANE_CAP give the oracle-sized cells slow and fast
# outer entries; d runs over 1, 2, 4, 5, 6 and g' over 2 and 3
SPLIT_CASES = [
    (build_pencil(2, 4, "quads"), 5, 4, 8,
     {"d 4", "dimension 0", "all inner", "two rows", "reduced inner", "slow",
      "fast mu_4", "fast mu_2", "lead mu_2"}),
    (build_pencil(2, 4), 3, 4, 8,
     {"d 2", "two rows", "reduced inner", "slow", "fast mu_2"}),
    (build_pencil(2, 5), 11, 3, 30,
     {"d 5", "reduced inner", "slow", "fast mu_5"}),
    (build_pencil(2, 5), 3, 6, 100, {"d 1", "two rows", "slow"}),
    (build_pencil(2, 6), 3, 6, 30,
     {"two rows", "slow", "fast mu_2", "lead mu_2"}),
    (build_pencil(3, 6), 7, 4, 30,
     {"d 6", "two rows", "reduced inner", "slow", "fast mu_6", "lead mu_3"}),
    (build_pencil(3, 5), 7, 4, 100, {"two rows", "slow"}),
    (build_pencil(4, 6), 3, 5, 8, {"two rows", "slow", "fast mu_2",
                                   "lead mu_2"}),
    *[(_random_invariant_pencil(r, n, seed), p, dim, 30, {"reduced inner"})
      for seed, (r, n, p, dim) in enumerate(
          [(2, 4, 5, 4), (2, 5, 11, 3), (2, 6, 3, 6), (3, 4, 13, 3)])],
    (PencilSpec.from_json(_non_invariant_pencil().to_json()), 5, 4, 30,
     {"d 1", "two rows", "slow"}),
    (build_pencil(1, 4), 5, 3, 8, {"d 1", "dimension 0", "slow"}),
]


def _split_features(r, p, d, cells):
    features = {f"d {d}"}
    for cell in cells:
        orders, inner, _ = _split_cell(cell, r, p, d)
        nout = len(orders) - inner
        if not cell.dimension:
            features.add("dimension 0")
        elif not nout:
            features.add("all inner")
        if len({i for i, _ in cell.free_positions[nout:]}) > 1:
            features.add("two rows")
        if any(k > 1 for k in orders[nout:]):
            features.add("reduced inner")
        if nout > 1:
            features.add("slow")
        if nout and orders[nout - 1] > 1:
            features.add(f"fast mu_{orders[nout - 1]}")
        if gcd(r, d) > 1 and any(i == r - 1 for i, _ in cell.free_positions):
            features.add(f"lead mu_{gcd(r, d)}")
    return features


@pytest.mark.parametrize(
    "spec, p, dim, cap, features", SPLIT_CASES,
    ids=[f"{s.r}-{s.n}-{s.variant}-p{p}" for s, p, *_ in SPLIT_CASES])
def test_histogram_matches_per_point_oracle_on_every_split(
        monkeypatch, spec, p, dim, cap, features):
    # both routes restricted to the cells up to dimension dim
    cells = tuple(c for c in enumerate_cells(spec.r, spec.n)
                  if c.dimension <= dim)
    monkeypatch.setattr(pointcount, "LANE_CAP", cap)
    assert features <= _split_features(spec.r, p, _orbit_order(spec, p),
                                       cells)
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
    cells = [c for c in enumerate_cells(2, 6) if c.dimension <= 6]
    assert max(c.dimension for c in cells) == 6
    for cell in cells:
        hist = Counter()
        _count_cell(cell, spec, p, d, hist)
        assert hist == per_cell_histogram(spec, p, [cell]), cell


def test_count_cell_matches_per_cell_oracle_with_mu3_last_row(monkeypatch):
    # d = gcd(6, 6) = 6 and g' = gcd(3, 6) = 3: the leading last-row entry
    # runs over 0 and the two cosets of mu_3.  At LANE_CAP the cells up to
    # dimension 7 hold it inside the grid, behind slow outer entries; caps
    # of 20 and 2 make it the fast outer entry or a slow one
    spec, p = build_pencil(3, 6), 7
    d = _orbit_order(spec, p)
    assert d == 6
    cells = [c for c in enumerate_cells(3, 6) if c.dimension <= 7]
    oracle = {cell: per_cell_histogram(spec, p, [cell]) for cell in cells}
    where = set()
    for cap in (LANE_CAP, 20, 2):
        monkeypatch.setattr(pointcount, "LANE_CAP", cap)
        for cell in cells:
            orders, inner, _ = _split_cell(cell, 3, p, d)
            nout = len(orders) - inner
            if 3 in orders:
                k = orders.index(3)
                where.add("inner" if k >= nout else "fast" if k == nout - 1
                          else "slow")
            hist = Counter()
            _count_cell(cell, spec, p, d, hist)
            assert hist == oracle[cell], (cap, cell)
    assert where == {"inner", "fast", "slow"}


def test_last_row_runs_over_cosets_of_mu2(monkeypatch):
    # (2,4) at p = 23: d = 2 and g' = 2, so the leading last-row entry
    # takes 0 and 11 coset representatives; every grid that holds both
    # last-row entries covers 12 * 23 of their pairs, not 23^2
    grids = []
    real = pointcount._grid_vectors

    def recording(monos, values, width, q):
        grids.append(tuple(map(len, values)))
        return real(monos, values, width, q)

    spec, p = build_pencil(2, 4, "squares+quads"), 23
    oracle = per_cell_histogram(spec, p)
    monkeypatch.setattr(pointcount, "_grid_vectors", recording)
    _pencil_histogram.cache_clear()
    try:
        assert _pencil_histogram(spec, p) == oracle
    finally:
        _pencil_histogram.cache_clear()
    assert (12, 12, 23) in grids  # the top cell: row 0's (0,3) and row 1
    assert all(grid[-2:] == (12, 23) for grid in grids
               if len(grid) >= 2 and 23 in grid)


def test_non_invariant_pencil_keeps_the_full_route():
    spec, p = _non_invariant_pencil(), 5
    assert _orbit_order(build_pencil(2, 4), p) == 4
    assert _orbit_order(spec, p) == 1
    oracle = per_point_histogram(spec, p)
    assert _pencil_histogram(spec, p) == oracle
    # the guard is not vacuous: weighting this pencil by mu_4 is wrong
    forced = Counter()
    for cell in enumerate_cells(2, 4):
        _count_cell(cell, spec, p, 4, forced)
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
def test_inner_entries_are_the_trailing_ones_within_the_lane_cap(r, n):
    spans = slow = 0
    for p in (3, 7, 13, 17, 61, 101):
        for d in {1, gcd(n, p - 1)}:
            for cell in enumerate_cells(r, n):
                orders, inner, lanes = _split_cell(cell, r, p, d)
                free = cell.free_positions
                lead = next((e for e in free if e[0] == r - 1), None)
                assert orders == tuple(
                    d if i == 0 else gcd(r, d) if (i, j) == lead else 1
                    for i, j in free)
                sizes = [1 + (p - 1) // k for k in orders]
                nout = len(sizes) - inner
                # the longest run of trailing entries within the cap
                assert lanes == prod(sizes[nout:]) <= LANE_CAP
                assert not nout or lanes * sizes[nout - 1] > LANE_CAP
                spans += len({i for i, _ in free[nout:]}) > 1
                slow += nout > 1
    assert spans and slow  # grids across rows, passes with slow entries


@pytest.mark.parametrize("r, n, p", [(2, 5, 11), (2, 6, 7), (3, 6, 3)])
def test_cell_polynomials_are_expanded_once_per_pencil(monkeypatch, r, n,
                                                       p):
    # counting takes no minor: each cell's S and F are expanded once per
    # (pencil, cell), whatever p, and equal the sum and product of the
    # minors of the echelon matrix at random assignments
    def no_minor(*args):
        raise AssertionError("a minor was taken while counting")

    monkeypatch.setattr(pointcount, "_det_mod", no_minor)
    spec = build_pencil(r, n)
    _cell_polynomials.cache_clear()
    _pencil_histogram.cache_clear()
    try:
        for q in (2, 3, p):
            _pencil_histogram(spec, q)
        assert _cell_polynomials.cache_info().misses == len(
            enumerate_cells(r, n))
    finally:
        _pencil_histogram.cache_clear()
    rng, q = random.Random(r * n), 1000003
    col_sets = [tuple(i - 1 for i in idx) for idx in plucker_indices(r, n)]
    for cell in enumerate_cells(r, n):
        width, s_poly, f_poly = _cell_polynomials(spec, cell)
        xs = [rng.randrange(q) for _ in cell.free_positions]
        matrix = [[0] * n for _ in range(r)]
        for i, c in enumerate(cell.pivots):
            matrix[i][c] = 1
        for (i, j), x in zip(cell.free_positions, xs):
            matrix[i][j] = x
        coords = [_det_mod(matrix, cols, q) for cols in col_sets]

        def at(poly):
            return sum(c * prod(pow(x, e >> width * (len(xs) - 1 - k)
                                    & (1 << width) - 1, q)
                                for k, x in enumerate(xs))
                       for e, c in poly.items()) % q

        assert at(s_poly) == sum(prod(pow(c, e, q) for c, e in
                                      zip(coords, mono))
                                 for mono in spec.deforming) % q
        assert at(f_poly) == prod(pow(c, e, q) for c, e in
                                  zip(coords, spec.frozen)) % q


def _lanes(packed, lanes):
    return memoryview(packed.to_bytes(8 * lanes, ORDER)).cast("Q").tolist()


@pytest.mark.parametrize("p", [5, 7])
def test_grid_vectors_equal_pow_tables(p):
    # each entry over all of F_p or over 0 and coset representatives, the
    # first entry slowest; every monomial of up to three entries
    width = 3
    cosets = [_row0_values(p, k) for k in range(1, p) if (p - 1) % k == 0]
    for values in [*([v] for v in cosets), *product(cosets, cosets),
                   (cosets[0], cosets[-1], cosets[1])]:
        powers = list(product(range(5), repeat=len(values)))
        monos = {sum(e << width * (len(values) - 1 - k)
                     for k, e in enumerate(es)): es for es in powers}
        vectors = _grid_vectors(set(monos), list(values), width, p)
        grid = list(product(*values))
        for b, es in monos.items():
            assert _lanes(vectors[b], len(grid)) == [
                prod(pow(x, e, p) for x, e in zip(point, es)) % p
                for point in grid], (values, es)


def test_grid_vectors_hold_one_reduced_lane_per_grid_point():
    # one vector per requested monomial, none for the other exponents of
    # an entry, and each vector no wider than its grid: len(grid) lanes of
    # residues below p, the constant monomial a vector of ones
    p, width = 23, 4
    values = [_row0_values(p, 2), list(range(p)), _row0_values(p, 11)]
    grid = list(product(*values))
    monos = {0, 5 << 2 * width, (1 << width) | 3, (7 << 2 * width) | 15}
    vectors = _grid_vectors(monos, values, width, p)
    assert set(vectors) == monos
    assert _lanes(vectors[0], len(grid)) == [1] * len(grid)
    for v in vectors.values():
        assert v.bit_length() <= 64 * len(grid)
        assert max(_lanes(v, len(grid))) < p


@pytest.mark.parametrize("p, most",[(2, 400), (3, 400), (23, 400),
                                     (61, 400), (181, 400), (32749, 2)])
def test_reducer_is_exact_below_its_bound(p, most):
    # the bounds _count_cell uses: N products of two residues
    rng = random.Random(p)
    for terms in (1, 2, 13, 400):
        if terms > most:
            continue
        bound = terms * (p - 1) ** 2 + 1
        xs = [x for x in (0, 1, p - 1, p, bound - 1 - (bound - 1) % p)
              if x < bound]
        xs += [bound - 1, *(rng.randrange(bound) for _ in range(200))]
        packed = int.from_bytes(b"".join(x.to_bytes(8, ORDER) for x in xs),
                                ORDER)
        reduced = _reducer(bound, p, len(xs))(packed)
        assert _lanes(reduced, len(xs)) == [x % p for x in xs], terms


def test_memory_stays_within_the_lanes():
    # (2,4) arrow at p = 61: the largest grid holds 31 * 61 = 1,891 lanes.
    # Alive at once: 8 monomial vectors of the top cell, its 7 W_e and at
    # most 9 temporaries, 24 * LANE_CAP * 8 B = 768 KiB, besides the
    # histogram of at most p^2 = 3,721 pairs and the key counts of one
    # cell, together about 1 MiB.  The line tables of the earlier kernel
    # held p^2 values per slope and exponent: 2.3 MiB here, 62 MB at
    # p = 181
    spec, p = build_pencil(2, 4), 61
    count_table(spec, 5)  # the polynomials, built once per pencil
    _pencil_histogram.cache_clear()
    tracemalloc.start()
    try:
        count_table(spec, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _pencil_histogram.cache_clear()
    assert peak < 24 * LANE_CAP * 8 + 1024 * 1024 + 256 * 1024


@pytest.mark.parametrize("spec, p", [
    *[(build_pencil(2, 4, v), p) for v in VARIANTS for p in (5, 7, 23)],
    (_non_invariant_pencil(), 5)])
def test_count_table_answers_every_t_from_one_pass(spec, p):
    assert count_table(spec, p) == [count_points(spec, p, t)
                                    for t in range(1, p)]
