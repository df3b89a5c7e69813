import random
from collections import Counter
from itertools import combinations, product

import pytest

from grasspencils import pointcount
from grasspencils.fields import PrimeField
from grasspencils.grassmann import (VARIANTS, PencilSpec, build_pencil,
                                    evaluate_pencil, plucker_indices)
from grasspencils.linalg import ResourceLimitError
from grasspencils.pointcount import (PointCountRecord, _count_cell, _det_mod,
                                     _LineTables, _orbit_order,
                                     _pencil_histogram, _row0_values,
                                     _sparse_monomials, _split_cell,
                                     count_points, count_table, count_zeros,
                                     enumerate_cells, grassmannian_count,
                                     iter_plucker_points, records_to_csv)
from grasspencils.poly import SparsePolynomial
from grasspencils.symmetry import build_group
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
    # reproduce the r = 2 table
    for p in (2, 3):
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


def _non_invariant_pencil():
    """The (2,4) arrow pencil with p12^4 replaced by p12^3*p13, whose
    character (0,3,1,0) mod 4 is not a multiple of (1,1,1,1)."""
    arrow = build_pencil(2, 4)
    return PencilSpec(2, 4, "skew", ((3, 1, 0, 0, 0, 0),)
                      + arrow.deforming[1:], arrow.frozen)


def test_count_cell_matches_per_cell_oracle_with_mu3_last_row():
    # d = gcd(6, 6) = 6 and g' = gcd(3, 6) = 3: the leading last-row entry
    # runs over 0 and the two cosets of mu_3.  The cells up to dimension 5
    # have at most one last-row entry; (1, 2, 3) adds a two-entry grid
    spec, p = build_pencil(3, 6), 7
    d = _orbit_order(spec, p)
    assert d == 6
    deforming, frozen = _sparse_monomials(spec)
    tables = _LineTables(p)
    cells = [c for c in enumerate_cells(3, 6)
             if c.dimension <= 5 or c.pivots == (1, 2, 3)]
    assert {len(_split_cell(c, 3)[1]) for c in cells} == {0, 1, 2}
    for cell in cells:
        hist = Counter()
        _count_cell(cell, 3, 6, p, deforming, frozen, tables, hist, d)
        assert hist == per_cell_histogram(spec, p, [cell]), cell


def test_last_row_runs_over_cosets_of_mu2(monkeypatch):
    # (2,4) at p = 23: d = 2 and g' = 2, so x1 takes 0 and 11 coset
    # representatives; every plane covers 12 * 23 pairs, not 23^2
    lengths = []

    class Recording(_LineTables):
        def plane(self, *args):
            out = super().plane(*args)
            lengths.append(len(out))
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
def test_inner_block_holds_at_most_two_entries(r, n):
    wide = 0
    for cell in enumerate_cells(r, n):
        outer, inner = _split_cell(cell, r)
        assert len(inner) <= 2
        assert outer + tuple((r - 1, j) for j in inner) == cell.free_positions
        assert all(j > cell.pivots[-1] for j in inner)
        wide += any(i == r - 1 for i, _ in outer)
    assert wide  # some cells keep leading last-row entries among the outer


@pytest.mark.parametrize("r, n, p, calls", [(2, 5, 11, 670), (2, 6, 7, 743),
                                            (3, 6, 3, 17034)])
def test_upper_minors_follow_only_the_rows_above(monkeypatch, r, n, p, calls):
    # the (r-1)-minors are recomputed when an entry above the last row
    # changes, not for every outer assignment (2,020, 6,215 and 23,514)
    real, counted = pointcount._det_mod, []

    def counting(*args):
        counted.append(1)
        return real(*args)

    monkeypatch.setattr(pointcount, "_det_mod", counting)
    _pencil_histogram.cache_clear()
    _pencil_histogram(build_pencil(r, n), p)
    assert len(counted) == calls


def test_line_tables_hold_at_most_p_squared_values():
    p = 5
    tables = _LineTables(p)
    # x1 over all of F_p, or over 0 and coset representatives
    for xs, b, s1, s2 in product((None, (0, 1), (0, 2, 3)), range(p),
                                 range(p), (0, 1, 3)):
        assert tables.rows(s1, 3, xs)[b] == tuple(
            pow(b + s1 * x, 3, p) for x in xs or range(p))
        assert tables.plane(b, s1, s2, 2, xs) == tuple(
            pow(b + s1 * x1 + s2 * x2, 2, p)
            for x1 in xs or range(p) for x2 in range(p))


@pytest.mark.parametrize("spec, p", [
    *[(build_pencil(2, 4, v), p) for v in VARIANTS for p in (5, 7, 23)],
    (_non_invariant_pencil(), 5)])
def test_count_table_answers_every_t_from_one_pass(spec, p):
    assert count_table(spec, p) == [count_points(spec, p, t)
                                    for t in range(1, p)]
