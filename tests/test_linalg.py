import random
import re

import pytest
from fractions import Fraction

from grasspencils import griffiths, linalg
from grasspencils.fields import PrimeField, RATIONALS, next_prime
from grasspencils.grassmann import build_pencil
from grasspencils.linalg import ResourceLimitError, row_basis
from rank_oracle import FractionRowBasis, _rank_rational


def _rank(rows, ncols, field=RATIONALS):
    basis = row_basis(ncols, field)
    basis.add_rows(rows)
    return basis.rank


def _dense_rows(data):
    return [{j: v for j, v in enumerate(row) if v} for row in data]


def test_rank_basics():
    assert _rank(_dense_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == 3
    assert _rank([{}] * 4, 5) == 0
    assert _rank(_dense_rows([[1, 2, 3], [2, 4, 6]]), 3) == 1


def test_rank_fractions():
    m = _dense_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert _rank(m, 2) == 2
    singular = _dense_rows([[Fraction(1, 2), Fraction(1, 3)],
                            [Fraction(3, 2), 1]])
    assert _rank(singular, 2) == 1


def _random_matrix(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.6:
                v = rng.randint(-9, 9)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def test_rank_invariant_under_row_ops():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, 5, 7)
        r0 = _rank(m, 7)
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = []
        for src in perm:
            scale = 0
            while scale == 0:
                scale = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            shuffled.append({j: v * scale for j, v in m[src].items()})
        assert _rank(shuffled, 7) == r0


def test_rank_rational_agrees_with_mod_p():
    # random integer matrices: rank over Q equals rank over F_p for all but
    # finitely many p; three primes above 2^30 and one above 2^61 (residues
    # are Python ints, so no word-size ceiling) must match the Bareiss rank
    primes = []
    p = 2 ** 30
    while len(primes) < 3:
        p = next_prime(p)
        primes.append(p)
    primes.append(next_prime(2 ** 61))
    rng = random.Random(11)
    for _ in range(40):
        m = _random_matrix(rng, 6, 8)
        r_q = _rank_rational(m, 8)
        for p in primes:
            assert _rank(m, 8, PrimeField(p)) == r_q, f"disagreement at p={p}"


def test_quotient_dimension():
    assert 9 - _rank([], 9) == 9
    assert 3 - _rank(_dense_rows([[1, 1, 0], [0, 1, 1]]), 3) == 1


def test_independent_extension_greedy_order():
    basis = row_basis(3, RATIONALS)
    candidates = [{0: 1}, {0: 2}, {1: 1}]
    assert [i for i, c in enumerate(candidates) if basis.add_row(c)] == [0, 2]
    basis = row_basis(3, RATIONALS)
    basis.add_rows([{0: 1}])
    assert not basis.add_row({0: 1})


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)])
def test_independent_extension_counts_rank_gap(field):
    # the greedy count must equal the rank gap, with the ranks taken by the
    # Bareiss oracle over Q (on these small integer entries the rank over
    # F_10007 is the rank over Q)
    rng = random.Random(13 + (field.modulus or 0))
    for _ in range(40):
        base = _random_matrix(rng, 4, 6)
        cands = [_random_matrix(rng, 1, 6)[0] for _ in range(5)]
        basis = row_basis(6, field)
        basis.add_rows(base)
        kept = [i for i, c in enumerate(cands) if basis.add_row(c)]
        assert len(kept) == (_rank_rational(base + cands, 6)
                             - _rank_rational(base, 6))


def test_bareiss_and_incremental_rational_routes_agree():
    # the Bareiss oracle eliminates column by column with the smallest
    # pivot, row_basis reduces each row against pivot-keyed primitive
    # integer rows; the two must agree on everything
    rng = random.Random(19)
    for _ in range(40):
        m = _random_matrix(rng, 5, 8)
        basis = row_basis(8, RATIONALS)
        basis.add_rows(m)
        assert basis.rank == _rank_rational(m, 8)


def test_row_basis_membership():
    basis = row_basis(4, RATIONALS)
    basis.add_row({0: 1, 1: 2})
    basis.add_row({2: 1})
    assert basis.contains({0: 2, 1: 4, 2: 7})
    assert not basis.contains({3: 1})
    mod = row_basis(4, PrimeField(7))
    mod.add_row({0: 1, 1: 2})
    mod.add_row({2: 1})
    assert mod.contains({0: 2, 1: 4, 2: 7})
    assert not mod.contains({3: 1})
    assert mod.contains({0: 4, 1: 1})  # 1 = 4 * 2 in F_7, not in Q
    assert not basis.contains({0: 4, 1: 1})
    assert type(mod) is type(basis)  # one kernel for both fields


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)],
                         ids=lambda f: f.name)
def test_row_basis_copy_extends_on_its_own(field, monkeypatch):
    basis = row_basis(4, field)
    basis.add_rows([{0: 2, 1: 4}, {1: 3, 3: 1}])
    rows = {pc: dict(row) for pc, row in basis.rows.items()}
    copy = basis.copy()
    assert (copy.field, copy.rows, copy.entries) == (field, rows, 4)
    assert copy.add_rows([{0: 1, 2: 5}, {2: 1}, {3: 1}]) == 2
    assert (copy.rank, copy.entries) == (4, 7)
    assert copy.contains({2: 1})
    # the original keeps its rows, its entries and its answers, and what
    # it takes later does not reach the copy
    assert (basis.rows, basis.entries, basis.rank) == (rows, 4, 2)
    assert not basis.contains({2: 1})
    copied = {pc: dict(row) for pc, row in copy.rows.items()}
    assert basis.add_row({2: 1, 3: 2})
    assert (copy.rows, copy.entries) == (copied, 7)
    # a copy counts the rows it shares among its entries, and is refused
    # past the cap as a basis that stored them itself would be
    shared = basis.copy()
    assert shared.entries == basis.entries == 6
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 7)
    assert shared.add_row({4: 1})
    with pytest.raises(ResourceLimitError, match=re.escape(
            "7 stored + 1 new entries exceed the 7 entry limit")):
        shared.add_row({5: 1})
    assert (shared.rank, shared.entries) == (4, 7)


def _two_block_pairs():
    # block c % 2: in each, one row free of t (2 entries) and one pair that
    # adds a row of 2 entries at every t != 0
    return griffiths._split([(0, ({0: 1, 2: 1}, {})), (0, ({2: 1}, {4: 1})),
                             (1, ({1: 1, 3: 1}, {})), (1, ({3: 1}, {5: 1}))])


def _specialize(fields, t_values):
    # the specializations of the two blocks, read as a slice of G(2,4)
    # with no candidates, so the trivial block, visited last, holds nothing
    return griffiths._specializations(build_pencil(2, 4), 4,
                                      _two_block_pairs(), fields, t_values,
                                      ())


def _recorded(monkeypatch, name, made):
    # the bases griffiths makes through row_basis, or by copying one
    if name == "row_basis":
        monkeypatch.setattr(griffiths, name, lambda ncols, field: (
            made.append(row_basis(ncols, field)) or made[-1]))
    else:
        real = linalg._RowBasis.copy
        monkeypatch.setattr(linalg._RowBasis, name, lambda basis: (
            made.append(real(basis)) or made[-1]))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)],
                         ids=lambda f: f.name)
def test_row_pairs_cap_each_basis_on_its_own(field, monkeypatch):
    # each block's basis stores 4 entries at each t, 2 of them shared with
    # its basis free of t: the cap bounds each basis, not their sum
    fixed, copies = [], []
    _recorded(monkeypatch, "row_basis", fixed)
    _recorded(monkeypatch, "copy", copies)
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 4)
    assert [res["ideal_rank"] for res in _specialize((field,), (2, 3))] == [
        4, 4]
    # blocks 0, 1 and the trivial block, each eliminated once and copied
    # at each t; a copy counts the entries it shares
    assert [basis.entries for basis in fixed] == [2, 2, 0]
    assert [basis.entries for basis in copies] == [4, 4, 4, 4, 0, 0]
    # at t = 2 the first block's copy holds its 2 shared entries, and its
    # pair row of 2 more is refused
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 3)
    with pytest.raises(ResourceLimitError, match=re.escape(
            f"over {field.name}: 2 stored + 2 new entries "
            "exceed the 3 entry limit")):
        _specialize((field,), (2,))
    # with no t, the two bases free of t, of 2 entries each, fit a cap of 2
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 2)
    fixed.clear()
    assert _specialize((field,), ()) == []
    assert [basis.entries for basis in fixed] == [2, 2, 0]


def test_row_pairs_eliminate_the_t_free_rows_once_per_field(monkeypatch):
    # however many t there are, each block's rows free of t enter one
    # basis per field, and every t starts from a copy of it
    real, added = linalg._RowBasis.add_row, []
    monkeypatch.setattr(linalg._RowBasis, "add_row", lambda basis, row: (
        added.append((basis.field, row)) or real(basis, row)))
    fields = (RATIONALS, PrimeField(7))
    for t_values in ((2,), (2, 3, 5, -1)):
        fixed, added[:] = [], []
        _recorded(monkeypatch, "row_basis", fixed)
        results = _specialize(fields, t_values)
        assert [res["ideal_rank"] for res in results] == [4] * 2 * len(
            t_values)
        assert [(basis.field, basis.rows) for basis in fixed] == [
            (fld, rows) for rows in ({0: {0: 1, 2: 1}}, {1: {1: 1, 3: 1}}, {})
            for fld in fields]
        for row in ({0: 1, 2: 1}, {1: 1, 3: 1}):
            assert [fld for fld, r in added if r == row] == list(fields)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)])
def test_row_basis_refuses_rows_past_entry_cap(field, monkeypatch):
    # the cap counts stored entries of reduced rows and refuses a row
    # before storing it, leaving the basis as it was
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 5)
    basis = row_basis(8, field)
    assert basis.add_rows([{0: 1, 1: 2}, {2: 1, 3: 1}]) == 2
    with pytest.raises(ResourceLimitError):
        basis.add_row({4: 1, 5: 1})
    assert basis.rank == 2
    assert not basis.contains({4: 1})
    assert not basis.add_row({0: 3, 1: 6})  # dependent rows store nothing
    assert basis.add_row({0: 1, 1: 2, 4: 1})  # reduces to one entry: fits
    with pytest.raises(ResourceLimitError):
        basis.add_row({5: 1})
    assert basis.rank == 3
    assert basis.contains({0: 1, 1: 2, 4: 5})


def test_rational_input_matches_the_fraction_oracle():
    # Fraction and negative entries, rows scaled by random Fractions: the
    # integer rows keep the oracle's rank, pivots and membership answers,
    # on combinations of the rows (inside the span) and on random rows
    rng = random.Random(23)

    def scalar():
        num = 0
        while num == 0:
            num = rng.randint(-7, 7)
        return Fraction(num, rng.randint(1, 7))

    for _ in range(40):
        rows = [{j: Fraction(v, rng.randint(1, 6)) * s
                 for j, v in row.items()}
                for row, s in zip(_random_matrix(rng, 6, 9),
                                  [scalar() for _ in range(6)])]
        basis, oracle = row_basis(9, RATIONALS), FractionRowBasis()
        assert ([basis.add_row(r) for r in rows]
                == [oracle.add_row(r) for r in rows])
        assert basis.rank == oracle.rank
        assert basis.rows.keys() == oracle.rows.keys()
        probes = _random_matrix(rng, 4, 9)
        for a, b in zip(rows, reversed(rows)):
            sa, sb = scalar(), scalar()
            probes.append({c: sa * a.get(c, 0) + sb * b.get(c, 0)
                           for c in a.keys() | b.keys()})
        assert ([basis.contains(r) for r in probes]
                == [oracle.contains(r) for r in probes])
        assert all(basis.contains(r) for r in probes[4:])


def test_fraction_rows_mod_p_match_rows_coerced_entry_by_entry():
    # clearing denominators scales a row by a unit of F_p, so the ranks,
    # stored monic rows and membership answers are those of the rows
    # coerced one entry at a time
    rng = random.Random(29)
    fld = PrimeField(11)
    for _ in range(40):
        rows = [{j: Fraction(v, rng.choice((1, 2, 3, 5, 7, 13)))
                 for j, v in row.items()}
                for row in _random_matrix(rng, 6, 9)]
        coerced = [{c: r for c, v in row.items() if (r := fld.coerce(v))}
                   for row in rows]
        basis, twin = row_basis(9, fld), row_basis(9, fld)
        assert ([basis.add_row(r) for r in rows]
                == [twin.add_row(r) for r in coerced])
        assert basis.rank == twin.rank and basis.rows == twin.rows
        assert basis.entries == twin.entries
        probes = _random_matrix(rng, 4, 9) + rows
        assert ([basis.contains({c: Fraction(v, 3) for c, v in r.items()})
                 for r in probes]
                == [twin.contains({c: fld.coerce(Fraction(v, 3))
                                   for c, v in r.items()}) for r in probes])
    with pytest.raises(ZeroDivisionError, match="vanishes mod 11"):
        row_basis(2, fld).add_row({0: 1, 1: Fraction(1, 22)})


@pytest.mark.parametrize("p", [None, 11, 1048583])
def test_int_rows_enter_in_one_pass(p, monkeypatch):
    # a row of ints needs no lcm: it enters as the same nonzero ints (mod p)
    # that the lcm route gives its Fraction copy; one Fraction in the row
    # sends the whole row down the lcm route
    rng = random.Random(37)
    rows = [{j: rng.choice((0, 1, -1, 2, 11, -22, 10 ** 30 + 1))
             for j in rng.sample(range(12), rng.randint(0, 8))}
            for _ in range(60)]
    expected = [linalg._integer_row({c: Fraction(v) for c, v in row.items()},
                                    p) for row in rows]

    def refused(*args):
        raise AssertionError("an int row took the lcm route")

    monkeypatch.setattr(linalg, "lcm", refused)
    got = [linalg._integer_row(row, p) for row in rows]
    assert got == expected
    assert all(type(v) is int and v for row in got for v in row.values())
    with pytest.raises(AssertionError, match="lcm route"):
        linalg._integer_row({0: 3, 1: Fraction(1, 2)}, p)
