"""Layer probes for the traced run: each calls one layer's public functions
directly, at a fixed size, in a fresh process, and times the calls.

The sizes do not depend on the workload or the seed, so every count here
(`counts`, as opposed to the timings in `metrics`) repeats exactly and is
checked against `expected.json`.  Each metric names
the layer it measures; README.md says which end-to-end metric it should
move.
"""

import statistics
import time
from fractions import Fraction

import workloads
from grasspencils.fields import RATIONALS, PrimeField
from grasspencils.grassmann import (build_pencil, evaluate_pencil,
                                    plucker_relations)
from grasspencils.griffiths import (ci_bigraded_quotient,
                                    ci_context_for_pencil,
                                    grassmann_jacobian_generators,
                                    invariant_subspace)
from grasspencils.linalg import row_basis
from grasspencils.periods import (build_period_kernel, hasse_witt,
                                  period_coefficients, truncation_search)
from grasspencils.pointcount import (count_table, grassmannian_count,
                                     iter_plucker_points, records_to_csv)
from grasspencils.poly import monomials_of_degree
from grasspencils.symmetry import build_group, invariant_monomials

ENUM_SIZES = {"r2": (2, 4, 17), "r3": (3, 5, 3)}
TABLE_P = 17             # count_table on (2,4) arrow
K_MAX = 10               # period_coefficients; c_0..c_10 are in the paper
SEARCH_P = 11            # hasse_witt and truncation_search need c_0..c_10
SLICE = (2, 5, 2)        # (r, n, t) of the graded-slice probes
PRIME = workloads.HODGE_PRIMES[0]
REPEAT = 5               # sub-millisecond calls are timed as a median


def _timed(fn, repeat=1):
    """(median seconds, result of the last call)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def _slice_rows(polys, degree, nvars, position):
    """Rows of every monomial multiple of `polys` landing in `degree`."""
    rows = []
    for g in polys:
        if not g:
            continue
        for mult in monomials_of_degree(nvars, degree - g.total_degree()):
            rows.append({position[tuple(m + x for m, x in zip(mult, e))]: c
                         for e, c in g.terms.items()})
    return rows


def pointcount_probe(m, counts, checker):
    for key, (r, n, p) in ENUM_SIZES.items():
        secs, points = _timed(
            lambda: sum(1 for _ in iter_plucker_points(r, n, p)))
        checker.check(points == grassmannian_count(r, n, p),
                      f"enumeration of G({r},{n})(F_{p}) missed points")
        m[f"pointcount.enum_ns_per_point.{key}"] = secs / points * 1e9
    points = grassmannian_count(2, 4, TABLE_P)
    secs, records = _timed(
        lambda: count_table(build_pencil(2, 4, "arrow"), TABLE_P))
    m["pointcount.table_s"] = secs
    m["pointcount.hist_ns_per_point"] = secs / points * 1e9
    counts["pointcount.points"] = points
    counts["pointcount.table_sha256"] = workloads.sha256(
        records_to_csv(records))


def periods_probe(m, counts, checker):
    m["periods.build_kernel_s"], kernel = _timed(build_period_kernel, REPEAT)
    m["periods.coefficients_s"], coeffs = _timed(
        lambda: period_coefficients(kernel, K_MAX))
    counts["periods.k_max"] = K_MAX
    checker.check(tuple(coeffs) == workloads.PAPER_COEFFICIENTS[:K_MAX + 1],
                  "c_k differ from the paper's series")
    p = SEARCH_P
    m["periods.hasse_witt_s"], hw = _timed(
        lambda: [hasse_witt(p, t, kernel) for t in range(1, p)], REPEAT)
    records = count_table(build_pencil(2, 4, "arrow"), p)
    checker.check(all((1 - h) % p == rec.residue
                      for h, rec in zip(hw, records)),
                  f"Hasse-Witt congruence fails at p={p}")
    m["periods.search_s"], hits = _timed(
        lambda: truncation_search(p, records), REPEAT)
    checker.check(hits == [], f"truncation search at p={p} found hits")


def symmetry_probe(m, counts, checker):
    r, n, _ = SLICE
    secs, mons = _timed(lambda: invariant_monomials(r, n, n,
                                                    build_group(n, r)))
    m["symmetry.invariant_monomials_s"] = secs
    counts["symmetry.invariant_monomials"] = len(mons)
    return mons


def griffiths_probe(m, counts, checker):
    r, n, t = SLICE
    spec = build_pencil(r, n, "arrow")
    reports = {}
    for tag, fld in (("q", RATIONALS), ("modp", PrimeField(PRIME))):
        m[f"griffiths.generators_s.{tag}"], _ = _timed(
            lambda: grassmann_jacobian_generators(
                evaluate_pencil(spec, fld.coerce(t), fld), r, n))
        m[f"griffiths.specialization_s.{tag}"], reports[tag] = _timed(
            lambda: invariant_subspace(
                spec, t_values=(t,), primes=() if tag == "q" else (PRIME,),
                include_rationals=tag == "q"))
    keys = ("ambient", "relation_rank", "ideal_rank", "invariant_dim")
    q, modp = ({k: getattr(rep, k) for k in keys}
               for rep in (reports["q"], reports["modp"]))
    checker.check(q == modp, f"G({r},{n}) slice differs over Q and mod p")
    for k in keys:
        counts[f"griffiths.{k}"] = modp[k]

    def ci():
        ctx = ci_context_for_pencil(build_pencil(2, 4, "arrow"), Fraction(t))
        return tuple(ci_bigraded_quotient(ctx, bideg).quotient_dim
                     for bideg in ((0, 0), (0, 1)))
    m["griffiths.ci_s"], dims = _timed(ci)
    checker.check(dims == (1, 89), f"complete-intersection dims {dims}")
    return modp


def linalg_probe(m, counts, checker, invariants, slice_counts):
    """Rebuild the griffiths probe's slice here and time each elimination."""
    r, n, t = SLICE
    nvars = len(invariants[0])
    ambient = list(monomials_of_degree(nvars, n))
    position = {e: k for k, e in enumerate(ambient)}
    spec = build_pencil(r, n, "arrow")
    for tag, fld in (("q", RATIONALS), ("modp", PrimeField(PRIME))):
        rel_rows = _slice_rows(
            [rel.convert(fld) for rel in plucker_relations(r, n)], n, nvars,
            position)
        gen_rows = _slice_rows(grassmann_jacobian_generators(
            evaluate_pencil(spec, fld.coerce(t), fld), r, n), n, nvars,
            position)
        basis = row_basis(len(ambient), fld)
        m[f"linalg.relation_rows_s.{tag}"], rel_rank = _timed(
            lambda: basis.add_rows(rel_rows))
        m[f"linalg.generator_rows_s.{tag}"], ideal_rank = _timed(
            lambda: basis.add_rows(gen_rows))
        m[f"linalg.extend_s.{tag}"], inv_dim = _timed(
            lambda: sum(basis.add_row({position[e]: 1}) for e in invariants))
        checker.check(
            (rel_rank, ideal_rank, inv_dim)
            == (slice_counts["relation_rank"], slice_counts["ideal_rank"],
                slice_counts["invariant_dim"]),
            f"linalg ranks over {fld.name} differ from invariant_subspace")
    rows = len(rel_rows) + len(gen_rows)
    counts["linalg.rows"] = rows
    counts["linalg.cols"] = len(ambient)
    counts["linalg.nonzeros"] = sum(map(len, rel_rows + gen_rows))
    counts["linalg.rank_per_row"] = (rel_rank + ideal_rank) / rows
    # computed, not measured: the int64 block the mod-p kernel allocates
    counts["linalg.dense_bytes_modp"] = rows * len(ambient) * 8


def run_probes() -> dict:
    checker = workloads.Checker()
    m, counts = {}, {}
    pointcount_probe(m, counts, checker)
    periods_probe(m, counts, checker)
    invariants = symmetry_probe(m, counts, checker)
    slice_counts = griffiths_probe(m, counts, checker)
    linalg_probe(m, counts, checker, invariants, slice_counts)
    checker.check(counts == workloads.load_expected()["probes"],
                  "probe counts differ from expected.json")
    return {"metrics": m, "counts": counts, "attempted": checker.attempted,
            "failures": checker.failures}
