"""Command-line entry point: each subcommand reproduces one experiment.

   tables  --p 5 [--variant arrow]   point-count table as CSV + JSON
   search  --p 5                     hypergeometric truncation scan
   hodge   --rn 2,4 --variant arrow  graded/invariant dimension report

Every run writes a reproducibility manifest next to its outputs: the
parameters, package version, per-step timings, a sha256 digest of each
output file and, for tables and search, the order d of the diagonal-group
orbits the point count was taken over (orbit_order).  Output files are
deterministic (fixed iteration orders, no timestamps), so re-running an
experiment reproduces the digests bit for bit; timings live only in the
manifest.

Exit status: 0 = computed (and matched the expectation when --check was
given), 2 = computed but mismatched a supplied expectation, 3 = the
specializations of a generic-parameter computation disagreed.
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .fields import RATIONALS
from .grassmann import PencilSpec, build_pencil
from .griffiths import (SpecializationMismatch, ci_bigraded_quotient,
                        ci_context_for_pencil, invariant_subspace)
from .linalg import ResourceLimitError
from .periods import (default_kernel, hasse_witt, period_coefficients,
                      truncation_search)
from .pointcount import _orbit_order, count_table, records_to_csv
from .symmetry import build_group

OK = 0
MISMATCH = 2
INCONSISTENT = 3


def _fixture_text(name: str) -> str:
    return resources.files("grasspencils").joinpath(
        f"fixtures/{name}").read_text()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(outdir: Path, name: str, text: str, outputs: dict) -> Path:
    path = outdir / name
    path.write_text(text)
    outputs[name] = _digest(path)
    return path


def _manifest(outdir: Path, experiment: str, parameters: dict,
              timings: dict, outputs: dict, **facts) -> None:
    doc = {
        "experiment": experiment,
        "parameters": parameters,
        "version": __version__,
        "timings_ms": timings,
        "outputs": outputs,
        **facts,
    }
    (outdir / f"{experiment}_manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _integers(flag, text, form, count=None):
    """The comma-separated integers of one flag; a ValueError names it."""
    try:
        values = tuple(int(x) for x in text.split(","))
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{flag} takes {form}, got {text!r}")


def _load_pencil(args) -> PencilSpec:
    if getattr(args, "pencil_json", None):
        return PencilSpec.from_json(Path(args.pencil_json).read_text())
    r, n = _integers("--rn", args.rn, "two comma-separated integers r,n", 2)
    return build_pencil(r, n, args.variant)


def _matches_label(spec: PencilSpec) -> bool:
    """Whether spec has the monomials of the shipped pencil its label names:
    the deforming set and frozen product of build_pencil(r, n, variant).
    Only such a pencil has a period kernel or a shipped expectation."""
    try:
        shipped = build_pencil(spec.r, spec.n, spec.variant)
    except ValueError:
        return False
    return ((set(spec.deforming), spec.frozen)
            == (set(shipped.deforming), shipped.frozen))


def cmd_tables(args) -> int:
    spec = _load_pencil(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = f"tables_p{args.p}_{spec.variant}"
    timings, outputs = {}, {}

    t0 = time.perf_counter()
    records = count_table(spec, args.p, force=args.force)
    timings["count_ms"] = (time.perf_counter() - t0) * 1000

    csv_text = records_to_csv(records)
    rows = []
    with_hw = ((spec.r, spec.n, spec.variant) == (2, 4, "arrow")
               and _matches_label(spec))
    for rec in records:
        row = {"t": rec.t, "count": rec.count, "residue": rec.residue}
        if with_hw:
            hw = hasse_witt(args.p, rec.t)
            row["hw"] = hw
            row["congruence_ok"] = (1 - hw) % args.p == rec.residue
        rows.append(row)
    doc = {"r": spec.r, "n": spec.n, "p": args.p, "variant": spec.variant,
           "rows": rows}

    _write(outdir, f"{name}.csv", csv_text, outputs)
    _write(outdir, f"{name}.json",
           json.dumps(doc, sort_keys=True, indent=2) + "\n", outputs)
    _manifest(outdir, name,
              {"p": args.p, "rn": [spec.r, spec.n],
               "variant": spec.variant}, timings, outputs,
              orbit_order=_orbit_order(spec, args.p))
    for row in rows:
        print(f"t={row['t']}: count={row['count']} residue={row['residue']}")

    if args.check:
        expected = None
        # the shipped tables are for the labelled pencils of G(2,4)
        if (spec.r, spec.n) == (2, 4) and _matches_label(spec):
            try:
                expected = _fixture_text(f"table_p{args.p}_{spec.variant}.csv")
            except FileNotFoundError:
                pass
        if expected is None:
            print(f"check FAILED: no expected table ships for p={args.p} "
                  f"{spec.variant} on G({spec.r},{spec.n})", file=sys.stderr)
            return MISMATCH
        if csv_text != expected:
            print("check FAILED: computed table differs from the expected "
                  "fixture", file=sys.stderr)
            return MISMATCH
        print("check passed: table matches the expected fixture")
    return OK


def cmd_search(args) -> int:
    spec = build_pencil(2, 4, "arrow")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = f"search_p{args.p}"
    timings, outputs = {}, {}

    t0 = time.perf_counter()
    records = count_table(spec, args.p)
    timings["count_ms"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    hits = truncation_search(args.p, records)
    timings["search_ms"] = (time.perf_counter() - t0) * 1000

    kernel = default_kernel()
    coeffs = period_coefficients(kernel, args.p - 1)
    doc = {
        "p": args.p,
        "coefficients": [str(c) for c in coeffs],
        "hw": {str(rec.t): hasse_witt(args.p, rec.t) for rec in records},
        "search_hits": [list(h) for h in hits],
        "grid": {"a": args.p - 1, "b": args.p - 1},
    }
    _write(outdir, f"{name}.json",
           json.dumps(doc, sort_keys=True, indent=2) + "\n", outputs)
    _manifest(outdir, name, {"p": args.p}, timings, outputs,
              orbit_order=_orbit_order(spec, args.p))
    print(f"scanned {(args.p - 1) ** 2} candidate scalings; "
          f"{len(hits)} hit(s)")

    if args.check and hits:
        print("check FAILED: expected an empty hit list", file=sys.stderr)
        return MISMATCH
    return OK


def cmd_hodge(args) -> int:
    spec = _load_pencil(args)
    r, n = spec.r, spec.n
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = f"hodge_{r}{n}_{spec.variant.replace('+', '-')}"
    timings, outputs = {}, {}

    t_values = _integers("--t", args.t, "comma-separated integers")
    primes = _integers("--primes", args.primes, "comma-separated primes") \
        if args.primes else ()
    group = build_group(n, r)

    t0 = time.perf_counter()
    report = invariant_subspace(
        spec, degree=args.degree,
        t_values=t_values, primes=primes, include_rationals=args.rationals)
    timings["invariant_ms"] = (time.perf_counter() - t0) * 1000
    include_q = any(s["field"] == RATIONALS.name
                    for s in report.specializations)

    doc = {
        "report": json.loads(report.to_json()),
        "group": {"order": group.effective_order,
                  "structure": group.structure},
        "verdict": "unanimous",
    }

    if (r, n) == (2, 4) and include_q:
        # cross-check against the projective complete-intersection model
        t0 = time.perf_counter()
        ci_dims = {}
        for t in t_values:
            ctx = ci_context_for_pencil(spec, Fraction(t))
            ci_dims[t] = (ci_bigraded_quotient(ctx, (0, 0)).quotient_dim,
                          ci_bigraded_quotient(ctx, (0, 1)).quotient_dim)
        timings["ci_ms"] = (time.perf_counter() - t0) * 1000
        if len(set(ci_dims.values())) != 1:
            print("inconsistent complete-intersection specializations",
                  file=sys.stderr)
            for t, (d00, d01) in ci_dims.items():
                print(f"  t={t} over {RATIONALS.name}: dim_0_0={d00} "
                      f"dim_0_1={d01}", file=sys.stderr)
            return INCONSISTENT
        d00, d01 = ci_dims[t_values[0]]
        doc["ci_model"] = {"dim_0_0": d00, "dim_0_1": d01,
                           "agrees": d01 == report.quotient_dim}

    _write(outdir, f"{name}.json",
           json.dumps(doc, sort_keys=True, indent=2) + "\n", outputs)
    _manifest(outdir, name,
              {"rn": [r, n], "variant": spec.variant, "degree": args.degree,
               "t": list(t_values), "primes": list(primes),
               "rationals": include_q}, timings, outputs)
    print(f"quotient dimension {report.quotient_dim}, "
          f"invariant dimension {report.invariant_dim}")
    print("survivors:", ", ".join(report.survivor_names))

    if args.check:
        expected = json.loads(_fixture_text("dimensions.json"))
        # the shipped dimensions are all for the labelled pencils in degree n
        want = (expected.get(f"{r},{n}", {}).get(spec.variant)
                if report.degree == n and _matches_label(spec) else None)
        if want is None:
            print(f"check FAILED: no expected dimensions ship for "
                  f"G({r},{n}) {spec.variant} in degree {report.degree}",
                  file=sys.stderr)
            return MISMATCH
        ok = (report.quotient_dim == want["quotient_dim"]
              and report.invariant_dim == want["invariant_dim"])
        if not ok:
            print(f"check FAILED: expected {want}", file=sys.stderr)
            return MISMATCH
        print("check passed: dimensions match the expected fixture")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspencils",
        description="Reproduce point counts, period series and Hodge "
                    "dimension counts for symmetric Grassmannian pencils.")
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="point-count table over F_p")
    tables.add_argument("--p", type=int, required=True)
    tables.add_argument("--rn", default="2,4",
                        help="comma-separated r,n (default 2,4)")
    tables.add_argument("--variant", default="arrow")
    tables.add_argument("--pencil-json",
                        help="load the pencil from a JSON document instead")
    tables.add_argument("--outdir", default=".")
    tables.add_argument("--check", action="store_true",
                        help="compare against the shipped expected table")
    tables.add_argument("--force", action="store_true",
                        help="lift the enumeration size guard")
    tables.set_defaults(func=cmd_tables)

    search = sub.add_parser(
        "search", help="scan for a hypergeometric truncation relation")
    search.add_argument("--p", type=int, required=True)
    search.add_argument("--outdir", default=".")
    search.add_argument("--check", action="store_true",
                        help="fail unless the hit list is empty")
    search.set_defaults(func=cmd_search)

    hodge = sub.add_parser(
        "hodge", help="graded quotient and invariant-subspace dimensions")
    hodge.add_argument("--rn", default="2,4")
    hodge.add_argument("--variant", default="arrow")
    hodge.add_argument("--pencil-json")
    hodge.add_argument("--degree", type=int, default=None,
                       help="graded degree (default: n)")
    hodge.add_argument("--t", default="2,3,5",
                       help="comma-separated parameter values")
    hodge.add_argument("--primes", default="",
                       help="comma-separated specialization primes")
    hodge.add_argument("--rationals", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="also specialize over Q (default: only when "
                            "no primes are given)")
    hodge.add_argument("--outdir", default=".")
    hodge.add_argument("--check", action="store_true",
                       help="compare against the shipped expected dimensions")
    hodge.set_defaults(func=cmd_hodge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return MISMATCH
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except SpecializationMismatch as exc:
        print(f"inconsistent specializations: {exc}", file=sys.stderr)
        for res in exc.results:
            print(f"  t={res['t']} over {res['field']}: "
                  f"quotient={res['quotient_dim']} "
                  f"invariant={res['invariant_dim']}", file=sys.stderr)
        return INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
