"""Command-line entry point: each subcommand reproduces one experiment.

   tables  --p 5 [--variant arrow]   point-count table as CSV + JSON
   search  --p 5                     hypergeometric truncation scan
   hodge   --rn 2,4 --variant arrow  graded/invariant dimension report

Every run writes a reproducibility manifest next to its outputs: the
parameters, package version, per-step timings, a sha256 digest of each
output file and, for tables and search, the order d of the diagonal-group
orbits the point count was taken over (orbit_order) and the passes and
grid points of its histogram (work); for hodge, the character blocks of
the slice (blocks) and the monomials whose normal forms the process holds
after the run (normal_forms).  Output files are deterministic (fixed
iteration orders, no timestamps), so re-running an experiment reproduces
the digests bit for bit; timings live only in the manifest.

Exit status: 0 = computed (and passed --check); 2 = failed --check, or
refused a malformed or oversized input; 3 = the specializations of either
hodge route disagreed: nothing is written, and the message names the keys
that differed for each t and field.
"""

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache
from importlib import resources
from pathlib import Path

from . import __version__
from .fields import RATIONALS
from .grassmann import PencilSpec, build_pencil, normal_form
from .griffiths import (SpecializationMismatch, ci_bigraded_quotient,
                        ci_context_for_pencil, consensus, invariant_subspace)
from .linalg import ResourceLimitError
from .periods import (default_kernel, hasse_witt, period_coefficients,
                      truncation_search)
from .pointcount import (_orbit_order, count_table, histogram_work,
                         records_to_csv)
from .symmetry import build_group

OK = 0
MISMATCH = 2
INCONSISTENT = 3


def _fixture_text(name: str) -> str | None:
    """A shipped fixture's text, or None if none ships by that name."""
    path = resources.files("grasspencils").joinpath(f"fixtures/{name}")
    return path.read_text() if path.is_file() else None


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _Experiment:
    """One run's output directory, step timings, output digests and
    manifest; every file is named after the experiment.  The directory is
    made by the first write, so a run that fails before it leaves none."""

    def __init__(self, outdir, name):
        self.outdir, self.name = Path(outdir), name
        self.timings, self.outputs = {}, {}

    def timed(self, key, fn, *args, **kwargs):
        """fn(*args, **kwargs), its wall time recorded under key."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[key] = (time.perf_counter() - t0) * 1000
        return out

    def write(self, suffix, text):
        name = self.name + suffix
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        path.write_text(text)
        self.outputs[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def manifest(self, parameters, **facts):
        doc = {"experiment": self.name, "parameters": parameters,
               "version": __version__, "timings_ms": self.timings,
               "outputs": self.outputs, **facts}
        (self.outdir / f"{self.name}_manifest.json").write_text(_json(doc))


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


def _verdict(failure, passed=None) -> int:
    """Print the outcome of --check: MISMATCH if it failed, else OK."""
    if failure:
        print(f"check FAILED: {failure}", file=sys.stderr)
        return MISMATCH
    if passed:
        print(f"check passed: {passed}")
    return OK


def _count_facts(spec, p) -> dict:
    """The manifest facts of a point count: its orbit order and work."""
    passes, points = histogram_work(spec, p)
    return {"orbit_order": _orbit_order(spec, p),
            "work": {"passes": passes, "grid_points": points}}


def cmd_tables(args) -> int:
    spec = _load_pencil(args)
    run = _Experiment(args.outdir, f"tables_p{args.p}_{spec.variant}")
    records = run.timed("count_ms", count_table, spec, args.p,
                       force=args.force)
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

    run.write(".csv", csv_text)
    run.write(".json", _json(doc))
    run.manifest({"p": args.p, "rn": [spec.r, spec.n],
                  "variant": spec.variant},
                 **_count_facts(spec, args.p))
    for row in rows:
        print(f"t={row['t']}: count={row['count']} residue={row['residue']}")

    if not args.check:
        return OK
    # the shipped tables are for the labelled pencils of G(2,4)
    expected = (_fixture_text(f"table_p{args.p}_{spec.variant}.csv")
                if (spec.r, spec.n) == (2, 4) and _matches_label(spec)
                else None)
    if expected is None:
        return _verdict(f"no expected table ships for p={args.p} "
                        f"{spec.variant} on G({spec.r},{spec.n})")
    return _verdict("computed table differs from the expected fixture"
                    if csv_text != expected else None,
                    "table matches the expected fixture")


def cmd_search(args) -> int:
    spec = build_pencil(2, 4, "arrow")
    run = _Experiment(args.outdir, f"search_p{args.p}")
    records = run.timed("count_ms", count_table, spec, args.p)
    hits = run.timed("search_ms", truncation_search, args.p, records)

    kernel = default_kernel()
    coeffs = period_coefficients(kernel, args.p - 1)
    doc = {
        "p": args.p,
        "coefficients": [str(c) for c in coeffs],
        "hw": {str(rec.t): hasse_witt(args.p, rec.t) for rec in records},
        "search_hits": [list(h) for h in hits],
        "grid": {"a": args.p - 1, "b": args.p - 1},
    }
    run.write(".json", _json(doc))
    run.manifest({"p": args.p}, **_count_facts(spec, args.p))
    print(f"scanned {(args.p - 1) ** 2} candidate scalings; "
          f"{len(hits)} hit(s)")

    if args.check and hits:
        return _verdict("expected an empty hit list")
    return OK


def _ci_model(spec, t_values, quotient_dim):
    """The (0,0) and (0,1) dimensions of the complete-intersection model
    over Q, agreed on by every t, and whether (0,1) is quotient_dim."""
    records = []
    for t in t_values:
        ctx = ci_context_for_pencil(spec, t)
        records.append({"t": str(t), "field": RATIONALS.name, **{
            f"dim_0_{b}": ci_bigraded_quotient(ctx, (0, b)).quotient_dim
            for b in (0, 1)}})
    ci = consensus(records, ("dim_0_0", "dim_0_1"),
                   f"the complete-intersection model of {spec.variant} "
                   "on G(2,4)")
    return {"dim_0_0": ci["dim_0_0"], "dim_0_1": ci["dim_0_1"],
            "agrees": ci["dim_0_1"] == quotient_dim}


def _hodge_failure(spec, report, ci):
    """Why hodge --check fails, or None if it passes."""
    if ci and not ci["agrees"]:
        return (f"complete-intersection dim_0_1={ci['dim_0_1']}, "
                f"Griffiths quotient_dim={report.quotient_dim}")
    expected = json.loads(_fixture_text("dimensions.json"))
    # the shipped dimensions are all for the labelled pencils in degree n
    want = (expected.get(f"{spec.r},{spec.n}", {}).get(spec.variant)
            if report.degree == spec.n and _matches_label(spec) else None)
    if want is None:
        return (f"no expected dimensions ship for G({spec.r},{spec.n}) "
                f"{spec.variant} in degree {report.degree}")
    if want != {k: getattr(report, k) for k in want}:
        return f"expected {want}"
    return None


def cmd_hodge(args) -> int:
    spec = _load_pencil(args)
    r, n = spec.r, spec.n
    run = _Experiment(args.outdir,
                      f"hodge_{r}{n}_{spec.variant.replace('+', '-')}")
    t_values = _integers("--t", args.t, "comma-separated integers")
    primes = _integers("--primes", args.primes, "comma-separated primes") \
        if args.primes else ()
    group = build_group(n, r)

    include_q = args.rationals or not primes
    report = run.timed("invariant_ms", invariant_subspace, spec,
                       degree=args.degree, t_values=t_values, primes=primes,
                       include_rationals=include_q)
    doc = {"report": json.loads(report.to_json()), "verdict": "unanimous",
           "group": {"order": group.effective_order,
                     "structure": group.structure}}
    if (r, n) == (2, 4) and include_q:
        # cross-check against the projective complete-intersection model
        doc["ci_model"] = run.timed("ci_ms", _ci_model, spec, t_values,
                                    report.quotient_dim)

    run.write(".json", _json(doc))
    run.manifest({"rn": [r, n], "variant": spec.variant,
                  "degree": report.degree, "t": list(t_values),
                  "primes": list(primes), "rationals": include_q},
                 blocks=report.blocks,
                 normal_forms=normal_form.cache_info().currsize)
    print(f"quotient dimension {report.quotient_dim}, "
          f"invariant dimension {report.invariant_dim}")
    print("survivors:", ", ".join(report.survivor_names))
    if not args.check:
        return OK
    return _verdict(_hodge_failure(spec, report, doc.get("ci_model")),
                    "dimensions match the expected fixture")


@lru_cache(maxsize=None)  # built once per process, reused by every main()
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
                        help="lift the guard on the grid points counted")
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
    hodge.add_argument("--rationals", action="store_true",
                       help="also specialize over Q (always when no primes "
                            "are given)")
    hodge.add_argument("--outdir", default=".")
    hodge.add_argument("--check", action="store_true",
                       help="compare against the shipped expected dimensions")
    hodge.set_defaults(func=cmd_hodge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return MISMATCH
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except SpecializationMismatch as exc:
        print(f"inconsistent specializations: {exc}", file=sys.stderr)
        for res in exc.results:
            entries = " ".join(f"{k}={v}" for k, v in res.items()
                               if isinstance(v, int))
            print(f"  t={res['t']} over {res['field']}: {entries}",
                  file=sys.stderr)
        return INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
