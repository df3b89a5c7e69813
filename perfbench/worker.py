"""One benchmark process: runs a workload's CLI calls once, or the layer
probes, and prints one JSON line with what it measured and checked.

    python3 perfbench/worker.py run --workload W --seed N --outdir D [--trace]
    python3 perfbench/worker.py probe --outdir D

`run.py` starts a fresh interpreter for every call, with `src` on the
import path, so the package's module caches start cold each time, as in a
user's sweep script.  With `--trace` the public functions that `cli` calls
are wrapped in spans; the spans are kept in memory and reported when the
workload ends.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads

# The names `cli` imports from each layer, and so the boundaries at which a
# traced run records its spans.
TRACED = {
    "grassmann": ("build_pencil",),
    "pointcount": ("count_table", "records_to_csv"),
    "periods": ("default_kernel", "hasse_witt", "period_coefficients",
                "truncation_search"),
    "symmetry": ("build_group",),
    "griffiths": ("invariant_subspace", "ci_context_for_pencil",
                  "ci_bigraded_quotient"),
}


class Tracer:
    """Spans (layer, function, step, start, end) and counts per step."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.step = None

    def install(self, cli):
        for layer, names in TRACED.items():
            for name in names:
                setattr(cli, name, self._wrap(layer, getattr(cli, name)))

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans.append((layer, fn.__name__, self.step, start,
                                   time.perf_counter()))
            self._count(fn.__name__, out)
            return out
        return traced

    def _count(self, name, out):
        """Counts at the boundary, to compare with the step's outputs."""
        facts = self.counts.setdefault(self.step, {})
        if name == "count_table":
            facts["count_sum"] = sum(rec.count for rec in out)
        elif name == "truncation_search":
            facts["hits"] = len(out)
        elif name == "invariant_subspace":
            facts.update({k: getattr(out, k)
                          for k in workloads.REPORT_COUNTS})

    def covered_s(self) -> float:
        """Time covered by the union of all spans."""
        total, end = 0.0, float("-inf")
        for _, _, _, s, e in sorted(self.spans, key=lambda sp: sp[3]):
            if e > end:
                total += e - max(s, end)
                end = e
        return total

    def layer_s(self) -> dict:
        out = {}
        for layer, _, _, s, e in self.spans:
            out[layer] = out.get(layer, 0.0) + e - s
        return out


def run_workload(workload, seed, outdir, trace):
    from grasspencils import cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(cli)
    plan = workloads.steps(workload, seed)
    codes = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for step in plan:
        step_dir = Path(outdir, step.label)
        if tracer:
            tracer.step = step.label
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                rc = cli.main([*step.argv, "--outdir", str(step_dir)])
            except Exception as exc:  # a crash is a failed step, not the end
                rc = f"{type(exc).__name__}: {exc}"
        codes.append(rc if rc == 0 else f"{rc} {err.getvalue().strip()}")
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    checker = workloads.Checker()
    expected = workloads.load_expected()
    csv_by_label, digests, facts = {}, {}, {}
    for step, rc in zip(plan, codes):
        step_dir = Path(outdir, step.label)
        workloads.check_step(step, rc, step_dir, expected, checker,
                             csv_by_label)
        if rc == 0:
            digests[step.label] = workloads.output_digests(step, step_dir)
            facts[step.label] = workloads.output_facts(step, step_dir)
    result = {
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime
                  - cpu0.ru_utime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024,
        "digests": digests,
        "facts": facts,
    }
    if tracer:
        for label, counted in tracer.counts.items():
            # `search` also counts a table; compare what the outputs carry
            want = facts.get(label, {})
            checker.check(bool(want)
                          and {k: counted.get(k) for k in want} == want,
                          f"{label}: counts at the traced boundaries "
                          "differ from the outputs")
        result["covered_s"] = tracer.covered_s()
        result["layer_s"] = tracer.layer_s()
    result["attempted"] = checker.attempted
    result["failures"] = checker.failures
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "probe"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "run":
        result = run_workload(args.workload, args.seed, args.outdir,
                              args.trace)
    else:
        import probes
        result = probes.run_probes()
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
