"""Benchmark of the grasspencils command line, one fresh process per run.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Each repetition of a workload is a fresh interpreter (`worker.py`), with
`src` on the import path and `GRASSPENCILS_WORKERS` removed from its
environment, which makes the workload's `grasspencils.cli.main` calls in
sequence: one client, a closed loop, no threads.  Repetitions go on until
`--seconds` would be exceeded.

`--trace 0` reports the end-to-end metrics: wall and CPU time of a run
without its set-up, the worker's peak RSS, the set-up time
(interpreter start plus `import grasspencils`) and the share of output
checks that passed.  `--trace 1` alternates untraced and traced runs of the
workload for half of `--seconds`, then repeats the layer probes
(`probes.py`) in fresh processes, and reports the per-layer metrics.  The
names and units come from BENCHMARK.json.  Human-readable lines come first;
the last line of standard output is one JSON object.

Every time is the mean over the repetitions of the run.  The shared host
this was tuned on slows a process down by up to a factor of two for tens of
seconds at a time; of the estimators tried, the mean varied least from one
run to the next (README.md).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170  # every run of this script must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRASSPENCILS_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args, deadline) -> dict:
    """One fresh worker process; a crash or a timeout is a failed check."""
    outdir = tempfile.mkdtemp(dir=WORK)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args,
             "--outdir", outdir],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failures": [f"worker {args} timed out"]}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"attempted": 1,
                "failures": [f"worker {args} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}


def setup_sample() -> float:
    """Wall time of a fresh `python3 -c 'import grasspencils'`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import grasspencils"],
                   env=child_env(), check=True)
    return time.perf_counter() - start


def repeat(seconds, run_once):
    """Call run_once until `seconds` would be exceeded; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_once()
        durations.append(time.perf_counter() - t0)
        if (time.perf_counter() - start + statistics.median(durations)
                > seconds):
            return


def measured(results, key):
    values = [res[key] for res in results if key in res]
    if not values:
        raise RuntimeError(f"no run measured {key}; see the failed checks")
    return values


def summary(name, values, unit):
    print(f"{name}: mean {statistics.fmean(values):.4f} min "
          f"{min(values):.4f} median {statistics.median(values):.4f} max "
          f"{max(values):.4f} {unit} over {len(values)} repetitions: "
          + " ".join(f"{v:.4f}" for v in values))


def end_to_end(args, deadline):
    setup_sample()  # writes the .pyc files
    results, setup = [], []

    def once():
        results.append(worker(
            ["run", "--workload", args.workload, "--seed", str(args.seed)],
            deadline))
        # one set-up sample per repetition, so that set-up is measured over
        # the same stretch of time as the workload
        setup.append(setup_sample())
    repeat(args.seconds, once)
    metrics = {}
    for key in ("wall_s", "cpu_s"):
        summary(key, measured(results, key), "s")
        metrics[key] = statistics.fmean(measured(results, key))
    summary("setup_s", setup, "s")
    metrics["setup_s"] = statistics.fmean(setup)
    metrics["peak_rss_mb"] = statistics.median(
        measured(results, "peak_rss_mb"))
    return metrics, results


def traced(args, deadline):
    base = ["run", "--workload", args.workload, "--seed", str(args.seed)]
    plain, spanned, probes, checks = [], [], [], []

    def pair():
        plain.append(worker(base, deadline))
        spanned.append(worker(base + ["--trace"], deadline))
        same = all(plain[-1].get(k) == spanned[-1].get(k)
                   for k in ("facts", "digests"))
        checks.append({"attempted": 1, "failures": [] if same else [
            "the traced run changed an output digest or count"]})
    repeat(args.seconds / 2, pair)
    repeat(args.seconds / 2,
           lambda: probes.append(worker(["probe"], deadline)))

    layer_metrics = measured(probes, "metrics")
    metrics = {name: statistics.fmean(m[name] for m in layer_metrics)
               for name in layer_metrics[0]}
    # counts repeat exactly: each probe checks them against expected.json
    metrics.update((name, value)
                   for name, value in measured(probes, "counts")[0].items()
                   if not isinstance(value, str))
    spans = [res for res in spanned if "covered_s" in res]
    metrics["cli.self_s"] = statistics.fmean(
        res["wall_s"] - res["covered_s"] for res in spans)
    metrics["trace.overhead_frac"] = (
        statistics.fmean(measured(spanned, "wall_s"))
        / statistics.fmean(measured(plain, "wall_s")) - 1)
    for layer in sorted({k for res in spans for k in res["layer_s"]}):
        summary(f"span {layer}",
                [res["layer_s"].get(layer, 0.0) for res in spans], "s")
    print(f"{len(probes)} probe runs; linalg.dense_bytes_modp is computed "
          "as rows x cols x 8")
    return metrics, plain + spanned + probes + checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grasspencils" / "__init__.py").is_file():
        print(f"no grasspencils sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        metrics, results = measure(args, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(res["attempted"] for res in results)
    failures = [f for res in results for f in res["failures"]]
    metrics["check_pass_rate"] = (attempted - len(failures)) / attempted
    for failure in failures:
        print(f"check failed: {failure}")
    numpy_version = next((r["numpy"] for r in results if "numpy" in r), "?")
    print(f"environment: nproc {os.cpu_count()}, RAM "
          f"{os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') >> 20}"
          f" MiB, Python {platform.python_version()}, numpy {numpy_version},"
          f" GRASSPENCILS_WORKERS "
          f"{os.environ.get('GRASSPENCILS_WORKERS', 'unset')} (unset in "
          "every worker)")
    print(f"error_rate {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} checks failed)")
    out = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
