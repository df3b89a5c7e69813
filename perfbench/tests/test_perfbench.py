"""Self-checks of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import Tracer  # noqa: E402

ROOT = workloads.ROOT


def _worker(*args, outdir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GRASSPENCILS_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args, "--outdir",
         str(outdir)], env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_changes_no_count_or_digest(tmp_path):
    plain = _worker("run", "--workload", "hodge", "--seed", "3",
                    outdir=tmp_path / "plain")
    traced = _worker("run", "--workload", "hodge", "--seed", "3",
                     "--trace", outdir=tmp_path / "traced")
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["attempted"] > plain["attempted"]  # the boundary counts
    assert traced["facts"] == plain["facts"]
    assert traced["digests"] == plain["digests"]
    assert 0 < traced["covered_s"] < traced["wall_s"]
    assert set(traced["layer_s"]) >= {"griffiths", "grassmann", "symmetry"}


def test_seed_chooses_only_hodge_t_values():
    assert (workloads.steps("counts-series", 1)
            == workloads.steps("counts-series", 2))
    a, b = (workloads.hodge_t_values(s) for s in (1, workloads.HELD_OUT_SEED))
    assert a == workloads.hodge_t_values(1) and a != b
    for ts in (*a.values(), *b.values()):
        assert len(set(ts)) == workloads.T_PER_PENCIL
        assert set(ts) <= set(workloads.T_BAND)


def test_every_step_has_recorded_digests():
    expected = workloads.load_expected()
    labels = {step.label for w in workloads.WORKLOADS
              for step in workloads.steps(w, 0)}
    assert labels == set(expected) - {"probes"}


def test_covered_time_is_the_union_of_spans():
    tracer = Tracer()
    tracer.spans = [("a", "f", None, 0.0, 2.0), ("b", "g", None, 1.0, 3.0),
                    ("c", "h", None, 5.0, 6.0)]
    assert tracer.covered_s() == 4.0
    assert tracer.layer_s() == {"a": 2.0, "b": 2.0, "c": 1.0}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hodge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
