"""The benchmark's workloads: which CLI calls each one makes, and how their
outputs are checked.

A workload is a fixed sequence of `grasspencils.cli.main` calls.  The seed
chooses only the hodge `t` values; the `tables` and `search` steps always
sweep every t in F_p^* and so do the same work for every seed.

Every step is checked after the timed region.  A step's checks are its exit
code, the shipped fixtures where they exist, the mathematical invariants the
paper states (congruence with Hasse-Witt, empty truncation search, c_k), and
otherwise a sha256 digest recorded in `expected.json`.  Hodge outputs list
the specializations, which depend on the seed, so their digest is taken over
the document without that list.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("counts-series", "hodge")

# Seed for held-out checks of a later claim: tune on others, confirm on this.
HELD_OUT_SEED = 7919

HODGE_PRIMES = (1048583, 2097169)
# Every t here gives the fixture dimensions for every hodge pencil over Q
# and modulo both primes; over Q the run time hardly depends on the size of
# t, so the amount of work does not depend on the seed.
T_BAND = tuple(range(2, 32))
T_PER_PENCIL = 6
HODGE_PENCILS = (("2,4", "arrow"), ("2,4", "squares"), ("2,4", "quads"),
                 ("2,4", "squares+quads"), ("2,5", "arrow"))

# c_0..c_10 of the holomorphic period, as printed in the paper.
PAPER_COEFFICIENTS = (1, 0, 12, 0, 492, 0, 32880, 0, 2743020, 0, 257986512)

ROOT = Path(__file__).resolve().parents[1]   # the checkout
# The counts a hodge report carries.
REPORT_COUNTS = ("ambient", "relation_rank", "ideal_rank", "quotient_dim",
                 "invariant_dim")

EXPECTED_PATH = Path(__file__).with_name("expected.json")
FIXTURES = ROOT / "src" / "grasspencils" / "fixtures"


@dataclass(frozen=True)
class Step:
    """One CLI call; `label` names its output directory and its digests."""

    label: str
    kind: str      # "tables", "search" or "hodge"
    argv: tuple


def hodge_t_values(seed: int) -> dict:
    rng = random.Random(seed)
    return {pencil: sorted(rng.sample(T_BAND, T_PER_PENCIL))
            for pencil in HODGE_PENCILS}


def steps(workload: str, seed: int) -> list:
    if workload == "counts-series":
        return _counts() + _series()
    if workload == "hodge":
        t_values = hodge_t_values(seed)
        return _hodge("modp", t_values) + _hodge("q", t_values)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _counts():
    """(2,4) arrow with the HW column, the largest (2,4) sweep, then the
    unrolled r = 2 minors against the general r >= 3 path at one p."""
    out = [Step(f"tables-24-arrow-p{p}", "tables",
                ("tables", "--p", str(p), "--check")) for p in (5, 7, 11)]
    out.append(Step("tables-24-squares+quads-p23", "tables",
                    ("tables", "--p", "23", "--variant", "squares+quads")))
    out += [Step(f"tables-{r}5-arrow-p3", "tables",
                 ("tables", "--p", "3", "--rn", f"{r},5")) for r in (2, 3)]
    return out


def _series():
    return [Step(f"search-p{p}", "search",
                 ("search", "--p", str(p), "--check"))
            for p in (5, 7, 11, 13)]


def _hodge(field, t_values):
    """Over two primes (dense int64 elimination), or over Q (sparse
    Fractions, plus the (2,4) complete-intersection cross-check)."""
    primes = ("--primes", ",".join(map(str, HODGE_PRIMES))) \
        if field == "modp" else ()
    return [Step(f"hodge-{field}-{rn.replace(',', '')}-{variant}", "hodge",
                 ("hodge", "--rn", rn, "--variant", variant,
                  "--t", ",".join(map(str, ts)), *primes, "--check"))
            for (rn, variant), ts in t_values.items()]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(step: Step, outdir: Path) -> dict:
    """Digest of every deterministic output file of one step."""
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name.endswith("_manifest.json"):
            continue  # holds timings
        text = path.read_text()
        if step.kind == "hodge":
            doc = json.loads(text)
            del doc["report"]["specializations"]  # lists the seeded t
            text = json.dumps(doc, sort_keys=True)
        out[path.name] = sha256(text)
    return out


def output_facts(step: Step, outdir: Path) -> dict:
    """The exact counts a step's outputs carry."""
    if step.kind == "tables":
        doc = _only(outdir, ".json")
        return {"count_sum": sum(row["count"] for row in doc["rows"])}
    if step.kind == "search":
        return {"hits": len(_only(outdir, ".json")["search_hits"])}
    report = _only(outdir, ".json")["report"]
    return {k: report[k] for k in REPORT_COUNTS}


def _only(outdir: Path, suffix: str):
    paths = [p for p in outdir.iterdir() if p.name.endswith(suffix)
             and not p.name.endswith("_manifest.json")]
    if len(paths) != 1:
        raise ValueError(f"expected one {suffix} output in {outdir.name}, "
                         f"found {len(paths)}")
    text = paths[0].read_text()
    return json.loads(text) if suffix == ".json" else text


class Checker:
    """Counts checks attempted and failed; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_step(step: Step, rc, outdir: Path, expected: dict,
               checker: Checker, csv_by_label: dict) -> None:
    """Check one step's exit code and outputs."""
    if not checker.check(rc == 0, f"{step.label}: exit code {rc}"):
        return
    digests = output_digests(step, outdir)
    checker.check(digests == expected.get(step.label),
                  f"{step.label}: output digests differ from expected.json")
    if step.kind == "tables":
        _check_tables(step, outdir, checker, csv_by_label)
    elif step.kind == "search":
        _check_search(step, outdir, checker)
    else:
        _check_hodge(step, outdir, checker)


def _check_tables(step, outdir, checker, csv_by_label):
    csv_text = _only(outdir, ".csv")
    csv_by_label[step.label] = csv_text
    doc = _only(outdir, ".json")
    fixture = Path(FIXTURES, f"table_p{doc['p']}_{doc['variant']}.csv")
    if (doc["r"], doc["n"]) == (2, 4) and fixture.exists():
        checker.check(csv_text == fixture.read_text(),
                      f"{step.label}: table differs from {fixture.name}")
    if (doc["r"], doc["n"], doc["variant"]) == (2, 4, "arrow"):
        checker.check(all(row["congruence_ok"] for row in doc["rows"]),
                      f"{step.label}: a Hasse-Witt congruence failed")
    if doc["r"] == 3:
        # G(3,5) and G(2,5) are dual, so the r >= 3 minor path must
        # reproduce the unrolled r = 2 table exactly.
        twin = step.label.replace("-35-", "-25-")
        checker.check(csv_text == csv_by_label.get(twin),
                      f"{step.label}: differs from the {twin} table")


def _check_search(step, outdir, checker):
    doc = _only(outdir, ".json")
    checker.check(doc["search_hits"] == [],
                  f"{step.label}: truncation search found hits")
    coeffs = [int(c) for c in doc["coefficients"]]
    checker.check(
        coeffs[:len(PAPER_COEFFICIENTS)]
        == list(PAPER_COEFFICIENTS[:len(coeffs)]),
        f"{step.label}: c_k differ from the paper's series")
    checker.check(all(c == 0 for c in coeffs[1::2]),
                  f"{step.label}: an odd c_k is non-zero")


def _check_hodge(step, outdir, checker):
    doc = _only(outdir, ".json")
    report = doc["report"]
    rn = tuple(report["rn"])
    want = json.loads(Path(FIXTURES, "dimensions.json").read_text())
    variant = step.argv[step.argv.index("--variant") + 1]
    want = want[f"{rn[0]},{rn[1]}"][variant]
    checker.check(
        (report["quotient_dim"], report["invariant_dim"])
        == (want["quotient_dim"], want["invariant_dim"]),
        f"{step.label}: dimensions differ from dimensions.json")
    if "ci_model" in doc:
        ci = doc["ci_model"]
        checker.check((ci["dim_0_0"], ci["dim_0_1"], ci["agrees"])
                      == (1, report["quotient_dim"], True),
                      f"{step.label}: complete-intersection model disagrees")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
