import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from grasspencils import chains, cli, griffiths, linalg, pointcount, poly
from grasspencils.fields import PrimeField
from grasspencils.grassmann import (PencilSpec, build_pencil, evaluate_pencil,
                                    normal_form)
from grasspencils.griffiths import SpecializationMismatch


def run(args):
    return cli.main(args)


def test_tables_reproduces_fixture(tmp_path):
    assert run(["tables", "--p", "5", "--outdir", str(tmp_path),
                "--check"]) == 0
    csv_text = (tmp_path / "tables_p5_arrow.csv").read_text()
    assert csv_text.splitlines()[0] == "t,count,residue"
    assert csv_text.splitlines()[1] == "1,296,1"
    doc = json.loads((tmp_path / "tables_p5_arrow.json").read_text())
    assert [row["count"] for row in doc["rows"]] == [296, 320, 320, 296]
    assert all(row["congruence_ok"] for row in doc["rows"])
    manifest = json.loads(
        (tmp_path / "tables_p5_arrow_manifest.json").read_text())
    assert set(manifest["outputs"]) == {"tables_p5_arrow.csv",
                                        "tables_p5_arrow.json"}
    assert "count_ms" in manifest["timings_ms"]
    assert manifest["orbit_order"] == 4  # gcd(4, p - 1)
    # a pencil with a non-invariant monomial is counted point by point
    arrow = build_pencil(2, 4)
    skew = PencilSpec(2, 4, "skew", ((3, 1, 0, 0, 0, 0),)
                      + arrow.deforming[1:], arrow.frozen)
    path = tmp_path / "skew.json"
    path.write_text(skew.to_json())
    assert run(["tables", "--p", "5", "--pencil-json", str(path),
                "--outdir", str(tmp_path)]) == 0
    manifest = json.loads(
        (tmp_path / "tables_p5_skew_manifest.json").read_text())
    assert manifest["orbit_order"] == 1


@pytest.mark.parametrize("argv,name,timings,orbit_order", [
    (("tables", "--p", "5"), "tables_p5_arrow", {"count_ms"}, 4),
    (("search", "--p", "5"), "search_p5", {"count_ms", "search_ms"}, 4),
    (("hodge", "--rn", "2,4", "--t", "2"), "hodge_24_arrow",
     {"invariant_ms", "ci_ms"}, None),
])
def test_manifest_times_steps_and_digests_outputs(tmp_path, argv, name,
                                                  timings, orbit_order):
    assert run([*argv, "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    keys = {"experiment", "parameters", "version", "timings_ms", "outputs",
            *(("orbit_order", "work") if orbit_order
              else ("blocks", "normal_forms"))}
    assert set(manifest) == keys
    if not orbit_order:
        assert manifest["normal_forms"] == normal_form.cache_info().currsize
    assert manifest["experiment"] == name
    assert manifest.get("orbit_order") == orbit_order
    assert set(manifest["timings_ms"]) == timings
    assert all(ms >= 0 for ms in manifest["timings_ms"].values())
    assert {path.name for path in tmp_path.iterdir()} == {
        f"{name}_manifest.json", *manifest["outputs"]}
    for output, digest in manifest["outputs"].items():
        assert digest == hashlib.sha256(
            (tmp_path / output).read_bytes()).hexdigest()


def test_failed_run_makes_no_outdir(tmp_path):
    out = tmp_path / "out"
    assert run(["hodge", "--t", "x", "--outdir", str(out)]) == 2
    assert run(["tables", "--rn", "2,7", "--p", "31", "--outdir",
                str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, spec", [
    (("tables", "--p", "23", "--variant", "squares+quads"),
     build_pencil(2, 4, "squares+quads")),
    (("tables", "--rn", "2,5", "--p", "11"), build_pencil(2, 5)),
    (("tables", "--rn", "3,6", "--p", "5"), build_pencil(3, 6)),
    (("search", "--p", "13"), build_pencil(2, 4))])
def test_manifest_work_is_what_the_kernel_visits(tmp_path, monkeypatch,
                                                 argv, spec):
    # every pass counts the keys of its lanes with one Counter.update over
    # their memoryview: the passes are those calls, the grid points their
    # lanes
    passes, points = [], []

    class Tally(Counter):
        def update(self, iterable=None, /, **kwds):
            if isinstance(iterable, memoryview):
                passes.append(1)
                points.append(len(iterable))
            return super().update(iterable, **kwds)

    monkeypatch.setattr(pointcount, "Counter", Tally)
    p = int(argv[argv.index("--p") + 1])
    pointcount._pencil_histogram.cache_clear()
    try:
        assert run([*argv, "--outdir", str(tmp_path)]) == 0
    finally:
        pointcount._pencil_histogram.cache_clear()
    [manifest] = tmp_path.glob("*_manifest.json")
    assert passes and json.loads(manifest.read_text())["work"] == {
        "passes": len(passes), "grid_points": sum(points)}
    assert (len(passes), sum(points)) == pointcount.histogram_work(spec, p)
    assert max(points) <= pointcount.LANE_CAP


def test_tables_check_mismatch_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_fixture_text",
                        lambda name: "t,count,residue\n1,1,1\n")
    assert run(["tables", "--p", "5", "--outdir", str(tmp_path),
                "--check"]) == 2


def test_tables_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run(["tables", "--p", "7", "--outdir", str(out)]) == 0
    m1 = json.loads((out1 / "tables_p7_arrow_manifest.json").read_text())
    m2 = json.loads((out2 / "tables_p7_arrow_manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_tables_accepts_pencil_json(tmp_path):
    spec = build_pencil(2, 4, "squares")
    path = tmp_path / "pencil.json"
    path.write_text(spec.to_json())
    assert run(["tables", "--p", "5", "--pencil-json", str(path),
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "tables_p5_squares.json").read_text())
    assert doc["variant"] == "squares"
    assert "hw" not in doc["rows"][0]  # congruence column is arrow-only


def test_tables_hw_column_follows_the_monomials(tmp_path):
    # a non-arrow pencil labelled arrow gets no HW column; the arrow
    # monomials get it in any order
    for variant, with_hw in (("squares", False), ("arrow", True)):
        doc = json.loads(build_pencil(2, 4, variant).to_json())
        doc["variant"] = "arrow"
        doc["monomials"].reverse()
        path = tmp_path / f"{variant}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / variant
        assert run(["tables", "--p", "5", "--pencil-json", str(path),
                    "--outdir", str(out)]) == 0
        rows = json.loads((out / "tables_p5_arrow.json").read_text())["rows"]
        assert all(("hw" in row) == with_hw for row in rows)
        assert all(row.get("congruence_ok", True) for row in rows)


def test_tables_at_p_2_has_no_hw_column(tmp_path):
    # the congruence 1 - HW_p(t) = #X_t(F_p) mod p is stated for odd p
    assert run(["tables", "--p", "2", "--outdir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "tables_p2_arrow.json").read_text())["rows"]
    f = evaluate_pencil(build_pencil(2, 4), 1, PrimeField(2))
    count = pointcount.count_zeros(f, 2, 4, 2)
    assert rows == [{"t": 1, "count": count, "residue": count % 2}]


def test_check_follows_the_monomials_not_the_label(tmp_path, capsys):
    # the squares pencil labelled arrow has no shipped expectation; the
    # arrow monomials in another order still match theirs
    doc = json.loads(build_pencil(2, 4, "squares").to_json())
    doc["variant"] = "arrow"
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(doc))
    assert run(["hodge", "--pencil-json", str(path), "--t", "2",
                "--primes", "1048583", "--outdir", str(tmp_path / "h"),
                "--check"]) == 2
    assert ("no expected dimensions ship for G(2,4) arrow in degree 4"
            in capsys.readouterr().err)
    doc = json.loads(build_pencil(2, 4).to_json())
    doc["monomials"].reverse()
    path.write_text(json.dumps(doc))
    assert run(["tables", "--p", "5", "--pencil-json", str(path),
                "--outdir", str(tmp_path / "t"), "--check"]) == 0


def test_tables_enumeration_guard_names_the_flag(tmp_path, capsys):
    # G(2,7) at p = 31 (d = 1) takes 847,831,467,675,171 grid points, past
    # the 10^9 guard
    assert run(["tables", "--rn", "2,7", "--p", "31", "--outdir",
                str(tmp_path)]) == 2
    assert "pass force=True (tables --force)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_search_empty_hits(tmp_path):
    assert run(["search", "--p", "5", "--outdir", str(tmp_path),
                "--check"]) == 0
    doc = json.loads((tmp_path / "search_p5.json").read_text())
    assert doc["search_hits"] == []
    assert doc["coefficients"] == ["1", "0", "12", "0", "492"]
    assert doc["hw"] == {"1": 0, "2": 1, "3": 1, "4": 0}
    assert doc["grid"] == {"a": 4, "b": 4}
    manifest = json.loads((tmp_path / "search_p5_manifest.json").read_text())
    assert manifest["orbit_order"] == 4
    assert "orbit_order" not in doc


def test_search_check_fails_on_hits(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "truncation_search",
                        lambda p, records: [(1, 1)])
    assert run(["search", "--p", "5", "--outdir", str(tmp_path),
                "--check"]) == 2


@pytest.mark.parametrize("args", [("tables", "--p", "1"),
                                  ("tables", "--p", "0"),
                                  ("tables", "--p", "-7"),
                                  ("search", "--p", "0")])
def test_non_prime_p_exits_2_without_a_table(tmp_path, capsys, args):
    assert run([*args, "--outdir", str(tmp_path)]) == 2
    assert f"error: {args[2]} is not prime" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hodge_24(tmp_path):
    assert run(["hodge", "--rn", "2,4", "--variant", "arrow",
                "--outdir", str(tmp_path), "--check"]) == 0
    doc = json.loads((tmp_path / "hodge_24_arrow.json").read_text())
    assert doc["report"]["quotient_dim"] == 89
    assert doc["report"]["invariant_dim"] == 5
    assert doc["report"]["elapsed_ms"] is None  # timings live in manifest
    assert doc["ci_model"] == {"dim_0_0": 1, "dim_0_1": 89, "agrees": True}
    assert doc["group"] == {"order": 32, "structure": "(Z/4)^2 x (Z/2)"}
    assert doc["verdict"] == "unanimous"


def test_hodge_check_mismatch_exits_2(tmp_path, monkeypatch):
    bad = json.dumps({"2,4": {"arrow": {"quotient_dim": 89,
                                        "invariant_dim": 4}}})
    monkeypatch.setattr(cli, "_fixture_text", lambda name: bad)
    assert run(["hodge", "--rn", "2,4", "--outdir", str(tmp_path),
                "--check"]) == 2


def test_hodge_inconsistency_exits_3(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise SpecializationMismatch(
            "simulated", [{"t": "2", "field": "QQ", "quotient_dim": 89,
                           "invariant_dim": 5}])
    monkeypatch.setattr(cli, "invariant_subspace", explode)
    assert run(["hodge", "--rn", "2,4", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "inconsistent specializations: simulated" in err
    assert "  t=2 over QQ: quotient_dim=89 invariant_dim=5\n" in err


def test_hodge_25_with_primes(tmp_path):
    assert run(["hodge", "--rn", "2,5", "--t", "2,3,7,13",
                "--primes", "1048583,2097169", "--outdir", str(tmp_path),
                "--check"]) == 0
    doc = json.loads((tmp_path / "hodge_25_arrow.json").read_text())
    assert doc["report"]["invariant_dim"] == 11
    assert doc["group"] == {"order": 125, "structure": "(Z/5)^3"}
    assert len(doc["report"]["specializations"]) == 8


def test_hodge_manifest_times_each_step(tmp_path):
    assert run(["hodge", "--rn", "2,4", "--t", "2,3",
                "--primes", "1048583,2097169", "--rationals",
                "--outdir", str(tmp_path)]) == 0
    timings = json.loads(
        (tmp_path / "hodge_24_arrow_manifest.json").read_text())["timings_ms"]
    assert set(timings) == {"invariant_ms", "ci_ms"}


@pytest.mark.parametrize("rn,flags,degree", [
    ("2,4", (), 4), ("2,5", (), 5), ("2,4", ("--degree", "4"), 4)])
def test_hodge_manifest_records_the_degree_of_the_slice(tmp_path, rn, flags,
                                                        degree):
    # without --degree the slice is taken in degree n, and the manifest
    # records that degree, as the report does
    assert run(["hodge", "--rn", rn, "--t", "2", "--primes", "1048583",
                *flags, "--outdir", str(tmp_path)]) == 0
    name = f"hodge_{rn.replace(',', '')}_arrow"
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    doc = json.loads((tmp_path / f"{name}.json").read_text())
    assert manifest["parameters"]["degree"] == doc["report"]["degree"] \
        == degree


def test_hodge_fields_follow_rationals_flag(tmp_path, capsys):
    # with primes given, Q runs only under --rationals, and so does the
    # complete-intersection cross-check; --rationals is a plain switch
    base = ["hodge", "--rn", "2,4", "--t", "2", "--primes", "1048583"]
    for flags, over_q in (([], False), (["--rationals"], True)):
        outdir = tmp_path / str(over_q)
        assert run(base + flags + ["--outdir", str(outdir)]) == 0
        doc = json.loads((outdir / "hodge_24_arrow.json").read_text())
        manifest = json.loads(
            (outdir / "hodge_24_arrow_manifest.json").read_text())
        assert ("ci_model" in doc) == over_q
        assert manifest["parameters"]["rationals"] is over_q
    with pytest.raises(SystemExit) as refused:
        run(base + ["--no-rationals", "--outdir", str(tmp_path / "no")])
    assert refused.value.code == 2
    assert ("unrecognized arguments: --no-rationals"
            in capsys.readouterr().err)
    assert not (tmp_path / "no").exists()


def test_hodge_ci_model_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # the complete-intersection cross-check must give one answer for all t
    real = cli.ci_bigraded_quotient
    calls = []

    def drifting(ctx, bidegree):
        rep = real(ctx, bidegree)
        calls.append(bidegree)
        if len(calls) > 2:  # the second t
            rep.quotient_dim += 1
        return rep

    monkeypatch.setattr(cli, "ci_bigraded_quotient", drifting)
    assert run(["hodge", "--rn", "2,4", "--t", "2,3",
                "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert ("inconsistent specializations: 1 of 2 specializations disagree "
            "for the complete-intersection model of arrow on G(2,4)") in err
    assert "(t=3 over QQ: dim_0_0, dim_0_1)" in err
    assert "  t=2 over QQ: dim_0_0=1 dim_0_1=89\n" in err
    assert "  t=3 over QQ: dim_0_0=2 dim_0_1=90\n" in err
    assert len(calls) == 4
    assert list(tmp_path.iterdir()) == []


def test_hodge_check_fails_when_the_two_routes_disagree(tmp_path, monkeypatch,
                                                       capsys):
    real = cli.ci_bigraded_quotient

    def off_by_one(ctx, bidegree):
        rep = real(ctx, bidegree)
        rep.quotient_dim += bidegree == (0, 1)
        return rep

    monkeypatch.setattr(cli, "ci_bigraded_quotient", off_by_one)
    argv = ["hodge", "--rn", "2,4", "--t", "2,3"]
    assert run([*argv, "--outdir", str(tmp_path / "a"), "--check"]) == 2
    err = capsys.readouterr().err
    assert ("check FAILED: complete-intersection dim_0_1=90, "
            "Griffiths quotient_dim=89") in err
    # without --check the run records the disagreement and succeeds
    assert run([*argv, "--outdir", str(tmp_path / "b")]) == 0
    doc = json.loads((tmp_path / "b" / "hodge_24_arrow.json").read_text())
    assert doc["ci_model"] == {"dim_0_0": 1, "dim_0_1": 90, "agrees": False}


@pytest.mark.parametrize("argv", [("hodge",), ("tables", "--p", "7")])
def test_negative_exponent_in_pencil_json_exits_2(tmp_path, capsys, argv):
    doc = json.loads(build_pencil(2, 4).to_json())
    doc["monomials"].append([5, -1, 0, 0, 0, 0])  # p12^5/p13, degree 4
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([*argv, "--pencil-json", str(path), "--outdir", str(out)]) == 2
    assert ("error: pencil monomial (5, -1, 0, 0, 0, 0) has a negative "
            "exponent") in capsys.readouterr().err
    assert not out.exists()


def test_oversized_rn_exits_2_before_building_the_pencil(tmp_path,
                                                         monkeypatch, capsys):
    # (2,8) needs 19 dense vectors of 28 exponents, 532 entries
    monkeypatch.setattr(poly, "LISTING_GUARD", 500)
    assert run(["tables", "--rn", "2,8", "--p", "3",
                "--outdir", str(tmp_path)]) == 2
    assert ("error: pencil on G(2,8) with 532 exponents exceeds the guard"
            in capsys.readouterr().err)


@pytest.mark.parametrize("args,message", [
    (("--rn", "2,4,5"), "--rn takes two comma-separated integers r,n, "
                        "got '2,4,5'"),
    (("--rn", "x"), "--rn takes two comma-separated integers r,n, got 'x'"),
    (("--t", "2,x"), "--t takes comma-separated integers, got '2,x'"),
    (("--primes", "7,,11"), "--primes takes comma-separated primes, "
                            "got '7,,11'"),
])
def test_malformed_integer_flags_exit_2(tmp_path, capsys, args, message):
    assert run(["hodge", *args, "--outdir", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hodge_25_over_rationals(tmp_path):
    # no primes: the Q specialization route, t = 2, 3, 7, 13
    assert run(["hodge", "--rn", "2,5", "--t", "2,3,7,13",
                "--outdir", str(tmp_path), "--check"]) == 0
    doc = json.loads((tmp_path / "hodge_25_arrow.json").read_text())
    assert doc["report"]["invariant_dim"] == 11
    assert doc["report"]["quotient_dim"] == 1151
    assert all(s["field"] == "QQ" for s in doc["report"]["specializations"])


def test_unknown_variant_exits_2(capsys):
    assert run(["tables", "--p", "5", "--variant", "cubes"]) == 2
    assert "cubes" in capsys.readouterr().err


def test_hodge_prime_zero_exits_2(tmp_path, capsys):
    # the field is built, and its prime checked, before n % p is taken
    assert run(["hodge", "--primes", "0", "--outdir", str(tmp_path)]) == 2
    assert "error: modulus 0 is not prime" in capsys.readouterr().err


def test_missing_fixture_exits_2(tmp_path):
    # no expected table ships for the squares variant
    assert run(["tables", "--p", "5", "--variant", "squares",
                "--outdir", str(tmp_path), "--check"]) == 2


@pytest.mark.parametrize("name", ["", "absent.json"])
def test_unreadable_pencil_json_exits_2(tmp_path, capsys, name):
    # a directory or a missing file in place of the pencil is refused
    path, out = tmp_path / name, tmp_path / "out"
    assert run(["hodge", "--pencil-json", str(path),
                "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("tables", "--p", "5"),
                                  ("hodge", "--t", "2", "--primes",
                                   "1048583")])
def test_outdir_that_cannot_be_made_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run([*argv, "--outdir", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(blocker) in err


def test_integer_runs_make_no_fractions(tmp_path, monkeypatch):
    # an integer t stays an int over Q: hodge over Q (with the
    # complete-intersection cross-check) and mod p, tables with its
    # Hasse-Witt column, and search with its 4F3 truncations construct no
    # Fraction
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert run(["hodge", "--t", "2,3", "--primes", "1048583",
                "--rationals", "--outdir", str(tmp_path)]) == 0
    assert run(["tables", "--p", "7", "--outdir", str(tmp_path)]) == 0
    assert run(["search", "--p", "7", "--outdir", str(tmp_path)]) == 0
    assert made == []


def test_tables_check_without_fixture_exits_2(tmp_path, capsys):
    # tables ship for G(2,4) arrow at p = 5, 7, 11 only; the p = 5 file
    # is not the expectation for G(2,5)
    assert run(["tables", "--p", "13", "--outdir", str(tmp_path),
                "--check"]) == 2
    err = capsys.readouterr().err
    assert "check FAILED: no expected table ships for p=13 arrow" in err
    assert "file error" not in err
    assert run(["tables", "--p", "5", "--rn", "2,5", "--outdir",
                str(tmp_path), "--check"]) == 2
    err = capsys.readouterr().err
    assert "no expected table ships for p=5 arrow on G(2,5)" in err


def test_hodge_26_mod_p(tmp_path):
    # degree 6 on G(2,6): 38,760 monomials, 13,860 of them standard; the
    # basis stores 36 generator rows and 24 survivors, 346 entries
    assert run(["hodge", "--rn", "2,6", "--t", "2", "--primes", "1048583",
                "--outdir", str(tmp_path), "--check"]) == 0
    doc = json.loads((tmp_path / "hodge_26_arrow.json").read_text())
    assert doc["report"]["quotient_dim"] == 13824
    assert doc["report"]["invariant_dim"] == 24


def test_hodge_26_over_rationals_matches_mod_p(tmp_path):
    reports = []
    for field in (["--rationals"], ["--primes", "1048583"]):
        out = tmp_path / field[-1]
        assert run(["hodge", "--rn", "2,6", "--t", "2", *field,
                    "--outdir", str(out), "--check"]) == 0
        reports.append(json.loads(
            (out / "hodge_26_arrow.json").read_text())["report"])
    over_q, mod_p = reports
    assert over_q["specializations"] == [{"t": "2", "field": "QQ"}]
    assert over_q["invariant_dim"] == 24
    assert over_q["survivor_names"] == mod_p["survivor_names"]


def test_hodge_entry_cap_exits_2(tmp_path, monkeypatch, capsys):
    # the largest basis is the trivial block's: it stores 39 entries on
    # (2,5) (its t-free rows, f and the 11 survivors), 20 on (2,4)
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 30)
    assert run(["hodge", "--rn", "2,4", "--primes", "1048583",
                "--outdir", str(tmp_path / "a")]) == 0
    out = tmp_path / "b"
    assert run(["hodge", "--rn", "2,5", "--primes", "1048583",
                "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "entry limit" in err
    assert not out.exists()


def test_hodge_entry_cap_bounds_each_basis(tmp_path, monkeypatch, capsys):
    # (2,4) in degree 8 at t = 2: the largest block basis stores 187
    # entries, the rows its copy shares included, and the cap bounds each
    # basis on its own, so 187 lets the run through and 186 stops it
    # before it writes anything
    argv = ["hodge", "--rn", "2,4", "--degree", "8", "--t", "2",
            "--primes", "1048583"]
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 187)
    assert run([*argv, "--outdir", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(linalg, "_ENTRY_LIMIT", 186)
    out = tmp_path / "b"
    assert run([*argv, "--outdir", str(out)]) == 2
    assert ("186 stored + 1 new entries exceed the 186 entry limit"
            in capsys.readouterr().err)
    assert not out.exists()


def test_hodge_generator_row_cap_exits_2(tmp_path, monkeypatch, capsys):
    # the (2,5) slice holds 149 generator row entries: a limit of 149 lets
    # the run through, 148 stops it before any elimination
    monkeypatch.setattr(griffiths, "_ENTRY_LIMIT", 149)
    argv = ["hodge", "--rn", "2,5", "--t", "2", "--primes", "1048583"]
    assert run([*argv, "--outdir", str(tmp_path / "a"), "--check"]) == 0
    monkeypatch.setattr(griffiths, "_ENTRY_LIMIT", 148)
    monkeypatch.setattr(griffiths, "row_basis", None)  # never reached
    out = tmp_path / "b"
    assert run([*argv, "--outdir", str(out)]) == 2
    assert ("error: generator rows of G(2,5) in degree 5: 149 entries "
            "exceed the 148 entry limit") in capsys.readouterr().err
    assert not out.exists()


def test_hodge_degree_below_the_generators_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["hodge", "--rn", "2,4", "--degree", "3",
                "--outdir", str(out)]) == 2
    assert ("error: generator of degree 4 cannot land in degree 3"
            in capsys.readouterr().err)
    assert not out.exists()


def test_hodge_pencil_whose_frozen_term_cancels(tmp_path, capsys):
    # the frozen monomial p12*p14*p23*p34 is also deforming, so f_t carries
    # it with coefficient t + 1, which vanishes at t = -1 in every field
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps({
        "r": 2, "n": 4, "variant": "cancel", "frozen": [1, 0, 1, 1, 0, 1],
        "monomials": [[4, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 4],
                      [1, 0, 1, 1, 0, 1]]}))
    argv = ["hodge", "--pencil-json", str(path), "--primes", "1048583",
            "--rationals"]
    assert run([*argv, "--t", "2,3,5", "--outdir", str(tmp_path / "a")]) == 0
    report = json.loads(
        (tmp_path / "a" / "hodge_24_cancel.json").read_text())["report"]
    assert (report["quotient_dim"], report["invariant_dim"]) == (91, 7)
    assert len(report["specializations"]) == 6
    capsys.readouterr()
    assert run([*argv, "--t", "2,-1", "--outdir", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err
    assert ("2 of 4 specializations disagree for cancel on G(2,4) with t=2 "
            "over QQ (t=-1 over QQ: ideal_rank, quotient_dim, survivors; "
            "t=-1 over GF(1048583): ideal_rank, quotient_dim, survivors)"
            in err)
    assert "  t=-1 over QQ: ambient=126 relation_rank=21 ideal_rank=10 " \
        "quotient_dim=95 invariant_dim=7\n" in err


def test_hodge_check_without_expectation_exits_2(tmp_path, capsys):
    # no expected dimensions ship for G(3,5)
    assert run(["hodge", "--rn", "3,5", "--primes", "1048583",
                "--outdir", str(tmp_path), "--check"]) == 2
    err = capsys.readouterr().err
    assert "no expected dimensions ship for G(3,5) arrow" in err


def test_hodge_check_in_other_degree_exits_2(tmp_path, capsys):
    # the shipped dimensions are for degree n only
    assert run(["hodge", "--rn", "2,4", "--degree", "5", "--t", "2",
                "--primes", "1048583", "--outdir", str(tmp_path),
                "--check"]) == 2
    err = capsys.readouterr().err
    assert ("check FAILED: no expected dimensions ship for G(2,4) arrow "
            "in degree 5") in err


def _hodge_refused_at_guard(tmp_path, monkeypatch, capsys, degree):
    """The chain listings hodge builds on G(2,4) in the degree under a guard
    of 100, and its error; the lister counts a listing before it builds
    any chain (one call of _tableaux per multiplicity class)."""
    built = []
    real = chains._tableaux

    def record(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "LISTING_GUARD", 100)
    monkeypatch.setattr(chains, "_tableaux", record)
    out = tmp_path / "out"
    assert run(["hodge", "--degree", degree, "--outdir", str(out)]) == 2
    assert not out.exists()
    return len(built), capsys.readouterr().err


def test_hodge_slice_guard_exits_2_before_enumerating(tmp_path, monkeypatch,
                                                      capsys):
    # in degree 8 the 41 standard invariant candidates are listed, then the
    # 105 standard multipliers of degree 4 are counted and refused
    listed, err = _hodge_refused_at_guard(tmp_path, monkeypatch, capsys, "8")
    assert ("error: standard monomials of G(2,4) in degree 4 with 105 "
            "monomials exceeds the guard") in err
    assert listed == 2  # the candidates' two classes, c = 0 and c = 2


def test_hodge_candidate_guard_exits_2_before_enumerating(tmp_path,
                                                          monkeypatch, capsys):
    # in degree 12 the 129 standard invariant candidates are refused
    listed, err = _hodge_refused_at_guard(tmp_path, monkeypatch, capsys, "12")
    assert ("error: standard monomials of G(2,4) in degree 12 with 129 "
            "monomials exceeds the guard") in err
    assert listed == 0


def test_hodge_uncertified_rules_exit_2_before_listing(tmp_path,
                                                      monkeypatch, capsys):
    # two incomparable pairs of G(4,8) lead none of the shuffle relations,
    # so the chains are not known to be the standard monomials
    def refuse(*args):
        raise AssertionError("chains listed before the certificate")

    monkeypatch.setattr(chains, "_strip_search", refuse)
    assert run(["hodge", "--rn", "4,8", "--t", "2", "--primes", "1048583",
                "--outdir", str(tmp_path)]) == 2
    assert ("error: no G(4,8) relation leads with the incomparable pair(s) "
            "p1267*p3458, p1367*p2458") in capsys.readouterr().err


@pytest.mark.parametrize("rn,dims", [("3,6", (41544, 54)),
                                     ("2,7", (169835, 50))])
def test_hodge_one_specialization_matches_the_new_fixtures(tmp_path, rn,
                                                           dims):
    assert run(["hodge", "--rn", rn, "--t", "2", "--primes", "1048583",
                "--outdir", str(tmp_path), "--check"]) == 0
    path = tmp_path / f"hodge_{rn.replace(',', '')}_arrow.json"
    report = json.loads(path.read_text())["report"]
    assert (report["quotient_dim"], report["invariant_dim"]) == dims


@pytest.mark.parametrize("change,message", [
    ({"monomials": None}, "pencil JSON has no 'monomials' key"),
    ({"frozen": 7}, "pencil JSON key 'frozen' is malformed: 7"),
])
def test_malformed_pencil_json_exits_2(tmp_path, capsys, change, message):
    doc = json.loads(build_pencil(2, 4).to_json())
    doc.update(change)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    assert run(["hodge", "--pencil-json", str(path),
                "--outdir", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("hodge",), ("tables", "--p", "7")])
@pytest.mark.parametrize("text,message", [
    ("[2, 4]", "pencil JSON must be an object"),
    (json.dumps({**json.loads(build_pencil(2, 4).to_json()),
                 "frozen": [4, 0, 0, 0, 0, 0]}),
     "frozen monomial must be the product of the frozen variables, each "
     "to the first power")], ids=["not-an-object", "wrong-frozen"])
def test_refused_pencil_json_exits_2(tmp_path, capsys, argv, text, message):
    path, out = tmp_path / "pencil.json", tmp_path / "out"
    path.write_text(text)
    assert run([*argv, "--pencil-json", str(path), "--outdir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["", "a/b"])
def test_pencil_label_that_is_not_a_plain_name_exits_2(tmp_path, capsys,
                                                       variant):
    # output files are named after the label, so it may not be empty or
    # hold a path separator
    doc = json.loads(build_pencil(2, 4).to_json())
    doc["variant"] = variant
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["tables", "--p", "5", "--pencil-json", str(path),
                "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: pencil JSON key 'variant' is malformed: {variant!r}" in err
    assert not out.exists()


def test_package_imports_only_the_standard_library():
    src = Path(cli.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


def test_package_imports_without_numpy():
    # `import grasspencils` loads no layer, so import every module by name
    package = Path(cli.__file__).resolve().parent
    modules = ", ".join(f"grasspencils.{path.stem}"
                        for path in sorted(package.glob("*.py"))
                        if path.stem != "__init__")
    code = f"import sys, {modules}; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("argv,imports_chains", [
    (("tables", "--p", "5"), False),
    (("search", "--p", "5"), False),
    (("hodge", "--rn", "2,4", "--t", "2", "--primes", "1048583"), True)])
def test_chains_are_imported_on_first_use(tmp_path, argv, imports_chains):
    # the point-count subcommands list no chains, so they never import
    # the module: it would add to the import size of every run
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; from grasspencils import cli; "
            "code = cli.main(sys.argv[1:]); "
            "print('grasspencils.chains' in sys.modules); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--outdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(imports_chains)


def _fresh_value(code, expr):
    """The value of `expr` in a fresh interpreter after `code`."""
    src = Path(cli.__file__).resolve().parents[1]
    code += f"; print(repr({expr}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def _loaded_modules(code):
    """The grasspencils modules a fresh interpreter holds after `code`."""
    return set(_fresh_value(
        code + "; import sys",
        "sorted(m for m in sys.modules if m.startswith('grasspencils'))"))


def test_package_import_loads_no_layer():
    assert _loaded_modules("import grasspencils") == {"grasspencils"}


def test_package_namespace_holds_only_the_version():
    # the layers are the API: the package defines no name of its own but
    # __version__, beside what the import system sets on every package
    names = set(_fresh_value("import grasspencils", "list(vars(grasspencils))"))
    assert names - {"__builtins__", "__cached__", "__doc__", "__file__",
                    "__loader__", "__name__", "__package__", "__path__",
                    "__spec__"} == {"__version__"}


def test_a_layer_import_loads_only_what_it_uses():
    loaded = _loaded_modules(
        "from grasspencils.pointcount import count_table")
    assert "grasspencils.pointcount" in loaded
    assert not loaded & {"grasspencils.griffiths", "grasspencils.periods",
                         "grasspencils.cli", "grasspencils.chains"}


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "grasspencils", "tables", "--p", "5",
         "--check", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "check passed" in proc.stdout


def test_parser_is_built_once_per_process(tmp_path):
    cli.build_parser.cache_clear()
    assert run(["tables", "--p", "5", "--check",
                "--outdir", str(tmp_path / "tables")]) == 0
    assert run(["hodge", "--rn", "2,4", "--t", "2", "--check",
                "--outdir", str(tmp_path / "hodge")]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("step,argv,blocks", [
    ("hodge-q-24-arrow", ("--rn", "2,4", "--t", "2,3,-1"), (13, 4, 4, 3)),
    ("hodge-modp-24-quads", ("--rn", "2,4", "--variant", "quads", "--t",
                             "5", "--primes", "1048583,2097169"),
     (13, 4, 4, 3)),
    ("hodge-modp-25-arrow", ("--rn", "2,5", "--t", "7,11",
                             "--primes", "1048583,2097169"), (21, 5, 5, 4))])
def test_hodge_manifest_records_the_blocks_and_the_json_is_unchanged(
        tmp_path, step, argv, blocks):
    # the manifest names the character blocks of the slice; the JSON
    # output, without its list of specializations, has the digest the
    # benchmark recorded before the slices were split into blocks
    assert run(["hodge", *argv, "--check", "--outdir", str(tmp_path)]) == 0
    name = "hodge_" + step.split("-", 2)[2].replace("-", "_")
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert manifest["blocks"] == dict(zip(
        ("blocks", "largest_block_rows", "trivial_block_rows",
         "t_free_pairs"), blocks))
    doc = json.loads((tmp_path / f"{name}.json").read_text())
    assert "blocks" not in doc and "blocks" not in doc["report"]
    del doc["report"]["specializations"]
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench"
         / "expected.json").read_text())
    assert expected[step] == {f"{name}.json": hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()}
