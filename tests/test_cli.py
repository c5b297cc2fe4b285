"""End-to-end command line checks through main(argv)."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mubkit.cli
import mubkit.complement
import mubkit.errors
import mubkit.hilbert
from mubkit.cli import main
from mubkit.complement import (complement_distribution, dumps, field_spread,
                               from_json_dict, search_spreads, verify_spread)
from mubkit.errors import MEMORY_GUARD
from mubkit.errors import ProjectorNotRankOneError
from mubkit.hilbert import MubBasis
from mubkit.zplinalg import SystemParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complement


def test_complement_field_stdout(capsys):
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "2")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["p"] == 2 and doc["n"] == 2
    assert len(doc["classes"]) == 5
    code2, out2, _ = run(capsys, "complement", "--p", "2", "--n", "2")
    assert code2 == 0 and out2 == out


def test_complement_out_file_then_verify(capsys, tmp_path):
    path = tmp_path / "c33.json"
    code, out, err = run(capsys, "complement", "--p", "3", "--n", "3",
                         "--out", str(path))
    assert code == 0 and out == "" and not err
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "OK  8/8 checks" in out
    assert out.count("PASS") == 8 and "FAIL" not in out
    assert "hilbert-projectors" in out and "(sampled)" not in out


def test_verify_sampled_above_max_dim(capsys, tmp_path):
    path = tmp_path / "c25.json"
    assert run(capsys, "complement", "--p", "2", "--n", "5",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", "--in", str(path),
                       "--hilbert-max-dim", "16")
    assert code == 0
    assert "hilbert-eigenvectors (sampled)" in out
    assert "over 6 of 33 bases" in out and "over 15 of 528 pairs" in out
    assert "OK  8/8 checks" in out


def test_verify_json_format(capsys, tmp_path):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "class count", "classes Lagrangian", "pairwise disjoint", "exact cover",
        "purity-census", "hilbert-projectors", "hilbert-overlaps", "hilbert-purities"}


def test_verify_detects_tampering(capsys, tmp_path):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["classes"][2]["gens"][0]["z"][0] ^= 1
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "FAIL" in out and "FAILED" in out


def _failing_on(basis_index, real, result):
    """A stand-in for real that answers result (or raises it) for one basis
    of the (2,2) field spread and defers to real for the others."""
    target = field_spread(SystemParams(2, 2)).classes[basis_index].matrix

    def fake(obj, *args, **kwargs):
        group = getattr(obj, "group", obj)
        if group.matrix != target:
            return real(obj, *args, **kwargs)
        if isinstance(result, Exception):
            raise result
        return result
    return fake


def test_verify_sampled_proof_reports_deviation(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    monkeypatch.setattr(mubkit.cli, "eigenvalue_deviation", _failing_on(
        2, mubkit.cli.eigenvalue_deviation, 1.0))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--hilbert-max-dim", "2")
    assert code == 1
    hilbert = [line for line in out.splitlines() if "hilbert" in line]
    assert hilbert[0] == ("FAIL  hilbert-eigenvectors (sampled): "
                          "basis 2 eigenvector deviation 1.000e+00")
    assert hilbert[1].startswith("PASS  hilbert-overlaps (sampled): ")
    assert hilbert[1].endswith(" over 10 of 10 pairs")
    assert hilbert[2].startswith("PASS  hilbert-purities (sampled): ")
    assert hilbert[2].endswith(" over 5 of 5 bases")
    assert len(hilbert) == 3 and out.endswith("FAILED  7 of 8 checks passed\n")


def test_verify_overlaps_hold_no_adjoint_copy(capsys, tmp_path, monkeypatch):
    # a sampled (3,5) proof holds six bases of d = 243, 7.2 blocks each; every
    # overlap check takes its left operand from a basis turned into its
    # adjoint in place, so the traced memory beyond the six stays within a few
    # blocks, where a copied adjoint would add a whole basis
    path = tmp_path / "c35.json"
    run(capsys, "complement", "--p", "3", "--n", "5", "--out", str(path))
    real = mubkit.cli.mub_check
    beyond = []

    def traced(a, b):
        tracemalloc.reset_peak()
        out = real(a, b)
        beyond.append(tracemalloc.get_traced_memory()[1] - 6 * 243 ** 2 * 16)
        return out
    monkeypatch.setattr(mubkit.cli, "mub_check", traced)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--in", str(path))
    finally:
        tracemalloc.stop()
    assert code == 0 and len(beyond) == 15
    assert max(beyond) < 4 * mubkit.errors.BLOCK_BYTES


@pytest.mark.parametrize("extra,name", [
    ([], "hilbert-projectors"),
    (["--hilbert-max-dim", "2"], "hilbert-eigenvectors (sampled)"),
], ids=["full", "sampled"])
def test_verify_stops_at_failing_basis(capsys, tmp_path, monkeypatch, extra, name):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    monkeypatch.setattr(mubkit.cli, "eigenbasis", _failing_on(
        3, mubkit.cli.eigenbasis, ProjectorNotRankOneError("boom")))
    code, out, _ = run(capsys, "verify", "--in", str(path), *extra)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert fails == [f"FAIL  {name}: basis 3: boom"]
    assert "hilbert-overlaps" not in out and out.endswith("FAILED  5 of 6 checks passed\n")


def test_verify_purities_measure_distance_to_zero_or_one(capsys, tmp_path, monkeypatch):
    # every column scaled by sqrt 2: qubit purities read 7 (pure) and 3
    # (entangled), whole numbers but not 0 or 1, so the check must fail
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    real = mubkit.cli.eigenbasis

    def scaled(group, check=True):
        basis = real(group, check)
        return MubBasis(basis.group, basis.vectors * np.sqrt(2))
    monkeypatch.setattr(mubkit.cli, "eigenbasis", scaled)
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    (line,) = [line for line in out.splitlines() if "hilbert-purities" in line]
    assert line == ("FAIL  hilbert-purities: max distance of any qupit purity "
                    "from {0,1} = 6.000e+00")


def test_verify_canonicalises_swapped_generators(capsys, tmp_path):
    path = tmp_path / "c32.json"
    run(capsys, "complement", "--p", "3", "--n", "2", "--out", str(path))
    code, counts, _ = run(capsys, "classify", "--in", str(path), "--format", "csv")
    assert code == 0
    doc = json.loads(path.read_text())
    gens = doc["classes"][3]["gens"]
    gens.reverse()
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and "OK  8/8 checks" in out
    assert run(capsys, "classify", "--in", str(path), "--format", "csv") == (0, counts, "")
    # a rank-deficient class is kept as given and still fails as such
    gens[0] = gens[1]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1 and "class 3: rank" in out


def test_verify_reduces_only_non_canonical_classes(capsys, tmp_path, monkeypatch):
    # loading and the class check test canonical form on class stacks, so a
    # canonical file is verified with no rref call (two per class before),
    # and a row-swapped class is reduced once, when it is loaded; the census
    # reads every qupit off the stacks, with no per-class call
    calls = []
    rref = mubkit.complement.rref
    factors = mubkit.complement.qupit_factor_distribution

    def counted(rows, p):
        calls.append(rows)
        return rref(rows, p)

    def counted_factors(group, qupit):
        calls.append(group)
        return factors(group, qupit)

    monkeypatch.setattr(mubkit.complement, "rref", counted)
    monkeypatch.setattr(mubkit.complement, "qupit_factor_distribution", counted_factors)
    path = tmp_path / "c28.json"
    path.write_text(dumps(field_spread(SystemParams(2, 8))))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and calls == []
    doc = json.loads(path.read_text())
    for i in (1, 100, 256):
        gens = doc["classes"][i]["gens"]
        gens[0], gens[-1] = gens[-1], gens[0]
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--in", str(path)) == (0, out, "")
    assert len(calls) == 3


def test_verify_bad_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run(capsys, "verify", "--in", str(empty))[0] == 2


@pytest.mark.parametrize("max_dim", ["0", "-5"])
def test_verify_rejects_max_dim_below_one(capsys, tmp_path, max_dim):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    code, out, err = run(capsys, "verify", "--in", str(path), "--hilbert-max-dim", max_dim)
    assert code == 2 and out == ""
    assert f"--hilbert-max-dim must be at least 1, got {max_dim}" in err


def test_verify_full_proof_memory_guard(capsys, tmp_path, monkeypatch):
    # the default guard admits every full proof up to d = 343, not d = 625
    assert 345 * 343 ** 2 * 16 <= MEMORY_GUARD < 627 * 625 ** 2 * 16
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    # 5 bases of 4 x 4 complex entries and one more for the scratch hold 1536
    # bytes; the cover union before them needs 460
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 1535)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 3 and out == ""
    assert "a full Hilbert proof of 5 bases at d = 4 with its eigenbasis scratch would hold " \
           "1536 bytes" in err and "lower --hilbert-max-dim below 4" in err
    # a sampled proof keeps its bases too, and is guarded by the same count
    code, out, err = run(capsys, "verify", "--in", str(path), "--hilbert-max-dim", "2")
    assert code == 3 and out == ""
    assert "a sampled Hilbert proof of 5 bases at d = 4" in err and "--hilbert-max-dim" not in err
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 1536)
    assert run(capsys, "verify", "--in", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", "--in", str(path), "--hilbert-max-dim", "2")
    assert code == 0 and "over 5 of 5 bases" in out


def test_member_table_guard(capsys, tmp_path, monkeypatch):
    # classify holds one member table at a time, p^n 5n int64: 320 bytes at
    # (2,2), for a file, one generator set and the search filter alike
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    classify = [["classify", "--in", str(path)],
                ["classify", "--generators", "XX,ZZ", "--p", "2"],
                ["complement", "--p", "2", "--n", "2", "--method", "search", "--filter", "PI=3"]]
    # the search checks its own need (1 MB at (2,2)) before it lists a
    # Lagrangian, so a stand-in that yields the field spread feeds the filter
    monkeypatch.setattr(mubkit.cli, "search_spreads", lambda params: iter([field_spread(params)]))
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 319)
    for argv in classify:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "the member table of a group on 2 qupits at p = 2 would hold 320 bytes" in err, argv
    # verify builds no member table; its cover union needs 6 * 2 + 14 * 4 * 8
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 3 and out == "" and "the cover union at p = 2, n = 2 would hold 460 bytes" in err
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 320)
    for argv in classify:
        assert run(capsys, *argv)[0] == 0, argv
    monkeypatch.undo()
    # 24 qubits would need 2^24 x 120 x 8 bytes, about 16 GB; a dependent
    # set on 24 qubits is refused before any table, as malformed input
    product_set = ",".join("I" * i + "Z" + "I" * (23 - i) for i in range(24))
    code, out, err = run(capsys, "classify", "--generators", product_set, "--p", "2")
    assert code == 3 and out == "" and "the member table of a group on 24 qupits" in err
    code, out, err = run(capsys, "classify", "--generators", ",".join(["Z" * 24] * 24),
                         "--p", "2")
    assert code == 2 and out == "" and "span only 1 dimensions" in err


def test_complement_search_node_guard(capsys, monkeypatch):
    # the first spread at (2,4) is reached at search node 332
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 331)
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "4", "--method", "search")
    assert code == 3 and out == ""
    assert "spread search passed the node guard 331" in err
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 332)
    code, out, _ = run(capsys, "complement", "--p", "2", "--n", "4", "--method", "search")
    assert code == 0 and json.loads(out)["n"] == 4


@pytest.mark.parametrize("p,n,total", [(29, 2, 25260), (7, 3, 137600), (5, 4, 12304656),
                                       (3, 5, 22408960), (2, 6, 4922775)])
def test_complement_search_memory_guard_before_enumeration(capsys, monkeypatch, p, n, total):
    # the masks alone would take 2273 MB at (29,2) and 2063 MB at (7,3)
    def enumerate_lagrangians(params):
        raise AssertionError("enumerated past the memory guard")
    monkeypatch.setattr(mubkit.complement, "enumerate_lagrangians", enumerate_lagrangians)
    start = time.perf_counter()
    code, out, err = run(capsys, "complement", "--p", str(p), "--n", str(n), "--method", "search")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert re.search(f"a spread search over {total} Lagrangians at p = {p}, n = {n} "
                     r"would hold \d+ bytes", err)


def test_complement_rejects_bad_params(capsys):
    code, _, err = run(capsys, "complement", "--p", "4", "--n", "2")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "complement", "--p", "2", "--n", "0")
    assert code == 2


def test_complement_guard_exit(capsys):
    code, _, err = run(capsys, "complement", "--p", "5", "--n", "5")
    assert code == 3 and "error:" in err


BIG_P = "1000000000000000003"  # a prime past 2^31


@pytest.mark.parametrize("argv", [
    ["stoich", "--p", BIG_P, "--n", "2", "--count-only"],
    ["stoich", "--p", "2", "--n", "100", "--count-only"],
    ["complement", "--p", "2", "--n", "100000", "--method", "search"],
    ["complement", "--p", "2", "--n", "30000000"],
    ["verify", "--in", "FILE"],
    ["classify", "--in", "FILE"],
], ids=["stoich-p", "stoich-n", "search-n", "field-n", "verify-file-p", "classify-file-p"])
def test_param_guard_exits_fast(capsys, tmp_path, argv):
    # past the guard these would run without limit in trial division or in
    # the Lagrangian count, or fail to print p ** n
    path = tmp_path / "bigp.json"
    path.write_text(json.dumps({"p": int(BIG_P), "n": 2, "classes": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "is past the guard p < 2^31, n <= 64" in err


@pytest.mark.parametrize("argv,want", [
    (["stoich", "--p", "101", "--n", "4", "--count-only"], None),
    (["stoich", "--p", "101", "--n", "4", "--minimize", "P4"], None),
    (["stoich", "--p", "2147483647", "--n", "3", "--count-only"], "2147483649\n"),
    (["tables", "--which", "I", "--p", "2147483647"], None),
], ids=["count-101-4", "minimize-101-4", "count-maxp-3", "table-I-maxp"])
def test_stoich_node_guard_exit(capsys, monkeypatch, argv, want):
    # all but one walk far more DFS nodes than any guard admits; the 3 qupit
    # count has one free label, so it is one closed form at any p
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 1000)
    code, out, err = run(capsys, *argv)
    if want is not None:
        assert (code, out) == (0, want)
        return
    assert code == 3 and out == ""
    assert "stoich search passed the node guard 1000" in err


def test_stoich_listing_guard_before_listing(capsys, monkeypatch):
    # the 1,889,244 solutions of (7,4) would hold 2.6 GB as text: counted
    # first, they exit 3 before the DFS lists one
    def enumerate_solutions(*args, **kwargs):
        raise AssertionError("listed past the memory guard")
    monkeypatch.setattr(mubkit.cli, "enumerate_solutions", enumerate_solutions)
    start = time.perf_counter()
    code, out, err = run(capsys, "stoich", "--p", "7", "--n", "4")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "a text listing of 1889244 solutions would hold 2644941600 bytes" in err


def test_one_node_guard_bounds_both_searches(capsys, monkeypatch):
    # a (2,4) first hit takes 332 spread search nodes, listing (3,4) 18,566
    # stoich nodes
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 331)
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "4", "--method", "search")
    assert (code, out) == (3, "") and "spread search passed the node guard 331" in err
    code, out, err = run(capsys, "stoich", "--p", "3", "--n", "4")
    assert (code, out) == (3, "") and "stoich search passed the node guard 331" in err
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 18_566)
    assert run(capsys, "complement", "--p", "2", "--n", "4", "--method", "search")[0] == 0
    code, out, _ = run(capsys, "stoich", "--p", "3", "--n", "4")
    assert code == 0 and out.endswith("6005 solutions\n")


def test_complement_search_2_5(capsys, tmp_path):
    path = tmp_path / "s25.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "5",
                         "--method", "search", "--out", str(path))
    assert time.perf_counter() - start < 10  # 1.7 s on a 2-vCPU box
    assert code == 0 and out == "" and err == ""
    comp = from_json_dict(json.loads(path.read_text()))
    assert len(comp.classes) == 33 and verify_spread(comp).ok


def test_complement_search_mode(capsys, tmp_path):
    path = tmp_path / "s22.json"
    code, _, _ = run(capsys, "complement", "--p", "2", "--n", "2",
                     "--method", "search", "--out", str(path))
    assert code == 0
    assert run(capsys, "verify", "--in", str(path))[0] == 0


def test_complement_search_filter(capsys, tmp_path):
    path = tmp_path / "f23.json"
    code, _, _ = run(capsys, "complement", "--p", "2", "--n", "3",
                     "--method", "search", "--filter", "PI=0,G3=0",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "classify", "--in", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == {"SB": 9}


def test_complement_search_filter_unsatisfiable(capsys):
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "2",
                         "--method", "search", "--filter", "PI=0",
                         "--limit", "10")
    assert code == 4 and out == ""
    assert "without matching" in err


def test_complement_search_filter_matches_per_spread_oracle(capsys):
    # the oracle classifies every spread afresh, as the filter did before it
    # looked each class's label up once per search
    filters = {"PI=0": {"PI": 0}, "SB=0": {"SB": 0}, "PI=0,G3=0": {"PI": 0, "G3": 0},
               "PI=1,SB=6": {"PI": 1, "SB": 6}}
    want = {}
    for cand in search_spreads(SystemParams(2, 3)):
        counts = complement_distribution(cand).counts
        for text, filt in filters.items():
            if text not in want and all(counts.get(k, 0) == v for k, v in filt.items()):
                want[text] = dumps(cand)
        if len(want) == len(filters):
            break
    for text in filters:
        code, out, err = run(capsys, "complement", "--p", "2", "--n", "3",
                             "--method", "search", "--filter", text)
        assert (code, out, err) == (0, want[text], "")


@pytest.mark.parametrize("argv,end,examined", [
    (["--p", "2", "--n", "3", "--filter", "PI=1,SB=7"], "exhausted", 960),
    (["--p", "3", "--n", "3", "--limit", "50", "--filter", "PI=0"], "stopped at --limit 50", 50),
    (["--p", "2", "--n", "3", "--limit", "1000", "--filter", "PI=1,SB=7"], "exhausted", 960),
    # (2,2) has 6 spreads, none with PI=0
    (["--p", "2", "--n", "2", "--filter", "PI=0", "--limit", "6"], "stopped at --limit 6", 6),
    (["--p", "2", "--n", "2", "--filter", "PI=0", "--limit", "7"], "exhausted", 6),
], ids=["exhausted", "limit", "exhausted-under-limit", "limit-at-last", "limit-past-last"])
def test_complement_search_filter_counts_every_spread(capsys, argv, end, examined):
    code, out, err = run(capsys, "complement", "--method", "search", *argv)
    assert code == 4 and out == ""
    assert f"error: search {end} ({examined} spreads examined) without matching filter " in err


@pytest.mark.parametrize("extra,word", [
    (["--filter", "PI=x"], "filter"),
    (["--filter", "pi=0"], "filter"),
    (["--limit", "0"], "limit"),
    (["--filter", "PI=0", "--method", "field"], "--method search"),
    (["--filter", "PI=0,PI=3"], "repeated"),
    (["--filter", ""], "filter"),
    (["--filter", "PI=²"], "bad filter clause"),
], ids=["bad-count", "unknown-label", "limit-0", "field-filter", "repeated-label",
        "empty-filter", "superscript-count"])
def test_complement_bad_filter_clause(capsys, extra, word):
    code, out, err = run(capsys, "complement", "--p", "2", "--n", "2",
                         "--method", "search", *extra)
    assert code == 2 and out == "" and word in err


# ---------------------------------------------------------------------------
# classify


def test_classify_generator_letters(capsys):
    code, out, _ = run(capsys, "classify", "--generators", "XXY,XYX,YXX",
                       "--p", "2")
    assert code == 0
    assert out.startswith("G3 ")
    assert "variant=[[1, 2, 3]]" in out
    assert "profile=(0, 3, 4)" in out


def test_classify_generator_pairs(capsys):
    code, out, _ = run(capsys, "classify", "--generators",
                       "1 0,0 1;0 1,1 0", "--p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "B"
    assert doc["variant"] == [[1, 2]]
    assert doc["profile"] == [0, 8]
    # one qupit in pair form, as in parse_pauli: a space marks an exponent pair
    for gens in ("1 0", "X"):
        assert run(capsys, "classify", "--generators", gens, "--p", "3") == (
            0, "PI  variant=[[1]]  profile=(2,)\n", "")


def test_classify_generator_errors(capsys):
    code, _, err = run(capsys, "classify", "--generators", "XX,ZI", "--p", "2")
    assert code == 2 and "commute" in err
    code, _, err = run(capsys, "classify", "--generators", "XX,XX", "--p", "2")
    assert code == 2
    code, _, err = run(capsys, "classify", "--generators", "XX,ZZ")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "classify")
    assert code == 2
    code, out, err = run(capsys, "classify", "--in", "c22.json", "--generators", "XX,ZZ",
                         "--p", "2")
    assert code == 2 and out == "" and "--in" in err and "--generators" in err


def test_classify_file_text(capsys, tmp_path):
    path = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(path))
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0
    assert out == ("basis 0: PI  blocks=[[1], [2]]\n"
                   "basis 1: PI  blocks=[[1], [2]]\n"
                   "basis 2: B  blocks=[[1, 2]]\n"
                   "basis 3: PI  blocks=[[1], [2]]\n"
                   "basis 4: B  blocks=[[1, 2]]\n"
                   "counts: B=2, PI=3\n")


def _broken_c22(capsys, tmp_path, rank=True, isotropy=True):
    """A (2,2) field spread with class 0's second generator set to its first,
    and class 1 given the non-commuting pair X.I and Y.I."""
    path = tmp_path / "bad22.json"
    doc = json.loads(run(capsys, "complement", "--p", "2", "--n", "2")[1])
    if rank:
        doc["classes"][0]["gens"][1] = doc["classes"][0]["gens"][0]
    if isotropy:
        doc["classes"][1]["gens"] = [{"x": [1, 0], "z": [0, 0]}, {"x": [1, 0], "z": [1, 0]}]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("rank,isotropy,reason", [
    (True, False, "class 0: rank"),
    (False, True, "class 1: not isotropic"),
])
def test_classify_file_rejects_non_groups(capsys, tmp_path, rank, isotropy, reason):
    path = _broken_c22(capsys, tmp_path, rank, isotropy)
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "classify", "--in", str(path), "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: not a compatibility group: {reason}\n"


def test_verify_counts_cover_past_first_collision(capsys, tmp_path):
    path = _broken_c22(capsys, tmp_path)
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "FAIL  pairwise disjoint: classes 0 and 1 share vector key 4\n" in out
    # classes 0 to 4 hold 1, 3, 3, 3 and 3 nonzero vectors, 11 of them distinct
    assert "FAIL  exact cover: 11 of 15 nonzero vectors covered\n" in out


# ---------------------------------------------------------------------------
# stoich


def test_stoich_count_only(capsys):
    code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "48"
    code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "4", "--count-only",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"count": 48}


def test_stoich_enumerate_text_and_csv(capsys):
    code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "3")
    assert code == 0 and "4 solutions" in out
    code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "3",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["PI", "SB", "G3"]
    assert sorted(tuple(map(int, r)) for r in rows[1:]) == [
        (0, 9, 0), (1, 6, 2), (2, 3, 4), (3, 0, 6)]


def test_stoich_fix_and_forbid(capsys):
    code, out, _ = run(capsys, "stoich", "--p", "3", "--n", "4",
                       "--forbid", "P4", "--count-only")
    assert code == 0 and out.strip() == "11"
    code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "4",
                       "--fix", "PI=3", "--count-only", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 3


def test_stoich_extremize(capsys):
    code, out, _ = run(capsys, "stoich", "--p", "5", "--n", "4",
                       "--minimize", "P4")
    assert code == 0
    assert "min P4 = 206" in out
    code, out, _ = run(capsys, "stoich", "--p", "5", "--n", "4",
                       "--maximize", "PI", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == {"PI": 6}
    assert doc["solution"]["PI"] == 6


def test_stoich_infeasible_exit(capsys):
    code, _, err = run(capsys, "stoich", "--p", "5", "--n", "4",
                       "--forbid", "P4", "--minimize", "C4")
    assert code == 5 and "error:" in err


@pytest.mark.parametrize("argv,word", [
    (["--p", "3", "--n", "3", "--fix", "PI=1", "--fix", "PI=4", "--count-only"],
     "repeated fix label"),
    (["--p", "3", "--n", "3", "--minimize", "XYZ", "--fix", "PI=100"], "unknown label"),
    (["--p", "2", "--n", "4", "--minimize", "P4", "--fix", "PI=99"], "unknown label"),
], ids=["repeated-fix", "unknown-objective", "p4-at-p2"])
def test_stoich_rejects_labels_before_solving(capsys, argv, word):
    code, out, err = run(capsys, "stoich", *argv)
    assert code == 2 and out == "" and word in err


def test_stoich_argument_errors(capsys):
    assert run(capsys, "stoich", "--p", "2", "--n", "4", "--minimize", "PI",
               "--maximize", "PI")[0] == 2
    code, out, err = run(capsys, "stoich", "--p", "3", "--n", "3", "--minimize", "PI",
                         "--count-only")
    assert code == 2 and out == ""
    assert "choose one of --count-only/--minimize/--maximize" in err
    assert run(capsys, "stoich", "--p", "3", "--n", "3", "--maximize", "PI",
               "--count-only")[0] == 2
    assert run(capsys, "stoich", "--p", "2", "--n", "4", "--fix", "PI=x")[0] == 2
    # int() reads no superscript digit, so the clause is refused up front
    code, _, err = run(capsys, "stoich", "--p", "2", "--n", "2", "--fix", "PI=³")
    assert code == 2 and "bad fix clause 'PI=³', expected LABEL=COUNT" in err
    assert run(capsys, "stoich", "--p", "2", "--n", "4", "--forbid", "XYZ",
               "--count-only")[0] == 2
    assert run(capsys, "stoich", "--p", "2", "--n", "5", "--count-only")[0] == 2
    # an empty label is a label, not an absent option
    for argv in (["--minimize", ""], ["--maximize", ""], ["--minimize", "", "--maximize", "PI"],
                 ["--maximize", "", "--count-only"]):
        code, out, _ = run(capsys, "stoich", "--p", "2", "--n", "2", *argv)
        assert code == 2 and out == "", argv


# ---------------------------------------------------------------------------
# tables


def test_tables_one(capsys):
    code, out, _ = run(capsys, "tables", "--which", "I")
    assert code == 0 and "I p=2, 3 qupits" in out
    code, out, _ = run(capsys, "tables", "--which", "I", "--p", "5",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0 and len(doc["rows"]["PI"]) == 7


def test_tables_qubit_grid(capsys):
    code, out, _ = run(capsys, "tables", "--which", "III", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"]["PI"] == [4, 6, 4, 1]
    assert doc["rows"]["all"] == [12, 54, 108, 81]
    assert run(capsys, "tables", "--which", "III", "--p", "3")[0] == 2


def test_tables_minimal_columns(capsys):
    code, out, _ = run(capsys, "tables", "--which", "IV", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"]["p=2 std"] == {"PI": 3, "S2B": 0, "SG3": 0,
                                         "BB": 2, "G4": 0, "C4": 12}
    assert doc["columns"]["p=3 std"] == {"PI": 4, "S2B": 0, "SG3": 0, "BB": 0,
                                         "G4": 0, "C4": 72, "P4": 6}
    assert doc["columns"]["p=3 alt"] == {"PI": 0, "S2B": 0, "SG3": 16, "BB": 2,
                                         "G4": 0, "C4": 64, "P4": 0}
    assert doc["columns"]["p=5 std"] == {"PI": 6, "S2B": 0, "SG3": 0, "BB": 0,
                                         "G4": 0, "C4": 360, "P4": 260}
    assert doc["columns"]["p=5 alt"] == {"PI": 0, "S2B": 0, "SG3": 24, "BB": 0,
                                         "G4": 0, "C4": 396, "P4": 206}
    assert "violates 4 BB + 3 G4 + C4 = 72" in doc["note"]
    code, out, _ = run(capsys, "tables", "--which", "IV")
    assert code == 0 and "note:" in out
    assert run(capsys, "tables", "--which", "IV", "--p", "7")[0] == 2


def test_tables_reduced_grids(capsys):
    code, out, _ = run(capsys, "tables", "--which", "V", "--p", "5",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"]["PI"] == [16, 96, 256]
    assert doc["rows"]["P4"] == [0, 0, 96]
    assert doc["rows"]["all"] == [96, 3456, 55296]
    assert run(capsys, "tables", "--which", "V", "--p", "2")[0] == 2


def test_tables_profile_blocks(capsys):
    code, out, _ = run(capsys, "tables", "--which", "II", "--p", "3")
    assert code == 0
    for tag in ("II(a)", "II(b)", "II(c)"):
        assert tag in out


@pytest.mark.parametrize("which", ["I", "II", "IV", "V"])
def test_tables_p_zero_is_not_default(capsys, which):
    code, out, err = run(capsys, "tables", "--which", which, "--p", "0")
    assert code == 2 and out == "" and "error:" in err


def test_tables_csv_and_unknown(capsys):
    code, out, _ = run(capsys, "tables", "--which", "III", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "type"
    assert rows[1] == ["PI", "4", "6", "4", "1"]
    assert run(capsys, "tables", "--which", "IX")[0] == 2


# ---------------------------------------------------------------------------
# --format goldens, captured before the formats shared one renderer

_GOLDENS = {
    # verify keeps only the name and passed columns; details hold float residues
    "verify-csv": (["verify", "--in", "{c22}", "--format", "csv"],
                   "name,passed\r\nclass count,True\r\nclasses Lagrangian,True\r\n"
                   "pairwise disjoint,True\r\nexact cover,True\r\npurity-census,True\r\n"
                   "hilbert-projectors,True\r\nhilbert-overlaps,True\r\n"
                   "hilbert-purities,True\r\n"),
    "classify-generators-csv": (["classify", "--generators", "XXY,XYX,YXX", "--p", "2",
                                 "--format", "csv"],
                                'label,variant,profile\r\nG3,"[[1, 2, 3]]","[0, 3, 4]"\r\n'),
    "classify-generators-text": (["classify", "--generators", "XXY,XYX,YXX", "--p", "2",
                                  "--format", "text"],
                                 "G3  variant=[[1, 2, 3]]  profile=(0, 3, 4)\n"),
    "stoich-minimize-csv": (["stoich", "--p", "3", "--n", "4", "--minimize", "P4",
                             "--fix", "PI=4", "--format", "csv"],
                            "PI,S2B,SG3,BB,G4,C4,P4\r\n4,0,0,0,0,72,6\r\n"),
    "stoich-minimize-text": (["stoich", "--p", "3", "--n", "4", "--minimize", "P4",
                              "--fix", "PI=4", "--format", "text"],
                             "min P4 = 6\n  PI=4, S2B=0, SG3=0, BB=0, G4=0, C4=72, P4=6\n"),
    "tables-II-csv": (["tables", "--which", "II", "--format", "csv"],
                      "type,1-body,2-body\r\nPI,2,1\r\nB,0,3\r\nall,6,9\r\n"
                      "type,1-body,2-body,3-body\r\nPI,3,3,1\r\nSB,1,3,3\r\nG3,0,3,4\r\n"
                      "all,9,27,27\r\ntype,1-body,2-body,3-body,4-body\r\nPI,4,6,4,1\r\n"
                      "S2B,2,4,6,3\r\nSG3,1,3,7,4\r\nBB,0,6,0,9\r\nG4,0,6,0,9\r\n"
                      "C4,0,2,8,5\r\nall,12,54,108,81\r\n"),
    "tables-IV-csv": (["tables", "--which", "IV", "--format", "csv"],
                      "type,p=2 std,p=2 alt,p=3 std,p=3 alt,p=5 std,p=5 alt\r\n"
                      "PI,3,0,4,0,6,0\r\nSG3,0,12,0,16,0,24\r\nBB,2,2,0,2,0,0\r\n"
                      "C4,12,3,72,64,360,396\r\nP4,--,--,6,0,260,206\r\n"
                      "all,17,17,82,82,626,626\r\n"),
    # a count is one number, csv included, and a json object for json
    "stoich-count-text": (["stoich", "--p", "2", "--n", "4", "--count-only"], "48\n"),
    "stoich-count-json": (["stoich", "--p", "2", "--n", "4", "--count-only", "--format", "json"],
                          '{"count": 48}\n'),
    "stoich-count-csv": (["stoich", "--p", "2", "--n", "4", "--count-only", "--format", "csv"],
                         "48\n"),
    "stoich-list-text": (["stoich", "--p", "2", "--n", "3"],
                         "label  #0  #1  #2  #3\n---------------------\nPI      0   1   2   3\n"
                         "SB      9   6   3   0\nG3      0   2   4   6\n4 solutions\n"),
    "tables-III-text": (["tables", "--which", "III", "--format", "text"],
                        "III p=2, 4 qubits\ntype  1-body  2-body  3-body  4-body\n"
                        "------------------------------------\n"
                        "PI         4       6       4       1\nS2B        2       4       6       3\n"
                        "SG3        1       3       7       4\nBB         0       6       0       9\n"
                        "G4         0       6       0       9\nC4         0       2       8       5\n"
                        "all       12      54     108      81\n"),
}


@pytest.mark.parametrize("argv,want", list(_GOLDENS.values()), ids=list(_GOLDENS))
def test_format_goldens(capsys, tmp_path, argv, want):
    c22 = tmp_path / "c22.json"
    run(capsys, "complement", "--p", "2", "--n", "2", "--out", str(c22))
    code, out, err = run(capsys, *[a.format(c22=c22) for a in argv])
    if argv[0] == "verify":
        out = "".join(f"{r[0]},{r[1]}\r\n" for r in csv.reader(io.StringIO(out)))
    assert (code, out, err) == (0, want, "")


# ---------------------------------------------------------------------------
# environment


def test_emit_to_unwritable_path(capsys, tmp_path):
    code, _, err = run(capsys, "complement", "--p", "2", "--n", "2",
                       "--out", str(tmp_path / "no" / "dir" / "x.json"))
    assert code == 2 and "error:" in err


def _child(argv, unbuffered=False, **kw):
    """Exit code and stderr of `python -m mubkit.cli argv` on this tree's mubkit,
    its stdout block-buffered unless `unbuffered`."""
    src = str(Path(mubkit.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "mubkit.cli", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, **kw)
    return proc.returncode, proc.stderr


def _zero32(tmp_path) -> str:
    """The (3,2) field spread with class 2's qupit-0 columns zeroed: verify fails it."""
    doc = json.loads(dumps(field_spread(SystemParams(3, 2))))
    for gen in doc["classes"][2]["gens"]:
        gen["x"][0] = gen["z"][0] = 0
    path = tmp_path / "zero32.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,want,err", [
    (["stoich", "--p", "3", "--n", "4", "--maximize", "P4"], 0, ""),
    (["verify", "--in", "{zero32}"], 1, ""),
    (["complement", "--p", "2", "--n", "8"], 0, ""),  # 663,102 bytes of JSON
    (["complement", "--p", "2", "--n", "2", "--method", "search", "--filter", "PI=9"], 4,
     "error: search exhausted (6 spreads examined) without matching filter PI=9\n"),
], ids=["stoich", "verify-fails", "complement", "search-exhausted"])
def test_closed_reader_keeps_exit_code(tmp_path, argv, want, err, unbuffered):
    # the read end is closed before the child starts, so its write meets EPIPE;
    # buffered, a short text meets it at the flush
    rd, wr = os.pipe()
    os.close(rd)
    try:
        got = _child([_zero32(tmp_path) if a == "{zero32}" else a for a in argv],
                     unbuffered, stdout=wr)
    finally:
        os.close(wr)
    assert got == (want, err)


def test_closed_stdout_writes_nothing():
    # fd 1 closed at start: sys.stdout is None, and the count still exits 0
    assert _child(["stoich", "--p", "3", "--n", "4", "--count-only"],
                  preexec_fn=lambda: os.close(1)) == (0, "")
