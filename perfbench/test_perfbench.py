"""Tests of the benchmark itself: the independent spread checker, the known
answers, and the traced counters against independently known quantities.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import spreads  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 5)])
def test_field_spread_passes_checker_and_matches_mubkit(p, n):
    from mubkit.complement import field_spread
    from mubkit.zplinalg import SystemParams

    classes = spreads.field_spread_classes(p, n)
    assert spreads.spread_problems(p, n, classes) == []
    theirs = np.array([c.matrix for c in field_spread(SystemParams(p, n)).classes])
    assert sorted(c.tobytes() for c in classes) == sorted(c.tobytes() for c in theirs)


def test_checker_rejects_broken_spreads():
    p, n = 3, 2
    good = spreads.field_spread_classes(p, n)
    assert spreads.spread_problems(p, n, good[1:])  # one class short
    assert spreads.spread_problems(p, n, spreads.corrupted(good, random.Random(0)))
    skew = good.copy()
    skew[3, 0, n + 1] = (skew[3, 0, n + 1] + 1) % p  # breaks the symmetric Gram matrix
    assert any("isotropic" in msg for msg in spreads.spread_problems(p, n, skew))
    flat = good.copy()
    flat[4, 1] = flat[4, 0]
    assert any("rank" in msg for msg in spreads.spread_problems(p, n, flat))


def test_product_class_count():
    # the standard two-qubit complement has three product bases out of five
    assert spreads.product_class_count(2, 2, spreads.field_spread_classes(2, 2)) == 3
    assert spreads.product_class_count(5, 4, spreads.field_spread_classes(5, 4)) == 2


def test_inputs_depend_only_on_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        d.mkdir()
        workloads.make_inputs("search-prove", seed, d, Path("x"))
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()
    assert any(f.read_bytes() != (c / f.name).read_bytes() for f in a.iterdir())


def test_known_answers_reject_wrong_output():
    minimize, table, count_only, listing = workloads.group_calls("count", [])
    assert minimize.check(0, "min P4 = 206\n  PI=0, S2B=0, SG3=24, BB=0, G4=0, C4=396, "
                             "P4=206\n", "") is None
    assert minimize.check(0, "min P4 = 207\n", "") is not None
    assert count_only.check(0, "198379\n", "") is None
    assert count_only.check(0, "198378\n", "") is not None
    assert listing.check(0, '{"count": 1, "solutions": [{"PI": 82}]}', "") is not None
    search = workloads.group_calls("search", [])
    assert search[-1].check(4, "", "error: search exhausted (960 spreads examined)") is None
    assert search[-1].check(0, "", "") is not None
    c22 = spreads.complement_json(2, 2, spreads.field_spread_classes(2, 2))
    assert search[0].check(0, c22, "") is not None  # wrong (p, n)


def test_self_check_expectations():
    search = workloads.group_calls("search", [])
    assert [c.counts["complement.enumerate_lagrangians.count"] for c in search] == [
        2295, 1120, 135, 135]
    assert search[-1].counts["complement.search_spreads.yielded"] == 960
    prove = workloads.group_calls("prove", ["a", "b", "c", "d", "e"])
    assert [c.counts.get("hilbert.eigenbasis.full.calls") for c in prove[:2]] == [50, 82]
    assert [c.counts.get("hilbert.mub_check.calls") for c in prove[:4]] == [
        1225, 3321, 15, 15]
    construct = workloads.group_calls("construct", ["a", "b", "c"])
    assert sum(c.counts.get("zplinalg.ExtField.trace.calls", 0) for c in construct) == 32459


def test_workloads_split_inputs_between_groups(tmp_path):
    files = workloads.make_inputs("search-prove", 3, tmp_path, Path("x"))
    wl = workloads.workload("search-prove", files)
    assert [c.argv[-1] for c in wl.calls if c.argv[0] == "verify"] == files
    assert wl.kinds == ["search_first_s", "search_exhaust_s", "proof_full_s",
                        "proof_sampled_s"]
    files = workloads.make_inputs("construct-count", 3, tmp_path, Path("x"))
    wl = workloads.workload("construct-count", files)
    assert [c.argv[-1] for c in wl.calls if c.argv[0] == "classify"] == files
    assert wl.kinds == ["construct_s", "classify_s", "extremize_s", "count_s"]


def _traced(argvs):
    doc = run.run_pass(argvs, True, run.child_env(), 120)
    assert all(c["code"] in (0, 4) for c in doc["calls"]), doc["calls"]
    # a probe before each call and after the last, taken out of the pass time
    assert len(doc["probes"]) == len(argvs) + 1
    assert sum(c["s"] for c in doc["calls"]) < doc["wall_s"]
    return doc


def test_traced_counters_match_known_quantities(tmp_path):
    c72 = tmp_path / "c72.json"
    c72.write_text(spreads.complement_json(7, 2, spreads.field_spread_classes(7, 2)))
    c35 = tmp_path / "c35.json"
    c35.write_text(spreads.complement_json(3, 5, spreads.field_spread_classes(3, 5)))
    argvs = [["complement", "--p", "2", "--n", "3", "--method", "search",
              "--filter", "PI=1,SB=7"],
             ["complement", "--p", "3", "--n", "3", "--method", "search"],
             ["complement", "--p", "3", "--n", "3"],
             ["verify", "--in", str(c72)],
             ["verify", "--in", str(c35)],
             ["stoich", "--p", "3", "--n", "4", "--format", "json"]]
    rows = _traced(argvs)["layers"]
    exhaust, first, field, full, sampled, listing = rows
    assert exhaust["complement.enumerate_lagrangians.count"] == spreads.lagrangian_count(2, 3) == 135
    assert exhaust["complement.search_spreads.yielded"] == 960
    assert first["complement.enumerate_lagrangians.count"] == spreads.lagrangian_count(3, 3) == 1120
    assert first["complement.search_spreads.yielded"] == 1
    assert 0 < first["complement.search_spreads.first_s"] <= first["complement.search_spreads.s"]
    assert field["zplinalg.ExtField.trace.calls"] == 27 * 9
    assert full["hilbert.eigenbasis.full.calls"] == 50
    assert full["hilbert.eigenbasis.full.bytes"] == 50 * 49 ** 3 * 16
    assert full["hilbert.mub_check.calls"] == full["hilbert.mub_check.pairs"] == 1225
    assert full["hilbert.mub_check.pairs_total"] == comb(50, 2)
    assert sampled["hilbert.eigenbasis.light.calls"] == 6
    assert sampled["hilbert.mub_check.calls"] == 15
    assert listing["stoich.solutions"] == 6005
    for row in rows:
        assert 0 < row["cli.self_s"] < row["cli.main.s"]
        assert row["cli.main.calls"] == 1


def test_pool_spans_attach_to_their_verify_call(tmp_path):
    import mubkit.cli as cli

    c34 = tmp_path / "c34.json"
    c34.write_text(spreads.complement_json(3, 4, spreads.field_spread_classes(3, 4)))
    # run in-process so the spans can be inspected; undo the wrappers afterwards
    saved = {m: dict(vars(m)) for m in _mubkit_modules()}
    saved_cls = _class_attrs()
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer)
        assert cli.main(["classify", "--generators", "XZ,ZX", "--p", "2"]) == 0
        assert cli.main(["verify", "--in", str(c34)]) == 0
    finally:
        for m, attrs in saved.items():
            for k, v in attrs.items():
                setattr(m, k, v)
        for (cls, k), v in saved_cls.items():
            setattr(cls, k, v)
    checks = [s for s in tracer.spans if s.name == "hilbert.mub_check"]
    assert len(checks) == 3321
    assert {s.call for s in checks} == {1}
    assert {s.parent.name for s in checks} == {"cli.main"}
    assert {s.parent.call for s in checks} == {1}
    rows = layertrace.per_call(tracer)
    assert rows[1]["hilbert.mub_check.phase_s"] > 0
    assert rows[0]["hilbert.mub_check.calls"] == 0


def _mubkit_modules():
    import mubkit.cli
    import mubkit.complement
    import mubkit.groups
    import mubkit.zplinalg
    return [mubkit.cli, mubkit.complement, mubkit.groups, mubkit.zplinalg]


def _class_attrs():
    from mubkit.groups import CompatGroup
    from mubkit.zplinalg import ExtField
    return {(ExtField, "trace"): ExtField.__dict__["trace"],
            (ExtField, "mul"): ExtField.__dict__["mul"],
            (CompatGroup, "members"): CompatGroup.__dict__["members"],
            (CompatGroup, "member_keys"): CompatGroup.__dict__["member_keys"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "construct-count",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no package to measure" in done.stderr
