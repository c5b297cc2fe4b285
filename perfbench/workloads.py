"""The two workloads, each two of the four call groups run in one pass: the
exact argv of each CLI call, the input files the seed makes, the known answer
each call must give, and, for the traced run, the counts each call's spans
must show.

Known answers are written by hand or computed by spreads.py; none comes from
the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import spreads


@dataclass
class Call:
    argv: list[str]
    kind: str | None  # the per-command metric this call's wall time adds to
    check: Callable[[int, str, str], str | None]  # (code, stdout, stderr) -> problem
    counts: dict[str, int] = field(default_factory=dict)  # traced self-checks


@dataclass
class Workload:
    calls: list[Call]

    @property
    def kinds(self) -> list[str]:
        """The per-command metrics, in call order."""
        return list(dict.fromkeys(c.kind for c in self.calls if c.kind))


def _problem(ok: bool, what: str) -> str | None:
    return None if ok else what


def _spread_check(p: int, n: int, exact: bool = False, product_classes: int | None = None):
    """The output is a complement JSON on stdout that passes the independent
    spread checker; `exact` also asks for the GF(p^n) trace-form class set."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        try:
            got_p, got_n, classes = spreads.classes_from_json(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable complement: {exc}"
        if (got_p, got_n) != (p, n):
            return f"complement for p={got_p}, n={got_n}"
        problems = spreads.spread_problems(p, n, classes)
        if problems:
            return "; ".join(problems)
        if exact:
            want = spreads.field_spread_classes(p, n)
            if sorted(c.tobytes() for c in classes) != sorted(c.tobytes() for c in want):
                return "class set differs from the GF(p^n) trace-form spread"
        if product_classes is not None:
            got = spreads.product_class_count(p, n, classes)
            if got != product_classes:
                return f"{got} product classes, filter asks for {product_classes}"
        return None
    return check


def _exact_stdout(text: str):
    def check(code, out, err):
        return _problem(code == 0 and out == text, f"exit {code}, stdout {out[:120]!r}")
    return check


def _classify_check(p: int, n: int, counts: str):
    def check(code, out, err):
        lines = out.splitlines()
        per_basis = sum(1 for line in lines if line.startswith("basis "))
        return _problem(code == 0 and per_basis == p ** n + 1
                        and lines[-1:] == ["counts: " + counts],
                        f"exit {code}, {per_basis} basis lines, last {lines[-1:]}")
    return check


def _verify_check(ok: bool):
    def check(code, out, err):
        lines = out.splitlines()
        last = lines[-1] if lines else ""
        if ok:
            good = (code == 0 and last.startswith("OK ")
                    and not any(line.startswith("FAIL") for line in lines))
        else:
            good = code == 1 and last.startswith("FAILED ")
        return _problem(good, f"exit {code}, last line {last!r}")
    return check


def _exhaust_check(code, out, err):
    return _problem(code == 4 and out == "" and "(960 spreads examined)" in err,
                    f"exit {code}, stderr {err.strip()[-120:]!r}")


_TABLE_IV = """\
IV
type  p=2 std  p=2 alt  p=3 std  p=3 alt  p=5 std  p=5 alt
----------------------------------------------------------
PI          3        0        4        0        6        0
SG3         0       12        0       16        0       24
BB          2        2        0        2        0        0
C4         12        3       72       64      360      396
P4         --       --        6        0      260      206
all        17       17       82       82      626      626
"""


def _table_iv_check(code, out, err):
    return _problem(code == 0 and out.startswith(_TABLE_IV) and "\nnote: " in out,
                    f"exit {code}, table IV {out[:80]!r}")


def _solutions_check(p: int, n: int, count: int):
    """JSON listing: the count, and every solution a distribution of p^n + 1 classes."""
    def check(code, out, err):
        try:
            doc = json.loads(out)
            sols = doc["solutions"]
            sizes = {sum(s.values()) for s in sols}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"exit {code}, unreadable solutions: {exc}"
        return _problem(code == 0 and doc["count"] == count == len(sols)
                        and sizes == {p ** n + 1},
                        f"exit {code}, count {doc.get('count')}, {len(sols)} listed, "
                        f"class totals {sorted(sizes)[:3]}")
    return check


def _field(p: int, n: int) -> Call:
    return Call(["complement", "--p", str(p), "--n", str(n)], "construct_s",
                _spread_check(p, n, exact=True),
                {"zplinalg.ExtField.trace.calls": p ** n * n * n})


def _search_argv(p: int, n: int, extra: list[str]) -> list[str]:
    return ["complement", "--p", str(p), "--n", str(n), "--method", "search"] + extra


def _first_hit(p: int, n: int, extra: list[str], product_classes: int | None = None) -> Call:
    return Call(_search_argv(p, n, extra), "search_first_s",
                _spread_check(p, n, product_classes=product_classes),
                {"complement.enumerate_lagrangians.count": spreads.lagrangian_count(p, n)})


def _full_proof(path: str, p: int, n: int) -> Call:
    k = p ** n + 1
    return Call(["verify", "--in", path], "proof_full_s", _verify_check(True),
                {"hilbert.eigenbasis.full.calls": k, "hilbert.mub_check.calls": comb(k, 2)})


def _sampled_proof(path: str) -> Call:
    # the verifier samples 6 bases above --hilbert-max-dim, hence C(6, 2) pairs
    return Call(["verify", "--in", path], "proof_sampled_s", _verify_check(True),
                {"hilbert.mub_check.calls": 15})


# (p, n) -> class counts printed by `classify --in`, written by hand
_CLASSIFY_COUNTS = {(2, 8): "OTHER=257", (5, 4): "BB=24, C4=224, P4=368, PI=2, S2B=8",
                    (3, 5): "OTHER=244"}
_SPREAD_FILES = {"construct": [(2, 8), (5, 4), (3, 5)],
                 "prove": [(7, 2), (3, 4), (3, 5), (2, 8)]}
GROUPS = ("construct", "search", "prove", "count")
# Each workload runs two groups in one pass, so that a run measures enough
# pass time to steady its median; each group's mechanism is bypassed by the
# other workload (see README.md, "Workloads").
WORKLOADS = {"construct-count": ("construct", "count"), "search-prove": ("search", "prove")}
NAMES = tuple(WORKLOADS)


def make_inputs(name: str, seed: int, workdir: Path, rel: Path) -> list[str]:
    """Write the seeded complement files of a workload into workdir and return
    their paths as `rel`-relative argv strings. The seed fixes the class order
    in each file and the class that the corrupted file leaves out."""
    rng = random.Random(seed)
    paths = []
    for group in WORKLOADS[name]:
        for p, n in _SPREAD_FILES.get(group, []):
            classes = spreads.shuffled(spreads.field_spread_classes(p, n), rng)
            (workdir / f"{group}{p}{n}.json").write_text(spreads.complement_json(p, n, classes))
            paths.append(str(rel / f"{group}{p}{n}.json"))
        if group == "prove":
            classes = spreads.corrupted(spreads.field_spread_classes(3, 4), rng)
            (workdir / "bad34.json").write_text(spreads.complement_json(3, 4, classes))
            paths.append(str(rel / "bad34.json"))
    return paths


def workload(name: str, files: list[str]) -> Workload:
    """The calls of a workload, given the paths make_inputs returned."""
    calls = []
    for group in WORKLOADS[name]:
        k = len(_SPREAD_FILES.get(group, [])) + (group == "prove")
        calls += group_calls(group, files[:k])
        files = files[k:]
    return Workload(calls)


def group_calls(name: str, files: list[str]) -> list[Call]:
    """The calls of one group, given its input paths in make_inputs' order."""
    if name == "construct":
        classify = [Call(["classify", "--in", path], "classify_s",
                         _classify_check(p, n, _CLASSIFY_COUNTS[p, n]))
                    for path, (p, n) in zip(files, _SPREAD_FILES[name])]
        return [_field(2, 8), _field(5, 4), _field(3, 5)] + classify
    if name == "search":
        exhaust = Call(_search_argv(2, 3, ["--filter", "PI=1,SB=7"]), "search_exhaust_s",
                       _exhaust_check,
                       {"complement.enumerate_lagrangians.count": spreads.lagrangian_count(2, 3),
                        "complement.search_spreads.yielded": 960})
        return [_first_hit(2, 4, []), _first_hit(3, 3, []),
                _first_hit(2, 3, ["--filter", "PI=0"], product_classes=0), exhaust]
    if name == "prove":
        c72, c34, c35, c28, bad = files
        corrupt = Call(["verify", "--in", bad], None, _verify_check(False))
        return [_full_proof(c72, 7, 2), _full_proof(c34, 3, 4),
                _sampled_proof(c35), _sampled_proof(c28), corrupt]
    if name == "count":
        return [
            Call(["stoich", "--p", "5", "--n", "4", "--minimize", "P4"], "extremize_s",
                 _exact_stdout("min P4 = 206\n"
                               "  PI=0, S2B=0, SG3=24, BB=0, G4=0, C4=396, P4=206\n")),
            Call(["tables", "--which", "IV"], "extremize_s", _table_iv_check),
            Call(["stoich", "--p", "5", "--n", "4", "--count-only"], "count_s",
                 _exact_stdout("198379\n"), {"stoich.solutions": 198379}),
            Call(["stoich", "--p", "3", "--n", "4", "--format", "json"], "count_s",
                 _solutions_check(3, 4, 6005), {"stoich.solutions": 6005}),
        ]
    raise ValueError(f"unknown group {name!r}")
