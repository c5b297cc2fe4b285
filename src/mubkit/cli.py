"""Command line surface: build, verify, classify, count, and print tables.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments or
malformed input, 3 guard exceeded, 4 filter unsatisfied, 5 infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from collections import Counter
from dataclasses import asdict
from itertools import islice
from math import comb

import numpy as np

from . import stoich
from .complement import (
    CheckResult,
    Complement,
    complement_distribution,
    distribution_json_dict,
    dumps,
    field_spread,
    first_bad_class,
    from_json_dict,
    purity_census,
    search_spreads,
    verify_spread,
)
from .errors import GuardExceededError, InfeasibleError, MubkitError, guard_memory
from .groups import MUB_LABELS, classify_basis, group_from_generators
from .hilbert import TOL, Bras, eigenbasis, eigenvalue_deviation, mub_check, qupit_purities
from .pauli import parse_pauli
from .stoich import count_solutions, enumerate_solutions, extremize, profile_table
from .zplinalg import SystemParams

_SAMPLE_BASES = 6


def _err(msg) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _render_grid(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[str(v) for v in row] for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = ["  ".join(v.rjust(w) if j else v.ljust(w) for j, (v, w) in enumerate(zip(row, widths)))
             for row in cells]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def _render(fmt: str, doc, rows, text) -> None:
    """Print what --format asks for: the JSON document, the CSV rows or the
    text. Each is a zero-argument callable, so only the printed form is built."""
    if fmt == "json":
        print(json.dumps(doc(), indent=2, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows())
        print(buf.getvalue(), end="")
    else:
        _emit(text(), None)


def _parse_counts(clauses, flag: str) -> dict[str, int]:
    """LABEL=COUNT clauses of --filter or --fix: a label of MUB_LABELS at most
    once, each with a count >= 0 in decimal digits."""
    out: dict[str, int] = {}
    for part in clauses:
        name, _, value = part.partition("=")
        name = name.strip()
        if not name or not value.strip().isdecimal():
            raise ValueError(f"bad {flag} clause {part!r}, expected LABEL=COUNT")
        if name not in MUB_LABELS:
            raise ValueError(f"unknown {flag} label {name!r}, expected one of "
                             + ", ".join(MUB_LABELS))
        if name in out:
            raise ValueError(f"repeated {flag} label {name!r}")
        out[name] = int(value)
    return out


def _load(path: str) -> Complement:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# complement


def cmd_complement(args) -> int:
    params = SystemParams(args.p, args.n)
    if args.method == "field":
        if args.filter is not None or args.limit is not None:
            raise ValueError("--filter and --limit need --method search")
        comp = field_spread(params)
    else:
        filt = None if args.filter is None else _parse_counts(args.filter.split(","), "filter")
        if args.limit is not None and args.limit < 1:
            raise ValueError(f"--limit must be at least 1, got {args.limit}")
        comp = None
        seen = 0
        labels = {}  # class matrix -> label; spreads share their classes
        for cand in islice(search_spreads(params), args.limit):
            seen += 1
            if filt is not None:
                for cls in cand.classes:
                    if cls.matrix not in labels:
                        labels[cls.matrix] = classify_basis(cls).label
                counts = Counter(labels[cls.matrix] for cls in cand.classes)
                if any(counts.get(k, 0) != v for k, v in filt.items()):
                    continue
            comp = cand
            break
        if comp is None:
            target = "any spread" if filt is None else f"filter {args.filter}"
            # islice ends the loop on the spread that reaches --limit
            end = ("exhausted" if args.limit is None or seen < args.limit
                   else f"stopped at --limit {args.limit}")
            _err(f"search {end} ({seen} spreads examined) without matching {target}")
            return 4
    _emit(dumps(comp), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _hilbert_checks(comp: Complement, max_dim: int) -> list[CheckResult]:
    """Prove every basis up to max_dim, else a seeded sample of _SAMPLE_BASES,
    and take its qupit purities as it is built; then check the pairs among
    them for unbiasedness, row by row: row a turns basis a into its adjoint in
    place for every later b and drops it. The bases it keeps, and beside them
    the scratch of eigenbasis (under one more basis), are checked against the
    memory guard first."""
    params = comp.params
    d = params.dim
    total = len(comp.classes)
    full = d <= max_dim
    idx = list(range(total)) if full else sorted(
        random.Random(0).sample(range(total), min(_SAMPLE_BASES, total)))
    guard_memory((len(idx) + 1) * d * d * 16,
                 f"a {'full' if full else 'sampled'} Hilbert proof of {len(idx)} bases at "
                 f"d = {d} with its eigenbasis scratch",
                 f"; lower --hilbert-max-dim below {d} to sample bases" if full else "")
    tag = "" if full else " (sampled)"
    scope = "" if full else f" over {len(idx)} of {total} bases"
    name = "hilbert-projectors" if full else "hilbert-eigenvectors (sampled)"
    bases = {}
    worst = impure = 0.0
    fail = ""
    for i in idx:
        try:
            bases[i] = eigenbasis(comp.classes[i], check=full)
        except MubkitError as exc:
            return [CheckResult(name, False, f"basis {i}: {exc}")]
        if not full:
            dev = eigenvalue_deviation(bases[i])
            worst = max(worst, dev)
            if dev > TOL and not fail:
                fail = f"basis {i} eigenvector deviation {dev:.3e}"
        pur = qupit_purities(bases[i].vectors, params)
        impure = max(impure, float(np.minimum(abs(pur), abs(pur - 1.0)).max()))
    out = [CheckResult(name, not fail, fail or (
        f"all {total} bases meet their generator eigen-equations within {TOL:g}" if full
        else f"max deviation {worst:.3e}{scope}"))]

    # the pairs of combinations(idx, 2), a row at a time; basis a is spent,
    # its array now holding V_a^H
    devs = []
    for row, a in enumerate(idx[:-1]):
        left = Bras.of(bases.pop(a))
        devs += [mub_check(left, bases[b]) for b in idx[row + 1:]]
        del left
    worst = max(devs, default=0.0)
    of_pairs = f"{len(devs)} pairs" if full else f"{len(devs)} of {comb(total, 2)} pairs"
    out.append(CheckResult(f"hilbert-overlaps{tag}", worst <= TOL,
                           f"max | |<a|b>|^2 - 1/d | = {worst:.3e} over {of_pairs}"))
    out.append(CheckResult(f"hilbert-purities{tag}", impure <= TOL,
                           f"max distance of any qupit purity from {{0,1}} = {impure:.3e}{scope}"))
    return out


def cmd_verify(args) -> int:
    if args.hilbert_max_dim < 1:
        raise ValueError(f"--hilbert-max-dim must be at least 1, got {args.hilbert_max_dim}")
    comp = _load(args.infile)
    checks = list(verify_spread(comp).checks)
    try:
        census = purity_census(comp)
        checks.append(CheckResult("purity-census", True,
                                  f"every qupit pure {census.pure[0]} and entangled "
                                  f"{census.entangled[0]} times, "
                                  f"identity tally {census.identity_tally}"))
    except MubkitError as exc:
        checks.append(CheckResult("purity-census", False, str(exc)))
    if all(c.passed for c in checks):
        checks.extend(_hilbert_checks(comp, args.hilbert_max_dim))
    else:
        checks.append(CheckResult("hilbert", False, "skipped: structural checks failed"))
    ok = all(c.passed for c in checks)
    _render(args.format,
            lambda: {"ok": ok, "checks": [asdict(c) for c in checks]},
            lambda: [["name", "passed", "detail"]] + [[c.name, c.passed, c.detail] for c in checks],
            lambda: "".join(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}\n"
                            for c in checks)
            + (f"OK  {len(checks)}/{len(checks)} checks" if ok else
               f"FAILED  {sum(c.passed for c in checks)} of {len(checks)} checks passed"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    if args.infile is not None and args.generators is not None:
        raise ValueError("classify takes --in or --generators, not both")
    if args.generators:
        if args.p is None:
            raise ValueError("--generators requires --p")
        tokens = [t.strip() for t in args.generators.split(";" if ";" in args.generators else ",")]
        first = tokens[0]
        n = first.count(",") + 1 if "," in first or " " in first else len(first)
        params = SystemParams(args.p, n)
        ops = [parse_pauli(t, params) for t in tokens]
        mt = classify_basis(group_from_generators(params, ops))
        variant = [[q + 1 for q in block] for block in mt.pattern]
        _render(args.format,
                lambda: {"label": mt.label, "variant": variant, "profile": list(mt.profile)},
                lambda: [["label", "variant", "profile"], [mt.label, variant, list(mt.profile)]],
                lambda: f"{mt.label}  variant={variant}  profile={tuple(mt.profile)}")
        return 0
    if not args.infile:
        raise ValueError("classify needs --in FILE or --generators")
    comp = _load(args.infile)
    bad = first_bad_class(comp)
    if bad:
        raise MubkitError(f"not a compatibility group: {bad}")
    doc = distribution_json_dict(complement_distribution(comp))
    counts = doc["counts"].items()
    _render(args.format, lambda: doc,
            lambda: [["label", "count"]] + [[k, v] for k, v in counts],
            lambda: "".join(f"basis {i}: {entry['label']}  blocks={entry['variant']}\n"
                            for i, entry in enumerate(doc["per_basis"]))
            + "counts: " + ", ".join(f"{k}={v}" for k, v in counts))
    return 0


# ---------------------------------------------------------------------------
# stoich


def cmd_stoich(args) -> int:
    params = SystemParams(args.p, args.n)
    table = profile_table(params)
    forbid = tuple(args.forbid or ())
    fixes = _parse_counts(args.fix or (), "fix")
    if args.count_only + (args.minimize is not None) + (args.maximize is not None) > 1:
        raise ValueError("choose one of --count-only/--minimize/--maximize")
    label = args.minimize if args.minimize is not None else args.maximize
    if label is not None:
        direction = "min" if args.minimize is not None else "max"
        sol = extremize(table, label, direction, forbid=forbid, fixes=fixes)
        _render(args.format,
                lambda: {"objective": {label: sol[label]}, "solution": sol},
                lambda: [list(sol), list(sol.values())],
                lambda: f"{direction} {label} = {sol[label]}\n  "
                + ", ".join(f"{k}={v}" for k, v in sol.items()))
        return 0
    if args.count_only:
        total = count_solutions(table, forbid=forbid, fixes=fixes)
        print(json.dumps({"count": total}) if args.format == "json" else total)
        return 0
    labels = [l for l in table.labels if l not in forbid]
    # the list and its rendering, per value: at (5,4), 198,379 solutions of
    # 7 values grew VmHWM by 227 MB as text, 339 MB as json and 96 MB as csv.
    # They are counted before the DFS lists them, through the stoich module:
    # perfbench's layer trace wraps this module's count_solutions and adds
    # its results to the solutions a command reads
    total = stoich.count_solutions(table, forbid=forbid, fixes=fixes)
    guard_memory(total * len(labels) * {"text": 200, "json": 300, "csv": 100}[args.format],
                 f"a {args.format} listing of {total} solutions",
                 "; count them with --count-only or narrow them with --fix")
    sols = enumerate_solutions(table, forbid=forbid, fixes=fixes)
    _render(args.format,
            lambda: {"count": len(sols), "solutions": sols},
            lambda: [labels] + [[s[l] for l in labels] for s in sols],
            lambda: _render_grid(["label"] + [f"#{i}" for i in range(len(sols))],
                                 [[l] + [s[l] for s in sols] for l in labels])
            + f"{len(sols)} solutions")
    return 0


# ---------------------------------------------------------------------------
# tables


def _table_rows_n3(p: int) -> list[list]:
    params = SystemParams(p, 3)
    sols = enumerate_solutions(profile_table(params))
    sols.sort(key=lambda s: -s["PI"])
    return [[lab] + [s[lab] for s in sols] for lab in ("PI", "SB", "G3")]


def _profile_grid(p: int, n: int, ncols: int | None = None) -> tuple[list[str], list[list]]:
    table = profile_table(SystemParams(p, n))
    ncols = ncols or n
    header = ["type"] + [f"{k}-body" for k in range(1, ncols + 1)]
    rows = [[lab] + list(table.rows[lab][:ncols]) for lab in table.labels]
    rows.append(["all"] + list(table.totals[:ncols]))
    return header, rows


def _table_iv_column(p: int, standard: bool) -> dict[str, int]:
    params = SystemParams(p, 4)
    table = profile_table(params)
    if standard:
        fixes = {"PI": p + 1, "S2B": 0, "SG3": 0}
    else:
        fixes = {"PI": 0, "S2B": 0, "SG3": 4 * (p + 1)}
    sols = enumerate_solutions(table, fixes=fixes)
    if not sols:
        raise InfeasibleError(f"no distribution for the p={p} column")
    return min(sols, key=lambda s: (s.get("P4", 0), s.get("G4", 0), -s.get("BB", 0)))


def cmd_tables(args) -> int:
    which = args.which.upper()
    payload: dict = {"table": which}
    blocks: list[tuple[str, list[str], list[list]]] = []
    note = ""
    if which == "I":
        p = 2 if args.p is None else args.p
        rows = _table_rows_n3(p)
        header = ["type"] + [f"#{i}" for i in range(len(rows[0]) - 1)]
        blocks.append((f"I p={p}, 3 qupits", header, rows))
        payload.update(p=p, rows={r[0]: r[1:] for r in rows})
    elif which == "II":
        p = 2 if args.p is None else args.p
        sub_rows = {}
        for sub, n in (("a", 2), ("b", 3), ("c", 4)):
            header, rows = _profile_grid(p, n)
            blocks.append((f"II({sub}) p={p}, {n} qupits", header, rows))
            sub_rows[f"II({sub})"] = {r[0]: r[1:] for r in rows}
        payload.update(p=p, blocks=sub_rows)
    elif which == "III":
        if args.p not in (None, 2):
            raise ValueError("table III is the p=2 grid")
        header, rows = _profile_grid(2, 4)
        blocks.append(("III p=2, 4 qubits", header, rows))
        payload.update(p=2, rows={r[0]: r[1:] for r in rows})
    elif which == "IV":
        ps = (2, 3, 5) if args.p is None else (args.p,)
        if any(p not in (2, 3, 5) for p in ps):
            raise ValueError("table IV covers p in {2, 3, 5}")
        cols = []
        for p in ps:
            cols.append((f"p={p} std", _table_iv_column(p, True)))
            cols.append((f"p={p} alt", _table_iv_column(p, False)))
        header = ["type"] + [name for name, _ in cols]
        rows = [[lab] + [sol.get(lab, "--") for _, sol in cols]
                for lab in ("PI", "SG3", "BB", "C4", "P4")]
        rows.append(["all"] + [sum(sol.values()) for _, sol in cols])
        blocks.append(("IV", header, rows))
        if any(p == 3 for p in ps):
            note = ("note: the p=3 alt column is sometimes quoted as BB=0, C4=66, "
                    "which violates 4 BB + 3 G4 + C4 = 72; the valid minimum is BB=2, C4=64")
        payload.update(columns={name: sol for name, sol in cols}, note=note)
    elif which == "V":
        p = 3 if args.p is None else args.p
        if p not in (3, 5):
            raise ValueError("table V covers p in {3, 5}")
        header, rows = _profile_grid(p, 4, ncols=3)
        blocks.append((f"V p={p}, 4 qupits", header, rows))
        payload.update(p=p, rows={r[0]: r[1:] for r in rows})
    else:
        raise ValueError(f"unknown table {args.which!r}")
    _render(args.format, lambda: payload,
            lambda: [row for _, header, grid in blocks for row in [header] + grid],
            lambda: "\n".join(f"{title}\n{_render_grid(h, r)}" for title, h, r in blocks)
            + (note + "\n" if note else ""))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct, verify, and classify full sets of mutually unbiased bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = sub.add_parser("complement", help="build a full complement and write it as JSON")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--method", choices=("field", "search"), default="field")
    sp.add_argument("--limit", type=int, default=None,
                    help="search: maximum spreads to examine before giving up")
    sp.add_argument("--filter", default=None,
                    help="search: exact type counts, e.g. PI=0 or PI=1,SB=6")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.set_defaults(func=cmd_complement)

    sp = sub.add_parser("verify", help="run all checks on a complement file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--hilbert-max-dim", type=int, default=81,
                    help="prove every basis and pair up to this dimension, "
                         "sample bases above")
    add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify", help="classify a complement file or one generator set")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--generators", default=None,
                    help="comma separated operators, e.g. XZXI,ZXIX,XIXZ,IXZX")
    sp.add_argument("--p", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("stoich", help="enumerate or extremize distribution counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--forbid", action="append", default=None, metavar="LABEL")
    sp.add_argument("--fix", action="append", default=None, metavar="LABEL=K")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--minimize", default=None, metavar="LABEL")
    sp.add_argument("--maximize", default=None, metavar="LABEL")
    add_format(sp)
    sp.set_defaults(func=cmd_stoich)

    sp = sub.add_parser("tables", help="regenerate the reference tables")
    sp.add_argument("--which", required=True, help="one of I, II, III, IV, V")
    sp.add_argument("--p", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        _err(exc)
        return 3
    except InfeasibleError as exc:
        _err(exc)
        return 5
    except (MubkitError, ValueError, OSError) as exc:
        _err(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
