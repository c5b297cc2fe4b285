"""Spread arithmetic written independently of mubkit, used to make the
benchmark's input files and to check the program's outputs.

A class is an (n, 2n) integer matrix over Z_p whose rows are the x|z
exponents of the generators. Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import random
from itertools import product

import numpy as np


def lagrangian_count(p: int, n: int) -> int:
    """Number of Lagrangian subspaces of Z_p^2n: prod_{i=1..n} (p^i + 1)."""
    total = 1
    for i in range(1, n + 1):
        total *= p ** i + 1
    return total


def _divides(den: list[int], num: list[int], p: int) -> bool:
    """True iff the monic polynomial den divides num over Z_p (low degree first)."""
    num = num[:]
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        f = num[i] % p
        if f:
            for j, c in enumerate(den):
                num[i - d + j] = (num[i - d + j] - f * c) % p
    return not any(v % p for v in num[:d])


def first_irreducible(p: int, n: int) -> list[int]:
    """Non-leading coefficients, constant first, of the first monic irreducible
    degree-n polynomial when candidates are scanned with the constant term
    varying fastest."""
    for k in range(p ** n):
        coeffs = [(k // p ** i) % p for i in range(n)] + [1]
        if not any(_divides(list(tail) + [1], coeffs, p)
                   for deg in range(1, n // 2 + 1)
                   for tail in product(range(p), repeat=deg)):
            return coeffs[:n]
    raise AssertionError("every degree has an irreducible polynomial")


def field_spread_classes(p: int, n: int) -> np.ndarray:
    """The GF(p^n) trace-form spread, shape (p^n + 1, n, 2n).

    The graph class of field element a has rows (e_i | G_a[i]) with
    G_a[i, j] = Tr(a x^(i+j)). The field trace is the matrix trace of
    multiplication, so Tr(x^m) = trace(C^m) for the companion matrix C.
    """
    modulus = first_irreducible(p, n)
    comp = np.zeros((n, n), dtype=np.int64)
    for j in range(n - 1):
        comp[j + 1, j] = 1
    comp[:, n - 1] = [(-c) % p for c in modulus]
    traces = []
    power = np.eye(n, dtype=np.int64)
    for _ in range(3 * n - 2):
        traces.append(int(np.trace(power)) % p)
        power = (power @ comp) % p
    traces = np.array(traces, dtype=np.int64)
    coeffs = np.array(list(product(range(p), repeat=n)), dtype=np.int64)[:, ::-1]
    idx = np.arange(n)
    # shifted[l, i, j] = Tr(x^(l+i+j))
    shifted = traces[idx[:, None, None] + idx[None, :, None] + idx[None, None, :]]
    grams = np.einsum("al,lij->aij", coeffs, shifted) % p
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), grams.shape)
    graph = np.concatenate([eye, grams], axis=2)
    vertical = np.concatenate([np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)], axis=1)
    return np.concatenate([vertical[None], graph], axis=0)


def member_table(p: int, n: int, classes: np.ndarray) -> np.ndarray:
    """All p^n span members of every class, shape (classes, p^n, 2n)."""
    coeffs = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
    return np.einsum("mi,kic->kmc", coeffs, classes) % p


def spread_problems(p: int, n: int, classes: np.ndarray) -> list[str]:
    """Reasons the classes are not a Lagrangian spread; empty if they are.

    Checks the class count p^n + 1, rank n (the p^n combinations of the
    rows are distinct), isotropy of every row pair under the symplectic form,
    and that every nonzero vector of Z_p^2n lies in exactly one class."""
    classes = np.asarray(classes, dtype=np.int64)
    problems = []
    if classes.ndim != 3 or classes.shape[1:] != (n, 2 * n):
        return [f"class array shape {classes.shape}, expected (*, {n}, {2 * n})"]
    if len(classes) != p ** n + 1:
        problems.append(f"{len(classes)} classes, expected {p ** n + 1}")
    form = np.block([[np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)],
                     [-np.eye(n, dtype=np.int64), np.zeros((n, n), np.int64)]])
    gram = np.einsum("kic,cd,kjd->kij", classes, form, classes) % p
    bad = np.nonzero(gram.any(axis=(1, 2)))[0]
    if len(bad):
        problems.append(f"class {int(bad[0])} is not isotropic")
    keys = member_table(p, n, classes) @ (p ** np.arange(2 * n, dtype=np.int64))
    low_rank = np.nonzero((np.diff(np.sort(keys, axis=1), axis=1) == 0).any(axis=1))[0]
    if len(low_rank):
        problems.append(f"class {int(low_rank[0])} has rank below {n}")
    nonzero = keys[keys != 0]
    distinct = np.unique(nonzero)
    if len(distinct) != len(nonzero):
        problems.append("two classes share a nonzero vector")
    if len(distinct) != p ** (2 * n) - 1:
        problems.append(f"{len(distinct)} of {p ** (2 * n) - 1} nonzero vectors covered")
    return problems


def product_class_count(p: int, n: int, classes: np.ndarray) -> int:
    """Classes that split into n single-site groups: for every site i the
    members supported on site i alone form a line (p members with 0)."""
    members = member_table(p, n, classes)
    support = (members[:, :, :n] != 0) | (members[:, :, n:] != 0)
    others = support.sum(axis=2)
    site_lines = [(~support[:, :, i] & (others == 0)) | (support[:, :, i] & (others == 1))
                  for i in range(n)]
    counts = np.stack([s.sum(axis=1) for s in site_lines], axis=1)
    return int(np.all(counts == p, axis=1).sum())


def classes_from_json(doc: dict) -> tuple[int, int, np.ndarray]:
    p, n = int(doc["p"]), int(doc["n"])
    classes = np.array([[g["x"] + g["z"] for g in c["gens"]] for c in doc["classes"]],
                       dtype=np.int64)
    return p, n, classes


def complement_json(p: int, n: int, classes: np.ndarray) -> str:
    """The complement file format users store: p, n and per-class generators."""
    doc = {"p": p, "n": n,
           "classes": [{"gens": [{"x": [int(v) for v in row[:n]],
                                  "z": [int(v) for v in row[n:]]} for row in cls]}
                       for cls in classes]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def shuffled(classes: np.ndarray, rng: random.Random) -> np.ndarray:
    order = list(range(len(classes)))
    rng.shuffle(order)
    return classes[order]


def corrupted(classes: np.ndarray, rng: random.Random) -> np.ndarray:
    """A copy without one class: the file still parses, but it lists p^n
    classes and leaves p^n - 1 nonzero vectors uncovered. Every check still
    visits every class, so the verifier's work does not depend on which class
    is gone."""
    return np.delete(classes, rng.randrange(len(classes)), axis=0)
