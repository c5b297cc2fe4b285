"""Spans and counters around mubkit's layer boundaries, installed from outside.

Nothing in the package is edited. A wrapper either rebinds a name in the
module that calls it (mubkit.cli.eigenbasis, mubkit.complement.rref, ...) or
replaces a class attribute (ExtField.trace, ExtField.mul, the CompatGroup
member tables). Spans stay in memory; per_call() reduces them once the pass
is over. Each cli.main call opens a new call id, and spans opened in a worker
thread with no open span of their own take the main thread's innermost open
span as parent, so the verifier's overlap pool stays attached to its verify
call.
"""

from __future__ import annotations

import threading
import time
from math import comb

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "value")

    def __init__(self, name, parent, call):
        self.name = name
        self.parent = parent
        self.call = call
        self.value = None
        self.end = None
        self.start = _clock()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}  # (call, counter) -> total
        self.call = -1
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else None
        s = Span(name, parent, self.call)
        stack.append(s)
        self.spans.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = _clock()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.call, name)
        self.counts[key] = self.counts.get(key, 0) + amount


def _wrap(tracer: Tracer, fn, name, value=None):
    def traced(*args, **kwargs):
        s = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(s)
        if value is not None:
            s.value = value(args, kwargs, result)
        return result
    return traced


def _wrap_main(tracer: Tracer, fn):
    def traced(argv=None):
        tracer.call += 1
        s = tracer.open("cli.main")
        try:
            return fn(argv)
        finally:
            tracer.close(s)
    return traced


def _wrap_generator(tracer: Tracer, fn, name):
    """Each resume of the generator is one span; `value` marks the first
    yield so the time to the first result can be read off."""
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        first = True
        try:
            while True:
                s = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(s)
                s.value = first
                first = False
                yield item
        finally:
            gen.close()
    return traced


class _TracedCachedProperty:
    """Stand-in for functools.cached_property that counts each computation."""

    def __init__(self, tracer: Tracer, func, attr: str, name: str, nbytes: bool):
        self.tracer, self.func, self.attr, self.name, self.nbytes = (
            tracer, func, attr, name, nbytes)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        cache = obj.__dict__
        if self.attr in cache:
            return cache[self.attr]
        if self.nbytes:
            self.tracer.count(self.name + ".calls")
            value = self.func(obj)
            self.tracer.count(self.name + ".bytes", value.size * value.itemsize)
        else:
            s = self.tracer.open(self.name)
            try:
                value = self.func(obj)
            finally:
                self.tracer.close(s)
        cache[self.attr] = value
        return value


def install(tracer: Tracer) -> None:
    """Install every wrapper; call once, after importing mubkit.cli."""
    import mubkit.cli as cli
    import mubkit.complement as complement
    import mubkit.groups as groups
    import mubkit.zplinalg as zplinalg

    def rebind(modules, attr, name, value=None):
        fn = getattr(modules[0], attr)
        wrapped = _wrap(tracer, fn, name, value)
        for m in modules:
            if getattr(m, attr) is not fn:
                raise RuntimeError(f"{m.__name__}.{attr} is not {modules[0].__name__}.{attr}")
            setattr(m, attr, wrapped)

    def params_of(group):
        return (group.params.p, group.params.n)

    cli.main = _wrap_main(tracer, cli.main)

    # zplinalg
    ext = zplinalg.ExtField
    ext.trace = _wrap(tracer, ext.trace, "zplinalg.ExtField.trace")
    mul = ext.mul

    def counted_mul(self, a, b):
        tracer.count("zplinalg.ExtField.mul.calls")
        return mul(self, a, b)
    ext.mul = counted_mul
    rebind([complement], "solve_affine", "zplinalg.solve_affine")
    rebind([zplinalg, complement, groups], "rref", "zplinalg.rref")

    # groups
    groups.CompatGroup.members = _TracedCachedProperty(
        tracer, groups.CompatGroup.members.func, "members", "groups.members", True)
    groups.CompatGroup.member_keys = _TracedCachedProperty(
        tracer, groups.CompatGroup.member_keys.func, "member_keys", "groups.member_keys", False)
    rebind([groups], "separation_pattern", "groups.separation_pattern")
    rebind([groups], "nbody_profile", "groups.nbody_profile")
    rebind([cli, complement], "classify_basis", "groups.classify_basis")
    rebind([complement], "qupit_factor_distribution", "groups.qupit_factor_distribution")

    # complement
    rebind([cli], "field_spread", "complement.field_spread")
    rebind([cli, complement], "complement_distribution", "complement.complement_distribution")
    rebind([complement], "enumerate_lagrangians", "complement.enumerate_lagrangians",
           lambda a, k, r: len(r))
    cli.search_spreads = _wrap_generator(tracer, cli.search_spreads,
                                         "complement.search_spreads")
    rebind([cli], "verify_spread", "complement.verify_spread")
    rebind([cli], "purity_census", "complement.purity_census")
    rebind([cli], "dumps", "complement.dumps")
    rebind([cli], "from_json_dict", "complement.from_json_dict")

    # hilbert
    rebind([cli], "eigenbasis", lambda a, k: "hilbert.eigenbasis." + (
        "full" if k.get("check", a[1] if len(a) > 1 else True) else "light"),
        lambda a, k, r: params_of(a[0]))
    rebind([cli], "eigenvalue_deviation", "hilbert.eigenvalue_deviation")
    rebind([cli], "mub_check", "hilbert.mub_check", lambda a, k, r: params_of(a[0].group))
    rebind([cli], "qupit_purities", "hilbert.qupit_purities")

    # stoich
    rebind([cli], "extremize", "stoich.extremize")
    rebind([cli], "count_solutions", "stoich.count_solutions", lambda a, k, r: r)
    rebind([cli], "enumerate_solutions", "stoich.enumerate_solutions", lambda a, k, r: len(r))
    rebind([cli], "profile_table", "stoich.profile_table")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


# span names whose `.calls` and `.s` are summed per call
_TIMED = ("zplinalg.ExtField.trace", "zplinalg.solve_affine", "zplinalg.rref",
          "groups.classify_basis", "groups.separation_pattern", "groups.nbody_profile",
          "groups.qupit_factor_distribution", "groups.member_keys",
          "complement.field_spread", "complement.complement_distribution",
          "complement.enumerate_lagrangians", "complement.search_spreads",
          "complement.verify_spread", "complement.purity_census", "complement.dumps",
          "complement.from_json_dict", "hilbert.eigenbasis.full", "hilbert.eigenbasis.light",
          "hilbert.eigenvalue_deviation", "hilbert.mub_check", "hilbert.qupit_purities",
          "stoich.extremize", "stoich.count_solutions", "stoich.enumerate_solutions",
          "stoich.profile_table", "cli.main")


def per_call(tracer: Tracer) -> list[dict[str, float]]:
    """Raw per-layer sums for each cli.main call, in call order.

    Keys are `<span>.calls` and `<span>.s` for every traced name, plus the
    counters, the derived byte, solution and pair quantities, and
    `cli.self_s`. Ratios are left as numerator and denominator
    (`hilbert.mub_check.pairs` / `.pairs_total`, `.s` / `.phase_s`) so that
    calls and passes can be summed before dividing.
    """
    ncalls = tracer.call + 1
    out = [{key: 0 for name in _TIMED for key in (f"{name}.calls", f"{name}.s")}
           for _ in range(ncalls)]
    for row in out:
        row.update({k: 0 for k in (
            "zplinalg.ExtField.mul.calls", "groups.members.calls", "groups.members.bytes",
            "complement.enumerate_lagrangians.count", "complement.search_spreads.first_s",
            "complement.search_spreads.yielded", "hilbert.eigenbasis.full.bytes",
            "hilbert.mub_check.pairs", "hilbert.mub_check.pairs_total",
            "hilbert.mub_check.phase_s", "stoich.solutions", "cli.self_s")})
    children: dict[int, list[Span]] = {}
    overlap: dict[int, list[Span]] = {}
    for s in tracer.spans:
        row = out[s.call]
        dur = s.end - s.start
        row[s.name + ".calls"] += 1
        row[s.name + ".s"] += dur
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
        if s.name == "complement.enumerate_lagrangians":
            row["complement.enumerate_lagrangians.count"] += s.value
        elif s.name == "complement.search_spreads" and s.value is not None:
            row["complement.search_spreads.yielded"] += 1
            if s.value:
                row["complement.search_spreads.first_s"] += dur
        elif s.name == "hilbert.eigenbasis.full":
            row["hilbert.eigenbasis.full.bytes"] += (s.value[0] ** s.value[1]) ** 3 * 16
        elif s.name == "hilbert.mub_check":
            overlap.setdefault(s.call, []).append(s)
        elif s.name in ("stoich.count_solutions", "stoich.enumerate_solutions"):
            row["stoich.solutions"] += s.value
    for (call, name), amount in tracer.counts.items():
        out[call][name] += amount
    for s in tracer.spans:
        if s.name == "cli.main":
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in children.get(id(s), ())]
            out[s.call]["cli.self_s"] += (s.end - s.start) - _covered(kids)
    for call, spans in overlap.items():
        p, n = spans[0].value
        row = out[call]
        row["hilbert.mub_check.pairs"] = len(spans)
        row["hilbert.mub_check.pairs_total"] = comb(p ** n + 1, 2)
        row["hilbert.mub_check.phase_s"] = (max(s.end for s in spans)
                                            - min(s.start for s in spans))
    return out


def layer_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one pass from its per-call rows."""
    total: dict[str, float] = {}
    for row in rows:
        for k, v in row.items():
            total[k] = total.get(k, 0) + v

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    total["hilbert.mub_check.pair_ratio"] = ratio(
        "hilbert.mub_check.pairs", "hilbert.mub_check.pairs_total")
    total["hilbert.mub_check.concurrency"] = ratio(
        "hilbert.mub_check.s", "hilbert.mub_check.phase_s")
    return total
