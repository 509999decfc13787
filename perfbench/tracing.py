"""Timing shims around the program's public functions, and span arithmetic.

The shims are installed from outside: nothing in the package changes.
Each call into a shimmed function records a span (name, start, end,
parent) in memory.  A layer's self time is its span time minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) -> span name.  "Class.method" attributes patch the
# class; plain functions are replaced wherever a package module binds them.
TARGETS = {
    ("sparsetls.rng", "RngStream.next_u64"): "rng.next_u64",
    ("sparsetls.rng", "RngStream.u64_block"): "rng.u64_block",
    ("sparsetls.rng", "RngStream.uniform_block"): "rng.uniform_block",
    ("sparsetls.rng", "RngStream.normal_block"): "rng.normal_block",
    ("sparsetls.rng", "RngStream.below"): "rng.below",
    ("sparsetls.rng", "derive_stream"): "rng.derive_stream",
    ("sparsetls.problems", "generate_instance"): "problems.generate_instance",
    ("sparsetls.kernel", "gradient"): "kernel.gradient",
    ("sparsetls.kernel", "shrink"): "kernel.shrink",
    ("sparsetls.kernel", "eval_cost"): "kernel.eval_cost",
    ("sparsetls.prox_solver", "pg_init"): "prox_solver.pg_init",
    ("sparsetls.prox_solver", "pg_step"): "prox_solver.pg_step",
    ("sparsetls.prox_solver", "pg_solve"): "prox_solver.pg_solve",
    ("sparsetls.adcd", "adcd_step"): "adcd.adcd_step",
    ("sparsetls.adcd", "adcd_solve"): "adcd.adcd_solve",
    ("sparsetls.metrics", "squared_error"): "metrics.squared_error",
    ("sparsetls.metrics", "support_errors"): "metrics.support_errors",
    ("sparsetls.experiments", "run_trace"): "experiments.run_trace",
    ("sparsetls.experiments", "run_lambda_sweep"): "experiments.run_lambda_sweep",
    ("sparsetls.experiments", "_write_csv"): "experiments.write_csv",
}
DRAWS = ("rng.next_u64", "rng.u64_block", "rng.uniform_block", "rng.normal_block", "rng.below")


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root


@dataclass
class Tracer:
    """In-memory span recorder; one per traced round."""

    spans: list[Span] = field(default_factory=list)
    # span name -> callback(args, kwargs, result), run after the span closes
    observers: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn):
        clock = time.perf_counter_ns
        spans, stack, observe = self.spans, self._stack, self.observers.get(name)

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> list[tuple]:
        """Patch every target that exists; returns the undo list.

        A target the program no longer has is skipped, so its layer reads
        zero calls instead of failing the run.
        """
        undo = []
        package = {k: m for k, m in sys.modules.items() if k.startswith("sparsetls")}
        for (mod_name, attr), name in TARGETS.items():
            mod = package.get(mod_name)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self.span(name, original))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            shim = self.span(name, original)
            for other in package.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, key, value))
                        setattr(other, key, shim)
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def totals(spans: list[Span]) -> dict[str, Totals]:
    by_name: dict[str, Totals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = by_name.setdefault(s.name, Totals())
        t.calls += 1
        t.total_ns += s.end - s.start
        t.self_ns += own
    return by_name


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` whose parent is not one of them."""
    names = set(names)
    return [s for s in spans if s.name in names and (s.parent < 0 or spans[s.parent].name not in names)]


def rate(count: float, base: float) -> float:
    """count / base, reading 0.0 when the base is empty."""
    return count / base if base else 0.0


def median(values) -> float:
    return float(statistics.median(values))
