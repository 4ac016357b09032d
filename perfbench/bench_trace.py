"""Spans around the public functions of each cqms module, recorded from outside.

A ``Tracer`` replaces each wrapped function by a timing wrapper in every
namespace that holds it (``mkdist.solve_lp`` as ``mk_distance`` looks it up,
``cqms.truncate`` as the package re-exports it, ...), keeps the spans in
memory, and puts every original back when it is closed.  The program itself
is not modified: a layer here is a module, and a span is one call into one of
the functions listed in ``WRAPPED``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

WRAPPED = {
    "io": ["load_input"],
    "hopf": ["check_axioms", "haar_state"],
    "corep": ["gns_build", "pw_decompose"],
    "compress": ["truncate", "induced_coaction", "canonical_symbol_state",
                 "optimized_symbol_state", "pullback_state", "symbol_map"],
    "lipnorm": ["check_invariance", "induced_lip", "max_numerical_radius"],
    "mkdist": ["truncation_bound", "mk_distance", "diameter_bracket", "matrix_mk_lower_bound"],
    "simplex": ["solve_lp"],
}
ROOT = "root"


def _lp_counts(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {"rows": int(len(problem.bounds)), "iterations": int(result.iterations)}


def _radius_counts(args, kwargs, result) -> dict:
    stack = args[0] if args else kwargs["stack"]
    return {"matrices": int(len(stack))}


# Work counts read from a call's arguments and result: (keys, reader) per span name.
COUNTERS = {
    "simplex.solve_lp": (("rows", "iterations"), _lp_counts),
    "lipnorm.max_numerical_radius": (("matrices",), _radius_counts),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Patch the wrapped functions on ``install``; put them back on ``restore``.

    Spans of one op share ``op`` and hang below that op's root span, so
    ``parent`` always names the innermost wrapped call that was running.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        sources = {name: importlib.import_module(f"cqms.{name}") for name in WRAPPED}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "cqms" or name.startswith("cqms."))]
        try:
            for module_name, functions in WRAPPED.items():
                source = sources[module_name]
                for function in functions:
                    original = getattr(source, function)
                    wrapper = self._wrap(f"{module_name}.{function}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original))
                                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        counter = COUNTERS[name][1] if name in COUNTERS else None

        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None, op=self._op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One op: a root span that the layer spans of the op hang below."""
        if self._stack:
            raise RuntimeError("an op cannot start inside another span")
        root = Span(ROOT, time.perf_counter(), op=op_id)
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._op = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": span.name, "start": span.start,
                                         "end": span.end, "parent": span.parent,
                                         "op": span.op, **span.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of each op, then the median over ops.

    Counts and self times are totals within one op; ``root.self_frac`` is the
    share of op wall time no layer span covers.
    """
    selfs = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span.op is None:
            continue
        row = per_op.setdefault(span.op, _empty_row())
        if span.name == ROOT:
            row["root.self_frac"] = selfs[index] / (span.end - span.start)
            continue
        module = span.name.split(".")[0]
        row[f"{span.name}.calls"] += 1
        row[f"{span.name}.self_s"] += selfs[index]
        row[f"{module}.self_s"] += selfs[index]
        for key, value in span.counts.items():
            row[f"{span.name}.{key}"] += value
        if span.name == "simplex.solve_lp" and span.parent is not None \
                and spans[span.parent].name == "mkdist.mk_distance":
            row["_lp_under_mk"] += 1
    rows = list(per_op.values())
    for row in rows:
        under_mk, calls = row.pop("_lp_under_mk"), row["mkdist.mk_distance.calls"]
        row["mkdist.mk_distance.lp_per_call"] = under_mk / calls if calls else 0.0
    keys = sorted(rows[0]) if rows else []
    return {key: statistics.median(row[key] for row in rows) for key in keys}


def _empty_row() -> dict[str, float]:
    row: dict[str, float] = {}
    for module, functions in WRAPPED.items():
        row[f"{module}.self_s"] = 0.0
        for function in functions:
            row[f"{module}.{function}.calls"] = 0
            row[f"{module}.{function}.self_s"] = 0.0
    for name, (keys, _) in COUNTERS.items():
        for key in keys:
            row[f"{name}.{key}"] = 0
    row["_lp_under_mk"] = 0
    row["root.self_frac"] = 0.0
    return row
