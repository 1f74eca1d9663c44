"""Spans at the package's layer boundaries, installed from outside the package.

``Tracer.install`` replaces each traced public function on every module of
``treealpha`` that binds it (``graphs``, ``patterns``, ``treedecomp``) with a
timing wrapper. Calls the package makes through its module globals then pass
through the wrappers, so nested spans show which layer spent the time; the
work of a private kernel appears as the self time of its public caller.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TRACED = {
    "graphs": ("line_graph", "subdivide", "max_stable_set", "alpha_exact", "components"),
    "patterns": ("lt_free_upto", "find_pattern"),
    "treedecomp": ("validate_td", "minimal_triangulations", "tree_alpha_exact",
                   "assemble_td", "mwis", "td_stats"),
}


def _span_name(home: str, name: str, args, kwargs) -> str:
    # find_pattern and mwis are one function per pattern kind / method; split them
    if name == "find_pattern":
        spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
        return f"patterns.find_pattern.{spec.kind}"
    if name == "mwis":
        method = kwargs.get("method", args[1] if len(args) > 1 else "brute")
        return f"treedecomp.mwis.{method}"
    return f"{home}.{name}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top level
    call_id: int  # the benchmark call this span belongs to
    count: int = 0  # items in the result, for functions returning a collection


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count_result: bool = False):
        """Wrap fn so that each call records one span named name."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, tracer._open[-1] if tracer._open else -1,
                        tracer.call_id)
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._open.pop()
            if count_result:
                span.count = len(result)
            return result

        return wrapper

    def install(self, modules: dict[str, object], extra=()) -> None:
        """Wrap the TRACED functions wherever a module binds them, and each
        (object, attribute, span name) in extra."""
        for obj, attr, label in extra:
            original = getattr(obj, attr)
            self._restore.append((obj, attr, original))
            setattr(obj, attr, self.span(label, original))
        for home, names in TRACED.items():
            for name in names:
                original = getattr(modules[home], name)
                wrapped = self.span(
                    lambda a, k, home=home, name=name: _span_name(home, name, a, k),
                    original,
                    count_result=name == "minimal_triangulations",
                )
                for mod in modules.values():
                    if getattr(mod, name, None) is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def totals(self, first: int = 0, last: int | None = None):
        """Per span name: (inclusive seconds, self seconds, calls, result items)
        over spans[first:last], plus each span's top-level ancestor name."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        root_name = [""] * len(spans)
        for i, s in enumerate(spans):
            p = s.parent - first
            if p >= 0:
                child[p] += s.end - s.start
                root_name[i] = root_name[p]
            else:
                root_name[i] = s.name
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        items: dict[str, int] = defaultdict(int)
        under: dict[tuple[str, str], int] = defaultdict(int)
        for i, s in enumerate(spans):
            d = s.end - s.start
            incl[s.name] += d
            self_s[s.name] += d - child[i]
            calls[s.name] += 1
            items[s.name] += s.count
            under[(root_name[i], s.name)] += 1
        return incl, self_s, calls, items, under

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write('["name", "start", "end", "parent", "call_id"]\n')
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.call_id]) + "\n")
