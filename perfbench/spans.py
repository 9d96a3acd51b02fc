"""In-memory span tracing around the package's module boundaries.

The benchmark never edits the package: it replaces public functions in the
namespaces their callers look them up in (``harness.count_partial``,
``geom.general_position_violation`` and so on) with wrappers that record a
span, and puts the originals back afterwards.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from tricensus import cli, closeness, generators, geom, harness


class Tracer:
    """Collects spans (name, start, end, parent, op id) and plain call counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, amount=None):
        """Span every call; ``amount(args, result)`` adds a count to the span."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if amount is not None:
                    record["amount"] = amount(args, result)
            return result
        return traced

    def counted(self, fn, name: str):
        """Count calls without a span, for functions called thousands of times per op."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Replace the boundary functions with traced ones for the duration of the block."""
        classify = self.wrap(harness.classify, "closeness.classify")
        load = self.wrap(geom.load_point_set, "geom.load_point_set")
        gpv = self.wrap(geom.general_position_violation, "geom.general_position_violation")
        self._patch(harness, "count_partial",
                    self.wrap(harness.count_partial, "triangulations.count_partial",
                              lambda args, _: 2 ** len(args[0].interior)))
        self._patch(harness, "classify", classify)
        self._patch(harness, "verify_instance",
                    self.wrap(harness.verify_instance, "harness.verify_instance"))
        self._patch(cli, "enumerate_partial",
                    self.wrap(cli.enumerate_partial, "triangulations.enumerate_partial",
                              lambda _, result: len(result)))
        self._patch(cli, "classify", classify)
        self._patch(cli, "load_point_set", load)
        self._patch(geom, "load_point_set", load)
        self._patch(geom, "general_position_violation", gpv)
        self._patch(generators, "general_position_violation", gpv)
        self._patch(geom, "convex_hull", self.wrap(geom.convex_hull, "geom.convex_hull"))
        self._patch(closeness, "find_blocking_apex",
                    self.counted(closeness.find_blocking_apex, "closeness.find_blocking_apex.calls"))
        for gen in ("gen_random", "gen_double_circle", "gen_quasi_convex"):
            self._patch(generators, gen, self.wrap(getattr(generators, gen), f"generators.{gen}"))
        # The table is looked up once per region state; only the call that builds
        # it is spanned, so the trace does not time thousands of cache hits.
        build_table = self.wrap(geom.PointSet.orient_table, "geom.orient_table")
        lookup_table = geom.PointSet.orient_table

        def orient_table(ps):
            if "orient" in ps._cache:
                return lookup_table(ps)
            return build_table(ps)

        self._patch(geom.PointSet, "orient_table", orient_table)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def summarize(spans: list[dict], ops: set) -> dict[str, dict]:
    """Per-name totals over the spans of the given ops: seconds, self seconds, amount."""
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    out: dict[str, dict] = {}
    for k, record in enumerate(spans):
        if record["op"] not in ops:
            continue
        total = out.setdefault(record["name"], {"s": 0.0, "self_s": 0.0, "amount": 0})
        duration = record["end"] - record["start"]
        total["s"] += duration
        total["self_s"] += duration - child_time[k]
        total["amount"] += record.get("amount", 0)
    return out
