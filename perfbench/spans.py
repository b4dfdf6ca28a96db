"""Spans recorded from the benchmark's side, around calls into dppm's layers.

`Tracer.install` wraps the public functions of each layer (and the names
other modules bound to them at import) and `Tracer.uninstall` puts the
originals back, so the same process can alternate untraced and traced calls.

Each span has a name, a start, an end and a parent (the span open when it
began). Spans are aggregated as they close into count, duration and self time
per (name, parent), so a query with a million draws keeps a few dozen
entries in memory. Self time is a span's duration minus the time its
children cover.

The iterator returned by ``iter_sliding_distances`` is wrapped so each
``next()`` is one span: the scan stays lazy, and a scan that stops early still
stops early.
"""

from __future__ import annotations

import functools
from time import perf_counter

import dppm
import dppm.audit as audit
import dppm.matchers as matchers
import dppm.noise as noise
import dppm.text as text

ROOT = "root"


def _size_arg(args, kwargs, result):
    return kwargs["size"] if "size" in kwargs else args[2]


def _hit(args, kwargs, result):
    return result is not None


# (owner, attribute, span name, units of work per call or None, kind).
# A name bound in several modules is wrapped in each so that every caller's
# path is seen; spans are named by the layer that defines the function.
TARGETS = [
    (text, "iter_sliding_distances", "text.iter_sliding_distances", None, "iter"),
    (matchers, "iter_sliding_distances", "text.iter_sliding_distances", None, "iter"),
    (audit, "iter_sliding_distances", "text.iter_sliding_distances", None, "iter"),
    (text, "sliding_distances", "text.sliding_distances", None, "call"),
    (text, "hamming_distance", "text.hamming_distance", None, "call"),
    (audit, "hamming_distance", "text.hamming_distance", None, "call"),
    (noise.NoiseSource, "__init__", "noise.NoiseSource", None, "call"),
    (noise.NoiseSource, "laplace", "noise.laplace", None, "call"),
    (noise.NoiseSource, "laplace_many", "noise.laplace_many", _size_arg, "call"),
    (audit, "derive_seed", "noise.derive_seed", None, "call"),
    (matchers, "below_thresh", "matchers.below_thresh", _hit, "call"),
    (matchers.BudgetLedger, "charge_span", "matchers.charge_span", None, "call"),
    (matchers.BudgetLedger, "max_spent", "matchers.max_spent", None, "property"),
    (matchers.BudgetLedger, "assert_within_cap", "matchers.assert_within_cap", None, "call"),
    (dppm, "match_auto", "matchers.match_auto", None, "call"),
    (matchers, "match_auto", "matchers.match_auto", None, "call"),
    (audit, "match_auto", "matchers.match_auto", None, "call"),
    (matchers, "existence", "matchers.existence", None, "call"),
    (audit, "existence", "matchers.existence", None, "call"),
    (matchers, "dispatch", "periodicity.dispatch", None, "call"),
    (audit, "dispatch", "periodicity.dispatch", None, "call"),
    (dppm, "dp_audit", "audit.dp_audit", None, "call"),
    (audit, "dp_audit", "audit.dp_audit", None, "call"),
    (audit, "clopper_pearson", "audit.clopper_pearson", None, "call"),
]


class Tracer:
    """Aggregating span recorder; one per traced run."""

    def __init__(self):
        # (name, parent name) -> [spans, duration, self time, units]
        self.stats: dict[tuple[str, str], list] = {}
        # name -> iterators created by a wrapped generator function
        self.iterators: dict[str, int] = {}
        # open spans: [name, time covered by children]
        self.stack: list[list] = [[ROOT, 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, name, parent, start, end, covered, units):
        dur = end - start
        parent[1] += dur
        key = (name, parent[0])
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - covered
        entry[3] += units

    def _wrap_call(self, fn, name, units):
        stack, close = self.stack, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                close(name, parent, start, end, frame[1],
                      1 if units is None else units(args, kwargs, result))

        return traced

    def _wrap_iter(self, fn, name):
        stack, iterators, close = self.stack, self.iterators, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterators[name] = iterators.get(name, 0) + 1
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    parent = stack[-1]
                    start = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        close(name, parent, start, perf_counter(), 0.0, 0)
                        return
                    close(name, parent, start, perf_counter(), 0.0, 1)
                    yield value

            return timed()

        return traced

    def install(self) -> None:
        for owner, attr, name, units, kind in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # the layer no longer exposes this name
            if kind == "iter":
                wrapped = self._wrap_iter(original, name)
            elif kind == "property":
                wrapped = property(self._wrap_call(original.fget, name, units))
            else:
                wrapped = self._wrap_call(original, name, units)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- aggregation ---------------------------------------------------------

    def total(self, field: int, names, parent=None) -> float:
        """Sum of one stats field over span names, optionally one parent."""
        return sum(
            entry[field]
            for (name, par), entry in self.stats.items()
            if name in names and (parent is None or par == parent)
        )

    def table(self) -> list[str]:
        """Human-readable rows, one per (name, parent), busiest first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return [
            f"  {name:<28} <- {parent:<24} spans={e[0]:<10} dur={e[1]:.4f}s "
            f"self={e[2]:.4f}s units={e[3]}"
            for (name, parent), e in rows
        ]


SPANS, DURATION, SELF, UNITS = range(4)

TEXT = {"text.iter_sliding_distances", "text.sliding_distances", "text.hamming_distance"}
DRAWS = {"noise.laplace", "noise.laplace_many"}
NOISE = DRAWS | {"noise.NoiseSource", "noise.derive_seed"}
LEDGER = {"matchers.charge_span", "matchers.max_spent", "matchers.assert_within_cap"}
QUERY = {"matchers.match_auto", "matchers.existence"}


def layer_metrics(tr: Tracer, calls: int) -> dict[str, float]:
    """Per-layer metrics, each per top-level call unless it is a ratio.

    ``calls`` is the number of traced top-level calls (one ``match_auto`` or
    one ``dp_audit``).
    """

    def per_call(value):
        return value / calls

    def ratio(num, den):
        return num / den if den else 0.0

    text_calls = tr.iterators.get("text.iter_sliding_distances", 0) + tr.total(
        SPANS, {"text.sliding_distances", "text.hamming_distance"}
    )
    distances = tr.total(UNITS, {"text.iter_sliding_distances"}) + tr.total(
        SPANS, {"text.hamming_distance"}
    )
    text_busy = tr.total(SELF, TEXT)
    draws = tr.total(UNITS, DRAWS)
    scans = tr.total(SPANS, {"matchers.below_thresh"})
    hits = tr.total(UNITS, {"matchers.below_thresh"})
    scan_distances = tr.total(UNITS, {"text.iter_sliding_distances"}, "matchers.below_thresh")
    return {
        "text.calls": per_call(text_calls),
        "text.distances": per_call(distances),
        "text.busy_s": per_call(text_busy),
        "text.ns_per_distance": 1e9 * ratio(text_busy, distances),
        "noise.draws": per_call(draws),
        "noise.busy_s": per_call(tr.total(SELF, NOISE)),
        "noise.ns_per_draw": 1e9 * ratio(tr.total(SELF, DRAWS), draws),
        "noise.sources": per_call(tr.total(SPANS, {"noise.NoiseSource"})),
        "matchers.scans": per_call(scans),
        "matchers.scan_hits": per_call(hits),
        "matchers.hit_ratio": ratio(hits, scans),
        "matchers.distances_per_scan": ratio(scan_distances, scans),
        "matchers.scan_self_s": per_call(tr.total(SELF, {"matchers.below_thresh"})),
        "matchers.ledger.charges": per_call(tr.total(SPANS, {"matchers.charge_span"})),
        "matchers.ledger.peak_checks": per_call(tr.total(SPANS, {"matchers.max_spent"})),
        "matchers.ledger.busy_s": per_call(tr.total(SELF, LEDGER)),
        "matchers.query_self_s": per_call(tr.total(SELF, QUERY)),
        "periodicity.dispatch_calls": per_call(tr.total(SPANS, {"periodicity.dispatch"})),
        "periodicity.busy_s": per_call(tr.total(SELF, {"periodicity.dispatch"})),
        "audit.trials": per_call(tr.total(SPANS, QUERY, "audit.dp_audit")),
        "audit.self_s": per_call(tr.total(SELF, {"audit.dp_audit"})),
        "audit.clopper_pearson_s": per_call(tr.total(DURATION, {"audit.clopper_pearson"})),
    }
