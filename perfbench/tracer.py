"""Spans and counters around the names brieskorn_ch modules call through.

A module that does `from .contact import ch_report` calls the name
`brieskorn_ch.cli.ch_report`, so that binding is what gets wrapped; the
defining module's own attribute is wrapped only where that module calls it
itself (`randell.torsion`, `randell._kappa_raw`).  Coarse calls get spans
(name, start, end, parent, query id); hot per-item calls get counters,
some with accumulated time.  Wrappers exist only between `install()` and
`remove()`; a name a later version of the package no longer has is
skipped and listed in `missing`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (module the call is made from, attribute called, span name)
SPANS = (
    ("cli", "full_homology", "randell.full_homology"),
    ("connected_sum", "full_homology", "randell.full_homology"),
    ("randell", "torsion", "randell.torsion"),
    ("cli", "ch_report", "contact.ch_report"),
    ("connected_sum", "ranks_up_to", "contact.ranks_up_to"),
    ("cli", "enumerate_orbit_types", "orbits.enumerate_orbit_types"),
    ("contact", "enumerate_orbit_types", "orbits.enumerate_orbit_types"),
    ("cli", "special_sphere_check", "connected_sum.special_sphere_check"),
)

# (module, attribute, counter name, kind): "calls" counts calls, "timed"
# also adds up their duration, "yields" counts the items a generator yields.
COUNTERS = (
    ("randell", "subsets", "exact.subsets.yielded", "yields"),
    ("orbits", "subsets", "exact.subsets.yielded", "yields"),
    ("randell", "lcm_set", "exact.lcm_set.calls", "calls"),
    ("orbits", "lcm_set", "exact.lcm_set.calls", "calls"),
    ("randell", "gcd_set", "exact.gcd_set.calls", "calls"),
    ("randell", "_kappa_raw", "randell.kappa.calls", "calls"),
    ("contact", "orbit_space_rational_homology",
     "randell.orbit_space_rational_homology.calls", "calls"),
    ("contact", "valid_multiplier", "orbits.valid_multiplier.calls", "calls"),
    ("maslov", "valid_multiplier", "orbits.valid_multiplier.calls", "calls"),
    ("contact", "_index_formula", "maslov.index.calls", "calls"),
    ("maslov", "_index_formula", "maslov.index.calls", "calls"),
    ("cli", "maslov_crosscheck", "maslov.crosscheck.calls", "timed"),
    ("cli", "classify_index", "maslov.classify_index.calls", "calls"),
    ("contact", "classify_index", "maslov.classify_index.calls", "calls"),
    ("connected_sum", "combine", "connected_sum.combine.calls", "timed"),
    ("cli", "combine", "connected_sum.combine.calls", "timed"),
    ("cli", "iterated_sphere_sum", "connected_sum.iterated_sphere_sum.calls", "calls"),
)

# Counters fed from results: wrapped name -> (counter, size of the result).
RESULT_COUNTS = {
    "orbits.enumerate_orbit_types": ("orbits.types_out", len),
    "contact.ch_report": ("contact.contributions_out", lambda r: len(r.contributions)),
    "orbits.valid_multiplier.calls": ("orbits.valid_multiplier.accepted", bool),
}

class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.query = None
        self.missing: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.query])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _span(self, name, fn):
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if result_count:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _counter(self, name, kind, fn):
        counts, seconds = self.counts, self.seconds
        result_count = RESULT_COUNTS.get(name)

        if kind == "yields":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
        elif kind == "timed":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - start
                    counts[name] += 1
        elif result_count:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                counts[result_count[0]] += result_count[1](result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(f"brieskorn_ch.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, name=name: self._span(name, fn))
        for module_name, attr, name, kind in COUNTERS:
            self._patch(
                module_name, attr, lambda fn, name=name, kind=kind: self._counter(name, kind, fn)
            )

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Every count, span counts included; identical for identical input."""
        counts = dict(self.counts)
        for name, *_ in self.spans:
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        return dict(sorted(counts.items()))

    def span_ms(self) -> tuple[Counter, Counter]:
        """(total ms, self ms) by span name; self = duration minus child spans."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += (end - start) * 1e3
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            own[name] += (end - start - covered) * 1e3
        return total, own

    def layer_metrics(self) -> dict[str, float]:
        """Every count, and the times of this pass; a name never called reads 0."""
        counts = self.work_counts()
        total, own = self.span_ms()
        scanned = counts.get("orbits.valid_multiplier.calls", 0)
        useful = counts.get("contact.contributions_out", 0)
        names = [f"{name}.calls" for *_, name in SPANS]
        names += [name for *_, name, _ in COUNTERS]
        names += [name for name, _ in RESULT_COUNTS.values()]
        metrics = {name: float(counts.get(name, 0)) for name in names}
        metrics.update({
            "cli.main.self_ms": own["cli.main"],
            "randell.full_homology.ms": total["randell.full_homology"],
            "randell.torsion.ms": total["randell.torsion"],
            "orbits.enumerate_orbit_types.ms": total["orbits.enumerate_orbit_types"],
            "maslov.crosscheck.ms": self.seconds["maslov.crosscheck.calls"] * 1e3,
            "contact.ch_report.self_ms": own["contact.ch_report"],
            "contact.ranks_up_to.ms": total["contact.ranks_up_to"],
            "contact.scan_useful_ratio": useful / scanned if scanned else 0.0,
            "connected_sum.combine.ms": self.seconds["connected_sum.combine.calls"] * 1e3,
            "connected_sum.special_sphere_check.ms":
                total["connected_sum.special_sphere_check"],
        })
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, query) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")
