"""In-memory span tracing of orbitconst's public functions.

A ``Tracer`` replaces each traced function at every ``orbitconst.*`` module
attribute that binds it, so calls made inside the library are seen as well
as calls made by the benchmark.  Every call records one span (layer name,
parent span, start, end and optional counts); spans stay in memory until the
run ends.  While installed it also replaces the library's
``ProcessPoolExecutor`` so that a span which starts a process pool is marked.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

# Layers are "<module>.<function>" under the orbitconst package.
LAYERS = (
    "rootsys.build_root_system",
    "orbits.real_forms",
    "constants.levi_data",
    "constants.lambda_candidates",
    "constants.default_lambda",
    "weylpoly.make_dim_poly",
    "weylpoly.eval_dim_poly",
    "constants.alternating_sum",
    "constants.constant_brute_force_orig",
    "verify.cached_constant",
    "oracles.surviving_terms",
) + tuple(f"verify.criterion_{i}" for i in range(1, 9))


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of its interval.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _alternating_sum_counts(result) -> dict:
    _, nonzero, subsets = result
    return {"subsets": subsets, "nonzero": nonzero}


def _levi_data_counts(result) -> dict:
    # Roots toggled by the sums over this Levi: they run over 2^pool subsets.
    return {"pool": len(result.delta_n_plus_l) + len(result.delta_p1)}


def _surviving_terms_counts(result) -> dict:
    return {"survivors": len(result)}


COUNTERS = {"constants.alternating_sum": _alternating_sum_counts,
            "constants.levi_data": _levi_data_counts,
            "oracles.surviving_terms": _surviving_terms_counts}


class Tracer:
    """Wraps the functions named in ``layers`` while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer found; record the ones that no longer exist."""
        self._replace(ProcessPoolExecutor, self._observed_pool)
        for layer in self.layers:
            module_name, _, name = layer.rpartition(".")
            try:
                module = importlib.import_module(f"orbitconst.{module_name}")
            except ImportError:
                self.absent.append(layer)
                continue
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            self._replace(original, self._wrap(layer, original))

    def _replace(self, original, wrapper) -> None:
        """Bind ``wrapper`` wherever an orbitconst module binds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "orbitconst" and not mod_name.startswith("orbitconst."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _observed_pool(self, *args, **kwargs):
        """A ProcessPoolExecutor that marks the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]].counts["pool"] = True
        return ProcessPoolExecutor(*args, **kwargs)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(result))
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counts, by metric name.

        A call that raised has a span but no counts.
        """
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for span, own in zip(self.spans, selfs):
            out[f"{span.layer}.calls"] += 1
            out[f"{span.layer}.self_s"] += own
        alt = "constants.alternating_sum"
        out.update({f"{alt}.subsets": 0, f"{alt}.nonzero": 0,
                    f"{alt}.parallel_calls": 0, f"{alt}.parallel_self_s": 0.0,
                    "oracles.surviving_terms.subsets": 0,
                    "oracles.surviving_terms.survivors": 0,
                    "verify.criterion_1.subsets": 0,
                    "verify.criterion_1.nonzero": 0})
        for i in range(1, 9):
            out[f"verify.criterion_{i}.wall_s"] = 0.0
        for index, (span, own) in enumerate(zip(self.spans, selfs)):
            if span.layer == alt:
                out[f"{alt}.subsets"] += span.counts.get("subsets", 0)
                out[f"{alt}.nonzero"] += span.counts.get("nonzero", 0)
                if span.counts.get("pool"):
                    out[f"{alt}.parallel_calls"] += 1
                    out[f"{alt}.parallel_self_s"] += own
                if self._under(index, "verify.criterion_1"):
                    out["verify.criterion_1.subsets"] += span.counts.get("subsets", 0)
                    out["verify.criterion_1.nonzero"] += span.counts.get("nonzero", 0)
            elif span.layer == "oracles.surviving_terms":
                out["oracles.surviving_terms.survivors"] += span.counts.get("survivors", 0)
            elif (span.layer == "constants.levi_data" and "pool" in span.counts
                  and span.parent is not None
                  and self.spans[span.parent].layer == "oracles.surviving_terms"):
                out["oracles.surviving_terms.subsets"] += 1 << span.counts["pool"]
            elif span.layer.startswith("verify.criterion_"):
                out[f"{span.layer}.wall_s"] += span.duration
        subsets = out[f"{alt}.subsets"]
        out[f"{alt}.nonzero_ratio"] = out[f"{alt}.nonzero"] / subsets if subsets else 0.0
        out[f"{alt}.ns_per_subset"] = (out.get(f"{alt}.self_s", 0.0) * 1e9 / subsets
                                       if subsets else 0.0)
        return out

    def _under(self, index: int, layer: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].layer == layer:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records; ``parent`` is an index into the list."""
        return [{"layer": s.layer, "parent": s.parent, "start": s.start,
                 "end": s.end, **s.counts} for s in self.spans]


def exact_counts(metrics: dict[str, float]) -> dict[str, int]:
    """The layer metrics that count work; they repeat exactly at one seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".subsets", ".nonzero", ".survivors",
                           ".parallel_calls"))}
