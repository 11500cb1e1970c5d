"""In-memory spans around calls into crrkit's public functions.

The tracer replaces a function by a timing wrapper under the name an
importing module uses, for example ``crrkit.cli.bootstrap`` and
``crrkit.estimate.bootstrap`` (reached from ``stratified_estimates``).
crrkit's source is not modified. Each wrapped call becomes one span with a
parent, or, for boundaries crossed about 10^5 times per run, adds to a
(name, parent) aggregate of call count and total time. Spans stay in
memory until the run ends.

A span's self time is its duration minus the time its child spans and
aggregates cover. A layer is the first part of a span name; layer self times
and ``trace.coverage`` count only the tree under the ``cli.main`` span, while
function metrics count every call, set-up included.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Describe = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` traced as span ``name``."""

    module: str
    attr: str
    name: str
    describe: Describe | None = None
    aggregate: bool = False


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span's index."""
        index = len(self.spans)
        record = Span(name, self._parent())
        self.spans.append(record)
        self._stack.append(index)
        record.start = self.clock()
        try:
            yield index
        except Exception as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = self.clock()
            self._stack.pop()

    def _span_wrapper(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            with self.span(target.name) as index:
                result = fn(*args, **kwargs)
            if target.describe is not None:
                self.spans[index].attrs.update(target.describe(args, kwargs, result))
            return result

        return traced

    def _aggregate_wrapper(self, fn: Callable, target: Target) -> Callable:
        def counted(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.aggregates.setdefault((target.name, self._parent()), [0, 0.0])
                entry[0] += 1
                entry[1] += self.clock() - start

        return counted

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            wrap = self._aggregate_wrapper if target.aggregate else self._span_wrapper
            setattr(module, target.attr, wrap(original, target))
            self._patched.append((module, target.attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        for (_, parent), (_, seconds) in self.aggregates.items():
            if parent >= 0:
                covered[parent] += seconds
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def in_tree(self, root: int) -> list[bool]:
        """Whether each span lies in the tree under ``root`` (parents precede children)."""
        inside = []
        for i, s in enumerate(self.spans):
            inside.append(i == root or (s.parent >= 0 and inside[s.parent]))
        return inside

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
                for s in self.spans
            ],
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                for (name, parent), (calls, seconds) in self.aggregates.items()
            ],
        }


# -- crrkit boundaries ------------------------------------------------------------


def _load_report(_args, _kwargs, result) -> dict:
    report = result[1]
    return {"rows": report.n_loaded, "dropped": report.n_dropped, "unparseable": report.n_unparseable}


def _bootstrap(_args, kwargs, result) -> dict:
    return {
        "scope": "pooled" if kwargs.get("x") is None else "stratum",
        "replicates": result.replicates,
        "undefined_replicates": result.undefined_replicates,
    }


def _checks_failed(_args, _kwargs, result) -> dict:
    results = result if isinstance(result, list) else [result]
    return {"failed": sum(not r.passed for r in results)}


CHECKS = (
    "check_sign_reversal_witnesses",
    "check_sign_consistency",
    "check_paradox_search",
    "check_decomposition",
    "check_oracle_agreement",
)

TARGETS = [
    Target("crrkit.dataio", "load_administrative", "dataio.load_administrative", _load_report),
    Target("crrkit.dataio", "load_census", "dataio.load_census"),
    Target("crrkit.dataio", "load_survey", "dataio.load_survey", _load_report),
    Target("crrkit.dataio", "derive_survey_distribution", "dataio.derive_survey_distribution"),
    Target("crrkit.dataio", "write_administrative", "dataio.write_administrative",
           lambda args, _kwargs, _result: {"rows": args[0].n}),
    Target("crrkit.cli", "bootstrap", "estimate.bootstrap", _bootstrap),
    Target("crrkit.estimate", "bootstrap", "estimate.bootstrap", _bootstrap),
    Target("crrkit.cli", "stratified_estimates", "estimate.stratified_estimates"),
    *(
        Target(module, "sample_encounters", "simulate.sample_encounters",
               lambda _args, _kwargs, result: {"encounters": result.n})
        for module in ("crrkit.simulate", "crrkit.verify")
    ),
    Target("crrkit.simulate", "to_administrative", "simulate.to_administrative"),
    Target("crrkit.verify", "oracle_estimands", "simulate.oracle_estimands"),
    Target("crrkit.verify", "estimand_value", "model.estimand_value", aggregate=True),
    Target("crrkit.verify", "pie_pde", "model.pie_pde", aggregate=True),
    Target("crrkit.cli", "run_verification", "verify.run_verification"),
    *(Target("crrkit.verify", name, f"verify.{name}", _checks_failed) for name in CHECKS),
    Target("crrkit.cli", "render", "report.render",
           lambda args, _kwargs, result: {"rows": len(args[0].rows), "bytes": len(result.encode())}),
]

LAYERS = ("cli", "dataio", "estimate", "simulate", "model", "verify", "report")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "cli.main.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "dataio.load_administrative.s": "s",
    "dataio.load_administrative.rows": "count",
    "dataio.load_administrative.rows_per_s": "rows/s",
    "dataio.load_administrative.dropped": "count",
    "dataio.load_administrative.unparseable": "count",
    "dataio.load_census.s": "s",
    "dataio.load_survey.s": "s",
    "dataio.load_survey.rows": "count",
    "dataio.derive_survey_distribution.s": "s",
    "dataio.write_administrative.s": "s",
    "dataio.write_administrative.rows": "count",
    "estimate.bootstrap.calls": "count",
    "estimate.bootstrap.s": "s",
    "estimate.bootstrap.replicates": "count",
    "estimate.bootstrap.call_ms.p50": "ms",
    "estimate.bootstrap.call_ms.p90": "ms",
    "estimate.bootstrap.pooled.ms_per_replicate": "ms",
    "estimate.bootstrap.stratum.ms_per_replicate": "ms",
    "estimate.bootstrap.undefined_replicates": "count",
    "estimate.bootstrap.defined_share": "ratio",
    "estimate.bootstrap.undefined_calls": "count",
    "estimate.stratified_estimates.calls": "count",
    "estimate.stratified_estimates.s": "s",
    "simulate.sample_encounters.calls": "count",
    "simulate.sample_encounters.s": "s",
    "simulate.sample_encounters.encounters_per_s": "encounters/s",
    "simulate.to_administrative.s": "s",
    "simulate.oracle_estimands.calls": "count",
    "simulate.oracle_estimands.s": "s",
    "model.estimand_value.calls": "count",
    "model.estimand_value.s": "s",
    "model.pie_pde.calls": "count",
    "model.pie_pde.s": "s",
    **{f"verify.{name}.s": "s" for name in CHECKS},
    "verify.checks_failed": "count",
    "report.render.s": "s",
    "report.render.rows": "count",
    "report.render.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, root: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values of a traced run whose command span is ``root``."""
    calls: dict[str, list[Span]] = {}
    for s in tracer.spans:
        calls.setdefault(s.name, []).append(s)
    values: dict[str, float] = {}

    def total(name: str, attr: str | None = None) -> float:
        if attr is None:
            return sum(s.duration for s in calls.get(name, []))
        return sum(s.attrs.get(attr, 0) for s in calls.get(name, []))

    for name, spans in calls.items():
        values[f"{name}.calls"] = len(spans)
        values[f"{name}.s"] = total(name)
        for attr in {a for s in spans for a, v in s.attrs.items() if not isinstance(v, str)}:
            values[f"{name}.{attr}"] = total(name, attr)
    for (name, _), (count, seconds) in tracer.aggregates.items():
        values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + count
        values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + seconds

    inside = tracer.in_tree(root)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, own, keep in zip(tracer.spans, tracer.self_times(), inside):
        if keep:
            layer_self[s.name.split(".")[0]] += own
    for (name, parent), (_, seconds) in tracer.aggregates.items():
        if parent >= 0 and inside[parent]:
            layer_self[name.split(".")[0]] += seconds
    main_s = tracer.spans[root].duration
    values.update({f"{layer}.self_s": own for layer, own in layer_self.items()})
    values["trace.coverage"] = 1.0 - _ratio(layer_self["cli"], main_s)
    values["trace.overhead_s"] = overhead_s

    values["dataio.load_administrative.rows_per_s"] = _ratio(
        total("dataio.load_administrative", "rows"), total("dataio.load_administrative")
    )
    values["simulate.sample_encounters.encounters_per_s"] = _ratio(
        total("simulate.sample_encounters", "encounters"), total("simulate.sample_encounters")
    )

    boot = calls.get("estimate.bootstrap", [])
    done = [s for s in boot if "replicates" in s.attrs]
    replicates = total("estimate.bootstrap", "replicates")
    undefined = total("estimate.bootstrap", "undefined_replicates")
    call_ms = sorted(1e3 * s.duration for s in boot)
    values["estimate.bootstrap.defined_share"] = _ratio(replicates - undefined, replicates)
    values["estimate.bootstrap.undefined_calls"] = len(boot) - len(done)
    if call_ms:
        values["estimate.bootstrap.call_ms.p50"] = statistics.median(call_ms)
        # nearest rank
        values["estimate.bootstrap.call_ms.p90"] = call_ms[math.ceil(0.9 * len(call_ms)) - 1]
    for scope in ("pooled", "stratum"):
        scoped = [s for s in done if s.attrs["scope"] == scope]
        values[f"estimate.bootstrap.{scope}.ms_per_replicate"] = _ratio(
            1e3 * sum(s.duration for s in scoped), sum(s.attrs["replicates"] for s in scoped)
        )
    values["verify.checks_failed"] = sum(total(f"verify.{name}", "failed") for name in CHECKS)
    return {name: values.get(name, 0) for name in PER_LAYER}
