"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces each layer's public functions with timing wrappers *where they
are looked up* — every ``repro.*`` module binding that refers to the
function, not just the defining module, because ``core.evaluate``
imports ``compute_data_loss`` by name and ``risk.aggregate`` calls
``scenario_digest`` as its own module global.  :meth:`Tracer.restore`
puts every binding back.  Nothing inside ``src/`` is changed.

A span is ``(name, start, end, parent)`` within one request; the
request's root span is named ``request``.  A call into a layer that is
already the innermost open span's layer (``assessment_to_dict`` calling
``scenario_to_dict``) stays part of that span, so spans and ``calls``
counts mark layer *boundaries*.  A layer's self time is its spans'
duration minus the part covered by child spans; the root's self time is
the unattributed remainder, so self times add up to the request time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "request"

#: ``(layer, module, attribute)`` for every wrapped function.  Dotted
#: attributes are methods, patched on their class.  The serialization
#: codecs are discovered by name (see :func:`_serialization_targets`).
TARGETS: "Tuple[Tuple[str, str, str], ...]" = (
    ("core.validate", "repro.core.validate", "validate_design"),
    ("core.demands", "repro.core.demands", "register_design_demands"),
    ("core.utilization", "repro.core.utilization", "compute_utilization"),
    ("core.dataloss", "repro.core.dataloss", "compute_data_loss"),
    ("core.dataloss", "repro.core.dataloss", "find_recovery_source"),
    ("core.dataloss", "repro.core.dataloss", "level_range"),
    ("core.recovery", "repro.core.recovery", "plan_recovery"),
    ("core.cost", "repro.core.cost", "compute_costs"),
    ("core.cost", "repro.core.cost", "compute_outlays"),
    ("core.evaluate", "repro.core.evaluate", "evaluate"),
    ("core.evaluate", "repro.core.evaluate", "evaluate_scenarios"),
    ("design.space", "repro.design.space", "candidate_designs"),
    ("design.optimizer", "repro.design.optimizer", "optimize"),
    ("engine.keys", "repro.engine.keys", "task_key"),
    ("engine.keys", "repro.engine.keys", "part_digest"),
    ("engine.keys", "repro.engine.keys", "fingerprint"),
    ("engine.keys", "repro.engine.keys", "result_digest"),
    ("engine.keys", "repro.engine.keys", "model_schema_version"),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get"),
    ("engine.cache.put", "repro.engine.cache", "ResultCache.put"),
    ("engine.executor", "repro.engine.executor", "map_evaluations"),
    ("risk.aggregate", "repro.risk.aggregate", "assess_risk"),
    ("risk.aggregate.digest", "repro.risk.aggregate", "scenario_digest"),
    ("risk.distributions", "repro.risk.distributions", "compound_poisson_distribution"),
    # The report encoder ``repro risk --format json`` calls.
    ("serialization.encode", "repro.risk.aggregate", "RiskAssessment.to_dict"),
)

#: The metric reporting each layer's self time.  With the root's
#: remainder (``trace.unattributed_ms``) they partition the traced
#: request time.
SELF_TIME_METRICS = {
    "serialization.decode": "serialization.decode_ms",
    "serialization.encode": "serialization.encode_ms",
    "core.validate": "core.validate.ms",
    "core.demands": "core.demands.ms",
    "core.utilization": "core.utilization.ms",
    "core.dataloss": "core.dataloss.ms",
    "core.recovery": "core.recovery.ms",
    "core.cost": "core.cost.ms",
    "core.evaluate": "core.evaluate.self_ms",
    "design.space": "design.space.build_ms",
    "design.optimizer": "design.optimizer.self_ms",
    "engine.keys": "engine.keys.ms",
    "engine.cache.get": "engine.cache.get_ms",
    "engine.cache.put": "engine.cache.put_ms",
    "engine.executor": "engine.executor.self_ms",
    "risk.aggregate": "risk.aggregate.self_ms",
    "risk.aggregate.digest": "risk.aggregate.digest_ms",
    "risk.distributions": "risk.distributions.fold_ms",
    ROOT: "trace.unattributed_ms",
}

#: The metric counting each layer's boundary calls.
CALL_METRICS = {
    "core.validate": "core.validate.calls",
    "core.demands": "core.demands.calls",
    "core.utilization": "core.utilization.calls",
    "core.dataloss": "core.dataloss.calls",
    "core.recovery": "core.recovery.calls",
    "core.cost": "core.cost.calls",
    "engine.keys": "engine.keys.calls",
    "risk.aggregate.digest": "risk.aggregate.digest_calls",
    "risk.distributions": "risk.distributions.fold_calls",
}


def _metric(name: str, unit: str, better: str, moves: str, workloads: str) -> "Dict[str, str]":
    return {"name": name, "unit": unit, "better": better, "moves": moves, "workloads": workloads}


_E2E_LAT = "latency_p50_ms"
_E2E_BOTH = "latency_p50_ms, assessments_per_s"

#: The per-layer metrics, each with the end-to-end metric it should
#: move and the workloads it should move on (flat ones in parentheses).
#: Times are self times in ms per request; counts are per request.
LAYER_METRICS: "Tuple[Dict[str, str], ...]" = (
    _metric("serialization.decode_ms", "ms", "lower", _E2E_LAT, "risk-ensemble, whatif-cache (flat: optimize-*)"),
    _metric("serialization.encode_ms", "ms", "lower", _E2E_LAT, "risk-ensemble, whatif-cache (flat: optimize-*)"),
    _metric("serialization.canonical_json.calls", "count", "lower", _E2E_LAT, "risk-ensemble, whatif-cache (flat: optimize-*)"),
    _metric("core.validate.ms", "ms", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.validate.calls", "count", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.demands.ms", "ms", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.demands.calls", "count", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.utilization.ms", "ms", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.utilization.calls", "count", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.normal_mode.repeats", "ratio", "lower", _E2E_BOTH, "risk-ensemble (flat: optimize-sweep)"),
    _metric("core.dataloss.ms", "ms", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.dataloss.calls", "count", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.recovery.ms", "ms", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.recovery.calls", "count", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.cost.ms", "ms", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.cost.calls", "count", "lower", _E2E_BOTH, "optimize-sweep, then risk-ensemble"),
    _metric("core.evaluate.self_ms", "ms", "lower", _E2E_BOTH, "optimize-sweep, risk-ensemble"),
    _metric("design.space.build_ms", "ms", "lower", _E2E_LAT, "optimize-sweep"),
    _metric("design.optimizer.self_ms", "ms", "lower", _E2E_LAT, "optimize-sweep"),
    _metric("engine.keys.ms", "ms", "lower", _E2E_LAT, "whatif-cache (zero on cold serial workloads)"),
    _metric("engine.keys.calls", "count", "lower", _E2E_LAT, "whatif-cache (zero on cold serial workloads)"),
    _metric("engine.cache.get_ms", "ms", "lower", "latency_p50_ms, peak_rss_mb", "whatif-cache"),
    _metric("engine.cache.put_ms", "ms", "lower", "latency_p50_ms, peak_rss_mb", "whatif-cache"),
    _metric("engine.cache.hit_ratio", "ratio", "higher", "latency_p50_ms, peak_rss_mb", "whatif-cache"),
    _metric("engine.cache.disk_hit_ratio", "ratio", "lower", "latency_p50_ms, peak_rss_mb", "whatif-cache"),
    _metric("engine.executor.self_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", "optimize-pool (flat: serial workloads)"),
    _metric("engine.executor.tasks", "count", "lower", "latency_p50_ms, latency_p90_ms", "optimize-pool (flat: serial workloads)"),
    _metric("engine.executor.worker_busy_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", "optimize-pool (flat: serial workloads)"),
    _metric("engine.executor.dispatch_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", "optimize-pool (flat: serial workloads)"),
    _metric("risk.aggregate.self_ms", "ms", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("risk.aggregate.digest_ms", "ms", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("risk.aggregate.digest_calls", "count", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("risk.aggregate.dedup_ratio", "ratio", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("risk.distributions.fold_ms", "ms", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("risk.distributions.fold_calls", "count", "lower", _E2E_LAT, "risk-ensemble only"),
    _metric("trace.request_ms", "ms", "lower", "(traced request time: self times + unattributed)", "all"),
    _metric("trace.unattributed_ms", "ms", "lower", "(time outside every wrapped layer)", "all"),
    _metric("trace.traced_p50_ms", "ms", "lower", "(median scaled traced request)", "all"),
    _metric("trace.untraced_p50_ms", "ms", "lower", "(median scaled untraced request, same run)", "all"),
    _metric("trace.overhead_ms", "ms", "lower", "(tracing overhead: traced - untraced p50)", "all"),
    _metric("host.reference_ms", "ms", "lower", "(mean unscaled reference time: the host's speed)", "all"),
)


# ---------------------------------------------------------------------------
# Self-time arithmetic.
# ---------------------------------------------------------------------------


Span = Tuple[str, float, float, int]  # (name, start, end, parent index or -1)


def self_times(spans: "Sequence[Span]") -> "Dict[str, float]":
    """Self time per span name: duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children: "Dict[int, List[Tuple[float, float]]]" = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: "Dict[str, float]" = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


# ---------------------------------------------------------------------------
# Recording.
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans for one request at a time and accumulates the
    per-layer sums of every traced request."""

    def __init__(self) -> None:
        self.active = False
        self.spans: "List[List[Any]]" = []
        self.stack: "List[int]" = []
        self.counts: "Counter[str]" = Counter()
        self.designs: "set" = set()
        self.requests = 0
        self.request_id = -1
        self.totals: "Counter[str]" = Counter()
        #: Every traced request's spans in columns, kept for :meth:`write`.
        self.log: "List[Tuple[int, array, array, array, array]]" = []
        self.names: "Dict[str, int]" = {}
        #: Live ``repro.obs`` tracers of this request's pooled sweeps,
        #: with worker count and map wall time; read in :meth:`end_request`.
        self._pools: "List[Tuple[Any, int, float]]" = []
        self._patches: "List[Tuple[Any, str, Any]]" = []

    # -- spans -----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.spans = [[ROOT, time.perf_counter(), 0.0, -1]]
        self.stack = [0]
        self.counts = Counter()
        self.designs = set()
        self.request_id = request_id
        self.active = True

    def end_request(self) -> None:
        self.active = False
        self.spans[0][2] = time.perf_counter()
        # Expanding the workers' span capsules is the benchmark's own
        # work, so it happens here, after the request's clock stopped.
        for live, workers, wall in self._pools:
            busy = sum(
                span.duration
                for span, _ in live.walk()
                if span.name == "engine.task" and "pid" in span.attributes
            )
            self.counts["executor.worker_busy_s"] += busy
            self.counts["executor.dispatch_s"] += wall - busy / workers
        self._pools = []
        spans = [tuple(span) for span in self.spans]
        for name, seconds in self_times(spans).items():  # type: ignore[arg-type]
            self.totals[f"self:{name}"] += seconds
        self.totals.update(self.counts)
        if self.designs:
            self.totals["normal_mode.repeats"] += self.counts["calls:core.validate"] / len(self.designs)
        self.totals["request_s"] += spans[0][2] - spans[0][1]
        self.requests += 1
        names = self.names
        self.log.append(
            (
                self.request_id,
                array("H", [names.setdefault(span[0], len(names)) for span in spans]),
                array("d", [span[1] for span in spans]),
                array("d", [span[2] for span in spans]),
                array("l", [span[3] for span in spans]),
            )
        )
        self.spans = []
        self.stack = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(index)
        self.counts[f"calls:{name}"] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(
        self,
        fn: "Callable[..., Any]",
        layer: str,
        observe: "Optional[Callable[[Tracer, tuple, dict, Any], None]]" = None,
    ) -> "Callable[..., Any]":
        """``fn`` inside a ``layer`` span while a request is traced."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.spans[tracer.stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = tracer._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, fn: Any, replacement: Any) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every target; :meth:`restore` undoes it."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        import repro.engine.cache as cache_module
        import repro.serialization

        for layer, module_name, attribute in TARGETS + _serialization_targets(repro.serialization):
            module = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                fn = owner.__dict__[method]
                self._patch(owner, method, self.wrap(fn, layer, _OBSERVERS.get(attribute)))
                continue
            fn = getattr(module, attribute)
            replacement = self.wrap(fn, layer, _OBSERVERS.get(attribute))
            if attribute == "candidate_designs":
                replacement = self._wrap_factories(replacement)
            elif attribute == "map_evaluations":
                replacement = self._wrap_pool(fn, replacement)
            self._patch_function(fn, replacement)
        # A disk-tier read that returns a value is a disk hit; it runs
        # inside the ResultCache.get span, so it is counted, not timed.
        disk_get = cache_module.DiskCache.get

        def counting_get(cache: Any, key: str) -> Any:
            value = disk_get(cache, key)
            if self.active and value is not None:
                self.counts["cache.disk_hits"] += 1
            return value

        self._patch(cache_module.DiskCache, "get", functools.wraps(disk_get)(counting_get))

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap_factories(self, candidate_designs: "Callable[..., Any]") -> "Callable[..., Any]":
        """Candidate factories build their designs in ``design.space`` spans."""

        @functools.wraps(candidate_designs)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            factories = candidate_designs(*args, **kwargs)
            return {name: self.wrap(f, "design.space") for name, f in factories.items()}

        return wrapper

    def _wrap_pool(self, original: Any, wrapped: "Callable[..., Any]") -> "Callable[..., Any]":
        """Pooled sweeps run under a live ``repro.obs`` tracer so the
        engine ships worker spans back; :meth:`end_request` sums their
        ``engine.task`` spans into worker busy time."""
        from repro import obs

        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            config = signature.bind(*args, **kwargs).arguments.get("config")
            workers = 1 if config is None else config.workers
            if not self.active or workers <= 1:
                return wrapped(*args, **kwargs)
            with obs.use_tracer(obs.Tracer()) as live:
                start = time.perf_counter()
                result = wrapped(*args, **kwargs)
                wall = time.perf_counter() - start
            self._pools.append((live, workers, wall))
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(
        self, traced_p50_ms: float, untraced_p50_ms: float, reference_ms: float
    ) -> "Dict[str, float]":
        """Every :data:`LAYER_METRICS` value, per traced request."""
        totals = self.totals
        n = max(1, self.requests)

        def ms(layer: str) -> float:
            return totals[f"self:{layer}"] * 1e3 / n

        def calls(layer: str) -> float:
            return totals[f"calls:{layer}"] / n

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        values = {metric: ms(layer) for layer, metric in SELF_TIME_METRICS.items()}
        values.update({metric: calls(layer) for layer, metric in CALL_METRICS.items()})
        values.update(
            {
                "serialization.canonical_json.calls": totals["canonical_json"] / n,
                "core.normal_mode.repeats": totals["normal_mode.repeats"] / n,
                "engine.cache.hit_ratio": ratio(totals["cache.hits"], totals["calls:engine.cache.get"]),
                "engine.cache.disk_hit_ratio": ratio(totals["cache.disk_hits"], totals["cache.hits"]),
                "engine.executor.tasks": totals["executor.tasks"] / n,
                "engine.executor.worker_busy_ms": totals["executor.worker_busy_s"] * 1e3 / n,
                "engine.executor.dispatch_ms": totals["executor.dispatch_s"] * 1e3 / n,
                "risk.aggregate.dedup_ratio": ratio(totals["risk.unique"], totals["risk.members"]),
                "trace.request_ms": totals["request_s"] * 1e3 / n,
                "trace.traced_p50_ms": traced_p50_ms,
                "trace.untraced_p50_ms": untraced_p50_ms,
                "trace.overhead_ms": traced_p50_ms - untraced_p50_ms,
                "host.reference_ms": reference_ms,
            }
        )
        return {name: values[name] for name in layer_metric_names()}

    def write(self, path: str, header: "Dict[str, Any]") -> None:
        """Write every recorded span as gzipped JSON lines: a header,
        then one line per traced request holding its spans in columns
        (span ``i`` is ``name[i]``, ``start[i]``, ``end[i]``, ``parent[i]``;
        parent -1 is the request root; times are seconds)."""
        names = sorted(self.names, key=self.names.__getitem__)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(dict(header, names=names)) + "\n")
            for request_id, name, start, end, parent in self.log:
                record = {
                    "request": request_id,
                    "name": name.tolist(),
                    "start": start.tolist(),
                    "end": end.tolist(),
                    "parent": parent.tolist(),
                }
                handle.write(json.dumps(record) + "\n")


def _serialization_targets(module: Any) -> "Tuple[Tuple[str, str, str], ...]":
    """The spec/record decoders and encoders of ``repro.serialization``."""
    targets = []
    for attribute, value in sorted(vars(module).items()):
        if attribute.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue
        if attribute.endswith(("_from_spec", "_from_dict")):
            targets.append(("serialization.decode", module.__name__, attribute))
        elif attribute.endswith("_to_dict") or attribute == "canonical_json":
            targets.append(("serialization.encode", module.__name__, attribute))
    return tuple(targets)


# -- observers: counts taken from a wrapped call's arguments or result ------


def _observe_json(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["canonical_json"] += 1


def _observe_validate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    storage = args[0] if args else kwargs["design"]
    tracer.designs.add(storage.name)


def _observe_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result[0]:
        tracer.counts["cache.hits"] += 1


def _observe_map(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["executor.tasks"] += len(result)


def _observe_risk(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["risk.unique"] += result.unique_scenarios
    tracer.counts["risk.members"] += len(result.members)


_OBSERVERS: "Dict[str, Callable[[Tracer, tuple, dict, Any], None]]" = {
    "canonical_json": _observe_json,
    "validate_design": _observe_validate,
    "ResultCache.get": _observe_cache_get,
    "map_evaluations": _observe_map,
    "assess_risk": _observe_risk,
}


def layer_metric_names() -> "List[str]":
    return [metric["name"] for metric in LAYER_METRICS]

