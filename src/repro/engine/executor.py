"""Parallel, fault-tolerant execution of evaluation tasks.

:func:`map_evaluations` is the one entry point: give it a list of
:class:`EvaluationTask` (or :class:`PortfolioTask`) and an
:class:`EngineConfig`, get back one :class:`TaskOutcome` per task **in
input order** — regardless of the completion order of the workers, so
parallel runs are bit-identical to serial ones.

The execution strategy, in order of preference:

1. **cache** — tasks whose content key has a cached result never run;
2. **inline** — ``workers <= 1`` (the default), no pool, no pickling:
   exactly the code path the serial callers always had;
3. **process pool** — the pending tasks are split into one contiguous
   chunk per worker, each chunk's task list is pickled once, and the
   bytes go to a reusable
   :class:`~concurrent.futures.ProcessPoolExecutor`.  A design factory
   that pickles (the :func:`~repro.design.candidate_designs` factories
   are :func:`functools.partial` objects) travels as is and the worker
   builds the design; the parent builds it only when it needs the
   task's cache key or when a chunk does not pickle.  Results are
   plain values, so what comes back is small.

Failure handling mirrors the framework's error taxonomy: a task raising
:class:`~repro.exceptions.ReproError` is a *modeling* outcome (an
infeasible candidate) — reported, never retried.  A worker crash, an
unexpected exception or a per-task timeout is an *execution* failure —
retried with exponential backoff up to ``retries`` times, then reported
as failed.  The sweep as a whole never hangs and never raises for a
single bad task.
"""

from __future__ import annotations

import dataclasses
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.evaluate import evaluate_scenarios
from ..core.hierarchy import StorageDesign
from ..core.results import Assessment
from ..exceptions import CacheKeyError, EngineError, ReproError
from ..obs import get_metrics, get_tracer
from ..obs.context import (
    TelemetryCapsule,
    TelemetryCapture,
    TraceContext,
    current_context,
    merge_capsule,
)
from ..obs.progress import get_progress
from ..obs.runs import get_task_log
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..workload.spec import Workload
from .cache import ResultCache
from .keys import PartMemo, result_digest, task_key

if TYPE_CHECKING:
    from ..portfolio import Portfolio, PortfolioAssessment

#: A design factory: builds a fresh design (fresh devices) per call.
DesignFactory = Any


@dataclass(frozen=True)
class EngineConfig:
    """How a sweep runs.  The default is bit-identical to pre-engine code:
    serial, uncached, no timeouts.

    ``task_timeout`` is wall-clock seconds per task, enforced inside
    worker processes (and only meaningful with ``workers > 1`` — inline
    execution cannot be preempted).
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    memory_cache_entries: int = 0
    task_timeout: Optional[float] = None
    retries: int = 2
    retry_backoff: float = 0.05

    @property
    def caching(self) -> bool:
        return self.memory_cache_entries > 0 or self.cache_dir is not None


@dataclass(frozen=True)
class EvaluationTask:
    """One (design, workload, scenarios, requirements) evaluation.

    The design comes either as a built :class:`StorageDesign` or as a
    zero-argument ``factory`` (the design-space convention: a fresh
    design per evaluation so device demand registries start empty).
    :meth:`run` builds the design from the factory when the task was
    not resolved, so a picklable factory is resolved in the worker.
    """

    name: str
    workload: Workload
    scenarios: Tuple[FailureScenario, ...]
    requirements: BusinessRequirements
    design: Optional[StorageDesign] = None
    factory: Optional[DesignFactory] = field(default=None, compare=False)
    strict_utilization: bool = True

    def resolve(self) -> "EvaluationTask":
        """The same task with the factory replaced by the design it builds.

        The engine resolves a task in the parent only when it needs the
        key (which digests the built design) or when the task's chunk
        does not pickle; otherwise :meth:`run` builds the design where
        the task runs.  A factory's :class:`~repro.exceptions.ReproError`
        is a modeling outcome wherever it is raised.
        """
        if self.factory is None and self.design is not None:
            return self
        return dataclasses.replace(self, design=self._design(), factory=None)

    def _design(self) -> StorageDesign:
        if self.design is not None:
            return self.design
        if self.factory is None:
            raise EngineError(f"task {self.name!r} has neither design nor factory")
        design: StorageDesign = self.factory()
        return design

    def key_payload(self) -> "Dict[str, Any]":
        """The cache-key input (call on a *resolved* task)."""
        return {
            "kind": "evaluation",
            "design": self.design,
            "workload": self.workload,
            "scenarios": self.scenarios,
            "requirements": self.requirements,
            "strict_utilization": self.strict_utilization,
        }

    def run(self) -> "Dict[str, Assessment]":
        return evaluate_scenarios(
            self._design(),
            self.workload,
            self.scenarios,
            self.requirements,
            strict_utilization=self.strict_utilization,
        )


@dataclass(frozen=True)
class PortfolioTask:
    """One portfolio evaluation (several data objects on shared devices).

    Portfolios aggregate live device state and are evaluated inline in
    the parent — they are few (one per scenario) while design sweeps
    are many, so they gain nothing from shipping across processes.
    """

    name: str
    portfolio: "Portfolio"
    scenario: FailureScenario
    requirements: BusinessRequirements
    strict_utilization: bool = True

    def resolve(self) -> "PortfolioTask":
        return self

    def key_payload(self) -> "Dict[str, Any]":
        return {
            "kind": "portfolio",
            "portfolio": self.portfolio,
            "scenario": self.scenario,
            "requirements": self.requirements,
            "strict_utilization": self.strict_utilization,
        }

    def run(self) -> "PortfolioAssessment":
        return self.portfolio.evaluate(
            self.scenario,
            self.requirements,
            strict_utilization=self.strict_utilization,
        )


EngineTask = Union[EvaluationTask, PortfolioTask]


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is
    None on success.  ``retryable`` distinguishes execution failures
    (worker crash, timeout — retried before landing here) from modeling
    outcomes (:class:`~repro.exceptions.ReproError` — the task *ran*,
    the candidate is infeasible).
    """

    name: str
    value: Any = None
    error: Optional[BaseException] = None
    cached: bool = False
    attempts: int = 1
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class _TaskTimeout(Exception):
    """Internal: a task exceeded the per-task timeout inside a worker."""


def _run_with_timeout(task: EngineTask, timeout: Optional[float]) -> Any:
    """Run one task, preempting it after ``timeout`` seconds.

    Uses ``SIGALRM``/``setitimer``, which only works on the main thread
    of a process — exactly where pool workers run tasks.  Called on any
    other thread (or with no timeout), it runs the task unguarded.
    """
    if timeout is None or threading.current_thread() is not threading.main_thread():
        return task.run()

    def _on_alarm(signum: int, frame: Any) -> None:
        raise _TaskTimeout(f"task {task.name!r} exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return task.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_one(
    task: EngineTask, timeout: Optional[float]
) -> "Tuple[str, Any, Optional[BaseException], bool]":
    """``(name, value, error, retryable)`` for one task, never raising."""
    try:
        return task.name, _run_with_timeout(task, timeout), None, False
    except ReproError as exc:
        return task.name, None, exc, False
    except _TaskTimeout as exc:
        return task.name, None, exc, True
    except Exception as exc:  # lint: allow-broad-except
        # An unexpected bug in the model: transported to the parent as
        # a failed outcome instead of poisoning the whole pool.
        return task.name, None, exc, True


def _execute_one_traced(
    task: EngineTask, timeout: Optional[float]
) -> "Tuple[str, Any, Optional[BaseException], bool]":
    """:func:`_execute_one` wrapped in an ``engine.task`` span.

    The wrapper span exists in *both* the serial inline path and the
    worker-side chunk path, so a merged parallel trace has the same
    span structure as a serial one (the byte-stability contract
    ``repro.obs.profile.span_skeleton`` checks).  ``_execute_one``
    never raises, so failures are recorded as attributes here.
    """
    with get_tracer().span("engine.task", task=task.name) as span:
        row = _execute_one(task, timeout)
        error = row[2]
        if error is not None:
            span.set(
                error_type=type(error).__name__, error_message=str(error)
            )
    return row


def _execute_chunk(  # lint: worker-boundary
    blob: bytes,
    timeout: Optional[float],
    ctx: Optional[TraceContext] = None,
) -> "Tuple[List[Tuple[str, Any, Optional[BaseException], bool]], Optional[TelemetryCapsule]]":
    """The unit of work shipped to a pool worker.

    ``blob`` is the chunk's task list, pickled once by the parent.
    With a :class:`~repro.obs.context.TraceContext`, the worker
    installs a capturing tracer/registry for the chunk and returns
    everything it recorded as a telemetry capsule alongside the rows;
    without one (telemetry off in the parent) capture is skipped
    entirely and the capsule is None.
    """
    tasks: "List[EngineTask]" = pickle.loads(blob)
    if ctx is None or not ctx.enabled:
        return [_execute_one(task, timeout) for task in tasks], None
    capture = TelemetryCapture(ctx)
    try:
        rows = [_execute_one_traced(task, timeout) for task in tasks]
    finally:
        capsule = capture.finish()
    return rows, capsule


# One pool per worker count, reused across sweeps: fork+import costs far
# more than a typical sweep, so per-call pools would erase the speedup.
_POOL: "Optional[ProcessPoolExecutor]" = None
_POOL_WORKERS: int = 0
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS != workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = ProcessPoolExecutor(max_workers=workers)
            _POOL_WORKERS = workers
        return _POOL


def warm_pool(workers: int) -> None:
    """Pre-fork the shared pool so the first sweep doesn't pay for it.

    Waits for every worker to come up (each runs a trivial task), so a
    benchmark's timed region measures evaluation, not process start.
    """
    if workers <= 1:
        return
    pool = _get_pool(workers)
    for future in [pool.submit(int, 0) for _ in range(workers)]:
        future.result()


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests and atexit paths)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = None
            _POOL_WORKERS = 0


def _discard_pool() -> None:
    """Drop a broken pool so the next ``_get_pool`` builds a fresh one."""
    shutdown_pool()


def _pickled(obj: Any) -> Optional[bytes]:
    """``pickle.dumps(obj)``, or None when ``obj`` does not pickle."""
    try:
        return pickle.dumps(obj)
    except Exception:  # lint: allow-broad-except
        # pickle raises anything the object's reduction raises; any
        # failure means "this does not cross a process boundary".
        return None


def _split(
    items: "List[Tuple[int, EngineTask]]", parts: int
) -> "List[List[Tuple[int, EngineTask]]]":
    """``items`` in ``parts`` contiguous slices whose lengths differ by
    at most one.  Contiguous slices keep capsule merges in input order."""
    count = len(items)
    return [
        items[count * part // parts : count * (part + 1) // parts]
        for part in range(parts)
    ]


def _pack(
    chunk: "List[Tuple[int, EngineTask]]",
    outcomes: "List[Optional[TaskOutcome]]",
) -> "Tuple[List[Tuple[int, EngineTask]], bytes, List[Tuple[int, EngineTask]]]":
    """``(shipped, blob, inline)`` for one chunk.

    Normally the whole task list pickles at once and ships as is.  When
    it does not (a factory is a closure), every task of the chunk is
    resolved here: those that pickle with their design built ship, the
    rest run inline in the parent, and a factory raising
    :class:`~repro.exceptions.ReproError` becomes its task's outcome.
    """
    blob = _pickled([task for _, task in chunk])
    if blob is not None:
        return chunk, blob, []
    shipped: "List[Tuple[int, EngineTask]]" = []
    inline: "List[Tuple[int, EngineTask]]" = []
    for index, task in chunk:
        try:
            resolved = task.resolve()
        except ReproError as exc:
            outcomes[index] = TaskOutcome(name=task.name, error=exc)
            continue
        (shipped if _pickled(resolved) is not None else inline).append(
            (index, resolved)
        )
    return shipped, pickle.dumps([task for _, task in shipped]), inline


def _run_inline(
    pending: "List[Tuple[int, EngineTask]]",
    outcomes: "List[Optional[TaskOutcome]]",
) -> None:
    """Run ``(index, task)`` pairs in this process, filling ``outcomes``."""
    progress = get_progress()
    for index, task in pending:
        name, value, error, retryable = _execute_one_traced(task, None)
        outcomes[index] = TaskOutcome(
            name=name, value=value, error=error, retryable=retryable
        )
        progress.advance(done=1, failed=1 if error is not None else 0)


def _retry_inline(
    task: EngineTask, config: EngineConfig, first_error: BaseException
) -> TaskOutcome:
    """Re-run a failed task in the parent with exponential backoff."""
    metrics = get_metrics()
    progress = get_progress()
    error: BaseException = first_error
    attempts = 1
    while attempts <= config.retries:
        time.sleep(config.retry_backoff * (2 ** (attempts - 1)))
        metrics.inc("engine.retries")
        progress.advance(retries=1)
        attempts += 1
        # Keep enforcing the per-task timeout (works on the parent's
        # main thread too): a genuinely hung task must never block the
        # sweep just because its worker died first.
        name, value, error_now, retryable = _execute_one(task, config.task_timeout)
        if error_now is None:
            return TaskOutcome(name=name, value=value, attempts=attempts)
        error = error_now
        if not retryable:
            return TaskOutcome(
                name=name, error=error, attempts=attempts, retryable=False
            )
    return TaskOutcome(
        name=task.name, error=error, attempts=attempts, retryable=True
    )


def _run_pool(
    pending: "List[Tuple[int, EngineTask]]",
    config: EngineConfig,
    outcomes: "List[Optional[TaskOutcome]]",
) -> None:
    """Execute ``(index, task)`` pairs on the pool, filling ``outcomes``.

    Each worker gets one contiguous chunk, pickled once (:func:`_pack`).
    Tasks in a chunk whose worker dies or whose chunk blows the parent
    budget are retried *individually inline* — correctness first; the
    pool keeps serving the healthy chunks.
    """
    metrics = get_metrics()
    progress = get_progress()
    workers = min(config.workers, len(pending))
    chunks = _split(pending, workers)
    metrics.inc("engine.chunks", len(chunks))

    # One context describes the whole sweep; workers capture telemetry
    # only when the parent has live instruments.
    ctx = current_context()

    pool = _get_pool(workers)
    futures = []
    inline: "List[Tuple[int, EngineTask]]" = []
    unbuilt = 0
    for chunk in chunks:
        shipped, blob, chunk_inline = _pack(chunk, outcomes)
        inline.extend(chunk_inline)
        unbuilt += len(chunk) - len(shipped) - len(chunk_inline)
        if shipped:
            futures.append(
                (shipped, pool.submit(_execute_chunk, blob, config.task_timeout, ctx))
            )
    if unbuilt:
        progress.advance(done=unbuilt, failed=unbuilt)
    if inline:
        # Runs while the workers do: the parent is idle until then.
        metrics.inc("engine.tasks_inline", len(inline))
        _run_inline(inline, outcomes)

    # Futures are consumed in submission order (= input order), so
    # capsule merges — and therefore gauge last-writes and the merged
    # span skeleton — are deterministic and match a serial run.
    for chunk, future in futures:
        budget: Optional[float] = None
        if config.task_timeout is not None:
            budget = config.task_timeout * len(chunk) + 5.0
        try:
            rows, capsule = future.result(timeout=budget)
        except (BrokenProcessPool, FutureTimeoutError, OSError) as exc:
            # The whole chunk is suspect: drop the pool and redo each
            # task inline with retries.
            _discard_pool()
            chunk_failed = 0
            for index, task in chunk:
                outcomes[index] = _retry_inline(task, config, exc)
                outcome = outcomes[index]
                if outcome is not None and outcome.error is not None:
                    chunk_failed += 1
            progress.advance(done=len(chunk), failed=chunk_failed)
            continue
        if capsule is not None:
            merge_capsule(capsule)
        chunk_failed = 0
        for (index, task), (name, value, error, retryable) in zip(chunk, rows):
            if error is None:
                outcomes[index] = TaskOutcome(name=name, value=value)
            elif retryable and config.retries > 0:
                outcomes[index] = _retry_inline(task, config, error)
            else:
                outcomes[index] = TaskOutcome(
                    name=name, error=error, retryable=retryable
                )
            resolved_outcome = outcomes[index]
            if resolved_outcome is not None and resolved_outcome.error is not None:
                chunk_failed += 1
        progress.advance(done=len(chunk), failed=chunk_failed)


def _record_failures(
    map_span: Any,
    outcomes: "List[Optional[TaskOutcome]]",
    keys: "List[Optional[str]]",
) -> None:
    """Count failed outcomes and attach diagnosis records to the sweep span.

    Each failed task contributes to ``engine.tasks_failed`` and to a
    per-exception-type ``engine.tasks_failed.<Type>`` counter, and a
    compact record (task name, cache key, error, attempts) lands on the
    ``engine.map`` span — which the run ledger persists to
    ``spans.jsonl``, so a failed sweep can be diagnosed post-hoc
    without re-running it.
    """
    metrics = get_metrics()
    failures: "List[Dict[str, Any]]" = []
    for index, outcome in enumerate(outcomes):
        if outcome is None or outcome.error is None:
            continue
        error_type = type(outcome.error).__name__
        metrics.inc("engine.tasks_failed")
        metrics.inc(f"engine.tasks_failed.{error_type}")
        failures.append(
            {
                "task": outcome.name,
                "key": keys[index],
                "error_type": error_type,
                "error": str(outcome.error),
                "attempts": outcome.attempts,
                "retryable": outcome.retryable,
            }
        )
    if failures:
        map_span.set(failed=len(failures), failures=failures)


def map_evaluations(
    tasks: "Sequence[EngineTask]",
    config: Optional[EngineConfig] = None,
    cache: Optional[ResultCache] = None,
    label: str = "sweep",
) -> "List[TaskOutcome]":
    """Run every task; return one outcome per task, in input order.

    The workhorse behind ``optimize``, ``run_whatif``, sensitivity
    sweeps and the CLI.  Never raises for a task-level failure — check
    each outcome's ``error``.  Pass an explicit ``cache`` to share one
    across calls; otherwise a cache is built from the config (and the
    memory tier then lives only for this call).  ``label`` names the
    sweep in progress reports (``[designs] 37/120 ...``).
    """
    config = config or EngineConfig()
    metrics = get_metrics()
    tracer = get_tracer()
    progress = get_progress()
    task_log = get_task_log()
    metrics.set_gauge("engine.workers", config.workers)
    metrics.inc("engine.tasks", len(tasks))

    if cache is None and config.caching:
        cache = ResultCache(
            memory_entries=config.memory_cache_entries,
            cache_dir=config.cache_dir,
        )

    progress.begin(len(tasks), label=label)
    with tracer.span(
        "engine.map", tasks=len(tasks), workers=config.workers
    ) as map_span:
        outcomes: "List[Optional[TaskOutcome]]" = [None] * len(tasks)
        keys: "List[Optional[str]]" = [None] * len(tasks)
        pending: "List[Tuple[int, EngineTask]]" = []
        # Shared payload parts (one workload, one scenario tuple) are
        # digested once for the whole sweep, not once per task.
        memo: PartMemo = {}

        cache_hits = 0
        resolve_failures = 0
        # Keys are needed by the cache and by the run observatory's
        # task log (which joins two runs' work items by content key),
        # so they are computed whenever either consumer is live.  A key
        # digests the built design, so only then is a factory resolved
        # here; otherwise the task is built where it runs.
        want_keys = cache is not None or task_log.enabled
        for index, task in enumerate(tasks):
            if not want_keys:
                pending.append((index, task))
                continue
            try:
                resolved = task.resolve()
            except ReproError as exc:
                # A factory that cannot even build its design is a
                # modeling outcome, same as an evaluation-time one.
                outcomes[index] = TaskOutcome(name=task.name, error=exc)
                resolve_failures += 1
                continue
            try:
                key = task_key(resolved.key_payload(), memo)
            except CacheKeyError:
                metrics.inc("engine.cache.unkeyable")
                key = None
            if key is not None:
                keys[index] = key
                if cache is not None:
                    hit, value = cache.get(key)
                    if hit:
                        outcomes[index] = TaskOutcome(
                            name=task.name, value=value, cached=True
                        )
                        cache_hits += 1
                        continue
            pending.append((index, resolved))
        if cache_hits or resolve_failures:
            progress.advance(
                done=cache_hits + resolve_failures,
                cached=cache_hits,
                failed=resolve_failures,
            )

        if pending:
            if config.workers <= 1:
                _run_inline(pending, outcomes)
            else:
                _run_pool(pending, config, outcomes)

        if cache is not None:
            for index, outcome in enumerate(outcomes):
                if (
                    outcome is not None
                    and outcome.ok
                    and not outcome.cached
                    and keys[index] is not None
                ):
                    key = keys[index]
                    assert key is not None
                    cache.put(key, outcome.value)

        _record_failures(map_span, outcomes, keys)
        if task_log.enabled:
            # One record per task, in input order: the manifest's
            # ``tasks`` field, joining this run to any other run of the
            # same work by content key and separating correctness drift
            # from performance drift by result digest.
            for index, outcome in enumerate(outcomes):
                if outcome is None:
                    continue
                task_log.record(
                    task=outcome.name,
                    label=label,
                    key=keys[index],
                    digest=result_digest(outcome.value) if outcome.ok else None,
                    cached=outcome.cached,
                    ok=outcome.ok,
                    error_type=(
                        None
                        if outcome.error is None
                        else type(outcome.error).__name__
                    ),
                    attempts=outcome.attempts,
                )
        final = [outcome for outcome in outcomes if outcome is not None]
        if len(final) != len(tasks):
            raise EngineError("engine lost track of a task outcome")
    progress.finish()
    return final
