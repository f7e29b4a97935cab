"""The evaluation engine: keys, cache tiers, executor, sweeps."""

import io
import json
import os
import pickle
import time
from dataclasses import dataclass, field

import pytest

from repro import casestudy
from repro.design import DesignSpace, candidate_designs, optimize, run_whatif
from repro.engine import (
    EngineConfig,
    EvaluationTask,
    MemoryCache,
    ResultCache,
    fingerprint,
    map_evaluations,
    model_schema_version,
    shutdown_pool,
    task_key,
)
from repro.core.hierarchy import Level, StorageDesign
from repro.devices.base import Device
from repro.engine.cache import DiskCache
from repro.engine.sweep import evaluate_design_map, evaluate_scenarios_cached
from repro.exceptions import CacheKeyError, ReproError
from repro.obs import MetricsRegistry, use_metrics
from repro.workload.presets import cello


@pytest.fixture()
def workload():
    return cello()


@pytest.fixture()
def requirements():
    return casestudy.case_study_requirements()


@pytest.fixture()
def scenarios():
    return casestudy.case_study_scenarios()


@pytest.fixture(autouse=True)
def _no_leftover_pool():
    yield
    shutdown_pool()


class TestKeys:
    def test_fingerprint_deterministic_for_equal_graphs(self, workload):
        designs = candidate_designs(DesignSpace())
        name = next(iter(designs))
        one = fingerprint({"design": designs[name](), "workload": workload})
        two = fingerprint({"design": designs[name](), "workload": workload})
        assert one == two

    def test_task_key_distinguishes_designs(self, workload):
        designs = candidate_designs(DesignSpace())
        names = list(designs)
        key_a = task_key({"design": designs[names[0]](), "workload": workload})
        key_b = task_key({"design": designs[names[1]](), "workload": workload})
        assert key_a != key_b

    def test_task_key_includes_schema_version(self, workload, monkeypatch):
        from repro.engine import keys as keys_module

        payload = {"workload": workload}
        before = task_key(payload)
        monkeypatch.setattr(keys_module, "_schema_version", "engine-v0:test")
        assert task_key(payload) != before

    def test_memo_does_not_change_the_key(self, workload, scenarios):
        payload = {"workload": workload, "scenarios": tuple(scenarios)}
        memo = {}
        assert task_key(payload, memo) == task_key(payload)
        # And a second memoized call short-circuits to the same key.
        assert task_key(payload, memo) == task_key(payload)

    def test_shared_references_fingerprint_identically(self):
        shared = {"x": 1.0}
        graph_shared = [shared, shared]
        graph_copies = [{"x": 1.0}, {"x": 1.0}]
        # Plain dicts carry no identity: both graphs canonicalize alike.
        assert fingerprint(graph_shared) == fingerprint(graph_copies)

    def test_unserializable_objects_raise(self):
        with pytest.raises(CacheKeyError):
            fingerprint({"callback": lambda: None})

    def test_schema_version_is_stable_within_a_process(self):
        assert model_schema_version() == model_schema_version()
        assert model_schema_version().startswith("engine-v1")


class TestMemoryCache:
    def test_lru_evicts_oldest(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_zero_entries_disables_the_tier(self):
        cache = MemoryCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestDiskCache:
    def _results(self, workload, scenarios, requirements):
        from repro.core.evaluate import evaluate_scenarios

        return evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )

    def test_round_trip_preserves_rendering(
        self, tmp_path, workload, scenarios, requirements
    ):
        results = self._results(workload, scenarios, requirements)
        disk = DiskCache(tmp_path)
        assert disk.put("k", results)
        restored = DiskCache(tmp_path).get("k")
        assert list(restored) == list(results)
        for label in results:
            assert restored[label].summary() == results[label].summary()
            assert restored[label].explain() == results[label].explain()

    def test_scenario_order_survives_the_disk(
        self, tmp_path, workload, scenarios, requirements
    ):
        # Regression: an alphabetically re-sorted payload would reorder
        # the scenario columns of every cached report.
        results = self._results(workload, list(reversed(scenarios)), requirements)
        disk = DiskCache(tmp_path)
        disk.put("k", results)
        assert list(DiskCache(tmp_path).get("k")) == list(results)

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / DiskCache.FILENAME
        path.write_text('not json\n{"key": "k", "codec": "x"}\n')
        disk = DiskCache(tmp_path)
        assert disk.get("k") is None

    def test_unknown_codec_is_a_miss(self, tmp_path):
        path = tmp_path / DiskCache.FILENAME
        path.write_text(
            json.dumps({"key": "k", "codec": "from-the-future", "payload": {}})
            + "\n"
        )
        assert DiskCache(tmp_path).get("k") is None

    def test_uncodecable_values_are_not_stored(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert not disk.put("k", object())
        assert disk.get("k") is None

    def test_concurrent_writers_never_tear_records(
        self, tmp_path, workload, scenarios, requirements
    ):
        # Regression: two engine processes sharing one cache dir append
        # to the same results.jsonl.  Buffered text appends can flush a
        # large record in several chunks, interleaving mid-line and
        # corrupting the last-wins index; DiskCache.put must append
        # each record as one O_APPEND write.
        import multiprocessing

        results = self._results(workload, scenarios, requirements)
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        per_writer = 20
        writers = [
            context.Process(
                target=_hammer_cache,
                args=(tmp_path, results, f"writer{n}", per_writer, barrier),
            )
            for n in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
            assert process.exitcode == 0
        raw = (tmp_path / DiskCache.FILENAME).read_text(encoding="utf-8")
        lines = [line for line in raw.splitlines() if line]
        assert len(lines) == 2 * per_writer
        for line in lines:
            record = json.loads(line)  # a torn line would raise here
            assert {"key", "codec", "payload"} <= set(record)
        disk = DiskCache(tmp_path)
        for n in range(2):
            for i in range(per_writer):
                assert disk.get(f"writer{n}-{i}") is not None


def _hammer_cache(cache_dir, results, prefix, count, barrier):
    """Worker for the concurrent-append regression test (module level
    so fork/spawn children can resolve it)."""
    disk = DiskCache(cache_dir)
    barrier.wait()
    for i in range(count):
        disk.put(f"{prefix}-{i}", results)


@dataclass(frozen=True)
class _FlakyTask:
    """Fails ``failures`` times, then succeeds (module-level: picklable)."""

    name: str
    failures: int
    log: list = field(default_factory=list, compare=False)

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "flaky", "name": self.name}

    def run(self):
        if len(self.log) < self.failures:
            self.log.append("boom")
            raise RuntimeError(f"transient #{len(self.log)}")
        return "recovered"


@dataclass(frozen=True)
class _HangingTask:
    name: str

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "hang", "name": self.name}

    def run(self):
        time.sleep(30.0)
        return "unreachable"


@dataclass(frozen=True)
class _ModelErrorTask:
    name: str

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "modelerror", "name": self.name}

    def run(self):
        raise ReproError("infeasible candidate")


class TestExecutor:
    def test_serial_default_runs_inline(self, workload, scenarios, requirements):
        task = EvaluationTask(
            name="baseline",
            workload=workload,
            scenarios=tuple(scenarios),
            requirements=requirements,
            factory=casestudy.baseline_design,
        )
        (outcome,) = map_evaluations([task])
        assert outcome.ok and not outcome.cached
        assert set(outcome.value) == {s.describe() for s in scenarios}

    def test_parallel_matches_serial(self, workload, scenarios, requirements):
        designs = candidate_designs(DesignSpace())
        serial = evaluate_design_map(designs, workload, scenarios, requirements)
        parallel = evaluate_design_map(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert serial[name].ok and parallel[name].ok
            for label in serial[name].value:
                assert (
                    serial[name].value[label].summary()
                    == parallel[name].value[label].summary()
                )

    def test_model_errors_are_not_retried(self):
        task = _ModelErrorTask("bad")
        (outcome,) = map_evaluations(
            [task], EngineConfig(retries=3, retry_backoff=0.001)
        )
        assert not outcome.ok
        assert isinstance(outcome.error, ReproError)
        assert outcome.attempts == 1 and not outcome.retryable

    def test_generic_failures_retry_then_surface(self):
        task = _FlakyTask("boom", failures=99)
        (outcome,) = map_evaluations(
            [task], EngineConfig(workers=2, retries=2, retry_backoff=0.001)
        )
        assert not outcome.ok and outcome.retryable
        assert outcome.attempts == 3  # first try + two retries
        assert isinstance(outcome.error, RuntimeError)

    def test_transient_failure_recovers_on_retry(self):
        task = _FlakyTask("flaky", failures=1)
        (outcome,) = map_evaluations(
            [task], EngineConfig(workers=1, retries=2, retry_backoff=0.001)
        )
        # Inline serial execution runs once without retries...
        assert not outcome.ok
        # ...but on a pool the parent retries inline and recovers.
        task2 = _FlakyTask("flaky2", failures=1)
        (outcome2,) = map_evaluations(
            [task2], EngineConfig(workers=2, retries=2, retry_backoff=0.001)
        )
        assert outcome2.ok and outcome2.value == "recovered"

    def test_timeout_surfaces_without_hanging(self):
        start = time.monotonic()
        (outcome,) = map_evaluations(
            [_HangingTask("hang")],
            EngineConfig(
                workers=2, retries=1, retry_backoff=0.001, task_timeout=0.2
            ),
        )
        elapsed = time.monotonic() - start
        assert not outcome.ok and outcome.retryable
        assert elapsed < 10.0

    def test_outcomes_keep_input_order(self):
        tasks = [
            _ModelErrorTask("a"),
            _FlakyTask("b", failures=0),
            _ModelErrorTask("c"),
        ]
        outcomes = map_evaluations(tasks)
        assert [o.name for o in outcomes] == ["a", "b", "c"]
        assert [o.ok for o in outcomes] == [False, True, False]


class TestCaching:
    def test_memory_cache_hits_on_second_sweep(
        self, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        config = EngineConfig(memory_cache_entries=64)
        cache = ResultCache(memory_entries=64)
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = evaluate_design_map(
                designs, workload, scenarios, requirements,
                config=config, cache=cache,
            )
            second = evaluate_design_map(
                designs, workload, scenarios, requirements,
                config=config, cache=cache,
            )
        counters = registry.snapshot()["counters"]
        assert counters["engine.cache.hits"] >= len(designs)
        assert all(second[name].cached for name in second)
        for name in first:
            for label in first[name].value:
                assert (
                    first[name].value[label].summary()
                    == second[name].value[label].summary()
                )

    def test_disk_cache_survives_processes(
        self, tmp_path, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        config = EngineConfig(cache_dir=str(tmp_path), memory_cache_entries=8)
        first = evaluate_design_map(
            designs, workload, scenarios, requirements, config=config
        )
        # A fresh call builds a fresh ResultCache: only the disk tier
        # persists, simulating a new process against the same dir.
        second = evaluate_design_map(
            designs, workload, scenarios, requirements, config=config
        )
        assert all(second[name].cached for name in second)
        for name in first:
            for label in first[name].value:
                assert (
                    first[name].value[label].explain()
                    == second[name].value[label].explain()
                )

    def test_unkeyable_tasks_still_run(self):
        @dataclass(frozen=True)
        class Unkeyable:
            name: str

            def resolve(self):
                return self

            def key_payload(self):
                return {"cb": lambda: None}

            def run(self):
                return 42

        (outcome,) = map_evaluations(
            [Unkeyable("u")], EngineConfig(memory_cache_entries=8)
        )
        assert outcome.ok and outcome.value == 42 and not outcome.cached

    def test_default_config_disables_caching(self):
        assert not EngineConfig().caching
        assert EngineConfig(memory_cache_entries=1).caching
        assert EngineConfig(cache_dir="/tmp/x").caching


class TestSweepHelpers:
    def test_evaluate_scenarios_cached_matches_direct(
        self, workload, scenarios, requirements
    ):
        from repro.core.evaluate import evaluate_scenarios

        direct = evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )
        via_engine = evaluate_scenarios_cached(
            casestudy.baseline_design(), workload, scenarios, requirements
        )
        assert list(direct) == list(via_engine)
        for label in direct:
            assert direct[label].summary() == via_engine[label].summary()

    def test_evaluate_scenarios_cached_raises_task_errors(
        self, workload, scenarios, requirements
    ):
        def broken():
            raise ReproError("cannot build")

        with pytest.raises(ReproError):
            evaluate_scenarios_cached(
                broken, workload, scenarios, requirements
            )

    def test_whatif_through_engine_matches_history(
        self, workload, scenarios, requirements
    ):
        designs = {
            "baseline": casestudy.baseline_design,
            "weekly": casestudy.weekly_vault_design,
        }
        results = run_whatif(designs, workload, scenarios, requirements)
        assert [r.design_name for r in results] == ["baseline", "weekly"]
        parallel = run_whatif(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        for serial_result, parallel_result in zip(results, parallel):
            assert (
                serial_result.worst_total_cost
                == parallel_result.worst_total_cost
            )


class TestOptimizeParity:
    def test_parallel_ranking_identical_to_serial(
        self, workload, scenarios, requirements
    ):
        candidates = candidate_designs(DesignSpace())
        serial = optimize(candidates, workload, scenarios, requirements)
        parallel = optimize(
            candidates, workload, scenarios, requirements,
            config=EngineConfig(workers=4),
        )
        assert [e.name for e in serial.ranking] == [
            e.name for e in parallel.ranking
        ]
        assert [e.objective for e in serial.ranking] == [
            e.objective for e in parallel.ranking
        ]
        assert serial.best.name == parallel.best.name


def _unbuildable_design():
    """A picklable factory that fails like an infeasible candidate."""
    raise ReproError("cannot build this candidate")


def _design_named_by_builder():
    """A picklable factory whose design records the process building it."""
    design = casestudy.baseline_design()
    design.name = f"built-in-{os.getpid()}"
    return design


class _ClassRecorder(pickle.Unpickler):
    """Unpickles a blob, recording every class it names."""

    def __init__(self, blob):
        super().__init__(io.BytesIO(blob))
        self.classes = []

    def find_class(self, module, name):
        found = super().find_class(module, name)
        self.classes.append(found)
        return found


def _tasks(designs, workload, scenarios, requirements):
    return [
        EvaluationTask(
            name=name,
            workload=workload,
            scenarios=tuple(scenarios),
            requirements=requirements,
            factory=factory,
        )
        for name, factory in designs.items()
    ]


class TestPlainValueResults:
    def test_serial_pooled_and_cache_restored_results_are_equal(
        self, tmp_path, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        assert len(designs) == 16
        serial = evaluate_design_map(designs, workload, scenarios, requirements)
        pooled = evaluate_design_map(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        config = EngineConfig(cache_dir=str(tmp_path))
        evaluate_design_map(designs, workload, scenarios, requirements, config=config)
        restored = evaluate_design_map(
            designs, workload, scenarios, requirements, config=config
        )
        assert all(outcome.cached for outcome in restored.values())
        for name in designs:
            assert len(serial[name].value) == len(scenarios)
            assert serial[name].value == pooled[name].value
            assert serial[name].value == restored[name].value

    def test_pooled_results_carry_no_live_model_objects(
        self, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        outcomes = map_evaluations(
            _tasks(designs, workload, scenarios, requirements),
            EngineConfig(workers=2),
        )
        for outcome in outcomes:
            recorder = _ClassRecorder(pickle.dumps(outcome.value))
            recorder.load()
            assert recorder.classes
            for cls in recorder.classes:
                assert not cls.__module__.startswith("repro.techniques")
                # repro.devices.base also defines the utilization report
                # values; no live device may travel.
                assert not issubclass(cls, (Device, Level, StorageDesign))


class TestWorkerSideResolve:
    def test_candidate_factories_pickle(self):
        for name, factory in candidate_designs(
            DesignSpace(), include_hybrids=True
        ).items():
            rebuilt = pickle.loads(pickle.dumps(factory))
            assert rebuilt().name == name
            assert fingerprint(rebuilt()) == fingerprint(factory())

    def test_picklable_factories_build_in_the_worker(
        self, workload, scenarios, requirements
    ):
        tasks = [
            EvaluationTask(
                name=f"task-{n}",
                workload=workload,
                scenarios=tuple(scenarios),
                requirements=requirements,
                factory=_design_named_by_builder,
            )
            for n in range(2)
        ]
        outcomes = map_evaluations(tasks, EngineConfig(workers=2))
        for outcome in outcomes:
            assert outcome.ok
            for assessment in outcome.value.values():
                assert assessment.design_name != f"built-in-{os.getpid()}"

    def test_factory_model_error_matches_serial(
        self, workload, scenarios, requirements
    ):
        designs = {
            "baseline": casestudy.baseline_design,
            "unbuildable": _unbuildable_design,
        }
        tasks = _tasks(designs, workload, scenarios, requirements)
        serial = map_evaluations(tasks)
        pooled = map_evaluations(
            tasks, EngineConfig(workers=2, retries=3, retry_backoff=0.001)
        )
        for outcome in (serial[1], pooled[1]):
            assert isinstance(outcome.error, ReproError)
            assert str(outcome.error) == "cannot build this candidate"
            assert outcome.attempts == 1 and not outcome.retryable
        assert serial[0].value == pooled[0].value

    def test_closure_factories_still_evaluate(
        self, workload, scenarios, requirements
    ):
        def closure(build=casestudy.weekly_vault_design):
            return build()

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(closure)
        designs = {"weekly": closure, "baseline": casestudy.baseline_design}
        serial = evaluate_design_map(designs, workload, scenarios, requirements)
        pooled = evaluate_design_map(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        for name in designs:
            assert pooled[name].ok
            assert pooled[name].value == serial[name].value

    def test_one_contiguous_chunk_per_worker(
        self, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        registry = MetricsRegistry()
        with use_metrics(registry):
            outcomes = map_evaluations(
                _tasks(designs, workload, scenarios, requirements),
                EngineConfig(workers=2),
            )
        assert registry.snapshot()["counters"]["engine.chunks"] == 2
        assert [outcome.name for outcome in outcomes] == list(designs)
