"""The four benchmark workloads: seeded request streams, the request
path each one drives, and the checks every output must pass.

A request is a JSON-able spec, exactly what a user would hand the CLI;
the program sees only these generated specs.  Running a request goes
spec -> ``repro.serialization.*_from_spec`` -> core/engine/design/risk
-> canonical JSON, the in-process path of ``repro risk --format json``
and ``repro optimize``.

Every call into the program goes through a *module attribute*
(``ser.canonical_json``, ``design.optimize``), never a name imported
into this file: the traced run swaps those module bindings for timing
wrappers, and a private binding here would bypass them.

Each workload's stream is a fixed *round* of requests whose shape is
the same for every seed (the seed picks the contents).  A run measures
whole rounds, so every run sees the same mix of request sizes and the
percentiles of two seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro import design, engine, risk
from repro import serialization as ser

DEFAULT_SEED = 0

#: Pool size of ``optimize-pool``: the box the benchmark was sized on
#: has two CPUs, and one closed-loop client plus two workers keeps the
#: run within them.
POOL_WORKERS = 2
#: The memory tier the CLI builds for ``--cache-dir``.
MEMORY_TIER_ENTRIES = 256

#: Object-grid sizes of one ``risk-ensemble`` round: 250..1750 members,
#: 1000 on average.  Spreading request sizes keeps the latency
#: distribution continuous, so its percentiles move smoothly when the
#: host slows down instead of jumping between clusters.
RISK_GRID_COUNTS = tuple(range(250, 1751, 100))
OPTIMIZE_MAX_SCENARIOS = 24
#: Each scenario count appears this often in one optimize round, with
#: other contents each time, so the round's mix of contents, and with
#: it the median, depends less on the seed.
OPTIMIZE_REPEATS = 2
#: Batch sizes of one ``whatif-cache`` round (nine batches of each
#: size 6..18, 12 on average); two-thirds of each batch are repeats.
#: The batches' contents vary, so the round holds 117 of them: enough
#: that its mix of batch times hardly depends on the seed.
WHATIF_BATCH_SIZES = tuple(range(6, 19)) * 9
WHATIF_HISTORY = 640

Output = Tuple[str, int]


def _rate(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.4f}/yr"


def _requirements(rng: random.Random, rto: bool) -> "Dict[str, Any]":
    spec: "Dict[str, Any]" = {
        "unavailability_per_hour": rng.randrange(10_000, 100_001, 1000),
        "loss_per_hour": rng.randrange(10_000, 100_001, 1000),
    }
    if rto:
        spec["rto"] = f"{rng.choice((12, 24, 48, 96))} hr"
        spec["rpo"] = f"{rng.choice((24, 48, 96, 168))} hr"
    return spec


def _object(age_hours: int, size_mb: int = 1) -> "Dict[str, Any]":
    return {
        "scope": "object",
        "recovery_target_age": f"{age_hours} hr",
        "object_size": f"{size_mb} MB",
    }


# ---------------------------------------------------------------------------
# Seeded request generators.
# ---------------------------------------------------------------------------


def risk_requests(seed: int) -> "List[Dict[str, Any]]":
    """One round of ensembles shaped like ``examples/specs/risk_ensemble.json``.

    Each holds one k-of-n group, a correlated pair, a cascade split in
    two and an object grid over 64 ages (one request per size in
    :data:`RISK_GRID_COUNTS`, in seeded order): 255..1755 members that
    fold onto 67 distinct scenarios, 15 members per scenario on average.
    """
    rng = random.Random(f"risk-ensemble:{seed}")
    counts = list(RISK_GRID_COUNTS)
    rng.shuffle(counts)
    requests = []
    for index, count in enumerate(counts):
        n = rng.randint(6, 10)
        requests.append(
            {
                "workload": "cello",
                "design": "baseline",
                "ensemble": {
                    "name": f"seeded-{seed}-{index}",
                    "members": [
                        {
                            "id": "raid-group",
                            "scenario": "array",
                            "kofn": {
                                "n": n,
                                "k": rng.randint(n - 3, n - 1),
                                "unit_rate": _rate(rng, 0.5, 3.0),
                                "repair_time": f"{rng.randint(4, 12)} hr",
                                "repair": rng.choice(("parallel", "serial")),
                            },
                        }
                    ],
                    "correlated": [
                        {
                            "id": "array-backup-window",
                            "rate": _rate(rng, 0.2, 1.0),
                            "fraction": round(rng.uniform(0.1, 0.5), 4),
                            "base": "array",
                            "correlated": "building",
                        }
                    ],
                    "cascades": [
                        {
                            "id": "site-during-recovery",
                            "rate": _rate(rng, 0.005, 0.05),
                            "primary": "array",
                            "escalated": "site",
                            "secondary_rate": _rate(rng, 0.2, 1.0),
                        }
                    ],
                    "generate": {
                        "object_grid": {
                            "count": count,
                            "total_rate": _rate(rng, 6.0, 24.0),
                            "distinct_ages": 64,
                            "max_age": f"{rng.randint(120, 336)} hr",
                            "object_size": f"{rng.choice((1, 4, 16, 64))} MB",
                        }
                    },
                },
                "requirements": _requirements(rng, rto=True),
            }
        )
    return requests


def optimize_requests(seed: int) -> "List[Dict[str, Any]]":
    """One round of 48 ``repro optimize`` specs, two per scenario count
    1..24 in seeded order.

    Requests with two or more scenarios hold an array failure, those
    with three or more a site disaster too; the rest are object
    corruptions at distinct drawn ages (whole hours, so their scenario
    labels never collide).
    """
    rng = random.Random(f"optimize:{seed}")
    counts = list(range(1, OPTIMIZE_MAX_SCENARIOS + 1)) * OPTIMIZE_REPEATS
    rng.shuffle(counts)
    requests = []
    for count in counts:
        fixed: "List[Any]" = ["array", "site"][: max(0, min(2, count - 1))]
        ages = rng.sample(range(1, 337), count - len(fixed))
        scenarios = fixed + [_object(age, rng.choice((1, 16))) for age in ages]
        rng.shuffle(scenarios)
        requests.append(
            {
                "workload": "cello",
                "scenarios": scenarios,
                "requirements": _requirements(rng, rto=True),
            }
        )
    return requests


def _whatif_task(rng: random.Random, designs: "List[str]") -> "Dict[str, Any]":
    ages = rng.sample(range(1, 721), rng.randint(1, 3))
    scenarios: "List[Any]" = [_object(age) for age in ages]
    if rng.random() < 0.3:
        scenarios.append("array")
    return {"design": rng.choice(designs), "scenarios": scenarios}


def whatif_requests(
    seed: int,
) -> "Tuple[Dict[str, Any], List[Dict[str, Any]]]":
    """The cache history to pre-fill and one round of what-if batches.

    The history holds 640 distinct design x scenario-tuple tasks, 2.5x
    the 256-entry memory tier.  A batch of n tasks (n from
    :data:`WHATIF_BATCH_SIZES`, in seeded order) repeats round(2n/3)
    history tasks drawn with Zipf-like popularity (weight 1/rank^0.9);
    the rest are fresh and never seen before, so two-thirds of lookups
    hit.
    """
    rng = random.Random(f"whatif:{seed}")
    designs = sorted(design.candidate_designs(design.DesignSpace()))
    base = {"workload": "cello", "requirements": _requirements(rng, rto=False)}
    seen = set()

    def fresh_task() -> "Dict[str, Any]":
        while True:
            task = _whatif_task(rng, designs)
            marker = task_marker(task)
            if marker not in seen:
                seen.add(marker)
                return task

    history = [fresh_task() for _ in range(WHATIF_HISTORY)]
    weights = [1.0 / (rank + 1) ** 0.9 for rank in range(WHATIF_HISTORY)]
    popularity = history[:]
    rng.shuffle(popularity)
    sizes = list(WHATIF_BATCH_SIZES)
    rng.shuffle(sizes)
    requests = []
    for size in sizes:
        repeats = round(2 * size / 3)
        tasks = rng.choices(popularity, weights=weights, k=repeats)
        tasks += [fresh_task() for _ in range(size - repeats)]
        rng.shuffle(tasks)
        requests.append(dict(base, tasks=tasks))
    return dict(base, tasks=history), requests


# ---------------------------------------------------------------------------
# Request paths: spec in, canonical JSON out.
# ---------------------------------------------------------------------------


def run_risk(spec: "Dict[str, Any]") -> Output:
    """``repro risk SPEC --format json``; one assessment per member."""
    workload = ser.workload_from_spec(spec["workload"])
    storage = ser.design_from_spec(spec["design"])
    ensemble = ser.ensemble_from_spec(spec["ensemble"])
    requirements = ser.requirements_from_spec(spec["requirements"])
    result = risk.assess_risk(storage, workload, ensemble, requirements)
    return ser.canonical_json(result.to_dict()), len(result.members)


def run_optimize(
    spec: "Dict[str, Any]", config: "Optional[engine.EngineConfig]" = None
) -> Output:
    """``repro optimize SPEC`` over the 16 catalog candidates, with the
    ranking the CLI prints rendered as canonical JSON."""
    workload = ser.workload_from_spec(spec["workload"])
    scenarios = [ser.scenario_from_spec(s) for s in spec["scenarios"]]
    requirements = ser.requirements_from_spec(spec["requirements"])
    candidates = design.candidate_designs(design.DesignSpace())
    outcome = design.optimize(
        candidates, workload, scenarios, requirements, config=config
    )
    document = {
        "kind": "optimize",
        "best": None if outcome.best is None else outcome.best.name,
        "skipped": outcome.skipped,
        "ranking": [
            {
                "name": entry.name,
                "feasible": entry.feasible,
                "objective": entry.objective,
                "outlays": entry.result.total_outlays,
                "worst_recovery_time": entry.result.worst_recovery_time,
                "worst_data_loss": entry.result.worst_data_loss,
            }
            for entry in outcome.ranking
        ],
    }
    assessments = sum(len(entry.result.assessments) for entry in outcome.ranking)
    return ser.canonical_json(document), assessments


def run_whatif(
    spec: "Dict[str, Any]", cache: "engine.ResultCache"
) -> "Tuple[str, int, List[Tuple[Dict[str, Any], Any, bool]]]":
    """A batch of what-if tasks through ``evaluate_design_map`` on a
    shared cache.  Also returns ``(task, value, cached)`` per task."""
    workload = ser.workload_from_spec(spec["workload"])
    requirements = ser.requirements_from_spec(spec["requirements"])
    candidates = design.candidate_designs(design.DesignSpace())
    results = []
    outcomes = []
    assessments = 0
    for task in spec["tasks"]:
        name = task["design"]
        scenarios = [ser.scenario_from_spec(s) for s in task["scenarios"]]
        outcome = engine.evaluate_design_map(
            {name: candidates[name]}, workload, scenarios, requirements,
            cache=cache, label="whatif",
        )[name]
        if outcome.error is not None:
            raise outcome.error
        outcomes.append((task, outcome.value, outcome.cached))
        encoded = {}
        for label, assessment in outcome.value.items():
            record = ser.assessment_to_dict(assessment)
            # Provenance carries wall-clock phase timings when a tracer
            # is live; every other field is a pure function of the task.
            record.pop("provenance", None)
            encoded[label] = record
        assessments += len(encoded)
        results.append({"design": name, "assessments": encoded})
    return ser.canonical_json({"kind": "whatif", "tasks": results}), assessments, outcomes


def task_marker(task: "Dict[str, Any]") -> str:
    """The identity of one what-if task within a seed's stream."""
    return ser.canonical_json(task)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def digest(output: str) -> str:
    """The golden digest of one canonical JSON output."""
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def check_golden(output: str, golden: "Optional[str]") -> "List[str]":
    if golden is None or digest(output) == golden:
        return []
    return ["output differs from the golden digest recorded for this request"]


def check_risk(output: str) -> "List[str]":
    """Every distribution mean == years x sum(rate x severity) over the
    per-member rows (inf when any severity is infinite)."""
    report = json.loads(output)
    problems = []
    columns = {"downtime": "recovery_time", "loss": "data_loss", "penalty": "penalty"}
    for field, column in columns.items():
        rows = [(m["rate_per_year"], m[column]) for m in report["per_member"]]
        if any(math.isinf(severity) for _, severity in rows):
            expected = math.inf
        else:
            expected = report["years"] * math.fsum(r * s for r, s in rows)
        mean = report[field]["mean"]
        if math.isinf(expected) or math.isinf(mean):
            agrees = expected == mean
        else:
            # Same sum, different association: the fold scales rates to
            # per-second and back, so only the last few bits may differ.
            agrees = math.isclose(mean, expected, rel_tol=1e-9, abs_tol=1e-12)
        if not agrees:
            problems.append(f"{field} mean {mean!r} != years x sum(rate x severity) {expected!r}")
    return problems


def check_optimize(output: str) -> "List[str]":
    """The ranking is sorted by (objective, name)."""
    ranking = json.loads(output)["ranking"]
    order = [(entry["objective"], entry["name"]) for entry in ranking]
    return [] if order == sorted(order) else ["ranking is not sorted by (objective, name)"]


def check_hits(
    outcomes: "List[Tuple[Dict[str, Any], Any, bool]]", cold: "Dict[str, str]"
) -> "List[str]":
    """A cache hit's result digest equals the cold evaluation's."""
    problems = []
    for task, value, cached in outcomes:
        if not cached:
            continue
        expected = cold.get(task_marker(task))
        if expected is None or engine.result_digest(value) != expected:
            problems.append(f"cache hit for {task_marker(task)} differs from its cold evaluation")
    return problems


def load_goldens(path: str) -> "Dict[str, List[str]]":
    with open(path, encoding="utf-8") as handle:
        goldens: "Dict[str, List[str]]" = json.load(handle)
    return goldens


# ---------------------------------------------------------------------------
# Workloads: set-up, one request, its checks.
# ---------------------------------------------------------------------------


class Workload:
    """One workload bound to a seed.  ``setup`` builds everything the
    timed loop needs; ``run`` serves one request; ``check`` verifies
    its output outside the timed region."""

    name = ""

    def __init__(self, seed: int, workdir: str, goldens: "Optional[List[str]]"):
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens
        self.requests: "List[Dict[str, Any]]" = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute check references (after set-up, untimed)."""

    def start_round(self) -> None:
        """Bring state back to where set-up left it (between rounds)."""

    def run(self, index: int) -> "Tuple[str, int, Any]":
        raise NotImplementedError

    def check(self, index: int, output: str, extra: Any) -> "List[str]":
        golden = None if self.goldens is None else self.goldens[index]
        return check_golden(output, golden)

    def close(self) -> None:
        """Release what set-up acquired."""


class RiskEnsemble(Workload):
    name = "risk-ensemble"

    def setup(self) -> None:
        self.requests = risk_requests(self.seed)

    def run(self, index: int) -> "Tuple[str, int, Any]":
        output, assessments = run_risk(self.requests[index])
        return output, assessments, None

    def check(self, index: int, output: str, extra: Any) -> "List[str]":
        return super().check(index, output, extra) + check_risk(output)


class OptimizeSweep(Workload):
    name = "optimize-sweep"
    config: "Optional[engine.EngineConfig]" = None

    def setup(self) -> None:
        self.requests = optimize_requests(self.seed)

    def run(self, index: int) -> "Tuple[str, int, Any]":
        output, assessments = run_optimize(self.requests[index], self.config)
        return output, assessments, None

    def check(self, index: int, output: str, extra: Any) -> "List[str]":
        return super().check(index, output, extra) + check_optimize(output)


class OptimizePool(OptimizeSweep):
    """The ``optimize-sweep`` stream on a pre-warmed worker pool."""

    name = "optimize-pool"
    config = engine.EngineConfig(workers=POOL_WORKERS)

    def __init__(self, seed: int, workdir: str, goldens: "Optional[List[str]]"):
        super().__init__(seed, workdir, goldens)
        #: The serial sweep's output per request, computed on first check.
        self._serial: "Dict[int, str]" = {}

    def setup(self) -> None:
        super().setup()
        engine.shutdown_pool()
        engine.warm_pool(POOL_WORKERS)

    def check(self, index: int, output: str, extra: Any) -> "List[str]":
        problems = super().check(index, output, extra)
        if index not in self._serial:
            self._serial[index] = run_optimize(self.requests[index])[0]
        if output != self._serial[index]:
            problems.append("pool output differs from the serial sweep's")
        return problems

    def close(self) -> None:
        engine.shutdown_pool()


class WhatifCache(Workload):
    name = "whatif-cache"

    def setup(self) -> None:
        history, self.requests = whatif_requests(self.seed)
        self._cache_dir = tempfile.mkdtemp(prefix="whatif-", dir=self.workdir)
        # Pre-fill: evaluate the whole history once through a cache
        # built the way the CLI builds it for --cache-dir.
        _, _, self._prefill = run_whatif(history, self._new_cache())
        self._prefilled = os.path.getsize(self._results_path())
        self.start_round()

    def prepare_checks(self) -> None:
        # Every pre-fill task missed, so its value is a cold evaluation:
        # the reference a later hit on the same task must reproduce.
        if any(cached for _, _, cached in self._prefill):
            raise RuntimeError("pre-fill ran against a warm cache")
        self.cold = {
            task_marker(task): engine.result_digest(value)
            for task, value, _ in self._prefill
        }
        self._prefill = []

    def _results_path(self) -> str:
        return os.path.join(self._cache_dir, engine.DiskCache.FILENAME)

    def _new_cache(self) -> "engine.ResultCache":
        return engine.ResultCache(
            memory_entries=MEMORY_TIER_ENTRIES, cache_dir=self._cache_dir
        )

    def start_round(self) -> None:
        # Drop the records the last round appended and start from an
        # empty memory tier over the pre-filled disk tier: a new CLI
        # process against the same --cache-dir.  The disk index loads
        # here, not inside the first timed request.
        os.truncate(self._results_path(), self._prefilled)
        self.cache = self._new_cache()
        if self.cache.disk is not None:
            self.cache.disk.get("")

    def run(self, index: int) -> "Tuple[str, int, Any]":
        return run_whatif(self.requests[index], self.cache)

    def check(self, index: int, output: str, extra: Any) -> "List[str]":
        return super().check(index, output, extra) + check_hits(extra, self.cold)

    def close(self) -> None:
        shutil.rmtree(self._cache_dir, ignore_errors=True)


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (RiskEnsemble, OptimizeSweep, OptimizePool, WhatifCache)
}
WORKLOADS = tuple(WORKLOAD_CLASSES)
