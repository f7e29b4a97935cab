"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload risk-ensemble --seed 0 --seconds 20 --trace 0

Run from the root of a repository checkout: the program is imported
from ``src/`` (nothing is installed).  One closed-loop client sends each
request only after the previous one returned, like a user at the CLI.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced rounds of the same request
stream and reports the per-layer metrics of the traced rounds (see
``layers.py``); the difference of the two rounds' medians is the tracing
overhead.  Either way every output is checked (``workloads.py``) and a
request whose output fails a check counts as failed, and request and
set-up times are scaled to a nominal host speed (``reference.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Scratch files (the what-if cache directory, the traced run's spans) go
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"

#: Set-up runs this many times per run, spread over it; ``setup_s`` is
#: the median.
SETUP_REPEATS = 7
#: p90 needs ten samples beyond it; a run is never shorter than this.
MIN_REQUESTS = 100
#: What a fresh ``repro`` process imports before serving a request.
IMPORTS = "import repro.cli, repro.design, repro.engine, repro.risk, repro.serialization"

UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "assessments_per_s": "1/s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv: "Optional[List[str]]", workloads: "List[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program in a fresh interpreter, as a new CLI process does.

    There is no timeout: with one, waiting for the child polls with
    sleeps of up to 50 ms, which would round set-up times to 50 ms steps.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=env, check=True)


def _commit() -> "Optional[str]":
    """The checked-out commit, read from ``.git`` without running git
    (git would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_identity() -> "Dict[str, Any]":
    """What tells two hosts' (or two commits') numbers apart."""
    import numpy
    from repro.engine import model_schema_version

    return {
        "commit": _commit(),
        "model_schema": model_schema_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "pool_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def measure(
    workload: Any,
    seconds: float,
    tracer: Any = None,
    min_requests: int = MIN_REQUESTS,
    resetups: int = 0,
) -> "Dict[str, Any]":
    """Serve whole rounds of the workload's requests until they took
    ``seconds`` and at least ``min_requests`` were sent.

    Only the request itself is timed — spec in, canonical JSON out;
    each output is checked right after, outside the timed region.  With
    a tracer, odd rounds are traced and even rounds are not.  Right
    before each request the reference work is timed (see
    ``reference.py``); the request's time is kept as measured and
    scaled to the nominal host speed.

    Between rounds the workload is set up again from scratch
    ``resetups`` times, evenly spread over the run, so that set-up
    times sample the host at different moments, as the requests do.
    """
    raw: "Dict[bool, List[float]]" = {False: [], True: []}
    scaled: "Dict[bool, List[float]]" = {False: [], True: []}
    references: "List[float]" = []
    attempted = failed = assessments = 0
    request_seconds = 0.0
    rounds = 0
    setups: "List[float]" = []
    measured = 0.0
    while True:
        if len(setups) < resetups and measured >= (len(setups) + 1) * seconds / (resetups + 1):
            workload.close()
            setups.append(set_up(workload))
        traced = tracer is not None and rounds % 2 == 1
        started = time.perf_counter()
        workload.start_round()
        gc.collect()
        if traced:
            tracer.install()
        try:
            for index in range(len(workload.requests)):
                attempted += 1
                host = reference.seconds()
                if traced:
                    tracer.begin_request(attempted)
                begin = time.perf_counter()
                try:
                    output, count, extra = workload.run(index)
                    error: "Optional[BaseException]" = None
                except Exception as exc:  # lint: allow-broad-except
                    # A failing request is a measured outcome, not a crash.
                    error = exc
                elapsed = time.perf_counter() - begin
                if traced:
                    tracer.end_request()
                references.append(host)
                raw[traced].append(elapsed)
                scaled[traced].append(elapsed * reference.NOMINAL_SECONDS / host)
                if not traced:
                    request_seconds += scaled[traced][-1]
                if error is not None:
                    problems = [f"{type(error).__name__}: {error}"]
                else:
                    problems = workload.check(index, output, extra)
                if problems:
                    failed += 1
                    if failed <= 5:
                        print(f"request {index} failed: {problems[0]}", file=sys.stderr)
                elif not traced:
                    assessments += count
        finally:
            if traced:
                tracer.restore()
        rounds += 1
        measured += time.perf_counter() - started
        if (
            measured >= seconds
            and len(setups) == resetups
            and len(scaled[False]) >= min_requests
            and (tracer is None or rounds >= 2)
        ):
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "assessments": assessments,
        "request_seconds": request_seconds,
        "rounds": rounds,
        "setups": setups,
        "references": references,
        "raw": raw[False],
        "untraced": scaled[False],
        "traced": scaled[True],
    }


def set_up(workload: Any) -> float:
    """Set the workload up as a new CLI process would, import included;
    return the seconds that took.  Check references are computed after
    the clock stops."""
    begin = time.perf_counter()
    import_program()
    workload.setup()
    elapsed = time.perf_counter() - begin
    workload.prepare_checks()
    return elapsed


def _reap_children() -> None:
    """Wait for every child process (pool workers) to exit."""
    deadline = time.monotonic() + 30
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)


def main(argv: "Optional[List[str]]" = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    WORKDIR.mkdir(exist_ok=True)
    goldens = None
    if args.seed == workloads.DEFAULT_SEED:
        goldens = workloads.load_goldens(str(GOLDENS))[args.workload]
    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, str(WORKDIR), goldens)
    tracer = layers.Tracer() if args.trace else None
    # A terminated run still shuts its pool workers down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        first = set_up(workload)
        result = measure(workload, args.seconds, tracer, resetups=SETUP_REPEATS - 1)
    finally:
        workload.close()
        _reap_children()

    host = host_identity()
    print("host " + json.dumps(host, sort_keys=True))
    # A set-up lasts hundreds of milliseconds, in a child process too,
    # while the host flips between its speeds many times a second: one
    # reference taken next to it says little.  The run's mean reference
    # time gives the host's average speed over the run instead.
    reference_ms = statistics.fmean(result["references"]) * 1e3
    setups = [seconds * reference.NOMINAL_SECONDS * 1e3 / reference_ms
              for seconds in [first] + result["setups"]]
    print(
        f"{result['attempted']} requests in {result['rounds']} rounds of "
        f"{len(workload.requests)}; reference work took {reference_ms:.4g} ms "
        f"(mean), times are scaled to {reference.NOMINAL_SECONDS * 1e3:g} ms"
    )
    print(f"unscaled latency_p50_ms {statistics.median(result['raw']) * 1e3:.6g} ms")
    if tracer is None:
        untraced = result["untraced"]
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(untraced) * 1e3,
            "latency_p90_ms": statistics.quantiles(untraced, n=10, method="inclusive")[8] * 1e3,
            "assessments_per_s": result["assessments"] / result["request_seconds"],
            "success_frac": 1.0 - result["failed"] / result["attempted"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    else:
        values = tracer.metrics(
            statistics.median(result["traced"]) * 1e3,
            statistics.median(result["untraced"]) * 1e3,
            reference_ms,
        )
        units = {m["name"]: m["unit"] for m in layers.LAYER_METRICS}
        spans = WORKDIR / f"spans-{args.workload}.jsonl.gz"
        tracer.write(str(spans), {"host": host, "workload": args.workload, "seed": args.seed})
        print(f"spans written to {spans.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
