"""Record ``goldens.json``: the SHA-256 of every default-seed request's
canonical JSON output, per workload.

    python3 perfbench/goldens.py

Run it from the root of a checkout whose model outputs are known good;
``run.py`` then requires byte-identical outputs at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    goldens = {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=scratch)
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.WORKLOAD_CLASSES[name](workloads.DEFAULT_SEED, workdir, None)
            workload.setup()
            try:
                workload.prepare_checks()
                workload.start_round()
                digests = []
                for index in range(len(workload.requests)):
                    output, _, extra = workload.run(index)
                    problems = workload.check(index, output, extra)
                    if problems:
                        raise SystemExit(f"{name} request {index}: {problems[0]}")
                    digests.append(workloads.digest(output))
                goldens[name] = digests
            finally:
                workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
