#!/usr/bin/env python3
"""Record each workload's output digest for seeds 0 to 99.

    python3 perfbench/record_digests.py

Runs one untimed cycle of every workload per seed, at full size, with the
output checks on, and writes the SHA-256 over the cycle's output bytes to
``perfbench/digests.json``. ``run.py`` compares each run's digest with the
one recorded here for its seed. Record on the commit whose outputs are the
reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


SEEDS = range(100)


def main() -> int:
    torusiso = run.load_program()
    path = run.HERE / "digests.json"
    table = {}
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        recorded = table.setdefault(workload, {})
        for seed in SEEDS:
            directory = tempfile.mkdtemp(prefix=f"digest-{workload}-", dir=work_root)
            try:
                inputs = workloads.generate(torusiso, workload, seed, Path(directory), "full")
                ops = workloads.make_ops(torusiso, workload, inputs, run.ROOT)
                m = run.Measurement(ops, seed, workload)
                m.run_cycle(torusiso)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if m.failed:
                print(f"{workload} seed {seed}: {m.failed} failed ops, not recorded: {m.details}")
                continue
            recorded[str(seed)] = m.digest.hexdigest()
            print(f"{workload} seed {seed}: {recorded[str(seed)]}", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
