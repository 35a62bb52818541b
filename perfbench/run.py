#!/usr/bin/env python3
"""Benchmark of torusiso, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid-band, band-curves, spec-sweep or cli-cold (see workloads.py
for what each op is and why each workload exists). The code under test is
``src/torusiso`` of the checkout this file sits in; it is imported from
there, never from an installed copy. Inputs are generated from the seed
into ``.perfbench_work/`` and removed at exit.

Untraced (``--trace 0``): set-up (a cold ``import torusiso.cli`` in a
child process, input generation and a small warm-up) runs once, then the
ops of one cycle run in order, whole cycle after whole cycle, until S
seconds have passed and at least MIN_CYCLES cycles have run. Set-up is
repeated SETUP_REPS - 1 more times, spread over the window.

Times are in reference seconds (calibrate.py): each op's wall time is
scaled by a reference workload timed just before and just after it, so
that the host's speed, which swings by up to a factor two on a shared
machine, cancels while any change to the program shows in full. In-process
ops are measured against a pure-Python kernel, cold processes against a
cold ``python -c "import numpy"``. Each op's time is the median over all
its runs in the window; from these per-op medians:

  setup_s           median set-up time over SETUP_REPS set-ups (child
                    part against the child clock, the rest in-process)
  ops_per_s         ops in a cycle / summed per-op medians (closed loop,
                    1 client)
  op_p50_ms         median of the per-op medians
  op_p90_ms         90th percentile of the per-op medians
  rows_per_s        profile points + band rows in a cycle / summed per-op
                    medians
  ok_ratio          ops that passed / ops attempted
  peak_rss_mb       peak resident memory of this process (cli-cold: of
                    the largest child process)

Every op's output is checked: the first cycle's tables against
``oracle.candidate_min_area`` on seeded samples of rows (and
``verify_report`` for spec-sweep), every later run against the first
run's bytes. A SHA-256 over the first cycle's output bytes is printed and
compared with the digest recorded for the seed in ``digests.json``; a
mismatch is reported, not counted as a failure.

Traced (``--trace 1``): untraced and traced cycles alternate until S
seconds have passed; the tracer (tracing.py) wraps each layer's entry
points. Layer counts and self times are per traced cycle; the ``cli.*``
start-up figures (cli-cold only, else 0) are medians per cold process;
``trace.overhead_ratio`` is traced over untraced op time. The layers' self
times plus the benchmark's own must add up to the traced op time taken on
run_cycle's clock, outside the tracer; a gap fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-band", "band-curves", "spec-sweep", "cli-cold")
SETUP_REPS = 7
MIN_CYCLES = 3
ERROR_CLASSES = workloads.ERROR_CLASSES
FAILURE_KINDS = (*ERROR_CLASSES, "nonzero_exit", "check", "other")
SHOWN_FAILURES = 5
ACCOUNTING_SLACK = 0.01  # share of traced op time the tracer may leave unaccounted


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke tests")
    return parser.parse_args(argv)


def load_program():
    """Import torusiso from this checkout's src/, refusing any other copy."""
    if not (SRC / "torusiso" / "__init__.py").is_file():
        raise SystemExit(f"error: no torusiso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torusiso

    if Path(torusiso.__file__).resolve().parent != (SRC / "torusiso").resolve():
        raise SystemExit(f"error: imported torusiso from {torusiso.__file__}, not {SRC}")
    return torusiso


def cold_import() -> None:
    """Import torusiso.cli in a fresh child process, checking it comes from src/."""
    code = "import torusiso.cli, sys; sys.stdout.write(torusiso.cli.__file__)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=workloads.child_env(ROOT), cwd=ROOT, capture_output=True, timeout=120,
    )
    where = Path(proc.stdout.decode("utf-8", "replace")).resolve()
    if proc.returncode != 0 or where.parent != (SRC / "torusiso").resolve():
        raise SystemExit(f"error: child import of torusiso.cli failed or used {where}")


def set_up_once(torusiso, args, workdir: Path):
    """One set-up: a cold import, input generation and a warm-up.

    Returns (reference seconds, inputs).
    """
    def prepare():
        directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
        inputs = workloads.generate(torusiso, args.workload, args.seed, directory, args.size)
        for op in workloads.warm_up_ops(torusiso, args.workload, inputs, ROOT):
            op.run()
        return inputs

    child_s, _ = calibrate.Clock.child().measure(cold_import)
    own_s, inputs = calibrate.Clock.in_process().measure(prepare)
    return child_s + own_s, inputs


class Measurement:
    """Op times, failure counts and the first cycle's digest.

    With a clock, every op's runs are kept in reference seconds.
    """

    def __init__(self, ops, seed: int, workload: str, clock: calibrate.Clock | None = None):
        self.ops = ops
        self.clock = clock
        self.ref_times: list[list[float]] = [[] for _ in ops]  # each op's runs, reference seconds
        self.first_hash = [None] * len(ops)
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failures = Counter()
        self.details: list[str] = []
        self.busy_s = 0.0  # summed op time of the cycles run
        self.cycles = 0
        self.rng = random.Random(f"check:{workload}:{seed}")

    def run_cycle(self, torusiso, tracer=None) -> None:
        """One pass over the ops, each timed, checked and counted."""
        block = []  # (op index, wall seconds) of the clock's open block
        if self.clock is not None:
            self.clock.start()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            kind, detail, argv = None, "", None
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.section():
                        result = op.run()
            except workloads.OpFailure as exc:
                kind, detail, argv = exc.kind, str(exc), exc.argv
            except torusiso.TorusIsoError as exc:
                name = type(exc).__name__
                kind, detail = (name if name in ERROR_CLASSES else "other"), str(exc)
            except Exception as exc:  # an op must not stop the run; it is counted
                kind, detail = "other", f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.busy_s += elapsed
            if self.clock is not None:
                block.append((index, elapsed))
                if sum(e for _, e in block) >= self.clock.block_s:
                    self._book(block)
                    block = []
            if kind is None:
                kind, detail = self._check(index, op, result)
            elif argv is not None:
                kind = workloads.failure_class(argv)  # outside the timed span
            if kind is not None:
                self.failures[kind] += 1
                if len(self.details) < SHOWN_FAILURES:
                    self.details.append(f"{op.key}: {kind}: {detail}"[:400])
        if block:
            self._book(block)
        self.cycles += 1

    def _book(self, block) -> None:
        factor = self.clock.close()
        for index, elapsed in block:
            self.ref_times[index].append(elapsed * factor)

    def _check(self, index, op, result):
        blob = op.render(result)
        digest = hashlib.sha256(blob).digest()
        if self.first_hash[index] is None:
            self.first_hash[index] = digest
            self.digest.update(blob)
            try:
                violations = op.check(result, self.rng)
            except Exception as exc:  # malformed output counts as a failed op
                violations = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if violations:
                return "check", "; ".join(violations[:3])
        elif digest != self.first_hash[index]:
            return "check", "output differs from this op's first run"
        return None, ""

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def op_medians(self) -> list[float]:
        """Each op's median time over its runs, in reference seconds."""
        return [statistics.median(runs) for runs in self.ref_times]


def end_to_end(m: Measurement, setup_s: float, workload: str) -> dict:
    medians = m.op_medians()
    total = sum(medians)
    rows = sum(op.rows for op in m.ops)
    p90 = statistics.quantiles(medians, n=10, method="inclusive")[8] if len(medians) > 1 else medians[0]
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(medians) / total, "ops/ref-s"),
        "op_p50_ms": (statistics.median(medians) * 1e3, "ref-ms"),
        "op_p90_ms": (p90 * 1e3, "ref-ms"),
        "rows_per_s": (rows / total, "rows/ref-s"),
        "ok_ratio": ((m.attempted - m.failed) / m.attempted, "ok/attempted"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer, failures: Counter, traced_cycles: int, untraced_s: float, traced_s: float):
    per = 1.0 / traced_cycles
    index = {name: i for i, name in enumerate(tracing.ALL_LAYERS)}
    values = {}
    for layer in tracing.LAYERS:
        i = index[layer]
        values[f"{layer}.calls"] = (tracer.calls[i] * per, "count")
        values[f"{layer}.self_ms"] = (tracer.self_s[i] * per * 1e3, "ms")
    profiles_calls = tracer.calls[index["profiles"]]
    band_rows = sum(tracer.band_rows.values())
    from_bounds = tracer.edge_calls[(index["bounds"], index["profiles"])]
    roots_calls = tracer.calls[index["roots"]]
    values.update({
        "profiles.us_per_call": (
            tracer.self_s[index["profiles"]] / profiles_calls * 1e6 if profiles_calls else 0.0, "us"),
        "profiles.calls_per_band_row": (from_bounds / band_rows if band_rows else 0.0, "calls/row"),
        "bounds.rows": (band_rows * per, "count"),
        "bounds.rows.exact": (tracer.band_rows["exact"] * per, "count"),
        "bounds.rows.chord": (tracer.band_rows["chord"] * per, "count"),
        "bounds.rows.tangent": (
            (tracer.band_rows["tangent-left"] + tracer.band_rows["tangent-right"]) * per, "count"),
        "bounds.rows.cylinder-offset": (tracer.band_rows["cylinder-offset"] * per, "count"),
        "bounds.read_curve_ms": (tracer.target_s["torusiso.bounds.read_curve"] * per * 1e3, "ms"),
        "roots.iterations": (tracer.iterations * per, "count"),
        "roots.iterations_per_call": (
            tracer.iterations / roots_calls if roots_calls else 0.0, "count/call"),
    })
    values.update(cold_start_metrics(tracer))
    values.update({
        "bench.self_ms": (tracer.self_s[0] * per * 1e3, "ms"),
        "trace.wall_ms": (tracer.wall_s * per * 1e3, "ms"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    for kind in FAILURE_KINDS:
        values[f"failed.{kind}"] = (failures[kind], "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def cold_start_metrics(tracer) -> dict:
    """Per-invocation medians over the traced child processes (cli-cold only)."""
    def median_ms(samples):
        return statistics.median(samples) * 1e3 if samples else 0.0

    children = tracer.children
    imports = [tracing.parse_importtime(s["importtime"]) for s in children]
    values = {
        "cli.interp_ms": median_ms([s["wall_process_s"] - s["script_s"] for s in children]),
        "cli.import_ms": median_ms([s["import_s"] for s in children]),
        "cli.import.numpy_ms": median_ms([tracing.import_share(i, "numpy") for i in imports]),
        "cli.import.torusiso_ms": median_ms([tracing.import_share(i, "torusiso") for i in imports]),
    }
    for command in ("profile", "critical", "bounds", "verify"):
        values[f"cli.wall_ms.{command}"] = median_ms(
            [s["wall_process_s"] for s in children if s["command"] == command]
        )
    return {name: (value, "ms") for name, value in values.items()}


def accounting_problem(tracer, busy_s: float) -> str | None:
    """The layers' self times plus the benchmark's own must add up to the op time.

    The op time is run_cycle's clock, outside the tracer; only the entry
    and exit of the tracer's section may lie between the two.
    """
    accounted = sum(tracer.self_s) + tracer.cold_start_s
    if not -1e-9 <= busy_s - accounted <= ACCOUNTING_SLACK * busy_s:
        return f"self times add up to {accounted!r} s, traced op time is {busy_s!r} s"
    return None


def traced_run(torusiso, args, inputs, m: Measurement, deadline: float, problems: list[str]):
    """Alternate untraced cycles (``m``) with traced ones; returns per-layer metrics."""
    tracer = tracing.Tracer()
    traced = Measurement(
        workloads.make_ops(torusiso, args.workload, inputs, ROOT, tracer), args.seed, args.workload
    )
    untraced_s = traced_s = 0.0
    tracer.install()
    try:
        # Start another pair of cycles only if it is expected to end by the deadline.
        while True:
            pair_start = time.perf_counter()
            busy = m.busy_s
            m.run_cycle(torusiso)
            untraced_s += m.busy_s - busy
            busy = traced.busy_s
            traced.run_cycle(torusiso, tracer=tracer)
            traced_s += traced.busy_s - busy
            now = time.perf_counter()
            if now + (now - pair_start) > deadline:
                break
    finally:
        tracer.uninstall()
    m.attempted += traced.attempted
    m.failures.update(traced.failures)
    m.details += traced.details
    problem = accounting_problem(tracer, traced.busy_s)
    if problem:
        problems.append(problem)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    print(f"trace written to {trace_path.relative_to(ROOT)} ({tracer.dropped} spans not stored); "
          f"unresolved targets: {', '.join(tracer.missing) or 'none'}")
    return per_layer(tracer, m.failures, traced.cycles, untraced_s, traced_s)


def recorded_digest(workload: str, seed: int, size: str) -> str | None:
    path = HERE / "digests.json"
    if size != "full" or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    torusiso = load_program()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        setup_s, inputs = set_up_once(torusiso, args, workdir)
        problems = []
        ops = workloads.make_ops(torusiso, args.workload, inputs, ROOT)
        clock = calibrate.Clock.child() if args.workload == "cli-cold" else calibrate.Clock.in_process()
        m = Measurement(ops, args.seed, args.workload, None if args.trace else clock)
        start = time.perf_counter()
        deadline = start + args.seconds
        if args.trace:
            metrics = traced_run(torusiso, args, inputs, m, deadline, problems)
        else:
            # The other set-ups are spread over the window, so that their
            # median does not hang on one stretch of a noisy machine.
            setup_times = [setup_s]
            while m.cycles < MIN_CYCLES or time.perf_counter() < deadline:
                m.run_cycle(torusiso)
                due = start + args.seconds * len(setup_times) / SETUP_REPS
                if len(setup_times) < SETUP_REPS and time.perf_counter() >= due:
                    setup_times.append(set_up_once(torusiso, args, workdir)[0])
            while len(setup_times) < SETUP_REPS:
                setup_times.append(set_up_once(torusiso, args, workdir)[0])
            metrics = end_to_end(m, statistics.median(setup_times), args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sha = m.digest.hexdigest()
    recorded = recorded_digest(args.workload, args.seed, args.size)
    match = "unknown" if recorded is None else str(sha == recorded).lower()
    print(f"digest {args.workload} seed={args.seed} sha256={sha} "
          f"recorded={recorded or 'none'} match={match}")
    print(f"ops attempted={m.attempted} failed={m.failed} cycles={m.cycles} "
          f"failures={dict(m.failures)}")
    for line in m.details + problems:
        print(f"problem: {line}")
    result = {
        "correct": m.failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
