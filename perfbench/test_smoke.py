"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

They are not part of the package's test suite (pytest's testpaths is
``tests``).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import torusiso  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny_and_prints_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_seed_regenerates_byte_identical_inputs(workload, tmp_path):
    def files(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        workloads.generate(torusiso, workload, seed, directory, "tiny")
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    first = files(7, "a")
    assert first and first == files(7, "b")
    assert first != files(8, "c")


def test_clock_scales_wall_time_by_the_reference_speed():
    # A reference pass that takes twice its nominal time means a host at
    # half speed: a 40 ms block then counts as 20 reference ms.
    clock = calibrate.Clock(lambda: time.sleep(0.02), passes=1, nominal_s=0.01, block_s=0.0)
    ref_s, result = clock.measure(lambda: time.sleep(0.04) or "done")
    assert result == "done"
    assert 0.015 < ref_s < 0.025


def test_missing_wrapper_target_reports_zero_calls():
    missing = "torusiso.bounds.no_such_function"
    tracer = tracing.Tracer(targets=[missing]).install()
    try:
        spec = torusiso.TorusProductSpec((1.0, 1.5), 2)
        with tracer.section():
            torusiso.band(spec, [1.0, 10.0, 100.0])
    finally:
        tracer.uninstall()
    assert missing in tracer.missing
    assert tracer.target_calls[missing] == 0
    assert tracer.target_calls["torusiso.bounds.band"] == 1
    assert tracer.target_calls["torusiso.bounds.envelope_profile"] >= 3
    assert not hasattr(torusiso.bounds.envelope_profile, "_perfbench_names")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "spec, expected",
    [
        ({"radii": [1.0, 1.5], "euclid_dim": 9}, "GuardError"),
        ({"radii": [1.0, -1.5], "euclid_dim": 2}, "DomainError"),
        ({"radii": "one", "euclid_dim": 2}, "nonzero_exit"),
    ],
)
def test_failed_cli_command_is_classified_by_its_error(spec, expected, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert workloads.failure_class(["critical", str(path)]) == expected
