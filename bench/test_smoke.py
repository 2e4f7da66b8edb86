"""Fast smoke test of the benchmark: each workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json (and each workload's own
metric names) is printed with its unit, that the benchmark's correctness
checks catch injected faults, and that it refuses to run without the
package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TCP_NAMED = {
    "setup_s": "s", "retrievals_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "upload_bytes_per_retrieval": "B",
    "failed_fraction": "1", "client_peak_rss_mb": "MB", "server_peak_rss_mb": "MB",
}
NAMED = {
    "tpir-tcp": TCP_NAMED,
    "stpir-tcp": TCP_NAMED,
    "audit-mix": {
        "setup_s": "s", "failed_fraction": "1", "client_peak_rss_mb": "MB",
        "audit_user_privacy_sps": "1/s", "audit_db_privacy_sps": "1/s",
        "audit_correctness_sps": "1/s",
    },
}


def run(workload, trace=0, fault=None, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, printed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc, result, printed = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    for name, unit in NAMED[workload].items():
        assert printed[name][1] == unit
    assert printed["failed_fraction"][0] == 0
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload, fault", [("tpir-tcp", "corrupt-cache"),
                                             ("stpir-tcp", "wrong-secret")])
def test_injected_fault_counts_as_failure(workload, fault):
    proc, result, printed = run(workload, fault=fault)
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"] and result["failed"] > 0
    assert printed["failed_fraction"][0] > 0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, result, _ = run("tpir-tcp", cwd=bare)
        assert proc.returncode != 0 and result is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)
