"""Smoke test of the t-quantile speed harness, scripts/bench_distmath.py."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_distmath.py"
DFS = {"3", "28", "98", "598", "2412"}


def test_quick_run_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--out", str(out)],
        check=True, capture_output=True, timeout=60,
    )
    report = json.loads(out.read_text())
    assert report["quick"] is True
    assert report["outputs_identical"] is True
    assert {"cpu", "cpus", "memory_gb", "python", "numpy"} <= set(report["machine"])
    assert report["stdout"]["corr"].startswith("n=48 target_power=0.9 ")
    assert report["stdout"]["fixed"] == "n=30 alpha=0.05 power=0.997897 route=fixed\n"
    assert "before" not in report and "change" not in report
    (run,) = report["after"]["runs"]
    assert set(run["quantile_us"]) == set(run["cdf_calls"]) == DFS
    assert all(value > 0.0 for value in run["quantile_us"].values())
    assert all(1.0 <= value <= 8.0 for value in run["cdf_calls"].values())
    assert run["corr_search_s"] >= 0.0
    assert report["after"]["median"]["cdf_calls"] == run["cdf_calls"]
