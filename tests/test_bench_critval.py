"""Smoke test of the critical-value speed harness, scripts/bench_critval.py."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_critval.py"


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
    assert report["stdout"]["critval"].startswith("n=30 alpha=0.05 value=")
    assert report["stdout"]["search"].startswith("n=")
    levels = report["stdout"]["levels"].splitlines()
    assert [line.split()[:2] for line in levels] == [
        ["n=30", f"alpha={alpha}"] for alpha in ("0.1", "0.05", "0.01")
    ]
    assert report["stdout"]["clihit"].startswith("n=30 alpha=0.05 value=")
    scouts = report["stdout"]["scouts"].splitlines()
    assert len(scouts) == 3 and all(line.startswith("n=") for line in scouts)
    corrmc = report["stdout"]["corrmc"].splitlines()
    assert len(corrmc) == 72 and all(line.startswith("n=") for line in corrmc)
    assert "before" not in report and "change" not in report
    (run,) = report["after"]["runs"]
    assert set(run["chisq_us_per_10k"]) == set(run["chisq_us_per_1k"]) == {"1", "29", "48", "2400"}
    assert set(run["streams"]) == set(report["after"]["median"]["streams"]) == {
        "open_us", "run_us_400", "run_us_1000"}
    assert all(us > 0.0 for us in run["streams"].values())
    for key in ("critval_request_s", "critval_request_wall_s", "search_cell_s", "search_wall_s",
                "search_critval_s", "search_critval_wall_s", "levels_s", "levels_wall_s",
                "corrmc_s", "corrmc_wall_s", "clihit_s", "clihit_wall_s", "scouts_s",
                "scouts_wall_s"):
        assert run[key] >= 0.0
        assert key in report["after"]["median"]
    assert run["search_critval_calls"] >= 1
    for key in ("search_runs", "scouts_runs", "search_peak_rss_mb"):
        assert run[key] > 0
        assert key in report["after"]["median"]
    assert run["search_critval_s"] <= run["search_cell_s"]
    for key in ("critval_request_wall_s", "search_wall_s", "search_critval_wall_s",
                "levels_wall_s", "corrmc_wall_s", "clihit_wall_s", "scouts_wall_s"):
        assert run[key] > 0.0
    assert run["search_critval_wall_s"] <= run["search_wall_s"]
