"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import driver  # noqa: E402
from ledger import Span, busy_seconds, self_seconds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("cls", [driver.CodecSweep, driver.PlanAudit])
def test_snapshots_are_a_function_of_seed_and_index(cls, tmp_path):
    workload = cls(tmp_path)
    first = workload.snapshot(7, 3)
    assert first.dtype == np.float32
    assert first.tobytes() == workload.snapshot(7, 3).tobytes()
    assert first.tobytes() != workload.snapshot(8, 3).tobytes()
    assert first.tobytes() != workload.snapshot(7, 4).tobytes()


def test_reportable_tail_keeps_ten_samples_beyond():
    assert driver.reportable_tail(list(range(19))) is None
    assert driver.reportable_tail(list(range(20)))[0] == 50
    assert driver.reportable_tail(list(range(99)))[0] == 75
    assert driver.reportable_tail(list(range(100)))[0] == 90
    assert driver.reportable_tail(list(range(1000)))[0] == 99
    rng = np.random.default_rng(0)
    for n in (20, 57, 100, 230, 1000):
        values = list(rng.lognormal(size=n))
        q, value = driver.reportable_tail(values)
        assert value == driver.percentile(values, q)
        assert driver.samples_beyond(values, q) >= 10


def test_busy_and_self_time_on_synthetic_spans():
    # op [0, 10] > encode [1, 6] > encode [2, 4] > pack [2.5, 3.5]
    #              > forward [7, 9]
    spans = [
        Span(0, "op", 0.0, 10.0, -1, [1, 4]),
        Span(0, "encode", 1.0, 6.0, 0, [2]),
        Span(0, "encode", 2.0, 4.0, 1, [3]),
        Span(0, "pack", 2.5, 3.5, 2, []),
        Span(0, "forward", 7.0, 9.0, 0, []),
    ]
    assert busy_seconds(spans, "encode") == pytest.approx(5.0)
    assert self_seconds(spans, "encode") == pytest.approx(4.0)
    assert busy_seconds(spans, "pack") == pytest.approx(1.0)
    assert self_seconds(spans, "op") == pytest.approx(3.0)
    assert busy_seconds(spans, "missing") == 0.0


def test_tampered_tolerance_fails_the_run(monkeypatch, capsys):
    from repro.core.planner import TolerancePlanner

    honest = TolerancePlanner.plan

    def loosened(self, *args, **kwargs):
        plan = honest(self, *args, **kwargs)
        plan.input_tolerance *= 1e4
        return plan

    monkeypatch.setattr(TolerancePlanner, "plan", loosened)
    monkeypatch.setattr(driver, "SETUP_PROBES", 1)
    for key in ("REPRO_CACHE_DIR", "REPRO_COMPILE_CACHE_DIR"):
        monkeypatch.setenv(key, "")
    code = driver.main(["--workload", "h2-codec-sweep", "--seed", "5", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    completed = _run("--workload", workload, "--seed", "4", "--seconds", "0.1",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert np.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "h2-codec-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
