"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They run every workload at ``--size tiny`` (same code paths, seconds per
run), check ``BENCHMARK.json`` against the benchmark's contract and its
metric tables, and check that corrupted outputs trip the correctness
checks.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import check_run  # noqa: E402
from measure import run_workload  # noqa: E402
from report import END_TO_END, PER_LAYER, tail  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
#: Generous per-run overhead beyond ``run_seconds`` (interpreter start,
#: input generation, set-up samples, checks), measured at about 3 s on a
#: 2-core x86-64 host.
RUN_OVERHEAD_S = 8


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_follows_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    bench = json.loads(raw)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    command = bench["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert not any(a.startswith("/") or ".." in a for a in command)
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    workloads = bench["workloads"]
    assert 2 <= len(workloads) <= 8
    names = []
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in bench["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in bench["end_to_end"])
    assert 1 <= len(bench["per_layer"]) <= 128
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert UNIT.match(entry["unit"]), entry
        names.append(entry["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    # Every run, with set-up and overhead, fits the 3420 s budget.
    runs = 4 + 22 * len(workloads)
    assert runs * (bench["run_seconds"] + RUN_OVERHEAD_S) <= 3420


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in bench["end_to_end"]] == list(END_TO_END)
    assert [(e["name"], e["unit"], e["better"])
            for e in bench["per_layer"]] == [row[:3] for row in PER_LAYER]
    for _name, _unit, _better, moves, on in PER_LAYER:
        assert set(moves.split(",")) <= {row[0] for row in END_TO_END}
        assert set(on.split(",")) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace else END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {row[0]: row[1]
                                              for row in table}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    provenance = json.loads(done.stdout.strip().splitlines()[-2])
    assert {"nproc", "blas_vendor", "blas_threads", "backend", "workers",
            "oversubscribed", "python", "numpy", "seed",
            "commit"} <= set(provenance["provenance"])


def test_end_to_end_metrics_are_never_zero():
    for workload in sorted(WORKLOADS):
        done = _run(workload, 0)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("fig2-noise", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _tiny_observation(name: str):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(5, "tiny")
    observation = run_workload(workload, inputs, seconds=0.5, trace=False)
    assert check_run(workload, observation.config,
                     observation.episodes) == []
    return workload, observation


def test_wrong_byte_count_trips_the_check():
    workload, observation = _tiny_observation("fig2-noise")
    episode = observation.episodes[0]
    episode.traffic["bytes_by_tag"]["upload"] += 8
    failures = check_run(workload, observation.config, observation.episodes)
    assert any("bytes_total" in failure for failure in failures)


def test_missing_upload_trips_the_sparse_upload_check():
    workload, observation = _tiny_observation("fig2-noise")
    observation.episodes[0].samples[0].record.upload_messages -= 1
    failures = check_run(workload, observation.config, observation.episodes)
    assert any("uploads, expected" in failure for failure in failures)


def test_non_reproducible_round_trips_the_check():
    workload, observation = _tiny_observation("fig2-noise")
    assert len(observation.episodes) >= 2
    observation.episodes[-1].samples[0].record.train_loss += 1e-12
    failures = check_run(workload, observation.config, observation.episodes)
    assert any("differs from episode 0" in failure for failure in failures)


def test_quorum_below_the_floor_trips_the_check():
    workload, observation = _tiny_observation("inconsistent-wire")
    record = observation.episodes[0].samples[0].record
    client = next(c for c in record.models_received
                  if c not in record.fallback_clients)
    record.models_received[client] = 1
    failures = check_run(workload, observation.config, observation.episodes)
    assert any("below the floor" in failure for failure in failures)


def test_over_materialisation_trips_the_check():
    workload, observation = _tiny_observation("population-churn")
    episode = observation.episodes[0]
    episode.traffic["peak_materialized_clients"] = 10 ** 6
    failures = check_run(workload, observation.config, observation.episodes)
    assert any("peak materialised" in failure for failure in failures)


def test_tail_has_ten_samples_beyond_it():
    value, percentile, count = tail([float(i) for i in range(100)])
    assert (percentile, count) == (90.0, 100)
    assert sum(1 for i in range(100) if i > value) >= 10
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0, 3)


class _Layer:
    def work(self, n):
        return sum(range(n))


def test_tracer_records_worker_threads_and_reports_absent_targets():
    module = sys.modules[__name__]
    tracer = Tracer((
        Probe("test.work", f"{module.__name__}:_Layer.work"),
        Probe("test.gone", f"{module.__name__}:_Layer.removed"),
        Probe("test.gone", "no_such_module:function"),
    ))
    original = _Layer.work
    tracer.install()
    try:
        tracer.round_id = 0
        layer = _Layer()
        worker = threading.Thread(target=layer.work, args=(1000,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        layer.work(10)
    finally:
        tracer.round_id = -1
        tracer.uninstall()
    assert _Layer.work is original
    assert tracer.absent == [f"{module.__name__}:_Layer.removed",
                             "no_such_module:function"]
    summary = tracer.summary()["test.work"]
    assert summary["calls"] == 2
    assert summary["self_s"] == pytest.approx(summary["total_s"])
    assert len(set(tracer.columns()["thread"])) == 2
