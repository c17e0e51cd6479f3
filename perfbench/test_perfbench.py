"""Self-test of the benchmark: exact counts repeat, the output matches
BENCHMARK.json, wrong answers are counted, and the benchmark refuses to run
outside a source checkout.  No test looks at a timing.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The smallest configuration of each fast path: one tiny instance.
TINY = {
    "squares": dataclasses.replace(workloads.WORKLOADS["squares-dense"],
                                   n=30, box=2.0, count=1),
    "hexagons": dataclasses.replace(workloads.WORKLOADS["hexagons"],
                                    n=30, box=1.8, count=1),
    "graph": dataclasses.replace(workloads.WORKLOADS["sparse-explicit"],
                                 n=40, m=80, count=1),
}

TIMED = ("_s", ".overhead")


def exact_counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if not name.endswith(TIMED)}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_repeat_exactly(kind):
    first = measure.run_workload(TINY[kind], 0, 0.0, trace=True)
    second = measure.run_workload(TINY[kind], 0, 0.0, trace=True)
    assert first["correct"] and second["correct"]
    assert first["absent"] == []
    counts = exact_counts(first["metrics"])
    assert counts == exact_counts(second["metrics"])
    if kind == "graph":
        assert counts["explicit.interval_total"] > 0
        assert counts["stripes.mark_line.calls"] == 0
    else:
        assert counts["implicit.delta_total"] > 0
        assert counts["nsds.add_count"] == counts["nsds.add_neighbours.calls"]
        assert counts["stripes.mark_nodes"] > 0


def test_untraced_report_matches_spec():
    report = measure.run_workload(TINY["squares"], 0, 0.0, trace=False)
    assert report["correct"] and report["failed"] == 0
    assert {name: m["unit"] for name, m in report["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    env = report["env"]
    assert env["seed"] == 0 and env["kernel_backend"]
    assert env["nproc"] >= 1 and env["python"] and env["numpy"]


def test_spec_lists_what_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(measure.per_layer_units().items())
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_wrong_answers_and_exceptions_are_counted(monkeypatch):
    calls = []

    def flaky(inst, k, rng_seed, tracer=None):
        calls.append(k)
        if len(calls) % 2:
            raise RuntimeError("boom")
        return None, []

    monkeypatch.setattr(workloads, "fast_decide", flaky)
    report = measure.run_workload(TINY["graph"], 0, 0.0, trace=False)
    assert not report["correct"]
    assert report["failed"] == len(calls) > 0
    assert report["attempted"] == 2 * len(calls)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "squares-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
