"""Smoke test of the benchmark harness at tiny workload sizes.

Run from the repository root with ``python3 -m pytest perfbench``. Every
workload runs one untraced and one traced pass pair and must pass its own
correctness checks and report exactly the metrics BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_runs_clean_at_tiny_size(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    code = run.main(argv, root=ROOT, work=tmp_path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_engine_sources(tmp_path, capsys):
    argv = ["--workload", "storm", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv, root=tmp_path, work=tmp_path / "work") != 0
    assert capsys.readouterr().out == ""


def test_every_run_seed_maps_to_a_recorded_reference():
    import workloads

    recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    for workload in DECLARED["workloads"]:
        name = workload["name"]
        for seed in (0, 7, 31, 32, 40, 10**6):
            key = workloads.input_seed(name, seed)
            assert ("any" if key is None else str(key)) in recorded[name]


def test_summary_leaves_out_work_below_set_up_spans():
    import tracing

    tracer = tracing.Tracer()
    # [name, start, end, parent, alert, tag]: an embed inside Memory.load's
    # store, then one inside an alert's analysis.
    tracer.spans.extend([
        ["memory.load", 0.0, 4.0, -1, -1, None],
        ["memory.store", 1.0, 3.0, 0, -1, None],
        ["graph.embed", 1.5, 2.5, 1, -1, None],
        ["reasoner.analyze_alert", 5.0, 9.0, -1, 0, "Fresh"],
        ["graph.embed", 6.0, 7.0, 3, 0, None],
    ])
    summary = tracer.summary()
    assert summary["graph.embed"]["calls"] == 1
    assert "memory.store" not in summary
    assert summary["memory.load"]["total_s"] == 4.0
    assert summary["reasoner.analyze_alert"]["self_s"] == 3.0
