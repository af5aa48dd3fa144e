"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_is_span_minus_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_split_forward_by_caller_and_pair_rounds():
    spans = [
        ["fedavg.train", 0.0, 10.0, -1],
        ["fedavg.round", 0.0, 3.0, 0],
        ["fedavg.local_steps", 0.0, 3.0, 1],
        ["gnn.forward", 0.0, 1.0, 2],
        ["fedavg.eval", 3.0, 5.0, 0],
        ["gnn.forward", 3.0, 4.5, 4],
        ["fedavg.round", 5.0, 6.0, 0],
        ["fedavg.eval", 6.0, 10.0, 0],
    ]
    layers = tracing.layer_metrics({"import_s": 1.0, "spans": spans,
                                    "counts": {"psi.ids": 4}})
    assert layers["gnn.forward_train_s"] == 1.0
    assert layers["gnn.forward_eval_s"] == 1.5
    assert layers["gnn.forward_calls"] == 2
    assert layers["fedavg.rounds"] == 2
    assert layers["fedavg.round_ms_p50"] == pytest.approx(5000.0)
    assert layers["fedavg.eval_share"] == pytest.approx(0.6)
    assert layers["psi.calls"] == 0 and layers["psi.ms_per_id"] == 0.0


def test_merge_keeps_parents_and_adds_counts():
    first = {"import_s": 1.0, "spans": [["a", 0.0, 2.0, -1], ["b", 0.5, 1.0, 0]],
             "counts": {"psi.ids": 2, tracing.MODEL_BYTES: 10}}
    second = {"import_s": 2.0, "spans": [["a", 0.0, 3.0, -1], ["c", 1.0, 2.0, 0]],
              "counts": {"psi.ids": 3, tracing.MODEL_BYTES: 7}}
    merged = tracing.merge([first, second])
    assert merged["import_s"] == 3.0
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counts"] == {"psi.ids": 5, tracing.MODEL_BYTES: 10}
    assert tracing.self_times(merged["spans"]) == [1.5, 0.5, 2.0, 1.0]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(40) == 75.0
    assert tracing.tail_percentile(19) == 50.0
    assert tracing.nearest_rank(list(range(1, 101)), 99.0) == 99


def test_design_map_covers_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    assert set(design["per_layer_map"]) == {m["name"] for m in spec["per_layer"]}
    assert set(design["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    derived = tracing.layer_metrics({"import_s": 0.0, "spans": [], "counts": {}})
    extra = {"trace.overhead_s", "quality.auc_2sfgl", "quality.auc_gain"}
    assert set(derived) | extra == {m["name"] for m in spec["per_layer"]}


def test_check_outputs_flags_a_lost_local_edge(tmp_path):
    step = WORKLOADS["stage1"].steps[0]
    assert step.name == "fusion_khop"
    data = tmp_path / "data" / "seed0"
    data.mkdir(parents=True)
    (data / "nodes.csv").write_text("# id,label\n")
    (data / "rel0.csv").write_text("# src,dst\n0,1\n1,2\n")
    (tmp_path / "fused_rel0.csv").write_text("# src,dst,weight\n0,1,1.0\n0,2,0.5\n")
    problems = checks.check_outputs(tmp_path, step, 0, "")
    assert len(problems) == 1 and "lost or lowered 1 local edges" in problems[0]
    (tmp_path / "fused_rel0.csv").write_text("# src,dst,weight\n0,1,1.0\n1,2,2.0\n")
    assert checks.check_outputs(tmp_path, step, 0, "") == []


def _traced_counts(config_text, command, tmp_path, name):
    config = tmp_path / f"{name}.cfg"
    config.write_text(config_text)
    result = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), "--result",
                    str(result), "--trace", "1", "--", command, "--config",
                    str(config), "--out", str(tmp_path / name)],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=300)
    return tracing.layer_metrics(json.loads(result.read_text()))


def test_exact_counts_repeat_between_runs(tmp_path):
    run_cfg = ("synth.nodes = 60\nseeds = 3\narms = 2sfgl, fedavg_only\n"
               "fusion.hops = 2\nfusion.dp_epsilon = 1\nfederation.rounds = 3\n"
               "report.window_lo = 1\nreport.window_hi = 3\n")
    psi_cfg = ("synth.nodes = 10\nsynth.relations = 2\nsynth.inter_p = 0.2\n"
               "seeds = 3\nfusion.psi = ddh\n")

    def counts(i):
        layers = _traced_counts(run_cfg, "run", tmp_path, f"run{i}")
        psi = _traced_counts(psi_cfg, "fuse", tmp_path, f"psi{i}")
        layers["psi.transcript_bytes"] = psi["psi.transcript_bytes"]
        return layers

    first, second = counts(0), counts(1)
    for name in tracing.EXACT_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "stage1", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
