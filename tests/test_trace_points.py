"""The benchmark's tracer still reaches the functions it wraps.

``perfbench/tracing.py`` replaces each traced function in the namespace of
the module that calls it.  A refactor that calls a function through another
name leaves its span silently empty; these runs of the traced benchmark child
on ``configs/smoke.cfg``, once per architecture and once as a k-hop ``fuse``,
notice.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SMOKE = ROOT / "configs" / "smoke.cfg"


def traced_child(tmp_path, command, config) -> dict:
    """The record of one traced ``twosfgl`` command run by the benchmark
    child: its spans and counts."""
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--result", str(result_path), "--trace", "1", "--",
         command, "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    assert doc["code"] == 0
    return doc


def traced_smoke_spans(tmp_path, config=SMOKE) -> collections.Counter:
    """Span counts of one traced ``twosfgl run`` on the smoke config."""
    doc = traced_child(tmp_path, "run", config)
    return collections.Counter(name for name, *_ in doc["spans"])


def test_traced_smoke_run_reaches_the_training_points(tmp_path):
    spans = traced_smoke_spans(tmp_path)
    # 9 GCN clients (3 in 2sfgl, 3 in fedavg_only, 1 per local arm) over 40
    # rounds: one forward per evaluation plus each client's first training
    # forward; every later first step reuses the evaluation forward
    assert spans["gnn.forward"] == 9 * (40 + 1)
    for name in ("fedavg.local_steps", "gnn.backward", "gnn.adam"):
        assert spans[name] == 9 * 40, name
    assert spans["fedavg.eval"] == 5 * 40
    # every evaluation scores each of its clients on the 4 metrics
    assert spans["metrics.score"] == 9 * 40 * 4
    # 5 history files, the summary and the table
    assert spans["harness.history_write"] == 5 + 2


def test_traced_sage_smoke_run_reaches_the_sampling_points(tmp_path):
    config = tmp_path / "sage.cfg"
    config.write_text(SMOKE.read_text(encoding="utf-8").replace(
        "arch = gcn", "arch = sage"), encoding="utf-8")
    spans = traced_smoke_spans(tmp_path, config)
    # SAGE reuses no forward: each of the 9 clients samples and runs one
    # forward per training step and one per evaluation, over 40 rounds
    assert spans["gnn.forward"] == 9 * 40 * 2
    assert spans["gnn.sample"] == 9 * 40 * 2
    for name in ("fedavg.local_steps", "gnn.backward", "gnn.adam"):
        assert spans[name] == 9 * 40, name
    assert spans["fedavg.eval"] == 5 * 40


def data_rows(paths) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) - 1
               for path in paths)


def test_traced_khop_fuse_reaches_the_fusion_points(tmp_path):
    config = tmp_path / "khop.cfg"
    config.write_text(SMOKE.read_text(encoding="utf-8")
                      + "fusion.hops = 2\nfusion.dp_epsilon = 1\n",
                      encoding="utf-8")
    doc = traced_child(tmp_path, "fuse", config)
    spans = collections.Counter(name for name, *_ in doc["spans"])
    # 3 clients at full overlap: each sender's intersections with its two
    # receivers are equal, so it emits one pre-noise batch (normalized and
    # k-hop shares) for both; each of the 6 ordered pairs draws its own
    # noise, and each of the 3 receivers fuses once
    for name, count in [("fusion.normalize", 3), ("fusion.khop", 3),
                        ("fusion.dp", 6), ("fusion.fuse", 3),
                        ("fusion.round", 1), ("harness.fusion_outputs", 1)]:
        assert spans[name] == count, name
    out = tmp_path / "out"
    assert doc["counts"]["fusion.shares"] == data_rows(out.glob("shares_*.csv"))
    assert doc["counts"]["fusion.fused_edges"] == data_rows(out.glob("fused_*.csv"))
