"""The benchmark's tracer still reaches the functions it wraps.

``perfbench/tracing.py`` replaces each traced function in the namespace of
the module that calls it.  A refactor that calls a function through another
name leaves its span silently empty; these runs of the traced benchmark child
on ``configs/smoke.cfg``, once per architecture, notice.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_smoke_spans(tmp_path, *extra_args) -> collections.Counter:
    """Span counts of one traced ``twosfgl run`` on the smoke config."""
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--result", str(result_path), "--trace", "1", "--",
         "run", "--config", str(ROOT / "configs" / "smoke.cfg"),
         "--out", str(tmp_path / "out"), *extra_args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    assert doc["code"] == 0
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


def test_traced_sage_smoke_run_reaches_the_sampling_points(tmp_path):
    spans = traced_smoke_spans(tmp_path, "--arch", "sage")
    # SAGE reuses no forward: each of the 9 clients samples and runs one
    # forward per training step and one per evaluation, over 40 rounds
    assert spans["gnn.forward"] == 9 * 40 * 2
    assert spans["gnn.sample"] == 9 * 40 * 2
    for name in ("fedavg.local_steps", "gnn.backward", "gnn.adam"):
        assert spans[name] == 9 * 40, name
    assert spans["fedavg.eval"] == 5 * 40
