"""Spans around the twosfgl functions each module calls, and the per-layer
metrics derived from them.

Every traced function is replaced in the namespace of the module that calls
it (``fedavg.gcn_forward``, ``harness.virtual_fusion_round``, ...), so the
program itself is untouched.  Spans are kept in memory as
``[name, start, end, parent index]`` and written out once, when the traced
process ends.  Counts are taken at the same boundaries from the arguments and
results of the wrapped calls.
"""

import functools
import importlib
import math
import time

__all__ = ["Tracer", "install", "merge", "self_times", "layer_metrics"]


class Tracer:
    """Records nested spans and counters for one single-threaded process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a function that records a span named
        ``name`` around each call, then calls ``count(tracer, args, result)``."""
        inner = getattr(owner, attr)
        spans, open_spans = self.spans, self._open

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append([name, time.perf_counter(), None, parent])
            open_spans.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)


def _count_psi(tracer, args, result):
    tracer.add("psi.ids", len(args[0]) + len(args[1]))
    tracer.add("psi.transcript_bytes", len(result.transcript.payload_bytes()))


def _count_fusion(tracer, args, result):
    fused, shares_by_pair = result
    shares = [s for pair_shares in shares_by_pair.values() for s in pair_shares]
    tracer.add("fusion.shares", len(shares))
    tracer.add("fusion.nonzero_shares", sum(1 for s in shares if s.value > 0))
    tracer.add("fusion.fused_edges", sum(len(g.edges) for g in fused))


def _count_nnz(tracer, args, result):
    tracer.add("gnn.adj_nnz", int(result.nnz))


MODEL_BYTES = "fedavg.model_bytes_per_round"


def _count_model_bytes(tracer, args, result):
    from twosfgl.gnn import params_to_bytes
    clients = list(args[0])
    computed = 2 * len(clients) * len(params_to_bytes(clients[0].params))
    tracer.counts[MODEL_BYTES] = max(tracer.counts.get(MODEL_BYTES, 0), computed)


# (module, attribute, span name, counter): each public function as bound in
# the module that calls it.
POINTS = [
    ("twosfgl.cli", "run_experiment", "harness.run_experiment", None),
    ("twosfgl.harness", "generate_synthetic", "synth.generate", None),
    ("twosfgl.harness", "load_dataset", "data.load", None),
    ("twosfgl.cli", "fusion_outputs", "harness.fusion_outputs", None),
    ("twosfgl.harness", "fusion_outputs", "harness.fusion_outputs", None),
    ("twosfgl.harness", "virtual_fusion_round", "fusion.round", _count_fusion),
    ("twosfgl.fusion", "psi_ddh", "psi.ddh", _count_psi),
    ("twosfgl.fusion", "normalize_edges", "fusion.normalize", None),
    ("twosfgl.fusion", "khop_shares", "fusion.khop", None),
    ("twosfgl.fusion", "apply_dp", "fusion.dp", None),
    ("twosfgl.fusion", "fuse", "fusion.fuse", None),
    ("twosfgl.harness", "make_client", "fedavg.make_client", None),
    ("twosfgl.fedavg", "normalized_adjacency", "gnn.adjacency", _count_nnz),
    ("twosfgl.harness", "train_federation", "fedavg.train", _count_model_bytes),
    ("twosfgl.fedavg", "federated_round", "fedavg.round", None),
    ("twosfgl.fedavg", "local_steps", "fedavg.local_steps", None),
    ("twosfgl.fedavg", "gcn_forward", "gnn.forward", None),
    ("twosfgl.fedavg", "sage_forward", "gnn.forward", None),
    ("twosfgl.gnn", "sample_neighbor_means", "gnn.sample", None),
    ("twosfgl.fedavg", "loss_and_grads", "gnn.backward", None),
    ("twosfgl.fedavg", "adam_step", "gnn.adam", None),
    ("twosfgl.fedavg", "aggregate", "fedavg.aggregate", None),
    ("twosfgl.fedavg", "evaluate_global", "fedavg.eval", None),
    ("twosfgl.fedavg", "accuracy", "metrics.score", None),
    ("twosfgl.fedavg", "macro_f1", "metrics.score", None),
    ("twosfgl.fedavg", "auc", "metrics.score", None),
    ("twosfgl.fedavg", "gmean", "metrics.score", None),
    ("twosfgl.metrics", "RoundHistory.to_csv", "harness.history_write", None),
    ("twosfgl.harness", "write_summary", "harness.history_write", None),
    ("twosfgl.harness", "write_table", "harness.history_write", None),
]


def install(tracer):
    """Wrap every point in POINTS; the modules must import cleanly."""
    for module_name, attr, name, count in POINTS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.wrap(owner, leaf, name, count)


def merge(docs):
    """One record for traced processes run one after another, as if they had
    been one: import times and counts add up, except the per-round model
    size, which is the largest; spans keep their parents."""
    spans, counts = [], {}
    for doc in docs:
        offset = len(spans)
        spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                     for name, start, end, parent in doc["spans"])
        for key, value in doc["counts"].items():
            counts[key] = (max(counts.get(key, 0), value) if key == MODEL_BYTES
                           else counts.get(key, 0) + value)
    return {"import_s": sum(doc["import_s"] for doc in docs), "spans": spans,
            "counts": counts}


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations sum to the part of the parent's interval they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail_percentile(count):
    """The highest of the usual percentiles with at least ten samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def round_durations(spans):
    """Seconds per federation round: from the start of ``federated_round`` to
    the end of the ``evaluate_global`` that follows it in the same run."""
    rounds, evals = {}, {}
    for name, start, end, parent in spans:
        if name == "fedavg.round":
            rounds.setdefault(parent, []).append(start)
        elif name == "fedavg.eval":
            evals.setdefault(parent, []).append(end)
    out = []
    for parent, starts in rounds.items():
        ends = evals.get(parent, [])
        if len(ends) != len(starts):
            raise ValueError("every federated round must be followed by one "
                             "evaluation")
        out.extend(e - s for s, e in zip(starts, ends))
    return out


def layer_metrics(doc):
    """Per-layer metrics of one traced process.

    ``doc`` is what the traced child wrote: ``import_s``, ``spans`` and
    ``counts``.  Layers the workload never reaches report 0.
    """
    spans, counts = doc["spans"], doc["counts"]
    own = self_times(spans)
    total, self_total, calls = {}, {}, {}
    for (name, start, end, _), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    forward_by_parent = {}
    for name, start, end, parent in spans:
        if name == "gnn.forward":
            caller = spans[parent][0] if parent >= 0 else ""
            forward_by_parent[caller] = forward_by_parent.get(caller, 0.0) + end - start

    def t(name):
        return total.get(name, 0.0)

    psi_ids = counts.get("psi.ids", 0)
    shares = counts.get("fusion.shares", 0)
    rounds_ms = [1000.0 * d for d in round_durations(spans)]
    tail = tail_percentile(len(rounds_ms))
    return {
        "cli.import_s": doc["import_s"],
        "synth.generate_s": t("synth.generate"),
        "data.load_s": t("data.load"),
        "psi.calls": calls.get("psi.ddh", 0),
        "psi.s": t("psi.ddh"),
        "psi.ms_per_id": 1000.0 * t("psi.ddh") / psi_ids if psi_ids else 0.0,
        "psi.transcript_bytes": counts.get("psi.transcript_bytes", 0),
        "fusion.round_s": t("fusion.round"),
        "fusion.normalize_s": t("fusion.normalize"),
        "fusion.khop_s": t("fusion.khop"),
        "fusion.dp_s": t("fusion.dp"),
        "fusion.fuse_s": t("fusion.fuse"),
        "fusion.self_s": self_total.get("fusion.round", 0.0),
        "harness.fusion_dump_s": self_total.get("harness.fusion_outputs", 0.0),
        "fusion.shares": shares,
        "fusion.nonzero_share_ratio":
            counts.get("fusion.nonzero_shares", 0) / shares if shares else 0.0,
        "fusion.fused_edges": counts.get("fusion.fused_edges", 0),
        "gnn.adjacency_s": t("gnn.adjacency"),
        "gnn.adj_nnz": counts.get("gnn.adj_nnz", 0),
        "gnn.forward_s": t("gnn.forward"),
        "gnn.forward_train_s": forward_by_parent.get("fedavg.local_steps", 0.0),
        "gnn.forward_eval_s": forward_by_parent.get("fedavg.eval", 0.0),
        "gnn.forward_calls": calls.get("gnn.forward", 0),
        "gnn.backward_s": t("gnn.backward"),
        "gnn.adam_s": t("gnn.adam"),
        "gnn.sample_s": t("gnn.sample"),
        "gnn.sample_calls": calls.get("gnn.sample", 0),
        "fedavg.make_client_s": t("fedavg.make_client"),
        "fedavg.local_steps_s": t("fedavg.local_steps"),
        "fedavg.aggregate_s": t("fedavg.aggregate"),
        "fedavg.eval_s": t("fedavg.eval"),
        "fedavg.eval_share":
            t("fedavg.eval") / t("fedavg.train") if t("fedavg.train") else 0.0,
        "fedavg.rounds": len(rounds_ms),
        "fedavg.round_ms_p50": nearest_rank(rounds_ms, 50.0) if rounds_ms else 0.0,
        "fedavg.round_ms_tail": nearest_rank(rounds_ms, tail) if rounds_ms else 0.0,
        "fedavg.round_tail_pct": tail if rounds_ms else 0.0,
        MODEL_BYTES: counts.get(MODEL_BYTES, 0),
        "metrics.score_s": t("metrics.score"),
        "harness.history_write_s": t("harness.history_write"),
        "harness.self_s": self_total.get("harness.run_experiment", 0.0),
    }


# Counts that must repeat exactly between runs of one commit.
EXACT_COUNTS = ("fusion.shares", "fusion.fused_edges", "gnn.adj_nnz",
                "psi.transcript_bytes", MODEL_BYTES)
