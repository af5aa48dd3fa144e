"""Two-stage federated graph learning for multi-party fraud detection.

Stage 1 fuses the parties' transaction graphs without revealing them: a
private set intersection finds the shared vertices, each party normalizes
and (optionally) perturbs its edge evidence over that intersection, and the
receiver re-materializes edge weights from the shares.  Stage 2 trains a
graph neural network (GCN or GraphSAGE) on the fused graphs with federated
weight averaging, so raw data never leaves a party.

The subpackages are usable on their own: ``data`` for the CSV dataset
contract, ``psi`` for the intersection protocols, ``fusion`` for stage 1,
``gnn``/``fedavg`` for stage 2, ``metrics`` for evaluation, and
``harness``/``cli`` for reproducible experiments.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .data import (EDGE_DTYPE, ClientGraph, DatasetFormatError, GraphCSR,
                   MultiRelationDataset, NodeTable, SplitAssignment,
                   balance_sample, incident_sums, load_dataset,
                   load_node_table, load_relation, stratified_split,
                   write_node_table, write_relation, zscore_features)
from .fedavg import (ClientState, FederationConfig, aggregate, evaluate_global,
                     federated_round, local_steps, make_client,
                     train_federation)
from .fusion import (SHARE_DTYPE, FusionConfig, VirtualFusedGraph,
                     apply_dp, fuse, khop_shares, normalize_edges, update_edge,
                     virtual_fusion_round, write_shares)
from .gnn import (AdamState, ModelParams, adam_step, gcn_forward, init_adam,
                  init_params, loss_and_grads, normalized_adjacency,
                  sage_forward, sample_neighbor_means, softmax)
from .harness import run_experiment, summarize
from .metrics import (METRIC_NAMES, EvalResult, RoundHistory, accuracy, auc,
                      gmean, macro_f1, window_average)
from .psi import (PsiBackend, PsiProtocolError, PsiResult, PsiTranscript,
                  encode_id, psi_ddh, psi_plain)
from .seeding import derive_seed
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ClientGraph", "ClientState", "ConfigError",
    "DatasetFormatError", "EDGE_DTYPE", "EvalResult", "ExperimentConfig", "FederationConfig",
    "FusionConfig", "GraphCSR", "METRIC_NAMES", "ModelParams", "MultiRelationDataset",
    "NodeTable", "PsiBackend", "PsiProtocolError",
    "PsiResult", "PsiTranscript", "RoundHistory", "SHARE_DTYPE", "SplitAssignment",
    "SyntheticSpec", "VirtualFusedGraph", "accuracy", "adam_step", "aggregate",
    "apply_dp", "auc", "balance_sample", "derive_seed", "encode_id",
    "evaluate_global", "federated_round",
    "fuse", "gcn_forward", "generate_synthetic", "gmean", "incident_sums", "init_adam", "init_params", "khop_shares", "load_config",
    "load_dataset", "load_node_table", "load_relation", "local_steps",
    "loss_and_grads", "macro_f1", "make_client",
    "normalize_edges", "normalized_adjacency", "parse_config", "psi_ddh",
    "psi_plain", "run_experiment", "sage_forward", "sample_neighbor_means",
    "softmax", "stratified_split", "summarize", "train_federation",
    "update_edge", "virtual_fusion_round", "window_average",
    "write_node_table", "write_relation", "write_shares", "zscore_features",
]
