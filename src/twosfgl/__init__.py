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

__version__ = "0.1.0"
